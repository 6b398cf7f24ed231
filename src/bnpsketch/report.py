"""Estimate bundles and their JSON encoding."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["EstimateReport", "FittedPrior"]


def _by_order(d: dict) -> dict:
    """An order-keyed dict with JSON string keys, in order."""
    return {str(r): v for r, v in sorted(d.items())}


@dataclass
class FittedPrior:
    """Prior parameters plus where they came from.

    provenance is one of "given", "eb-mle", "eb-wasserstein"; boundary_hit is
    set when a likelihood search pinned against a search bound.
    """

    alpha: float
    theta: float
    provenance: str = "given"
    boundary_hit: bool = False

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "theta": self.theta,
            "provenance": self.provenance,
            "boundary_hit": self.boundary_hit,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedPrior":
        return cls(
            alpha=d["alpha"],
            theta=d["theta"],
            provenance=d.get("provenance", "given"),
            boundary_hit=d.get("boundary_hit", False),
        )


@dataclass
class EstimateReport:
    """Everything one estimation run produced.

    coverage maps order r -> estimated mass for r = 0..r_max; freq_counts
    maps r -> estimated number of distinct symbols with frequency r for
    r = 1..r_max; distinct is the estimated total number of distinct symbols.
    mc_stderr carries per-order Monte Carlo standard errors when the method
    is sampling-based, and diagnostics its trust measures (a nested dict maps
    order r -> value); an empty diagnostics dict is left out of the JSON.
    """

    n: int
    width: int
    prior: FittedPrior
    method: str
    coverage: dict = field(default_factory=dict)
    freq_counts: dict = field(default_factory=dict)
    distinct: float = 0.0
    mc_stderr: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "width": self.width,
            "prior": self.prior.to_dict(),
            "method": self.method,
            "coverage": _by_order(self.coverage),
            "freq_counts": _by_order(self.freq_counts),
            "distinct": self.distinct,
            "mc_stderr": None if self.mc_stderr is None else _by_order(self.mc_stderr),
            "wall_time": self.wall_time,
        }
        if self.diagnostics:
            out["diagnostics"] = {
                k: _by_order(v) if isinstance(v, dict) else v for k, v in self.diagnostics.items()
            }
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "EstimateReport":
        return cls(
            n=d["n"],
            width=d["width"],
            prior=FittedPrior.from_dict(d["prior"]),
            method=d["method"],
            coverage={int(r): v for r, v in d.get("coverage", {}).items()},
            freq_counts={int(r): v for r, v in d.get("freq_counts", {}).items()},
            distinct=d.get("distinct", 0.0),
            mc_stderr=(
                None
                if d.get("mc_stderr") is None
                else {int(r): v for r, v in d["mc_stderr"].items()}
            ),
            diagnostics={
                k: {int(r): x for r, x in v.items()} if isinstance(v, dict) else v
                for k, v in d.get("diagnostics", {}).items()
            },
            wall_time=d.get("wall_time", 0.0),
        )

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        return cls.from_dict(json.loads(text))
