"""Estimate bundles, their JSON encoding, and the estimator table.

The table states once, per prior, its fit modes, the keys it reads and each
key's default and range.  The CLI, experiment configs and the report
functions check a spec with ``check_estimator``; ``estimate`` runs one.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

from .numkit import DomainError

__all__ = ["EstimateReport", "FittedPrior"]


class SpecError(DomainError):
    """A spec no prior reads: an unknown prior, fit, method or debias mode, a key
    the prior does not read, fit "none" without its parameters, or a value of
    the wrong JSON type.  A value out of its range is a plain DomainError."""


# per prior, the default first: fit modes (the default first), keys read past prior and fit,
# and the keys fit "none" needs
PRIORS = {
    "dp": (("eb-mle", "none"), ("r_max", "theta"), ("theta",)),
    "pyp": (("none", "eb-wasserstein"),
            ("r_max", "theta", "alpha", "method", "mc_samples", "debias"), ("alpha", "theta")),
}
SPEC_KEYS = ("prior", "fit", *dict.fromkeys(k for _, reads, _ in PRIORS.values() for k in reads))
CHOICES = {"method": ("exact", "mc"), "debias": ("tin", "none")}  # the default first
# number type, default (None: none, or the report's own), range test, the range in words
NUMBERS = {
    "r_max": (int, None, lambda v: v >= 0, "be >= 0"),
    "theta": (float, None, lambda v: v > 0, "be > 0"),
    "alpha": (float, None, lambda v: 0 < v < 1, "lie in (0, 1) (alpha = 0: the dp prior)"),
    "mc_samples": (int, 100_000, lambda v: 100 <= v <= 1 << 24,  # 128 MB per float64 array
                   "lie in [100, 2^24] (CLI: --mc-samples)"),
}
DEFAULTS = {k: c[0] for k, c in CHOICES.items()} | {k: v[1] for k, v in NUMBERS.items()}


def _choice(key: str, value, choices: tuple) -> str:
    if not isinstance(value, str) or value not in choices:
        raise SpecError(f"unknown {key} {value!r}; choose {' or '.join(choices)}")
    return value


def json_number(key: str, value, kind: type):
    """``value`` as ``kind``, int or float; a bool, or a float where an int is read, is refused."""
    wanted, what = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise SpecError(f"{key} must be {what}, got {value!r}")
    return kind(value)


def check_value(key: str, value):
    """``value`` of estimator key ``key`` checked against the table: its type, then its range."""
    if key in CHOICES:
        return _choice(key, value, CHOICES[key])
    kind, _, in_range, rule = NUMBERS[key]
    value = json_number(key, value, kind)
    if not in_range(value):
        raise DomainError(f"{key} must {rule}, got {value}")
    return value


def given(**kw) -> dict:
    """The keyword arguments that are not None: the keys of a spec that were given."""
    return {k: v for k, v in kw.items() if v is not None}


def check_estimator(spec: dict, model: dict | None = None) -> dict:
    """``spec`` checked against the table and normalised: its prior, its fit and every key the
    prior reads, at its default (or None) when left out.  A parameter fit "none" needs and
    ``spec`` leaves out is taken from ``model``, a generating model's parameters."""
    prior = _choice("prior", spec.get("prior", next(iter(PRIORS))), tuple(PRIORS))
    fits, reads, needs = PRIORS[prior]
    extra = spec.keys() - {"prior", "fit", *reads}
    if extra:
        raise SpecError(f"prior {prior!r} does not read {sorted(extra)}")
    out = {"prior": prior, "fit": _choice("fit", spec.get("fit", fits[0]), fits)}
    if out["fit"] == "none":
        spec = {k: model[k] for k in needs if k in (model or {})} | spec
        missing = [k for k in needs if k not in spec]
        if missing:
            raise SpecError(f"fit 'none' under the {prior} prior needs {' and '.join(missing)}")
    for key in reads:
        out[key] = check_value(key, spec[key]) if key in spec else DEFAULTS[key]
    return out


def estimate(sketch, spec: dict, seed=0) -> EstimateReport:
    """The report of a spec from ``check_estimator``; ``seed`` drives pyp fits and draws."""
    kw = {k: v for k, v in spec.items() if k != "prior"}
    if spec["prior"] == "dp":
        from .dp import dp_report

        return dp_report(sketch, **kw)
    from .genmodel import PriorParams
    from .pyp import pyp_report

    alpha, theta = kw.pop("alpha"), kw.pop("theta")
    params = PriorParams(alpha, theta) if kw["fit"] == "none" else None
    return pyp_report(sketch, params=params, seed=seed, **kw)


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
