"""Estimate bundles, their JSON encoding, and the estimator table.

The table states once, per prior, its fit modes, the keys it reads and each
key's default and range.  The CLI, experiment configs and the report
functions check a spec with ``check_estimator``; ``estimate`` runs one.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import asdict, dataclass, field, fields

from .numkit import DomainError

__all__ = ["EstimateReport", "FittedPrior"]


class SpecError(DomainError):
    """A spec no prior or generating model reads: an unknown prior, fit, method, debias mode,
    model or sampler, a key it does not read, one it needs left out, or a value of the wrong
    JSON type.  A value out of its range is a plain DomainError."""


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
    "r": (int, None, lambda v: v >= 0, "be >= 0"),  # one order: above the largest count it reads 0
    "r_max": (int, None, lambda v: 0 <= v < 1 << 24,  # a profile's orders: 128 MB of float64
              "be >= 0 and below 2^24 (CLI: --r-max)"),
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


def check_value(key: str, value, name: str | None = None):
    """``value`` of estimator key ``key`` checked against the table: its type, then its range.
    ``name`` is a config key read under ``key``'s rule: a refusal names it, without the CLI flag."""
    if key in CHOICES:
        return _choice(key, value, CHOICES[key])
    kind, _, in_range, rule = NUMBERS[key]
    value = json_number(name or key, value, kind)
    if not in_range(value):
        rule = rule.partition(" (CLI:")[0] if name else rule
        raise DomainError(f"{name or key} must {rule}, got {value}")
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


# each per-order field of a report and its CSV column prefix: an order-keyed dict
# goes to JSON with string keys, in order, and to CSV as one column per order
ORDER_FIELDS = {"coverage": "p", "freq_counts": "m", "mc_stderr": "se"}


def _orders_out(v):
    """An order-keyed dict with JSON string keys, in order; any other value as it is."""
    return {str(r): x for r, x in sorted(v.items())} if isinstance(v, dict) else v


def _orders_in(v):
    """The inverse of ``_orders_out``."""
    return {int(r): x for r, x in v.items()} if isinstance(v, dict) else v


def check_freq_order(r) -> int:
    """A frequency order: an order (the table's "r") of at least 1."""
    if (r := check_value("r", r)) < 1:
        raise DomainError(f"frequency order must be >= 1, got {r}")
    return r


def freq_counts_from(coverage: dict, n: int, theta: float, alpha: float = 0.0) -> dict:
    """m_r = (theta + n)/(r - alpha) p_r, the expected number of distinct symbols seen r
    times, at each order r >= 1 of ``coverage``; alpha = 0 is the dp prior."""
    return {r: float((theta + n) / (r - alpha) * p) for r, p in coverage.items() if r >= 1}


def distinct_from(p0: float, n: int, theta: float, alpha: float) -> float:
    """K = (theta + n)/alpha p_0 - theta/alpha, the expected number of distinct symbols
    under the pyp prior (alpha > 0), from its missing mass p_0."""
    return (theta + n) / alpha * p0 - theta / alpha


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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FittedPrior":
        """The prior of ``d``; keys that are not fields are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass
class EstimateReport:
    """Everything one estimation run produced.

    coverage maps order r -> estimated mass for r = 0..r_max; freq_counts
    maps r -> estimated number of distinct symbols with frequency r for
    r = 1..r_max; distinct is the estimated total number of distinct symbols.
    mc_stderr carries per-order Monte Carlo standard errors when the method
    is sampling-based, and diagnostics its trust measures (a nested dict maps
    order r -> value).  The JSON keys follow the field order, diagnostics
    last; an empty diagnostics dict is left out.
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
        out = {f.name: getattr(self, f.name) for f in fields(self)} | {"prior": self.prior.to_dict()}
        out |= {name: _orders_out(out[name]) for name in ORDER_FIELDS}
        diagnostics = {k: _orders_out(v) for k, v in out.pop("diagnostics").items()}
        return out | {"diagnostics": diagnostics} if diagnostics else out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "EstimateReport":
        """The report of ``d``; a missing n, width, prior or method raises TypeError."""
        kw = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        kw |= {name: _orders_in(kw[name]) for name in ORDER_FIELDS if name in kw}
        kw["diagnostics"] = {k: _orders_in(v) for k, v in kw.get("diagnostics", {}).items()}
        if "prior" in kw:
            kw["prior"] = FittedPrior.from_dict(kw["prior"])
        return cls(**kw)

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        return cls.from_dict(json.loads(text))


def last_order(r_max: int | None, c_max: int) -> int:
    """A report's last order: ``r_max``, or by default the largest bucket count ``c_max`` (past
    it every estimate is exactly zero), checked by the table's r_max rule (below 2^24)."""
    return check_value("r_max", c_max) if r_max is None else r_max


def build_report(sketch, prior: FittedPrior, method: str, coverage, distinct: float, t0: float,
                 mc_stderr: dict | None = None, diagnostics: dict | None = None) -> EstimateReport:
    """The report of a profile: ``coverage`` of orders 0..r_max (an array, or a dict by order),
    its frequency counts m_r = (theta + n)/(r - alpha) p_r under ``prior``, the distinct count,
    and the wall time since ``t0``, a ``time.perf_counter()`` reading."""
    if not isinstance(coverage, dict):
        coverage = dict(enumerate(coverage.tolist()))
    return EstimateReport(
        n=sketch.n,
        width=sketch.spec.width,
        prior=prior,
        method=method,
        coverage=coverage,
        freq_counts=freq_counts_from(coverage, sketch.n, prior.theta, prior.alpha),
        distinct=distinct,
        mc_stderr=mc_stderr,
        diagnostics=diagnostics or {},
        wall_time=time.perf_counter() - t0,
    )
