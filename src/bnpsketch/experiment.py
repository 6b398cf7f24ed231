"""Experiment harness: simulation grids scored against ground truth.

A config describes a grid of generating models and sample sizes; every
(cell, repetition) pair draws fresh data and a fresh hash, sketches the
stream, runs the configured estimator, and writes one CSV row comparing the
estimates to the oracle truth.  All randomness descends from
SeedSequence(seed, spawn_key=(cell, rep)), so rows do not depend on
execution order and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, fields

import numpy as np

from . import dp, oracle, pyp
from .genmodel import PriorParams, sample_pyp_sequence, sample_zipf_sequence
from .sketch import HashSpec, Sketch, buckets_u64, prehash_tokens

__all__ = ["ExperimentConfig", "csv_header", "run_experiment", "write_csv"]

_BASE_COLUMNS = [
    "model",
    "alpha_true",
    "theta_true",
    "n",
    "J",
    "rep",
    "seed",
    "truth_missing_mass",
    "est_missing_mass",
    "theta_hat",
    "alpha_hat",
    "k_true",
    "k_hat",
]
_TAIL_COLUMNS = ["method", "mc_stderr", "wall_time"]
# the estimator keys that _run_cell reads
_ESTIMATOR_KEYS = {"prior", "fit", "r_max", "theta", "alpha", "method", "mc_samples", "debias"}


@dataclass
class ExperimentConfig:
    model: str
    n_schedule: list
    width: int
    repetitions: int
    seed: int
    estimator: dict
    theta: list | None = None
    alpha: list | None = None
    exponent: list | None = None
    vocab: int = 0
    path: str | None = None
    tokenizer: str = "lines"
    sampler: str = "sticks"
    r_report: int = 5
    timing: bool = False
    workers: int = 1
    output: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {"n" if f.name == "n_schedule" else f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("model", "n", "width", "repetitions", "seed", "estimator"):
            if key not in d:
                raise ValueError(f"config is missing required key {key!r}")
        cfg = cls(
            model=d["model"],
            n_schedule=[int(x) for x in d["n"]],
            width=int(d["width"]),
            repetitions=int(d["repetitions"]),
            seed=int(d["seed"]),
            estimator=dict(d["estimator"]),
            theta=[float(x) for x in d["theta"]] if "theta" in d else None,
            alpha=[float(x) for x in d["alpha"]] if "alpha" in d else None,
            exponent=[float(x) for x in d["exponent"]] if "exponent" in d else None,
            vocab=int(d.get("vocab", 0)),
            path=d.get("path"),
            tokenizer=d.get("tokenizer", "lines"),
            sampler=d.get("sampler", "sticks"),
            r_report=int(d.get("r_report", 5)),
            timing=bool(d.get("timing", False)),
            workers=int(d.get("workers", 1)),
            output=d.get("output"),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def validate(self) -> None:
        if self.model not in ("dp", "pyp", "zipf", "file"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ValueError("n schedule must be strictly increasing")
        if not self.n_schedule:
            raise ValueError("n schedule must be nonempty")
        if self.model == "dp" and not self.theta:
            raise ValueError("dp model needs a theta list")
        if self.model == "pyp" and (not self.theta or not self.alpha):
            raise ValueError("pyp model needs theta and alpha lists")
        if self.model == "zipf" and (not self.exponent or self.vocab < 1):
            raise ValueError("zipf model needs an exponent list and vocab >= 1")
        if self.model == "file" and not self.path:
            raise ValueError("file model needs a path")
        if self.sampler not in ("sticks", "crp"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.r_report < 0:
            raise ValueError("r_report must be >= 0")
        est = self.estimator
        if set(est) - _ESTIMATOR_KEYS or est.get("prior", "dp") not in ("dp", "pyp"):
            raise ValueError(
                f"estimator {est} needs prior dp or pyp and keys among {sorted(_ESTIMATOR_KEYS)}"
            )

    def cells(self) -> list:
        """Grid cells: (model label, generator params, n)."""
        combos = []
        if self.model == "dp":
            combos = [("dp", {"alpha": 0.0, "theta": t}) for t in self.theta]
        elif self.model == "pyp":
            combos = [
                ("pyp", {"alpha": a, "theta": t}) for a in self.alpha for t in self.theta
            ]
        elif self.model == "zipf":
            combos = [
                (f"zipf(exponent={e},vocab={self.vocab})", {"exponent": e, "vocab": self.vocab})
                for e in self.exponent
            ]
        else:
            combos = [(f"file({self.path})", {"path": self.path})]
        return [
            (label, params, n) for label, params in combos for n in self.n_schedule
        ]


def csv_header(r_report: int) -> list:
    cols = list(_BASE_COLUMNS)
    for r in range(1, int(r_report) + 1):
        cols.append(f"truth_p_{r}")
        cols.append(f"est_p_{r}")
    cols.extend(_TAIL_COLUMNS)
    return cols


def _load_file_weights(path, tokenizer_spec):
    """Empirical distribution of a token file, treated as the true law."""
    from .tokenizers import make_tokenizer

    tok = make_tokenizer(tokenizer_spec)
    table: dict[bytes, int] = {}
    with open(path, "rb") as fh:
        for t in tok(fh):
            table[t] = table.get(t, 0) + 1
    if not table:
        raise ValueError(f"no tokens found in {path}")
    tokens = sorted(table)
    counts = np.array([table[t] for t in tokens], dtype=float)
    return tokens, counts / counts.sum()


_FILE_CACHE: dict = {}


def _file_sketch(spec: HashSpec, tokens: list, idx: np.ndarray) -> Sketch:
    """Sketch of the draws ``tokens[i] for i in idx``: each token hashed once, the draws counted at once."""
    j = buckets_u64(prehash_tokens(tokens, spec.symbol_seed), spec.a, spec.b, spec.width)
    return Sketch(spec, counts=np.bincount(j[idx], minlength=spec.width), n=len(idx))


def _run_cell(args):
    cfg, cell_idx, rep = args
    label, gparams, n = cfg.cells()[cell_idx]
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(cell_idx, rep))
    s_data, s_hash, s_est = ss.spawn(3)
    seed_id = int(ss.generate_state(1, dtype=np.uint64)[0])

    spec = HashSpec.random(cfg.width, s_hash)
    sketch = Sketch(spec)
    truth_cov = None
    k_true = None

    t0 = time.perf_counter()
    if cfg.model in ("dp", "pyp"):
        params = PriorParams(alpha=gparams["alpha"], theta=gparams["theta"])
        with_weights = cfg.sampler == "sticks"
        sample = sample_pyp_sequence(params, n, s_data, with_weights=with_weights)
        sketch.insert_ids(sample.symbols)
        stats = oracle.partition_stats(sample)
        k_true = stats.k
        if with_weights:
            truth_cov = oracle.true_coverage_profile(sample, cfg.r_report)
        alpha_true, theta_true = gparams["alpha"], gparams["theta"]
    elif cfg.model == "zipf":
        sample = sample_zipf_sequence(gparams["exponent"], gparams["vocab"], n, s_data)
        sketch.insert_ids(sample.symbols)
        stats = oracle.partition_stats(sample)
        k_true = stats.k
        truth_cov = oracle.true_coverage_profile(sample, cfg.r_report)
        alpha_true = theta_true = None
    else:
        key = (cfg.path, cfg.tokenizer)
        if key not in _FILE_CACHE:
            _FILE_CACHE[key] = _load_file_weights(cfg.path, cfg.tokenizer)
        tokens, weights = _FILE_CACHE[key]
        rng = np.random.default_rng(s_data)
        idx = rng.choice(len(tokens), size=n, p=weights)
        from .genmodel import RawSample

        sample = RawSample(
            symbols=np.asarray(idx, dtype=np.int64),
            atom_ids=np.arange(len(tokens), dtype=np.int64),
            atom_weights=weights,
        )
        sketch = _file_sketch(spec, tokens, idx)
        stats = oracle.partition_stats(sample)
        k_true = stats.k
        truth_cov = oracle.true_coverage_profile(sample, cfg.r_report)
        alpha_true = theta_true = None

    est = dict(cfg.estimator)
    prior_kind = est.get("prior", "dp")
    fit = est.get("fit", "eb-mle" if prior_kind == "dp" else "none")
    r_max = est.get("r_max")
    if r_max is None:
        r_max = max(cfg.r_report, 0)
    if prior_kind == "dp":
        theta0 = est.get("theta")
        if fit == "none" and theta0 is None:
            theta0 = theta_true
            if theta0 is None:
                raise ValueError(
                    "estimator fit='none' needs an explicit theta when the "
                    "generating model has no scale parameter"
                )
        report = dp.dp_report(sketch, theta=theta0, fit=fit, r_max=r_max)
    else:
        method = est.get("method", "exact")
        alpha0 = est.get("alpha")
        theta0 = est.get("theta")
        if fit == "none":
            if alpha0 is None:
                alpha0 = alpha_true
            if theta0 is None:
                theta0 = theta_true
            if alpha0 is None or theta0 is None:
                raise ValueError(
                    "estimator fit='none' needs explicit alpha and theta when "
                    "the generating model has no prior parameters"
                )
            params0 = PriorParams(alpha=float(alpha0), theta=float(theta0))
        else:
            params0 = None
        report = pyp.pyp_report(
            sketch,
            params=params0,
            fit=fit,
            method=method,
            r_max=r_max,
            mc_samples=int(est.get("mc_samples", 100_000)),
            debias=est.get("debias", "tin"),
            seed=s_est,
        )
    wall = time.perf_counter() - t0

    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return repr(x)
        return str(x)

    row = [
        label,
        fmt(alpha_true),
        fmt(theta_true),
        str(n),
        str(cfg.width),
        str(rep),
        str(seed_id),
        fmt(float(truth_cov[0]) if truth_cov is not None else None),
        fmt(report.coverage.get(0)),
        fmt(report.prior.theta),
        fmt(report.prior.alpha),
        fmt(k_true),
        fmt(report.distinct),
    ]
    for r in range(1, cfg.r_report + 1):
        row.append(fmt(float(truth_cov[r]) if truth_cov is not None else None))
        row.append(fmt(report.coverage.get(r)))
    row.append(report.method)
    row.append(fmt(report.mc_stderr.get(0) if report.mc_stderr else None))
    row.append(fmt(wall) if cfg.timing else "")
    return cell_idx, rep, row


def run_experiment(cfg: ExperimentConfig):
    """All grid rows, in deterministic (cell, rep) order."""
    jobs = [
        (cfg, cell_idx, rep)
        for cell_idx in range(len(cfg.cells()))
        for rep in range(cfg.repetitions)
    ]
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]
    results.sort(key=lambda item: (item[0], item[1]))
    return [row for _, _, row in results]


def write_csv(cfg: ExperimentConfig, rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(csv_header(cfg.r_report))
    writer.writerows(rows)


def experiment_csv(cfg: ExperimentConfig) -> str:
    buf = io.StringIO()
    write_csv(cfg, run_experiment(cfg), buf)
    return buf.getvalue()
