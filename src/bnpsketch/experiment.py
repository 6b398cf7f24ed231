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
import functools
import io
import json
import time
from dataclasses import dataclass, fields

import numpy as np

from . import oracle
from .genmodel import PriorParams, RawSample, sample_pyp_sequence, sample_zipf_sequence
from .report import check_estimator, estimate, json_number
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
# config fields of JSON integers, and of lists of JSON numbers; a bool or a
# float (even 16.0) where an integer is read is refused, not cast
_INT_FIELDS = ("width", "repetitions", "seed", "vocab", "r_report", "workers")
_FLOAT_LIST_FIELDS = ("theta", "alpha", "exponent")


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
        kw = {"n_schedule" if k == "n" else k: v for k, v in d.items()}
        kw["n_schedule"] = [json_number("n", x, int) for x in kw["n_schedule"]]
        kw["estimator"] = dict(kw["estimator"])
        for k in kw.keys() & _INT_FIELDS:
            kw[k] = json_number(k, kw[k], int)
        for k in kw.keys() & _FLOAT_LIST_FIELDS:
            kw[k] = [json_number(k, x, float) for x in kw[k]]
        cfg = cls(**kw)
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
        for _, gparams, _ in self.cells():
            self._estimator_spec(gparams)

    def _estimator_spec(self, gparams: dict) -> dict:
        """A cell's checked estimator spec: r_max defaults to r_report, fit "none" reads gparams."""
        return check_estimator({"r_max": self.r_report, **self.estimator}, gparams)

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


@functools.lru_cache(maxsize=None)
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


def _file_sketch(spec: HashSpec, tokens: list, idx: np.ndarray) -> Sketch:
    """Sketch of the draws ``tokens[i] for i in idx``: each token hashed once, the draws counted at once."""
    j = buckets_u64(prehash_tokens(tokens, spec.symbol_seed), spec.a, spec.b, spec.width)
    return Sketch(spec, counts=np.bincount(j[idx], minlength=spec.width), n=len(idx))


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(x) if isinstance(x, float) else str(x)


def _run_cell(args):
    cfg, cell_idx, rep = args
    label, gparams, n = cfg.cells()[cell_idx]
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(cell_idx, rep))
    s_data, s_hash, s_est = ss.spawn(3)
    seed_id = int(ss.generate_state(1, dtype=np.uint64)[0])
    spec = HashSpec.random(cfg.width, s_hash)

    t0 = time.perf_counter()
    if cfg.model == "file":
        tokens, weights = _load_file_weights(cfg.path, cfg.tokenizer)
        idx = np.random.default_rng(s_data).choice(len(tokens), size=n, p=weights)
        sample = RawSample(idx.astype(np.int64), np.arange(len(tokens), dtype=np.int64), weights)
        sketch = _file_sketch(spec, tokens, idx)
    else:
        if cfg.model == "zipf":
            sample = sample_zipf_sequence(gparams["exponent"], gparams["vocab"], n, s_data)
        else:
            sticks = cfg.sampler == "sticks"
            sample = sample_pyp_sequence(PriorParams(**gparams), n, s_data, with_weights=sticks)
        sketch = Sketch(spec)
        sketch.insert_ids(sample.symbols)
    truth = [None] * (cfg.r_report + 1)
    if sample.has_weights:
        truth = oracle.true_coverage_profile(sample, cfg.r_report).tolist()
    k_true = oracle.partition_stats(sample).k

    report = estimate(sketch, cfg._estimator_spec(gparams), seed=s_est)
    wall = time.perf_counter() - t0

    row = [
        label, gparams.get("alpha"), gparams.get("theta"), n, cfg.width, rep, seed_id,
        truth[0], report.coverage.get(0), report.prior.theta, report.prior.alpha,
        k_true, report.distinct,
    ]
    for r in range(1, cfg.r_report + 1):
        row += [truth[r], report.coverage.get(r)]
    stderr = report.mc_stderr.get(0) if report.mc_stderr else None
    row += [report.method, stderr, wall if cfg.timing else None]
    return cell_idx, rep, [_fmt(x) for x in row]


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
