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
import itertools
import json
import time
from dataclasses import dataclass, fields

import numpy as np

from . import oracle
from .genmodel import PriorParams, RawSample, sample_pyp_sequence, sample_zipf_sequence
from .report import SpecError, check_estimator, check_value, estimate, json_number
from .sketch import HashSpec, Sketch, buckets_u64, prehash_tokens

__all__ = ["ExperimentConfig", "csv_header", "draw", "model_grid", "run_experiment", "write_csv"]

# each generating model: the keys it needs, whose lists (a single value is a list of one)
# make its grid in this loop order; the keys it may also read; the parameters it fixes; its
# cells' label.  A dp cell keeps alpha = 0.0, the pyp sampler's discount for the dp law.
MODELS = {
    "dp": (("theta",), ("sampler",), {"alpha": 0.0}, "dp"),
    "pyp": (("alpha", "theta"), ("sampler",), {}, "pyp"),
    "zipf": (("exponent", "vocab"), (), {}, "zipf(exponent={exponent},vocab={vocab})"),
    "file": (("path",), ("tokenizer",), {}, "file({path})"),
}
MODEL_KEYS = tuple(dict.fromkeys(k for needs, reads, _, _ in MODELS.values() for k in needs + reads))

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
# config fields of JSON integers, lists of JSON numbers and strings: a bool or a float (even
# 16.0) is refused where an integer is read, and a number where a path is (open() takes fds)
_INT_FIELDS = ("width", "repetitions", "seed", "vocab", "r_report", "workers")
_FLOAT_LIST_FIELDS = ("theta", "alpha", "exponent")
_STR_FIELDS = ("model", "path", "tokenizer", "sampler", "output")


def model_grid(model: str, given: dict) -> list:
    """The parameter sets of generating model ``model`` from the values ``given`` for its keys:
    the product of its needed keys' lists, each with its fixed and other given keys.  An unknown
    model, a needed key left out or empty and a key it does not read are refused."""
    if model not in MODELS:
        raise SpecError(f"unknown model {model!r}; choose {', '.join(MODELS)}")
    needs, reads, fixed, _ = MODELS[model]
    missing = [k for k in needs if given.get(k) in (None, [])]
    if missing:
        raise SpecError(f"model {model!r} needs {' and '.join(missing)}")
    unread = given.keys() - {*needs, *reads}
    if unread:
        raise SpecError(f"model {model!r} does not read {sorted(unread)}")
    lists = [given[k] if isinstance(given[k], list) else [given[k]] for k in needs]
    other = {k: given[k] for k in reads if k in given}
    return [fixed | dict(zip(needs, values)) | other for values in itertools.product(*lists)]


def draw(model: str, params: dict, n: int, seed, spec: HashSpec | None = None):
    """n observations of a generating model with parameters ``params`` (from ``model_grid``),
    and their sketch under ``spec`` (None without one).  The sampler checks the parameters, so
    a draw at n = 0 checks them without sampling."""
    if model == "file":
        tokens, weights = _load_file_weights(params["path"], params.get("tokenizer", "lines"))
        idx = np.random.default_rng(seed).choice(len(tokens), size=n, p=weights)
        sample = RawSample(idx.astype(np.int64), np.arange(len(tokens), dtype=np.int64), weights)
        return sample, None if spec is None else _file_sketch(spec, tokens, idx)
    if model == "zipf":
        sample = sample_zipf_sequence(params["exponent"], params["vocab"], n, seed)
    else:
        sampler = params.get("sampler", "sticks")
        if sampler not in ("sticks", "crp"):
            raise SpecError(f"unknown sampler {sampler!r}; choose sticks or crp")
        prior = PriorParams(params["alpha"], params["theta"])
        sample = sample_pyp_sequence(prior, n, seed, with_weights=sampler == "sticks")
    if spec is None:
        return sample, None
    sketch = Sketch(spec)
    sketch.insert_ids(sample.symbols)
    return sample, sketch


@dataclass
class ExperimentConfig:
    model: str
    n_schedule: list
    width: int
    repetitions: int
    seed: int
    estimator: dict
    model_params: dict  # the generating model's keys (MODEL_KEYS) as given
    r_report: int = 5
    timing: bool = False
    workers: int = 1
    output: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {"n" if f.name == "n_schedule" else f.name for f in fields(cls)} - {"model_params"}
        unknown = set(d) - known - set(MODEL_KEYS)
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
        for k in kw.keys() & _STR_FIELDS:
            if not isinstance(kw[k], str):
                raise SpecError(f"{k} must be a string, got {kw[k]!r}")
        model_params = {k: kw.pop(k) for k in MODEL_KEYS if k in kw}
        cfg = cls(**kw, model_params=model_params)
        cfg.validate()
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def validate(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.n_schedule or self.n_schedule[0] < 0:
            raise ValueError("n schedule must be nonempty and start at n >= 0")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ValueError("n schedule must be strictly increasing")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        HashSpec.random(self.width, 0)  # HashSpec's own width check
        check_value("r_max", self.r_report, "r_report")  # the truth profile's orders
        for _, gparams, _ in self.cells()[:: len(self.n_schedule)]:  # one per parameter set
            draw(self.model, gparams, 0, 0)  # its sampler's own checks, sampling nothing
            self._estimator_spec(gparams)

    def _estimator_spec(self, gparams: dict) -> dict:
        """A cell's checked estimator spec: r_max defaults to r_report, fit "none" reads gparams."""
        return check_estimator({"r_max": self.r_report, **self.estimator}, gparams)

    def cells(self) -> list:
        """Grid cells: (model label, generator params, n)."""
        grid = model_grid(self.model, self.model_params)
        return [(MODELS[self.model][3].format(**p), p, n) for p in grid for n in self.n_schedule]


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
    sample, sketch = draw(cfg.model, gparams, n, s_data, spec)
    stats, profile = oracle.ground_truth(sample, cfg.r_report)
    truth = [None] * (cfg.r_report + 1) if profile is None else profile.tolist()

    report = estimate(sketch, cfg._estimator_spec(gparams), seed=s_est)
    wall = time.perf_counter() - t0

    row = [
        label, gparams.get("alpha"), gparams.get("theta"), n, cfg.width, rep, seed_id,
        truth[0], report.coverage.get(0), report.prior.theta, report.prior.alpha,
        stats.k, report.distinct,
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
