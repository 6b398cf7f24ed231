"""Command-line surface: sketch, estimate, simulate, fit, merge, experiment.

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 numerical-domain
error or out of memory.  All configuration is explicit (flags or config file);
no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import dp
from .numkit import DomainError
from .report import (CHOICES, NUMBERS, ORDER_FIELDS, PRIORS, SPEC_KEYS, EstimateReport, SpecError,
                     check_estimator, estimate, given)
from .sketch import (
    MAX_WIDTH,
    HashSpec,
    Sketch,
    SketchFormatError,
    sketch_load,
    sketch_merge,
    sketch_save,
)
from .tokenizers import make_tokenizer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_in(lo: int, hi: float, rule: str):
    """An argparse type: an integer in [lo, hi]; argparse names the flag of a value refused."""
    def integer(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid integer value"
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return integer


_SEED = _int_in(0, float("inf"), "an integer >= 0")
_WIDTH = _int_in(1, MAX_WIDTH, "an integer in [1, 2^24]")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bnpsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sketch", help="hash a token stream into a sketch file")
    p.add_argument("--input", default="-", help="input path, or - for stdin")
    p.add_argument("--width", type=_WIDTH, required=True, help="number of buckets J")
    p.add_argument("--seed", type=_SEED, default=0, help="seed for the hash draw")
    p.add_argument(
        "--tokenizer",
        default="lines",
        help="lines | words | kmer:K | ngram:N",
    )
    p.add_argument("--dictionary", default=None, help="optional word list filter")
    p.add_argument("--output", required=True, help="sketch file to write")

    # an estimator flag left unset is not given: the estimator table fills its default
    p = sub.add_parser("estimate", help="estimate coverage masses from a sketch")
    p.add_argument("--sketch", required=True)
    p.add_argument("--prior", choices=list(PRIORS), required=True)
    fits = dict.fromkeys(fit for prior_fits, _, _ in PRIORS.values() for fit in prior_fits)
    p.add_argument("--fit", choices=list(fits), default="none")
    for key in SPEC_KEYS[2:]:  # past prior and fit: a number's type, or a choice
        kind = {"choices": CHOICES[key]} if key in CHOICES else {"type": NUMBERS[key][0]}
        p.add_argument("--" + key.replace("_", "-"), **kind)
    p.add_argument("--seed", type=_SEED)  # read by --fit eb-wasserstein and --method mc only
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default="-")

    p = sub.add_parser("simulate", help="draw synthetic data: tokens, sketch, truth")
    p.add_argument("--model", choices=["dp", "pyp", "zipf"], required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--exponent", type=float)
    p.add_argument("--vocab", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--width", type=_WIDTH, default=128)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument(
        "--emit",
        default="tokens,sketch,truth",
        help="comma list from {tokens, sketch, truth}",
    )
    p.add_argument("--output", required=True, help="output path prefix")

    p = sub.add_parser("fit", help="fit prior parameters from a sketch")
    p.add_argument("--sketch", required=True)
    p.add_argument("--fit", choices=[fit for fit in fits if fit != "none"], default="eb-mle")
    # read by eb-wasserstein only; left unset, wasserstein_fit's defaults hold
    p.add_argument("--num-reps", type=int)
    p.add_argument("--n-sim", type=int)
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--surface-out", help="CSV path for the distance surface")

    p = sub.add_parser("merge", help="merge sketches built with one hash spec")
    p.add_argument("inputs", nargs="+", help="sketch files")
    p.add_argument("--output", required=True)

    p = sub.add_parser("experiment", help="run a simulation grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="CSV path (overrides config.output)")

    return parser


def _open_out(path):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _cmd_sketch(args) -> int:
    try:
        tokenizer = make_tokenizer(args.tokenizer, args.dictionary)
    except ValueError as exc:
        raise UsageError(str(exc))
    spec = HashSpec.random(args.width, args.seed)
    sk = Sketch(spec)
    if args.input == "-":
        stream = sys.stdin.buffer
        sk.insert_tokens(tokenizer(stream))
    else:
        with open(args.input, "rb") as stream:
            sk.insert_tokens(tokenizer(stream))
    sketch_save(sk, args.output)
    print(f"sketched n={sk.n} tokens into {args.output} (J={spec.width})", file=sys.stderr)
    return EXIT_OK


def _report_to_csv(report: EstimateReport, fh) -> None:
    row = {"n": report.n, "width": report.width, **report.prior.to_dict(), "method": report.method,
           "distinct": report.distinct}
    for name, prefix in ORDER_FIELDS.items():
        orders = getattr(report, name)
        if orders is not None:
            row |= {f"{prefix}_{r}": v for r, v in sorted(orders.items())}
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(row)
    writer.writerow(row.values())


def _cmd_estimate(args) -> int:
    spec = check_estimator(given(**{k: getattr(args, k) for k in SPEC_KEYS}))
    if args.seed is not None and spec["fit"] != "eb-wasserstein" and spec.get("method") != "mc":
        raise UsageError("--seed is read by --fit eb-wasserstein and --method mc only")
    report = estimate(sketch_load(args.sketch), spec, seed=args.seed or 0)
    fh, close = _open_out(args.output)
    try:
        if args.format == "json":
            fh.write(report.to_json(indent=2, sort_keys=True))
            fh.write("\n")
        else:
            _report_to_csv(report, fh)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import oracle
    from .experiment import MODEL_KEYS, draw, model_grid

    emit = {part.strip() for part in args.emit.split(",") if part.strip()}
    unknown = emit - {"tokens", "sketch", "truth"}
    if unknown:
        raise UsageError(f"unknown emit targets: {sorted(unknown)}")
    if not emit:
        raise UsageError("--emit must name at least one of tokens, sketch, truth")
    (params,) = model_grid(args.model, given(**{k: getattr(args, k, None) for k in MODEL_KEYS}))
    ss = np.random.SeedSequence(args.seed)
    s_data, s_hash = ss.spawn(2)
    spec = HashSpec.random(args.width, s_hash) if "sketch" in emit else None
    sample, sk = draw(args.model, params, args.n, s_data, spec)

    if "tokens" in emit:
        with open(args.output + ".tokens", "w", encoding="utf-8") as fh:
            for s in sample.symbols:
                fh.write(f"{int(s)}\n")
    if sk is not None:
        sketch_save(sk, args.output + ".sketch")
    if "truth" in emit:
        stats, cov = oracle.ground_truth(sample)
        truth = {
            "model": {"model": args.model, **params},
            "n": args.n,
            "seed": args.seed,
            "coverage": {str(r): float(p) for r, p in enumerate(cov)},
            "distinct": stats.k,
            "freq_counts": {str(r): int(m) for r, m in enumerate(stats.m[:cov.size]) if r and m},
        }
        with open(args.output + ".truth.json", "w", encoding="utf-8") as fh:
            json.dump(truth, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_fit(args) -> int:
    kw = given(num_reps=args.num_reps, n_sim=args.n_sim, seed=args.seed)
    if args.fit == "eb-mle" and (kw or args.surface_out is not None):
        raise UsageError("--fit eb-mle reads none of --num-reps, --n-sim, --seed, --surface-out")
    sk = sketch_load(args.sketch)
    if args.fit == "eb-mle":
        theta, boundary = dp.dp_fit_theta(sk)
        print(json.dumps({"fit": "eb-mle", "theta": theta, "boundary_hit": boundary}))
        return EXIT_OK
    from . import pyp

    result = pyp.wasserstein_fit(sk, **kw)
    print(
        json.dumps(
            {
                "fit": "eb-wasserstein",
                "alpha": result.prior.alpha,
                "theta": result.prior.theta,
                "n_sim": result.n_sim,
                "num_reps": result.num_reps,
            }
        )
    )
    fh, close = _open_out(args.surface_out) if args.surface_out else (sys.stdout, False)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "theta", "distance"])
        for a, t, d in result.surface_rows():
            writer.writerow([repr(a), repr(t), repr(d)])
    finally:
        if close:
            fh.close()
    return EXIT_OK


def _cmd_merge(args) -> int:
    sketches = [sketch_load(path) for path in args.inputs]
    merged = sketches[0]
    for other in sketches[1:]:
        merged = sketch_merge(merged, other)
    sketch_save(merged, args.output)
    print(f"merged {len(sketches)} sketches, n={merged.n}", file=sys.stderr)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    from .experiment import ExperimentConfig, run_experiment, write_csv

    try:
        cfg = ExperimentConfig.from_json_file(args.config)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad experiment config: {exc}", file=sys.stderr)
        return EXIT_DATA
    out = args.output or cfg.output
    rows = run_experiment(cfg)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_csv(cfg, rows, fh)
        print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)
    else:
        write_csv(cfg, rows, sys.stdout)
    return EXIT_OK


_COMMANDS = {
    "sketch": _cmd_sketch,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "merge": _cmd_merge,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, SpecError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SketchFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OverflowError as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # an input too large to hold, such as a simulated n of 10^12
        print(f"numerical-domain error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # DomainError and its subclasses land here together with other
        # numerical range violations
        kind = "numerical-domain error" if isinstance(exc, DomainError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, DomainError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
