"""Command-line surface: tokenizers, flag validation, exit codes, artifacts."""

import csv
import io
import json
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

from bnpsketch import cli, dp, pyp
from bnpsketch.experiment import ExperimentConfig, csv_header, experiment_csv
from bnpsketch.genmodel import PriorParams
from bnpsketch.numkit import DomainError
from bnpsketch.report import EstimateReport, SpecError
from bnpsketch.sketch import HashSpec, Sketch, crc32c, sketch_load, sketch_save, sketch_serialize
from bnpsketch.tokenizers import make_tokenizer

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return cli.main(list(argv))


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran past a refusal")


def tokens_of(spec, data: bytes):
    return list(make_tokenizer(spec)(io.BytesIO(data)))


class TestTokenizers:
    def test_kmer_window_count(self):
        assert tokens_of("kmer:3", b"ACGTA\n") == [b"ACG", b"CGT", b"GTA"]

    def test_kmer_fasta_headers_reset(self):
        data = b">seq1\nACGT\n>seq2\nTTTT\n"
        toks = tokens_of("kmer:3", data)
        assert toks == [b"ACG", b"CGT", b"TTT", b"TTT"]

    def test_kmer_windows_span_wrapped_lines(self):
        assert tokens_of("kmer:4", b"ACG\nTA\n") == [b"ACGT", b"CGTA"]

    def test_ngram_pairs(self):
        assert tokens_of("ngram:2", b"the cat sat\n") == [b"the cat", b"cat sat"]

    def test_words_normalization(self):
        assert tokens_of("words", b"The CAT, sat!\n") == [b"the", b"cat", b"sat"]

    def test_lines(self):
        assert tokens_of("lines", b"10.0.0.1\n\n10.0.0.2\n") == [b"10.0.0.1", b"10.0.0.2"]

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            make_tokenizer("kmer:zero")
        with pytest.raises(ValueError):
            make_tokenizer("frobnicate")


class TestSketchCommand:
    def test_lines_ingestion(self, tmp_path):
        inp = tmp_path / "toks.txt"
        inp.write_bytes(b"a\nb\na\nc\n")
        out = tmp_path / "x.sketch"
        assert run_cli("sketch", "--input", str(inp), "--width", "8", "--seed", "3",
                       "--output", str(out)) == 0
        s = sketch_load(out)
        assert s.n == 4 and s.spec.width == 8

    def test_kmer_count(self, tmp_path):
        inp = tmp_path / "seq.fa"
        inp.write_bytes(b">r\nACGTA\n")
        out = tmp_path / "x.sketch"
        run_cli("sketch", "--input", str(inp), "--width", "4", "--tokenizer", "kmer:3",
                "--output", str(out))
        assert sketch_load(out).n == 3

    def test_invalid_tokenizer_is_usage_error(self, tmp_path):
        inp = tmp_path / "t.txt"
        inp.write_bytes(b"x\n")
        code = run_cli("sketch", "--input", str(inp), "--width", "4",
                       "--tokenizer", "bogus", "--output", str(tmp_path / "o"))
        assert code == cli.EXIT_USAGE

    def test_dictionary_filter(self, tmp_path):
        inp = tmp_path / "t.txt"
        inp.write_bytes(b"alpha beta gamma alpha\n")
        dic = tmp_path / "dict.txt"
        dic.write_bytes(b"alpha\ngamma\n")
        out = tmp_path / "o.sketch"
        run_cli("sketch", "--input", str(inp), "--width", "4", "--tokenizer", "words",
                "--dictionary", str(dic), "--output", str(out))
        assert sketch_load(out).n == 3


    def test_dictionary_refused_where_the_tokenizer_ignores_it(self, tmp_path):
        inp = tmp_path / "t.txt"
        inp.write_bytes(b"ACGTAC ACGT\n")
        out = tmp_path / "o.sketch"
        # the word list does not exist: refusing it unread is a usage error, reading it a data one
        missing = str(tmp_path / "no-such-words.txt")
        for tokenizer, code in (("lines", cli.EXIT_USAGE), ("kmer:3", cli.EXIT_USAGE),
                                ("words", cli.EXIT_DATA), ("ngram:2", cli.EXIT_DATA)):
            assert run_cli("sketch", "--input", str(inp), "--width", "4", "--tokenizer", tokenizer,
                           "--dictionary", missing, "--output", str(out)) == code, tokenizer
        assert not out.exists()


class TestEstimateCommand:
    @pytest.fixture
    def sketch_file(self, tmp_path):
        spec = HashSpec.random(16, seed=0)
        s = Sketch(spec)
        s.insert_ids(np.arange(40) % 11)
        path = tmp_path / "x.sketch"
        sketch_save(s, path)
        return path

    def test_dp_eb_mle_missing_mass_identity(self, sketch_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run_cli("estimate", "--sketch", str(sketch_file), "--prior", "dp",
                       "--fit", "eb-mle", "--output", str(out)) == 0
        rep = EstimateReport.from_json(out.read_text())
        theta = rep.prior.theta
        assert abs(rep.coverage[0] - theta / (theta + rep.n)) < 1e-12

    def test_r_max_defaults_to_max_bucket(self, sketch_file, tmp_path):
        out = tmp_path / "rep.json"
        run_cli("estimate", "--sketch", str(sketch_file), "--prior", "dp",
                "--fit", "eb-mle", "--output", str(out))
        rep = EstimateReport.from_json(out.read_text())
        s = sketch_load(sketch_file)
        assert max(rep.coverage) == int(s.counts.max())
        assert abs(sum(rep.coverage.values()) - 1.0) < 1e-8

    def test_flag_validation(self, sketch_file):
        assert run_cli("estimate", "--sketch", str(sketch_file), "--prior", "dp",
                       "--fit", "none") == cli.EXIT_USAGE
        assert run_cli("estimate", "--sketch", str(sketch_file), "--prior", "dp",
                       "--method", "mc") == cli.EXIT_USAGE
        assert run_cli("estimate", "--sketch", str(sketch_file), "--prior", "pyp",
                       "--fit", "eb-mle") == cli.EXIT_USAGE
        assert run_cli("estimate", "--sketch", str(sketch_file), "--prior", "pyp",
                       "--fit", "none", "--theta", "1") == cli.EXIT_USAGE
        assert run_cli("estimate", "--sketch", str(sketch_file), "--prior", "pyp", "--alpha",
                       "0.5", "--theta", "1", "--method", "asymptotic") == cli.EXIT_USAGE

    def test_seed_is_read_by_monte_carlo_draws(self, sketch_file, tmp_path):
        # left unset the seed is 0; --fit eb-wasserstein and --method mc read it
        mc = ["--prior", "pyp", "--alpha", "0.5", "--theta", "1", "--method", "mc",
              "--mc-samples", "200", "--r-max", "2"]
        reports = {}
        for seed in ([], ["--seed", "0"], ["--seed", "3"]):
            out = tmp_path / f"{len(reports)}.json"
            assert run_cli("estimate", "--sketch", str(sketch_file), *mc, *seed,
                           "--output", str(out)) == cli.EXIT_OK
            reports[tuple(seed)] = json.loads(out.read_text())["coverage"]
        assert reports[()] == reports[("--seed", "0")] != reports[("--seed", "3")]

    def test_exact_over_budget_exits_numeric_naming_the_budget(self, tmp_path, capsys):
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        s = Sketch(spec, counts=np.array([10**6, 10], dtype=np.uint64), n=10**6 + 10)
        path = tmp_path / "big.sketch"
        sketch_save(s, path)
        code = run_cli("estimate", "--sketch", str(path), "--prior", "pyp",
                       "--alpha", "0.5", "--theta", "1", "--method", "exact")
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "budget is 67108864 cells" in err and "--method mc" not in err

    def test_over_cap_fit_exits_numeric_before_fitting(self, tmp_path, capsys, monkeypatch):
        def fit_must_not_run(*args, **kwargs):
            raise AssertionError("the fit ran on an over-cap sketch")

        monkeypatch.setattr(pyp, "wasserstein_fit", fit_must_not_run)
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        path = tmp_path / "big.sketch"
        sketch_save(Sketch(spec, counts=np.array([10**6, 10], dtype=np.uint64), n=10**6 + 10), path)
        code = run_cli("estimate", "--sketch", str(path), "--prior", "pyp",
                       "--fit", "eb-wasserstein")
        assert code == cli.EXIT_NUMERIC
        assert "budget" in capsys.readouterr().err

    def test_count_past_signed_range_exits_numeric(self, tmp_path, capsys):
        spec = HashSpec(a=1, b=0, width=3, symbol_seed=0)
        counts = np.array([2**63, 5, 0], dtype=np.uint64)
        path = tmp_path / "huge.sketch"
        sketch_save(Sketch(spec, counts=counts, n=2**63 + 5), path)
        for fit in (["--fit", "none", "--theta", "1"], ["--fit", "eb-mle"]):
            code = run_cli("estimate", "--sketch", str(path), "--prior", "dp", *fit)
            assert code == cli.EXIT_NUMERIC
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path_args",
        [
            ["--prior", "dp", "--fit", "eb-mle"],
            ["--prior", "pyp", "--alpha", "0.5", "--theta", "1", "--method", "exact"],
            ["--prior", "pyp", "--alpha", "0.5", "--theta", "1", "--method", "mc",
             "--mc-samples", "200"],
        ],
        ids=["dp", "pyp-exact", "pyp-mc"],
    )
    def test_negative_r_max_exits_numeric(self, sketch_file, tmp_path, capsys, path_args):
        out = tmp_path / "rep.json"
        code = run_cli("estimate", "--sketch", str(sketch_file), *path_args,
                       "--r-max", "-1", "--output", str(out))
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "r_max must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_default_r_max_past_array_limit_exits_numeric(self, tmp_path, capsys):
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        path = tmp_path / "big.sketch"
        sketch_save(Sketch(spec, counts=np.array([2**62, 5], dtype=np.uint64), n=2**62 + 5), path)
        argv = ["estimate", "--sketch", str(path), "--prior", "dp", "--theta", "2.5",
                "--output", str(tmp_path / "rep.json")]
        assert run_cli(*argv) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "--r-max" in err and "Traceback" not in err
        assert run_cli(*argv, "--r-max", "3") == cli.EXIT_OK

    def test_default_r_max_past_memory_exits_numeric(self, tmp_path, capsys, no_huge_arrays):
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        path = tmp_path / "big.sketch"
        sketch_save(Sketch(spec, counts=np.array([10**10, 5], dtype=np.uint64), n=10**10 + 5), path)
        argv = ["estimate", "--sketch", str(path), "--prior", "dp", "--theta", "2.5",
                "--output", str(tmp_path / "rep.json")]
        assert run_cli(*argv) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "--r-max" in err and "Traceback" not in err
        assert run_cli(*argv, "--r-max", "3") == cli.EXIT_OK

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_pyp_orders_past_memory_exit_numeric(self, sketch_file, tmp_path, capsys, monkeypatch,
                                                  method):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a profile ran past the order limit")

        monkeypatch.setattr(pyp, "_ExactEngine", must_not_run)
        monkeypatch.setattr(pyp, "_mc_profile", must_not_run)
        out = tmp_path / "rep.json"
        code = run_cli("estimate", "--sketch", str(sketch_file), "--prior", "pyp", "--alpha", "0.5",
                       "--theta", "1", "--method", method, "--r-max", str(10**10),
                       "--output", str(out))
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "--r-max" in err and "Traceback" not in err
        assert not out.exists()

    def test_mc_samples_past_ceiling_exits_numeric(self, sketch_file, tmp_path, capsys,
                                                   monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the profile ran past the sample limit")

        monkeypatch.setattr(pyp, "_mc_profile", must_not_run)
        out = tmp_path / "rep.json"
        code = run_cli("estimate", "--sketch", str(sketch_file), "--prior", "pyp", "--alpha", "0.5",
                       "--theta", "1", "--method", "mc", "--mc-samples", str(2**24 + 1),
                       "--output", str(out))
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "--mc-samples" in err and "Traceback" not in err
        assert not out.exists()

    def test_mc_count_past_signed_range_exits_numeric(self, tmp_path, capsys):
        spec = HashSpec(a=1, b=0, width=3, symbol_seed=0)
        path = tmp_path / "huge.sketch"
        sketch_save(Sketch(spec, counts=np.array([2**63, 5, 0], dtype=np.uint64), n=2**63 + 5), path)
        code = run_cli("estimate", "--sketch", str(path), "--prior", "pyp", "--alpha", "0.5",
                       "--theta", "1", "--method", "mc", "--r-max", "0")
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "2^63" in err and "Traceback" not in err

    @pytest.mark.parametrize("count", [2**31, 2**63 - 1])
    def test_mc_work_past_limit_exits_numeric(self, tmp_path, capsys, monkeypatch, count):
        monkeypatch.setattr(pyp, "log_rising_factorial_prefix", _must_not_run)
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        path = tmp_path / "big.sketch"
        sketch_save(Sketch(spec, counts=np.array([count, 0], dtype=np.uint64), n=count), path)
        code = run_cli("estimate", "--sketch", str(path), "--prior", "pyp", "--alpha", "0.5",
                       "--theta", "1", "--method", "mc", "--r-max", "3", "--mc-samples", "200")
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "--mc-samples" in err and "Traceback" not in err

    def test_mc_kept_reads_past_budget_exit_numeric_before_any_draw(self, tmp_path, capsys,
                                                                     monkeypatch):
        # a profile to c_max = 257 keeps 256 chain reads of 2 bytes per sample: 2^20 + 1
        # samples pass the 512 MB budget; refused before the fit and before any chain is drawn
        monkeypatch.setattr(pyp, "distinct_chain", _must_not_run)
        monkeypatch.setattr(pyp, "wasserstein_fit", _must_not_run)
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        path = tmp_path / "deep.sketch"
        sketch_save(Sketch(spec, counts=np.array([257, 0], dtype=np.uint64), n=257), path)
        for prior in (["--alpha", "0.5", "--theta", "1"], ["--fit", "eb-wasserstein"]):
            code = run_cli("estimate", "--sketch", str(path), "--prior", "pyp", *prior,
                           "--method", "mc", "--mc-samples", str((1 << 20) + 1))
            assert code == cli.EXIT_NUMERIC
            err = capsys.readouterr().err
            assert "512 MB" in err and "--r-max" in err and "Traceback" not in err

    def test_counts_not_summing_to_n_is_data_error(self, tmp_path):
        # a blob whose counts wrap past 2^64 to the stored n, with a valid CRC
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        blob = bytearray(sketch_serialize(Sketch(spec, counts=np.array([1, 0], dtype=np.uint64), n=1)))
        blob[-20:-4] = np.array([2**63, 2**63 + 1], dtype="<u8").tobytes()
        blob[-4:] = struct.pack("<I", crc32c(bytes(blob[:-4])))
        path = tmp_path / "wrap.sketch"
        path.write_bytes(bytes(blob))
        assert run_cli("estimate", "--sketch", str(path), "--prior", "dp",
                       "--fit", "eb-mle") == cli.EXIT_DATA

    def test_corrupt_sketch_is_data_error(self, tmp_path):
        path = tmp_path / "bad.sketch"
        path.write_bytes(b"junkjunkjunk")
        assert run_cli("estimate", "--sketch", str(path), "--prior", "dp",
                       "--fit", "eb-mle") == cli.EXIT_DATA

    def test_csv_format(self, sketch_file, tmp_path):
        out = tmp_path / "rep.csv"
        run_cli("estimate", "--sketch", str(sketch_file), "--prior", "dp",
                "--fit", "eb-mle", "--r-max", "2", "--format", "csv",
                "--output", str(out))
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:8] == ["n", "width", "alpha", "theta", "provenance",
                              "boundary_hit", "method", "distinct"]
        assert "p_0" in header and "m_1" in header


class TestReportEncoding:
    """The JSON and CSV layout of a report: one table of per-order fields drives both."""

    @staticmethod
    def reports():
        # orders 0..12, sorted as numbers: "10" after "9"
        s = Sketch(HashSpec.random(16, seed=0))
        s.insert_ids(np.arange(40) % 11)
        params = PriorParams(0.5, 1.0)
        return {
            "dp": dp.dp_report(s, fit="eb-mle", r_max=12),
            "exact": pyp.pyp_report(s, params=params, r_max=12),
            "mc": pyp.pyp_report(s, params=params, method="mc", mc_samples=1000, r_max=12, seed=2),
        }

    @pytest.mark.parametrize("kind", ["dp", "exact", "mc"])
    def test_json_round_trip(self, kind):
        rep = self.reports()[kind]
        assert (kind == "mc") == bool(rep.diagnostics)
        assert EstimateReport.from_json(rep.to_json()) == rep

    def test_key_and_column_order(self):
        keys = ["n", "width", "prior", "method", "coverage", "freq_counts", "distinct", "mc_stderr",
                "wall_time"]
        orders = [str(r) for r in range(13)]
        for kind, rep in self.reports().items():
            d = rep.to_dict()
            assert list(d) == keys + ["diagnostics"] * (kind == "mc")
            assert list(d["prior"]) == ["alpha", "theta", "provenance", "boundary_hit"]
            assert list(d["coverage"]) == orders and list(d["freq_counts"]) == orders[1:]
            fh = io.StringIO()
            cli._report_to_csv(rep, fh)
            want = ["n", "width", "alpha", "theta", "provenance", "boundary_hit", "method", "distinct"]
            want += [f"p_{r}" for r in orders] + [f"m_{r}" for r in orders[1:]]
            want += [f"se_{r}" for r in orders] if kind == "mc" else []
            assert fh.getvalue().splitlines()[0].split(",") == want

    def test_missing_required_field_is_type_error(self):
        d = self.reports()["dp"].to_dict()
        for key in ("n", "width", "prior", "method"):
            with pytest.raises(TypeError):
                EstimateReport.from_dict({k: v for k, v in d.items() if k != key})
        # keys that are not fields are ignored, in the report and in its prior
        extra = dict(d, spare=1, prior=dict(d["prior"], spare=2))
        assert EstimateReport.from_dict(extra) == EstimateReport.from_dict(d)


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        args = ["simulate", "--model", "dp", "--theta", "10", "--n", "100",
                "--seed", "5", "--width", "16"]
        run_cli(*args, "--output", str(tmp_path / "one"))
        run_cli(*args, "--output", str(tmp_path / "two"))
        for suffix in (".tokens", ".sketch", ".truth.json"):
            a = (tmp_path / ("one" + suffix)).read_bytes()
            b = (tmp_path / ("two" + suffix)).read_bytes()
            assert a == b, suffix

    def test_empty_sample_truth(self, tmp_path):
        run_cli("simulate", "--model", "dp", "--theta", "100", "--n", "0",
                "--seed", "1", "--output", str(tmp_path / "empty"))
        truth = json.loads((tmp_path / "empty.truth.json").read_text())
        assert truth["coverage"]["0"] == 1.0
        assert truth["distinct"] == 0
        assert (tmp_path / "empty.tokens").read_bytes() == b""
        assert sketch_load(tmp_path / "empty.sketch").n == 0

    def test_out_of_memory_exits_numeric_in_one_line(self, tmp_path, capsys, monkeypatch):
        # the sampler raises as numpy does for n = 10^12, without allocating; a draw of
        # n = 0, as a config's load makes, passes
        from bnpsketch import experiment

        def out_of_memory(params, n, *args, **kwargs):
            if n:
                raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                                  f"({n},) and data type float64")
            return sample(params, n, *args, **kwargs)

        sample = experiment.sample_pyp_sequence
        monkeypatch.setattr(experiment, "sample_pyp_sequence", out_of_memory)
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(dict(TestExperimentCommand.SMOKE, n=[10**12])))
        for argv in (["simulate", "--model", "dp", "--theta", "10", "--n", str(10**12),
                      "--output", str(tmp_path / "sim")], ["experiment", "--config", str(cfg)]):
            assert run_cli(*argv) == cli.EXIT_NUMERIC
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Unable to allocate 7.28 TiB" in err
            assert err.startswith("numerical-domain error: out of memory")
        assert not list(tmp_path.glob("sim*"))

    def test_single_symbol_vocab_has_no_missing_mass(self, tmp_path):
        run_cli("simulate", "--model", "zipf", "--exponent", "1.5", "--vocab", "1",
                "--n", "5", "--seed", "2", "--output", str(tmp_path / "z"))
        truth = json.loads((tmp_path / "z.truth.json").read_text())
        assert truth["coverage"]["0"] == 0.0

    def test_tokens_then_sketch_matches_emitted_sketch(self, tmp_path):
        # hashing the emitted token file with the same seed-derived hash must
        # reproduce the emitted sketch bit for bit
        run_cli("simulate", "--model", "pyp", "--alpha", "0.5", "--theta", "2",
                "--n", "300", "--seed", "9", "--width", "32",
                "--output", str(tmp_path / "sim"))
        emitted = sketch_load(tmp_path / "sim.sketch")
        rebuilt = Sketch(emitted.spec)
        with open(tmp_path / "sim.tokens", "rb") as fh:
            rebuilt.insert_tokens(t for t in (line.strip() for line in fh) if t)
        assert rebuilt == emitted


# simulate's flags per model: the ones it needs, with values it accepts
SIMULATE_NEEDS = {"dp": {"theta": "10"}, "pyp": {"alpha": "0.5", "theta": "10"},
                  "zipf": {"exponent": "1.2", "vocab": "50"}}
SIMULATE_FLAGS = {"theta": "3", "alpha": "0.7", "exponent": "1.2", "vocab": "50"}
# (model, flags, exit code): each flag a model does not read, each needed flag left out, and
# values out of range, all refused before a file is written
SIMULATE_REFUSALS = [
    (model, dict(needs, **{flag: value}), cli.EXIT_USAGE)
    for model, needs in SIMULATE_NEEDS.items()
    for flag, value in SIMULATE_FLAGS.items() if flag not in needs
] + [
    (model, {k: v for k, v in needs.items() if k != left_out}, cli.EXIT_USAGE)
    for model, needs in SIMULATE_NEEDS.items() for left_out in needs
] + [
    ("dp", {"theta": "10", "alpha": "0"}, cli.EXIT_USAGE),
    ("dp", {"theta": "-5"}, cli.EXIT_NUMERIC),
    ("pyp", {"alpha": "1.5", "theta": "10"}, cli.EXIT_NUMERIC),
    ("zipf", {"exponent": "-1", "vocab": "50"}, cli.EXIT_NUMERIC),
    ("zipf", {"exponent": "1.2", "vocab": "0"}, cli.EXIT_NUMERIC),
    ("dp", {"theta": "10", "seed": "-3"}, cli.EXIT_USAGE),
    ("dp", {"theta": "10", "width": "0"}, cli.EXIT_USAGE),
    ("dp", {"theta": "10", "width": str(2**25)}, cli.EXIT_USAGE),
]


@pytest.mark.parametrize("model,flags,code", SIMULATE_REFUSALS, ids=str)
def test_simulate_refuses_before_writing(model, flags, code, tmp_path):
    argv = [x for flag, value in flags.items() for x in ("--" + flag, value)]
    out = tmp_path / "sim"
    assert run_cli("simulate", "--model", model, *argv, "--n", "20", "--output", str(out)) == code
    assert list(tmp_path.iterdir()) == []


# a config's generating-model keys per model: the ones it needs and the ones it may also read,
# with values that load ("TOKENS" is a token file)
CONFIG_MODELS = {
    "dp": ({"theta": [10.0]}, {"sampler": "crp"}),
    "pyp": ({"alpha": [0.5], "theta": [10.0]}, {"sampler": "crp"}),
    "zipf": ({"exponent": [1.2], "vocab": 50}, {}),
    "file": ({"path": "TOKENS"}, {"tokenizer": "words"}),
}
CONFIG_KEYS = {k: v for needs, reads in CONFIG_MODELS.values() for k, v in (needs | reads).items()}
# (model, keys): each key a model does not read, each needed key left out, values out of range
CONFIG_REFUSALS = [
    (model, needs | {key: value})
    for model, (needs, reads) in CONFIG_MODELS.items()
    for key, value in CONFIG_KEYS.items() if key not in needs | reads
] + [
    (model, {k: v for k, v in needs.items() if k != left_out})
    for model, (needs, _) in CONFIG_MODELS.items() for left_out in needs
] + [
    ("pyp", {"alpha": [0.5], "theta": [10.0], "tokenizer": "kmer:0"}),
    ("dp", {"theta": [-5.0]}),
    ("dp", {"theta": [10.0, 0.0]}),
    ("dp", {"theta": []}),
    ("dp", {"theta": [10.0], "sampler": "gibbs"}),
    ("pyp", {"alpha": [0.5, 1.5], "theta": [10.0]}),
    ("pyp", {"alpha": [0.5], "theta": [-1.0]}),
    ("zipf", {"exponent": [-1.0], "vocab": 50}),
    ("zipf", {"exponent": [1.2], "vocab": 0}),
    ("file", {"path": "TOKENS", "tokenizer": "kmer:0"}),
    ("file", {"path": "TOKENS", "tokenizer": 5}),
    ("file", {"path": 1}),
    ("dp", {"theta": [10.0], "output": 1}),
    ("file", {"path": "no-such-file.txt"}),
    ("zeta", {"theta": [10.0]}),
    # the truth profile's orders, the hash width and the seed, all before anything is sampled
    ("dp", {"theta": [10.0], "r_report": 1 << 24}),
    ("dp", {"theta": [10.0], "r_report": -1}),
    ("dp", {"theta": [10.0], "width": 0}),
    ("dp", {"theta": [10.0], "width": 2**25}),
    ("dp", {"theta": [10.0], "seed": -1}),
]


class TestModelTable:
    """simulate and experiment configs read one generating-model table, and refuse what it does."""

    BASE = {"n": [10, 20], "width": 16, "repetitions": 1, "seed": 99, "r_report": 2,
            "estimator": {"prior": "dp", "fit": "eb-mle"}}

    @staticmethod
    def config(model, keys, tmp_path):
        data = tmp_path / "tokens.txt"
        data.write_bytes(b"".join(f"ip{i % 23} x{i % 5}\n".encode() for i in range(200)))
        keys = {k: str(data) if v == "TOKENS" else v for k, v in keys.items()}
        return dict(TestModelTable.BASE, model=model, **keys)

    @pytest.mark.parametrize("model,keys", CONFIG_REFUSALS, ids=str)
    def test_config_refused_at_load(self, model, keys, tmp_path, capsys, monkeypatch):
        from bnpsketch import experiment

        monkeypatch.setattr(experiment, "run_experiment", _must_not_run)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(self.config(model, keys, tmp_path)))
        assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "bad experiment config" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [1 << 24, -1, 2.5])
    def test_r_report_refusal_names_r_report(self, value, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(self.config("dp", {"theta": [10.0], "r_report": value}, tmp_path)))
        assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "bad experiment config: r_report must" in err and "r_max" not in err
        assert "--r-max" not in err

    @pytest.mark.parametrize("model", sorted(CONFIG_MODELS))
    def test_every_key_a_model_reads_loads_and_runs(self, model, tmp_path):
        needs, reads = CONFIG_MODELS[model]
        cfg = ExperimentConfig.from_dict(self.config(model, needs | reads, tmp_path))
        header, *rows = csv.reader(io.StringIO(experiment_csv(cfg)))
        assert len(rows) == len(cfg.cells()) == 2
        # a dp cell is labelled by its model and keeps the discount 0.0 of the dp law
        first = dict(zip(header, rows[0]))
        assert first["model"].startswith(model) and (model != "dp" or first["alpha_true"] == "0.0")


class TestFitCommand:
    def test_eb_mle_output(self, tmp_path, capsys):
        from bnpsketch.genmodel import sample_sketch_dirmult

        s = sample_sketch_dirmult(2000, 32, 20.0, seed=3)
        path = tmp_path / "s.sketch"
        sketch_save(s, path)
        assert run_cli("fit", "--sketch", str(path), "--fit", "eb-mle") == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert payload["fit"] == "eb-mle" and payload["theta"] > 0

    def test_empty_sketch_fails_numeric(self, tmp_path):
        path = tmp_path / "s.sketch"
        sketch_save(Sketch(HashSpec.random(8, seed=0)), path)
        assert run_cli("fit", "--sketch", str(path), "--fit", "eb-mle") == cli.EXIT_NUMERIC

    def test_wasserstein_surface_csv(self, tmp_path, capsys):
        spec = HashSpec.random(16, seed=1)
        s = Sketch(spec)
        s.insert_ids(np.arange(500) % 37)
        path = tmp_path / "s.sketch"
        sketch_save(s, path)
        surface = tmp_path / "surface.csv"
        assert run_cli("fit", "--sketch", str(path), "--fit", "eb-wasserstein",
                       "--num-reps", "2", "--n-sim", "200", "--seed", "4",
                       "--surface-out", str(surface)) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert payload["fit"] == "eb-wasserstein"
        assert 0.0 <= payload["alpha"] < 1.0
        lines = surface.read_text().strip().splitlines()
        assert lines[0] == "alpha,theta,distance"
        assert len(lines) > 100


# (flag, argv): commands refused for that flag before the sketch or the input is read; "IN" is
# a token file, "SK" a sketch file and "OUT" an output path
FLAG_REFUSALS = [
    ("--width", ["sketch", "--input", "IN", "--width", "0", "--output", "OUT"]),
    ("--width", ["sketch", "--input", "IN", "--width", str(2**25), "--output", "OUT"]),
    ("--seed", ["sketch", "--input", "IN", "--width", "8", "--seed", "-1", "--output", "OUT"]),
    ("--seed", ["estimate", "--sketch", "SK", "--prior", "pyp", "--alpha", "0.5", "--theta", "1",
                "--seed", "-1", "--output", "OUT"]),
    ("--seed", ["estimate", "--sketch", "SK", "--prior", "pyp", "--alpha", "0.5", "--theta", "1",
                "--method", "mc", "--mc-samples", "200", "--seed", "-1", "--output", "OUT"]),
    ("--seed", ["fit", "--sketch", "SK", "--fit", "eb-wasserstein", "--seed", "-1",
                "--surface-out", "OUT"]),
    # a seed only pyp fits and Monte Carlo draws read
    ("--seed", ["estimate", "--sketch", "SK", "--prior", "dp", "--fit", "eb-mle", "--seed", "5",
                "--output", "OUT"]),
    ("--seed", ["estimate", "--sketch", "SK", "--prior", "dp", "--theta", "1", "--fit", "none",
                "--seed", "0", "--output", "OUT"]),
    ("--seed", ["estimate", "--sketch", "SK", "--prior", "pyp", "--alpha", "0.5", "--theta", "1",
                "--seed", "5", "--output", "OUT"]),
    ("--num-reps", ["fit", "--sketch", "SK", "--fit", "eb-mle", "--num-reps", "3"]),
    ("--n-sim", ["fit", "--sketch", "SK", "--fit", "eb-mle", "--n-sim", "5"]),
    ("--seed", ["fit", "--sketch", "SK", "--fit", "eb-mle", "--seed", "0"]),
    ("--surface-out", ["fit", "--sketch", "SK", "--surface-out", "OUT"]),
]


@pytest.mark.parametrize("flag,argv", FLAG_REFUSALS, ids=str)
def test_flag_refusals_read_and_write_nothing(flag, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sketch_load", _must_not_run)
    paths = {"IN": tmp_path / "in.txt", "SK": tmp_path / "in.sketch", "OUT": tmp_path / "out"}
    paths["IN"].write_bytes(b"a\nb\n")
    paths["SK"].write_bytes(b"")
    before = sorted(tmp_path.iterdir())
    assert run_cli(*[str(paths.get(a, a)) for a in argv]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_fit_flags_left_unset_take_the_fit_defaults(tmp_path, monkeypatch):
    class Called(Exception):
        pass

    def record(sketch, **kw):
        raise Called(kw)

    monkeypatch.setattr(pyp, "wasserstein_fit", record)
    path = tmp_path / "s.sketch"
    sketch_save(Sketch(HashSpec.random(8, seed=0)), path)
    with pytest.raises(Called) as exc:
        run_cli("fit", "--sketch", str(path), "--fit", "eb-wasserstein")
    assert exc.value.args == ({},)


class TestMergeCommand:
    def test_shards_equal_single_pass(self, tmp_path):
        inp = tmp_path / "all.txt"
        inp.write_bytes(b"".join(f"tok{i % 17}\n".encode() for i in range(100)))
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        lines = inp.read_bytes().splitlines(keepends=True)
        a.write_bytes(b"".join(lines[:50]))
        b.write_bytes(b"".join(lines[50:]))
        for name in ("all", "a", "b"):
            run_cli("sketch", "--input", str(tmp_path / f"{name}.txt"), "--width", "8",
                    "--seed", "3", "--output", str(tmp_path / f"{name}.sketch"))
        assert run_cli("merge", str(tmp_path / "a.sketch"), str(tmp_path / "b.sketch"),
                       "--output", str(tmp_path / "merged.sketch")) == 0
        assert (tmp_path / "merged.sketch").read_bytes() == (tmp_path / "all.sketch").read_bytes()

    def test_count_overflow_exits_numeric(self, tmp_path, capsys):
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        path = tmp_path / "half.sketch"
        sketch_save(Sketch(spec, counts=np.array([2**63, 0], dtype=np.uint64), n=2**63), path)
        code = run_cli("merge", str(path), str(path), "--output", str(tmp_path / "m.sketch"))
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical-domain error:") and "Traceback" not in err
        assert not (tmp_path / "m.sketch").exists()

    def test_width_mismatch(self, tmp_path):
        sketch_save(Sketch(HashSpec.random(8, seed=0)), tmp_path / "a.sketch")
        sketch_save(Sketch(HashSpec.random(16, seed=0)), tmp_path / "b.sketch")
        code = run_cli("merge", str(tmp_path / "a.sketch"), str(tmp_path / "b.sketch"),
                       "--output", str(tmp_path / "m.sketch"))
        assert code == cli.EXIT_DATA


class TestExperimentCommand:
    SMOKE = {
        "model": "dp",
        "theta": [10.0],
        "n": [10],
        "width": 16,
        "repetitions": 1,
        "seed": 99,
        "r_report": 2,
        "estimator": {"prior": "dp", "fit": "eb-mle"},
    }

    def test_smoke_and_determinism(self, tmp_path):
        cfg = tmp_path / "smoke.json"
        cfg.write_text(json.dumps(self.SMOKE))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        import time

        t0 = time.time()
        assert run_cli("experiment", "--config", str(cfg), "--output", str(out1)) == 0
        assert time.time() - t0 < 5.0
        assert run_cli("experiment", "--config", str(cfg), "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_golden_header(self, tmp_path):
        cfg = ExperimentConfig.from_dict(self.SMOKE)
        text = experiment_csv(cfg)
        assert text.splitlines()[0] == (
            "model,alpha_true,theta_true,n,J,rep,seed,truth_missing_mass,"
            "est_missing_mass,theta_hat,alpha_hat,k_true,k_hat,"
            "truth_p_1,est_p_1,truth_p_2,est_p_2,method,mc_stderr,wall_time"
        )
        assert csv_header(0) == (
            "model,alpha_true,theta_true,n,J,rep,seed,truth_missing_mass,"
            "est_missing_mass,theta_hat,alpha_hat,k_true,k_hat,"
            "method,mc_stderr,wall_time"
        ).split(",")

    def test_timing_fills_wall_time(self):
        def wall_times(cfg):
            text = experiment_csv(ExperimentConfig.from_dict(cfg))
            return [row["wall_time"] for row in csv.DictReader(io.StringIO(text))]

        cfg = dict(self.SMOKE, n=[10, 20], repetitions=2)
        assert wall_times(cfg) == [""] * 4
        timed = [float(t) for t in wall_times(dict(cfg, timing=True))]
        assert len(timed) == 4 and all(t > 0.0 for t in timed)

    def test_bad_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": "dp"}))
        assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA
        cfg.write_text(json.dumps(dict(self.SMOKE, n=[10, 5])))
        assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA
        # values of the wrong JSON type: a bare n, a non-object estimator, a null model list
        for bad in ({"n": 10}, {"estimator": 5}, {"theta": None}):
            cfg.write_text(json.dumps(dict(self.SMOKE, **bad)))
            assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA
        # non-integral numbers and bools where an integer is read: refused, not truncated
        dp_fit = {"prior": "dp", "fit": "eb-mle"}
        for bad in ({"width": 16.9}, {"width": 16.0}, {"width": True}, {"n": [10.7]},
                    {"n": [False, 10]}, {"repetitions": 1.5}, {"seed": 99.0}, {"r_report": 2.5},
                    {"estimator": dict(dp_fit, r_max=2.5)}, {"estimator": dict(dp_fit, r_max=True)},
                    {"estimator": {"prior": "pyp", "alpha": 0.5, "method": "mc", "mc_samples": 200.5}}):
            cfg.write_text(json.dumps(dict(self.SMOKE, **bad)))
            assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA, bad

    def test_bad_estimator_keys_are_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        zipf = {k: v for k, v in self.SMOKE.items() if k != "theta"} | {
            "model": "zipf", "exponent": [1.2], "vocab": 50}
        configs = [dict(self.SMOKE, estimator=estimator) for estimator in (
            {"prior": "pyp", "metod": "mc"}, {"prior": "Dp"}, {"prior": "mc"},
            # keys the dp prior never reads, fit modes the prior lacks, fit 'none' without
            # the alpha that a dp model cannot supply, an unhashable prior
            {"prior": "dp", "method": "mc"}, {"prior": "dp", "alpha": 0.5},
            {"prior": "dp", "debias": "bogus"}, {"prior": "dp", "mc_samples": 5},
            {"prior": "pyp", "fit": "eb-mle"}, {"prior": "dp", "fit": "eb-wasserstein"},
            {"prior": "dp", "fit": None}, {"prior": "pyp", "fit": "none"}, {"prior": ["dp"]},
        )]
        # a zipf model has no alpha or theta to hand to fit 'none'
        configs += [dict(zipf, estimator={"prior": "dp", "fit": "none"}),
                    dict(zipf, estimator={"prior": "pyp", "theta": 1.0})]
        for config in configs:
            cfg.write_text(json.dumps(config))
            with pytest.raises(ValueError):
                ExperimentConfig.from_json_file(cfg)
            assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA
            assert "bad experiment config" in capsys.readouterr().err
        every_key = {"prior": "pyp", "fit": "none", "r_max": 1, "theta": 1.0, "alpha": 0.5,
                     "method": "mc", "mc_samples": 200, "debias": "none"}
        ExperimentConfig.from_dict(dict(self.SMOKE, estimator=every_key))

    def test_bad_workers_and_timing_are_data_error(self, tmp_path, monkeypatch):
        # refused at load: no process is started, and no wall time is written
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _must_not_run)
        monkeypatch.setattr(ExperimentConfig, "cells", _must_not_run)
        cfg = tmp_path / "bad.json"
        cpus = os.cpu_count() or 1
        for bad in ({"workers": 0}, {"workers": -2}, {"workers": cpus + 1}, {"workers": 100_000},
                    {"timing": "false"}, {"timing": 1}, {"timing": None}):
            cfg.write_text(json.dumps(dict(self.SMOKE, **bad)))
            assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA, bad

    def test_unknown_top_level_keys_rejected(self):
        # the schedule is spelled "n" in a config; the field name is not a key
        for key, value in (("widht", 8), ("n_schedule", [5, 10])):
            with pytest.raises(ValueError, match="unknown config keys"):
                ExperimentConfig.from_dict(dict(self.SMOKE, **{key: value}))

    def test_workers_match_serial(self, tmp_path):
        pyp_mc = {"model": "pyp", "alpha": [0.5],
                  "estimator": {"prior": "pyp", "method": "mc", "mc_samples": 200}}
        for extra in ({}, pyp_mc):
            base = dict(self.SMOKE, n=[5, 10], repetitions=2, **extra)
            serial = experiment_csv(ExperimentConfig.from_dict(base))
            parallel = experiment_csv(ExperimentConfig.from_dict(dict(base, workers=2)))
            assert serial == parallel

    def _file_config(self, tmp_path):
        data = tmp_path / "tokens.txt"
        data.write_bytes(b"".join(f"ip{i % 23}\n".encode() for i in range(200)))
        return ExperimentConfig.from_dict(
            {
                "model": "file",
                "path": str(data),
                "n": [50],
                "width": 8,
                "repetitions": 2,
                "seed": 5,
                "r_report": 1,
                "estimator": {"prior": "dp", "fit": "eb-mle"},
            }
        )

    def test_file_model(self, tmp_path):
        cfg = self._file_config(tmp_path)
        rows = __import__("bnpsketch.experiment", fromlist=["run_experiment"]).run_experiment(cfg)
        assert len(rows) == 2
        header = csv_header(1)
        truth = float(rows[0][header.index("truth_missing_mass")])
        assert 0.0 <= truth <= 1.0


    def test_file_model_matches_per_token_insert(self, tmp_path, monkeypatch):
        from bnpsketch import experiment

        def per_token(spec, tokens, idx):
            s = Sketch(spec)
            for i in idx:
                s.insert(tokens[int(i)])
            return s

        tokens = [f"ip{i}".encode() for i in range(23)]
        idx = np.random.default_rng(7).integers(0, 23, 500)
        spec = HashSpec.random(8, seed=7)
        assert experiment._file_sketch(spec, tokens, idx) == per_token(spec, tokens, idx)

        def without_wall_time(text):
            rows = [line.split(",") for line in text.splitlines()]
            col = rows[0].index("wall_time")
            return [row[:col] + row[col + 1 :] for row in rows]

        cfg = self._file_config(tmp_path)
        batched = experiment_csv(cfg)
        monkeypatch.setattr(experiment, "_file_sketch", per_token)
        assert without_wall_time(batched) == without_wall_time(experiment_csv(cfg))


# (estimator spec, refused?) on a zipf model, which supplies no prior parameter to fit "none"
SPECS = [
    ({"prior": "dp", "fit": "eb-mle"}, False),
    ({"prior": "dp", "fit": "eb-mle", "theta": 2.5, "r_max": 3}, False),
    ({"prior": "dp", "fit": "none", "theta": 2.5}, False),
    ({"prior": "pyp", "fit": "none", "alpha": 0.5, "theta": 1}, False),
    ({"prior": "pyp", "fit": "none", "alpha": 0.5, "theta": 1.0, "method": "mc",
      "mc_samples": 200, "debias": "none", "r_max": 1}, False),
    # the experiment loader ran these, or failed only after sampling
    ({"prior": "pyp", "fit": "none", "alpha": 0.5, "theta": 1.0, "method": "bogus"}, True),
    ({"prior": "pyp", "fit": "none", "alpha": 0.5, "theta": 1.0, "method": "mc",
      "mc_samples": None}, True),
    ({"prior": "pyp", "fit": "none", "alpha": 0.5, "theta": 1.0, "debias": "x"}, True),
    # keys the dp prior does not read: the CLI ignored or took these
    ({"prior": "dp", "fit": "none", "theta": 2.5, "alpha": 0}, True),
    ({"prior": "dp", "fit": "eb-mle", "mc_samples": 200}, True),
    ({"prior": "dp", "fit": "eb-mle", "debias": "tin"}, True),
    ({"prior": "dp", "fit": "eb-mle", "method": "exact"}, True),
    ({"prior": "bogus", "fit": "none"}, True),
    ({"prior": "dp", "fit": "eb-wasserstein"}, True),
    ({"prior": "pyp", "fit": "eb-mle"}, True),
    ({"prior": "dp", "fit": "none"}, True),
    ({"prior": "pyp", "fit": "none", "theta": 1.0}, True),
    ({"prior": "dp", "fit": "eb-mle", "r_max": 2.5}, True),
    ({"prior": "dp", "fit": "none", "theta": True}, True),
    # values out of range
    ({"prior": "dp", "fit": "eb-mle", "r_max": -1}, True),
    ({"prior": "dp", "fit": "none", "theta": 0}, True),
    ({"prior": "pyp", "fit": "none", "alpha": 0.0, "theta": 1.0}, True),
    ({"prior": "pyp", "fit": "none", "alpha": 1.0, "theta": 1.0}, True),
    ({"prior": "pyp", "fit": "none", "alpha": 0.5, "theta": -0.25}, True),
    ({"prior": "pyp", "fit": "none", "alpha": 0.5, "theta": 1.0, "mc_samples": 99}, True),
    ({"prior": "pyp", "fit": "none", "alpha": 0.5, "theta": 1.0, "mc_samples": 2**24 + 1}, True),
]


class TestEstimatorTable:
    """The CLI and experiment configs read one estimator table and refuse the same specs."""

    ZIPF = {k: v for k, v in TestExperimentCommand.SMOKE.items() if k != "theta"} | {
        "model": "zipf", "exponent": [1.2], "vocab": 50}

    @pytest.mark.parametrize("spec,refused", SPECS, ids=str)
    def test_cli_and_config_agree(self, spec, refused, tmp_path, monkeypatch):
        monkeypatch.setattr(pyp, "wasserstein_fit", _must_not_run)
        sketch = tmp_path / "x.sketch"
        s = Sketch(HashSpec.random(16, seed=0))
        s.insert_ids(np.arange(40) % 11)
        sketch_save(s, sketch)
        argv = ["estimate", "--sketch", str(sketch), "--output", str(tmp_path / "rep.json")]
        for key, value in spec.items():
            argv += ["--" + key.replace("_", "-"), value if isinstance(value, str) else json.dumps(value)]
        code = run_cli(*argv)
        config = dict(self.ZIPF, estimator=spec)
        if not refused:
            assert code == cli.EXIT_OK
            ExperimentConfig.from_dict(config)
            return
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.from_dict(config)
        # a spec no prior reads is a usage error; a value out of range a numerical one
        assert code == (cli.EXIT_USAGE if isinstance(exc.value, SpecError) else cli.EXIT_NUMERIC)
        assert isinstance(exc.value, DomainError)

    def test_config_refusals_exit_at_load(self, tmp_path, capsys, monkeypatch):
        from bnpsketch import experiment

        monkeypatch.setattr(experiment, "run_experiment", _must_not_run)
        cfg = tmp_path / "bad.json"
        for spec, refused in SPECS:
            if refused:
                cfg.write_text(json.dumps(dict(self.ZIPF, estimator=spec)))
                assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA, spec
                err = capsys.readouterr().err
                assert "bad experiment config" in err and "Traceback" not in err


class TestBundledConfigs:
    def test_all_parse_and_size_correctly(self):
        root = ROOT / "demos" / "configs"
        expected_cells = {
            "smoke.json": 1,
            "missing_mass_dp.json": 9,
            "missing_mass_pyp_mc.json": 12,
            "coverage_orders_dp.json": 2,
            "misspecified_zipf.json": 6,
            "distinct_counts_dp.json": 4,
            "distinct_counts_pyp.json": 6,
        }
        found = {p.name for p in root.glob("*.json")}
        assert found == set(expected_cells)
        for name, cells in expected_cells.items():
            cfg = ExperimentConfig.from_json_file(root / name)
            assert len(cfg.cells()) == cells, name
            assert cfg.repetitions >= 1

    @pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos" / "configs").glob("*.json")))
    def test_runs_at_reduced_size(self, name):
        d = json.loads((ROOT / "demos" / "configs" / name).read_text())
        d.pop("output", None)
        d.update(n=d["n"][:1], repetitions=1)
        if "mc_samples" in d["estimator"]:
            d["estimator"]["mc_samples"] = min(d["estimator"]["mc_samples"], 1000)
        cfg = ExperimentConfig.from_dict(d)
        header, *rows = csv.reader(io.StringIO(experiment_csv(cfg)))
        assert header == csv_header(cfg.r_report)
        assert len(rows) == len(cfg.cells())
        for row in rows:
            assert 0.0 <= float(row[header.index("est_missing_mass")]) <= 1.0

    @pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
    def test_demo_runs(self, demo, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / demo)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr


class TestReadmeExamples:
    def test_cli_lines_parse(self):
        import re
        import shlex

        readme = (ROOT / "README.md").read_text()
        commands = []
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
            for line in block.replace("\\\n", " ").splitlines():
                if line.startswith("bnpsketch "):
                    commands.append(shlex.split(line, comments=True)[1:])
        parser = cli._build_parser()
        for argv in commands:
            parser.parse_args(argv)  # an unknown flag or choice raises cli.UsageError
        assert {argv[0] for argv in commands} == set(cli._COMMANDS)


class TestEntryPoint:
    def test_subprocess_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bnpsketch.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "sketch" in proc.stdout and "experiment" in proc.stdout

    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import sys, bnpsketch.cli; sys.exit('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_dp_commands_load_only_their_modules(self, tmp_path):
        (tmp_path / "t.txt").write_text("a b a c a b d\n")
        code = f"""
import os, sys
from bnpsketch import cli
os.chdir({str(tmp_path)!r})
for argv in (
    ["sketch", "--input", "t.txt", "--tokenizer", "words", "--width", "8", "--output", "a.sk"],
    ["merge", "a.sk", "a.sk", "--output", "m.sk"],
    ["estimate", "--sketch", "m.sk", "--prior", "dp", "--fit", "eb-mle", "--output", "r.json"],
):
    assert cli.main(argv) == 0, argv
unwanted = ("scipy", "concurrent.futures", "bnpsketch.pyp", "bnpsketch.genmodel",
            "bnpsketch.oracle", "bnpsketch.experiment")
print(",".join(m for m in unwanted if m in sys.modules))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
        assert json.loads((tmp_path / "r.json").read_text())["prior"]["provenance"] == "eb-mle"

    def test_dp_report_leaves_scipy_unloaded(self):
        code = (
            "import sys, numpy as np, bnpsketch\n"
            "spec = bnpsketch.HashSpec(a=1, b=0, width=4, symbol_seed=0)\n"
            "sk = bnpsketch.Sketch(spec, counts=np.array([5, 3, 0, 1], dtype=np.uint64), n=9)\n"
            "bnpsketch.dp_report(sk, fit='eb-mle')\n"
            "sys.exit('scipy' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestPackageSurface:
    def test_star_import_binds_all(self):
        import bnpsketch

        namespace = {}
        exec("from bnpsketch import *", namespace)
        assert set(bnpsketch.__all__) <= set(namespace)
        assert set(bnpsketch.__all__) <= set(dir(bnpsketch))
        assert all(namespace[name] is getattr(bnpsketch, name) for name in bnpsketch.__all__)

    def test_unknown_attribute(self):
        import bnpsketch

        with pytest.raises(AttributeError):
            bnpsketch.no_such_estimator
