"""Command-line surface: tokenizers, flag validation, exit codes, artifacts."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from bnpsketch import cli, pyp
from bnpsketch.experiment import ExperimentConfig, csv_header, experiment_csv
from bnpsketch.report import EstimateReport
from bnpsketch.sketch import HashSpec, Sketch, crc32c, sketch_load, sketch_save, sketch_serialize
from bnpsketch.tokenizers import make_tokenizer


def run_cli(*argv):
    return cli.main(list(argv))


def tokens_of(spec, data: bytes):
    import io

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

    def test_exact_over_cap_exits_numeric_with_fallback_hint(self, tmp_path, capsys):
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        s = Sketch(spec, counts=np.array([2000, 1500], dtype=np.uint64), n=3500)
        path = tmp_path / "big.sketch"
        sketch_save(s, path)
        code = run_cli("estimate", "--sketch", str(path), "--prior", "pyp",
                       "--alpha", "0.5", "--theta", "1", "--method", "exact")
        assert code == cli.EXIT_NUMERIC
        assert "Monte Carlo" in capsys.readouterr().err

    def test_over_cap_fit_exits_numeric_before_fitting(self, tmp_path, capsys, monkeypatch):
        def fit_must_not_run(*args, **kwargs):
            raise AssertionError("the fit ran on an over-cap sketch")

        monkeypatch.setattr(pyp, "wasserstein_fit", fit_must_not_run)
        spec = HashSpec(a=1, b=0, width=2, symbol_seed=0)
        path = tmp_path / "big.sketch"
        sketch_save(Sketch(spec, counts=np.array([2000, 1500], dtype=np.uint64), n=3500), path)
        code = run_cli("estimate", "--sketch", str(path), "--prior", "pyp",
                       "--fit", "eb-wasserstein")
        assert code == cli.EXIT_NUMERIC
        assert "Monte Carlo" in capsys.readouterr().err

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

    def test_bad_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": "dp"}))
        assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA
        cfg.write_text(json.dumps(dict(self.SMOKE, n=[10, 5])))
        assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA

    def test_bad_estimator_keys_are_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        for estimator in ({"prior": "pyp", "metod": "mc"}, {"prior": "Dp"}, {"prior": "mc"}):
            cfg.write_text(json.dumps(dict(self.SMOKE, estimator=estimator)))
            with pytest.raises(ValueError):
                ExperimentConfig.from_json_file(cfg)
            assert run_cli("experiment", "--config", str(cfg)) == cli.EXIT_DATA
            assert "bad experiment config" in capsys.readouterr().err
        every_key = {"prior": "pyp", "fit": "none", "r_max": 1, "theta": 1.0, "alpha": 0.5,
                     "method": "mc", "mc_samples": 200, "debias": "none"}
        ExperimentConfig.from_dict(dict(self.SMOKE, estimator=every_key))

    def test_unknown_top_level_keys_rejected(self):
        # the schedule is spelled "n" in a config; the field name is not a key
        for key, value in (("widht", 8), ("n_schedule", [5, 10])):
            with pytest.raises(ValueError, match="unknown config keys"):
                ExperimentConfig.from_dict(dict(self.SMOKE, **{key: value}))

    def test_workers_match_serial(self, tmp_path):
        base = dict(self.SMOKE, n=[5, 10], repetitions=2)
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


class TestBundledConfigs:
    def test_all_parse_and_size_correctly(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "demos" / "configs"
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
