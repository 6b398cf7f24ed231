"""Each reference checker accepts the package's output and rejects a corrupted copy.

    python3 -m pytest perfbench/test_refcheck.py -q
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
from refcheck import CheckError  # noqa: E402

from bnpsketch import HashSpec, PriorParams, Sketch, dp_loglik, dp_report, hash_eval, pyp_report  # noqa: E402
from bnpsketch.sketch import sketch_serialize  # noqa: E402

TOKENS = Counter({b"10.0.0.1": 5, b"10.0.0.2": 2, b"acgt": 1, b"": 1, b"the": 7})


def package_sketch(tokens: Counter, width: int, seed: int) -> Sketch:
    sk = Sketch(HashSpec.random(width, seed))
    for token, mult in tokens.items():
        for _ in range(mult):
            sk.insert(token)
    return sk


def test_crc32c_check_value():
    assert refcheck.crc32c(b"123456789") == 0xE3069283


def test_reference_hash_matches_documented_hash():
    spec = HashSpec.random(1000, 5)
    for token in TOKENS:
        assert refcheck.bucket(token, spec.a, spec.b, spec.symbol_seed, 1000) == hash_eval(spec, token)


def test_sketch_check_accepts_package_output_and_encoder_matches_it():
    sk = package_sketch(TOKENS, 64, 3)
    blob = sketch_serialize(sk)
    refcheck.check_sketch(blob, TOKENS, 64)
    s = sk.spec
    assert refcheck.encode_sketch(64, s.a, s.b, s.symbol_seed, sk.counts) == blob


def test_sketch_check_rejects_a_count_off_by_one():
    blob = bytearray(sketch_serialize(package_sketch(TOKENS, 64, 3)))
    off = refcheck.HEADER.size + 8 * 10
    blob[off : off + 8] = (int.from_bytes(blob[off : off + 8], "little") + 1).to_bytes(8, "little")
    blob[-4:] = refcheck.crc32c(bytes(blob[:-4])).to_bytes(4, "little")
    with pytest.raises(CheckError, match="bucket counts differ"):
        refcheck.check_sketch(bytes(blob), TOKENS, 64)


def test_sketch_check_rejects_a_flipped_crc_byte():
    blob = bytearray(sketch_serialize(package_sketch(TOKENS, 64, 3)))
    blob[-2] ^= 0xFF
    with pytest.raises(CheckError, match="CRC"):
        refcheck.check_sketch(bytes(blob), TOKENS, 64)


def test_dm_loglik_matches_package():
    sk = package_sketch(TOKENS, 16, 1)
    for theta in (0.5, 3.0, 400.0):
        assert math.isclose(refcheck.dm_loglik(sk.counts, theta), dp_loglik(sk, theta), rel_tol=1e-12)


def dp_case():
    rng = np.random.default_rng(0)
    symbols = inputs.pyp_stream(rng, 3000, 0.0, 50.0)
    sk = Sketch(HashSpec.random(256, 4))
    sk.insert_ids(symbols)
    return sk, dp_report(sk, fit="eb-mle").to_dict()


def test_dp_check_accepts_report_and_rejects_moved_coverage():
    sk, report = dp_case()
    refcheck.check_dp_report(report, sk.counts)
    moved = json.loads(json.dumps(report))
    moved["coverage"]["1"] += 1e-6
    with pytest.raises(CheckError, match="coverage sums"):
        refcheck.check_dp_report(moved, sk.counts)


def test_dp_check_rejects_a_theta_off_the_maximum():
    sk, report = dp_case()
    theta = report["prior"]["theta"] * 1.5
    n = sk.n
    shifted = dp_report(sk, theta=theta).to_dict()
    shifted["prior"]["boundary_hit"] = False
    assert shifted["coverage"]["0"] == theta / (theta + n)
    with pytest.raises(CheckError, match="not a maximum"):
        refcheck.check_dp_report(shifted, sk.counts)


def exact_case():
    rng = np.random.default_rng(1)
    sk = Sketch(HashSpec.random(32, 2))
    sk.insert_ids(inputs.pyp_stream(rng, 60, 0.5, 5.0))
    return sk, pyp_report(sk, params=PriorParams(0.5, 5.0), method="exact").to_dict()


def test_exact_check_accepts_profile_and_rejects_moved_coverage():
    _, report = exact_case()
    refcheck.check_exact_profile(report)
    report["coverage"]["2"] += 1e-6
    with pytest.raises(CheckError, match="coverage sums"):
        refcheck.check_exact_profile(report)


def test_mc_agreement_rejects_an_estimate_above_one():
    _, exact = exact_case()
    mc = json.loads(json.dumps(exact))
    mc["mc_stderr"] = {r: 0.0 for r in mc["coverage"]}
    assert refcheck.mc_agreement(mc, exact) == (len(exact["coverage"]),) * 2
    mc["coverage"]["0"] = 1.5
    with pytest.raises(CheckError, match="outside"):
        refcheck.mc_agreement(mc, exact)


def fit_rows(t_best: float):
    points = [(a, t) for a in refcheck.ALPHA_GRID for t in refcheck.THETA_GRID]
    points += [(a, t) for a in refcheck.ALPHA_GRID for t in refcheck._refinement(t_best)]
    return sorted((a, t, abs(a - 0.3) + abs(math.log10(t / t_best))) for a, t in points)


def test_fit_check_accepts_the_minimizer_and_rejects_another_point():
    rows = fit_rows(refcheck.THETA_GRID[5])
    best = min(rows, key=lambda r: (r[2], r[0], r[1]))
    refcheck.check_fit({"alpha": best[0], "theta": best[1]}, rows)
    other = max(rows, key=lambda r: r[2])
    with pytest.raises(CheckError, match="minimizer"):
        refcheck.check_fit({"alpha": other[0], "theta": other[1]}, rows)


def test_fit_check_rejects_a_missing_grid_point():
    rows = fit_rows(refcheck.THETA_GRID[5])[1:]
    with pytest.raises(CheckError, match="default grid"):
        refcheck.check_fit({"alpha": 0.3, "theta": refcheck.THETA_GRID[5]}, rows)


def test_grids_match_package_defaults():
    from bnpsketch.pyp import DEFAULT_ALPHA_GRID, DEFAULT_THETA_GRID

    assert all(refcheck._near(a, b) for a, b in zip(refcheck.ALPHA_GRID, DEFAULT_ALPHA_GRID, strict=True))
    assert all(refcheck._near(a, b) for a, b in zip(refcheck.THETA_GRID, DEFAULT_THETA_GRID, strict=True))


def test_kmer_token_count_is_windows_per_record():
    text, tokens = inputs.fasta(np.random.default_rng(0), 3, 200, 4, 16)
    assert sum(tokens.values()) == 3 * (200 - 16 + 1)
    assert text.count(b">") == 3


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in run.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
