"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Statistical criteria use fixed seeds, so outcomes are reproducible.
"""

import itertools
import math
import time

import numpy as np
import scipy.stats

from bnpsketch import dp, oracle, pyp
from bnpsketch import numkit as nk
from bnpsketch import sketch as sklib
from bnpsketch.experiment import ExperimentConfig, experiment_csv
from bnpsketch.genmodel import (
    PriorParams,
    dist_distinct,
    expected_distinct_exact,
    sample_distinct_pairs,
    sample_pyp_sequence,
    sample_zipf_sequence,
)
from conftest import make_sketch


def conclude(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {number} {name}: {detail}"


def random_multinomial_sketch(rng, n, width):
    counts = np.bincount(rng.integers(0, width, n), minlength=width)
    return make_sketch(counts, width=width)


def test_01_normalization_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        width = int(rng.choice([8, 128]))
        n = int(rng.integers(1, 10_001))
        theta = float(rng.choice([0.5, 5.0, 50.0, 500.0]))
        s = random_multinomial_sketch(rng, n, width)
        c_max = int(np.asarray(s.counts).max())
        total = dp.dp_coverage_profile(s, theta, c_max).sum()
        worst = max(worst, abs(total - 1.0))
    for _ in range(50):
        width = int(rng.integers(2, 9))
        n = int(rng.integers(2, 51))
        alpha = float(rng.choice([0.25, 0.5, 0.75]))
        theta = float(rng.choice([0.5, 5.0]))
        s = random_multinomial_sketch(rng, n, width)
        params = PriorParams(alpha, theta)
        c_max = int(np.asarray(s.counts).max())
        total = sum(pyp.pyp_coverage_exact(s, params, r) for r in range(c_max + 1))
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    conclude(
        1,
        "normalization suite",
        worst < 1e-8 and elapsed < 60.0,
        f"worst |sum-1| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_identity_suite():
    rng = np.random.default_rng(202)
    ok = True
    detail = []
    for _ in range(25):
        width = int(rng.choice([4, 16, 64]))
        n = int(rng.integers(2, 3000))
        theta = float(rng.choice([0.5, 5.0, 50.0]))
        s = random_multinomial_sketch(rng, n, width)
        c_max = int(np.asarray(s.counts).max())
        m = np.array([dp.dp_freq_counts(s, theta, r) for r in range(1, c_max + 1)])
        mass_gap = abs(float(np.dot(np.arange(1, c_max + 1), m)) - n)
        agg_gap = abs(dp.dp_distinct(s, theta) - m.sum())
        if mass_gap > 1e-6 * max(1, n) or agg_gap > 1e-6:
            ok = False
            detail.append(f"dp gaps {mass_gap:.1e}/{agg_gap:.1e}")
    for _ in range(15):
        width = int(rng.integers(2, 7))
        n = int(rng.integers(3, 40))
        s = random_multinomial_sketch(rng, n, width)
        params = PriorParams(float(rng.choice([0.25, 0.5, 0.75])), float(rng.choice([0.5, 5.0])))
        c_max = int(np.asarray(s.counts).max())
        total = sum(pyp.pyp_freq_counts(s, params, r) for r in range(1, c_max + 1))
        gap = abs(pyp.pyp_distinct(s, params) - total)
        if gap > 1e-8:
            ok = False
            detail.append(f"pyp gap {gap:.1e}")
    s = make_sketch([5, 0, 2, 9, 1, 0, 0, 3])
    for theta in (0.7, 3.3, 41.0, 1001.5):
        # keep theta/J well away from integers for the reflected form
        a = dp.dp_distinct(s, theta)
        b = dp.dp_distinct_digamma_literal(s, theta)
        if abs(a - b) > 1e-8 * max(1.0, abs(a)):
            ok = False
            detail.append(f"digamma form gap at theta={theta}")
    conclude(2, "identity suite", ok, "; ".join(detail) or "all identities hold")


def test_03_combinatorics_suite():
    ok = True
    detail = []
    for alpha in (0.1, 0.5, 0.9):
        for u in range(13):
            row = np.exp(nk.GfcTable(alpha).row(u))
            for v in range(u + 1):
                want = nk.gfc_direct(u, v, alpha)
                if abs(row[v] - want) > 1e-9 * max(abs(want), 1e-300):
                    ok = False
                    detail.append(f"recursion vs direct ({u},{v},{alpha})")
    for alpha in (0.25, 0.75):
        for u in range(11):
            row = np.exp(nk.GfcTable(alpha).row(u))
            for t in (0.5, 1.0, 2.5):
                lhs = sum(row[v] * math.exp(nk.log_rising_factorial(t, v)) for v in range(u + 1))
                rhs = math.exp(nk.log_rising_factorial(alpha * t, u))
                if not math.isclose(lhs, rhs, rel_tol=1e-9):
                    ok = False
                    detail.append(f"defining identity ({u},{alpha},{t})")
    alpha = 1e-6
    for u in range(1, 11):
        row = nk.GfcTable(alpha).row(u)
        for v in range(1, u + 1):
            scaled = math.exp(row[v] - v * math.log(alpha))
            if not math.isclose(scaled, nk.stirling_signless(u, v), rel_tol=1e-4):
                ok = False
                detail.append(f"small-discount limit ({u},{v})")
    for u in range(16):
        for t in range(1, 6):
            rising = 1
            for i in range(u):
                rising *= t + i
            if sum(nk.stirling_signless(u, v) * t**v for v in range(u + 1)) != rising:
                ok = False
                detail.append(f"stirling identity ({u},{t})")
    conclude(3, "combinatorics suite", ok, "; ".join(detail[:3]) or "all kernels agree")


def test_04_zero_discount_limit_suite():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        width = int(rng.integers(2, 8))
        n = int(rng.integers(5, 201))
        theta = float(rng.choice([0.7, 5.0, 40.0]))
        s = random_multinomial_sketch(rng, n, width)
        params = PriorParams(1e-6, theta)
        ll_gap = abs(pyp.pyp_loglik(s, params) - dp.dp_loglik(s, theta)) / max(
            1.0, abs(dp.dp_loglik(s, theta))
        )
        worst = max(worst, ll_gap)
        c_max = int(np.asarray(s.counts).max())
        for r in range(c_max + 1):
            want = dp.dp_coverage(s, theta, r)
            got = pyp.pyp_coverage_exact(s, params, r)
            if want > 1e-12:
                worst = max(worst, abs(got - want) / want)
    conclude(4, "zero-discount limit suite", worst < 1e-4, f"worst rel gap {worst:.2e}")


def test_05_brute_force_equivalence():
    from test_pyp import brute_force_coverage, brute_force_loglik

    worst = 0.0
    for width in (1, 2, 3):
        for n in range(1, 9):
            for c in itertools.product(range(n + 1), repeat=width):
                if sum(c) != n:
                    continue
                for alpha, theta in ((0.25, 0.5), (0.5, 1.0), (0.75, 5.0)):
                    s = make_sketch(c, width=width)
                    params = PriorParams(alpha, theta)
                    ll = pyp.pyp_loglik(s, params)
                    want_ll = brute_force_loglik(list(c), width, alpha, theta)
                    worst = max(worst, abs(ll - want_ll) / max(1.0, abs(want_ll)))
                    for r in range(max(c) + 1):
                        want = brute_force_coverage(list(c), width, alpha, theta, r)
                        got = pyp.pyp_coverage_exact(s, params, r)
                        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    conclude(5, "brute-force equivalence", worst < 1e-9, f"worst rel gap {worst:.2e}")


def test_06_missing_mass_reproduction():
    # generating model with zero discount, fitted scale, 20 repetitions per
    # cell; the comparison is between repetition-averaged estimates and
    # repetition-averaged truths, the quantity the averaged curves plot
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (10.0, 100.0, 1000.0):
        for n in (100, 1000, 10_000):
            ests, truths = [], []
            for ss in np.random.SeedSequence(606).spawn(20):
                s_data, s_hash = ss.spawn(2)
                smp = sample_pyp_sequence(PriorParams(0.0, theta), n, s_data)
                truths.append(oracle.true_coverage(smp, 0))
                sk = sklib.Sketch(sklib.HashSpec.random(128, s_hash))
                sk.insert_ids(smp.symbols)
                rep = dp.dp_report(sk, fit="eb-mle", r_max=0)
                ests.append(rep.coverage[0])
            gap = abs(np.mean(ests) - np.mean(truths)) / np.mean(truths)
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    conclude(
        6,
        "missing-mass reproduction",
        worst < 0.10 and elapsed < 300.0,
        f"worst averaged rel err {worst:.3f}, {elapsed:.0f}s",
    )


def test_07_monte_carlo_reproduction():
    # small-sample agreement lives where the ratio statistics are not yet
    # badly skewed (the skew grows with theta*n against width 128); larger
    # samples only retain the documented overestimation direction
    params_by_theta = {1.0: (10, 20), 10.0: (5, 10)}
    ok = True
    details = []
    # a 3-SE band is itself only a ~99.7% statement, and the reported SE is
    # slightly understated when the ratio statistics are skewed, so the
    # agreement clause is asserted per cell at 80% of runs and pooled at
    # 90%; all-singleton sketches make the chain reads deterministic
    # (se = 0), where est and exact differ only by arithmetic route, hence
    # the roundoff epsilon
    pooled_within = pooled_total = 0
    for theta, n_values in params_by_theta.items():
        params = PriorParams(0.5, theta)
        for n in n_values:
            within = 0
            reps = 20
            for ss in np.random.SeedSequence(707).spawn(reps):
                s_data, s_hash, s_mc = ss.spawn(3)
                smp = sample_pyp_sequence(params, n, s_data)
                sk = sklib.Sketch(sklib.HashSpec.random(128, s_hash))
                sk.insert_ids(smp.symbols)
                exact = pyp.pyp_coverage_exact(sk, params, 0)
                est, se = pyp.pyp_coverage_mc(sk, params, 0, 100_000, s_mc, debias="tin")
                within += abs(est - exact) <= 3 * se + 1e-12 * max(1.0, abs(exact))
            pooled_within += within
            pooled_total += reps
            if within < 0.8 * reps:
                ok = False
            details.append(f"theta={theta} n={n}: {within}/{reps} in 3SE")
    if pooled_within < 0.9 * pooled_total:
        ok = False
    for theta, n_values in params_by_theta.items():
        params = PriorParams(0.5, theta)
        for n in n_values:
            ests, truths = [], []
            for ss in np.random.SeedSequence(717).spawn(300):
                s_data, s_hash, s_mc = ss.spawn(3)
                smp = sample_pyp_sequence(params, n, s_data)
                truths.append(oracle.true_coverage(smp, 0))
                sk = sklib.Sketch(sklib.HashSpec.random(128, s_hash))
                sk.insert_ids(smp.symbols)
                est, _ = pyp.pyp_coverage_mc(sk, params, 0, 100_000, s_mc, debias="tin")
                ests.append(est)
            gap = abs(np.mean(ests) - np.mean(truths)) / np.mean(truths)
            if gap >= 0.05:
                ok = False
            details.append(f"theta={theta} n={n}: avg gap {gap:.3f}")
    for theta in (1.0, 10.0):
        params = PriorParams(0.5, theta)
        ests, truths = [], []
        for ss in np.random.SeedSequence(727).spawn(20):
            s_data, s_hash, s_mc = ss.spawn(3)
            smp = sample_pyp_sequence(params, 1000, s_data)
            truths.append(oracle.true_coverage(smp, 0))
            sk = sklib.Sketch(sklib.HashSpec.random(128, s_hash))
            sk.insert_ids(smp.symbols)
            est, _ = pyp.pyp_coverage_mc(sk, params, 0, 100_000, s_mc, debias="tin")
            ests.append(est)
        if np.mean(ests) < np.mean(truths):
            ok = False
        details.append(f"theta={theta} n=1000: est {np.mean(ests):.3f} >= truth {np.mean(truths):.3f}")
    conclude(7, "Monte Carlo reproduction", ok, "; ".join(details))


def test_08_misspecification_direction():
    diffs = []
    for ss in np.random.SeedSequence(808).spawn(20):
        s_data, s_hash = ss.spawn(2)
        smp = sample_zipf_sequence(1.25, 300_000, 10_000, s_data)
        truth = oracle.true_coverage(smp, 0)
        sk = sklib.Sketch(sklib.HashSpec.random(128, s_hash))
        sk.insert_ids(smp.symbols)
        rep = dp.dp_report(sk, fit="eb-mle", r_max=0)
        diffs.append(rep.coverage[0] - truth)
    mean_diff = float(np.mean(diffs))
    conclude(
        8,
        "mis-specification direction",
        mean_diff < 0.0,
        f"mean(est - truth) = {mean_diff:+.4f} on heavy-tail data",
    )


def test_09_distinct_count_reproduction():
    ok = True
    details = []
    for theta in (100.0, 1000.0):
        errs = []
        for ss in np.random.SeedSequence(909).spawn(20):
            s_data, s_hash = ss.spawn(2)
            smp = sample_pyp_sequence(PriorParams(0.0, theta), 10_000, s_data)
            k_true = oracle.partition_stats(smp).k
            sk = sklib.Sketch(sklib.HashSpec.random(128, s_hash))
            sk.insert_ids(smp.symbols)
            rep = dp.dp_report(sk, fit="eb-mle", r_max=0)
            errs.append(abs(rep.distinct - k_true) / k_true)
        mre = float(np.mean(errs))
        if mre >= 0.10:
            ok = False
        details.append(f"well-specified theta={theta}: rel err {mre:.3f}")
    for alpha in (0.5, 0.6):
        diffs = []
        for ss in np.random.SeedSequence(910).spawn(20):
            s_data, s_hash = ss.spawn(2)
            smp = sample_pyp_sequence(
                PriorParams(alpha, 100.0), 10_000, s_data, with_weights=False
            )
            k_true = oracle.partition_stats(smp).k
            sk = sklib.Sketch(sklib.HashSpec.random(128, s_hash))
            sk.insert_ids(smp.symbols)
            rep = dp.dp_report(sk, fit="eb-mle", r_max=0)
            diffs.append(rep.distinct - k_true)
        mean_diff = float(np.mean(diffs))
        if mean_diff >= 0.0:
            ok = False
        details.append(f"power-law alpha={alpha}: mean(k_hat-k_true) {mean_diff:+.0f}")
    conclude(9, "distinct-count reproduction", ok, "; ".join(details))


def test_10_sampler_oracles():
    ok = True
    details = []
    rng = np.random.default_rng(1010)
    for c, alpha, theta in ((50, 0.0, 1.0), (50, 0.5, 1.0), (200, 0.25, 10.0)):
        _, k = sample_distinct_pairs(c, 0, PriorParams(alpha, theta), 100_000, rng)
        want = expected_distinct_exact(c, PriorParams(alpha, theta))
        se = float(np.std(k, ddof=1)) / math.sqrt(k.size)
        if abs(float(np.mean(k)) - want) >= 4 * se:
            ok = False
        details.append(f"mean K_{c}: {np.mean(k):.3f} vs {want:.3f}")
    for alpha, theta in ((0.0, 1.0), (0.5, 1.0), (0.25, 10.0)):
        for n in (4, 6, 8):
            _, k = sample_distinct_pairs(n, 0, PriorParams(alpha, theta), 100_000, rng)
            law = dist_distinct(n, PriorParams(alpha, theta))
            observed = np.bincount(k, minlength=n + 1)[1:]
            _, pval = scipy.stats.chisquare(observed, law[1:] * 100_000)
            if pval <= 0.001:
                ok = False
                details.append(f"law mismatch alpha={alpha} n={n} p={pval:.2e}")
    # growth of the distinct count along one chain per seed
    seeds = 20
    params = PriorParams(0.5, 1.0)
    n_max = 100_000
    marks = np.unique(np.logspace(3, 5, 9).astype(np.int64))
    k = np.ones(seeds, dtype=np.int64)
    rng2 = np.random.default_rng(2020)
    recorded = np.zeros((len(marks), seeds))
    next_mark = 0
    for i in range(2, n_max + 1):
        p = (params.theta + params.alpha * k) / (params.theta + i - 1)
        k += rng2.random(seeds) < p
        if next_mark < len(marks) and i == marks[next_mark]:
            recorded[next_mark] = k
            next_mark += 1
    slopes = [
        np.polyfit(np.log(marks.astype(float)), np.log(recorded[:, s]), 1)[0]
        for s in range(seeds)
    ]
    mean_slope = float(np.mean(slopes))
    if not 0.4 <= mean_slope <= 0.6:
        ok = False
    details.append(f"growth slope {mean_slope:.3f}")
    conclude(10, "sampler oracles", ok, "; ".join(details[:4]))


def test_11_infrastructure():
    ok = True
    details = []
    # bit-exact serialization and merge homomorphism on random streams
    rng = np.random.default_rng(1111)
    spec = sklib.HashSpec.random(64, seed=11)
    for _ in range(20):
        a = rng.integers(0, 500, rng.integers(0, 400))
        b = rng.integers(0, 500, rng.integers(0, 400))
        sa, sb, sab = sklib.Sketch(spec), sklib.Sketch(spec), sklib.Sketch(spec)
        sa.insert_ids(a)
        sb.insert_ids(b)
        sab.insert_ids(np.concatenate([a, b]))
        blob = sklib.sketch_serialize(sklib.sketch_merge(sa, sb))
        if blob != sklib.sketch_serialize(sab):
            ok = False
            details.append("merge homomorphism broke")
        if sklib.sketch_deserialize(blob) != sklib.sketch_merge(sa, sb):
            ok = False
            details.append("round trip broke")
    # hash uniformity over a million distinct tokens
    spec = sklib.HashSpec.random(128, seed=12)
    ids = np.arange(1_000_000, dtype=np.uint64)
    j = sklib.buckets_u64(sklib.prehash_u64(ids, spec.symbol_seed), spec.a, spec.b, 128)
    _, pval = scipy.stats.chisquare(np.bincount(j, minlength=128))
    if pval <= 0.001:
        ok = False
    details.append(f"uniformity p={pval:.3f}")
    # end-to-end determinism of the experiment harness
    cfg = ExperimentConfig.from_dict(
        {
            "model": "dp",
            "theta": [10.0, 100.0],
            "n": [20, 50],
            "width": 16,
            "repetitions": 2,
            "seed": 424242,
            "r_report": 3,
            "estimator": {"prior": "dp", "fit": "eb-mle"},
        }
    )
    if experiment_csv(cfg) != experiment_csv(cfg):
        ok = False
        details.append("experiment rerun differed")
    else:
        details.append("experiment rerun byte-identical")
    conclude(11, "infrastructure", ok, "; ".join(details))


def test_12_wasserstein_self_consistency():
    t0 = time.perf_counter()
    ok = True
    details = []
    for alpha_true, theta_true in ((0.0, 100.0), (0.5, 100.0)):
        hits = 0
        for seed in range(1, 21):
            ss = np.random.SeedSequence(seed)
            s_data, s_hash, s_fit = ss.spawn(3)
            smp = sample_pyp_sequence(
                PriorParams(alpha_true, theta_true), 50_000, s_data, with_weights=False
            )
            sk = sklib.Sketch(sklib.HashSpec.random(128, s_hash))
            sk.insert_ids(smp.symbols)
            fit = pyp.wasserstein_fit(sk, seed=s_fit)
            if abs(fit.prior.alpha - alpha_true) <= 0.15 + 1e-9:
                hits += 1
        if hits < 16:
            ok = False
        details.append(f"alpha={alpha_true}: {hits}/20 within 0.15")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        ok = False
    conclude(12, "parameter-fit self-consistency", ok, "; ".join(details) + f", {elapsed:.0f}s")
