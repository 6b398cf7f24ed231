"""Reference computations and output checks, written apart from the package.

Nothing here imports ``bnpsketch``: the hash, the wire-format parser, the
CRC-32C and the Dirichlet-multinomial likelihood follow the package README,
so an output that agrees with them agrees with the documented behaviour, not
merely with the code that produced it.  Every check raises ``CheckError``.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

MERSENNE_P = (1 << 61) - 1
MASK64 = (1 << 64) - 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

HEADER = struct.Struct("<4sBIQQQQ")  # magic, version, J, a, b, symbol_seed, n
MAGIC = b"BNPS"
VERSION = 1


class CheckError(Exception):
    """An output disagrees with its reference."""


# -- hash ---------------------------------------------------------------------


def prehash(token: bytes, symbol_seed: int) -> int:
    """FNV-1a with the seed folded into the offset, then the splitmix64 finalizer."""
    h = FNV_OFFSET ^ symbol_seed
    for byte in token:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & MASK64
    return h ^ (h >> 31)


def bucket(token: bytes, a: int, b: int, symbol_seed: int, width: int) -> int:
    return ((a * prehash(token, symbol_seed) + b) % MERSENNE_P) % width


def reference_counts(tokens: Counter, a: int, b: int, symbol_seed: int, width: int) -> np.ndarray:
    """Bucket counts of a token multiset (token -> multiplicity)."""
    counts = np.zeros(width, dtype=np.uint64)
    for token, mult in tokens.items():
        counts[bucket(token, a, b, symbol_seed, width)] += mult
    return counts


# -- CRC-32C and the wire format ------------------------------------------------


def _crc_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC_TABLE = _crc_table()


def crc32c(data: bytes) -> int:
    """CRC-32C (Castagnoli, reflected), one table lookup per byte."""
    table = _CRC_TABLE
    crc = 0xFFFFFFFF
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


@dataclass
class WireSketch:
    width: int
    a: int
    b: int
    symbol_seed: int
    n: int
    counts: np.ndarray
    stored_crc: int


def parse_sketch(blob: bytes) -> WireSketch:
    """Parse ``magic | u8 version | u32 J | u64 a | u64 b | u64 seed | u64 n | J x u64 | u32 CRC``."""
    if len(blob) < HEADER.size + 4:
        raise CheckError(f"sketch file too short ({len(blob)} bytes)")
    magic, version, width, a, b, symbol_seed, n = HEADER.unpack_from(blob, 0)
    if magic != MAGIC or version != VERSION:
        raise CheckError(f"bad magic/version {magic!r}/{version}")
    if len(blob) != HEADER.size + 8 * width + 4:
        raise CheckError(f"length {len(blob)} does not match J={width}")
    counts = np.frombuffer(blob, dtype="<u8", count=width, offset=HEADER.size).astype(np.uint64)
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    return WireSketch(width, a, b, symbol_seed, n, counts, stored_crc)


def encode_sketch(width: int, a: int, b: int, symbol_seed: int, counts: np.ndarray) -> bytes:
    """Wire encoding of given counts, for inputs the benchmark hands to the CLI."""
    payload = HEADER.pack(MAGIC, VERSION, width, a, b, symbol_seed, int(counts.sum()))
    payload += np.ascontiguousarray(counts, dtype="<u8").tobytes()
    return payload + struct.pack("<I", crc32c(payload))


def check_sketch(blob: bytes, tokens: Counter, width: int) -> WireSketch:
    """A sketch file must carry the reference CRC, n and counts of its token multiset."""
    sk = parse_sketch(blob)
    if sk.width != width:
        raise CheckError(f"width {sk.width}, expected {width}")
    if sk.stored_crc != crc32c(blob[:-4]):
        raise CheckError(f"stored CRC {sk.stored_crc:#010x} differs from the reference")
    n = sum(tokens.values())
    if sk.n != n:
        raise CheckError(f"n={sk.n}, generator counted {n} tokens")
    expected = reference_counts(tokens, sk.a, sk.b, sk.symbol_seed, width)
    bad = np.flatnonzero(sk.counts != expected)
    if bad.size:
        j = int(bad[0])
        raise CheckError(f"{bad.size} bucket counts differ, first j={j}: {sk.counts[j]} != {expected[j]}")
    return sk


# -- estimator properties ---------------------------------------------------------


def dm_loglik(counts: np.ndarray, theta: float) -> float:
    """Symmetric Dirichlet-multinomial log probability of bucket counts, weight theta/J each."""
    c = np.asarray(counts, dtype=float)
    n = c.sum()
    z = theta / c.size
    return float(
        gammaln(n + 1.0)
        - gammaln(c + 1.0).sum()
        + (gammaln(z + c) - gammaln(z)).sum()
        - (gammaln(theta + n) - gammaln(theta))
    )


def _profile(report: dict):
    cov = {int(r): v for r, v in report["coverage"].items()}
    freq = {int(r): v for r, v in report["freq_counts"].items()}
    return cov, freq


def check_dp_report(report: dict, counts: np.ndarray) -> None:
    """Identities of a zero-discount report, and theta-hat against the reference likelihood."""
    n = int(counts.sum())
    cov, freq = _profile(report)
    theta = report["prior"]["theta"]
    if report["n"] != n or sorted(cov) != list(range(int(counts.max()) + 1)):
        raise CheckError("report n or its orders 0..max count do not match the sketch")
    total = math.fsum(cov.values())
    if abs(total - 1.0) > 1e-8:
        raise CheckError(f"coverage sums to {total!r}")
    mass = math.fsum(r * m for r, m in freq.items())
    if abs(mass - n) > 1e-6 * n:
        raise CheckError(f"sum r*m_r = {mass!r}, n = {n}")
    distinct = report["distinct"]
    k = math.fsum(freq.values())
    if abs(k - distinct) > 1e-6 * abs(distinct):
        raise CheckError(f"sum m_r = {k!r}, distinct = {distinct!r}")
    if abs(cov[0] - theta / (theta + n)) > 1e-12:
        raise CheckError(f"coverage[0] = {cov[0]!r}, theta/(theta+n) = {theta / (theta + n)!r}")
    if not report["prior"]["boundary_hit"]:
        at = dm_loglik(counts, theta)
        for step in (-1e-3, 1e-3):
            if dm_loglik(counts, theta * math.exp(step)) > at:
                raise CheckError(f"theta-hat {theta!r} is not a maximum of the likelihood")


def check_exact_profile(report: dict) -> None:
    cov, freq = _profile(report)
    if any(not 0.0 <= v <= 1.0 for v in cov.values()):
        raise CheckError("a coverage estimate lies outside [0, 1]")
    total = math.fsum(cov.values())
    if abs(total - 1.0) > 1e-8:
        raise CheckError(f"coverage sums to {total!r}")
    k, distinct = math.fsum(freq.values()), report["distinct"]
    if abs(k - distinct) > 1e-8 * abs(distinct):
        raise CheckError(f"sum m_r = {k!r}, distinct = {distinct!r}")


def mc_agreement(mc: dict, exact: dict) -> tuple[int, int]:
    """(orders within 3 SE + 1e-12 of the exact profile, orders) for one sketch."""
    cov, _ = _profile(mc)
    ref, _ = _profile(exact)
    se = {int(r): v for r, v in mc["mc_stderr"].items()}
    if any(not 0.0 <= v <= 1.0 for v in cov.values()):
        raise CheckError("a Monte Carlo coverage estimate lies outside [0, 1]")
    if sorted(cov) != sorted(ref):
        raise CheckError("Monte Carlo and exact profiles cover different orders")
    within = sum(abs(cov[r] - ref[r]) <= 3.0 * se[r] + 1e-12 for r in cov)
    return within, len(cov)


# -- simulation-matching fit ------------------------------------------------------

ALPHA_GRID = [round(0.05 * i, 10) for i in range(20)]
THETA_GRID = [10.0 ** (-1.0 + 6.0 * i / 9.0) for i in range(10)]
REFINE_THETA = 7


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1e-300)


def _refinement(t_best: float) -> list[float]:
    lo = math.log10(t_best) - 0.5
    return [10.0 ** (lo + i / (REFINE_THETA + 1)) for i in range(1, REFINE_THETA + 1)]


def check_fit(summary: dict, rows: list[tuple[float, float, float]]) -> None:
    """The surface holds the default grid plus one theta refinement, and its minimizer was reported."""
    if not rows:
        raise CheckError("empty surface")
    for a, t, d in rows:
        if not (math.isfinite(d) and d >= 0.0):
            raise CheckError(f"distance {d!r} at ({a!r}, {t!r})")
    points = [(a, t) for a, t, _ in rows]

    def covered(expected):
        return all(any(_near(a, x) and _near(t, y) for x, y in points) for a, t in expected)

    grid = [(a, t) for a in ALPHA_GRID for t in THETA_GRID]
    if not covered(grid):
        raise CheckError("surface misses a point of the default grid")
    for t_best in THETA_GRID:
        extra = [(a, t) for a in ALPHA_GRID for t in _refinement(t_best)]
        if covered(extra):
            break
    else:
        raise CheckError("surface holds no complete theta refinement")
    allowed = grid + extra
    if not all(any(_near(a, x) and _near(t, y) for x, y in allowed) for a, t in points):
        raise CheckError("surface holds a point outside the grid and its refinement")
    best = min(rows, key=lambda row: (row[2], row[0], row[1]))
    if (summary["alpha"], summary["theta"]) != (best[0], best[1]):
        raise CheckError(
            f"reported ({summary['alpha']!r}, {summary['theta']!r}), "
            f"surface minimizer ({best[0]!r}, {best[1]!r})"
        )
