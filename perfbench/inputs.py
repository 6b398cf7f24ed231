"""Seeded synthetic inputs, generated without the package.

Each generator fixes the shape of its corpus (token counts, head sizes,
record lengths) and lets the seed choose identities and order, so the work a
round does hardly varies with the seed while the bytes do.
"""

from __future__ import annotations

import string
from collections import Counter

import numpy as np

from refcheck import MERSENNE_P, reference_counts


def ip_log(rng: np.random.Generator, n_lines: int, head: int, n_tail: int) -> tuple[list[bytes], Counter]:
    """Access-log stand-in: 40 heavy addresses, the largest seen ``head`` times, then a long tail."""
    head_counts = [int(head / (i + 1) ** 0.9) for i in range(40)]
    n_rest = n_lines - sum(head_counts)
    weights = 1.0 / (np.arange(n_tail) + 200.0)
    tail_counts = np.floor(weights / weights.sum() * n_rest).astype(int)
    tail_counts[: n_rest - int(tail_counts.sum())] += 1
    counts = head_counts + [int(c) for c in tail_counts if c]
    addrs = rng.choice(1 << 32, size=len(counts), replace=False)
    names = [f"{x >> 24}.{(x >> 16) & 255}.{(x >> 8) & 255}.{x & 255}".encode() for x in addrs.tolist()]
    lines = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(lines)
    return [names[i] for i in lines.tolist()], Counter(dict(zip(names, counts)))


def zipf_text(rng: np.random.Generator, n_words: int, vocab: int, exponent: float) -> tuple[bytes, Counter]:
    """English-like text: Zipf word counts over pseudo-words, with capitals and punctuation."""
    weights = (np.arange(vocab) + 1.0) ** -exponent
    counts = np.rint(weights / weights.sum() * n_words).astype(int)
    counts = counts[counts > 0]
    letters = np.array(list(string.ascii_lowercase))
    words: list[str] = []
    seen = set()
    while len(words) < counts.size:
        w = "".join(rng.choice(letters, size=int(rng.integers(2, 11))))
        if w not in seen:
            seen.add(w)
            words.append(w)
    order = np.repeat(np.arange(counts.size), counts)
    rng.shuffle(order)
    caps = rng.random(order.size) < 0.1
    punct = rng.choice(list(",.;:!?\"'()") + [""] * 30, size=order.size)
    out = []
    for pos, (i, cap, p) in enumerate(zip(order.tolist(), caps.tolist(), punct.tolist())):
        w = words[i]
        out.append((w.capitalize() if cap else w) + p)
        out.append("\n" if pos % 12 == 11 else " ")
    tokens = Counter({w.encode(): int(c) for w, c in zip(words, counts.tolist())})
    return "".join(out).encode(), tokens


def fasta(rng: np.random.Generator, records: int, length: int, mutations: int, k: int) -> tuple[bytes, Counter]:
    """Near-identical genome records: one random base sequence, a few point mutations each."""
    base = rng.integers(0, 4, size=length)
    out = []
    tokens: Counter = Counter()
    for rec in range(records):
        seq = base.copy()
        pos = rng.choice(length, size=mutations, replace=False)
        seq[pos] = (seq[pos] + rng.integers(1, 4, size=mutations)) % 4
        text = bytes(b"ACGT"[x] for x in seq.tolist())
        tokens.update(text[i : i + k] for i in range(length - k + 1))
        out.append(f">rec{rec} synthetic isolate {rec}\n".encode())
        out.extend(text[i : i + 70] + b"\n" for i in range(0, length, 70))
    return b"".join(out), tokens


def pyp_stream(rng: np.random.Generator, n: int, alpha: float, theta: float) -> np.ndarray:
    """Symbol ids from the sequential predictive (Chinese-restaurant) scheme.

    A new symbol arrives with probability (theta + k*alpha)/(theta + i);
    otherwise an earlier symbol is repeated with weight (its count - alpha),
    split as a uniform pick among the i - k repeat draws so far plus a
    uniform pick among the k symbols with total weight k*(1 - alpha).
    """
    u = rng.random(n)
    pick = rng.random(n)
    out = np.empty(n, dtype=np.int64)
    repeats: list[int] = []
    k = 0
    for i in range(n):
        x = u[i] * (theta + i)
        if x < theta + k * alpha:
            sym = k
            k += 1
        else:
            if x < theta + k * alpha + (i - k):
                sym = repeats[int(pick[i] * (i - k))]
            else:
                sym = int(pick[i] * k)
            repeats.append(sym)
        out[i] = sym
    return out


def hash_params(rng: np.random.Generator) -> tuple[int, int, int]:
    """(a, b, symbol_seed) of one draw from the bucket-hash family."""
    a = int(rng.integers(1, MERSENNE_P, dtype=np.uint64))
    b = int(rng.integers(0, MERSENNE_P, dtype=np.uint64))
    return a, b, int(rng.integers(0, 1 << 64, dtype=np.uint64))


def id_tokens(symbols: np.ndarray) -> Counter:
    """Integer ids as the decimal tokens the package hashes them as."""
    ids, mult = np.unique(symbols, return_counts=True)
    return Counter({str(i).encode(): int(m) for i, m in zip(ids.tolist(), mult.tolist())})


def stream_sketch(symbols: np.ndarray, width: int, rng: np.random.Generator) -> tuple[tuple, np.ndarray]:
    """Hash parameters and bucket counts of an id stream."""
    a, b, seed = hash_params(rng)
    return (a, b, width, seed), reference_counts(id_tokens(symbols), a, b, seed, width)

