"""Generative samplers for the two-parameter exchangeable species model.

All samplers are pure functions of (parameters, seed): the same seed gives
the same output on any platform.  Seeds may be ints, ``SeedSequence`` objects
or ready ``Generator`` instances; parallel callers should hand each task a
spawned child of one root ``SeedSequence``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import (
    DomainError,
    GfcTable,
    log_rising_factorial,
    log_rising_factorial_prefix,
    stirling_row_log,
)

__all__ = [
    "PriorParams",
    "RawSample",
    "crp_bucket_counts",
    "dist_distinct",
    "expected_distinct_exact",
    "sample_pyp_sequence",
    "sample_sketch_dirmult",
    "sample_zipf_sequence",
]

# Stick-breaking must instantiate enough atoms to cover the deepest uniform
# draw; the atom count grows like n^(alpha/(1-alpha)), so heavy discounts at
# large n are refused rather than silently thrashing memory.
MAX_ATOMS = 20_000_000


def rng_from(seed) -> np.random.Generator:
    """Coerce an int / SeedSequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class PriorParams:
    """Discount alpha in [0, 1) and scale theta of the species prior.

    Sampling only needs theta > -alpha; the sketch estimators additionally
    require theta > 0 (their log-space evaluation breaks for negative theta,
    where the latent block weights alternate in sign), and check it, with
    alpha > 0, against the estimator table in ``report``.
    """

    alpha: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not self.theta > -self.alpha:
            raise DomainError(
                f"theta must exceed -alpha, got theta={self.theta}, alpha={self.alpha}"
            )


@dataclass
class RawSample:
    """A raw symbol stream plus (optionally) the exact atom weights.

    ``symbols`` holds integer symbol ids.  When the generator knows the true
    distribution (stick-breaking or a finite law), ``atom_ids``/
    ``atom_weights`` list every instantiated atom and its exact probability
    mass, which is what makes truth computations truncation-free.
    """

    symbols: np.ndarray
    atom_ids: np.ndarray | None = None
    atom_weights: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.symbols.size)

    @property
    def has_weights(self) -> bool:
        return self.atom_weights is not None


def sample_pyp_sequence(params: PriorParams, n: int, seed, with_weights: bool = True) -> RawSample:
    """Draw n observations from the species prior.

    With ``with_weights=True`` (default) the draw uses lazy stick breaking:
    sticks V_i ~ Beta(1-alpha, theta+i*alpha) are instantiated in blocks until
    the cumulative atom mass covers every uniform variate, so each observation
    is an exact draw from the infinite discrete law and the recorded weights
    are exact (no truncation).  Atom ids are stick indices, 0-based.

    With ``with_weights=False`` the symbol sequence is drawn instead from the
    sequential predictive scheme (new symbol with probability
    (theta + k*alpha)/(theta + i), else an existing one proportional to its
    count minus alpha).  The law of the id sequence is the same up to
    relabeling, but no weights are recorded.  Use this for large n with
    alpha well above 1/2, where stick coverage would need ~n^(alpha/(1-alpha))
    atoms.
    """
    n = int(n)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    rng = rng_from(seed)
    if not with_weights:
        symbols = np.empty(n, dtype=np.int64)
        if n:
            u = rng.random(n)
            pick = rng.random(n)
            _crp_fill(symbols, u, pick, float(params.alpha), float(params.theta))
        return RawSample(symbols=symbols)

    u = rng.random(n)
    atoms_w: list[np.ndarray] = []
    covered = 0.0
    residual = 1.0
    m = 0
    block = 256
    u_max = float(u.max()) if n else -1.0
    while covered <= u_max:
        if m >= MAX_ATOMS:
            raise DomainError(
                f"stick-breaking needed more than {MAX_ATOMS} atoms "
                f"(alpha={params.alpha}, n={n}); draw with with_weights=False "
                "or reduce alpha/n"
            )
        idx = np.arange(m + 1, m + block + 1, dtype=float)
        v = rng.beta(1.0 - params.alpha, params.theta + idx * params.alpha)
        w = residual * v * np.cumprod(np.concatenate(([1.0], 1.0 - v[:-1])))
        atoms_w.append(w)
        residual *= float(np.prod(1.0 - v))
        covered = 1.0 - residual
        m += block
        block = min(block * 2, 1 << 22)
    if n:
        weights = np.concatenate(atoms_w)
        cum = np.cumsum(weights)
        symbols = np.searchsorted(cum, u, side="right").astype(np.int64)
    else:
        weights = np.concatenate(atoms_w) if atoms_w else np.empty(0)
        symbols = np.empty(0, dtype=np.int64)
    return RawSample(
        symbols=symbols,
        atom_ids=np.arange(weights.size, dtype=np.int64),
        atom_weights=weights,
    )


def _crp_fill(symbols, u, pick, alpha, theta):
    """Single-stream loop of the sequential predictive sampler, O(n).

    Picking an existing block with weight (count - alpha) is decomposed into
    two positive pieces: a uniform pick among non-initial observations
    (total weight i-1-k) and a uniform pick among existing blocks (total
    weight k*(1-alpha)).  Block k is the block first seen as symbol k, so a
    uniform block pick is ``int(pick[i] * n_blocks)`` itself.
    ``crp_bucket_counts`` repeats these float operations in the same order,
    row by row.
    """
    n = symbols.shape[0]
    repeats = np.empty(n, dtype=np.int64)
    symbols[0] = 0
    n_blocks = 1
    n_repeats = 0
    for i in range(1, n):
        total = theta + i
        w_new = theta + n_blocks * alpha
        w_rep = float(i - n_blocks)
        x = u[i] * total
        if x < w_new:
            sym = n_blocks
            n_blocks += 1
        elif x < w_new + w_rep:
            sym = repeats[int(pick[i] * w_rep)]
        else:
            sym = int(pick[i] * n_blocks)
        symbols[i] = sym
        if x >= w_new:
            repeats[n_repeats] = sym
            n_repeats += 1
    return n_blocks


def crp_bucket_counts(alpha, theta, stream, u, pick, bucket_of_id, width: int) -> np.ndarray:
    """Bucket counts of many sequential-predictive streams, run in lockstep.

    Row r samples n >= 1 observations under (alpha[r], theta[r]) from the
    uniforms ``u[stream[r]]`` and ``pick[stream[r]]`` (each of shape
    (streams, n)), maps symbol id k to bucket ``bucket_of_id[k]`` and
    returns the (rows, width) counts.  One vectorized step per observation
    advances every row; each row repeats ``_crp_fill``'s float operations in
    the same order, so its counts equal those of that loop's symbols
    sketched with the same buckets, bit for bit.  Memory is one repeat table
    of rows x n ids (a row's non-initial symbols) in the smallest signed
    integer type that holds -n, plus the counts; no symbols are kept.
    """
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    stream = np.asarray(stream, dtype=np.intp)
    rows, n = stream.size, np.shape(u)[1]
    u_steps = np.ascontiguousarray(np.transpose(u), dtype=float)
    pick_steps = np.ascontiguousarray(np.transpose(pick), dtype=float)
    id_type = np.min_scalar_type(-n)  # ids lie in 0..n - 1
    repeats = np.empty(rows * n, dtype=id_type)
    base = np.arange(rows, dtype=np.intp) * n
    n_blocks = np.ones(rows, dtype=np.intp)
    n_repeats = np.zeros(rows, dtype=np.intp)
    for i in range(1, n):
        w_new = theta + n_blocks * alpha
        w_rep = n_repeats.astype(float)  # i - n_blocks
        x = u_steps[i][stream] * (theta + i)
        p = pick_steps[i][stream]
        is_new = x < w_new
        old = np.where(
            x < w_new + w_rep,
            repeats[base + (p * w_rep).astype(np.intp)],
            (p * n_blocks).astype(id_type),
        )
        # a new block's slot is written but not kept: n_repeats stays put
        repeats[base + n_repeats] = np.where(is_new, n_blocks, old)
        n_blocks += is_new
        n_repeats += ~is_new
    counts = np.empty((rows, width), dtype=np.int64)
    for r in range(rows):
        own = repeats[base[r] : base[r] + n_repeats[r]]
        counts[r] = np.bincount(bucket_of_id[: n_blocks[r]], minlength=width)
        counts[r] += np.bincount(bucket_of_id[own], minlength=width)
    return counts


def sample_zipf_sequence(exponent: float, vocab: int, n: int, seed) -> RawSample:
    """IID draws from p_k proportional to k^-exponent over ids 1..vocab."""
    exponent = float(exponent)
    vocab = int(vocab)
    n = int(n)
    if exponent <= 0.0:
        raise DomainError(f"exponent must be > 0, got {exponent}")
    if vocab < 1:
        raise DomainError(f"vocab must be >= 1, got {vocab}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    rng = rng_from(seed)
    ids = np.arange(1, vocab + 1, dtype=float)
    weights = ids**-exponent
    weights /= weights.sum()
    if n:
        cum = np.cumsum(weights)
        symbols = (np.searchsorted(cum, rng.random(n), side="right") + 1).astype(np.int64)
        symbols = np.minimum(symbols, vocab)
    else:
        symbols = np.empty(0, dtype=np.int64)
    return RawSample(
        symbols=symbols,
        atom_ids=np.arange(1, vocab + 1, dtype=np.int64),
        atom_weights=weights,
    )


def distinct_chain(c: int, params: PriorParams, size: int, rng: np.random.Generator):
    """Walk ``size`` independent distinct-count chains, yielding (i, K_i) for i = 0..c.

    K_0 = 0 and K_1 = 1; for i >= 2 the count increments by a Bernoulli with
    success probability (theta + alpha*K_{i-1})/(theta+i-1), the new-symbol
    probability of the predictive scheme after i-1 observations, so one walk
    yields every prefix count.  K_i is one array updated in place: copy what
    you keep.  Step i >= 2 draws ``rng.random(size)``; K_1 draws nothing.  A step
    reads p from a table over K_{i-1} <= i - 1, whose entries are the
    elementwise formula's bit for bit, into buffers reused by every step.
    """
    alpha, theta = params.alpha, params.theta
    k = np.zeros(size, dtype=np.int64)
    yield 0, k
    if c < 1:
        return
    k += 1
    yield 1, k
    if c < 2:
        return
    numerators = theta + alpha * np.arange(c)
    u, p, new = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for i in range(2, c + 1):
        rng.random(out=u)
        # mode="clip" writes into p directly ("raise" buffers the output); K < i
        np.take(numerators[:i] / (theta + i - 1), k, out=p, mode="clip")
        k += np.less(u, p, out=new)
        yield i, k


def sample_distinct_pairs(
    c: int, r: int, params: PriorParams, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``size`` independent trajectories of ``distinct_chain``, read at depths c - r and c."""
    c = int(c)
    r = int(r)
    if not 0 <= r <= c:
        raise DomainError(f"need 0 <= r <= c, got r={r}, c={c}")
    for i, k in distinct_chain(c, params, size, rng):
        if i == c - r:
            k_at_cr = k.copy()
    return k_at_cr, k


def expected_distinct_exact(c: int, params: PriorParams) -> float:
    """Exact E[K_c] by the recursion e_{i+1} = e_i + (theta + alpha*e_i)/(theta+i).

    Exact because the new-symbol probability is linear in the current count.
    """
    c = int(c)
    if c < 0:
        raise DomainError(f"c must be >= 0, got {c}")
    if c == 0:
        return 0.0
    e = 1.0
    for i in range(1, c):
        e += (params.theta + params.alpha * e) / (params.theta + i)
    return e


def sample_sketch_dirmult(n: int, width: int, theta: float, seed):
    """Bucket counts from the symmetric Dirichlet-Multinomial law.

    Sequential urn scheme: observation i lands in bucket j with probability
    (theta/J + C_j)/(theta + i - 1).  Fast test fixture for the exact sketch
    law under a zero-discount prior, with no symbols materialized.
    """
    from .sketch import HashSpec, Sketch

    n = int(n)
    width = int(width)
    theta = float(theta)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if width < 1:
        raise DomainError(f"width must be >= 1, got {width}")
    if theta <= 0.0:
        raise DomainError(f"theta must be > 0, got {theta}")
    rng = rng_from(seed)
    counts = np.zeros(width, dtype=float)
    base = theta / width
    u = rng.random(n)
    for i in range(n):
        cum = np.cumsum(counts + base)
        j = int(np.searchsorted(cum, u[i] * (theta + i), side="right"))
        counts[min(j, width - 1)] += 1.0
    spec = HashSpec.random(width, seed=rng.integers(0, 2**32))
    return Sketch(spec=spec, counts=counts.astype(np.uint64), n=n)


def dist_distinct(n: int, params: PriorParams) -> np.ndarray:
    """Distribution of the number of distinct symbols among n draws.

    Returns the probability vector over k = 1..n (index 0 unused, set to 0);
    computed in log space from the generalized-factorial-coefficient row, or
    from the signless Stirling row when alpha = 0.
    """
    n = int(n)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n > 1000:
        raise DomainError("dist_distinct limited to n <= 1000")
    if n == 0:
        return np.array([1.0])
    theta = params.theta
    if theta <= 0:
        raise DomainError("dist_distinct requires theta > 0")
    ks = np.arange(n + 1)
    if params.alpha == 0.0:
        log_row = stirling_row_log(n)
        log_w = ks * np.log(theta) + log_row
    else:
        log_row = GfcTable(params.alpha).row(n)
        log_w = log_rising_factorial_prefix(theta / params.alpha, n) + log_row
    log_w = log_w - log_rising_factorial(theta, n)
    out = np.exp(log_w)
    out[0] = 0.0
    return out
