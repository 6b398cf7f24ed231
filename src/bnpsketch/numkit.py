"""Log-space special functions and combinatorial kernels.

Everything here is a pure function of its arguments.  All combinatorial
quantities (generalized factorial coefficients, Stirling numbers) are carried
in log space: in direct space they overflow float64 around order 150, while
the estimators built on top of them need orders up to 1e5.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "GfcTable",
    "digamma",
    "gfc_direct",
    "log_convolve",
    "log_correlate",
    "log_gamma",
    "log_rising_factorial",
    "logsumexp",
    "stirling_row_log",
    "stirling_signless",
]

EULER_GAMMA = 0.5772156649015328606

# Asymptotic series coefficients for psi(x) ~ ln x - 1/(2x) - sum B_2k/(2k x^2k).
_PSI_ASYMP = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)
_PSI_SWITCH = 6.0

# Stirling series for log Gamma(x) - (x - 1/2)(log x - 1) - log(2 pi)/2 + 1/2:
# sum B_2k / (2k (2k-1) x^(2k-1)); from x >= 7 the first omitted term is 1e-18.
_LGAMMA_ASYMP = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
    77683.0 / 5796.0,
    -236364091.0 / 1506960.0,
)
_LGAMMA_SWITCH = 7.0
_HALF_LOG_2PI = 0.91893853320467274178


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def log_rising_factorial(a, u: int):
    """log of a*(a+1)*...*(a+u-1) for a > 0.

    Short products are accumulated directly (more accurate than a log-gamma
    difference when a is huge and u is small); long ones use lgamma.
    Negative or zero bases are rejected: the estimators only ever need the
    positive branch and a signed version would poison log-space callers.
    """
    a = float(a)
    u = int(u)
    if u < 0:
        raise DomainError(f"rising factorial needs u >= 0, got {u}")
    if a <= 0.0:
        raise DomainError(f"rising factorial base must be positive, got {a}")
    if u == 0:
        return 0.0
    if u <= 32:
        s = 0.0
        for i in range(u):
            s += math.log(a + i)
        return s
    return math.lgamma(a + u) - math.lgamma(a)


def log_rising_factorial_prefix(a, u_max: int):
    """Array L with L[u] = log (a)_(u) for u = 0..u_max, by cumulative sums."""
    a = float(a)
    if a <= 0.0:
        raise DomainError(f"rising factorial base must be positive, got {a}")
    if u_max < 0:
        raise DomainError("u_max must be >= 0")
    out = np.empty(u_max + 1)
    out[0] = 0.0
    if u_max:
        out[1:] = np.cumsum(np.log(a + np.arange(u_max, dtype=float)))
    return out


def digamma(x):
    """Digamma function, accurate to ~1e-10 absolute.

    Strategy: reflect negative arguments, recur upward to x >= 6, then apply
    the asymptotic series.  Arguments within 1e-12 of a non-positive integer
    are poles and rejected.
    """
    x = float(x)
    if x <= 0.5:
        nearest = round(x)
        if nearest <= 0 and abs(x - nearest) < 1e-12:
            raise DomainError(f"digamma pole at non-positive integer, got x={x}")
    if x < 0.0:
        # psi(x) = psi(1-x) - pi*cot(pi*x); reduce the cot argument mod 1.
        frac = x - round(x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * frac)
    if x == 0.0:
        raise DomainError("digamma pole at 0")
    acc = 0.0
    while x < _PSI_SWITCH:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for coef in _PSI_ASYMP:
        series += coef * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x + series


def log_gamma(x):
    """log Gamma(x) for x > 0, elementwise over arrays; a scalar gives a float.

    Strategy: recur upward to x >= 7, folding the shifts into one product,
    then apply the Stirling series.  Each element takes the same operations
    whatever its neighbours, so a value read from a table built by this
    function equals the value computed on its own.
    """
    x = np.asarray(x, dtype=float)
    if not (x > 0.0).all():
        raise DomainError("log_gamma needs x > 0")
    shift = np.ceil(np.maximum(_LGAMMA_SWITCH - x, 0.0))
    prod = np.ones_like(x)
    for i in range(int(shift.max(initial=0.0))):
        np.multiply(prod, x + i, out=prod, where=shift > i)
    y = x + shift
    out = (y - 0.5) * (np.log(y) - 1.0) + (_HALF_LOG_2PI - 0.5) + _stirling_series(y) - np.log(prod)
    return out if out.ndim else float(out)


def _stirling_series(y):
    """log Gamma(y) - (y - 1/2) log y + y - log(2 pi)/2, for y >= ``_LGAMMA_SWITCH``."""
    inv, inv2 = 1.0 / y, 1.0 / (y * y)
    series = _LGAMMA_ASYMP[-1]
    for coef in _LGAMMA_ASYMP[-2::-1]:
        series = coef + inv2 * series
    return inv * series


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _gfc_next_row(row: np.ndarray, u: int, alpha: float, up: float) -> np.ndarray:
    """Advance the log-space triangular recursion by one order.

    C(u+1, v) = (u - v*alpha) * C(u, v) + up * C(u, v-1): the
    generalized factorial coefficients with up-coefficient alpha, and the
    signless Stirling numbers at alpha = 0 with up-coefficient 1.  Both
    summands are nonnegative because u - v*alpha > 0 whenever 1 <= v <= u and
    alpha < 1, so the whole sweep stays in log space without sign tracking.
    From the first k <= u + 1 entries of row u come as many of row u + 1 (all u + 2 from
    a whole row), each that of the whole row: entry v reads entries v - 1 and v only.
    """
    k = row.size
    nxt = np.full(k + (k == u + 1), -np.inf)
    up_term = math.log(up) + row  # up * C(u, v-1) for v = 1..k
    nxt[1:k] = np.logaddexp(np.log(u - np.arange(1, k) * alpha) + row[1:], up_term[:-1])
    if k == u + 1:
        nxt[k] = up_term[-1]
    return nxt


def _gfc_rows(alpha: float, u_max: int, cols: int) -> np.ndarray:
    """log C(u, v; alpha), u = 0..u_max, v < cols (-inf past u): GfcTable's rows bit for bit."""
    table = np.full((u_max + 1, cols), -np.inf)
    table[0, 0] = 0.0
    for u in range(u_max):  # slices past the table's width stop at it
        table[u + 1, : u + 2] = _gfc_next_row(table[u, : u + 1], u, alpha, alpha)[:cols]
    return table


class GfcTable:
    """Caches every generalized-factorial-coefficient row up to a max order.

    Row u holds log C(u, v; alpha) for v = 0..u: the coefficients that expand
    the rising factorial (alpha*t)_(u) in the basis of rising factorials
    (t)_(v), alpha in (0, 1).  For u >= 1 the v = 0 entry is exactly zero
    (log -inf) and every entry 1 <= v <= u is strictly positive.  Rows come
    from the triangular recursion in log space; memory is O(u_max^2).
    """

    def __init__(self, alpha):
        self.alpha = _check_alpha(alpha)
        self._rows = [np.array([0.0])]

    def row(self, u: int) -> np.ndarray:
        """log C(u, v; alpha) for v = 0..u."""
        if u < 0:
            raise DomainError(f"u must be >= 0, got {u}")
        while len(self._rows) <= u:
            uu = len(self._rows) - 1
            self._rows.append(_gfc_next_row(self._rows[-1], uu, self.alpha, self.alpha))
        return self._rows[u]


def gfc_direct(u: int, v: int, alpha):
    """Small-order oracle: the explicit alternating sum for C(u, v; alpha).

    Evaluated in exact rational arithmetic so the alternating cancellation is
    harmless; refuses u > 20 where the terms grow too disparate to be useful
    as a check.
    """
    alpha = _check_alpha(alpha)
    u, v = int(u), int(v)
    if not 0 <= v <= u:
        raise DomainError(f"need 0 <= v <= u, got ({u}, {v})")
    if u > 20:
        raise DomainError("direct alternating sum limited to u <= 20")
    if u == 0:
        return 1.0
    if v == 0:
        return 0.0
    from fractions import Fraction

    a = Fraction(alpha).limit_denominator(10**12)
    total = Fraction(0)
    for i in range(v + 1):
        rising = Fraction(1)
        for k in range(u):
            rising *= -i * a + k
        total += (-1) ** i * math.comb(v, i) * rising
    return float(total / math.factorial(v))


_STIRLING_MAX = 60
_stirling_cache: list[list[int]] = [[1]]


def stirling_signless(u: int, v: int) -> int:
    """Signless Stirling number of the first kind, |s(u, v)|, exact.

    Computed by the integer recursion |s(u+1, v)| = u*|s(u, v)| + |s(u, v-1)|
    and cached; bounded at u <= 60 (use ``stirling_row_log`` beyond).
    """
    u, v = int(u), int(v)
    if not 0 <= v <= u:
        raise DomainError(f"need 0 <= v <= u, got ({u}, {v})")
    if u > _STIRLING_MAX:
        raise DomainError(f"stirling_signless limited to u <= {_STIRLING_MAX}")
    while len(_stirling_cache) <= u:
        uu = len(_stirling_cache) - 1
        prev = _stirling_cache[-1]
        nxt = [0] * (uu + 2)
        for w in range(1, uu + 2):
            nxt[w] = uu * (prev[w] if w <= uu else 0) + prev[w - 1]
        _stirling_cache.append(nxt)
    return _stirling_cache[u][v]


def stirling_row_log(u: int) -> np.ndarray:
    """log |s(u, v)| for v = 0..u: the coefficient recursion at alpha = 0, up-coefficient 1."""
    u = int(u)
    if u < 0:
        raise DomainError(f"u must be >= 0, got {u}")
    row = np.array([0.0])
    for uu in range(u):
        row = _gfc_next_row(row, uu, 0.0, 1.0)
    return row


def logsumexp(xs, axis: int | None = None):
    """log sum exp over ``axis`` (all of ``xs`` when None), shifted by each slice's maximum.

    A slice whose maximum is not finite is not shifted, so an empty or all -inf
    slice gives -inf and one holding +inf gives +inf.  With axis None the
    result is a float.
    """
    xs = np.asarray(xs, dtype=float)
    top = np.max(xs, axis=axis, keepdims=True, initial=-np.inf)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(xs - top), axis=axis)) + np.squeeze(top, axis=axis)
    return float(out) if axis is None else out


def log_convolve(a, b) -> np.ndarray:
    """Log-space convolution: out[t] = logsumexp_{i+j=t} a[i] + b[j].

    Accumulates with pairwise ``logaddexp`` over shifted copies of the longer
    sequence, iterating over the shorter one, so every output entry is an
    exact log-sum of its own terms (no global shift, no resurrected
    underflow).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        return np.full(max(a.size + b.size - 1, 0), -np.inf)
    if a.size > b.size:
        a, b = b, a
    out = np.full(a.size + b.size - 1, -np.inf)
    for k in range(a.size):
        if a[k] == -np.inf:
            continue
        seg = out[k : k + b.size]
        np.logaddexp(seg, b + a[k], out=seg)
    return out


def log_correlate(a, b) -> np.ndarray:
    """Valid-mode log-space correlation: out[t] = logsumexp_i a[i] + b[i+t].

    Requires len(b) >= len(a); output has length len(b) - len(a) + 1.  The
    loop runs over the shorter of ``a`` and the output.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.size < a.size:
        raise DomainError("log_correlate needs len(b) >= len(a)")
    out = np.full(b.size - a.size + 1, -np.inf)
    if out.size < a.size:
        for t in range(out.size):
            out[t] = logsumexp(a + b[t : t + a.size])
        return out
    for i in range(a.size):
        if a[i] == -np.inf:
            continue
        np.logaddexp(out, b[i : i + out.size] + a[i], out=out)
    return out
