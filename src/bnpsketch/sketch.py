"""Strongly-universal hashing into J buckets and the streaming count sketch.

The hash is a Carter--Wegman layer ((a*x + b) mod p) mod J over the Mersenne
prime p = 2^61 - 1, applied to a seeded 64-bit pre-hash of the raw token
bytes.  The final mod-J reduction biases bucket probabilities by O(J/p),
i.e. ~1e-16 for J up to 2^16, which is accepted.  Pre-hash collisions over
distinct symbols follow the 64-bit birthday bound (~2.7e-2 at 1e9 symbols)
and are likewise accepted at desk scale.

Sketches are long-lived artifacts, so the wire format is versioned and
checksummed (CRC-32C) and bit-exact across platforms.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .numkit import DomainError

__all__ = [
    "MERSENNE_P",
    "HashSpec",
    "Sketch",
    "SketchFormatError",
    "BadMagicError",
    "BadVersionError",
    "TruncatedError",
    "ChecksumError",
    "BadHeaderError",
    "CountSumError",
    "count_multiset",
    "crc32c",
    "hash_eval",
    "prehash_bytes",
    "sketch_deserialize",
    "sketch_merge",
    "sketch_serialize",
]

MERSENNE_P = (1 << 61) - 1
MAX_WIDTH = 1 << 24
_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)  # an id >= 10^k has > k digits
_TOKEN_BATCH = 1 << 16  # tokens hashed per lockstep batch in insert_tokens
_SCALAR_LANES = 32  # unfinished tokens below which one numpy step costs more than Python

# CRC-32C lanes: one numpy step costs about as much as 20 bytes of the byte
# loop, so 64-byte lanes pay off from about 32 lanes (2 KB) on
_CRC_LANE = 64
_CRC_MIN_LANES = 32

_MAGIC = b"BNPS"
_VERSION = 1
_HEADER = struct.Struct("<4sBIQQQQ")  # magic, version, J, a, b, symbol_seed, n


class SketchFormatError(ValueError):
    """Base class for sketch wire-format problems."""


class BadMagicError(SketchFormatError):
    pass


class BadVersionError(SketchFormatError):
    pass


class TruncatedError(SketchFormatError):
    pass


class ChecksumError(SketchFormatError):
    pass


class BadHeaderError(SketchFormatError):
    """A header field lies outside its range (width 0, a = 0, b >= p, ...)."""


class CountSumError(SketchFormatError):
    """The stored counts do not sum to the stored n."""


def _make_crc32c_table():
    poly = 0x82F63B78  # reflected Castagnoli polynomial
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _make_crc32c_table()


def _gf2_apply(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A GF(2)-linear map of 32-bit words, stored as four 256-entry byte tables."""
    return op[0][x & 0xFF] ^ op[1][(x >> 8) & 0xFF] ^ op[2][(x >> 16) & 0xFF] ^ op[3][x >> 24]


def _gf2_tables(images: np.ndarray) -> np.ndarray:
    """Byte tables of the linear map sending bit i to ``images[i]``."""
    bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)  # (256, 8)
    op = np.bitwise_xor.reduce(np.where(bits, images.reshape(4, 1, 8), 0), axis=2)
    op.flags.writeable = False
    return op


@functools.cache
def _crc_zeros_op(level: int) -> np.ndarray:
    """The CRC register map that feeds 2^level zero bytes, squared up from one byte."""
    if level == 0:
        units = [_CRC32C_TABLE[1 << i] for i in range(8)] + [1 << i for i in range(24)]
        return _gf2_tables(np.array(units, dtype=np.uint32))
    half = _crc_zeros_op(level - 1)
    units = np.left_shift(np.uint32(1), np.arange(32, dtype=np.uint32))
    return _gf2_tables(_gf2_apply(half, _gf2_apply(half, units)))


def _crc_lanes(lanes: np.ndarray, register: int) -> int:
    """Raw CRC register after the rows of ``lanes`` (k rows of 2^level bytes), in order.

    Every row runs through the byte table at once, the first from
    ``register``, the rest from 0.  The register map is linear, so a row
    pair folds as zeros(2^level)(left) ^ right; the tree of such folds, with
    the zero-feed map squared at each level, gives the register of the
    whole.  Leading zero rows pad k to a power of two and change nothing.
    """
    k, span = lanes.shape
    table = np.array(_CRC32C_TABLE, dtype=np.uint32)
    regs = np.zeros(k, dtype=np.uint32)
    regs[0] = register
    for column in np.ascontiguousarray(lanes.T):
        regs = table[(regs ^ column) & 0xFF] ^ (regs >> 8)
    regs = np.concatenate([np.zeros((1 << (k - 1).bit_length()) - k, dtype=np.uint32), regs])
    level = span.bit_length() - 1
    while regs.size > 1:
        regs = _gf2_apply(_crc_zeros_op(level), regs[0::2]) ^ regs[1::2]
        level += 1
    return int(regs[0])


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of ``data``, continuing from ``crc``; table-driven.

    ``crc32c(b, crc32c(a)) == crc32c(a + b)``.  A payload of at least
    ``_CRC_MIN_LANES`` lanes of ``_CRC_LANE`` bytes runs lane-parallel in
    numpy (``_crc_lanes``); the bytes after the last whole lane, and shorter
    payloads, run byte by byte.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    register = crc ^ 0xFFFFFFFF
    k = buf.size // _CRC_LANE if buf.size >= _CRC_LANE * _CRC_MIN_LANES else 0
    if k:
        register = _crc_lanes(buf[: k * _CRC_LANE].reshape(k, _CRC_LANE), register)
    table = _CRC32C_TABLE
    for b in buf[k * _CRC_LANE :].tobytes():
        register = table[(register ^ b) & 0xFF] ^ (register >> 8)
    return register ^ 0xFFFFFFFF


def _fnv1a(h: int, data: bytes) -> int:
    """FNV-1a over ``data``, continuing from the 64-bit state ``h``."""
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _fmix64(x: int) -> int:
    """64-bit avalanche finalizer (splitmix64 style)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _fmix64_u64(h: np.ndarray) -> np.ndarray:
    """``_fmix64`` over a uint64 array, in place."""
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def prehash_bytes(token: bytes, symbol_seed: int) -> int:
    """Deterministic seeded 64-bit pre-hash of a byte token.

    FNV-1a with the seed folded into the offset basis, then an avalanche
    finalizer so the downstream linear hash sees well-mixed keys even on
    highly structured inputs.
    """
    return _fmix64(_fnv1a((_FNV_OFFSET ^ (symbol_seed & _MASK64)) & _MASK64, token))


def _prehash_spans(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, symbol_seed: int):
    """``prehash_bytes`` of every span ``buf[starts[i] : starts[i] + lengths[i]]``, in lockstep.

    One numpy step per byte position runs FNV-1a over all spans still
    unfinished; sorted longest first, those are a prefix.  Once at most
    ``_SCALAR_LANES`` remain, they finish byte by byte, so the numpy steps
    number at most total bytes / ``_SCALAR_LANES`` however long one span is.
    """
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    pos = starts[order]
    h = np.full(lens.size, _FNV_OFFSET ^ (symbol_seed & _MASK64), dtype=np.uint64)
    steps = int(lens[_SCALAR_LANES]) if lens.size > _SCALAR_LANES else 0
    active = lens.size - np.searchsorted(lens[::-1], np.arange(steps), side="right")
    prime = np.uint64(_FNV_PRIME)
    for m in active.tolist():
        live = h[:m]
        live ^= buf[pos[:m]]
        live *= prime
        pos[:m] += 1
    for i in np.flatnonzero(lens > steps).tolist():
        h[i] = _fnv1a(int(h[i]), buf[pos[i] : pos[i] + lens[i] - steps].tobytes())
    out = np.empty_like(h)
    out[order] = h
    return _fmix64_u64(out)


def prehash_tokens(tokens, symbol_seed: int) -> np.ndarray:
    """``prehash_bytes`` of every token of a list (``_prehash_spans`` over their join)."""
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    buf = np.frombuffer(b"".join(tokens), dtype=np.uint8)
    return _prehash_spans(buf, np.cumsum(lengths) - lengths, lengths, symbol_seed)


def prehash_u64(ids, symbol_seed: int) -> np.ndarray:
    """Vectorized pre-hash of nonnegative integer ids.

    Hashes the ASCII decimal rendering of each id, byte for byte identical to
    ``prehash_bytes(str(id).encode(), seed)``, so the fast integer path and
    the token-stream path land in the same buckets: each id is written as
    right-aligned digits into one row of a byte matrix, and its digits are
    the span ``_prehash_spans`` hashes.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    n_digits = np.searchsorted(_POW10, ids, side="right") + 1
    width = int(n_digits.max(initial=1))
    digits = np.empty((ids.size, width), dtype=np.uint8)
    rest, ten = ids, np.uint64(10)
    for col in range(width - 1, -1, -1):  # one division a column; the digit is rest - 10 * quot
        quot = rest // ten
        digits[:, col] = rest - quot * ten
        rest = quot
    digits += ord("0")
    starts = np.arange(ids.size) * width + width - n_digits
    return _prehash_spans(digits.reshape(-1), starts, n_digits, symbol_seed)


def _fold61(y: np.ndarray) -> np.ndarray:
    """Reduce values < 2^64 modulo 2^61 - 1 to < 2^61 + 8, then < p via one subtract."""
    mask = np.uint64(MERSENNE_P)
    y = (y >> np.uint64(61)) + (y & mask)
    y = (y >> np.uint64(61)) + (y & mask)
    return np.where(y >= mask, y - mask, y)


def _shift32_mod_p(z: np.ndarray) -> np.ndarray:
    """(z * 2^32) mod p for z < p, without leaving 64 bits."""
    hi = z >> np.uint64(29)  # z = hi*2^29 + lo, so z*2^32 = hi*2^61 + lo*2^32
    lo = z & np.uint64((1 << 29) - 1)
    return _fold61(hi + (lo << np.uint64(32)))


def buckets_u64(x, a, b, width: int) -> np.ndarray:
    """Vectorized ((a*x + b) mod p) mod J over 64-bit pre-hashes.

    The 125-bit product is assembled from 32-bit limbs and folded with
    2^61 = 1 (mod p); every intermediate stays below 2^64 so plain uint64
    arithmetic is exact.
    """
    x = np.asarray(x, dtype=np.uint64)
    a_arr = np.asarray(a, dtype=np.uint64)
    a1, a0 = a_arr >> np.uint64(32), a_arr & np.uint64(0xFFFFFFFF)
    x1, x0 = x >> np.uint64(32), x & np.uint64(0xFFFFFFFF)
    # a*x = a1*x1*2^64 + (a1*x0 + a0*x1)*2^32 + a0*x0, each limb product < 2^64
    hi = _fold61(a1 * x1 << np.uint64(3))  # 2^64 = 8 (mod p)
    m1 = _shift32_mod_p(_fold61(a1 * x0))
    m2 = _shift32_mod_p(_fold61(a0 * x1))
    lo = _fold61(a0 * x0)
    total = _fold61(hi + m1 + m2 + lo + np.asarray(b, dtype=np.uint64))
    return (total % np.uint64(width)).astype(np.int64)


@dataclass(frozen=True)
class HashSpec:
    """Parameters of one draw from the bucket-hash family.

    Two specs are merge-compatible iff all fields are equal; the prime is
    fixed at 2^61 - 1.
    """

    a: int
    b: int
    width: int
    symbol_seed: int

    def __post_init__(self):
        if not 1 <= self.a < MERSENNE_P:
            raise ValueError(f"a must lie in [1, p), got {self.a}")
        if not 0 <= self.b < MERSENNE_P:
            raise ValueError(f"b must lie in [0, p), got {self.b}")
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must lie in [1, 2^24], got {self.width}")
        if not 0 <= self.symbol_seed < (1 << 64):
            raise ValueError("symbol_seed must be a 64-bit value")

    @classmethod
    def random(cls, width: int, seed) -> "HashSpec":
        """Draw (a, b, symbol_seed) from an explicit seed."""
        rng = np.random.default_rng(seed)
        a = int(rng.integers(1, MERSENNE_P, dtype=np.uint64))
        b = int(rng.integers(0, MERSENNE_P, dtype=np.uint64))
        symbol_seed = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        return cls(a=a, b=b, width=width, symbol_seed=symbol_seed)


def hash_eval(spec: HashSpec, token: bytes) -> int:
    """Bucket index in [0, width) of one byte token; pure and deterministic."""
    x = prehash_bytes(token, spec.symbol_seed)
    return ((spec.a * x + spec.b) % MERSENNE_P) % spec.width


def _exact_sum(counts: np.ndarray) -> int:
    """Sum of uint64 counts without wrapping: each 32-bit half sums below 2^56."""
    hi = int((counts >> np.uint64(32)).sum())
    lo = int((counts & np.uint64(0xFFFFFFFF)).sum())
    return (hi << 32) + lo


@dataclass
class Sketch:
    """Bucket counts for one hash draw: counts[j] observations landed in j.

    Single-writer during ingestion; reads require external synchronization
    with the writer.  Distinct sketches may be built in parallel and merged.
    """

    spec: HashSpec
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    n: int = 0

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros(self.spec.width, dtype=np.uint64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.uint64)
            if self.counts.shape != (self.spec.width,):
                raise ValueError("counts length must equal the hash width")
            if _exact_sum(self.counts) != self.n:
                raise ValueError("counts must sum to n")

    def insert(self, token: bytes) -> None:
        if self.n + 1 >= 1 << 64:
            raise OverflowError("bucket counters would exceed 2^64 - 1")
        j = hash_eval(self.spec, token)
        self.counts[j] += np.uint64(1)
        self.n += 1

    def insert_tokens(self, tokens) -> None:
        """Insert every byte token of an iterable; the same buckets as ``insert``.

        The iterable is read ``_TOKEN_BATCH`` tokens at a time and each batch
        is hashed in lockstep (``prehash_tokens``).  A batch that would take
        n to 2^64 raises OverflowError before it changes any count.
        """
        it = iter(tokens)
        while batch := list(islice(it, _TOKEN_BATCH)):
            self._add_prehashed(prehash_tokens(batch, self.spec.symbol_seed))

    def insert_ids(self, ids) -> None:
        """Bulk-insert nonnegative integer ids via the vectorized hash path.

        Identical buckets to inserting each id's decimal string.  Input that
        is not 1-D, of a non-integer dtype (float, bool, object) or negative
        raises ValueError before any count changes; empty input inserts nothing.
        """
        ids = np.asarray(ids)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError(f"ids must be a 1-D integer array, got {ids.dtype} of shape {ids.shape}")
        if (ids < 0).any():
            raise ValueError("ids must be nonnegative")
        self._add_prehashed(prehash_u64(ids, self.spec.symbol_seed))

    def _add_prehashed(self, x: np.ndarray) -> None:
        """Count pre-hashes into their buckets, all or none.

        The counts sum to n, so n + len(x) < 2^64 keeps every bucket in range.
        """
        if self.n + x.size >= 1 << 64:
            raise OverflowError("bucket counters would exceed 2^64 - 1")
        j = buckets_u64(x, self.spec.a, self.spec.b, self.spec.width)
        self.counts += np.bincount(j, minlength=self.spec.width).astype(np.uint64)
        self.n += int(x.size)

    def copy(self) -> "Sketch":
        return Sketch(spec=self.spec, counts=self.counts.copy(), n=self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sketch):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.n == other.n
            and bool(np.array_equal(self.counts, other.counts))
        )


def count_multiset(counts) -> tuple[np.ndarray, np.ndarray]:
    """Distinct bucket counts (ascending, int64) and the number of buckets holding each.

    The estimators read the counts only through this multiset.  Counts of
    2^63 or more do not fit their signed arithmetic and raise DomainError.
    """
    values, mult = np.unique(np.asarray(counts, dtype=np.uint64), return_counts=True)
    if values.size and values[-1] >= np.uint64(1 << 63):
        raise DomainError(f"bucket count {int(values[-1])} exceeds the estimators' range (< 2^63)")
    return values.astype(np.int64), mult


def sketch_merge(s1: Sketch, s2: Sketch) -> Sketch:
    """Elementwise sum of two sketches built with identical hash specs."""
    if s1.spec != s2.spec:
        raise ValueError("sketches were built with different hash specs")
    if s1.n + s2.n >= 1 << 64:
        raise OverflowError("merged bucket counters would exceed 2^64 - 1")
    return Sketch(spec=s1.spec, counts=s1.counts + s2.counts, n=s1.n + s2.n)


def sketch_serialize(s: Sketch) -> bytes:
    """Little-endian wire encoding with trailing CRC-32C; bit-exact."""
    head = _HEADER.pack(
        _MAGIC, _VERSION, s.spec.width, s.spec.a, s.spec.b, s.spec.symbol_seed, s.n
    )
    body = np.ascontiguousarray(s.counts, dtype="<u8").tobytes()
    payload = head + body
    return payload + struct.pack("<I", crc32c(payload))


def sketch_deserialize(data: bytes) -> Sketch:
    """Parse the wire encoding, raising a distinct error per failure mode."""
    if len(data) < _HEADER.size + 4:
        raise TruncatedError(f"sketch blob too short ({len(data)} bytes)")
    magic, version, width, a, b, symbol_seed, n = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise BadVersionError(f"unsupported format version {version}")
    expected = _HEADER.size + 8 * width + 4
    if len(data) != expected:
        raise TruncatedError(f"expected {expected} bytes, got {len(data)}")
    stored_crc = struct.unpack_from("<I", data, expected - 4)[0]
    actual_crc = crc32c(memoryview(data)[: expected - 4])
    if stored_crc != actual_crc:
        raise ChecksumError(f"checksum mismatch: stored {stored_crc:#x}, computed {actual_crc:#x}")
    counts = np.frombuffer(data, dtype="<u8", count=width, offset=_HEADER.size)
    try:
        spec = HashSpec(a=a, b=b, width=width, symbol_seed=symbol_seed)
    except ValueError as exc:
        raise BadHeaderError(str(exc)) from None
    try:
        return Sketch(spec=spec, counts=counts.astype(np.uint64), n=n)
    except ValueError as exc:  # the only check left is the counts' sum
        raise CountSumError(str(exc)) from None


def sketch_load(path) -> Sketch:
    with open(path, "rb") as fh:
        return sketch_deserialize(fh.read())


def sketch_save(s: Sketch, path) -> None:
    with open(path, "wb") as fh:
        fh.write(sketch_serialize(s))
