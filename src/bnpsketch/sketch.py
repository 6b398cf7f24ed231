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

import struct
from dataclasses import dataclass, field

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
    table = np.empty(256, dtype=np.uint64)
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table[i] = crc
    return table


_CRC32C_TABLE = _make_crc32c_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of ``data``; table-driven, no dependencies."""
    table = _CRC32C_TABLE
    crc = crc ^ 0xFFFFFFFF
    for b in data:
        crc = int(table[(crc ^ b) & 0xFF]) ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _fmix64(x: int) -> int:
    """64-bit avalanche finalizer (splitmix64 style)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def prehash_bytes(token: bytes, symbol_seed: int) -> int:
    """Deterministic seeded 64-bit pre-hash of a byte token.

    FNV-1a with the seed folded into the offset basis, then an avalanche
    finalizer so the downstream linear hash sees well-mixed keys even on
    highly structured inputs.
    """
    h = (_FNV_OFFSET ^ (symbol_seed & _MASK64)) & _MASK64
    for b in token:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return _fmix64(h)


def prehash_u64(ids, symbol_seed: int) -> np.ndarray:
    """Vectorized pre-hash of nonnegative integer ids.

    Hashes the ASCII decimal rendering of each id, byte for byte identical to
    ``prehash_bytes(str(id).encode(), seed)``, so the fast integer path and
    the token-stream path land in the same buckets.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    if ids.size == 0:
        return np.empty(0, dtype=np.uint64)
    n_digits = np.ones(ids.shape, dtype=np.int64)
    scale = np.full(ids.shape, 10, dtype=np.uint64)
    while True:
        more = ids >= scale
        if not more.any():
            break
        n_digits[more] += 1
        # cap at uint64 range: 20 digits
        if n_digits.max() >= 20:
            break
        scale = np.where(more, scale * np.uint64(10), scale)
    max_digits = int(n_digits.max())
    h = np.full(ids.shape, _FNV_OFFSET ^ (symbol_seed & _MASK64), dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    zero_char = np.uint64(ord("0"))
    for pos in range(max_digits):
        # digit at position pos (most significant first), rows long enough only
        active = n_digits > pos
        power = (n_digits - 1 - pos).clip(min=0).astype(np.uint64)
        div = np.power(np.uint64(10), power)
        digit = (ids // div) % np.uint64(10)
        updated = (h ^ (digit + zero_char)) * prime
        h = np.where(active, updated, h)
    # avalanche
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


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
        j = hash_eval(self.spec, token)
        if self.counts[j] == np.uint64(0xFFFFFFFFFFFFFFFF):
            raise OverflowError("bucket counter would exceed 2^64 - 1")
        self.counts[j] += np.uint64(1)
        self.n += 1

    def insert_tokens(self, tokens) -> None:
        for token in tokens:
            self.insert(token)

    def insert_ids(self, ids) -> None:
        """Bulk-insert nonnegative integer ids via the vectorized hash path.

        Identical buckets to inserting each id's decimal string.
        """
        ids = np.asarray(ids)
        if ids.size == 0:
            return
        if (ids < 0).any():
            raise ValueError("ids must be nonnegative")
        if self.n + ids.size >= 1 << 64:
            raise OverflowError("bucket counters would exceed 2^64 - 1")
        x = prehash_u64(ids, self.spec.symbol_seed)
        j = buckets_u64(x, self.spec.a, self.spec.b, self.spec.width)
        add = np.bincount(j, minlength=self.spec.width).astype(np.uint64)
        self.counts += add
        self.n += int(ids.size)

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
    actual_crc = crc32c(data[: expected - 4])
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
