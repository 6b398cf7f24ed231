"""Hashing, streaming counts, merge, and the wire format."""

import struct

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpsketch import sketch as sk
from bnpsketch.numkit import DomainError


class TestCrc32c:
    def test_check_vector(self):
        assert sk.crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert sk.crc32c(b"") == 0


class TestPrehash:
    def test_deterministic(self):
        assert sk.prehash_bytes(b"abc", 7) == sk.prehash_bytes(b"abc", 7)
        assert sk.prehash_bytes(b"abc", 7) != sk.prehash_bytes(b"abc", 8)
        assert sk.prehash_bytes(b"abc", 7) != sk.prehash_bytes(b"abd", 7)

    def test_vectorized_matches_decimal_bytes(self, rng):
        ids = np.concatenate(
            [
                rng.integers(0, 10, 64).astype(np.uint64),
                rng.integers(0, 2**62, 64).astype(np.uint64),
                np.array([0, 9, 10, 99, 100, 10**19, 2**64 - 1], dtype=np.uint64),
            ]
        )
        seed = 0xDEADBEEFCAFEF00D
        vec = sk.prehash_u64(ids, seed)
        ref = np.array(
            [sk.prehash_bytes(str(int(i)).encode(), seed) for i in ids], dtype=np.uint64
        )
        assert np.array_equal(vec, ref)


class TestBucketEval:
    def test_identity_parameters(self):
        # with a = 1, b = 0 the bucket is the pre-hash reduced mod p, mod J
        spec = sk.HashSpec(a=1, b=0, width=16, symbol_seed=123)
        x = sk.prehash_bytes(b"token", 123)
        assert sk.hash_eval(spec, b"token") == (x % sk.MERSENNE_P) % 16
        # and literally the pre-hash mod J once the pre-hash is below p
        for i in range(64):
            token = f"t{i}".encode()
            x = sk.prehash_bytes(token, 123)
            if x < sk.MERSENNE_P:
                assert sk.hash_eval(spec, token) == x % 16
                break
        else:  # pragma: no cover
            pytest.fail("no token with a small pre-hash found")

    def test_determinism(self):
        spec = sk.HashSpec.random(64, seed=5)
        assert sk.hash_eval(spec, b"zzz") == sk.hash_eval(spec, b"zzz")

    def test_vectorized_matches_bigint(self, rng):
        P = sk.MERSENNE_P
        a = int(rng.integers(1, P))
        b = int(rng.integers(0, P))
        xs = np.concatenate(
            [
                rng.integers(0, 2**63, 100).astype(np.uint64) * 2
                + rng.integers(0, 2, 100).astype(np.uint64),
                np.array([0, 1, P - 1, P, P + 1, 2**64 - 1], dtype=np.uint64),
            ]
        )
        got = sk.buckets_u64(xs, a, b, 4099)
        want = np.array([((a * int(x) + b) % P) % 4099 for x in xs])
        assert np.array_equal(got, want)

    def test_uniformity_chi_square(self):
        # a million distinct tokens should fill 128 buckets uniformly
        spec = sk.HashSpec.random(128, seed=11)
        ids = np.arange(1_000_000, dtype=np.uint64)
        x = sk.prehash_u64(ids, spec.symbol_seed)
        j = sk.buckets_u64(x, spec.a, spec.b, spec.width)
        histogram = np.bincount(j, minlength=128)
        stat, pval = scipy.stats.chisquare(histogram)
        assert pval > 0.001, (stat, pval)

    def test_pairwise_collision_rate(self, rng):
        # over random (a, b) draws, two fixed distinct keys collide ~ 1/J
        J = 64
        draws = 100_000
        x1 = np.uint64(0x0123456789ABCDEF)
        x2 = np.uint64(0xFEDCBA9876543210)
        a = rng.integers(1, sk.MERSENNE_P, draws).astype(np.uint64)
        b = rng.integers(0, sk.MERSENNE_P, draws).astype(np.uint64)
        j1 = sk.buckets_u64(np.full(draws, x1), a, b, J)
        j2 = sk.buckets_u64(np.full(draws, x2), a, b, J)
        rate = float(np.mean(j1 == j2))
        se = np.sqrt((1 / J) * (1 - 1 / J) / draws)
        assert abs(rate - 1 / J) < 3 * se, (rate, se)


class TestSketchCounts:
    def test_insert_examples(self):
        spec = sk.HashSpec.random(8, seed=1)
        s = sk.Sketch(spec)
        assert s.n == 0 and s.counts.sum() == 0
        for t in (b"a", b"b", b"a"):
            s.insert(t)
        assert s.n == 3 and int(s.counts.sum()) == 3
        assert int(s.counts[sk.hash_eval(spec, b"a")]) >= 2

    def test_insert_ids_matches_tokens(self, rng):
        spec = sk.HashSpec.random(32, seed=2)
        s1, s2 = sk.Sketch(spec), sk.Sketch(spec)
        ids = rng.integers(0, 10**7, 2000)
        s1.insert_ids(ids)
        for i in ids:
            s2.insert(str(int(i)).encode())
        assert s1 == s2

    @given(st.lists(st.integers(0, 50), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_counts_sum_to_n(self, ids):
        spec = sk.HashSpec(a=12345, b=678, width=16, symbol_seed=42)
        s = sk.Sketch(spec)
        s.insert_ids(np.array(ids, dtype=np.int64))
        assert int(s.counts.sum()) == s.n == len(ids)


class TestCountRange:
    def test_wrapping_sum_rejected(self):
        # 2^63 + 2^63 wraps to 0 in uint64 arithmetic
        spec = sk.HashSpec(a=1, b=0, width=2, symbol_seed=0)
        with pytest.raises(ValueError, match="sum to n"):
            sk.Sketch(spec, counts=np.array([2**63, 2**63], dtype=np.uint64), n=0)
        big = sk.Sketch(spec, counts=np.array([2**63, 2**63 - 1], dtype=np.uint64), n=2**64 - 1)
        assert big.n == 2**64 - 1

    def test_multiset(self):
        values, mult = sk.count_multiset(np.array([3, 0, 1, 3, 0, 3], dtype=np.uint64))
        assert values.dtype == np.int64
        assert values.tolist() == [0, 1, 3] and mult.tolist() == [2, 1, 3]
        values, _ = sk.count_multiset(np.array([2**63 - 1], dtype=np.uint64))
        assert values.tolist() == [2**63 - 1]

    def test_multiset_rejects_counts_past_signed_range(self):
        for c in (2**63, 2**64 - 1):
            with pytest.raises(DomainError):
                sk.count_multiset(np.array([c, 5], dtype=np.uint64))


class TestMerge:
    def test_identity(self):
        spec = sk.HashSpec.random(8, seed=3)
        s = sk.Sketch(spec)
        s.insert_ids(np.arange(10))
        assert sk.sketch_merge(s, sk.Sketch(spec)) == s

    def test_mismatched_specs(self):
        s1 = sk.Sketch(sk.HashSpec.random(8, seed=3))
        s2 = sk.Sketch(sk.HashSpec.random(16, seed=3))
        with pytest.raises(ValueError):
            sk.sketch_merge(s1, s2)

    @given(
        st.lists(st.integers(0, 30), max_size=60),
        st.lists(st.integers(0, 30), max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_homomorphism_bit_exact(self, a, b):
        spec = sk.HashSpec(a=999331, b=12, width=8, symbol_seed=77)
        sa, sb, sab = sk.Sketch(spec), sk.Sketch(spec), sk.Sketch(spec)
        sa.insert_ids(np.array(a, dtype=np.int64))
        sb.insert_ids(np.array(b, dtype=np.int64))
        sab.insert_ids(np.array(a + b, dtype=np.int64))
        merged = sk.sketch_merge(sa, sb)
        assert sk.sketch_serialize(merged) == sk.sketch_serialize(sab)


class TestWireFormat:
    def _sample(self):
        spec = sk.HashSpec.random(64, seed=9)
        s = sk.Sketch(spec)
        s.insert_ids(np.arange(500))
        return s

    def test_round_trip(self):
        s = self._sample()
        blob = sk.sketch_serialize(s)
        back = sk.sketch_deserialize(blob)
        assert back == s
        assert sk.sketch_serialize(back) == blob

    def test_corrupt_payload_byte(self):
        blob = bytearray(sk.sketch_serialize(self._sample()))
        blob[45] ^= 0x40
        with pytest.raises(sk.ChecksumError):
            sk.sketch_deserialize(bytes(blob))

    def test_bad_magic(self):
        blob = sk.sketch_serialize(self._sample())
        with pytest.raises(sk.BadMagicError):
            sk.sketch_deserialize(b"NOPE" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(sk.sketch_serialize(self._sample()))
        blob[4] = 9
        with pytest.raises(sk.BadVersionError):
            sk.sketch_deserialize(bytes(blob))

    def test_truncation(self):
        blob = sk.sketch_serialize(self._sample())
        with pytest.raises(sk.TruncatedError):
            sk.sketch_deserialize(blob[:30])
        with pytest.raises(sk.TruncatedError):
            sk.sketch_deserialize(blob + b"\x00")

    def test_file_round_trip(self, tmp_path):
        s = self._sample()
        path = tmp_path / "x.sketch"
        sk.sketch_save(s, path)
        assert sk.sketch_load(path) == s


    def _with_crc(self, payload: bytes) -> bytes:
        return payload + struct.pack("<I", sk.crc32c(payload))

    def _header(self, width=4, a=1, b=0, seed=0, n=0, version=1) -> bytes:
        return struct.pack("<4sBIQQQQ", b"BNPS", version, width, a, b, seed, n)

    def test_crafted_header_fields(self):
        with pytest.raises(sk.BadHeaderError):
            sk.sketch_deserialize(self._with_crc(self._header(width=0)))
        with pytest.raises(sk.BadHeaderError):
            sk.sketch_deserialize(self._with_crc(self._header(a=0) + bytes(32)))
        with pytest.raises(sk.BadHeaderError):
            sk.sketch_deserialize(self._with_crc(self._header(b=sk.MERSENNE_P) + bytes(32)))

    def test_counts_not_summing_to_n(self):
        body = np.array([1, 2, 0, 4], dtype="<u8").tobytes()
        with pytest.raises(sk.CountSumError):
            sk.sketch_deserialize(self._with_crc(self._header(n=8) + body))
        wraps = np.array([2**63, 2**63, 0, 0], dtype="<u8").tobytes()
        with pytest.raises(sk.CountSumError):
            sk.sketch_deserialize(self._with_crc(self._header(n=0) + wraps))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_format_errors_escape(self, data):
        kind = data.draw(st.sampled_from(["truncate", "flip", "crafted"]))
        if kind == "crafted":
            width = data.draw(st.integers(0, 6))
            header = self._header(
                width=width,
                a=data.draw(st.sampled_from([0, 1, sk.MERSENNE_P - 1, sk.MERSENNE_P, 2**64 - 1])),
                b=data.draw(st.sampled_from([0, sk.MERSENNE_P - 1, sk.MERSENNE_P, 2**64 - 1])),
                seed=data.draw(st.integers(0, 2**64 - 1)),
                n=data.draw(st.integers(0, 2**64 - 1)),
                version=data.draw(st.sampled_from([0, 1, 2])),
            )
            counts = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=width, max_size=width))
            blob = self._with_crc(header + np.array(counts, dtype="<u8").tobytes())
        else:
            blob = bytearray(sk.sketch_serialize(self._sample()))
            if kind == "truncate":
                blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
            else:
                for pos in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4)):
                    blob[pos // 8] ^= 1 << (pos % 8)
                if data.draw(st.booleans()):
                    blob = self._with_crc(bytes(blob[:-4]))
        try:
            back = sk.sketch_deserialize(bytes(blob))
        except sk.SketchFormatError:
            return
        assert back.n == int(back.counts.astype(object).sum())


class TestHashSpecValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            sk.HashSpec(a=0, b=0, width=4, symbol_seed=0)
        with pytest.raises(ValueError):
            sk.HashSpec(a=1, b=sk.MERSENNE_P, width=4, symbol_seed=0)
        with pytest.raises(ValueError):
            sk.HashSpec(a=1, b=0, width=0, symbol_seed=0)
        with pytest.raises(ValueError):
            sk.HashSpec(a=1, b=0, width=1 << 25, symbol_seed=0)
