import numpy as np
import pytest

from bnpsketch.sketch import HashSpec, Sketch


def make_sketch(counts, width=None):
    """Sketch with given bucket counts and a placeholder hash identity."""
    counts = list(int(c) for c in counts)
    width = int(width) if width is not None else len(counts)
    spec = HashSpec(a=1, b=0, width=width, symbol_seed=0)
    full = np.zeros(width, dtype=np.uint64)
    full[: len(counts)] = counts
    return Sketch(spec=spec, counts=full, n=int(sum(counts)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def no_huge_arrays(monkeypatch):
    """numpy.zeros, full and empty refuse more than 10^8 elements for the test.

    A refusal the code under test misses then fails the test at once
    instead of touching gigabytes of memory.
    """
    for name in ("zeros", "full", "empty"):
        original = getattr(np, name)

        def guarded(shape, *args, _original=original, _name=name, **kwargs):
            if np.prod(shape, dtype=float) > 1e8:
                raise AssertionError(f"numpy.{_name} asked for an array of shape {shape}")
            return _original(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)
