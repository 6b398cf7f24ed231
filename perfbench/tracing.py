"""Spans and counters recorded around the package's public functions.

Wrappers are installed from outside the package: every module of
``bnpsketch`` that binds a wrapped function gets the wrapper in its
namespace (``cli`` imports ``sketch_load`` by name, ``pyp`` imports
``log_convolve``, and so on), and methods are wrapped on their class.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict
from itertools import islice

import numpy as np

TOKEN_CHUNK = 4096


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, round
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.round = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.round))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        name, start, _, parent, rnd = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, rnd)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, value) -> None:
        self.counts[self.round][name] += value

    def wrap(self, name: str, fn, counters=None):
        """Span around ``fn``; ``counters(args, result)`` yields (counter, value) pairs."""

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.count(name + ".calls", 1)
            if counters is not None:
                for key, value in counters(args, result):
                    self.count(key, value)
            return result

        return wrapper

    def wrap_tokenizer(self, fn):
        """Tokenizers are generators: each pull of a chunk of tokens is one span."""

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.begin("tokenizers")
                chunk = list(islice(gen, TOKEN_CHUNK))
                self.end(idx)
                self.count("tokenizers.tokens", len(chunk))
                if not chunk:
                    return
                yield from chunk

        return wrapper

    def times(self):
        """Per round and span name: (self time, total time).

        Self time is a span's duration minus the time its child spans cover;
        calls run one at a time, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_t: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        total_t: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            self_t[rnd][name] += end - start - child[i]
            total_t[rnd][name] += end - start
        return self_t, total_t

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "round": rnd}))
                fh.write("\n")


def _rebind(modules, original, replacement, undo) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def _size_product(prefix: str):
    def counters(args, _):
        yield prefix + ".terms", np.size(args[0]) * np.size(args[1])

    return counters


def _dp_input(args, _):
    counts = np.asarray(args[0].counts, dtype=np.int64)
    yield "dp.orders", int(counts.max(initial=0)) + 1
    yield "dp.distinct_bucket_counts", np.unique(counts).size


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the traced layers for the duration of the block."""
    from bnpsketch import cli, dp, genmodel, numkit, pyp, report, sketch, tokenizers  # noqa: F401

    modules = [m for name, m in sorted(sys.modules.items()) if name == "bnpsketch" or name.startswith("bnpsketch.")]
    undo: list[tuple] = []

    def function(name, fn, counters=None):
        _rebind(modules, fn, tracer.wrap(name, fn, counters), undo)

    def method(cls, attr, name, counters=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, fn, counters))
        undo.append((cls, attr, fn))

    try:
        for fn in (tokenizers.tokenize_lines, tokenizers.tokenize_words, tokenizers.tokenize_kmer):
            _rebind(modules, fn, tracer.wrap_tokenizer(fn), undo)
        method(sketch.Sketch, "insert_tokens", "sketch.insert_tokens")
        method(sketch.Sketch, "insert_ids", "sketch.insert_ids",
               lambda a, r: [("sketch.insert_ids.ids", np.asarray(a[1]).size)])
        function("sketch.prehash_u64", sketch.prehash_u64)
        function("sketch.buckets_u64", sketch.buckets_u64)
        function("sketch.crc32c", sketch.crc32c, lambda a, r: [("sketch.crc32c.bytes", len(a[0]))])
        function("sketch.serialize", sketch.sketch_serialize, lambda a, r: [("sketch.wire.bytes", len(r))])
        function("sketch.deserialize", sketch.sketch_deserialize, lambda a, r: [("sketch.wire.bytes", len(a[0]))])
        function("sketch.merge", sketch.sketch_merge)
        function("sketch.load", sketch.sketch_load)
        function("sketch.save", sketch.sketch_save)

        function("dp.report", dp.dp_report, _dp_input)
        function("dp.fit_theta", dp.dp_fit_theta)
        function("dp.loglik", dp.dp_loglik)
        function("dp.coverage", dp.dp_coverage)
        function("dp.freq_counts", dp.dp_freq_counts)
        function("dp.distinct", dp.dp_distinct)
        method(report.EstimateReport, "to_json", "report.to_json",
               lambda a, r: [("report.json_bytes", len(r.encode()))])

        function("numkit.log_convolve", numkit.log_convolve, _size_product("numkit.log_convolve"))
        function("numkit.log_correlate", numkit.log_correlate, _size_product("numkit.log_correlate"))
        method(numkit.GfcTable, "row", "numkit.gfc_table_row")
        function("pyp.block_weights", pyp.block_weights)
        function("pyp.coverage_mc", pyp.pyp_coverage_mc)
        function("genmodel.sample_distinct_pairs", genmodel.sample_distinct_pairs,
                 lambda a, r: [("genmodel.sample_distinct_pairs.chain_steps", int(a[0]) * int(a[3]))])
        function("genmodel.sample_pyp_sequence", genmodel.sample_pyp_sequence,
                 lambda a, r: [("genmodel.sample_pyp_sequence.draws", int(a[1]))])
        function("pyp.sorted_count_distance", pyp.sorted_count_distance)
        function("pyp.wasserstein_fit", pyp.wasserstein_fit,
                 lambda a, r: [("pyp.wasserstein_fit.grid_points", len(r.surface))])
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
