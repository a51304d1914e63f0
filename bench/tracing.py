"""Spans around loopinv's layer entry points, and their aggregation.

The package itself is not changed: :func:`instrument` rebinds, in the
modules that call them, the functions each layer calls in the next one
(``cli`` -> ``invariants`` -> ``linalg`` / ``tensor`` / ``words``, and
``paths`` -> ``tensor``), plus the invariant spaces and path signatures
the issue's metrics name.  Spans are kept in memory and written when the
command returns.

A written span is ``[name, start, end, parent, thread]`` with ``parent``
an index into the list (or null) and ``thread`` a small integer.  A span
opened on a thread with no open span gets the first span of the run as
its parent, so worker threads hang below ``cli``; self time subtracts
children on the same thread only.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types

# InvariantSpaces method -> short span name
INVARIANT_SPACES = {
    "report": "report",
    "conjugation_invariants": "conj",
    "letter_shuffle_ideal": "S",
    "zero_increment_space": "V",
    "bracket_zero_increment": "bracketV",
    "loop_invariants": "loop",
    "closure_invariants": "closure",
    "closed_rotation_span": "rclrot",
    "letter_reduced_conj_dim": "lrconj",
    "min_generator_count": "mingen",
}
# linalg functions invariants calls (member_tensor is reached only from
# `loopinv evidence`, which no workload runs)
LINALG = ["span", "span_tensors", "kernel", "orthogonal_complement",
          "subspace_sum", "intersect", "contains"]
INVARIANTS_TO_TENSOR = ["shuffle", "concat", "rotation_sum", "lyndon_bracketing",
                        "right_closure"]
INVARIANTS_TO_WORDS = ["necklaces", "lyndon_words"]
PATHS_TO_TENSOR = ["concat_truncated", "pair", "left_closure", "right_closure"]
PATHS_OWN = ["path_signature", "segment_signature"]
FUZZ_SUITES = ["conjugation", "loop", "closure"]


class Tracer:
    """In-memory span recorder; :meth:`wrap` returns a recording wrapper."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent record, thread id]
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None

    def wrap(self, name: str, fn):
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            record = [name, clock(), None, stack[-1] if stack else self._root,
                      threading.get_ident()]
            spans.append(record)  # list.append is atomic under the GIL
            if self._root is None:
                self._root = record
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def export(self) -> list[list]:
        """Spans with parents and threads replaced by indices."""
        index = {id(r): i for i, r in enumerate(self.spans)}
        threads: dict[int, int] = {}
        return [
            [name, start, end, None if parent is None else index[id(parent)],
             threads.setdefault(thread, len(threads))]
            for name, start, end, parent, thread in self.spans
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread"],
                       "spans": self.export()}, fh)


def _counted_elimination(tracer: Tracer, eliminate):
    """Exact work counts of each elimination; no span, it is linalg-internal."""

    def counted(rows, budget=None):
        tracer.add("linalg.rows_in", sum(1 for r in rows if r))
        tracer.add("linalg.nnz_in", sum(map(len, rows)))
        echelon = eliminate(rows, budget)  # rows are mutated: count them first
        tracer.add("linalg.rank_out", len(echelon))
        tracer.maximum("linalg.max_coeff_bits", max(
            (abs(v).bit_length() for _, row in echelon for v in row.values()), default=0))
        return echelon

    return counted


def instrument(tracer: Tracer) -> None:
    """Rebind the traced entry points of an imported ``loopinv``."""
    from loopinv import cli, invariants, linalg, paths, tensor

    def rebind(owner, attr: str, name: str) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    for suite in FUZZ_SUITES:
        rebind(cli, "fuzz_" + suite, "paths.fuzz." + suite)
    for method, short in INVARIANT_SPACES.items():
        rebind(invariants.InvariantSpaces, method, "invariants." + short)
    for attr in LINALG:
        rebind(invariants, attr, "linalg." + attr)
    for attr in INVARIANTS_TO_TENSOR:
        rebind(invariants, attr, "tensor." + attr)
    for attr in INVARIANTS_TO_WORDS:
        rebind(invariants, attr, "words." + attr)
    # invariants builds the closure table and the letter-shuffle rows
    # through its handle on the tensor module; give it a traced copy so
    # tensor's own internal calls stay unwrapped
    handle = types.SimpleNamespace(**vars(tensor))
    rebind(handle, "_rcl_word", "tensor.right_closure")
    rebind(handle, "_shuffle_words_into", "tensor.shuffle")
    invariants._tensor = handle
    for attr in PATHS_TO_TENSOR:
        rebind(paths, attr, "tensor." + attr)
    for attr in PATHS_OWN:
        rebind(paths, attr, "paths." + attr)
    linalg._eliminate = _counted_elimination(tracer, linalg._eliminate)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus that of its children on the
    same thread.  Those children nest strictly and never overlap, so the
    sum of their durations is the part of the interval they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, thread in spans:
        if parent is not None and spans[parent][4] == thread:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, _), inner in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def call_counts(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for span in spans:
        out[span[0]] = out.get(span[0], 0) + 1
    return out
