"""Spans recorded by the benchmark around its calls into densem's layers.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the span open when it started and ``op`` the id of the operation it
belongs to (``None`` during set-up).  Spans stay in memory and are written
out once, after the run.  ``numpy.linalg.eigh``/``eigvalsh`` are wrapped
only while :meth:`Tracer.counting` is open, so each eigensolve becomes a
child span of the layer call that asked for it.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

EIGENSOLVES = ("psd.eigh", "psd.eigvalsh")


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass

    def counting(self):
        return nullcontext()


class Tracer(NullTracer):
    enabled = True

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, self.clock(), None, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._open.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def counting(self):
        """Count eigensolves as child spans while the context is open."""
        return counting_eigensolves(self)

    def write(self, path) -> None:
        """One JSON list ``[name, start, end, parent, op]`` per line, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


@contextmanager
def counting_eigensolves(tracer: Tracer):
    linalg = np.linalg
    originals = linalg.eigh, linalg.eigvalsh
    linalg.eigh = lambda *a, **k: tracer.call("psd.eigh", originals[0], *a, **k)
    linalg.eigvalsh = lambda *a, **k: tracer.call("psd.eigvalsh", originals[1], *a, **k)
    try:
        yield
    finally:
        linalg.eigh, linalg.eigvalsh = originals


class SpanStats:
    """Per-name aggregates over the spans that ``keep`` selects.

    Children are found among all spans, so a kept span's self time is its
    duration minus that of its direct children, whatever their phase.
    """

    def __init__(self, spans, keep):
        child_time = [0.0] * len(spans)
        child_eigensolves = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
                child_eigensolves[parent] += name in EIGENSOLVES
        self.rows: dict[str, list[tuple[float, float, int]]] = {}
        for i, span in enumerate(spans):
            if keep(span):
                duration = span[2] - span[1]
                self.rows.setdefault(span[0], []).append(
                    (duration, duration - child_time[i], child_eigensolves[i])
                )

    def _column(self, name, index):
        return [row[index] for row in self.rows.get(name, ())]

    def calls(self, name) -> int:
        return len(self.rows.get(name, ()))

    def busy(self, name) -> float:
        return sum(self._column(name, 0))

    def self_time(self, name) -> float:
        return sum(self._column(name, 1))

    def p50_us(self, name) -> float:
        values = self._column(name, 0)
        return statistics.median(values) * 1e6 if values else 0.0

    def eigensolves(self, name) -> int:
        return sum(self._column(name, 2))

    def per_call(self, total, name) -> float:
        calls = self.calls(name)
        return total / calls if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span-derived per-layer metrics of a traced run."""
    setup = SpanStats(tracer.spans, lambda span: span[4] is None)
    ops = SpanStats(tracer.spans, lambda span: span[4] is not None)
    counts = tracer.counts
    out = {
        "lexicon.load.busy_s": setup.busy("lexicon.load"),
        "lexicon.load.eigensolves": setup.eigensolves("lexicon.load"),
        "pregroup.reduce.calls": ops.calls("pregroup.reduce"),
        "pregroup.reduce.busy_s": ops.busy("pregroup.reduce"),
        "pregroup.reduce.p50_us": ops.p50_us("pregroup.reduce"),
    }
    # word meanings are built per op on sentences and in set-up on the graph
    every = SpanStats(tracer.spans, lambda span: True)
    out |= {
        "semantics.word_meaning.calls": every.calls("semantics.word_meaning"),
        "semantics.word_meaning.busy_s": every.busy("semantics.word_meaning"),
        "semantics.word_meaning.eigensolves_per_call": every.per_call(
            every.eigensolves("semantics.word_meaning"), "semantics.word_meaning"
        ),
    }
    evaluate_busy = ops.busy("semantics.evaluate")
    flops = counts["semantics.evaluate.naive_flops"]
    out |= {
        "semantics.evaluate.calls": ops.calls("semantics.evaluate"),
        "semantics.evaluate.busy_s": evaluate_busy,
        "semantics.evaluate.p50_us": ops.p50_us("semantics.evaluate"),
        "semantics.evaluate.naive_flops": ops.per_call(flops, "semantics.evaluate"),
        "semantics.evaluate.flops_per_s": flops / evaluate_busy if evaluate_busy else 0.0,
        "semantics.relative_clause.calls": ops.calls("semantics.relative_clause"),
        "semantics.relative_clause.busy_s": ops.busy("semantics.relative_clause"),
        "entailment.k_max.calls": ops.calls("entailment.k_max"),
        "entailment.k_max.busy_s": ops.busy("entailment.k_max"),
        "entailment.k_max.self_s": ops.self_time("entailment.k_max"),
        "entailment.k_max.p50_us": ops.p50_us("entailment.k_max"),
        "entailment.k_max.eigensolves_per_call": ops.per_call(
            ops.eigensolves("entailment.k_max"), "entailment.k_max"
        ),
        "entailment.k_max.contained_ratio": ops.per_call(
            counts["entailment.k_max.contained"], "entailment.k_max"
        ),
        "entailment.general_error.calls": ops.calls("entailment.general_error"),
        "entailment.general_error.busy_s": ops.busy("entailment.general_error"),
        "entailment.normalize.calls": ops.calls("entailment.normalize"),
        "entailment.normalize.busy_s": ops.busy("entailment.normalize"),
    }
    points = counts["entailment.disc_grid.points"]
    out |= {
        "entailment.disc_grid.points": ops.per_call(points, "entailment.disc_grid"),
        "entailment.disc_grid.busy_s": ops.busy("entailment.disc_grid"),
        "entailment.disc_grid.self_s": ops.self_time("entailment.disc_grid"),
        "entailment.disc_grid.eigensolves_per_point": (
            ops.eigensolves("entailment.disc_grid") / points if points else 0.0
        ),
    }
    eigensolve_busy = ops.busy("psd.eigh") + ops.busy("psd.eigvalsh")
    op_busy = ops.busy("op")
    out |= {
        "psd.eigh.calls": ops.calls("psd.eigh"),
        "psd.eigvalsh.calls": ops.calls("psd.eigvalsh"),
        "psd.eigensolve.busy_s": eigensolve_busy,
        "psd.eigensolve.share": eigensolve_busy / op_busy if op_busy else 0.0,
    }
    return out
