"""Spans and counts recorded around calls into the library's public functions.

The tracer never edits the library.  For a traced pass it rebinds each
public function named in `TRACED` to a wrapper, in every `discrep` module
that holds a reference to it, so calls made by the library itself (for
example `lemma_suite` calling `product_bound_check`) get their own span.
The original bindings are restored when the pass ends.

A span holds its name, start, end, parent span and request id.  Spans are
kept in memory and written out once, when the benchmark ends.  A layer's
self time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _tree_counts(counts, tree):
    counts["auxiliary.levels"] += len(tree.levels)
    counts["auxiliary.occupied"] += sum(len(rec.occupied) for rec in tree.levels)
    counts["auxiliary.unstabilized_trees"] += tree.stabilization_level is None


def _cell_counts(counts, cells):
    counts["discrepancy.cells"] += (len(cells.x_cuts) - 1) * (len(cells.y_cuts) - 1)


def _l1_counts(counts, norm):
    counts["discrepancy.sign_change_cells"] += norm.sign_change_cells
    counts["discrepancy.l1_inexact"] += not norm.exact


def _suite_counts(counts, report):
    for check in report.checks:
        skipped = "skipped" in check.witness
        counts["auxiliary.checks_skipped"] += skipped
        counts["auxiliary.checks_run"] += not skipped
        counts["auxiliary.checks_failed"] += not check.passed


# (module, attribute, span name, counter); `CellDecomposition.from_pointset`
# is a classmethod and is handled on its class.
TRACED = [
    ("pointsets", "read_csv", "pointsets.read_csv",
     lambda counts, ps: counts.__setitem__("pointsets.points", counts["pointsets.points"] + len(ps))),
    ("discrepancy", "l1_norm", "discrepancy.l1", _l1_counts),
    ("discrepancy", "l2_norm_sq", "discrepancy.l2", None),
    ("discrepancy", "linf_norm", "discrepancy.linf", None),
    ("auxiliary", "build_tree", "auxiliary.build_tree", _tree_counts),
    ("auxiliary", "inner_product", "auxiliary.inner_product", None),
    ("auxiliary", "product_bound_check", "auxiliary.product_check",
     lambda counts, rep: counts.__setitem__(
         "auxiliary.product_pieces", counts["auxiliary.product_pieces"] + rep.piece_count)),
    ("auxiliary", "lemma_suite", "auxiliary.lemma_suite", _suite_counts),
    ("testfn", "certificate", "testfn.certificate", None),
]
CELLS_SPAN = "discrepancy.cells"


class Tracer:
    """In-memory spans: [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.request_id: int | None = None

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() if start is None else start, None,
                           parent, self.request_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, end: float | None = None) -> None:
        self.spans[index][2] = time.perf_counter() if end is None else end
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span under the current one (used for subprocess phases)."""
        self.close(self.open(name, start), end)

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                counter(self.counts, result)
            return result
        return traced

    @contextmanager
    def patched(self):
        """Rebind the traced public functions in every loaded discrep module."""
        wrappers = {}
        for module_name, attr, name, counter in TRACED:
            original = getattr(sys.modules[f"discrep.{module_name}"], attr)
            wrappers[id(original)] = (original, self.wrap(name, original, counter))
        saved = []
        for key, module in list(sys.modules.items()):
            if key != "discrep" and not key.startswith("discrep."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        cells_cls = sys.modules["discrep.discrepancy"].CellDecomposition
        cells_original = cells_cls.__dict__["from_pointset"]
        cells_cls.from_pointset = classmethod(
            self.wrap(CELLS_SPAN, cells_original.__func__, _cell_counts))
        try:
            yield
        finally:
            cells_cls.from_pointset = cells_original
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time summed per span name over spans[first:last]."""
        last = len(self.spans) if last is None else last
        child_time: defaultdict[int, float] = defaultdict(float)
        for index in range(first, last):
            _, start, end, parent, _ = self.spans[index]
            if parent is not None:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for index in range(first, last):
            name, start, end, _, _ = self.spans[index]
            out[name] += (end - start) - child_time[index]
        return dict(out)
