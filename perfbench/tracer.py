"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: :meth:`Tracer.wrap`
temporarily replaces a public function or method of a library module with a
timing wrapper, so calls made *inside* the library (``Inf2vecModel.fit``
calling ``ContextGenerator.generate``, RIS calling the sketch schedule) nest
under their caller's span.  Nothing in ``src/`` is instrumented or edited;
:meth:`Tracer.installed` restores every original attribute on exit.

Each span carries a name, the layer (library module) it is attributed to,
start and end times from ``time.perf_counter`` and the index of its parent
span.  Spans stay in memory until :meth:`Tracer.write` is called at the end
of the run.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: Layer name of the benchmark's own structural spans (stages, the root).
#: Time covered only by these spans is *unattributed* to any library layer.
BENCH_LAYER = "bench"


def peak_rss_mb() -> float:
    """Process high-water resident set size (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Single-threaded span recorder with layer attribution.

    ``spans`` rows are ``[name, layer, start, end, parent, rss_before,
    rss_after]``; ``parent`` is the row index of the enclosing span or -1.
    High-water RSS is sampled only for spans opened with ``rss=True``, since
    ``getrusage`` costs a system call per sample.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str = BENCH_LAYER, rss: bool = False) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        row = [name, layer, 0.0, 0.0, parent, peak_rss_mb() if rss else None, None]
        self.spans.append(row)
        self._stack.append(index)
        row[2] = time.perf_counter()
        try:
            yield index
        finally:
            row[3] = time.perf_counter()
            if rss:
                row[6] = peak_rss_mb()
            self._stack.pop()

    def _wrapper(self, func: Callable, name: str, layer: str, rss: bool) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name, layer, rss=rss):
                return func(*args, **kwargs)

        return traced

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        rss: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``owner`` is a module (for functions looked up as module globals by
        their callers) or a class (for methods and classmethods).  Must be
        called inside :meth:`installed`.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrapper(raw.__func__, name, layer, rss))
        else:
            patched = self._wrapper(raw, name, layer, rss)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Scope in which :meth:`wrap` patches are live; restores on exit."""
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, raw = self._patches.pop()
                setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------

    def duration(self, index: int) -> float:
        row = self.spans[index]
        return row[3] - row[2]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for index, row in enumerate(self.spans):
            if row[4] >= 0:
                kids[row[4]].append(index)
        return kids

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        kids = self.children()
        out = []
        for index, row in enumerate(self.spans):
            covered = _union_length(
                [(self.spans[c][2], self.spans[c][3]) for c in kids[index]]
            )
            out.append(row[3] - row[2] - covered)
        return out

    def layer_self_times(self, exclude: int | None = None) -> dict[str, float]:
        """Self time summed per layer (the benchmark's own layer included).

        ``exclude`` drops that span and every span inside its interval.
        """
        lo, hi = (self.spans[exclude][2], self.spans[exclude][3]) if exclude is not None else (0.0, -1.0)
        totals: dict[str, float] = {}
        for row, own in zip(self.spans, self.self_times()):
            if not (lo <= row[2] and row[3] <= hi):
                totals[row[1]] = totals.get(row[1], 0.0) + own
        return totals

    def unattributed(self, root: int) -> float:
        """Seconds of ``root`` covered by no library-layer span."""
        row = self.spans[root]
        intervals = [
            (s[2], s[3])
            for s in self.spans
            if s[1] != BENCH_LAYER and s[2] >= row[2] and s[3] <= row[3]
        ]
        return (row[3] - row[2]) - _union_length(intervals)

    def named(self, name: str, parent_name: str | None = None) -> list[int]:
        """Indices of spans called ``name`` (optionally under ``parent_name``)."""
        return [
            index
            for index, row in enumerate(self.spans)
            if row[0] == name
            and (
                parent_name is None
                or (row[4] >= 0 and self.spans[row[4]][0] == parent_name)
            )
        ]

    def total(self, name: str, parent_name: str | None = None) -> float:
        return sum(self.duration(i) for i in self.named(name, parent_name))

    def rss_rise(self, name: str) -> float:
        """Summed rise in high-water RSS (MB) across the spans ``name``."""
        return sum(
            self.spans[i][6] - self.spans[i][5]
            for i in self.named(name)
            if self.spans[i][5] is not None
        )

    def write(self, path: Path) -> None:
        """Persist every span (with its self time) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": row[0],
                "layer": row[1],
                "start": row[2],
                "end": row[3],
                "parent": row[4],
                "self_s": own,
            }
            for row, own in zip(self.spans, self.self_times())
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly nested or overlapping intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
