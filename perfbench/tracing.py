"""In-memory spans around calls into omegadet's public functions.

A traced pass substitutes timing wrappers for module attributes such as
``omegadet.compact.compact_step``.  Library code that looks the function up
in its module at call time, and benchmark code that calls it through the
module, then records one span per call: a name, a start, an end and the span
that was open when the call began.  Nothing is substituted in an untraced
pass.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        # span id -> [name, start_ns, end_ns, parent id or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        return sid

    def _end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    def wrap(self, module, attr: str, observe=None) -> None:
        """Replace module.attr by a wrapper that records a span per call.

        `observe`, if given, is called with each result outside the span.
        """
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            sid = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(sid)
            if observe is not None:
                observe(result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name: [calls, total seconds, self seconds] over spans[first:last].

        Self time is a span's duration minus the durations of its children.
        """
        spans = self.spans[first:last]
        child_ns: dict[int, int] = defaultdict(int)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for offset, (name, start, end, _) in enumerate(spans):
            row = out[name]
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += (end - start - child_ns[first + offset]) / 1e9
        return dict(out)

    def write(self, path) -> None:
        """Write every span as a tab-separated line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")
