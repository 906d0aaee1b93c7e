"""In-memory span recorder that times the program's layers from outside.

The recorder replaces public functions and methods of the program with
thin wrappers for the duration of a traced phase and restores the
originals afterwards.  Only parent-side boundaries are wrapped: nothing
installed here is ever pickled to a process-pool child (a wrapped
``spec.forward_loss`` cannot be pickled, so the pool workload leaves the
tensor layer unwrapped).

Spans are kept in memory as ``(name, start, end, parent)`` tuples and
written out once, at the end of the run.  A layer's self time is its
span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()


class SpanRecorder:
    """Record nested spans and call counts around wrapped callables."""

    def __init__(self) -> None:
        #: finished spans: (name, start_s, end_s, parent index or -1)
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        #: plain counters (calls of count-only hooks, tallied bytes)
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def timed(
        self,
        name: str,
        fn: Callable,
        tally: Optional[Tuple[str, Callable[..., int]]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped to record one span per call.

        ``tally``, when given, is ``(counter, measure)``: ``measure`` is
        called with the wrapped call's arguments and its result is added
        to ``counts[counter]``.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tally is not None:
                counts[tally[0]] = counts.get(tally[0], 0) + tally[1](*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped to count its calls without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        if isinstance(owner, type):  # an inherited method is deleted again on restore
            original = vars(owner).get(attr, _MISSING)
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str, tally=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        self.patch(owner, attr, self.timed(name, getattr(owner, attr), tally))

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` under ``name``."""
        self.patch(owner, attr, self.counted(name, getattr(owner, attr)))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        A span nested inside another span of the same name (recursion)
        adds to ``calls`` and ``self_s`` but not again to ``total_s``.
        """
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("summary() called while spans are still open")
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                row["total_s"] += end - start
        return out

    def dump(self, path: str) -> None:
        """Write all spans (gzip JSON lines, times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"counts": self.counts}) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(
                    f'[{index},"{name}",{start - origin:.9f},{end - origin:.9f},{parent}]\n'
                )
