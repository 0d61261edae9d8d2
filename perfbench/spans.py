"""Span recording from outside the program: class-level wrappers at layer
boundaries, and the self-time arithmetic over the recorded spans.

A span is (name, start, end, parent).  Names are ``"<layer>.<call>"``; a
span's *self time* is its duration minus the part of its interval that its
child spans cover (the union of the children, clipped to the parent, so
overlapping or out-living children are never counted twice).

Nothing here touches ``src/``: :class:`Wrapping` swaps a class attribute
(or a module-level function) for a timing wrapper and puts the original
object back on exit, so an untraced run executes the program's own code
unchanged.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: called after a wrapped call returns: observer(args, kwargs, result)
Observer = Callable[[tuple, dict, Any], None]

_MISSING = object()


class SpanRecorder:
    """Spans kept in memory as parallel lists (one entry per wrapped call)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: indices of the spans open right now, innermost last
        self.stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (tests build synthetic trees)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def wrap(
        self, name: str, fn: Callable, observer: Optional[Observer] = None
    ) -> Callable:
        """``fn`` with a span around every call; the innermost open span is
        the new span's parent."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Self time of every span: duration minus covered child time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[index], ends[index]))
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        inner = children.get(index)
        busy = covered(inner, start, end) if inner else 0.0
        result.append(end - start - busy)
    return result


class Wrapping:
    """Context manager that installs span wrappers and always removes them.

    ``targets`` are ``(owner, attribute, span_name, observer)``; ``owner``
    is a class or a module.  On exit every attribute is restored to the
    exact object it held before (or deleted again if the owner only
    inherited it), even when the traced code raised.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        targets: Sequence[Tuple[Any, str, str, Optional[Observer]]],
    ) -> None:
        self.recorder = recorder
        self.targets = targets
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Wrapping":
        try:
            for owner, attribute, name, observer in self.targets:
                own = vars(owner).get(attribute, _MISSING)
                self._saved.append((owner, attribute, own))
                setattr(
                    owner,
                    attribute,
                    self.recorder.wrap(name, getattr(owner, attribute), observer),
                )
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attribute, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
