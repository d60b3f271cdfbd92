"""In-memory spans, self time, tail percentiles and reversible patches.

Nothing here knows about blockplan: ``layers.py`` decides which attributes
to wrap. Spans are plain tuples kept in a list and written out once, when the
run ends, so recording one costs two clock reads and an append.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable

# (span_id, parent_id, op_id, name, start, end); parent_id is None for a root.
Span = tuple[int, "int | None", int, str, float, float]

ORIGINAL_ATTR = "__perfbench_original__"


class Tracer:
    """Records spans and counts while an op is open; otherwise does nothing,
    so output checks that call the same functions leave no spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op_id: int | None = None
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0

    def begin_op(self, op_id: int) -> None:
        if self._stack:
            raise RuntimeError("begin_op inside an open span")
        self.op_id = op_id

    def end_op(self) -> None:
        if self._stack:
            raise RuntimeError(f"op ended with open spans: {[s[1] for s in self._stack]}")
        self.op_id = None

    def open(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, parent, self.op_id, name, start, end))


def timed(tracer: Tracer, name: str, fn: Callable, after: Callable | None = None) -> Callable:
    """Wrap ``fn`` so each call inside an op records a span named ``name``.

    ``after(result, args, kwargs)`` runs once the span has closed, for counts
    read from a call's arguments or result.
    """

    def wrapper(*args, **kwargs):
        if tracer.op_id is None:
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def counted(tracer: Tracer, name: str, fn: Callable, truthy: str | None = None) -> Callable:
    """Wrap ``fn`` to count calls under ``name`` without a span; with
    ``truthy``, also count the calls that returned a true value."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.op_id is not None:
            tracer.counts[name] += 1
            if truthy is not None and result:
                tracer.counts[truthy] += 1
        return result

    return wrapper


class Patches:
    """Replaces attributes of modules or classes and puts the originals back.

    Only an attribute the owner already defines can be replaced, so a target
    that the package has renamed or moved fails loudly instead of silently
    timing nothing.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        wrapper = make(original)
        setattr(wrapper, ORIGINAL_ATTR, original)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back, last patch first. ``find_wrappers``
        checks afterwards that none is left."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def find_wrappers(owners: Iterable[object]) -> list[str]:
    """Names of attributes of ``owners`` (and of classes they define) that
    still hold a wrapper made by ``Patches``."""
    found = []
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, ORIGINAL_ATTR):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            elif isinstance(value, type) and value.__module__ == getattr(owner, "__name__", None):
                found.extend(find_wrappers([value]))
    return found


# --- Analysis ----------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _, _, _, start, end in spans
    }


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile whose nearest-rank value has at least
    ``beyond`` of ``n`` samples ranked above it; None when n <= beyond."""
    if n <= beyond:
        return None
    return 100 * (n - beyond) // n


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]
