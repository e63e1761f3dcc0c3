"""In-memory spans around layer calls, and the self-time arithmetic.

A :class:`Tracer` wraps public functions of the program so that every
call records a span: its name, start, end, the span that was open when
it began (its parent) and the run id and generation it belongs to.  The
spans nest through one per-process stack, stay in memory and are written
once, when the process ends (:meth:`Tracer.dump`).

A span's self time is its duration minus the part of that interval its
child spans cover.  The child intervals are merged before they are
subtracted, so overlapping children are counted once.  With a synthetic
root span covering the whole process, the self times of all spans add up
to the root's duration, and the root's own self time is the time no
layer accounts for (``other.self_s``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Span record layout, kept as a list while the process runs because a
# list is the cheapest mutable record to build on a hot path.
NAME, START, END, PARENT, GENERATION, ERROR = range(6)

Interval = Tuple[float, float]


class Tracer:
    """Per-process span recorder.

    ``generation`` is read when a span opens, so the caller keeps it at
    the generation being produced; with ``run_id`` it forms the span's
    shared identifier.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.generation: Optional[int] = None
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.generation, False]
        )
        self._stack.append(index)
        return index

    def close(self, index: int, error: bool = False) -> None:
        record = self.spans[index]
        record[END] = time.perf_counter()
        record[ERROR] = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack corrupted: closed {index}, top {popped}")

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            self.close(index)
            return result

        return spanned

    def records(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "run": self.run_id,
                "generation": s[GENERATION],
                "error": s[ERROR],
            }
            for s in self.spans
        ]

    def dump(self, path: str) -> None:
        """Write every span once, as one JSON document."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at dump")
        with open(path, "w") as handle:
            json.dump({"run": self.run_id, "spans": self.records()}, handle)


# ---------------------------------------------------------------------------
# patching


def rebind(original: Any, replacement: Any, modules: Iterable[Any]) -> int:
    """Point every module-level name bound to ``original`` at ``replacement``.

    Functions imported by name (``from x import f``) are looked up in the
    importing module, so patching only the defining module would miss
    those callers.  Returns the number of bindings changed.
    """
    changed = 0
    for module in modules:
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def loaded_modules(prefix: str) -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == prefix or name.startswith(prefix + "."))
    ]


# ---------------------------------------------------------------------------
# self-time arithmetic


def covered(intervals: Sequence[Interval], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in clipped:
        if cur_lo is None:
            cur_lo, cur_hi = a, b
        elif a <= cur_hi:
            cur_hi = max(cur_hi, b)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: List[List[Interval]] = [[] for _ in spans]
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            children[parent].append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"])
        - covered(children[i], span["start"], span["end"])
        for i, span in enumerate(spans)
    ]


def with_root(
    spans: Sequence[Dict[str, Any]], start: float, end: float
) -> List[Dict[str, Any]]:
    """``spans`` under a synthetic root span named ``process``, covering
    ``[start, end]``, at index 0."""
    root = {"name": "process", "start": start, "end": end, "parent": -1,
            "run": spans[0]["run"] if spans else None,
            "generation": None, "error": False}
    out = [root]
    for span in spans:
        moved = dict(span)
        moved["parent"] = span["parent"] + 1
        out.append(moved)
    return out


def outermost_calls(spans: Sequence[Dict[str, Any]], name: str) -> int:
    """Spans named ``name`` with no ancestor of the same name.

    A re-entrant call (a wrapped function reached again from inside
    itself) is part of the outer call, not a second one.
    """
    count = 0
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        nested = False
        while parent >= 0:
            if spans[parent]["name"] == name:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            count += 1
    return count


def layer_self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
