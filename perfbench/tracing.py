"""In-memory spans around calls into the program's layers.

A :class:`Tracer` wraps callables *at the names the program looks them up
by* (a module attribute such as ``repro.runtime.executor.tw_gemm``, or a
class attribute such as ``TWModelServer.flush``), so the program itself is
unchanged.  Each wrapped call records one span::

    (name, start, end, parent, rid, rows, tag)

``parent`` is the index of the innermost span open on the same thread when
the call started, ``rid`` a request id where the layer has one, ``rows``
the activation rows the call processed and ``tag`` what it processed them
with (for a GEMM, the weight), both filled in by an optional ``describe``
hook on the wrapper.
Spans stay in memory until :meth:`Tracer.dump` writes them out at exit.

A span's *self time* is its duration minus the part of its interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

__all__ = ["Tracer", "merged_length", "self_times", "summarize"]


def merged_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple | None]) -> list[float]:
    """Per span: its duration minus the union its children cover.

    ``None`` entries (calls still running) get 0 and cover nothing.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s is not None and s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        if s is None:
            out.append(0.0)
            continue
        out.append(s[2] - s[1] - merged_length(children.get(i, ()), s[1], s[2]))
    return out


def summarize(spans: list[tuple | None]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``self_s``, total ``span_s``, ``rows``."""
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, selfs):
        if s is None:
            continue
        a = agg.setdefault(s[0], {"calls": 0, "self_s": 0.0, "span_s": 0.0, "rows": 0})
        a["calls"] += 1
        a["self_s"] += self_s
        a["span_s"] += s[2] - s[1]
        a["rows"] += s[5] or 0
    return agg


class Tracer:
    """Records spans for every call through the callables it wraps."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------- #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             rows: int = 0, tag=None, result_is_rid: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        With ``result_is_rid`` the call's return value is the span's
        request id (a layer that hands out request ids).
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)  # reserve the slot so children see idx
        stack.append(idx)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            rid = result if result_is_rid else None
            self.spans[idx] = (name, start, end, parent, rid, rows, tag)

    def span(self, name: str, fn: Callable, *args, rows: int = 0, **kwargs):
        """Trace one call made from the benchmark's own code."""
        return self.call(name, fn, args, kwargs, rows=rows)

    # -- wrapping --------------------------------------------------------- #
    def wrap(self, owner, attr: str, name: str, *,
             describe: Callable[[tuple], tuple[int, object]] | None = None,
             result_is_rid: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`unwrap_all`).

        ``owner`` is a module, a dotted module path or a class.  Methods,
        classmethods and plain functions are all handled: the wrapper is
        installed in the same form it replaces.  ``describe(args)`` returns
        the span's ``(rows, tag)`` from the call's positional arguments
        (without ``self``); ``result_is_rid`` is passed on to :meth:`call`.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        raw = owner.__dict__[attr] if attr in getattr(owner, "__dict__", {}) else getattr(owner, attr)
        tracer = self
        if isinstance(raw, classmethod):
            func = raw.__func__

            def traced_cm(cls, *args, **kwargs):
                return tracer.call(name, func, (cls, *args), kwargs)

            replacement = classmethod(traced_cm)
        else:
            func = raw
            skip = 1 if isinstance(owner, type) else 0  # a method: args[0] is self

            def traced(*args, **kwargs):
                rows, tag = describe(args[skip:]) if describe else (0, None)
                return tracer.call(name, func, args, kwargs, rows=rows, tag=tag,
                                   result_is_rid=result_is_rid)

            replacement = traced
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- output ----------------------------------------------------------- #
    def dump(self, path: str) -> None:
        """Write every finished span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "rid", "rows")
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:  # the tag is an in-memory object, not written
                    fh.write(json.dumps(dict(zip(keys, s[:6]))) + "\n")
