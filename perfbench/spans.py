"""In-memory span recorder for traced passes.

A span is ``(span_id, name, op, parent_id, start, end)``: ``op`` is the
operation it belongs to (a simulation run, an archived object, an HTTP
request), ``parent_id`` the span that was open in the same context (thread
or asyncio task) when it started. Spans are kept in a list and written out as JSON lines only when
the pass ends, so recording costs an append per boundary crossing.

Timing hooks are installed from outside the program: :meth:`Recorder.wrap`
swaps a function or method for a timing wrapper and :meth:`Recorder.restore`
puts every original back, so a clean pass after a traced one runs the
unmodified code.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, object, int, float, float]


class Recorder:
    """Collects spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        # The innermost open span as ``(span_id, op)``: a context variable,
        # so every thread and every asyncio task nests its own spans.
        self._open: contextvars.ContextVar = contextvars.ContextVar(
            f"open_span_{id(self)}", default=(0, None)
        )
        self._patched: List[Tuple[object, str, object]] = []

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #

    def current_op(self) -> object:
        """The operation of the innermost open span in this context."""
        return self._open.get()[1]

    def _enter(self, op: object) -> Tuple[int, object, int, contextvars.Token]:
        parent, parent_op = self._open.get()
        span_id = next(self._ids)
        if op is None:
            op = parent_op
        return span_id, op, parent, self._open.set((span_id, op))

    def call(
        self, name: str, fn: Callable[..., Any], *args: Any, op: object = None, **kwargs: Any
    ) -> Any:
        """Run ``fn`` inside a span named ``name``; returns its result."""
        span_id, op, parent, token = self._enter(op)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.reset(token)
            self.spans.append((span_id, name, op, parent, start, end))

    async def call_async(
        self, name: str, fn: Callable[..., Any], *args: Any, op: object = None, **kwargs: Any
    ) -> Any:
        """Await ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span_id, op, parent, token = self._enter(op)
        start = perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.reset(token)
            self.spans.append((span_id, name, op, parent, start, end))

    def reserve(self) -> int:
        """A fresh span id, for a parent whose span is added when it ends."""
        return next(self._ids)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        op: object = None,
        parent: int = 0,
        span_id: int = 0,
    ) -> int:
        """Record an already-timed span (e.g. from an engine observer)."""
        span_id = span_id or next(self._ids)
        self.spans.append((span_id, name, op, parent, start, end))
        return span_id

    # -------------------------------------------------------------- #
    # Hooks
    # -------------------------------------------------------------- #

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
        op_of: Optional[Callable[[tuple, dict], object]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        Coroutine functions get an awaiting wrapper, so their span covers
        the awaited work and not just the creation of the coroutine.

        ``op_of(args, kwargs)`` names the operation a call starts (nested
        spans inherit it); ``after(result, args, kwargs)`` runs outside the
        span, so work it does to count outcomes is not charged to the layer.
        """
        original = getattr(owner, attr)
        recorder = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def timed(*args: Any, **kwargs: Any) -> Any:
                op = op_of(args, kwargs) if op_of is not None else None
                result = await recorder.call_async(name, original, *args, op=op, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result

        else:

            @functools.wraps(original)
            def timed(*args: Any, **kwargs: Any) -> Any:
                op = op_of(args, kwargs) if op_of is not None else None
                result = recorder.call(name, original, *args, op=op, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result

        self.patch(owner, attr, timed)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Swap ``owner.attr`` for ``replacement`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- #
    # Analysis and output
    # -------------------------------------------------------------- #

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        A span's self time is its duration minus the durations of its
        direct children, so nested layers are not counted twice.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, _op, parent, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, name, _op, _parent, start, end in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(sid, 0.0)
        return dict(table)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, op, parent, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "op": op,
                            "parent": parent,
                            "start_s": round(start - origin, 9),
                            "end_s": round(end - origin, 9),
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")
