"""In-memory span recording and wall-clock self-time attribution.

A :class:`SpanRecorder` keeps a stack of open frames for the thread that
created it.  Coarse calls (a build, a cell, a store put) are kept as
individual spans: name, start, end, parent span and cell id.  Hot calls
(one per simulated message or query) are folded into per-parent
aggregates of count, inclusive time and self time, so a million sends
cost a dict update each instead of a million stored records.

:func:`layer_self_times` partitions a root span's wall-clock interval
among layers.  A span keeps the part of its interval that none of its
child spans covers.  An instant covered by ``k`` children that run in
parallel (grid workers in other processes) is split ``k`` ways, so the
layer totals always add up to the root's duration.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping
from dataclasses import asdict, dataclass

__all__ = ["Span", "SpanRecorder", "layer_self_times"]


@dataclass(frozen=True)
class Span:
    """One finished coarse span."""

    sid: str
    parent: str | None
    name: str
    start: float
    end: float
    cell: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _layer_of(name: str) -> str:
    """The layer a span name belongs to: the part before the first dot."""
    return name.split(".", 1)[0]


class _Frame:
    __slots__ = ("sid", "name", "start", "child", "coarse_parent")

    def __init__(self, sid, name, start, coarse_parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.child = 0.0
        self.coarse_parent = coarse_parent


class SpanRecorder:
    """Records spans for the thread that created it; other threads pass through.

    ``spans`` holds finished coarse spans.  ``aggregates`` maps
    ``(coarse parent sid, name)`` to ``[count, inclusive_s, self_s]``
    for hot calls.  ``counts`` holds plain named tallies.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.owner_pid = os.getpid()
        self._thread = threading.get_ident()
        self._next = 0
        self.cell: str | None = None
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (a forked worker starts clean)."""
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[str | None, str], list[float]] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._thread = threading.get_ident()

    def in_worker(self) -> bool:
        """Whether this process is a fork of the one that made the recorder."""
        return os.getpid() != self.owner_pid

    def recording(self) -> bool:
        return threading.get_ident() == self._thread

    def _new_sid(self) -> str:
        self._next += 1
        return f"{os.getpid()}:{self._next}"

    def current_sid(self) -> str | None:
        """The innermost open coarse span, if any."""
        for frame in reversed(self._stack):
            if frame.sid is not None:
                return frame.sid
        return None

    def enter(self, name: str, coarse: bool) -> _Frame:
        parent = self.current_sid()
        frame = _Frame(self._new_sid() if coarse else None, name, self.clock(), parent)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost open one); returns its duration."""
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        if frame.sid is not None:
            self.spans.append(
                Span(frame.sid, frame.coarse_parent, frame.name, frame.start, end, self.cell)
            )
        else:
            key = (frame.coarse_parent, frame.name)
            entry = self.aggregates.get(key)
            if entry is None:
                entry = self.aggregates[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame.child
        return duration

    def wrap(self, fn: Callable, name: str, coarse: bool) -> Callable:
        """``fn`` with every call on the recording thread timed as ``name``."""

        def wrapper(*args, **kwargs):
            if not self.recording():
                return fn(*args, **kwargs)
            frame = self.enter(name, coarse)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def export(self) -> dict:
        """Everything recorded, as plain data (for a worker to ship back)."""
        return {
            "spans": [asdict(span) for span in self.spans],
            "aggregates": [[p, n, *v] for (p, n), v in self.aggregates.items()],
            "counts": dict(self.counts),
        }

    def adopt(self, payload: Mapping, parent: str | None) -> None:
        """Merge a worker's :meth:`export`; its root spans hang under ``parent``."""
        for raw in payload["spans"]:
            span = Span(**raw)
            if span.parent is None:
                span = Span(span.sid, parent, span.name, span.start, span.end, span.cell)
            self.spans.append(span)
        for p, name, count, total, self_s in payload["aggregates"]:
            entry = self.aggregates.setdefault((p, name), [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += self_s
        for name, value in payload["counts"].items():
            self.counts[name] += value


def _covered_pieces(
    pieces: Iterable[tuple[float, float, float]], kids: list[Span]
) -> tuple[float, float, dict[str, list[tuple[float, float, float]]]]:
    """Split weighted ``pieces`` of a span between itself and its children.

    Returns the raw and weighted time no child covers, and each child's
    own weighted pieces (an instant shared by ``k`` children gives each
    ``1/k`` of the weight).
    """
    raw = weighted = 0.0
    kid_pieces: dict[str, list[tuple[float, float, float]]] = {k.sid: [] for k in kids}
    for a, b, w in pieces:
        cuts = {a, b}
        for kid in kids:
            if kid.start < b and kid.end > a:
                cuts.add(min(max(kid.start, a), b))
                cuts.add(min(max(kid.end, a), b))
        points = sorted(cuts)
        for x, y in zip(points, points[1:]):
            active = [k for k in kids if k.start <= x and k.end >= y]
            if active:
                share = w / len(active)
                for kid in active:
                    kid_pieces[kid.sid].append((x, y, share))
            else:
                raw += y - x
                weighted += w * (y - x)
    return raw, weighted, kid_pieces


def layer_self_times(
    spans: Iterable[Span],
    aggregates: Mapping[tuple[str | None, str], list[float]],
    root: str,
) -> dict[str, float]:
    """Partition the root span's duration among layers (see module docstring).

    The root span's own uncovered time goes to ``"unattributed"``.  Within a
    span, uncovered time is shared between the span's layer and the hot
    calls aggregated under it, in proportion to their raw self times.
    """
    spans = list(spans)
    by_sid = {span.sid: span for span in spans}
    children: dict[str | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    hot: dict[str | None, list[tuple[str, float]]] = defaultdict(list)
    for (parent, name), (_count, _total, self_s) in aggregates.items():
        hot[parent].append((_layer_of(name), self_s))

    out: dict[str, float] = defaultdict(float)
    top = by_sid[root]
    todo = [(top, [(top.start, top.end, 1.0)])]
    while todo:
        span, pieces = todo.pop()
        kids = children.get(span.sid, [])
        raw, weighted, kid_pieces = _covered_pieces(pieces, kids)
        layer = "unattributed" if span.sid == root else _layer_of(span.name)
        parts = [(name, max(s, 0.0)) for name, s in hot.get(span.sid, [])]
        own = max(raw - sum(s for _, s in parts), 0.0)
        total = own + sum(s for _, s in parts)
        if total > 0:
            out[layer] += weighted * own / total
            for name, s in parts:
                out[name] += weighted * s / total
        else:
            out[layer] += weighted
        todo.extend((kid, kid_pieces[kid.sid]) for kid in kids)
    return dict(out)
