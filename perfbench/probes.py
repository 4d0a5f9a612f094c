"""Span probes around the program's public functions, installed from outside.

:func:`install` patches each probed function (a class attribute or a
module-level name, at the binding its callers look up) with a
:meth:`SpanRecorder.wrap` wrapper and returns a function that puts the
originals back.  The wrappers only time calls and count results; the
traced run proves them inert by reproducing the untraced result digests.

Grid cells run in forked pool workers.  There, the ``run_protocol``
probe starts the worker's recorder clean, records the cell, and ships
the recording back on the returned run object; the ``execute_cells``
probe in the parent takes it off again and adopts it under its own
span.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.analysis import persistence
from repro.bloom.counting import CountingBloomFilter
from repro.bloom.delta import DeltaCodec
from repro.core.bloom_router import BloomRouter
from repro.core.response_index import LocationAwareIndex
from repro.experiments import grid, runner
from repro.files.catalog import FileCatalog
from repro.net.landmarks import LandmarkSet
from repro.net.latency import RouterLevelLatencyModel
from repro.net.underlay import Underlay
from repro.overlay.blueprint import NetworkBlueprint
from repro.overlay.graph import OverlayGraph
from repro.overlay.network import P2PNetwork
from repro.protocols.base import SearchProtocol
from repro.results.claims import ClaimStore
from repro.results.store import ResultStore
from repro.sim.engine import Simulator
from repro.workload.zipf import ZipfSampler

from .spans import SpanRecorder

__all__ = ["install", "install_build_timer", "TRACE_ATTR"]

#: Attribute under which a worker's recording rides back on its run.
TRACE_ATTR = "_perfbench_trace"

#: (owner, attribute, span name) for every coarse probe.
COARSE = [
    (NetworkBlueprint, "build", "overlay.blueprint_build"),
    (NetworkBlueprint, "instantiate", "overlay.instantiate"),
    (Underlay, "build", "net.underlay_build"),
    (RouterLevelLatencyModel, "__init__", "net.router_build"),
    (OverlayGraph, "random", "overlay.graph_build"),
    (OverlayGraph, "copy", "overlay.graph_copy"),
    (FileCatalog, "generate", "files.catalog_build"),
    (Simulator, "run", "sim.run"),
    (runner, "run_comparison", "experiments.run_comparison"),
    (runner, "summarize_outcomes", "analysis.summarize_outcomes"),
    (runner, "collect_series", "analysis.collect_series"),
    (grid.GridRunner, "run", "experiments.grid_run"),
    (grid.GridWorkerPool, "__init__", "experiments.pool_start"),
    (grid.GridWorkerPool, "close", "experiments.pool_close"),
    (persistence, "run_to_document", "analysis.document"),
    (ResultStore, "put", "results.put"),
    (ResultStore, "put_sidecar", "results.put_sidecar"),
    (ClaimStore, "try_claim", "results.claim"),
    (ClaimStore, "release", "results.release"),
]

#: (owner, attribute, span name) for every hot probe (aggregated).
HOT = [
    (LandmarkSet, "locid_of", "net.locid"),
    (LandmarkSet, "locid_with_rtts", "net.locid"),
    (P2PNetwork, "send", "overlay.send"),
    (SearchProtocol, "issue_query", "protocols.issue"),
    (BloomRouter, "neighbors_matching", "core.neighbors_matching"),
    (LocationAwareIndex, "put", "core.index_put"),
    (CountingBloomFilter, "to_bloom_filter", "bloom.to_bloom_filter"),
    (DeltaCodec, "decode_into", "bloom.decode"),
    (ZipfSampler, "sample", "workload.sample"),
]


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class _Patcher:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, recorder: SpanRecorder, owner, attr: str, name: str, coarse: bool):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self.set(owner, attr, classmethod(recorder.wrap(raw.__func__, name, coarse)))
        else:
            self.set(owner, attr, recorder.wrap(raw, name, coarse))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install_build_timer(recorder: SpanRecorder) -> Callable[[], None]:
    """Probe only ``NetworkBlueprint.build`` (the untraced run's set-up clock)."""
    patcher = _Patcher()
    patcher.wrap(recorder, NetworkBlueprint, "build", "overlay.blueprint_build", True)
    return patcher.undo


def _cell_id(args: tuple, kwargs: dict) -> str:
    config, protocol = args[0], args[1]
    scenario = kwargs.get("scenario")
    label = getattr(scenario, "name", scenario) or "baseline"
    return f"{protocol}/{label}/{config.seed}"


def _run_protocol_probe(recorder: SpanRecorder, fn: Callable) -> Callable:
    def run_protocol(*args, **kwargs):
        worker = recorder.in_worker()
        if worker:
            recorder.reset()
        elif not recorder.recording():
            return fn(*args, **kwargs)
        outer = recorder.cell
        recorder.cell = _cell_id(args, kwargs)
        frame = recorder.enter("experiments.run_protocol", True)
        try:
            run = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
            recorder.cell = outer
        if worker:
            setattr(run, TRACE_ATTR, recorder.export())
            recorder.reset()
        return run

    return run_protocol


def _execute_cells_probe(recorder: SpanRecorder, fn: Callable) -> Callable:
    def execute_cells(*args, **kwargs):
        frame = recorder.enter("experiments.execute_cells", True)
        try:
            cells = fn(*args, **kwargs)
            while True:
                started = time.perf_counter()
                try:
                    cell, run = next(cells)
                except StopIteration:
                    return
                finally:
                    recorder.counts["experiments.dispatch_wait_s"] += (
                        time.perf_counter() - started
                    )
                payload = run.__dict__.pop(TRACE_ATTR, None)
                if payload is not None:
                    recorder.adopt(payload, parent=frame.sid)
                yield cell, run
        finally:
            recorder.exit(frame)

    return execute_cells


def _encode_probe(recorder: SpanRecorder, fn: Callable) -> Callable:
    timed = recorder.wrap(fn, "bloom.encode", False)

    def encode(self, old, new):
        delta = timed(self, old, new)
        if recorder.recording() and (delta.encoded_bits or delta.is_full):
            recorder.counts["bloom.useful_deltas"] += 1
        return delta

    return encode


def _batch_probe(recorder: SpanRecorder, fn: Callable) -> Callable:
    @contextmanager
    def batch(self):
        inner = fn(self)
        inner.__enter__()
        try:
            yield
        except BaseException as error:
            frame = recorder.enter("results.batch_commit", True)
            try:
                if not inner.__exit__(type(error), error, error.__traceback__):
                    raise
            finally:
                recorder.exit(frame)
        else:
            frame = recorder.enter("results.batch_commit", True)
            try:
                inner.__exit__(None, None, None)
            finally:
                recorder.exit(frame)

    return batch


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Probe every layer boundary the benchmark reports; returns the undo."""
    patcher = _Patcher()
    for owner, attr, name in COARSE:
        patcher.wrap(recorder, owner, attr, name, True)
    for owner, attr, name in HOT:
        patcher.wrap(recorder, owner, attr, name, False)
    for cls in _subclasses(SearchProtocol):
        for attr, name in (
            ("check_index", "protocols.check_index"),
            ("select_forward_targets", "protocols.select_forward_targets"),
        ):
            if attr in cls.__dict__:
                patcher.wrap(recorder, cls, attr, name, False)
    patcher.set(runner, "run_protocol", _run_protocol_probe(recorder, runner.run_protocol))
    patcher.set(grid, "run_protocol", _run_protocol_probe(recorder, grid.run_protocol))
    patcher.set(grid, "execute_cells", _execute_cells_probe(recorder, grid.execute_cells))
    patcher.set(DeltaCodec, "encode", _encode_probe(recorder, DeltaCodec.encode))
    patcher.set(ResultStore, "batch", _batch_probe(recorder, ResultStore.batch))
    return patcher.undo
