"""The benchmark's workloads, their output checks and their metrics.

Each workload turns a seed into the program's inputs (a
``SimulationConfig``, a ``GridSpec``), runs them through public entry
points in :meth:`Workload.execute` (the timed part), and turns the
result into :class:`Cell` records in :meth:`Workload.collect`.  A
cell's digest is the SHA-256 of its canonical ``run_to_document``
encoding; a speed-only change to the program must leave every digest
unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.analysis.comparison import check_paper_claims
from repro.analysis.persistence import run_to_document
from repro.experiments import grid, runner
from repro.experiments.grid import GridSpec
from repro.experiments.setup import bench_config, small_config
from repro.results.store import ResultStore

from .spans import SpanRecorder, layer_self_times

__all__ = [
    "LAYERS",
    "WORKLOADS",
    "Cell",
    "document_digest",
    "end_to_end_metrics",
    "per_layer_metrics",
]

#: Layers a self time is reported for: the program's packages.
LAYERS = (
    "net",
    "overlay",
    "files",
    "sim",
    "protocols",
    "core",
    "bloom",
    "workload",
    "experiments",
    "results",
    "analysis",
)


def document_digest(document: dict[str, Any]) -> str:
    """SHA-256 of the canonical strict-JSON encoding of ``document``."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Cell:
    """One protocol run of a workload, as the output check sees it."""

    cell_id: str
    document: dict[str, Any]
    telemetry: dict[str, Any]
    max_queries: int

    def check(self) -> str:
        """The cell's digest, after checking the run's basic invariants."""
        summary = self.document["summary"]
        generated = summary["queries"] + self.document["locally_satisfied"]
        if generated != self.max_queries:
            raise ValueError(
                f"{self.cell_id}: {generated} queries generated, expected {self.max_queries}"
            )
        if not 0 <= summary["successes"] <= summary["queries"]:
            raise ValueError(f"{self.cell_id}: successes out of range")
        if self.document["events_processed"] != self.telemetry["engine"]["events_processed"]:
            raise ValueError(f"{self.cell_id}: telemetry disagrees with the document")
        return document_digest(self.document)


def _cell(cell_id: str, run: Any, telemetry: dict, max_queries: int) -> Cell:
    return Cell(cell_id, run_to_document(run), telemetry, max_queries)


class Workload:
    """A named input set; subclasses define what runs and what it yields."""

    name = ""
    workers = 1

    def params(self, seed: int) -> dict[str, Any]:
        raise NotImplementedError

    def cell_ids(self, seed: int) -> list[str]:
        raise NotImplementedError

    def execute(self, seed: int, scratch: Path) -> Any:
        raise NotImplementedError

    def collect(self, raw: Any) -> tuple[list[Cell], dict[str, int]]:
        raise NotImplementedError


class PaperCompare(Workload):
    """The paper's world and comparison: flooding makes message delivery hot."""

    name = "paper-compare"
    queries = 600
    bucket_width = 100

    def config(self, seed):
        return bench_config(seed)

    def params(self, seed):
        return {
            "config": self.config(seed).to_dict(),
            "protocols": list(runner.DEFAULT_PROTOCOL_ORDER),
            "max_queries": self.queries,
            "bucket_width": self.bucket_width,
        }

    def cell_ids(self, seed):
        return [f"{p}/baseline/{seed}" for p in runner.DEFAULT_PROTOCOL_ORDER]

    def execute(self, seed, scratch):
        return runner.run_comparison(self.config(seed), self.queries, self.bucket_width)

    def collect(self, raw):
        seed = raw.config.seed
        cells = [
            _cell(f"{name}/baseline/{seed}", run, run.telemetry.to_dict(), self.queries)
            for name, run in raw.runs.items()
        ]
        claims = check_paper_claims(raw.summaries(), raw.series())
        return cells, {"paper_claims_held": sum(c.holds for c in claims)}


class Scale10k(Workload):
    """One locaware cell built from scratch at 10^4 peers: the build is half the run."""

    name = "scale-10k"
    peers = 10_000
    queries = 1000
    bucket_width = 125

    def config(self, seed):
        return small_config(seed=seed).replace(
            num_peers=self.peers,
            num_files=3 * self.peers,
            keyword_pool_size=9 * self.peers,
            latency_model="router",
            query_rate_per_peer=0.02,
        )

    def params(self, seed):
        return {
            "config": self.config(seed).to_dict(),
            "protocols": ["locaware"],
            "max_queries": self.queries,
            "bucket_width": self.bucket_width,
        }

    def cell_ids(self, seed):
        return [f"locaware/baseline/{seed}"]

    def execute(self, seed, scratch):
        return runner.run_protocol(self.config(seed), "locaware", self.queries, self.bucket_width)

    def collect(self, raw):
        cell = _cell(
            f"locaware/baseline/{raw.config.seed}", raw, raw.telemetry.to_dict(), self.queries
        )
        return [cell], {}


class GridScenarios(Workload):
    """A cold 2-worker grid on a fresh store: the grid runner, the store, churn writes."""

    name = "grid-scenarios"
    workers = 2
    protocols = ("dicas", "dicas-keys", "locaware")
    scenarios = ("baseline", "churn-storm", "flash-crowd")
    queries = 400

    def spec(self, seed):
        return GridSpec(
            base_config=bench_config(seed),
            protocols=self.protocols,
            scenarios=self.scenarios,
            seeds=(seed, seed + 1),
            max_queries=self.queries,
        )

    def params(self, seed):
        return {"grid": self.spec(seed).to_dict(), "workers": self.workers, "backend": "sqlite"}

    def cell_ids(self, seed):
        return [f"{c.protocol}/{c.scenario.label}/{c.seed}" for c in self.spec(seed).expand()]

    def execute(self, seed, scratch):
        spec = self.spec(seed)
        store = ResultStore(scratch / "store", backend="sqlite")
        report = grid.GridRunner(
            spec, workers=self.workers, reuse_builds=True, store=store
        ).run()
        return spec, store, report

    def collect(self, raw):
        spec, store, report = raw
        if report.executed != spec.num_cells or report.cached:
            raise ValueError(
                f"grid executed {report.executed} and loaded {report.cached} "
                f"of {spec.num_cells} cells from a fresh store"
            )
        cells = []
        for cell in spec.expand():
            sidecar = store.get_sidecar(spec.cell_key(cell))
            if sidecar is None:
                raise ValueError(f"no telemetry sidecar for {cell.label}")
            cells.append(
                _cell(
                    f"{cell.protocol}/{cell.scenario.label}/{cell.seed}",
                    report.runs[cell],
                    sidecar["telemetry"],
                    self.queries,
                )
            )
        return cells, {"quarantined": report.quarantined}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperCompare(), Scale10k(), GridScenarios())
}


def _locaware_outcomes(cells: list[Cell]) -> dict[str, float]:
    queries = successes = messages = distance = 0.0
    for cell in cells:
        if not cell.cell_id.startswith("locaware/"):
            continue
        summary = cell.document["summary"]
        queries += summary["queries"]
        successes += summary["successes"]
        if summary["mean_messages"] is not None:
            messages += summary["mean_messages"] * summary["queries"]
        if summary["mean_download_distance_ms"] is not None:
            distance += summary["mean_download_distance_ms"] * summary["successes"]
    return {
        "locaware.success_rate": successes / queries if queries else 0.0,
        "locaware.msgs_per_query": messages / queries if queries else 0.0,
        "locaware.download_distance_ms": distance / successes if successes else 0.0,
    }


def _totals(cells: list[Cell]) -> dict[str, float]:
    """Sums over the cells' ``RunTelemetry`` (the queue peak is a maximum)."""
    out: dict[str, float] = defaultdict(float)
    for cell in cells:
        t = cell.telemetry
        proto = t["protocol"]
        out["simulate_s"] += t["phases_s"].get("simulate", 0.0)
        out["instantiate_s"] += t["phases_s"].get("instantiate", 0.0)
        out["events"] += t["engine"]["events_processed"]
        out["queue_peak"] = max(out["queue_peak"], t["engine"]["queue_peak"])
        out["generated"] += proto["queries"]["issued"] + proto["queries"]["satisfied_locally"]
        for key in ("lookups", "hits", "inserts", "evictions"):
            out[f"index_{key}"] += proto["index"][key]
        out["membership_tests"] += proto["bloom"]["membership_tests"]
        out["sends"] += proto["messages"]["total"]
        out["dropped_dead_peer"] += proto["messages"].get("dropped_dead_peer", 0)
        out["churn_leaves"] += proto["churn"]["leaves"]
        out["churn_rejoins"] += proto["churn"]["rejoins"]
    return out


def _durations(recorder: SpanRecorder, *names: str) -> float:
    spans = sum(s.duration for s in recorder.spans if s.name in names)
    hot = sum(v[1] for (_, n), v in recorder.aggregates.items() if n in names)
    return spans + hot


def _calls(recorder: SpanRecorder, *names: str) -> int:
    spans = sum(1 for s in recorder.spans if s.name in names)
    hot = sum(v[0] for (_, n), v in recorder.aggregates.items() if n in names)
    return int(spans + hot)


def end_to_end_metrics(
    cells: list[Cell], recorder: SpanRecorder, wall_s: float, peak_rss_mb: float
) -> dict[str, float]:
    """The untraced run's metrics (see ``README.md`` for definitions)."""
    totals = _totals(cells)
    return {
        "wall_s": wall_s,
        "setup_s": _durations(recorder, "overlay.blueprint_build") + totals["instantiate_s"],
        "queries_per_s": totals["generated"] / totals["simulate_s"],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(
    workload: Workload,
    cells: list[Cell],
    extras: dict[str, int],
    recorder: SpanRecorder,
    root_sid: str,
    builds: int,
) -> dict[str, float]:
    """The traced run's metrics (see ``README.md`` for definitions)."""
    root = next(s for s in recorder.spans if s.sid == root_sid)
    totals = _totals(cells)
    selfs = layer_self_times(recorder.spans, recorder.aggregates, root_sid)
    unknown = set(selfs) - set(LAYERS) - {"unattributed"}
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    execute_s = _durations(recorder, "experiments.execute_cells")
    busy = _durations(recorder, "experiments.run_protocol")
    encodes = _calls(recorder, "bloom.encode")
    m: dict[str, float] = {f"self.{layer}_s": selfs.get(layer, 0.0) for layer in LAYERS}
    m["self.unattributed_s"] = selfs.get("unattributed", 0.0)
    m["trace.wall_s"] = root.duration
    m.update(
        {
            "net.underlay_build_s": _durations(recorder, "net.underlay_build"),
            "net.locid_calls": _calls(recorder, "net.locid"),
            "overlay.graph_build_s": _durations(recorder, "overlay.graph_build"),
            "files.catalog_build_s": _durations(recorder, "files.catalog_build"),
            "overlay.instantiate_s": _durations(recorder, "overlay.instantiate"),
            "overlay.graph_copy_s": _durations(recorder, "overlay.graph_copy"),
            "sim.events": totals["events"],
            "sim.events_per_s": totals["events"] / totals["simulate_s"],
            "sim.queue_peak": totals["queue_peak"],
            "overlay.sends": totals["sends"],
            "overlay.send_s": _durations(recorder, "overlay.send"),
            "protocols.issue_s": _durations(recorder, "protocols.issue"),
            "protocols.check_index_s": _durations(recorder, "protocols.check_index"),
            "protocols.select_forward_targets_s": _durations(
                recorder, "protocols.select_forward_targets"
            ),
            "bloom.ticks": _calls(recorder, "bloom.to_bloom_filter"),
            "bloom.encode_s": _durations(recorder, "bloom.encode"),
            "bloom.decode_s": _durations(recorder, "bloom.decode"),
            "bloom.delta_useful_ratio": (
                recorder.counts["bloom.useful_deltas"] / encodes if encodes else 0.0
            ),
            "bloom.membership_tests": totals["membership_tests"],
            "core.neighbors_matching_s": _durations(recorder, "core.neighbors_matching"),
            "core.index_lookups": totals["index_lookups"],
            "core.index_hit_ratio": (
                totals["index_hits"] / totals["index_lookups"] if totals["index_lookups"] else 0.0
            ),
            "core.index_inserts": totals["index_inserts"],
            "core.index_evictions": totals["index_evictions"],
            "core.index_put_s": _durations(recorder, "core.index_put"),
            "overlay.churn_leaves": totals["churn_leaves"],
            "overlay.churn_rejoins": totals["churn_rejoins"],
            "overlay.dropped_dead_peer": totals["dropped_dead_peer"],
            "workload.queries_generated": totals["generated"],
            "workload.sample_s": _durations(recorder, "workload.sample"),
            "experiments.execute_cells_s": execute_s,
            "experiments.blueprint_builds": builds,
            "experiments.worker_busy_frac": busy
            / (workload.workers * (execute_s or root.duration)),
            "experiments.dispatch_wait_s": recorder.counts["experiments.dispatch_wait_s"],
            "results.put_s": _durations(recorder, "results.put"),
            "results.puts": _calls(recorder, "results.put"),
            "results.claim_s": _durations(recorder, "results.claim", "results.release"),
            "results.claims": _calls(recorder, "results.claim"),
            "results.batch_commit_s": _durations(recorder, "results.batch_commit"),
            "results.quarantined": extras.get("quarantined", 0),
            "analysis.finalize_s": _durations(
                recorder, "analysis.summarize_outcomes", "analysis.collect_series"
            ),
            "analysis.document_s": _durations(recorder, "analysis.document"),
            "paper_claims_held": extras.get("paper_claims_held", 0),
        }
    )
    m.update(_locaware_outcomes(cells))
    bad = sorted(k for k, v in m.items() if not math.isfinite(v))
    if bad:
        raise ValueError(f"non-finite per-layer metrics: {bad}")
    return {k: float(v) for k, v in m.items()}
