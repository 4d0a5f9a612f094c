"""Ablation experiments (DESIGN.md A1-A8 + the §6 extensions).

Each ablation sweeps one design parameter the paper discusses and
reports how the headline metrics move.  Every ablation is an experiment
grid: the swept parameter is a config-override axis (for EXT a
protocol axis, for EXT2 a scenario axis) of a
:class:`~repro.experiments.grid.GridSpec`, run
through :func:`~repro.experiments.grid.execute_cells` with build reuse,
so each distinct topology is built once and results are directly
comparable with every other grid.

- A1 ``ablate_landmarks`` — §5.1's landmark-count discussion (4
  landmarks → 24 locIds vs 5 → 120: too many localities scatter peers
  and locId matches vanish);
- A2 ``ablate_bloom_size`` — §5.1's "1200 bits is an optimal
  representation" sizing argument (too small → false positives
  mislead routing; larger → no routing benefit, more update bits);
- A3 ``ablate_cache_capacity`` — §4.1.2's storage-control knob; also
  the regime where Dicas-Keys' duplicated indexes visibly pollute;
- A4 ``ablate_ttl`` — the §5.1 TTL bound: scope vs traffic;
- A5 ``ablate_churn`` — §3.1 dynamicity/staleness: Locaware's
  multi-provider entries vs Dicas' single pointer;
- A6 ``measure_bloom_overhead`` — §4.2 footnote: update messages must
  stay within ~0.132 Kb;
- A7 ``ablate_group_count`` — the Dicas M parameter: cache
  concentration vs routing reachability;
- A8 ``ablate_substrate`` — latency model × peer placement;
- EXT ``ablate_locaware_routing`` — §6 future work: location-aware
  *query routing* on top of Locaware (the ``locaware-lr`` protocol
  against ``locaware``, on one shared blueprint);
- EXT2 ``ablate_popularity_shift`` — popularity drift via the
  ``popularity-shift`` scenario.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..analysis.tables import format_table
from ..sim.config import SimulationConfig
from .grid import GridSpec, _cached_blueprint, execute_cells
from .runner import ProtocolRun
from .setup import paper_config

__all__ = [
    "AblationResult",
    "ablate_landmarks",
    "ablate_bloom_size",
    "ablate_cache_capacity",
    "ablate_ttl",
    "ablate_churn",
    "measure_bloom_overhead",
    "ablate_group_count",
    "ablate_locaware_routing",
    "ablate_popularity_shift",
    "ablate_substrate",
]


@dataclass
class AblationResult:
    """A sweep's rows, ready to render as the bench's output table."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)

    def render(self) -> str:
        """The ablation as an ASCII table."""
        return format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")

    def column(self, header: str) -> list[Any]:
        """All values of one column (for assertions in benches/tests)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def _grid_rows(
    base: SimulationConfig,
    max_queries: int,
    protocols: Sequence[str] = ("locaware",),
    config_overrides: Sequence[Mapping[str, Any]] = ({},),
    scenarios: Sequence[Any] = ("baseline",),
) -> list[list[ProtocolRun]]:
    """Run the ablation's grid on ``base``'s seed and return its rows.

    One row per (scenario, config override) in declared order, each
    holding one run per protocol in declared order.  Build reuse
    reorders execution, so runs are looked up by cell, never by
    completion order.
    """
    spec = GridSpec(
        base_config=base,
        protocols=protocols,
        scenarios=scenarios,
        config_overrides=config_overrides,
        seeds=(base.seed,),
        max_queries=max_queries,
        bucket_width=max(1, max_queries // 4),
    )
    cells = spec.expand()
    runs = dict(execute_cells(spec, cells, reuse_builds=True))
    width = len(spec.protocols)
    return [
        [runs[cell] for cell in cells[start : start + width]]
        for start in range(0, len(cells), width)
    ]


def ablate_landmarks(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    counts: Sequence[int] = (2, 3, 4, 5),
) -> AblationResult:
    """A1 — number of landmarks (locId granularity)."""
    base = base if base is not None else paper_config()
    result = AblationResult(
        "A1",
        "landmark count (locId granularity, §5.1 discussion)",
        ["landmarks", "locIds", "peers/locId", "locId matches", "success", "distance_ms"],
    )
    rows = _grid_rows(
        base, max_queries, config_overrides=[{"num_landmarks": c} for c in counts]
    )
    for count, (run,) in zip(counts, rows):
        # The world the run used: the cached blueprint it instantiated.
        underlay = _cached_blueprint(run.config).underlay
        result.rows.append(
            [
                count,
                math.factorial(count),
                round(underlay.mean_peers_per_locid(), 1),
                int(run.metric_snapshot.get("counter.selection.locid_match", 0)),
                run.summary.success_rate,
                run.summary.mean_download_distance_ms,
            ]
        )
    return result


def ablate_bloom_size(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    sizes: Sequence[int] = (150, 300, 600, 1200, 2400),
) -> AblationResult:
    """A2 — Bloom filter size (routing accuracy vs update cost)."""
    base = base if base is not None else paper_config()
    result = AblationResult(
        "A2",
        "Bloom filter size (§5.1: 1200 bits for ~150 keywords)",
        ["bits", "est_fpr", "bf matches", "success", "msgs/query", "update_bits"],
    )
    from ..bloom.params import false_positive_rate

    expected_keywords = base.index_capacity * base.keywords_per_file
    rows = _grid_rows(
        base, max_queries, config_overrides=[{"bloom_bits": b} for b in sizes]
    )
    for bits, (run,) in zip(sizes, rows):
        snapshot = run.metric_snapshot
        result.rows.append(
            [
                bits,
                round(false_positive_rate(bits, base.bloom_hashes, expected_keywords), 4),
                int(snapshot.get("counter.routing.bf_match", 0)),
                run.summary.success_rate,
                run.summary.mean_messages,
                round(snapshot.get("summary.bloom.update_bits.mean", math.nan), 1),
            ]
        )
    return result


def ablate_cache_capacity(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    capacities: Sequence[int] = (2, 5, 10, 25, 50),
    protocols: Sequence[str] = ("dicas", "dicas-keys", "locaware"),
) -> AblationResult:
    """A3 — response-index capacity (§4.1.2 storage control)."""
    base = base if base is not None else paper_config()
    result = AblationResult(
        "A3",
        "response-index capacity (cache pressure; Dicas-Keys duplication)",
        ["capacity"] + [f"{p} success" for p in protocols],
    )
    rows = _grid_rows(
        base,
        max_queries,
        protocols,
        config_overrides=[{"index_capacity": c} for c in capacities],
    )
    for capacity, runs in zip(capacities, rows):
        result.rows.append([capacity] + [run.summary.success_rate for run in runs])
    return result


def ablate_ttl(
    base: SimulationConfig | None = None,
    max_queries: int = 300,
    ttls: Sequence[int] = (3, 5, 7, 9),
    protocols: Sequence[str] = ("flooding", "locaware"),
) -> AblationResult:
    """A4 — TTL bound: search scope vs traffic."""
    base = base if base is not None else paper_config()
    headers = ["ttl"]
    for protocol in protocols:
        headers += [f"{protocol} success", f"{protocol} msgs"]
    result = AblationResult("A4", "TTL bound (scope vs traffic)", headers)
    rows = _grid_rows(
        base, max_queries, protocols, config_overrides=[{"ttl": t} for t in ttls]
    )
    for ttl, runs in zip(ttls, rows):
        row: list[Any] = [ttl]
        for run in runs:
            row += [run.summary.success_rate, run.summary.mean_messages]
        result.rows.append(row)
    return result


def ablate_churn(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    mean_sessions: Sequence[float | None] = (None, 3600.0, 1200.0, 600.0),
    protocols: Sequence[str] = ("dicas", "locaware"),
) -> AblationResult:
    """A5 — churn: stale single-provider pointers vs multi-provider entries.

    ``None`` in ``mean_sessions`` means churn disabled.
    """
    base = base if base is not None else paper_config()
    headers = ["mean_session_s"] + [f"{p} success" for p in protocols]
    result = AblationResult(
        "A5", "churn (index staleness; §4.1.2 motivation)", headers
    )
    overrides = [
        {"churn_enabled": False}
        if session is None
        else {
            "churn_enabled": True,
            "mean_session_s": session,
            "mean_downtime_s": session / 4.0,
        }
        for session in mean_sessions
    ]
    rows = _grid_rows(base, max_queries, protocols, config_overrides=overrides)
    for session, runs in zip(mean_sessions, rows):
        label: Any = "off" if session is None else session
        result.rows.append([label] + [run.summary.success_rate for run in runs])
    return result


def measure_bloom_overhead(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
) -> AblationResult:
    """A6 — §4.2 footnote: a BF update is at most 12 × 11 = 132 bits."""
    base = base if base is not None else paper_config()
    [[run]] = _grid_rows(base, max_queries)
    snapshot = run.metric_snapshot
    mean_bits = snapshot.get("summary.bloom.update_bits.mean", math.nan)
    update_count = snapshot.get("summary.bloom.update_bits.count", 0.0)
    messages = snapshot.get("counter.messages.bloom_update", 0.0)
    search_messages = snapshot.get("counter.messages.query", 0.0) + snapshot.get(
        "counter.messages.response", 0.0
    )
    result = AblationResult(
        "A6",
        "Bloom update overhead (§4.2 footnote: I = 132 bits per update)",
        ["quantity", "value"],
    )
    result.rows = [
        ["bloom update pushes", int(update_count)],
        ["bloom update messages", int(messages)],
        ["mean update size (bits)", round(mean_bits, 1) if not math.isnan(mean_bits) else math.nan],
        ["paper bound (bits)", 132],
        ["search messages (for scale)", int(search_messages)],
        ["bloom/search message ratio", round(messages / search_messages, 3) if search_messages else math.nan],
    ]
    return result


def ablate_group_count(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    group_counts: Sequence[int] = (2, 4, 8, 16),
    protocols: Sequence[str] = ("dicas", "locaware"),
) -> AblationResult:
    """A7 — group modulus M: concentration vs reachability."""
    base = base if base is not None else paper_config()
    headers = ["M"]
    for protocol in protocols:
        headers += [f"{protocol} success", f"{protocol} msgs"]
    result = AblationResult("A7", "group count M (Dicas parameter)", headers)
    rows = _grid_rows(
        base,
        max_queries,
        protocols,
        config_overrides=[{"group_count": m} for m in group_counts],
    )
    for m, runs in zip(group_counts, rows):
        row: list[Any] = [m]
        for run in runs:
            row += [run.summary.success_rate, run.summary.mean_messages]
        result.rows.append(row)
    return result


def ablate_substrate(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    protocols: Sequence[str] = ("flooding", "locaware"),
) -> AblationResult:
    """A8 — substrate sensitivity (DESIGN.md substitution audit).

    The reproduction replaces BRITE with a metric-space latency model
    and clusters peer placement.  This sweep re-runs the headline
    protocols on every combination of latency model (Euclidean vs
    Waxman router-level) and placement (clustered vs uniform) to check
    that the paper's *shape* — Locaware's distance advantage at a
    fraction of flooding's traffic — does not hinge on the substitution.
    """
    base = base if base is not None else paper_config()
    headers = ["substrate"]
    for protocol in protocols:
        headers += [f"{protocol} success", f"{protocol} dist_ms", f"{protocol} msgs"]
    result = AblationResult(
        "A8", "substrate sensitivity (latency model x placement)", headers
    )
    combos = [
        ("euclidean", "clustered"),
        ("euclidean", "uniform"),
        ("router", "clustered"),
        ("router", "uniform"),
    ]
    rows = _grid_rows(
        base,
        max_queries,
        protocols,
        config_overrides=[
            {"latency_model": model, "peer_placement": placement}
            for model, placement in combos
        ],
    )
    for (model, placement), runs in zip(combos, rows):
        row: list[Any] = [f"{model}/{placement}"]
        for run in runs:
            row += [
                run.summary.success_rate,
                run.summary.mean_download_distance_ms,
                run.summary.mean_messages,
            ]
        result.rows.append(row)
    return result


def ablate_popularity_shift(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
    shift_intervals: Sequence[float | None] = (None, 1200.0, 300.0),
    protocols: Sequence[str] = ("dicas", "locaware"),
) -> AblationResult:
    """EXT2 — popularity drift (temporal-locality stress).

    Runs the ``popularity-shift`` scenario, which re-draws the Zipf
    rank assignment every ``interval`` virtual seconds (``None`` =
    stationary, the baseline scenario).  Index caches chase a moving
    popular set; §4.1.2's recency-based replacement is the mechanism
    that lets them keep up.
    """
    base = base if base is not None else paper_config()
    headers = ["shift_interval_s"] + [f"{p} success" for p in protocols]
    result = AblationResult(
        "EXT2", "popularity drift (shifting Zipf workload)", headers
    )
    scenarios = [
        "baseline"
        if interval is None
        else ("popularity-shift", {"shift_interval_s": interval})
        for interval in shift_intervals
    ]
    rows = _grid_rows(base, max_queries, protocols, scenarios=scenarios)
    for interval, runs in zip(shift_intervals, rows):
        label: Any = "stationary" if interval is None else interval
        result.rows.append([label] + [run.summary.success_rate for run in runs])
    return result


def ablate_locaware_routing(
    base: SimulationConfig | None = None,
    max_queries: int = 400,
) -> AblationResult:
    """EXT — §6 future work: location-aware query routing.

    Compares stock Locaware against ``locaware-lr``, the variant that
    biases equally eligible next hops towards the requestor's locality.
    """
    base = base if base is not None else paper_config()
    result = AblationResult(
        "EXT",
        "location-aware query routing (§6 future work)",
        ["variant", "success", "distance_ms", "msgs/query", "locId matches"],
    )
    (runs,) = _grid_rows(base, max_queries, ("locaware", "locaware-lr"))
    for label, run in zip(("locaware", "locaware+locrouting"), runs):
        result.rows.append(
            [
                label,
                run.summary.success_rate,
                run.summary.mean_download_distance_ms,
                run.summary.mean_messages,
                int(run.metric_snapshot.get("counter.selection.locid_match", 0)),
            ]
        )
    return result
