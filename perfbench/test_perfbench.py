"""Self-tests of the benchmark: span arithmetic, statistics, output checks, names."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from .run import check_cells, fork_call, repetition, summarize
from .spans import Span, SpanRecorder, layer_self_times
from .workloads import Cell, GridScenarios, PaperCompare

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spans(*rows):
    return [Span(sid, parent, name, start, end) for sid, parent, name, start, end in rows]


class TestSelfTimes:
    def test_nested_children(self):
        spans = _spans(
            ("r", None, "workload", 0.0, 10.0),
            ("a", "r", "overlay.build", 2.0, 6.0),
            ("b", "a", "net.probe", 3.0, 4.0),
        )
        assert layer_self_times(spans, {}, "r") == {
            "unattributed": 6.0,
            "overlay": 3.0,
            "net": 1.0,
        }

    def test_sibling_children(self):
        spans = _spans(
            ("r", None, "workload", 0.0, 10.0),
            ("a", "r", "sim.run", 1.0, 3.0),
            ("b", "r", "sim.run", 5.0, 8.0),
            ("c", "r", "files.load", 8.0, 9.0),
        )
        assert layer_self_times(spans, {}, "r") == {
            "unattributed": 4.0,
            "sim": 5.0,
            "files": 1.0,
        }

    def test_overlapping_children_share_the_overlap(self):
        # Two parallel workers; the second has a child inside the overlap.
        spans = _spans(
            ("r", None, "workload", 0.0, 10.0),
            ("a", "r", "protocols.cell", 0.0, 6.0),
            ("b", "r", "sim.cell", 4.0, 10.0),
            ("c", "b", "bloom.push", 5.0, 6.0),
        )
        out = layer_self_times(spans, {}, "r")
        assert out["protocols"] == pytest.approx(5.0)
        assert out["sim"] == pytest.approx(4.5)
        assert out["bloom"] == pytest.approx(0.5)
        assert "unattributed" not in out or out["unattributed"] == 0.0
        assert sum(out.values()) == pytest.approx(10.0)

    def test_hot_aggregates_take_their_share_of_the_parent(self):
        spans = _spans(("r", None, "workload", 0.0, 10.0), ("a", "r", "sim.run", 0.0, 8.0))
        aggregates = {("a", "overlay.send"): [1000, 3.0, 3.0]}
        out = layer_self_times(spans, aggregates, "r")
        assert out == pytest.approx({"unattributed": 2.0, "sim": 5.0, "overlay": 3.0})


class TestRecorder:
    def test_spans_and_aggregates_from_a_fake_clock(self):
        ticks = iter(range(100))
        recorder = SpanRecorder(clock=lambda: float(next(ticks)))
        hot = recorder.wrap(lambda: None, "overlay.send", coarse=False)

        def body():
            hot()
            hot()

        coarse = recorder.wrap(body, "sim.run", coarse=True)
        root = recorder.enter("workload", True)  # t=0
        coarse()  # sim.run 1..6, sends 2..3 and 4..5
        wall = recorder.exit(root)  # t=7
        assert wall == 7.0
        (run_span,) = [s for s in recorder.spans if s.name == "sim.run"]
        assert (run_span.start, run_span.end, run_span.parent) == (1.0, 6.0, root.sid)
        assert recorder.aggregates[(run_span.sid, "overlay.send")] == [2, 2.0, 2.0]
        out = layer_self_times(recorder.spans, recorder.aggregates, root.sid)
        assert out == pytest.approx({"unattributed": 2.0, "sim": 3.0, "overlay": 2.0})

    def test_out_of_order_close_is_an_error(self):
        recorder = SpanRecorder()
        outer = recorder.enter("a.x", True)
        recorder.enter("a.y", True)
        with pytest.raises(RuntimeError):
            recorder.exit(outer)


def test_summarize_reports_median_quartiles_and_count():
    stats = summarize([3.0, 1.0, 2.0, 10.0])
    assert stats["median"] == 2.5
    assert stats["samples"] == 4
    assert stats["q1"] <= stats["median"] <= stats["q3"]
    assert summarize([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "samples": 1}
    with pytest.raises(ValueError):
        summarize([])


def _ok(digests):
    return {"ok": True, "value": {"digests": digests, "cell_failures": {}}}


def test_digest_check_catches_a_perturbed_document():
    from repro.analysis.persistence import run_to_document
    from repro.experiments import run_protocol, small_config

    run = run_protocol(small_config(seed=3), "locaware", 40, 10)
    telemetry = run.telemetry.to_dict()
    cell = Cell("locaware/baseline/3", run_to_document(run), telemetry, 40)
    digest = cell.check()
    perturbed = json.loads(json.dumps(cell.document))
    perturbed["sim_time_s"] = perturbed["sim_time_s"] * (1 + 1e-15) + 1e-12
    other = Cell(cell.cell_id, perturbed, telemetry, 40).check()
    assert other != digest
    expected = [cell.cell_id]
    assert check_cells([_ok({cell.cell_id: digest})] * 2, expected, None)[:2] == (2, 0)
    attempted, failed, problems = check_cells(
        [_ok({cell.cell_id: digest}), _ok({cell.cell_id: other})], expected, None
    )
    assert (attempted, failed) == (2, 1) and "digest differs" in problems[0]
    assert check_cells([{"ok": False, "error": "boom"}], expected, None)[:2] == (1, 1)


def test_every_metric_and_workload_name_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


class _TinyCompare(PaperCompare):
    queries = 30
    bucket_width = 10

    def config(self, seed):
        from repro.experiments import small_config

        return small_config(seed=seed)


class _TinyGrid(GridScenarios):
    queries = 30

    def spec(self, seed):
        from repro.experiments import small_config
        from repro.experiments.grid import GridSpec

        return GridSpec(
            base_config=small_config(seed=seed),
            protocols=("dicas", "locaware"),
            scenarios=("baseline", "churn-storm"),
            seeds=(seed, seed + 1),
            max_queries=self.queries,
        )


def _fresh_repetition(workload, seed, traced, scratch):
    from repro.bloom.bloom_filter import positions_cache_clear
    from repro.protocols.groups import stable_hash

    stable_hash.cache_clear()
    positions_cache_clear()
    return repetition(workload, seed, traced, scratch)


@pytest.mark.parametrize("workload", [_TinyCompare(), _TinyGrid()], ids=["compare", "grid"])
def test_traced_run_is_inert_and_accounts_for_the_wall(workload, tmp_path):
    plain = fork_call(lambda: _fresh_repetition(workload, 11, False, tmp_path / "a"), 120)
    traced = fork_call(lambda: _fresh_repetition(workload, 11, True, tmp_path / "b"), 120)
    assert plain["ok"], plain.get("error")
    assert traced["ok"], traced.get("error")
    plain, traced = plain["value"], traced["value"]
    assert not plain["cell_failures"] and not traced["cell_failures"]
    assert sorted(plain["digests"]) == sorted(workload.cell_ids(11))
    assert traced["digests"] == plain["digests"]

    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
    metrics = traced["metrics"]
    assert set(metrics) == per_layer
    selfs = sum(v for k, v in metrics.items() if k.startswith("self."))
    assert selfs == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["sim.events"] > 0 and metrics["overlay.sends"] > 0
    if workload.workers > 1:
        # Cells ran in pool workers; their spans reached the parent's trace.
        cells = {s["cell"] for s in traced["trace"]["spans"] if s["cell"]}
        assert len(cells) == len(workload.cell_ids(11))
        assert metrics["results.puts"] == len(cells)
