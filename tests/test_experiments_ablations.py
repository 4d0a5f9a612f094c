"""Tests for the ablation drivers (small-scale runs)."""


import pytest

from repro.experiments import small_config
from repro.experiments import grid as grid_module
from repro.experiments.ablations import (
    AblationResult,
    ablate_bloom_size,
    ablate_cache_capacity,
    ablate_churn,
    ablate_group_count,
    ablate_landmarks,
    ablate_locaware_routing,
    ablate_popularity_shift,
    ablate_substrate,
    ablate_ttl,
    measure_bloom_overhead,
)
from repro.overlay.blueprint import NetworkBlueprint, build_count


@pytest.fixture(scope="module")
def base():
    return small_config(seed=13).replace(query_rate_per_peer=0.02)


class TestAblationResult:
    def test_render_contains_title_and_rows(self):
        result = AblationResult("AX", "demo", ["a", "b"], [[1, 2.5], [3, 4.0]])
        text = result.render()
        assert "AX: demo" in text
        assert "2.50" in text

    def test_column_accessor(self):
        result = AblationResult("AX", "demo", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("a") == [1, 3]
        with pytest.raises(ValueError):
            result.column("missing")


class TestSweeps:
    def test_landmarks(self, base):
        result = ablate_landmarks(base, max_queries=60, counts=(2, 4))
        assert result.column("landmarks") == [2, 4]
        assert result.column("locIds") == [2, 24]
        peers_per = result.column("peers/locId")
        assert peers_per[0] > peers_per[1]

    def test_bloom_size(self, base):
        result = ablate_bloom_size(base, max_queries=60, sizes=(64, 512))
        fprs = result.column("est_fpr")
        assert fprs[0] > fprs[1]
        assert len(result.rows) == 2

    def test_cache_capacity(self, base):
        result = ablate_cache_capacity(
            base, max_queries=60, capacities=(2, 20), protocols=("dicas", "locaware")
        )
        assert result.headers == ["capacity", "dicas success", "locaware success"]
        for row in result.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 1.0

    def test_ttl(self, base):
        result = ablate_ttl(base, max_queries=60, ttls=(2, 5))
        flood_msgs = result.column("flooding msgs")
        assert flood_msgs[0] < flood_msgs[1]

    def test_churn(self, base):
        result = ablate_churn(
            base, max_queries=60, mean_sessions=(None, 300.0), protocols=("locaware",)
        )
        assert result.rows[0][0] == "off"
        assert result.rows[1][0] == 300.0

    def test_bloom_overhead(self, base):
        result = measure_bloom_overhead(base, max_queries=100)
        rows = dict(zip(result.column("quantity"), result.column("value")))
        assert rows["paper bound (bits)"] == 132
        if rows["bloom update pushes"] > 0:
            assert rows["mean update size (bits)"] <= base.bloom_bits

    def test_group_count(self, base):
        result = ablate_group_count(
            base, max_queries=60, group_counts=(2, 8), protocols=("dicas",)
        )
        assert result.column("M") == [2, 8]

    def test_locaware_routing_extension(self, base):
        result = ablate_locaware_routing(base, max_queries=60)
        assert result.column("variant") == ["locaware", "locaware+locrouting"]
        for rate in result.column("success"):
            assert 0.0 <= rate <= 1.0


class TestGridExecution:
    """Config-driven ablations run as grids: one build per topology,
    rows in declared order, columns describing the world that ran."""

    def test_landmark_column_describes_the_run_world(self):
        """peers/locId comes from the run's own underlay, so latency
        model, latency bounds and placement all reach it."""
        base = small_config().replace(
            latency_model="router", min_latency_ms=20.0, max_latency_ms=300.0
        )
        counts = (3, 5)
        result = ablate_landmarks(base, max_queries=10, counts=counts)
        expected = [
            round(
                NetworkBlueprint.build(base.replace(num_landmarks=count))
                .underlay.mean_peers_per_locid(),
                1,
            )
            for count in counts
        ]
        assert result.column("peers/locId") == expected

    @pytest.mark.parametrize(
        "driver, builds",
        [
            (ablate_landmarks, 4),
            (ablate_bloom_size, 1),
            (ablate_cache_capacity, 1),
            (ablate_ttl, 1),
            (ablate_churn, 1),
            (measure_bloom_overhead, 1),
            (ablate_group_count, 4),
            (ablate_substrate, 4),
            (ablate_locaware_routing, 1),
            (ablate_popularity_shift, 1),
        ],
        ids=["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "EXT", "EXT2"],
    )
    def test_one_build_per_distinct_topology(self, driver, builds):
        grid_module._BLUEPRINT_CACHE.clear()
        before = build_count()
        driver(small_config(), max_queries=10)
        assert build_count() - before == builds
        grid_module._BLUEPRINT_CACHE.clear()

    def test_rows_follow_declared_order_not_execution_order(self, base):
        forward = ablate_ttl(base, max_queries=60, ttls=(2, 5))
        backward = ablate_ttl(base, max_queries=60, ttls=(5, 2))
        assert backward.column("ttl") == [5, 2]
        assert backward.rows == forward.rows[::-1]
