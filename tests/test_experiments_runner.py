"""Integration tests for the experiment runner and figure modules."""

import pytest

from repro.experiments import (
    DEFAULT_PROTOCOL_ORDER,
    PROTOCOL_REGISTRY,
    bench_config,
    fig2_download_distance,
    fig3_search_traffic,
    fig4_success_rate,
    make_protocol,
    paper_config,
    run_comparison,
    run_protocol,
    small_config,
)
from repro.overlay import P2PNetwork


@pytest.fixture(scope="module")
def comparison():
    """One shared small comparison used by the figure-module tests."""
    config = small_config(seed=11).replace(query_rate_per_peer=0.02)
    return run_comparison(config, max_queries=120, bucket_width=40)


class TestConfigs:
    def test_paper_config_matches_section_51(self):
        config = paper_config()
        assert config.num_peers == 1000
        assert config.ttl == 7
        assert config.bloom_bits == 1200

    def test_bench_config_is_paper_config(self):
        assert bench_config() == paper_config()

    def test_small_config_is_small(self):
        assert small_config().num_peers < 200


class TestRegistry:
    def test_four_protocols_registered(self):
        # The paper's four, plus Locaware's §6 location-aware routing variant.
        assert set(PROTOCOL_REGISTRY) == {
            "flooding",
            "dicas",
            "dicas-keys",
            "locaware",
            "locaware-lr",
        }
        assert DEFAULT_PROTOCOL_ORDER == ("flooding", "dicas", "dicas-keys", "locaware")

    def test_make_protocol_unknown_name(self):
        network = P2PNetwork.build(small_config())
        with pytest.raises(ValueError):
            make_protocol("gossip", network)

    def test_make_protocol_names_match(self):
        network = P2PNetwork.build(small_config())
        for name in PROTOCOL_REGISTRY:
            protocol = make_protocol(name, P2PNetwork.build(small_config()))
            assert protocol.name == name


class TestRunProtocol:
    def test_run_produces_outcomes(self):
        config = small_config(seed=3).replace(query_rate_per_peer=0.02)
        run = run_protocol(config, "flooding", max_queries=50, bucket_width=25)
        assert run.protocol_name == "flooding"
        assert run.outcomes
        assert run.summary.queries == len(run.outcomes)
        assert run.outcomes[-1].index <= 50

    def test_all_queries_accounted(self):
        """Network outcomes + locally satisfied = generated queries."""
        config = small_config(seed=3).replace(query_rate_per_peer=0.02)
        run = run_protocol(config, "dicas", max_queries=80, bucket_width=20)
        assert len(run.outcomes) + run.locally_satisfied == 80

    def test_locaware_run_terminates_despite_periodic_pushes(self):
        config = small_config(seed=3).replace(query_rate_per_peer=0.02)
        run = run_protocol(config, "locaware", max_queries=40, bucket_width=20)
        assert run.summary.queries == len(run.outcomes)

    def test_run_with_churn_terminates(self):
        config = small_config(seed=3).replace(
            query_rate_per_peer=0.02,
            churn_enabled=True,
            mean_session_s=120.0,
            mean_downtime_s=60.0,
        )
        run = run_protocol(config, "locaware", max_queries=40, bucket_width=20)
        assert run.outcomes

    def test_invalid_max_queries(self):
        with pytest.raises(ValueError):
            run_protocol(small_config(), "flooding", max_queries=0, bucket_width=10)

    def test_deterministic_runs(self):
        config = small_config(seed=5).replace(query_rate_per_peer=0.02)
        a = run_protocol(config, "dicas", max_queries=40, bucket_width=20)
        b = run_protocol(config, "dicas", max_queries=40, bucket_width=20)
        assert [o.success for o in a.outcomes] == [o.success for o in b.outcomes]
        assert a.summary.mean_messages == b.summary.mean_messages


class TestComparison:
    def test_all_protocols_ran(self, comparison):
        assert set(comparison.runs) == set(DEFAULT_PROTOCOL_ORDER)

    def test_common_bucket_edges(self, comparison):
        edges = comparison.bucket_edges()
        assert edges
        assert all(e % 40 == 0 for e in edges)

    def test_flooding_has_most_traffic(self, comparison):
        flood = comparison.runs["flooding"].summary.mean_messages
        for name in ("dicas", "dicas-keys", "locaware"):
            assert comparison.runs[name].summary.mean_messages < flood

    def test_summaries_and_series_accessors(self, comparison):
        assert set(comparison.summaries()) == set(comparison.runs)
        assert set(comparison.series()) == set(comparison.runs)


class TestFigureModules:
    def test_fig2_renders(self, comparison):
        text = fig2_download_distance.render(comparison)
        assert "download distance" in text
        assert "#queries" in text
        assert "locaware" in text

    def test_fig3_renders(self, comparison):
        text = fig3_search_traffic.render(comparison)
        assert "search traffic" in text

    def test_fig4_renders(self, comparison):
        text = fig4_success_rate.render(comparison)
        assert "success rate" in text

    def test_series_lengths_match_edges(self, comparison):
        edges = comparison.bucket_edges()
        for module in (fig2_download_distance, fig3_search_traffic, fig4_success_rate):
            series = module.figure_series(comparison)
            for name, values in series.items():
                assert len(values) <= len(edges)

    def test_fig4_values_are_rates(self, comparison):
        for values in fig4_success_rate.figure_series(comparison).values():
            for v in values:
                if v == v:  # skip NaN
                    assert 0.0 <= v <= 1.0


class TestComparisonBlueprintAndPassthrough:
    def test_comparison_builds_topology_exactly_once(self):
        from repro.overlay.blueprint import build_count

        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        before = build_count()
        run_comparison(config, max_queries=10, bucket_width=5)
        assert build_count() - before == 1

    def test_comparison_scenario_passthrough(self):
        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        result = run_comparison(
            config,
            max_queries=15,
            bucket_width=5,
            protocols=("flooding", "locaware"),
            scenario="cold-start",
        )
        assert set(result.runs) == {"flooding", "locaware"}
        for run in result.runs.values():
            assert run.scenario_name == "cold-start"
            assert run.config.files_per_peer == 1

    def test_comparison_scenario_equals_direct_runs(self):
        """The shared-blueprint comparison reproduces per-protocol
        scratch runs under the same scenario."""
        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        result = run_comparison(
            config,
            max_queries=15,
            bucket_width=5,
            protocols=("dicas",),
            scenario="churn-storm",
        )
        direct = run_protocol(
            config, "dicas", max_queries=15, bucket_width=5,
            scenario="churn-storm",
        )
        assert result.runs["dicas"].outcomes == direct.outcomes
        assert result.runs["dicas"].metric_snapshot == direct.metric_snapshot

    def test_comparison_location_aware_routing_variant(self):
        config = small_config(seed=13).replace(query_rate_per_peer=0.02)
        result = run_comparison(
            config,
            max_queries=20,
            bucket_width=10,
            protocols=("locaware", "locaware-lr"),
        )
        assert (
            result.runs["locaware-lr"].metric_snapshot
            != result.runs["locaware"].metric_snapshot
        )


class TestDriveDrainGuard:
    def test_drained_queue_with_unfinished_workload_raises(self):
        """A workload that stops rescheduling itself must fail loudly,
        naming generated vs expected queries."""
        from repro.experiments.runner import _drive

        network = P2PNetwork.build(small_config(seed=13))

        class StalledWorkload:
            generated = 3

        class IdleProtocol:
            pending_queries = 0

        with pytest.raises(RuntimeError, match="3 of 10"):
            _drive(network, IdleProtocol(), StalledWorkload(), 10)

    def test_drained_queue_after_full_generation_settles(self):
        """Draining *after* the workload finished generating stays a
        clean return even with queries still nominally pending."""
        from repro.experiments.runner import _drive

        network = P2PNetwork.build(small_config(seed=13))

        class DoneWorkload:
            generated = 10

        class StuckProtocol:
            pending_queries = 1

        _drive(network, StuckProtocol(), DoneWorkload(), 10)
