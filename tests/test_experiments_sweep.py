"""Unit tests for protocol × scenario × seed sweeps on the grid engine.

``repro sweep`` runs a :class:`GridSpec` through a storeless
:class:`GridRunner`; these tests pin the behaviours a sweep relies on.
"""

import pytest

from repro.analysis import aggregate_sweep, render_sweep_report
from repro.experiments import GridCell, GridRunner, GridSpec, small_config
from repro.experiments import grid as grid_module
from repro.experiments.grid import ScenarioSpec, _cached_blueprint


def _spec(**overrides):
    defaults = dict(
        base_config=small_config(seed=1).replace(query_rate_per_peer=0.02),
        protocols=("flooding", "locaware"),
        scenarios=("baseline", "diurnal"),
        seeds=(1, 2),
        max_queries=15,
    )
    defaults.update(overrides)
    return GridSpec(**defaults)


def _cell(protocol, scenario, seed):
    return GridCell(
        protocol=protocol, scenario=ScenarioSpec(scenario), overrides=(), seed=seed
    )


class TestValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            _spec(protocols=("gossip",))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            _spec(scenarios=("meteor-strike",))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            _spec(protocols=())
        with pytest.raises(ValueError):
            _spec(scenarios=())
        with pytest.raises(ValueError):
            _spec(seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate entries"):
            _spec(seeds=(1, 1))

    def test_duplicate_protocols_rejected_at_construction(self):
        """Duplicates fail when the spec is built (where ``repro sweep``
        catches them), before any runner exists."""
        with pytest.raises(ValueError, match="duplicate entries.*\\['flooding'\\]"):
            _spec(protocols=("flooding", "flooding"))

    def test_duplicate_scenarios_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate entries.*\\['baseline'\\]"):
            _spec(scenarios=("baseline", "baseline"))

    def test_bad_workers_and_queries_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            GridRunner(_spec(), workers=0)
        with pytest.raises(ValueError, match="max_queries"):
            _spec(max_queries=0)
        with pytest.raises(ValueError, match="bucket_width"):
            _spec(bucket_width=0)

    def test_default_bucket_width(self):
        assert _spec(max_queries=80).bucket_width == 10
        assert _spec(max_queries=4).bucket_width == 1


class TestDegenerateGrids:
    """Degenerate grid specs fail eagerly, naming the offending axis."""

    def _grid(self, **overrides):
        defaults = dict(
            base_config=small_config(seed=1),
            protocols=("flooding", "locaware"),
            scenarios=("baseline",),
            seeds=(1, 2),
            max_queries=10,
        )
        defaults.update(overrides)
        return GridSpec(**defaults)

    def test_empty_protocol_axis_named(self):
        with pytest.raises(ValueError, match="protocol axis is empty"):
            self._grid(protocols=())

    def test_empty_scenario_axis_named(self):
        with pytest.raises(ValueError, match="scenario axis is empty"):
            self._grid(scenarios=())

    def test_empty_seed_axis_named(self):
        with pytest.raises(ValueError, match="seed axis is empty"):
            self._grid(seeds=())

    def test_empty_override_axis_named(self):
        with pytest.raises(ValueError, match="config-override axis is empty"):
            self._grid(config_overrides=())

    def test_duplicate_protocols_named(self):
        with pytest.raises(
            ValueError, match="duplicate entries on the protocol axis"
        ):
            self._grid(protocols=("flooding", "flooding"))

    def test_duplicate_scenarios_named(self):
        with pytest.raises(
            ValueError, match="duplicate entries on the scenario axis"
        ):
            self._grid(scenarios=("baseline", "baseline"))

    def test_duplicate_scenario_specs_detected_through_params(self):
        """Two spellings of the same parameterised scenario collide."""
        with pytest.raises(
            ValueError, match="duplicate entries on the scenario axis"
        ):
            self._grid(
                scenarios=(
                    "diurnal:amplitude=0.3",
                    ("diurnal", {"amplitude": 0.3}),
                )
            )

    def test_duplicate_seeds_named(self):
        with pytest.raises(ValueError, match="duplicate entries on the seed axis"):
            self._grid(seeds=(1, 1))

    def test_duplicate_overrides_named(self):
        with pytest.raises(
            ValueError, match="duplicate entries on the config-override axis"
        ):
            self._grid(config_overrides=({"ttl": 5}, {"ttl": 5}))

    def test_unknown_scenario_parameter_named(self):
        with pytest.raises(
            ValueError,
            match="scenario axis.*'diurnal' does not accept parameter",
        ):
            self._grid(scenarios=("diurnal:wobble=2",))

    def test_unknown_scenario_named(self):
        with pytest.raises(ValueError, match="scenario axis.*unknown scenario"):
            self._grid(scenarios=("meteor-strike",))

    def test_unknown_protocol_named(self):
        with pytest.raises(ValueError, match="unknown protocol.*protocol axis"):
            self._grid(protocols=("gossip",))

    def test_unknown_config_field_named(self):
        with pytest.raises(
            ValueError, match="unknown config field.*config-override axis"
        ):
            self._grid(config_overrides=({"ttlz": 5},))

    def test_seed_forbidden_on_override_axis(self):
        with pytest.raises(ValueError, match="may not set 'seed'"):
            self._grid(config_overrides=({"seed": 9},))

    def test_invalid_override_value_fails_eagerly(self):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="ttl"):
            self._grid(config_overrides=({"ttl": 0},))

    def test_non_integer_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds must be integers"):
            self._grid(seeds=(1, "two"))


class TestGrid:
    def test_cells_cover_full_grid_in_order(self):
        cells = _spec().expand()
        assert len(cells) == 2 * 2 * 2
        assert cells[0] == _cell("flooding", "baseline", 1)
        assert cells[1] == _cell("flooding", "baseline", 2)
        assert cells[-1] == _cell("locaware", "diurnal", 2)
        assert len(set(cells)) == len(cells)


class TestRun:
    @pytest.fixture(scope="class")
    def report(self):
        return GridRunner(_spec()).run()

    def test_every_cell_has_a_run(self, report):
        assert report.num_cells == 8
        for cell in _spec().expand():
            run = report.runs[cell]
            assert run.protocol_name == cell.protocol
            assert run.scenario_name == cell.scenario.name
            assert run.config.seed == cell.seed

    def test_accessors(self, report):
        run = report.run_for("locaware", "baseline", 2)
        assert run.protocol_name == "locaware"
        assert len(report.seed_runs("flooding", "diurnal")) == 2
        mean = report.mean_over_seeds(
            "flooding", "baseline", lambda r: r.summary.queries
        )
        assert mean > 0

    def test_progress_lines_one_per_cell(self):
        lines = []
        GridRunner(_spec(scenarios=("baseline",), seeds=(1,))).run(
            progress=lines.append
        )
        assert len(lines) == 2
        assert "[1/2]" in lines[0] and "[2/2]" in lines[1]
        assert "baseline" in lines[0]

    def test_workers_capped_by_cells(self):
        spec = _spec(protocols=("flooding",), scenarios=("baseline",), seeds=(1,))
        report = GridRunner(spec, workers=8).run()
        assert report.num_cells == 1

    def test_aggregate_rows(self, report):
        rows = aggregate_sweep(report)
        assert set(rows) == {
            (scenario, protocol)
            for scenario in ("baseline", "diurnal")
            for protocol in ("flooding", "locaware")
        }
        row = rows[("baseline", "flooding")]
        assert row.seeds == 2
        assert 0.0 <= row.success_rate <= 1.0
        assert row.mean_messages > 0

    def test_render_report(self, report):
        text = render_sweep_report(report)
        assert "scenario: baseline" in text
        assert "scenario: diurnal" in text
        assert "locaware across scenarios" in text
        assert "2 protocols × 2 scenarios × 2 seeds" in text


class TestReuseBuilds:
    def test_reuse_builds_default_off(self):
        assert GridRunner(_spec()).reuse_builds is False

    def test_reuse_builds_caches_one_build_per_topology(self):
        from repro.overlay.blueprint import build_count

        grid_module._BLUEPRINT_CACHE.clear()
        spec = _spec(
            protocols=("flooding", "dicas", "locaware"),
            scenarios=("baseline",),
            seeds=(21, 22),
        )
        before = build_count()
        report = GridRunner(spec, reuse_builds=True).run()
        # Serial reuse: one build per distinct (scenario, seed) topology,
        # shared by all three protocols of the row.
        assert build_count() - before == len(spec.seeds)
        assert report.num_cells == 3 * 2
        grid_module._BLUEPRINT_CACHE.clear()

    def test_reuse_builds_matches_scratch(self):
        spec = _spec(
            protocols=("flooding", "locaware"),
            scenarios=("baseline", "cold-start"),
            seeds=(5, 6),
            max_queries=12,
        )
        scratch = GridRunner(spec, reuse_builds=False).run()
        reused = GridRunner(spec, reuse_builds=True).run()
        assert set(scratch.runs) == set(reused.runs)
        for cell, run in scratch.runs.items():
            other = reused.runs[cell]
            assert run.outcomes == other.outcomes, cell
            assert run.metric_snapshot == other.metric_snapshot, cell

    def test_reuse_builds_progress_still_one_line_per_cell(self):
        lines = []
        spec = _spec()
        GridRunner(spec, reuse_builds=True).run(progress=lines.append)
        assert len(lines) == spec.num_cells

    def test_blueprint_cache_is_bounded(self):
        grid_module._BLUEPRINT_CACHE.clear()
        base = small_config(seed=1)
        for seed in range(1, grid_module._BLUEPRINT_CACHE_CAPACITY + 4):
            _cached_blueprint(base.replace(seed=seed))
        assert (
            len(grid_module._BLUEPRINT_CACHE)
            == grid_module._BLUEPRINT_CACHE_CAPACITY
        )
        grid_module._BLUEPRINT_CACHE.clear()

    def test_cached_blueprint_returns_same_object_for_same_topology(self):
        grid_module._BLUEPRINT_CACHE.clear()
        base = small_config(seed=9)
        first = _cached_blueprint(base)
        again = _cached_blueprint(base.replace(query_rate_per_peer=0.5))
        assert again is first  # runtime-only overrides share the topology
        grid_module._BLUEPRINT_CACHE.clear()
