"""Unit tests for the Underlay facade."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    EuclideanLatencyModel,
    LandmarkSet,
    Point,
    RouterLevelLatencyModel,
    Underlay,
)


@pytest.fixture(scope="module")
def underlay():
    return Underlay.build(200, random.Random(42))


class TestBuild:
    def test_num_peers(self, underlay):
        assert underlay.num_peers == 200

    def test_default_landmarks(self, underlay):
        assert underlay.landmarks.count == 4

    def test_deterministic_for_seed(self):
        a = Underlay.build(50, random.Random(9))
        b = Underlay.build(50, random.Random(9))
        assert all(a.locid_of(i) == b.locid_of(i) for i in range(50))
        assert a.latency_ms(0, 1) == b.latency_ms(0, 1)

    def test_uniform_placement_option(self):
        u = Underlay.build(50, random.Random(9), clustered=False)
        assert u.num_peers == 50

    def test_custom_model(self):
        model = EuclideanLatencyModel(20.0, 100.0)
        u = Underlay.build(20, random.Random(1), model=model)
        for i in range(1, 20):
            assert 20.0 <= u.latency_ms(0, i) <= 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Underlay([], EuclideanLatencyModel(), None)  # type: ignore[arg-type]

    def test_landmarks_on_another_model_rejected(self):
        model = EuclideanLatencyModel()
        landmarks = LandmarkSet.place_spread(4, EuclideanLatencyModel())
        with pytest.raises(ValueError, match="latency model"):
            Underlay([Point(0.2, 0.3)], model, landmarks)


class TestQueries:
    def test_latency_in_paper_range(self, underlay):
        rng = random.Random(5)
        for _ in range(100):
            a, b = rng.randrange(200), rng.randrange(200)
            if a == b:
                continue
            assert 10.0 <= underlay.latency_ms(a, b) <= 500.0

    def test_latency_symmetric(self, underlay):
        assert underlay.latency_ms(3, 77) == underlay.latency_ms(77, 3)

    @pytest.mark.xfail(
        strict=True,
        reason="router distances come from one Dijkstra per source, so d[i][j] and "
        "d[j][i] sum the same path in different orders and can differ in the last bits",
    )
    def test_router_latency_symmetric(self):
        router = build_underlay("router", 4, seed=5, num_peers=200)
        asymmetric = [
            (a, b)
            for a in range(router.num_peers)
            for b in range(a)
            if router.latency_ms(a, b) != router.latency_ms(b, a)
        ]
        assert asymmetric == []

    def test_rtt_is_double_latency(self, underlay):
        assert underlay.rtt_ms(3, 77) == pytest.approx(2 * underlay.latency_ms(3, 77))

    def test_latency_s_converts_units(self, underlay):
        assert underlay.latency_s(3, 77) == pytest.approx(underlay.latency_ms(3, 77) / 1000)

    def test_locids_in_range(self, underlay):
        for i in range(200):
            assert 0 <= underlay.locid_of(i) < 24

    def test_locid_histogram_sums_to_population(self, underlay):
        assert sum(underlay.locid_histogram().values()) == 200

    def test_mean_peers_per_locid(self, underlay):
        histogram = underlay.locid_histogram()
        expected = 200 / len(histogram)
        assert underlay.mean_peers_per_locid() == pytest.approx(expected)

    def test_locality_moreparsimonious_than_random(self, underlay):
        """Same-locId peers must on average be physically closer than random pairs."""
        rng = random.Random(17)
        by_locid = {}
        for i in range(200):
            by_locid.setdefault(underlay.locid_of(i), []).append(i)
        same_pairs = []
        for members in by_locid.values():
            for i in range(len(members) - 1):
                same_pairs.append((members[i], members[i + 1]))
        if not same_pairs:
            pytest.skip("degenerate layout: no locId with two peers")
        same = sum(underlay.rtt_ms(a, b) for a, b in same_pairs) / len(same_pairs)
        random_pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(500)]
        rand = sum(underlay.rtt_ms(a, b) for a, b in random_pairs) / len(random_pairs)
        assert same < rand


def build_underlay(
    model_name: str, num_landmarks: int, seed: int, num_peers: int
) -> Underlay:
    """An underlay on the named latency model, deterministic per seed."""
    model = None
    if model_name == "router":
        model = RouterLevelLatencyModel(random.Random(seed + 1))
    return Underlay.build(
        num_peers, random.Random(seed), num_landmarks=num_landmarks, model=model
    )


def reference_locids(underlay: Underlay) -> list[int]:
    """Every peer's locId measured point by point through the landmark set."""
    landmarks = underlay.landmarks
    return [
        landmarks.locid_of(underlay.position_of(i)) for i in range(underlay.num_peers)
    ]


class TestLocidOracle:
    """The underlay's locIds equal the per-point landmark measurement."""

    @pytest.mark.parametrize("num_landmarks", [4, 5])
    @pytest.mark.parametrize("model_name", ["euclidean", "router"])
    def test_locids_match_landmark_reference(self, model_name, num_landmarks):
        underlay = build_underlay(model_name, num_landmarks, seed=11, num_peers=300)
        locids = [underlay.locid_of(i) for i in range(underlay.num_peers)]
        assert locids == reference_locids(underlay)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        model_name=st.sampled_from(["euclidean", "router"]),
        num_landmarks=st.sampled_from([4, 5]),
    )
    def test_locids_match_landmark_reference_over_seeds(
        self, seed, model_name, num_landmarks
    ):
        underlay = build_underlay(model_name, num_landmarks, seed, num_peers=80)
        locids = [underlay.locid_of(i) for i in range(underlay.num_peers)]
        assert locids == reference_locids(underlay)

    @pytest.mark.parametrize("num_landmarks", [4, 5])
    def test_router_build_scans_once_per_peer_and_landmark(
        self, monkeypatch, num_landmarks
    ):
        model = RouterLevelLatencyModel(random.Random(3))
        calls = []
        scan = RouterLevelLatencyModel.nearest_router

        def counting_scan(self, p):
            calls.append(p)
            return scan(self, p)

        monkeypatch.setattr(RouterLevelLatencyModel, "nearest_router", counting_scan)
        underlay = Underlay.build(
            250, random.Random(4), num_landmarks=num_landmarks, model=model
        )
        assert len(calls) == underlay.num_peers + num_landmarks
