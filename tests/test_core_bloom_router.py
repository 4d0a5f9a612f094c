"""Unit tests for the Bloom router (state, pushes, routing)."""


from repro.bloom import CountingBloomFilter, DeltaCodec
from repro.core import BloomRouter
from repro.overlay import P2PNetwork
from repro.sim import SimulationConfig


def make_network(seed=5, period=10.0):
    config = SimulationConfig.small(seed=seed).replace(bloom_update_period_s=period)
    return P2PNetwork.build(config)


class TestState:
    def test_init_peer_creates_state(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        state = router.init_peer(peer)
        assert state.cbf.element_count == 0
        assert state.neighbor_filters == {}

    def test_state_of_creates_on_demand(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        assert router.state_of(peer) is router.state_of(peer)

    def test_cache_sync_inserts_and_evicts(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        router.filename_cached(peer, ["kw1", "kw2"])
        assert "kw1" in router.state_of(peer).cbf
        router.filename_evicted(peer, ["kw1", "kw2"])
        assert "kw1" not in router.state_of(peer).cbf

    def test_shared_keywords_survive_partial_eviction(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        router.filename_cached(peer, ["shared", "a"])
        router.filename_cached(peer, ["shared", "b"])
        router.filename_evicted(peer, ["shared", "a"])
        assert "shared" in router.state_of(peer).cbf
        assert "b" in router.state_of(peer).cbf


class TestPropagation:
    def test_push_reaches_neighbors(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        for peer in network.peers:
            router.init_peer(peer)
        target = network.peer(0)
        router.filename_cached(target, ["kw1", "kw2", "kw3"])
        router.start()
        network.sim.run(until=12.0)
        router.stop()
        for neighbor_id in network.graph.neighbors(0):
            neighbor_state = router.state_of(network.peer(neighbor_id))
            stored = neighbor_state.neighbor_filters.get(0)
            assert stored is not None
            assert stored.contains_all(["kw1", "kw2", "kw3"])

    def test_no_change_no_message(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        for peer in network.peers:
            router.init_peer(peer)
        router.start()
        network.sim.run(until=30.0)
        router.stop()
        assert network.metrics.counter("messages.bloom_update").value == 0

    def test_clean_tick_skips_export_and_encode(self, monkeypatch):
        network = make_network()
        router = BloomRouter(network)
        for peer in network.peers:
            router.init_peer(peer)
        calls = []
        export = CountingBloomFilter.to_bloom_filter
        encode = DeltaCodec.encode

        def counting_export(self):
            calls.append("export")
            return export(self)

        def counting_encode(self, old, new):
            calls.append("encode")
            return encode(self, old, new)

        monkeypatch.setattr(CountingBloomFilter, "to_bloom_filter", counting_export)
        monkeypatch.setattr(DeltaCodec, "encode", counting_encode)
        sent = network.metrics.counter("messages.bloom_update")
        router._push_updates(0)
        assert calls == []
        assert sent.value == 0
        assert network.graph.neighbors(0)
        router.filename_cached(network.peer(0), ["kw1", "kw2"])
        router._push_updates(0)
        assert calls == ["export", "encode"]
        assert sent.value == len(network.graph.neighbors(0))
        router._push_updates(0)
        assert calls == ["export", "encode"]
        assert sent.value == len(network.graph.neighbors(0))

    def test_eviction_propagates(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        for peer in network.peers:
            router.init_peer(peer)
        target = network.peer(0)
        router.filename_cached(target, ["kw1", "kw2"])
        router.start()
        network.sim.run(until=12.0)
        router.filename_evicted(target, ["kw1", "kw2"])
        network.sim.run(until=24.0)
        router.stop()
        neighbor_id = sorted(network.graph.neighbors(0))[0]
        stored = router.state_of(network.peer(neighbor_id)).neighbor_filters[0]
        assert not stored.contains_all(["kw1", "kw2"])

    def test_update_sizes_respect_paper_bound(self):
        """One filename of 3 keywords changes ≤ 12 bits ⇒ ≤ 132 bits/update."""
        network = make_network(period=5.0)
        router = BloomRouter(network)
        for peer in network.peers:
            router.init_peer(peer)
        router.filename_cached(network.peer(0), ["kw1", "kw2", "kw3"])
        router.start()
        network.sim.run(until=6.0)
        router.stop()
        summary = network.metrics.summary("bloom.update_bits")
        assert summary.count > 0
        assert summary.max <= 132.0

    def test_dead_peer_does_not_push(self):
        network = make_network(period=5.0)
        router = BloomRouter(network)
        for peer in network.peers:
            router.init_peer(peer)
        router.filename_cached(network.peer(0), ["kw1"])
        network.peer(0).alive = False
        router.start()
        network.sim.run(until=12.0)
        router.stop()
        assert network.metrics.counter("messages.bloom_update").value == 0


class TestRouting:
    def test_neighbors_matching_requires_all_keywords(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        state = router.state_of(peer)
        neighbor = sorted(network.graph.neighbors(0))[0]
        from repro.bloom import BloomFilter

        bf = BloomFilter(network.config.bloom_bits, network.config.bloom_hashes)
        bf.add_all(["kw1", "kw2"])
        state.neighbor_filters[neighbor] = bf
        assert neighbor in router.neighbors_matching(peer, ["kw1"])
        assert neighbor in router.neighbors_matching(peer, ["kw1", "kw2"])
        assert neighbor not in router.neighbors_matching(peer, ["kw1", "zz-absent"])

    def test_exclude_filters_last_hop(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        state = router.state_of(peer)
        from repro.bloom import BloomFilter

        for neighbor in network.graph.neighbors(0):
            bf = BloomFilter(network.config.bloom_bits, network.config.bloom_hashes)
            bf.add("kw1")
            state.neighbor_filters[neighbor] = bf
        some_neighbor = sorted(network.graph.neighbors(0))[0]
        matches = router.neighbors_matching(peer, ["kw1"], exclude=some_neighbor)
        assert some_neighbor not in matches

    def test_unknown_neighbors_do_not_match(self):
        network = make_network()
        router = BloomRouter(network)
        peer = network.peer(0)
        assert router.neighbors_matching(peer, ["kw1"]) == []
