"""The Locaware protocol (§4) — the paper's contribution.

Locaware composes three mechanisms on top of the shared query
lifecycle:

1. **Location-aware index caching** (§4.1,
   :class:`~repro.core.response_index.LocationAwareIndex`): reverse-path
   peers whose Gid matches the filename cache *all* providers advertised
   by a passing response, plus the requestor itself as a brand-new
   provider.
2. **Bloom-filter keyword routing** (§4.2,
   :class:`~repro.core.bloom_router.BloomRouter`): queries follow
   neighbors whose (periodically pushed) keyword filter contains every
   query keyword, falling back to Gid matching, then to the
   best-connected neighbor.
3. **Location-aware provider selection** (§4.1.2 + §5.1,
   :class:`~repro.core.provider_selection.LocationAwareSelector`):
   same-locId providers first, RTT probing as fallback.

:class:`LocationAwareRoutingProtocol` (``locaware-lr``) implements the
paper's future-work idea (§6): among equally eligible next hops,
prefer neighbors physically closer to the requestor.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..overlay.messages import ProviderEntry, Query, QueryResponse
from ..overlay.network import P2PNetwork
from ..overlay.peer import Peer
from ..protocols.base import QueryContext, SearchProtocol
from .bloom_router import BloomRouter
from .provider_selection import LocationAwareSelector
from .response_index import LocationAwareIndex

__all__ = ["LocawareProtocol", "LocationAwareRoutingProtocol"]


class LocawareProtocol(SearchProtocol):
    """Location-aware index caching with Bloom-filter keyword routing."""

    name = "locaware"
    forward_after_hit = False  # §4.2: propagation stops at a satisfying node
    index_key = "locaware_index"

    def __init__(self, network: P2PNetwork) -> None:
        # The router/selector exist before init_peer runs for each peer.
        self.bloom_router = BloomRouter(network)
        self.selector = LocationAwareSelector(network)
        super().__init__(network)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic Bloom-filter pushes (§4.2)."""
        self.bloom_router.start()

    def stop(self) -> None:
        """Stop background processes (end of experiment)."""
        self.bloom_router.stop()

    def init_peer(self, peer: Peer) -> None:
        super().init_peer(peer)
        self.bloom_router.init_peer(peer)

    def new_index(self) -> LocationAwareIndex:
        return LocationAwareIndex(
            self.config.index_capacity, self.config.max_providers_per_file
        )

    # -- caching (§4.1) ------------------------------------------------------

    def _cache_entries(
        self, peer: Peer, filename: str, providers: tuple[ProviderEntry, ...]
    ) -> None:
        """Admit providers into the peer's index, syncing the Bloom filter."""
        update = self.index_of(peer).put(filename, providers)
        catalog = self.network.catalog
        if update.inserted_filename:
            record = catalog.by_filename(filename)
            if record is not None:
                self.bloom_router.filename_cached(peer, record.keywords)
        for evicted in update.evicted_filenames:
            record = catalog.by_filename(evicted)
            if record is not None:
                self.bloom_router.filename_evicted(peer, record.keywords)
        self._count_index_update(
            peer, filename, update.inserted_filename, update.evicted_filenames
        )

    def on_response_transit(self, peer: Peer, response: QueryResponse) -> None:
        """§4.1.2: matching-Gid peers cache all providers + the requestor."""
        if not self.caches_response(peer, response):
            return
        requestor_entry = ProviderEntry(
            response.origin, response.origin_locid
        )
        self._cache_entries(
            peer, response.filename, response.providers + (requestor_entry,)
        )

    # -- answering (§4.1.2) ------------------------------------------------

    def _ordered_providers(
        self,
        providers: list[ProviderEntry],
        origin: int,
        origin_locid: int,
    ) -> tuple[ProviderEntry, ...]:
        """LocId-matching entries first, then the rest (newest first),
        excluding the requestor itself, capped at the per-file bound."""
        matching = [
            p for p in providers if p.locid == origin_locid and p.peer_id != origin
        ]
        others = [
            p for p in providers if p.locid != origin_locid and p.peer_id != origin
        ]
        combined = matching + others
        return tuple(combined[: self.config.max_providers_per_file])

    def check_index(self, peer: Peer, query: Query) -> QueryResponse | None:
        hit = self.index_of(peer).lookup(query.keywords)
        if hit is None:
            return None
        filename, providers = hit
        ordered = self._ordered_providers(providers, query.origin, query.origin_locid)
        if not ordered:
            return None
        response = self._index_response(peer, query, filename, ordered)
        if response is not None:
            # §4.1.2: "Peer B then adds in its RI the entry (E, 1) as a
            # new provider of f" — the requestor becomes a provider.
            self._cache_entries(
                peer,
                filename,
                (ProviderEntry(query.origin, query.origin_locid),),
            )
        return response

    def build_store_response(
        self, peer: Peer, query: Query, file_id: int
    ) -> QueryResponse:
        """A file-store hit advertises the holder plus any providers its
        index happens to know for the same file."""
        filename = self.network.catalog.filename(file_id)
        known = self.index_of(peer).providers_of(filename)
        providers = (ProviderEntry(peer.peer_id, peer.locid),) + tuple(
            p for p in known if p.peer_id != peer.peer_id
        )
        ordered = self._ordered_providers(
            list(providers), query.origin, query.origin_locid
        )
        if not ordered:
            ordered = (ProviderEntry(peer.peer_id, peer.locid),)
        return self._respond(peer, query, file_id, filename, ordered)

    # -- routing (§4.2) -------------------------------------------------------

    def select_forward_targets(self, peer: Peer, query: Query) -> list[int]:
        """BF-matching neighbors; else Gid guess; else best-connected."""
        matches = self.bloom_router.neighbors_matching(
            peer, query.keywords, exclude=query.last_hop
        )
        if matches:
            self.network.metrics.counter("routing.bf_match").increment()
            return matches
        gid_matches = self._gid_neighbors(peer, query)
        if gid_matches:
            self.network.metrics.counter("routing.gid_match").increment()
            return gid_matches
        fallback = self._fallback_neighbors(peer, query)
        if fallback:
            self.network.metrics.counter("routing.fallback").increment()
        return fallback

    # -- provider selection (§4.1.2 + §5.1) ----------------------------------

    def select_provider(
        self, context: QueryContext
    ) -> tuple[QueryResponse, ProviderEntry] | None:
        candidates: list[tuple[QueryResponse, ProviderEntry]] = []
        for response in context.responses:
            for provider in response.providers:
                if self.provider_is_valid(context, response.file_id, provider):
                    candidates.append((response, provider))
        return self.selector.choose(
            context.origin,
            self.network.peer(context.origin).locid,
            candidates,
            query_id=context.query_id,
        )


class LocationAwareRoutingProtocol(LocawareProtocol):
    """Locaware with location-aware query routing (§6 future work).

    Connectivity still leads the last-resort fallback — exploration is
    what finds results on a sparse overlay — but ties between equally
    connected neighbors break towards the *requestor's* locId, nudging
    blind propagation into the locality where a same-locId provider
    would be the ideal answer.  (Stronger biases — raw requestor RTT,
    locId-first — were tried and discarded: they trade away too much
    exploration and lose 2-8 points of success rate.)
    """

    name = "locaware-lr"

    def fallback_order(self, query: Query) -> Callable[[int], Any]:
        degree = self.network.graph.degree
        peer_of = self.network.peer
        locid = query.origin_locid
        return lambda neighbor: (-degree(neighbor), peer_of(neighbor).locid != locid)
