"""Dicas (Wang et al., TPDS 2006) — group-id index caching, filename search.

Reimplemented from the Locaware paper's description (§2, §3.2, §5.1):

- every peer holds a random group id ``Gid ∈ [0, M)``;
- a passing query response for file ``f`` is cached only by reverse-path
  peers whose ``Gid == hash(f) mod M`` (one provider per filename);
- a query is routed to neighbors whose ``Gid`` matches the *query's*
  group — computable exactly when the query is the whole filename.

The paper evaluates Dicas under a *keyword* workload ("designed for
filename search"): a query holding only a subset of the filename's
keywords hashes to the wrong group, so routing is misled (§5.2) and the
query relies on the last-resort forwarding to stumble on a hit.  That
mismatch is what Fig 4 quantifies.
"""

from __future__ import annotations

from ..overlay.messages import Query, QueryResponse
from ..overlay.peer import Peer
from .base import SearchProtocol
from .index_cache import PlainIndexCache

__all__ = ["DicasProtocol"]


class DicasProtocol(SearchProtocol):
    """Dicas: Gid-restricted caching + Gid routing on filename hashes."""

    name = "dicas"
    forward_after_hit = False  # propagation stops at a satisfying node
    index_key = "dicas_index"

    def new_index(self) -> PlainIndexCache:
        return PlainIndexCache(self.config.index_capacity)

    def select_forward_targets(self, peer: Peer, query: Query) -> list[int]:
        """Gid-matching neighbors; else the best-connected neighbors."""
        return self._gid_neighbors(peer, query) or self._fallback_neighbors(peer, query)

    def on_response_transit(self, peer: Peer, response: QueryResponse) -> None:
        """Cache the response's provider at the reverse-path peers
        :meth:`caches_response` admits (§3.2) — one per filename."""
        if not self.caches_response(peer, response):
            return
        cache = self.index_of(peer)
        filename = response.filename
        inserted = filename not in cache
        evicted = cache.put(filename, response.providers[0])
        self._count_index_update(
            peer, filename, inserted, () if evicted is None else (evicted,)
        )

    def check_index(self, peer: Peer, query: Query) -> QueryResponse | None:
        hit = self.index_of(peer).lookup(query.keywords)
        if hit is None:
            return None
        filename, provider = hit
        return self._index_response(peer, query, filename, (provider,))
