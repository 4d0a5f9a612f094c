"""Dicas-Keys — the keyword-search strategy of Dicas (§2, §5.1).

"Some proposed strategy consists in caching indexes based on hashing
query keywords instead of the whole filename, which causes a large
amount of duplicated cached indexes."

Concretely:

- *caching*: a reverse-path peer caches a passing response when its
  ``Gid`` matches ``hash(kw) mod M`` for **any** keyword of the query
  that produced it — so one response may be cached by up to X groups
  (duplication → cache pollution, the §5.2 explanation for its
  33%-lower hit ratio);
- *routing*: a query follows the group of its *designated* keyword
  (the first in canonical order), keeping per-hop fan-out comparable
  to Dicas (the paper's Fig 3 shows all caching protocols at similar
  traffic).  Because cache placement spreads over every keyword group
  of *past* queries while lookup follows the *current* query's
  designated keyword, placements and lookups mismatch — the second
  §5.2 reason Dicas-Keys trails on hit ratio.
"""

from __future__ import annotations

from ..overlay.messages import Query, QueryResponse
from ..overlay.peer import Peer
from .dicas import DicasProtocol
from .groups import keyword_groups, stable_hash

__all__ = ["DicasKeysProtocol"]


class DicasKeysProtocol(DicasProtocol):
    """Dicas with per-keyword group hashing."""

    name = "dicas-keys"

    def query_group(self, query: Query) -> int:
        """The designated keyword's group (first in canonical order)."""
        return stable_hash(min(query.keywords)) % self.config.group_count

    def caches_response(self, peer: Peer, response: QueryResponse) -> bool:
        """Cache whenever the peer's Gid matches any query keyword's hash."""
        return peer.gid in keyword_groups(response.keywords, self.config.group_count)
