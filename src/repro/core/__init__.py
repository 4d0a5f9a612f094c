"""Locaware — the paper's primary contribution.

- :class:`LocationAwareIndex` — multi-provider, locId-annotated
  response index with recency replacement (§4.1);
- :class:`BloomRouter` — keyword Bloom filters with delta propagation
  and BF-first query routing (§4.2);
- :class:`LocationAwareSelector` — locId-match / RTT-probe provider
  selection (§4.1.2, §5.1);
- :class:`LocawareProtocol` — the assembled protocol, and
  :class:`LocationAwareRoutingProtocol` its §6 location-aware routing
  variant.
"""

from .bloom_router import BloomRouter, PeerBloomState
from .locaware import LocationAwareRoutingProtocol, LocawareProtocol
from .provider_selection import LocationAwareSelector
from .response_index import IndexUpdate, LocationAwareIndex

__all__ = [
    "LocationAwareIndex",
    "IndexUpdate",
    "BloomRouter",
    "PeerBloomState",
    "LocationAwareSelector",
    "LocawareProtocol",
    "LocationAwareRoutingProtocol",
]
