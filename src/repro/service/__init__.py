"""Request/response anonymization service: cache, server, client, router.

The front door for serving anonymization at scale: a stdlib-only
JSON-over-TCP server (:mod:`repro.service.server`) with per-request
admission control, dispatch of cache misses to worker processes
driven from its event loop, and a two-tier content-addressed solution
cache
(:mod:`repro.service.cache`).  ``kanon serve`` / ``kanon submit`` are
the CLI entry points; :class:`ServiceClient` is the programmatic one.

Fleets: ``kanon route`` runs :class:`ShardRouter`
(:mod:`repro.service.router`) in front of many ``kanon serve`` shards,
consistent-hashing every request onto the shard that owns its
instance/state key via :class:`HashRing` (:mod:`repro.service.hashring`)
so no instance is ever solved twice across the fleet.  Shard and router
share one admission function (:func:`repro.service.server.admit`) and
one TCP front end (:mod:`repro.service.wire`).  See ``docs/service.md``
for the protocol and the routing semantics.
"""

from repro.service.cache import CacheStats, SolutionCache
from repro.service.client import ServiceClient
from repro.service.hashring import HashRing
from repro.service.router import (
    DEFAULT_ROUTER_PORT,
    RouterServer,
    ShardRouter,
    merge_shard_stats,
)
from repro.service.server import (
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    AnonymizationService,
    ServiceError,
)
from repro.service.wire import ServiceServer, serve

__all__ = [
    "AnonymizationService",
    "CacheStats",
    "DEFAULT_PORT",
    "DEFAULT_ROUTER_PORT",
    "HashRing",
    "PROTOCOL_VERSION",
    "RouterServer",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardRouter",
    "SolutionCache",
    "merge_shard_stats",
    "serve",
]
