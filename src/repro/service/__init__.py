"""Online near-duplicate search service.

The paper evaluates the engine offline, but the deployment it argues
for — memorization auditing of a model "serving heavy traffic from
millions of users" — is an always-on service over a prebuilt index.
This package is that layer:

* :mod:`repro.service.protocol` — the JSON wire format (requests,
  serialized :class:`~repro.core.search.SearchResult`, errors);
* :mod:`repro.service.stats` — request counters, fixed-bucket latency
  histograms (p50/p95/p99), batch-size distribution;
* :mod:`repro.service.batcher` — the micro-batcher: a request is
  dispatched on arrival when the server is idle, and requests that
  arrive while a batch runs coalesce (up to ``max_batch``) into the
  next :class:`~repro.query.executor.BatchQueryExecutor` call, so the
  batch planner's sketch dedup and list pinning apply *across
  clients*;
* :mod:`repro.service.server` — a stdlib-only asyncio HTTP/1.1 server
  (``/search``, ``/batch``, ``/health``, ``/stats``) with admission
  control (bounded queue, 429 shed), per-request deadlines, and
  graceful drain on shutdown;
* :mod:`repro.service.client` — a small blocking
  :class:`~repro.service.client.ServiceClient` used by the CLI, the
  tests, and the service benchmark;
* :mod:`repro.service.prefork` — the multi-core deployment shape: a
  supervisor forks N workers over one shared zero-copy index mapping
  and one listening socket, with crash respawn, graceful drain, and
  shared-memory stats aggregated into a ``cluster`` block of
  ``/stats``;
* :mod:`repro.service.shardmap` — which shard owns which texts
  (contiguous text-id ranges + a consistent-hash ring for new keys)
  and which replica endpoints serve each shard, serialized as
  ``shardmap.json`` (format 2; format-1 single-endpoint maps still
  load);
* :mod:`repro.service.aioclient` — the asyncio client with pooled
  keep-alive connections the router fans out through;
* :mod:`repro.service.replicas` — per-replica health (EWMA latency,
  circuit breaker with half-open probing) and the selection policies
  (``pick-first``, ``round-robin``, ``power-of-two``) plus the
  p95-derived hedge-delay bookkeeping;
* :mod:`repro.service.router` — the multi-machine deployment shape: a
  scatter-gather front-end that asks every shard server concurrently
  (balancing each sub-request across the shard's replicas, failing
  over and optionally hedging the slow tail), re-numbers text ids by
  shard offset, merges matches and stats, and answers partially
  (``"partial": true``) when a shard misses its deadline.

Serving is a pure execution strategy: a served query returns exactly
what :meth:`~repro.engine.NearDupEngine.search_raw` returns for the
same query and theta, serialized by
:func:`~repro.service.protocol.result_to_wire`.
"""

from repro.service.aioclient import AsyncServiceClient
from repro.service.batcher import MicroBatcher
from repro.service.client import ServiceClient
from repro.service.protocol import (
    ProtocolError,
    RemoteError,
    RequestShedError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    result_to_wire,
)
from repro.service.prefork import PreforkServer, StatsSlots
from repro.service.replicas import POLICIES, ReplicaSet, ReplicaState
from repro.service.router import (
    RouterConfig,
    RouterService,
    build_shard_fleet,
    discover_shard_fleet,
)
from repro.service.server import SearchService, ServiceConfig, ServiceRunner
from repro.service.shardmap import (
    HashRing,
    Replica,
    ShardEntry,
    ShardMap,
    with_added_replicas,
)
from repro.service.stats import LatencyHistogram, RouterStats, ServiceStats

__all__ = [
    "POLICIES",
    "AsyncServiceClient",
    "HashRing",
    "LatencyHistogram",
    "MicroBatcher",
    "PreforkServer",
    "ProtocolError",
    "RemoteError",
    "Replica",
    "ReplicaSet",
    "ReplicaState",
    "RequestShedError",
    "RequestTimeoutError",
    "RouterConfig",
    "RouterService",
    "RouterStats",
    "SearchService",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceRunner",
    "ServiceStats",
    "ShardEntry",
    "ShardMap",
    "StatsSlots",
    "build_shard_fleet",
    "discover_shard_fleet",
    "result_to_wire",
    "with_added_replicas",
]
