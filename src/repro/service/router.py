"""Scatter-gather router: one endpoint over a fleet of shard servers.

A corpus too big for one machine is split into contiguous text-id
shards (:func:`~repro.index.sharded.shard_ranges`), each served by its
own :class:`~repro.service.server.SearchService`.  The router owns the
:class:`~repro.service.shardmap.ShardMap` and presents the union as a
single service speaking the exact same protocol: a ``/search`` request
fans out to every shard concurrently over pooled keep-alive
connections (:class:`~repro.service.aioclient.AsyncServiceClient`),
the per-shard answers come back numbered in each shard's local id
space, and the router adds each shard's ``first_text`` offset and
concatenates in shard order — matches are sorted by local id within a
shard and shard ranges ascend, so the merged list is globally sorted
without re-sorting, byte-identical to what one in-process
:class:`~repro.index.sharded.ShardedSearcher` over the same partition
would serve.

Latency is the point: the fleet answers in ``max`` (slowest shard)
rather than ``sum`` (a serial loop over shards), so a fan-out of N
approaches N-fold throughput for shard-bound queries.  But ``max``
also means one slow or dead copy stalls *every* query — so each shard
may list several **replicas** (format-2 shard maps), identical copies
the router balances across:

* every replica gets health tracking — an EWMA of observed latency and
  a consecutive-failure circuit breaker with half-open probing
  (:mod:`repro.service.replicas`);
* each sub-request picks a replica by policy (``pick-first``,
  ``round-robin``, or ``power-of-two`` on in-flight count x EWMA);
* a failed pick **fails over** to the next untried replica inside the
  same shard deadline;
* with hedging enabled, a sub-request still unanswered after the
  shard's hedge delay (fixed, or auto-derived from its observed p95)
  is *also* sent to a second replica, the first answer wins, and the
  loser is cancelled.

The router routes reads only — ``/search`` and ``/batch``, one scatter
path for both — so every sub-request is safe to fail over and hedge.

Replicas of one shard serve identical data, so none of this changes
the bytes of a routed ``result`` — which replica answered, whether a
hedge won, and which policy chose are all invisible to the caller.

The failure model follows from fan-out too — any shard can miss the
deadline, and a router that failed the whole query on one slow shard
would multiply the fleet's tail.  Instead each shard gets its own
deadline carved from the request budget, and when ``partial_results``
is on (default) the router returns what the healthy shards found with
``"partial": true`` and the list of shards that failed, letting the
caller decide whether a subset of the corpus is good enough.

Queries must be token ids (``"query"``): the router owns no tokenizer,
and shard engines' tokenizers are not guaranteed to agree, so
``"text"`` bodies are rejected with 400 rather than silently answered
against whichever vocabulary a shard happens to have.
"""

from __future__ import annotations

import asyncio
import logging
import random
import signal
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.service.aioclient import AsyncServiceClient
from repro.service.protocol import (
    ProtocolError,
    RemoteError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    error_body,
    parse_flag,
    parse_hedge_after_ms,
    parse_policy,
    parse_theta,
    parse_timeout,
    parse_tokens,
    stats_from_wire,
    stats_to_wire,
)
from repro.service.replicas import ReplicaSet, ReplicaState
from repro.service.server import HttpServiceBase
from repro.service.shardmap import (
    Replica,
    ShardEntry,
    ShardMap,
    with_added_replicas,
)
from repro.service.stats import RouterStats, ServiceStats

logger = logging.getLogger(__name__)

SHARD_MAP_FILE = "shardmap.json"

#: Budget of the ``/health`` and ``/stats`` probes of every replica.
PROBE_TIMEOUT_S = 2.0


@dataclass
class RouterConfig:
    """Tuning knobs of one router instance (see ``docs/SERVICE.md``)."""

    host: str = "127.0.0.1"
    port: int = 8080  #: 0 = ephemeral (the bound port lands in ``router.port``)
    timeout_ms: float = 30000.0  #: default end-to-end budget per request
    shard_timeout_ms: float | None = None  #: per-shard cap; None = whole budget
    max_connections: int = 16  #: pooled keep-alive connections per replica
    partial_results: bool = True  #: answer from healthy shards on failure
    policy: str = "pick-first"  #: replica selection (see replicas.POLICIES)
    hedge_after_ms: float | None = None  #: None off; 0 auto (p95); >0 fixed
    policy_seed: int | None = None  #: seed the power-of-two rng (tests/bench)


class RouterService(HttpServiceBase):
    """The scatter-gather front-end over one :class:`ShardMap`."""

    def __init__(self, shard_map: ShardMap, config: RouterConfig | None = None):
        super().__init__()
        self.shard_map = shard_map
        self.config = config or RouterConfig()
        parse_policy(self.config.policy)
        parse_hedge_after_ms(self.config.hedge_after_ms)
        self.stats = RouterStats()
        self._replicas: dict[str, ReplicaSet] = {}

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        config = self.config
        for entry in self.shard_map:
            states = []
            for replica in entry.replicas:
                state = ReplicaState(replica)
                state.client = AsyncServiceClient(
                    replica.host,
                    replica.port,
                    timeout=config.timeout_ms / 1e3,
                    max_connections=config.max_connections,
                )
                states.append(state)
            rng = (
                random.Random(config.policy_seed)
                if config.policy_seed is not None
                else random.Random()
            )
            self._replicas[entry.name] = ReplicaSet(
                states, policy=config.policy, rng=rng
            )
        await self._start_listener()
        logger.info(
            "routing %d texts across %d shards (%d replicas, policy=%s, "
            "hedge=%s) on %s:%d",
            self.shard_map.num_texts,
            len(self.shard_map),
            self.shard_map.num_replicas,
            config.policy,
            config.hedge_after_ms,
            config.host,
            self.port,
        )

    async def shutdown(self) -> None:
        await self._close_listener()
        for replica_set in self._replicas.values():
            for state in replica_set.replicas:
                await state.client.close()
        self._replicas.clear()

    # -- replica orchestration ------------------------------------------
    @staticmethod
    def _retryable(exc: BaseException) -> bool:
        """Whether another replica might answer where this one failed.

        Transport errors, deadlines, sheds, and 5xx are replica-local;
        4xx protocol errors are request-shaped and identical everywhere.
        """
        if isinstance(exc, (asyncio.TimeoutError, TimeoutError, OSError)):
            return True
        if isinstance(exc, ServiceError):
            return exc.status in (429, 500, 502, 503, 504)
        return False

    async def _ask_replica(
        self,
        replica_set: ReplicaSet,
        state: ReplicaState,
        path: str,
        body: dict[str, Any],
        deadline: float,
    ) -> tuple[dict[str, Any], float]:
        """One exchange with one replica, with health bookkeeping."""
        loop = asyncio.get_running_loop()
        state.on_pick()
        begin = loop.time()
        try:
            response = await state.client.request(
                "POST", path, body, timeout=deadline
            )
        except asyncio.CancelledError:
            state.on_cancelled(loop.time() - begin)
            raise
        except Exception as exc:
            if state.on_failure(breaker=self._retryable(exc)):
                self.stats.record(breaker_trips=1)
            raise
        seconds = loop.time() - begin
        state.on_success(seconds)
        replica_set.record_latency(seconds)
        return response, seconds

    async def _ask_shard(
        self,
        entry: ShardEntry,
        path: str,
        body: dict[str, Any],
        deadline: float,
    ) -> tuple[dict[str, Any], float]:
        """One shard's answer, via whichever replica delivers it first.

        Picks a replica by policy; on a retryable failure fails over to
        the next untried replica; with hedging enabled, fires the same
        request at a second replica once the hedge delay passes and
        races them, cancelling the loser.  The caller bounds the whole
        dance with the shard deadline (``asyncio.wait_for``).
        """
        replica_set = self._replicas[entry.name]
        first = replica_set.pick()
        assert first is not None  # non-empty set, nothing excluded
        tasks: dict[asyncio.Task, ReplicaState] = {
            asyncio.ensure_future(
                self._ask_replica(replica_set, first, path, body, deadline)
            ): first
        }
        tried = [first]
        hedge_targets: set[int] = set()
        hedgeable = self.config.hedge_after_ms is not None and len(replica_set) > 1
        hedged = False
        errors: list[BaseException] = []
        try:
            while True:
                timeout = None
                if hedgeable and not hedged and len(tried) < len(replica_set):
                    timeout = replica_set.hedge_delay(self.config.hedge_after_ms)
                done, _pending = await asyncio.wait(
                    tasks.keys(),
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    # Hedge delay elapsed with the pick still in flight.
                    hedged = True
                    backup = replica_set.pick(exclude=tried)
                    if backup is None:
                        continue
                    tried.append(backup)
                    backup.hedges += 1
                    hedge_targets.add(id(backup))
                    self.stats.record(hedges_fired=1)
                    tasks[
                        asyncio.ensure_future(
                            self._ask_replica(
                                replica_set, backup, path, body, deadline
                            )
                        )
                    ] = backup
                    continue
                for task in done:
                    state = tasks.pop(task)
                    exc = task.exception()
                    if exc is None:
                        if id(state) in hedge_targets:
                            state.hedge_wins += 1
                            self.stats.record(hedge_wins=1)
                        return task.result()
                    errors.append(exc)
                    if not self._retryable(exc):
                        raise exc
                if tasks:
                    continue  # a raced attempt is still in flight
                # Every attempt so far failed: fail over if a replica
                # remains (the breaker may exclude known-bad ones).
                nxt = replica_set.pick(exclude=tried)
                if nxt is None:
                    raise errors[0]
                tried.append(nxt)
                self.stats.record(failovers=1)
                tasks[
                    asyncio.ensure_future(
                        self._ask_replica(replica_set, nxt, path, body, deadline)
                    )
                ] = nxt
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks.keys(), return_exceptions=True)

    # -- scatter-gather core --------------------------------------------
    def _shard_deadline(self, budget: float) -> float:
        """Seconds each shard gets, carved from the request budget."""
        if self.config.shard_timeout_ms is not None:
            return min(budget, self.config.shard_timeout_ms / 1e3)
        return budget

    async def _fan_out(
        self, path: str, body: dict[str, Any], timeout: float
    ) -> tuple[list[tuple[ShardEntry, dict[str, Any]]], list[dict[str, Any]]]:
        """Ask every shard; return (successes in shard order, failures).

        Each sub-request runs under the per-shard deadline; a shard
        whose replicas all time out, refuse, or error lands in the
        failure list (name + error + status) instead of poisoning the
        gather.
        """
        loop = asyncio.get_running_loop()
        deadline = self._shard_deadline(timeout)
        shard_body = dict(body)
        shard_body["timeout_ms"] = deadline * 1e3

        async def ask(entry: ShardEntry):
            begin = loop.time()
            response, _ = await asyncio.wait_for(
                self._ask_shard(entry, path, shard_body, deadline), deadline
            )
            return response, loop.time() - begin

        outcomes = await asyncio.gather(
            *(ask(entry) for entry in self.shard_map), return_exceptions=True
        )
        successes: list[tuple[ShardEntry, dict[str, Any]]] = []
        failures: list[dict[str, Any]] = []
        latencies: list[float] = []
        for entry, outcome in zip(self.shard_map, outcomes):
            if isinstance(outcome, BaseException):
                if isinstance(outcome, (asyncio.TimeoutError, TimeoutError)):
                    reason, code = "shard deadline exceeded", 504
                elif isinstance(outcome, ServiceError):
                    reason, code = str(outcome), outcome.status
                elif isinstance(outcome, OSError):
                    reason, code = f"shard unreachable: {outcome}", 502
                else:
                    raise outcome
                failures.append(
                    {"shard": entry.name, "error": reason, "code": code}
                )
            else:
                response, seconds = outcome
                successes.append((entry, response))
                latencies.append(seconds)
        self.stats.record(
            fanout_requests=len(latencies) + len(failures),
            fanout_failures=len(failures),
            shard_latency=latencies,
        )
        if not successes:
            codes = {failure["code"] for failure in failures}
            detail = "; ".join(
                f"{failure['shard']}: {failure['error']}" for failure in failures
            )
            if codes == {504}:
                raise RequestTimeoutError(f"all shards failed ({detail})")
            raise RemoteError(f"all shards failed ({detail})", 502)
        if failures and not self.config.partial_results:
            worst = failures[0]
            raise RemoteError(
                f"shard {worst['shard']} failed: {worst['error']}",
                worst["code"],
            )
        return successes, failures

    @staticmethod
    def _merge_results(
        shard_results: list[tuple[ShardEntry, dict[str, Any]]],
    ) -> dict[str, Any]:
        """Fuse per-shard ``result`` blocks into one global block.

        Text ids are re-numbered by each shard's ``first_text``;
        concatenation in shard order keeps matches and spans globally
        sorted (contiguous ascending ranges), so the output matches
        ``result_to_wire`` of a direct sharded search byte for byte.
        """
        matches: list[dict[str, Any]] = []
        spans: list[list[int]] = []
        k = beta = t = 0
        theta = 0.0
        for entry, result in shard_results:
            k, theta, beta, t = (
                result["k"],
                result["theta"],
                result["beta"],
                result["t"],
            )
            for match in result["matches"]:
                matches.append(
                    {
                        "text_id": match["text_id"] + entry.first_text,
                        "rectangles": match["rectangles"],
                    }
                )
            for span in result["spans"]:
                spans.append([span[0] + entry.first_text, span[1], span[2]])
        return {
            "k": k,
            "theta": theta,
            "beta": beta,
            "t": t,
            "num_texts": len(matches),
            "matches": matches,
            "spans": spans,
        }

    @staticmethod
    def _merge_stats(stats_blocks: list[Any], texts_matched: int) -> dict[str, Any]:
        """Fold per-shard ``server.stats`` dicts via ``QueryStats.merge``."""
        merged = None
        for block in stats_blocks:
            shard_stats = stats_from_wire(block)
            if merged is None:
                merged = shard_stats
            else:
                merged.merge(shard_stats)
        if merged is None:
            return {}
        merged.texts_matched = texts_matched
        return stats_to_wire(merged)

    # -- routing --------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        try:
            if path == "/health" and method == "GET":
                return 200, await self._health()
            if path == "/stats" and method == "GET":
                return 200, await self._stats()
            if path == "/search" and method == "POST":
                if self._draining:
                    raise ServiceClosedError("router is draining")
                return 200, await self._search(self._decode(body))
            if path == "/batch" and method == "POST":
                if self._draining:
                    raise ServiceClosedError("router is draining")
                return 200, await self._batch(self._decode(body))
            if path in ("/health", "/stats", "/search", "/batch"):
                raise ProtocolError(f"{method} not allowed on {path}", status=405)
            raise ProtocolError(f"unknown path {path!r}", status=404)
        except Exception as exc:  # noqa: BLE001 - mapped to a JSON error
            status, payload = error_body(exc)
            self.stats.record(requests=1, errors=1)
            if status >= 500 and not isinstance(exc, ServiceError):
                logger.exception("routed request failed")
            return status, payload

    def _validated(self, body: dict[str, Any]) -> tuple[dict[str, Any], float]:
        """Validate at the router so bad requests never fan out."""
        if "text" in body:
            raise ProtocolError(
                "the router has no tokenizer; send token ids in 'query'"
            )
        timeout = parse_timeout(body, self.config.timeout_ms)
        forward: dict[str, Any] = {}
        if "theta" in body:
            forward["theta"] = parse_theta(body, 0.8)
        if parse_flag(body, "verify"):
            forward["verify"] = True
        return forward, timeout

    async def _scatter(
        self, path: str, forward: dict[str, Any], timeout: float, count: int
    ) -> dict[str, Any]:
        """Fan ``count`` queries out to every shard; merge them by position.

        A shard's ``/search`` answer is read as a one-query batch, so
        both endpoints share the merge, the counters, and the envelope:
        ``results`` and ``server.stats`` hold one entry per query, and
        ``partial`` / ``failed_shards`` appear when a shard failed.
        """
        loop = asyncio.get_running_loop()
        begin = loop.time()
        successes, failures = await self._fan_out(path, forward, timeout)
        answers = []
        for entry, response in successes:
            server = response["server"]
            if path == "/search":
                answers.append((entry, [response["result"]], [server.get("stats")]))
            else:
                answers.append(
                    (entry, response["results"], server.get("stats", [None] * count))
                )
        results = []
        stats = []
        for position in range(count):
            merged = self._merge_results(
                [(entry, shard_results[position]) for entry, shard_results, _ in answers]
            )
            results.append(merged)
            stats.append(
                self._merge_stats(
                    [shard_stats[position] for _, _, shard_stats in answers],
                    merged["num_texts"],
                )
            )
        total = loop.time() - begin
        self.stats.record(
            requests=1, completed=1, partial=int(bool(failures)), latency=(total,)
        )
        payload: dict[str, Any] = {
            "ok": True,
            "results": results,
            "server": {
                "shards_asked": len(self.shard_map),
                "shards_answered": len(successes),
                "total_ms": 1e3 * total,
                "stats": stats,
            },
        }
        if failures:
            payload["partial"] = True
            payload["failed_shards"] = failures
        return payload

    async def _search(self, body: dict[str, Any]) -> dict[str, Any]:
        forward, timeout = self._validated(body)
        parse_tokens(body.get("query"))
        forward["query"] = body["query"]
        payload = await self._scatter("/search", forward, timeout, 1)
        payload["result"] = payload.pop("results")[0]
        payload["server"]["stats"] = payload["server"]["stats"][0]
        return payload

    async def _batch(self, body: dict[str, Any]) -> dict[str, Any]:
        forward, timeout = self._validated(body)
        raw = body.get("queries")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("'queries' must be a non-empty list")
        for position, entry in enumerate(raw):
            parse_tokens(entry, field=f"queries[{position}]")
        forward["queries"] = raw
        return await self._scatter("/batch", forward, timeout, len(raw))

    async def _probe_replicas(
        self, ask
    ) -> list[tuple[ShardEntry, list[tuple[ReplicaState, Any]]]]:
        """Best-effort concurrent GET against every replica of every shard."""
        flat: list[tuple[ShardEntry, ReplicaState]] = [
            (entry, state)
            for entry in self.shard_map
            for state in self._replicas[entry.name].replicas
        ]
        outcomes = await asyncio.gather(
            *(ask(state.client, PROBE_TIMEOUT_S) for _, state in flat),
            return_exceptions=True,
        )
        grouped: dict[str, list[tuple[ReplicaState, Any]]] = {}
        for (entry, state), outcome in zip(flat, outcomes):
            grouped.setdefault(entry.name, []).append((state, outcome))
        return [(entry, grouped[entry.name]) for entry in self.shard_map]

    async def _health(self) -> dict[str, Any]:
        probed = await self._probe_replicas(
            lambda client, deadline: client.health(timeout=deadline)
        )
        shards = []
        healthy = 0
        for entry, replica_outcomes in probed:
            replicas = []
            first_ok_detail = None
            for state, outcome in replica_outcomes:
                ok = not isinstance(outcome, BaseException)
                detail = (
                    {
                        "status": outcome.get("status"),
                        "pid": outcome.get("pid"),
                        "texts": outcome.get("texts"),
                    }
                    if ok
                    else str(outcome)
                )
                if ok and first_ok_detail is None:
                    first_ok_detail = detail
                replicas.append(
                    {"endpoint": state.endpoint, "ok": ok, "detail": detail}
                )
            shard_ok = first_ok_detail is not None
            healthy += shard_ok
            shards.append(
                {
                    "name": entry.name,
                    "host": entry.host,
                    "port": entry.port,
                    "first_text": entry.first_text,
                    "count": entry.count,
                    "ok": shard_ok,
                    "replicas_healthy": sum(r["ok"] for r in replicas),
                    "replicas_total": len(replicas),
                    "detail": (
                        first_ok_detail
                        if shard_ok
                        else replicas[0]["detail"]
                    ),
                    "replicas": replicas,
                }
            )
        return {
            "ok": True,
            "role": "router",
            "status": "draining" if self._draining else "serving",
            "texts": self.shard_map.num_texts,
            "shards_healthy": healthy,
            "shards_total": len(self.shard_map),
            "replicas_total": self.shard_map.num_replicas,
            "shards": shards,
        }

    async def _stats(self) -> dict[str, Any]:
        probed = await self._probe_replicas(
            lambda client, deadline: client.stats(timeout=deadline)
        )
        per_shard: dict[str, Any] = {}
        aggregate = dict.fromkeys(ServiceStats.COUNTERS, 0)
        for entry, replica_outcomes in probed:
            replicas: dict[str, Any] = {}
            shard_service = None
            for state, outcome in replica_outcomes:
                if isinstance(outcome, BaseException):
                    replicas[state.endpoint] = {
                        "ok": False,
                        "error": str(outcome),
                    }
                    continue
                service = outcome.get("service", {})
                replicas[state.endpoint] = {"ok": True, "service": service}
                if shard_service is None:
                    shard_service = service
                for key in aggregate:
                    aggregate[key] += int(service.get(key, 0))
            block: dict[str, Any] = {
                "ok": shard_service is not None,
                "replicas": replicas,
            }
            if shard_service is not None:
                block["service"] = shard_service
            else:
                block["error"] = next(iter(replicas.values())).get(
                    "error", "no replica answered"
                )
            per_shard[entry.name] = block
        routing = {
            name: replica_set.snapshot()
            for name, replica_set in self._replicas.items()
        }
        pooled = {
            name: {
                state.endpoint: state.client.pooled_connections
                for state in replica_set.replicas
            }
            for name, replica_set in self._replicas.items()
        }
        return {
            "ok": True,
            "router": self.stats.snapshot(),
            "aggregate": aggregate,
            "shards": per_shard,
            "routing": routing,
            "pooled_connections": pooled,
            "config": asdict(self.config),
        }


# ----------------------------------------------------------------------
# Fleet building and serving
# ----------------------------------------------------------------------
def build_shard_fleet(
    engine,
    root: str | Path,
    *,
    num_shards: int = 4,
    host: str = "127.0.0.1",
    base_port: int = 8101,
    replicas_per_shard: int = 1,
) -> ShardMap:
    """Split a built engine into ``num_shards`` saved shard engines.

    Writes ``root/shard<i>/`` (one full saved engine each, loadable by
    ``repro-cli serve``) plus ``root/shardmap.json``.  The partition is
    :func:`~repro.index.sharded.shard_ranges` — the same ceil-division
    ``ShardedIndex.build`` uses — so a router over this fleet and an
    in-process ``ShardedSearcher`` over the same corpus agree exactly.

    ``replicas_per_shard > 1`` emits a format-2 map listing that many
    endpoints per shard (replica ``r`` of shard ``i`` on ``base_port +
    i * replicas_per_shard + r``); every replica serves the *same*
    ``shard<i>/`` directory, so no extra index copies are written.
    """
    import numpy as np

    from repro.corpus.corpus import InMemoryCorpus, infer_vocab_size
    from repro.engine import NearDupEngine
    from repro.exceptions import InvalidParameterError
    from repro.index.builder import build_memory_index
    from repro.index.sharded import shard_ranges

    if replicas_per_shard <= 0:
        raise InvalidParameterError(
            f"replicas_per_shard must be positive, got {replicas_per_shard}"
        )
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    family = engine.index.family
    t = engine.index.t
    vocab_size = infer_vocab_size(engine.corpus)
    entries = []
    for shard_id, (start, count) in enumerate(
        shard_ranges(len(engine.corpus), num_shards)
    ):
        local = InMemoryCorpus(
            [np.asarray(engine.corpus[start + offset]) for offset in range(count)]
        )
        index = build_memory_index(
            local, family, t, vocab_size=vocab_size
        )
        shard_engine = NearDupEngine(
            local, index, tokenizer=engine.tokenizer, codec=engine.codec
        )
        shard_engine.save(root / f"shard{shard_id}")
        entries.append(
            ShardEntry(
                name=f"shard{shard_id}",
                first_text=start,
                count=count,
                replicas=tuple(
                    Replica(host, base_port + shard_id * replicas_per_shard + r)
                    for r in range(replicas_per_shard)
                ),
            )
        )
    shard_map = ShardMap(entries)
    shard_map.save(root / SHARD_MAP_FILE)
    return shard_map


def discover_shard_fleet(
    root: str | Path,
    *,
    host: str = "127.0.0.1",
    base_port: int = 8101,
    replicas_per_shard: int = 1,
) -> ShardMap:
    """A :class:`ShardMap` for a ``root/shard<i>/`` layout.

    Prefers an existing ``root/shardmap.json``; otherwise enumerates
    the shard directories, reads each saved corpus's length, and
    assigns deterministic ports — then writes the map for the router.
    When ``replicas_per_shard`` asks for more replicas than the map
    has, the map is grown in place (existing endpoints keep their
    ports) and re-saved.
    """
    from repro.corpus.store import DiskCorpus
    from repro.exceptions import InvalidParameterError

    root = Path(root)
    map_path = root / SHARD_MAP_FILE
    if map_path.exists():
        shard_map = ShardMap.load(map_path)
        if any(
            len(entry.replicas) < replicas_per_shard for entry in shard_map
        ):
            shard_map = with_added_replicas(
                shard_map, replicas_per_shard, base_port=base_port
            )
            shard_map.save(map_path)
        return shard_map
    entries = []
    first_text = 0
    shard_id = 0
    while (root / f"shard{shard_id}").is_dir():
        shard_dir = root / f"shard{shard_id}"
        count = len(DiskCorpus(shard_dir / "corpus"))
        entries.append(
            ShardEntry(
                name=f"shard{shard_id}",
                first_text=first_text,
                count=count,
                replicas=tuple(
                    Replica(
                        host, base_port + shard_id * replicas_per_shard + r
                    )
                    for r in range(replicas_per_shard)
                ),
            )
        )
        first_text += count
        shard_id += 1
    if not entries:
        raise InvalidParameterError(f"no shard0/ directory under {root}")
    shard_map = ShardMap(entries)
    shard_map.save(map_path)
    return shard_map


def serve_shards(
    root: str | Path,
    *,
    host: str = "127.0.0.1",
    base_port: int = 8101,
    procs: int = 1,
    replicas: int = 1,
    banner: bool = True,
) -> int:
    """Blocking entry point of ``repro-cli serve-shards``.

    Launches one server child process per **replica endpoint** in the
    shard map (each child is the ordinary ``serve`` path, so ``procs >
    1`` gives every replica its own prefork worker fleet); replicas of
    one shard all serve the same ``root/shard<i>/`` directory.  Writes
    ``shardmap.json`` (growing it when ``replicas`` asks for more
    endpoints than it lists) and supervises until interrupted — Ctrl-C
    is forwarded so each child drains gracefully.
    """
    import multiprocessing

    from repro.service.server import ServiceConfig, serve

    shard_map = discover_shard_fleet(
        root, host=host, base_port=base_port, replicas_per_shard=replicas
    )
    root = Path(root)
    context = multiprocessing.get_context("fork")
    children: list = []
    for entry in shard_map:
        for replica in entry.replicas:
            config = ServiceConfig(
                host=replica.host,
                port=replica.port,
                procs=procs,
            )
            child = context.Process(
                target=serve,
                args=(str(root / entry.name),),
                kwargs={"config": config, "banner": False},
                name=f"repro-{entry.name}-{replica.port}",
            )
            child.start()
            children.append(child)
    if banner:
        ports = ", ".join(
            str(replica.port)
            for entry in shard_map
            for replica in entry.replicas
        )
        print(
            f"repro shard fleet: {len(shard_map)} shards x "
            f"{shard_map.num_replicas} replica endpoints "
            f"({shard_map.num_texts} texts) on {host}:[{ports}]; "
            f"map at {root / SHARD_MAP_FILE}; Ctrl-C drains and exits"
        )
    try:
        for child in children:
            child.join()
    except KeyboardInterrupt:
        for child in children:
            if child.pid is not None and child.is_alive():
                try:
                    import os

                    os.kill(child.pid, signal.SIGINT)
                except ProcessLookupError:
                    pass
        for child in children:
            child.join()
    return 0


async def _route_until_cancelled(router: RouterService, banner: bool) -> None:
    await router.start()
    if banner:
        print(
            f"repro router: {len(router.shard_map)} shards / "
            f"{router.shard_map.num_replicas} replicas / "
            f"{router.shard_map.num_texts} texts on "
            f"{router.config.host}:{router.port} "
            f"(policy={router.config.policy}, "
            f"hedge_after_ms={router.config.hedge_after_ms}); "
            "Ctrl-C drains and exits"
        )
    try:
        await router.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await router.shutdown()


def route(
    shard_map_path: str | Path,
    *,
    config: RouterConfig | None = None,
    banner: bool = True,
) -> int:
    """Blocking entry point of ``repro-cli route``.

    Loads ``shardmap.json`` (or a directory containing one) and serves
    the scatter-gather front-end until interrupted.
    """
    path = Path(shard_map_path)
    if path.is_dir():
        path = path / SHARD_MAP_FILE
    shard_map = ShardMap.load(path)
    router = RouterService(shard_map, config)
    try:
        asyncio.run(_route_until_cancelled(router, banner))
    except KeyboardInterrupt:
        pass
    return 0


def main() -> None:  # pragma: no cover - exercised via the CLI
    sys.exit(route(sys.argv[1]))
