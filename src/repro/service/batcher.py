"""Micro-batching: coalesce concurrent requests into planned batches.

A *batch* of queries planned together costs a fraction of the same
queries run independently — sketch dedup answers repeated queries once,
and shared Zipf-head lists are read once.  An online service
receives exactly that workload, just spread across concurrent clients
instead of one caller.  The micro-batcher recreates the batch boundary
at the server: an arriving request is sketched immediately and parked
in a bounded queue.

The dispatch loop never waits for company.  It takes the first queued
request, adds whatever else is already queued (up to ``max_batch``),
and runs each same-``(theta, verify)`` group as one
:class:`~repro.core.search.BatchPlan`, planned from the requests'
arrival sketches, through one
:meth:`~repro.query.executor.BatchQueryExecutor.execute_plan` call
*inline on the event loop*.  Requests that arrive while a batch runs
queue up and form the next batch, so batches coalesce under load and
stay at size one when the server is idle.  A search holds the
interpreter lock throughout, so a worker thread would buy no
parallelism.

Admission control and deadlines live here too: a full queue sheds the
request immediately (the caller maps that to HTTP 429), and a request
whose deadline passes while still queued is skipped at dispatch time —
its planning and execution never happen.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.query.executor import BatchQueryExecutor
from repro.query.results import BatchResult
from repro.service.protocol import RequestShedError, ServiceClosedError
from repro.service.stats import ServiceStats


@dataclass
class _Pending:
    """One admitted single-query request waiting for its batch."""

    tokens: np.ndarray
    sketch: np.ndarray
    theta: float
    verify: bool
    future: asyncio.Future
    enqueued: float
    deadline: float


class MicroBatcher:
    """Coalesce concurrent in-flight requests into executor batches.

    Parameters
    ----------
    searcher:
        The shared searcher, normally from
        :meth:`~repro.engine.NearDupEngine.cached_searcher` so every
        batch reads through one thread-safe LRU cache.
    max_batch:
        Upper bound on requests coalesced into one dispatch, and so on
        the searches one dispatch holds the event loop for.
    max_queue:
        Admission bound: requests beyond this many queued are shed
        with :class:`~repro.service.protocol.RequestShedError`.
    """

    def __init__(
        self,
        searcher,
        *,
        max_batch: int = 16,
        max_queue: int = 128,
        stats: ServiceStats | None = None,
    ) -> None:
        if max_batch < 1:
            raise InvalidParameterError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise InvalidParameterError(f"max_queue must be >= 1, got {max_queue}")
        self.searcher = searcher
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.stats = stats or ServiceStats()
        self.executor = BatchQueryExecutor(searcher)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[_Pending] | None = None
        self._gate: asyncio.Event | None = None
        self._runner: asyncio.Task | None = None
        self._batch_calls: set[asyncio.Future] = set()
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop and start the dispatch task."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._gate = asyncio.Event()
        self._gate.set()
        self._runner = asyncio.create_task(self._run(), name="micro-batcher")

    async def close(self, *, drain: bool = True) -> None:
        """Refuse new requests; optionally finish the queued ones.

        With ``drain=True`` (graceful shutdown) every already-admitted
        request is still executed and answered; with ``drain=False``
        queued requests fail with :class:`ServiceClosedError`.  Either
        way, client batches still running finish before the executor
        closes.
        """
        self._closed = True
        assert self._queue is not None and self._runner is not None
        if drain:
            self._gate.set()
            while not self._queue.empty():
                await asyncio.sleep(0.005)
        self._runner.cancel()
        try:
            await self._runner
        except asyncio.CancelledError:
            pass
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if not item.future.done():
                item.future.set_exception(ServiceClosedError("service is shutting down"))
        if self._batch_calls:
            await asyncio.gather(*self._batch_calls, return_exceptions=True)
        self.executor.close()

    def pause(self) -> None:
        """Hold dispatch (requests keep queueing).  Test/benchmark hook."""
        assert self._gate is not None
        self._gate.clear()

    def resume(self) -> None:
        assert self._gate is not None
        self._gate.set()

    @property
    def depth(self) -> int:
        """Requests currently queued (not yet dispatched)."""
        return self._queue.qsize() if self._queue is not None else 0

    # -- submission -----------------------------------------------------
    async def submit(
        self,
        tokens: np.ndarray,
        theta: float,
        *,
        verify: bool = False,
        timeout: float | None = None,
    ) -> tuple[object, int, float]:
        """Admit one query; returns ``(SearchResult, batch_size, queue_wait_s)``.

        ``queue_wait_s`` runs from admission to the start of the batch
        that answered the query.  Raises :class:`RequestShedError` when
        the queue is full, :class:`ServiceClosedError` when draining,
        and :class:`asyncio.TimeoutError` when ``timeout`` elapses first
        (if still queued, the request is skipped before any planning
        work happens).
        """
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        assert self._loop is not None and self._queue is not None
        tokens = np.asarray(tokens, dtype=np.uint32)
        now = self._loop.time()
        # Sketch on arrival, so planning the batch sketches nothing.
        item = _Pending(
            tokens=tokens,
            sketch=self.searcher.family.sketch(tokens),
            theta=float(theta),
            verify=bool(verify),
            future=self._loop.create_future(),
            enqueued=now,
            deadline=math.inf if timeout is None else now + timeout,
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.stats.record(requests=1, shed=1)
            raise RequestShedError(
                f"request queue is full ({self.max_queue} waiting)"
            ) from None
        self.stats.record(requests=1)
        return await asyncio.wait_for(item.future, timeout)

    async def submit_batch(
        self,
        queries: list[np.ndarray],
        theta: float,
        *,
        verify: bool = False,
        timeout: float | None = None,
    ) -> BatchResult:
        """Run a client-supplied batch on the loop's default executor.

        The batch bypasses the coalescing queue — it already *is* a
        batch — but shares the list cache and the stats block with
        micro-batched traffic.  It runs off the loop, as ``/ingest``
        does, so one long client batch does not stall ``/search``.
        """
        if self._closed:
            raise ServiceClosedError("service is shutting down")
        assert self._loop is not None
        self.stats.record(requests=len(queries))
        self.stats.record_batch(len(queries))
        queries = [np.asarray(query, dtype=np.uint32) for query in queries]
        call = self._loop.run_in_executor(
            None, lambda: self.executor.execute(queries, theta, verify=verify)
        )
        self._batch_calls.add(call)
        call.add_done_callback(self._batch_calls.discard)
        # A deadline abandons the wait, not the call, so close() still
        # waits for the thread before it closes the executor.
        batch = await asyncio.wait_for(asyncio.shield(call), timeout)
        self.stats.record(
            lists_loaded=batch.stats.lists_loaded, point_reads=batch.stats.point_reads
        )
        return batch

    # -- dispatch loop --------------------------------------------------
    async def _run(self) -> None:
        assert self._queue is not None and self._gate is not None
        while True:
            batch = [await self._queue.get()]
            try:
                # The gate sits between dequeue and dispatch so pause()
                # (tests, benchmarks) holds a fully observable state:
                # one request held here, the rest queued behind
                # admission control.
                await self._gate.wait()
                while len(batch) < self.max_batch and not self._queue.empty():
                    batch.append(self._queue.get_nowait())
            finally:
                # Dispatch even when the loop is cancelled at the gate
                # (graceful drain): admitted requests are never dropped.
                self._dispatch(batch)
            # Yield between batches, so answered requests can write
            # their responses before the next batch holds the loop.
            await asyncio.sleep(0)

    def _dispatch(self, batch: list[_Pending]) -> None:
        assert self._loop is not None
        now = self._loop.time()
        # Same-parameter requests coalesce; a mixed batch runs one
        # executor call per (theta, verify) group, in turn.
        groups: dict[tuple[float, bool], list[_Pending]] = {}
        for item in batch:
            # A request whose deadline passed is skipped: its planning
            # and execution never happen.  The deadline is checked here,
            # not only by submit()'s timer, because a running batch
            # holds the loop and with it that timer.
            if now >= item.deadline and not item.future.done():
                item.future.set_exception(asyncio.TimeoutError())
            if not item.future.done():
                groups.setdefault((item.theta, item.verify), []).append(item)
        for group in groups.values():
            started = self._loop.time()
            self.stats.record_batch(len(group))
            try:
                result = self._execute(group)
            except Exception as exc:  # noqa: BLE001 - forwarded to every caller
                for item in group:
                    self.stats.record(errors=1)
                    item.future.set_exception(exc)
                continue
            self.stats.record(
                lists_loaded=result.stats.lists_loaded,
                point_reads=result.stats.point_reads,
            )
            for item, answer in zip(group, result.results):
                item.future.set_result((answer, len(group), started - item.enqueued))

    def _execute(self, items: list[_Pending]) -> BatchResult:
        """Plan one group from its pre-computed sketches, then run it."""
        plan = self.searcher.plan(
            [item.tokens for item in items],
            items[0].theta,
            verify=items[0].verify,
            sketches=[item.sketch for item in items],
        )
        return self.executor.execute_plan(plan)
