"""Prefork multi-worker serving over one shared, zero-copy index mapping.

The query path is embarrassingly parallel across requests, but one
asyncio process tops out near single-core throughput: every fused
sweep kernel runs under one GIL.  The prefork server scales the same
service across cores the classic Unix way:

* the supervisor loads the engine **once** — payload and directory are
  ``mmap``-ed (:mod:`repro.index.sidecar`), so the index costs one
  page-cache copy no matter how many workers serve it;
* it binds **one** listening socket and forks N workers; each worker
  runs the unmodified :class:`~repro.service.server.SearchService`
  (asyncio front-end + micro-batcher) with an accept loop on the
  shared socket, so the kernel hands each connection to exactly one
  worker;
* a watcher thread respawns any worker that dies (the replacement
  forks from the supervisor, so it inherits the warm mapping and the
  listening socket; its stats slot restarts from zero);
* ``stop()`` propagates graceful drain — SIGTERM to every worker, each
  finishes its admitted requests through the normal
  :meth:`~repro.service.server.SearchService.shutdown` path — and
  escalates to SIGKILL only past the drain timeout;
* each worker's :class:`~repro.service.stats.ServiceStats` is built
  over its own row of one shared-memory block (:class:`StatsSlots`),
  so ``/stats`` answered by *any* worker carries a ``cluster`` view of
  the fleet: the same report as the ``service`` block, run over the
  live rows summed.

Fork start method only (the engine and socket must be inherited, not
pickled), which is also what keeps the index zero-copy: forked page
tables point at the supervisor's mapping.
"""

from __future__ import annotations

import asyncio
import http.client
import logging
import multiprocessing
import os
import signal
import socket
import threading
import time
from multiprocessing import connection
from typing import Any

import numpy as np

from repro.engine import NearDupEngine
from repro.exceptions import InvalidParameterError
from repro.service.client import ServiceClient
from repro.service.server import SearchService, ServiceConfig
from repro.service.stats import ServiceStats

logger = logging.getLogger(__name__)


class StatsSlots:
    """One shared-memory block of ``ServiceStats`` rows, one per worker.

    The block is a ``multiprocessing.RawArray``.  A worker's stats
    block is built over its own row (:meth:`stats`), so each update
    lands in shared memory as it is made; any worker's ``/stats`` reads
    every row (:meth:`cluster`).  One writer per row and aligned 8-byte
    stores mean no cross-process lock is needed.
    """

    def __init__(self, workers: int) -> None:
        self.workers = int(workers)
        self._array = multiprocessing.RawArray("d", self.workers * ServiceStats.WIDTH)

    def view(self) -> np.ndarray:
        """A ``(workers, width)`` float64 view over the shared block."""
        return np.frombuffer(self._array, dtype=np.float64).reshape(
            self.workers, ServiceStats.WIDTH
        )

    def reset(self, slot: int) -> None:
        self.view()[slot, :] = 0.0

    def stats(self, slot: int, generation: int) -> ServiceStats:
        """Worker ``slot``'s stats block, living in its shared row."""
        at, rows = slot * ServiceStats.WIDTH, memoryview(self._array).cast("B").cast("d")
        return ServiceStats(rows[at : at + ServiceStats.WIDTH], generation=generation)

    def cluster(self) -> dict[str, Any]:
        """The ``cluster`` block of ``/stats``: the fleet's live rows summed."""
        return ServiceStats.cluster(np.array(self.view()))


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------
def _worker_main(
    engine: NearDupEngine,
    config: ServiceConfig,
    sock: socket.socket,
    slots: StatsSlots,
    slot: int,
    generation: int,
) -> None:
    """Forked child entry: one full asyncio server over the shared map."""

    async def serve() -> None:
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            asyncio.get_running_loop().add_signal_handler(signum, stop.set)
        service = SearchService(engine, config, stats=slots.stats(slot, generation))
        service.cluster = slots.cluster
        await service.start(sock=sock)
        await stop.wait()
        await service.shutdown()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - race with the handler
        pass


class PreforkServer:
    """Supervisor: shared socket, N forked workers, respawn, drain.

    Parameters
    ----------
    engine:
        The loaded engine.  Open it *before* constructing the server —
        every worker inherits the mapping through fork.
    config:
        ``config.procs`` workers are spawned, all accepting on one
        shared listening socket.
    """

    def __init__(
        self, engine: NearDupEngine, config: ServiceConfig | None = None
    ) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.procs = max(1, int(self.config.procs))
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-Unix
            raise InvalidParameterError(
                "prefork serving requires the fork start method (Unix)"
            ) from exc
        self.port: int | None = None
        self.slots = StatsSlots(self.procs)
        self._sock: socket.socket | None = None
        self._workers: list = [None] * self.procs
        self._generation = 0
        self._stopping = threading.Event()
        self._watcher: threading.Thread | None = None
        self._wake_r, self._wake_w = None, None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "PreforkServer":
        """Bind, fork the fleet, and start the respawn watcher."""
        self._stopping.clear()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(128)
        self.port = sock.getsockname()[1]
        self._sock = sock
        for slot in range(self.procs):
            self._spawn(slot)
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        self._watcher = threading.Thread(
            target=self._watch, name="prefork-watcher", daemon=True
        )
        self._watcher.start()
        return self

    def _spawn(self, slot: int) -> None:
        self.slots.reset(slot)
        self._generation += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.engine,
                self.config,
                self._sock,
                self.slots,
                slot,
                self._generation,
            ),
            name=f"repro-serve-worker-{slot}",
        )
        process.start()
        self._workers[slot] = process

    def _watch(self) -> None:
        """Respawn crashed workers until the supervisor stops."""
        while not self._stopping.is_set():
            sentinels = [process.sentinel for process in self._workers]
            connection.wait([*sentinels, self._wake_r], timeout=1.0)
            if self._stopping.is_set():
                return
            for slot, process in enumerate(self._workers):
                if process.is_alive() or self._stopping.is_set():
                    continue
                logger.warning(
                    "worker %d (pid %s) exited with code %s; respawning",
                    slot,
                    process.pid,
                    process.exitcode,
                )
                self._spawn(slot)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain: SIGTERM the fleet, join, escalate past timeout."""
        self._stopping.set()
        if self._wake_w is not None:
            try:
                self._wake_w.send(b"x")
            except (OSError, ValueError):  # pragma: no cover
                pass
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
        for process in self._workers:
            if process is not None and process.is_alive():
                os.kill(process.pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for process in self._workers:
            if process is None:
                continue
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - drain overrun
                logger.error("worker pid %s did not drain; killing", process.pid)
                process.kill()
                process.join(5.0)
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        for end in (self._wake_r, self._wake_w):
            if end is not None:
                end.close()
        self._wake_r = self._wake_w = None

    # -- observability --------------------------------------------------
    def worker_pids(self) -> list[int]:
        return [
            process.pid
            for process in self._workers
            if process is not None and process.pid is not None
        ]

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the fleet answers ``/health`` (or raise)."""
        client = ServiceClient("127.0.0.1", self.port, timeout=2.0)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                try:
                    if client.health().get("status") == "serving":
                        return
                except (OSError, http.client.HTTPException):
                    time.sleep(0.05)
            raise TimeoutError(
                f"prefork fleet not healthy within {timeout:.0f}s"
            )
        finally:
            client.close()

    def __enter__(self) -> "PreforkServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- CLI entry ------------------------------------------------------
    def run_forever(self, banner: bool = True) -> int:
        """Blocking supervisor loop: serve until SIGINT/SIGTERM, drain."""
        interrupted = threading.Event()

        def on_signal(signum, frame):  # noqa: ARG001
            interrupted.set()

        previous = {
            signum: signal.signal(signum, on_signal)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        self.start()
        try:
            self.wait_ready()
            if banner:
                print(
                    f"repro service: {self.engine.num_texts} texts / "
                    f"{self.engine.index.num_postings} postings on "
                    f"{self.config.host}:{self.port} across {self.procs} "
                    "workers; "
                    "Ctrl-C drains and exits"
                )
            interrupted.wait()
        finally:
            self.stop()
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return 0
