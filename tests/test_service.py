"""End-to-end and unit tests for the online search service (ISSUE 3).

The lifecycle tests run a real :class:`SearchService` on an ephemeral
port (via :class:`ServiceRunner`) over the session's planted index and
talk to it with blocking :class:`ServiceClient` instances from worker
threads — the same shape as real deployment, inside one process.

Determinism for the admission-control tests comes from the batcher's
``pause()`` gate: dispatch is held at a fully observable state (one
request held at the gate, the rest queued), so shed (429) and deadline
(504) behavior is asserted without sleeping on races.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.engine import NearDupEngine
from repro.exceptions import InvalidParameterError
from repro.service import (
    LatencyHistogram,
    MicroBatcher,
    ProtocolError,
    RemoteError,
    RequestShedError,
    RequestTimeoutError,
    ServiceClient,
    ServiceClosedError,
    ServiceConfig,
    ServiceRunner,
    ServiceStats,
    result_to_wire,
)
from repro.service.protocol import (
    error_body,
    parse_flag,
    parse_theta,
    parse_timeout,
    parse_tokens,
)


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def canonical(wire: dict) -> str:
    return json.dumps(wire, sort_keys=True)


@pytest.fixture(scope="module")
def engine(planted_data, planted_index) -> NearDupEngine:
    return NearDupEngine(planted_data.corpus, planted_index)


@pytest.fixture(scope="module")
def queries(planted_data) -> list[np.ndarray]:
    """Prefixes of corpus texts: guaranteed to have near-duplicates."""
    corpus = planted_data.corpus
    return [np.asarray(corpus[text_id])[:40] for text_id in range(6)]


@pytest.fixture(scope="module")
def runner(engine) -> ServiceRunner:
    config = ServiceConfig(
        port=0, max_batch=8, max_queue=64,
        warmup_lists=16, cache_bytes=8 * 1024 * 1024,
    )
    with ServiceRunner(engine, config) as active:
        yield active


@pytest.fixture
def client(runner) -> ServiceClient:
    with ServiceClient(runner.host, runner.port) as active:
        yield active


# ----------------------------------------------------------------------
# Protocol units (no server)
# ----------------------------------------------------------------------
class TestParsing:
    def test_parse_tokens_accepts_ids(self):
        tokens = parse_tokens([3, 1, 4, 1, 5])
        assert tokens.dtype == np.uint32
        assert tokens.tolist() == [3, 1, 4, 1, 5]

    @pytest.mark.parametrize(
        "bad", [None, [], "17 4", [[1, 2], [3]], ["a", "b"], {"q": 1}]
    )
    def test_parse_tokens_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_tokens(bad)

    @pytest.mark.parametrize("bad", [0, -0.5, 1.5, "0.8", None])
    def test_parse_theta_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_theta({"theta": bad}, 0.8)

    def test_parse_theta_default(self):
        assert parse_theta({}, 0.7) == pytest.approx(0.7)

    def test_parse_timeout_converts_ms(self):
        assert parse_timeout({"timeout_ms": 250}, 1000.0) == pytest.approx(0.25)
        with pytest.raises(ProtocolError):
            parse_timeout({"timeout_ms": 0}, 1000.0)

    def test_parse_flag(self):
        assert parse_flag({"verify": True}, "verify") is True
        assert parse_flag({}, "verify") is False
        with pytest.raises(ProtocolError):
            parse_flag({"verify": 1}, "verify")

    def test_error_body_statuses(self):
        assert error_body(RequestShedError("full"))[0] == 429
        assert error_body(RequestTimeoutError("late"))[0] == 504
        assert error_body(ServiceClosedError("bye"))[0] == 503
        assert error_body(ProtocolError("nope", status=404))[0] == 404
        assert error_body(InvalidParameterError("bad"))[0] == 400
        status, payload = error_body(ValueError("boom"))
        assert status == 500
        assert payload["ok"] is False and payload["code"] == 500


class TestWireFormat:
    def test_result_round_trip_is_deterministic(self, engine, queries):
        result = engine.search_raw(queries[0], 0.8)
        first = result_to_wire(result)
        second = result_to_wire(engine.search_raw(queries[0], 0.8))
        assert canonical(first) == canonical(second)
        # Must survive json round-trips untouched (no numpy scalars).
        assert json.loads(json.dumps(first)) == first

    def test_result_fields(self, engine, queries):
        wire = result_to_wire(engine.search_raw(queries[0], 0.8))
        assert set(wire) == {
            "k", "theta", "beta", "t", "num_texts", "matches", "spans"
        }
        assert wire["matches"], "planted query should match"
        rect = wire["matches"][0]["rectangles"][0]
        assert set(rect) == {"i_lo", "i_hi", "j_lo", "j_hi", "count"}


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.mean == 0.0
        assert histogram.to_dict()["count"] == 0

    def test_quantiles_are_monotone_upper_bounds(self):
        histogram = LatencyHistogram()
        for ms in (0.1, 0.4, 1.0, 2.0, 4.0, 100.0):
            histogram.observe(ms / 1e3)
        p50, p95, p99 = (
            histogram.quantile(0.50),
            histogram.quantile(0.95),
            histogram.quantile(0.99),
        )
        assert p50 <= p95 <= p99
        assert p50 >= 0.001  # the median observation was 1 ms
        assert histogram.to_dict()["max_ms"] == pytest.approx(100.0)

    def test_overflow_lands_in_last_bucket(self):
        histogram = LatencyHistogram()
        histogram.observe(10_000.0)
        assert histogram.counts[-1] == 1


class TestServiceStats:
    def test_counters_and_snapshot(self):
        stats = ServiceStats()
        stats.record(requests=1)
        stats.record(requests=1)
        stats.record(requests=1, shed=1)
        stats.record(timeouts=1)
        stats.record_batch(2)
        stats.record(completed=1, latency=[0.004], queue_wait=[0.001])
        snap = stats.snapshot()
        assert snap["requests"] == 3 and snap["shed"] == 1
        assert snap["timeouts"] == 1 and snap["completed"] == 1
        assert snap["mean_batch_size"] == pytest.approx(2.0)
        assert snap["batch_size_distribution"] == {"2": 1}
        assert snap["latency"]["count"] == 1
        json.dumps(snap)  # JSON-ready

    def test_completion_without_queue_wait(self):
        stats = ServiceStats()
        stats.record(completed=1, latency=[0.004])
        snap = stats.snapshot()
        assert snap["completed"] == 1 and snap["latency"]["count"] == 1
        assert snap["queue_wait"]["count"] == 0


# ----------------------------------------------------------------------
# Live service: routing, equality, concurrency
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_health(self, client, engine):
        health = client.health()
        assert health["status"] == "serving"
        assert health["texts"] == engine.num_texts
        assert health["k"] == engine.index.family.k
        assert health["t"] == engine.index.t

    def test_stats_shape(self, client):
        stats = client.stats()
        assert {"service", "cache", "queue_depth", "engine", "config"} <= set(stats)
        assert stats["warmed_lists"] > 0  # startup warmup ran
        assert "hit_rate" in stats["cache"]
        assert stats["config"]["max_batch"] == 8

    def test_unknown_path_404(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client._request("GET", "/search")
        assert excinfo.value.status == 405

    def test_malformed_body_400(self, runner):
        connection = http.client.HTTPConnection(runner.host, runner.port, timeout=5)
        try:
            connection.request(
                "POST", "/search", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["ok"] is False
        finally:
            connection.close()

    def test_bad_query_400(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.search([])
        assert excinfo.value.status == 400

    def test_text_query_needs_tokenizer(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.search("raw text query")
        assert excinfo.value.status == 400
        assert "tokenizer" in str(excinfo.value)


class TestServedEqualsDirect:
    """ISSUE acceptance: served results byte-equal to engine.search."""

    def test_single_query(self, client, engine, queries):
        response = client.search(queries[0], 0.8)
        direct = result_to_wire(engine.search_raw(queries[0], 0.8))
        assert canonical(response["result"]) == canonical(direct)
        server = response["server"]
        assert server["batched_with"] >= 1
        assert server["total_ms"] >= server["queue_ms"] >= 0.0

    @pytest.mark.parametrize("theta", [0.6, 0.9])
    def test_other_thetas(self, client, engine, queries, theta):
        response = client.search(queries[1], theta)
        direct = result_to_wire(engine.search_raw(queries[1], theta))
        assert canonical(response["result"]) == canonical(direct)

    def test_verify_mode(self, client, engine, queries):
        response = client.search(queries[2], 0.8, verify=True)
        direct = result_to_wire(engine.search_raw(queries[2], 0.8, verify=True))
        assert canonical(response["result"]) == canonical(direct)

    def test_batch_endpoint_preserves_order(self, client, engine, queries):
        # Duplicates included: sketch dedup must not reorder or merge
        # the per-query results.
        batch = queries + [queries[0], queries[2]]
        response = client.batch(batch, 0.8)
        assert len(response["results"]) == len(batch)
        assert response["server"]["unique_queries"] <= len(batch)
        for served, tokens in zip(response["results"], batch):
            direct = result_to_wire(engine.search_raw(tokens, 0.8))
            assert canonical(served) == canonical(direct)

    def test_concurrent_clients_all_equal(self, runner, engine, queries):
        direct = {
            position: canonical(result_to_wire(engine.search_raw(tokens, 0.8)))
            for position, tokens in enumerate(queries)
        }
        errors: list[BaseException] = []
        mismatches: list[int] = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                with ServiceClient(runner.host, runner.port) as active:
                    for _ in range(5):
                        position = int(rng.integers(0, len(queries)))
                        response = active.search(queries[position], 0.8)
                        if canonical(response["result"]) != direct[position]:
                            mismatches.append(position)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        assert not mismatches
        snapshot = runner.call(lambda: runner.service.stats.snapshot())
        assert snapshot["completed"] >= 40


# ----------------------------------------------------------------------
# Admission control, deadlines, drain (dedicated gated instance)
# ----------------------------------------------------------------------
@pytest.fixture
def gated(engine) -> ServiceRunner:
    """max_queue=1 service whose dispatch is held at the pause gate."""
    config = ServiceConfig(
        port=0, max_batch=8, max_queue=1,
        warmup_lists=0,
    )
    with ServiceRunner(engine, config) as active:
        active.call(active.service.batcher.pause)
        yield active


def search_in_thread(runner, tokens, **kwargs):
    """Fire one client search on a thread; returns (thread, box)."""
    box: dict = {}

    def call() -> None:
        try:
            with ServiceClient(runner.host, runner.port) as active:
                box["response"] = active.search(tokens, 0.8, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - checked by the test
            box["error"] = exc

    thread = threading.Thread(target=call)
    thread.start()
    return thread, box


class TestAdmissionControl:
    def test_shed_when_queue_full(self, gated, queries):
        service = gated.service
        # First request is dequeued and held at the gate...
        held, held_box = search_in_thread(gated, queries[0])
        assert wait_until(
            lambda: gated.call(lambda: service.stats.requests) == 1
            and gated.call(lambda: service.batcher.depth) == 0
        )
        # ...second fills the queue (max_queue=1)...
        queued, queued_box = search_in_thread(gated, queries[1])
        assert wait_until(lambda: gated.call(lambda: service.batcher.depth) == 1)
        # ...third is shed with 429 while dispatch is still paused.
        with ServiceClient(gated.host, gated.port) as probe:
            with pytest.raises(RequestShedError):
                probe.search(queries[2], 0.8)
        gated.call(service.batcher.resume)
        held.join(30)
        queued.join(30)
        assert "response" in held_box and "response" in queued_box
        snapshot = gated.call(service.stats.snapshot)
        assert snapshot["shed"] == 1
        assert snapshot["completed"] == 2

    def test_deadline_cancels_queued_request(self, gated, queries):
        service = gated.service
        thread, box = search_in_thread(gated, queries[0], timeout_ms=150)
        thread.join(30)
        assert isinstance(box.get("error"), RequestTimeoutError)
        assert gated.call(lambda: service.stats.timeouts) == 1
        # The expired request is skipped at dispatch: nothing batched.
        gated.call(service.batcher.resume)
        assert wait_until(lambda: gated.call(lambda: service.batcher.depth) == 0)
        assert gated.call(lambda: service.stats.batches) == 0
        # The service still answers fresh requests afterwards.
        with ServiceClient(gated.host, gated.port) as probe:
            assert probe.search(queries[0], 0.8)["ok"] is True

    def test_draining_rejects_new_work(self, gated, queries):
        service = gated.service
        gated.call(service.batcher.resume)
        gated.call(lambda: setattr(service, "_draining", True))
        with ServiceClient(gated.host, gated.port) as probe:
            assert probe.health()["status"] == "draining"
            with pytest.raises(ServiceClosedError):
                probe.search(queries[0], 0.8)
        gated.call(lambda: setattr(service, "_draining", False))
        with ServiceClient(gated.host, gated.port) as probe:
            assert probe.search(queries[0], 0.8)["ok"] is True


class TestMicroBatching:
    def test_paused_queue_coalesces_into_one_batch(self, engine, queries):
        config = ServiceConfig(
            port=0, max_batch=8, max_queue=64,
            warmup_lists=0,
        )
        with ServiceRunner(engine, config) as active:
            service = active.service
            active.call(service.batcher.pause)
            threads = [
                search_in_thread(active, queries[position % len(queries)])
                for position in range(5)
            ]
            assert wait_until(
                lambda: active.call(lambda: service.stats.requests) == 5
            )
            active.call(service.batcher.resume)
            for thread, _ in threads:
                thread.join(30)
            sizes = [box["response"]["server"]["batched_with"] for _, box in threads]
            assert sizes == [5] * 5
            snapshot = active.call(service.stats.snapshot)
            assert snapshot["batches"] == 1
            assert snapshot["batch_size_distribution"] == {"5": 1}

    def test_mixed_thetas_split_into_groups(self, engine, queries):
        config = ServiceConfig(
            port=0, max_batch=8, max_queue=64,
            warmup_lists=0,
        )
        with ServiceRunner(engine, config) as active:
            service = active.service
            active.call(service.batcher.pause)
            low = [search_in_thread(active, queries[0]) for _ in range(2)]
            high_box: dict = {}

            def call_high() -> None:
                try:
                    with ServiceClient(active.host, active.port) as probe:
                        high_box["response"] = probe.search(queries[1], 0.95)
                except BaseException as exc:  # noqa: BLE001
                    high_box["error"] = exc

            high = threading.Thread(target=call_high)
            high.start()
            assert wait_until(
                lambda: active.call(lambda: service.stats.requests) == 3
            )
            active.call(service.batcher.resume)
            for thread, _ in low:
                thread.join(30)
            high.join(30)
            assert [box["response"]["server"]["batched_with"] for _, box in low] == [2, 2]
            assert high_box["response"]["server"]["batched_with"] == 1
            assert high_box["response"]["result"]["theta"] == pytest.approx(0.95)


class RecordingBatcher(MicroBatcher):
    """Records each executed group's size; ``on_execute`` runs first."""

    def __init__(self, searcher, on_execute=None, **kwargs):
        super().__init__(searcher, **kwargs)
        self.group_sizes: list[int] = []
        self.on_execute = on_execute

    def _execute(self, items):
        self.group_sizes.append(len(items))
        if self.on_execute is not None:
            self.on_execute(self)
        return super()._execute(items)


def run_batcher(engine, body, **kwargs):
    """Run ``await body(batcher)`` against a started batcher, then close."""

    async def scenario():
        batcher = RecordingBatcher(
            engine.cached_searcher(cache_bytes=4 * 1024 * 1024), **kwargs
        )
        await batcher.start()
        try:
            return await body(batcher)
        finally:
            await batcher.close()

    return asyncio.run(scenario())


class TestDispatchOnArrival:
    """The dispatch rule, at MicroBatcher level: no HTTP, loose timing."""

    def test_queued_requests_coalesce_without_the_gate(self, engine, queries):
        async def body(batcher):
            answers = await asyncio.gather(
                *(batcher.submit(query, 0.8) for query in queries[:5])
            )
            return batcher, answers

        batcher, answers = run_batcher(engine, body)
        assert batcher.group_sizes == [5]
        assert [size for _, size, _ in answers] == [5] * 5
        for (result, _, _), query in zip(answers, queries):
            direct = result_to_wire(engine.search_raw(query, 0.8))
            assert canonical(result_to_wire(result)) == canonical(direct)

    def test_lone_request_dispatches_at_once(self, engine, queries):
        async def body(batcher):
            await batcher.submit(queries[0], 0.8)  # warm the caches
            return await batcher.submit(queries[1], 0.8)

        _, size, queue_wait = run_batcher(engine, body)
        assert size == 1
        assert 1e3 * queue_wait < 4.0

    def test_arrivals_during_a_batch_ride_the_next(self, engine, queries):
        riders: list[asyncio.Task] = []

        def arrive_once(batcher):
            # Runs inside the first batch, while it holds the loop.
            if not riders:
                riders.extend(
                    asyncio.get_running_loop().create_task(
                        batcher.submit(query, 0.8)
                    )
                    for query in queries[1:3]
                )

        async def body(batcher):
            first = await batcher.submit(queries[0], 0.8)
            return first, await asyncio.gather(*riders)

        first, later = run_batcher(engine, body, on_execute=arrive_once)
        assert first[1] == 1
        assert [size for _, size, _ in later] == [2, 2]

    def test_deadline_passed_behind_a_running_batch_is_skipped(
        self, engine, queries
    ):
        def slow_first(batcher):
            if len(batcher.group_sizes) == 1:
                time.sleep(0.1)

        async def body(batcher):
            answers = await asyncio.gather(
                batcher.submit(queries[0], 0.8),
                batcher.submit(queries[1], 0.8, timeout=0.03),
                return_exceptions=True,
            )
            return answers, batcher.group_sizes

        (first, late), group_sizes = run_batcher(
            engine, body, on_execute=slow_first, max_batch=1
        )
        assert first[1] == 1
        assert isinstance(late, asyncio.TimeoutError)
        assert group_sizes == [1]  # the late request never ran

    def test_queue_wait_excludes_execution(self, engine, queries):
        def slow(_batcher):
            time.sleep(0.05)

        async def body(batcher):
            loop = asyncio.get_running_loop()
            begin = loop.time()
            _, _, queue_wait = await batcher.submit(queries[0], 0.8)
            return queue_wait, loop.time() - begin

        queue_wait, total = run_batcher(engine, body, on_execute=slow)
        assert 1e3 * queue_wait < 1e3 * total - 40.0

    def test_close_waits_for_a_running_client_batch(self, engine, queries):
        finished = threading.Event()

        async def body(batcher):
            execute = batcher.executor.execute

            def slow_execute(*args, **kwargs):
                time.sleep(0.1)
                batch = execute(*args, **kwargs)
                finished.set()
                return batch

            batcher.executor.execute = slow_execute
            with pytest.raises(asyncio.TimeoutError):
                await batcher.submit_batch(queries[:2], 0.8, timeout=0.01)
            await batcher.close()
            return finished.is_set()

        assert run_batcher(engine, body)

    def test_client_batches_record_no_queue_wait(self, client, runner, queries):
        def queue_count() -> int:
            return runner.call(lambda: runner.service.stats.queue_wait.total)

        before = queue_count()
        client.batch(queries[:3], 0.8)
        assert queue_count() == before
        client.search(queries[0], 0.8)
        assert queue_count() == before + 1


class TestShutdown:
    def test_clean_shutdown_refuses_connections(self, engine, queries):
        config = ServiceConfig(port=0, warmup_lists=0)
        active = ServiceRunner(engine, config).start()
        port = active.port
        with ServiceClient(active.host, port) as probe:
            assert probe.search(queries[0], 0.8)["ok"] is True
        active.stop()
        with pytest.raises(OSError):
            with ServiceClient(active.host, port, timeout=2) as probe:
                probe.health()

    def test_shutdown_drains_admitted_requests(self, engine, queries):
        config = ServiceConfig(
            port=0, max_batch=8, max_queue=8,
            warmup_lists=0,
        )
        active = ServiceRunner(engine, config).start()
        service = active.service
        active.call(service.batcher.pause)
        held, held_box = search_in_thread(active, queries[0])
        queued, queued_box = search_in_thread(active, queries[1])
        assert wait_until(
            lambda: active.call(lambda: service.stats.requests) == 2
        )
        # Graceful drain re-opens the gate and answers both before exit.
        active.stop()
        held.join(30)
        queued.join(30)
        assert held_box.get("response", {}).get("ok") is True
        assert queued_box.get("response", {}).get("ok") is True


class TestWarmup:
    def test_warmup_loads_lists(self, engine):
        searcher = engine.cached_searcher(cache_bytes=4 * 1024 * 1024)
        loaded = engine.warmup(searcher, max_lists=16)
        assert 0 < loaded <= 16
        snap = searcher.index.stats()
        assert snap.cached_lists == loaded
        assert snap.misses == loaded and snap.hits == 0

    def test_warmup_requires_cached_searcher(self, engine):
        with pytest.raises(InvalidParameterError):
            engine.warmup(engine.searcher)

    def test_warmup_respects_budget(self, engine):
        searcher = engine.cached_searcher(cache_bytes=4 * 1024 * 1024)
        loaded = engine.warmup(searcher, max_lists=1000, max_bytes=1)
        assert loaded == 0


# ----------------------------------------------------------------------
# Client-side retry on shed (scripted server, no engine)
# ----------------------------------------------------------------------
class ScriptedShedServer:
    """An HTTP server that sheds the first N requests with 429.

    Runs the real wire format through the real client, so the retry
    loop is tested against exactly what a loaded service emits —
    without racing a real batcher into a full queue.
    """

    def __init__(self, shed_first: int, *, status_after: int = 200):
        import http.server

        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", "0"))
                self.rfile.read(length)
                server.attempts += 1
                if server.attempts <= server.shed_first:
                    body = json.dumps(
                        {"ok": False, "error": "queue full", "code": 429}
                    ).encode()
                    self.send_response(429)
                elif server.status_after == 200:
                    body = json.dumps({"ok": True, "result": {}}).encode()
                    self.send_response(200)
                else:
                    body = json.dumps(
                        {
                            "ok": False,
                            "error": "scripted failure",
                            "code": server.status_after,
                        }
                    ).encode()
                    self.send_response(server.status_after)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # quiet
                pass

        self.attempts = 0
        self.shed_first = shed_first
        self.status_after = status_after
        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(5)

    def __enter__(self) -> "ScriptedShedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TestClientRetry:
    def test_default_is_no_retry(self):
        with ScriptedShedServer(shed_first=1) as server:
            with ServiceClient("127.0.0.1", server.port) as probe:
                with pytest.raises(RequestShedError):
                    probe.search([1, 2, 3], 0.8)
            assert server.attempts == 1

    def test_retries_until_success(self):
        with ScriptedShedServer(shed_first=2) as server:
            with ServiceClient(
                "127.0.0.1", server.port, retries=3, backoff_ms=1.0
            ) as probe:
                response = probe.search([1, 2, 3], 0.8)
            assert response["ok"] is True
            assert server.attempts == 3  # 2 sheds + 1 success

    def test_retry_budget_exhausted_reraises(self):
        with ScriptedShedServer(shed_first=10) as server:
            with ServiceClient(
                "127.0.0.1", server.port, retries=2, backoff_ms=1.0
            ) as probe:
                with pytest.raises(RequestShedError):
                    probe.search([1, 2, 3], 0.8)
            assert server.attempts == 3  # the first try + 2 retries

    def test_only_shed_is_retried(self):
        with ScriptedShedServer(shed_first=0, status_after=503) as server:
            with ServiceClient(
                "127.0.0.1", server.port, retries=5, backoff_ms=1.0
            ) as probe:
                with pytest.raises(ServiceClosedError):
                    probe.search([1, 2, 3], 0.8)
            assert server.attempts == 1

    def test_backoff_grows_and_is_capped(self):
        client = ServiceClient(
            "127.0.0.1", 1, retries=4, backoff_ms=10.0, max_backoff_ms=25.0
        )
        delays = [
            min(client.backoff_ms * (2.0**attempt), client.max_backoff_ms)
            for attempt in range(4)
        ]
        assert delays == [10.0, 20.0, 25.0, 25.0]


class TestLiveStats:
    def test_cache_counters_never_decrease_across_generations(self, tmp_path):
        """Every append moves a live index's generation, and the served
        searcher rebuilds its list cache for it; the ``/stats`` cache
        counters must still carry one history, not restart from zero."""
        engine = NearDupEngine.live(
            tmp_path / "live", k=8, t=25, vocab_size=256, seed=5
        )
        rng = np.random.default_rng(3)
        texts = [rng.integers(0, 256, size=80).astype(np.uint32) for _ in range(6)]
        engine.append_texts(texts)
        counters = (
            "hits", "misses", "evictions", "admission_rejections", "singleflight_waits",
        )
        readings = []
        config = ServiceConfig(port=0, warmup_lists=8)
        with ServiceRunner(engine, config) as runner:
            with ServiceClient(runner.host, runner.port, timeout=15) as client:
                for text in texts:
                    client.search(text[:60], 0.8)
                readings.append(client.stats()["cache"])
                for _ in range(2):
                    client.ingest([rng.integers(0, 256, size=80).tolist()])
                    client.search(texts[0][5:70], 0.8)
                    readings.append(client.stats()["cache"])
        assert readings[0]["misses"] > 0
        for name in counters:
            values = [reading[name] for reading in readings]
            assert values == sorted(values), (name, values)
