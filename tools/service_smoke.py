"""CI smoke test of the served stack, end to end through the CLI.

Builds a tiny engine, launches ``repro-cli serve`` as a real child
process, round-trips ``/health`` and ``/search`` through
:class:`ServiceClient`, checks the served result byte-equal to a
direct in-process search, then interrupts the server and asserts a
clean (exit 0) graceful shutdown.

With ``--workers N`` (N > 1) the server runs as a prefork fleet —
N forked processes sharing one mmap index and one listening socket —
and the smoke additionally asserts the aggregated ``cluster`` block
of ``/stats`` sees the whole fleet.

The server reads a packed index through its list cache and the smoke
asserts ``/stats`` surfaces that tier's ``cache`` block — so served
results are checked byte-equal to direct search *through* the cache.
A static server has no result tier; ``tests/test_service.py``
checks the live server's ``result_cache`` block over HTTP.

Run: ``PYTHONPATH=src python tools/service_smoke.py [--workers 2]``
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.corpus.synthetic import synthweb
from repro.engine import NearDupEngine
from repro.service import ServiceClient, result_to_wire


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="prefork server processes (1 = single in-process server)",
    )
    args = parser.parse_args()

    data = synthweb(
        num_texts=80,
        mean_length=120,
        vocab_size=512,
        duplicate_rate=0.2,
        span_length=48,
        mutation_rate=0.04,
        seed=7,
    )
    engine = NearDupEngine.from_corpus(
        data.corpus, k=8, t=20, vocab_size=512, codec="packed"
    )
    directory = Path(tempfile.mkdtemp(prefix="service_smoke_"))
    engine.save(directory)

    port = free_port()
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(directory),
            "--port", str(port), "--workers", str(args.workers),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        client = ServiceClient("127.0.0.1", port, timeout=5)
        deadline = time.monotonic() + 30
        health = None
        while time.monotonic() < deadline:
            if server.poll() is not None:
                output = server.stdout.read().decode(errors="replace")
                raise SystemExit(f"server died during startup:\n{output}")
            try:
                health = client.health()
                break
            except OSError:
                time.sleep(0.1)
        assert health is not None, "server never became healthy"
        assert health["status"] == "serving"
        assert health["texts"] == engine.num_texts
        print(f"health: {health}")

        query = np.asarray(data.corpus[0])[:40]
        served = client.search(query, 0.8)
        direct = result_to_wire(engine.search_raw(query, 0.8))
        assert json.dumps(served["result"], sort_keys=True) == json.dumps(
            direct, sort_keys=True
        ), "served result differs from direct search"
        assert served["result"]["matches"], "query should match its own text"
        print(
            f"search: {len(served['result']['matches'])} matches, "
            f"{served['server']['total_ms']:.1f} ms "
            f"(batched_with={served['server']['batched_with']})"
        )
        stats = client.stats()
        assert stats["service"]["completed"] >= 1
        list_tier = stats["cache"]
        assert list_tier["hits"] + list_tier["misses"] >= 1, list_tier
        assert "result_cache" not in stats, "a static server has no result tier"
        print(f"list cache: {list_tier['hits']}h/{list_tier['misses']}m")
        if args.workers > 1:
            cluster = stats.get("cluster")
            assert cluster is not None, "prefork /stats is missing the cluster block"
            assert cluster["procs"] == args.workers, cluster
            assert cluster["alive"] == args.workers, cluster
            assert cluster["completed"] >= 1, cluster
            # The fleet view is the service report over the summed rows.
            assert "p95_ms" in cluster["queue_wait"], cluster
            assert cluster["mean_batch_size"] >= 1.0, cluster
            print(
                f"cluster: {cluster['alive']}/{cluster['procs']} workers, "
                f"{cluster['completed']} completed, queue wait p95 "
                f"{cluster['queue_wait']['p95_ms']:.2f} ms, mean batch "
                f"{cluster['mean_batch_size']:.2f}, pids "
                f"{[worker['pid'] for worker in cluster['workers']]}"
            )
        client.close()
    finally:
        server.send_signal(signal.SIGINT)
        try:
            exit_code = server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            raise SystemExit("server did not drain within 30 s of SIGINT")
    assert exit_code == 0, f"server exited {exit_code}, expected 0"
    print("clean shutdown (exit 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
