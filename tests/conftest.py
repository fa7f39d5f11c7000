"""Shared fixtures for the test suite."""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.corpus.corpus import InMemoryCorpus
from repro.corpus.synthetic import synthweb
from repro.index.builder import build_memory_index


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def family() -> HashFamily:
    return HashFamily(k=8, seed=7)


@pytest.fixture
def tiny_corpus(rng: np.random.Generator) -> InMemoryCorpus:
    """A dozen short random texts over a small vocabulary."""
    texts = [
        rng.integers(0, 50, size=int(rng.integers(10, 60))).astype(np.uint32)
        for _ in range(12)
    ]
    return InMemoryCorpus(texts)


@pytest.fixture(scope="session")
def planted_data():
    """A medium synthetic corpus with planted near-duplicates (session-wide)."""
    return synthweb(
        num_texts=250,
        mean_length=150,
        vocab_size=1024,
        duplicate_rate=0.2,
        span_length=48,
        mutation_rate=0.04,
        seed=99,
    )


@pytest.fixture(scope="session")
def planted_index(planted_data):
    """Index over the planted corpus with realistic paper parameters."""
    family = HashFamily(k=16, seed=3)
    index = build_memory_index(planted_data.corpus, family, t=25, vocab_size=1024)
    return index


#: A response that promises 100 body bytes and sends 9.
TRUNCATED_RESPONSE = b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"ok": tr'


@pytest.fixture
def stub_shard():
    """Start fake shards: ``stub_shard(reply)`` returns the ``(host,
    port)`` of a listener that reads each request, sends ``reply`` and
    hangs up — by default a shard that dies in the middle of its body.
    """
    listeners = []

    def answer(listener: socket.socket, reply: bytes) -> None:
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:  # the fixture closed the listener
                return
            with connection, connection.makefile("rb") as stream:
                length = 0
                while (line := stream.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                stream.read(length)  # drain the body so close sends FIN
                connection.sendall(reply)

    def start(reply: bytes = TRUNCATED_RESPONSE) -> tuple[str, int]:
        listener = socket.create_server(("127.0.0.1", 0))
        listeners.append(listener)
        threading.Thread(target=answer, args=(listener, reply), daemon=True).start()
        return listener.getsockname()[:2]

    yield start
    for listener in listeners:
        try:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        except OSError:
            pass
        listener.close()
