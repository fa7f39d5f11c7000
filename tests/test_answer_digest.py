"""Answer pins: the sha256 of ``result_to_wire`` over one planted corpus.

Every way to ask for an answer (a direct search, a multi-theta search, a
multi-theta batch with duplicates, an exact-Jaccard search and a live
index after one seal) is hashed over the same queries and compared with
a pinned digest.  A change to any answer byte (a match, a rectangle, its
count, ``theta``, ``beta`` or the merged spans) fails here, however the
answer was built.  Re-pin only for a deliberate change of the answers.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.index.lsm.live import LiveIndex, LiveIndexConfig
from repro.query.executor import BatchQueryExecutor
from repro.service.protocol import result_to_wire

PINS = {
    "search": "a520d997ef80aa049adb857bc58f75b9b45ba614885fc838d6fe53b0cb312823",
    "search_thetas": "84e3036f713115cb8532d1f039f8e91e79811148c75988c7c62d72d149519cff",
    "execute_thetas": "20142d5856fcaa117fddcbab5d4030333bcb26bdcdd23cea7efb2ad36b816e49",
    "verify": "3a5ddc812a34988daf4da72872b731c1e07da416c746270d4c337c49897b0306",
    # The live index holds the same texts, so it answers like ``search``.
    "live_after_seal": "a520d997ef80aa049adb857bc58f75b9b45ba614885fc838d6fe53b0cb312823",
}

THETAS = [0.6, 0.8, 1.0]


def digest(results) -> str:
    """sha256 over the results' wire JSON, one line each, in order."""
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(json.dumps(result_to_wire(result), sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def queries(planted_data):
    """Verbatim windows, mutated windows and novel token runs."""
    rng = np.random.default_rng(5)
    corpus = planted_data.corpus
    out = []
    for text_id in (0, 3, 7, 16, 40, 97, 150, 201):
        text = np.asarray(corpus[text_id], dtype=np.uint32)
        start = int(rng.integers(0, max(1, len(text) - 64)))
        window = text[start : start + 64].copy()
        out.append(window)
        mutated = window.copy()
        flips = rng.integers(0, mutated.size, size=4)
        mutated[flips] = rng.integers(0, 1024, size=flips.size).astype(np.uint32)
        out.append(mutated)
    out.extend(rng.integers(0, 1024, size=(4, 64)).astype(np.uint32))
    return out


@pytest.fixture(scope="module")
def searcher(planted_data, planted_index):
    return NearDuplicateSearcher(planted_index, corpus=planted_data.corpus)


def test_search(searcher, queries):
    assert digest(searcher.search(query, 0.8) for query in queries) == PINS["search"]


def test_search_thetas(searcher, queries):
    answers = [searcher.search_thetas(query, THETAS) for query in queries]
    assert (
        digest(by_theta[theta] for by_theta in answers for theta in THETAS)
        == PINS["search_thetas"]
    )


def test_execute_thetas_with_duplicates(searcher, queries):
    batch = [queries[i] for i in (0, 1, 0, 5, 19, 5, 12, 0, 3)]
    with BatchQueryExecutor(searcher) as executor:
        per_query, stats = executor.execute_thetas(batch, THETAS)
    assert stats.unique_queries == 6
    assert (
        digest(by_theta[theta] for by_theta in per_query for theta in THETAS)
        == PINS["execute_thetas"]
    )


def test_verify(searcher, queries):
    answers = [searcher.search(query, 0.7, verify=True) for query in queries[:10]]
    assert digest(answers) == PINS["verify"]


def test_live_after_one_seal(tmp_path, planted_data, queries):
    texts = [np.asarray(text, dtype=np.uint32) for text in planted_data.corpus]
    config = LiveIndexConfig(background_compaction=False)
    with LiveIndex(
        tmp_path / "live",
        family=HashFamily(k=16, seed=3),
        t=25,
        vocab_size=1024,
        config=config,
    ) as live:
        live.append_texts(texts[:180])
        live.seal()
        live.append_texts(texts[180:])
        searcher = live.searcher()
        answers = [searcher.search(query, 0.8) for query in queries]
    assert digest(answers) == PINS["live_after_seal"]
