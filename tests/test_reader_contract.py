"""The reader contract, checked once over every reader in the tree.

Every reader satisfies the :class:`InvertedIndexReader` protocol, and
what it returns equals an independent oracle: the flat
``generate_corpus_postings`` output filtered by ``(func, minhash)`` and
stable-sorted by text.  Batched reads equal a loop of one-list (or
one-text) calls, and the vector form of ``load_list`` /
``load_texts_windows`` over arrays of ``(func, minhash)`` pairs equals
the int form pair by pair.  A reader that lacks part of the protocol is
refused when a searcher is built on it, not halfway through a query.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.synthetic import synthweb
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index, generate_corpus_postings
from repro.index.cache import CachedIndexReader
from repro.index.inverted import InvertedIndexReader, POSTING_DTYPE
from repro.index.lsm import LiveIndex, LiveIndexConfig, UnionIndexReader
from repro.index.storage import DiskInvertedIndex, write_index

VOCAB = 512
BASE_READERS = ("memory", "disk-raw", "disk-packed", "live-union")


class DelegatingProxy:
    """Shaped like ``benchmarks/harness/trace.py::TimedReader``: the read
    calls are explicit methods, everything else (``family``, ``t``,
    ``io_stats`` ...) resolves on the wrapped reader.  Like the harness
    proxy it still forwards ``list_length`` and ``load_text_windows``,
    which no reader implements any more; nothing calls them."""

    def __init__(self, inner):
        self._inner = inner

    def list_length(self, func, minhash):
        return self._inner.list_length(func, minhash)

    def sketch_list_lengths(self, sketch):
        return self._inner.sketch_list_lengths(sketch)

    def load_list(self, func, minhash):
        return self._inner.load_list(func, minhash)

    def load_text_windows(self, func, minhash, text_id):
        return self._inner.load_text_windows(func, minhash, text_id)

    def load_texts_windows(self, func, minhash, text_ids):
        return self._inner.load_texts_windows(func, minhash, text_ids)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    data = synthweb(
        num_texts=90,
        mean_length=140,
        vocab_size=VOCAB,
        duplicate_rate=0.3,
        span_length=48,
        mutation_rate=0.03,
        seed=17,
    )
    texts = [np.asarray(text, dtype=np.uint32) for text in data.corpus]
    family = HashFamily(k=8, seed=5)
    memory = build_memory_index(data.corpus, family, t=25, vocab_size=VOCAB)
    root = tmp_path_factory.mktemp("reader-contract")
    # Low zone-map thresholds so point reads take the zone-map path.
    write_index(memory, root / "raw", zonemap_step=8, zonemap_min_list=16)
    write_index(
        memory, root / "packed", zonemap_step=8, zonemap_min_list=16, codec="packed"
    )
    live = LiveIndex(
        root / "live",
        family=family,
        t=25,
        vocab_size=VOCAB,
        config=LiveIndexConfig(background_compaction=False),
    )
    # Two sealed runs and a non-empty memtable: a three-source union.
    live.append_texts(texts[:40])
    live.seal()
    live.append_texts(texts[40:70])
    live.seal()
    live.append_texts(texts[70:])
    bases = {
        "memory": memory,
        "disk-raw": DiskInvertedIndex(root / "raw"),
        "disk-packed": DiskInvertedIndex(root / "packed"),
        "live-union": live.snapshot(),
    }
    per_func = generate_corpus_postings(list(enumerate(texts)), family, 25, None)
    yield texts, family, bases, Oracle(per_func)
    live.close()


class Oracle:
    """Inverted lists straight from the window generator's flat output."""

    def __init__(self, per_func):
        self._per_func = per_func

    def load_list(self, func, minhash):
        if not 0 <= func < len(self._per_func):
            return np.empty(0, dtype=POSTING_DTYPE)
        minhashes, postings = self._per_func[func]
        chosen = postings[minhashes.astype(np.int64) == minhash]
        return chosen[np.argsort(chosen["text"], kind="stable")]

    def load_texts_windows(self, func, minhash, text_ids):
        postings = self.load_list(func, minhash)
        return postings[np.isin(postings["text"], text_ids)]


@pytest.fixture(
    params=[
        (base, wrap)
        for base in BASE_READERS
        for wrap in ("bare", "cached", "proxy")
    ],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def reader(request, world):
    _, _, bases, _ = world
    base, wrap = request.param
    wrappers = {"bare": lambda r: r, "cached": CachedIndexReader, "proxy": DelegatingProxy}
    return wrappers[wrap](bases[base])


def test_union_really_has_runs_and_a_memtable(world):
    _, _, bases, _ = world
    union = bases["live-union"]
    assert isinstance(union, UnionIndexReader)
    assert union.num_sources == 3
    assert union.num_postings == bases["memory"].num_postings


def test_satisfies_the_protocol(reader):
    # From Python 3.12 ``isinstance`` on a protocol ignores
    # ``__getattr__``; the searcher's own check does not.
    if not isinstance(reader, DelegatingProxy):
        assert isinstance(reader, InvertedIndexReader)
    NearDuplicateSearcher(reader)  # accepted


def test_batched_lengths_equal_scalar_loop(reader, world):
    texts, family, _, oracle = world
    for text in texts[:6]:
        sketch = family.sketch(text[:60])
        lengths = reader.sketch_list_lengths(sketch)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == [
            reader.load_list(func, int(sketch[func])).size
            for func in range(family.k)
        ]
        assert lengths.tolist() == [
            oracle.load_list(func, int(sketch[func])).size
            for func in range(family.k)
        ]


def test_batched_point_reads_equal_scalar_loop(reader, world):
    texts, family, _, oracle = world
    # Present, absent, duplicated and out-of-range text ids.
    wanted = np.array([0, 0, 3, 17, 41, 42, 69, 70, 89, 500], dtype=np.int64)
    for text in texts[:4]:
        sketch = family.sketch(text[:80])
        for func in range(family.k):
            minhash = int(sketch[func])
            parts = [
                reader.load_texts_windows(func, minhash, [text_id])
                for text_id in np.unique(wanted)
            ]
            parts = [part for part in parts if part.size]
            expected = (
                np.concatenate(parts) if parts else np.empty(0, dtype=POSTING_DTYPE)
            )
            batched = reader.load_texts_windows(func, minhash, wanted)
            assert np.array_equal(batched, expected), func
            # ... and both agree with the oracle.
            assert np.array_equal(
                batched, oracle.load_texts_windows(func, minhash, wanted)
            ), func
            assert np.array_equal(
                reader.load_list(func, minhash), oracle.load_list(func, minhash)
            ), func


def test_absent_list_is_empty_everywhere(reader, world):
    _, family, _, _ = world
    k = family.k
    wanted = np.array([1, 2], dtype=np.int64)
    # A key no list has, a function outside [0, k), a negative min-hash
    # and one beyond uint32 — beside a present list (func 0's first key)
    # so a reader cannot answer the pairs by one global emptiness check.
    present = int(reader.list_keys(0)[0])
    absent = [(0, 0xDEADBEEF), (-1, present), (k, present), (0, -1), (0, 2**33)]
    for func, minhash in absent:
        assert reader.load_list(func, minhash).size == 0, (func, minhash)
        assert reader.load_texts_windows(func, minhash, wanted).size == 0
    funcs = np.array([0] + [func for func, _ in absent], dtype=np.int64)
    minhashes = np.array([present] + [m for _, m in absent], dtype=np.int64)
    lists = reader.load_list(funcs, minhashes)
    assert lists[0].size > 0
    assert [part.size for part in lists[1:]] == [0] * len(absent)
    points = reader.load_texts_windows(funcs, minhashes, wanted)
    assert [part.size for part in points[1:]] == [0] * len(absent)
    sketch = np.array([-1, 2**33] + [0xDEADBEEF] * (k - 2), dtype=np.int64)
    assert reader.sketch_list_lengths(sketch).tolist() == [0] * k


def _sketch_pairs(family, text):
    """Every function's list for one sketch, plus an absent pair and a
    repeated one, in a scrambled order."""
    sketch = family.sketch(text[:70])
    funcs = np.arange(family.k, dtype=np.int64)
    minhashes = sketch.astype(np.int64)
    funcs = np.concatenate((funcs[::-1], [0, 3], funcs[:2]))
    minhashes = np.concatenate(
        (minhashes[::-1], [0xDEADBEEF, minhashes[3]], minhashes[:2])
    )
    return funcs, minhashes


def test_vector_load_list_equals_scalar_calls(reader, world):
    texts, family, _, _ = world
    for text in texts[:4]:
        funcs, minhashes = _sketch_pairs(family, text)
        vector = reader.load_list(funcs, minhashes)
        assert isinstance(vector, list) and len(vector) == funcs.size
        for func, minhash, got in zip(funcs.tolist(), minhashes.tolist(), vector):
            assert np.array_equal(got, reader.load_list(func, minhash))
            assert got.dtype == POSTING_DTYPE


def test_vector_point_reads_equal_scalar_calls(reader, world):
    texts, family, _, _ = world
    wanted = np.array([0, 0, 3, 17, 41, 42, 69, 70, 89, 500], dtype=np.int64)
    for text in texts[:4]:
        funcs, minhashes = _sketch_pairs(family, text)
        vector = reader.load_texts_windows(funcs, minhashes, wanted)
        assert isinstance(vector, list) and len(vector) == funcs.size
        for func, minhash, got in zip(funcs.tolist(), minhashes.tolist(), vector):
            assert np.array_equal(got, reader.load_texts_windows(func, minhash, wanted))


def test_vector_forms_take_empty_arrays(reader):
    none = np.empty(0, dtype=np.int64)
    assert reader.load_list(none, none) == []
    assert reader.load_texts_windows(none, none, np.array([1, 2])) == []


def test_delegating_proxy_has_the_harness_proxy_shape():
    """The test proxy must stay exactly what the benchmark's tracing proxy
    is — the same explicit members with the same parameters — so the
    contract above is the one the harness exercises."""
    import importlib.util
    import inspect
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks/harness/trace.py"
    spec = importlib.util.spec_from_file_location("harness_trace", path)
    harness_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness_trace)

    def shape(cls):
        return {
            name: list(inspect.signature(member).parameters)
            for name, member in vars(cls).items()
            if callable(member) and not name.startswith("_")
        }

    assert shape(DelegatingProxy) == shape(harness_trace.TimedReader)


def test_capped_decode_calls_return_the_same_lists(world, monkeypatch):
    from repro.index import storage

    texts, family, bases, _ = world
    packed = bases["disk-packed"]
    funcs, minhashes = _sketch_pairs(family, texts[1])
    wanted = np.array([0, 41, 70], dtype=np.int64)
    lists = packed.load_list(funcs, minhashes)
    windows = packed.load_texts_windows(funcs, minhashes, wanted)
    monkeypatch.setattr(storage, "_DECODE_BLOCKS", 1)
    for got, expected in zip(packed.load_list(funcs, minhashes), lists):
        assert np.array_equal(got, expected)
    capped = packed.load_texts_windows(funcs, minhashes, wanted)
    for got, expected in zip(capped, windows):
        assert np.array_equal(got, expected)
    # Hit-only point reads under the cap: empty, absent, repeated,
    # negative and past-uint32 text ids (2**32 + 41 aliases text 41).
    for ids in (
        np.empty(0, dtype=np.int64),
        np.array([10**6], dtype=np.int64),
        np.array([41, 41, 41], dtype=np.int64),
        np.array([-41, -1, 41], dtype=np.int64),
        np.array([2**32 + 41, 2**33], dtype=np.int64),
    ):
        expected = bases["memory"].load_texts_windows(funcs, minhashes, ids)
        for name in ("disk-raw", "disk-packed"):
            got = bases[name].load_texts_windows(funcs, minhashes, ids)
            assert len(got) == len(expected) == funcs.size
            for part, want in zip(got, expected):
                assert np.array_equal(part, want), (name, ids)


def test_one_vector_load_is_one_packed_read_call(world):
    texts, family, bases, _ = world
    packed = bases["disk-packed"]
    funcs, minhashes = _sketch_pairs(family, texts[0])
    before = packed.io_stats.read_calls
    packed.load_list(funcs, minhashes)
    assert packed.io_stats.read_calls == before + 1
    before = packed.io_stats.read_calls
    packed.load_texts_windows(funcs, minhashes, np.array([0, 41, 70]))
    assert packed.io_stats.read_calls == before + 1


@pytest.mark.parametrize("missing", ["sketch_list_lengths", "load_texts_windows"])
def test_incomplete_reader_is_refused_at_construction(world, missing):
    _, _, bases, _ = world
    memory = bases["memory"]
    members = {
        name: getattr(memory, name)
        for name in (
            "family",
            "t",
            "io_stats",
            "load_list",
            "sketch_list_lengths",
            "load_texts_windows",
        )
        if name != missing
    }
    incomplete = type("IncompleteReader", (), members)()
    assert not isinstance(incomplete, InvertedIndexReader)
    with pytest.raises(InvalidParameterError, match=missing):
        NearDuplicateSearcher(incomplete)
