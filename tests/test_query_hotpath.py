"""Tests for the vectorized query hot path.

Three contracts:

1. :func:`repro.core.intervals.fused_collision_count` is pinned against
   the scalar :func:`collision_count` / :func:`interval_scan` oracles —
   same rectangles, same ordering, for arbitrary window groups
   (duplicate endpoints, single-window groups, alpha above the group
   size included).
2. The batched reader methods (``sketch_list_lengths``,
   ``load_texts_windows``, ``ZoneMap.locate_many``) return exactly what
   a loop of one-list / one-text calls returns, across every reader
   backend.
3. ``NearDuplicateSearcher`` produces matches identical to
   ``scan_oracle.ReferenceSearcher`` (a standalone scalar per-text loop),
   and the batched long-list refinement issues no more point-read
   operations than the per-candidate loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashing import HashFamily
from repro.core.intervals import (
    _sweep_groups,
    collision_count,
    fused_collision_count,
    interval_scan,
)
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.corpus.synthetic import synthweb
from repro.exceptions import InvalidParameterError
from repro.index.builder import build_memory_index
from repro.index.cache import CachedIndexReader
from repro.index.inverted import POSTING_DTYPE
from repro.index.lsm import UnionIndexReader
from repro.index.storage import DiskInvertedIndex, write_index
from repro.index.zonemap import build_zone_map

from index_lists import join_lists, split_lists
from scan_oracle import ReferenceSearcher


# ---------------------------------------------------------------------------
# Kernel oracle
# ---------------------------------------------------------------------------
def make_group_array(windows: list[tuple[int, int, int]]) -> np.ndarray:
    """Structured POSTING_DTYPE array from (left, center, right) triples."""
    array = np.zeros(len(windows), dtype=POSTING_DTYPE)
    for slot, (left, center, right) in enumerate(windows):
        array[slot] = (0, left, center, right)
    return array


def fused_over_groups(groups: list[list[tuple[int, int, int]]], alpha):
    """Run the fused kernel over concatenated groups; return per-group
    rectangle lists keyed by group position.  ``alpha`` is an int or
    one threshold per group."""
    triples = [
        (gid, left, center, right)
        for gid, group in enumerate(groups)
        for (left, center, right) in group
    ]
    triples.sort(key=lambda t: (t[0], t[1]))
    gids = np.array([t[0] for t in triples], dtype=np.int64)
    lefts = np.array([t[1] for t in triples], dtype=np.int64)
    centers = np.array([t[2] for t in triples], dtype=np.int64)
    rights = np.array([t[3] for t in triples], dtype=np.int64)
    rect = fused_collision_count(lefts, centers, rights, gids, alpha)
    per_group = {}
    for gid, rectangle in zip(rect.group.tolist(), rect.rectangles()):
        per_group.setdefault(gid, []).append(rectangle)
    return per_group


#: One window: l <= c <= r over a tiny coordinate range, so duplicate
#: endpoints and identical windows are common rather than rare.
window_strategy = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)
).map(lambda t: tuple(sorted(t)))

groups_strategy = st.lists(
    st.lists(window_strategy, min_size=1, max_size=10), min_size=1, max_size=6
)


class TestFusedKernelOracle:
    @given(groups=groups_strategy, alpha=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_matches_collision_count_per_group(self, groups, alpha):
        fused = fused_over_groups(groups, alpha)
        for gid, group in enumerate(groups):
            expected = collision_count(make_group_array(group), alpha)
            assert fused.get(gid, []) == expected

    @given(
        interval_groups=st.lists(
            st.lists(
                st.tuples(st.integers(0, 10), st.integers(0, 10)).map(
                    lambda t: tuple(sorted(t))
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        ),
        alpha=st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_sweep_groups_matches_interval_scan(self, interval_groups, alpha):
        """The flat multi-group event sweep reports, per group, exactly
        the (start, end, coverage) segments of Algorithm 5."""
        triples = [
            (gid, start, end)
            for gid, intervals in enumerate(interval_groups)
            for (start, end) in intervals
        ]
        gids = np.array([t[0] for t in triples], dtype=np.int64)
        starts = np.array([t[1] for t in triples], dtype=np.int64)
        ends = np.array([t[2] for t in triples], dtype=np.int64)
        seg_group, seg_start, seg_end, seg_count = _sweep_groups(
            starts, ends, gids, alpha
        )
        swept = list(
            zip(
                seg_group.tolist(),
                seg_start.tolist(),
                seg_end.tolist(),
                seg_count.tolist(),
            )
        )
        expected = [
            (gid, segment.start, segment.end, len(segment.members))
            for gid, intervals in enumerate(interval_groups)
            for segment in interval_scan(intervals, alpha)
        ]
        assert swept == expected

    def test_single_window_groups(self):
        groups = [[(2, 4, 7)], [(0, 0, 0)], [(5, 5, 9)]]
        fused = fused_over_groups(groups, 1)
        for gid, group in enumerate(groups):
            assert fused[gid] == collision_count(make_group_array(group), 1)

    def test_alpha_above_group_size_yields_nothing(self):
        groups = [[(0, 1, 2), (1, 2, 3)], [(4, 5, 6)]]
        assert fused_over_groups(groups, 3) == {}

    def test_duplicate_endpoints(self):
        group = [(3, 5, 8), (3, 5, 8), (3, 5, 8), (1, 5, 8)]
        fused = fused_over_groups([group], 2)
        assert fused[0] == collision_count(make_group_array(group), 2)

    def test_ordering_matches_oracle(self):
        group = [(0, 2, 9), (1, 3, 4), (2, 6, 8), (0, 6, 7), (4, 5, 6)]
        fused = fused_over_groups([group], 2)
        assert fused[0] == collision_count(make_group_array(group), 2)

    @given(
        groups=st.lists(
            st.lists(window_strategy, min_size=1, max_size=10), min_size=0, max_size=8
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_per_group_alpha_matches_collision_count(self, groups, data):
        """One call at one threshold per group (the batch scan's reduced
        thresholds) equals the scalar oracle per group at its own."""
        k = 8
        alphas = data.draw(
            st.lists(st.integers(1, k), min_size=len(groups), max_size=len(groups))
        )
        fused = fused_over_groups(groups, np.array(alphas, dtype=np.int64))
        for gid, (group, alpha) in enumerate(zip(groups, alphas)):
            expected = collision_count(make_group_array(group), alpha)
            assert fused.get(gid, []) == expected

    def test_per_group_alpha_single_window_groups(self):
        groups = [[(2, 4, 7)], [(0, 0, 0)], [(5, 5, 9)], [(1, 3, 3)]]
        fused = fused_over_groups(groups, np.array([1, 2, 1, 3]))
        assert sorted(fused) == [0, 2]
        for gid in (0, 2):
            assert fused[gid] == collision_count(make_group_array(groups[gid]), 1)

    def test_per_group_alpha_must_be_positive(self):
        ones = np.zeros(2, dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            fused_collision_count(ones, ones, ones, np.array([0, 1]), np.array([1, 0]))
        empty = np.empty(0, dtype=np.int64)
        assert fused_collision_count(empty, empty, empty, empty, empty).size == 0

    def test_alpha_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            fused_collision_count(
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                0,
            )

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        assert fused_collision_count(empty, empty, empty, empty, 1).size == 0


# ---------------------------------------------------------------------------
# Shared corpus fixtures
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_setup(tmp_path_factory):
    data = synthweb(
        num_texts=120,
        mean_length=140,
        vocab_size=512,
        duplicate_rate=0.3,
        span_length=48,
        mutation_rate=0.03,
        seed=11,
    )
    family = HashFamily(k=16, seed=5)
    memory = build_memory_index(data.corpus, family, t=25, vocab_size=512)
    directory = tmp_path_factory.mktemp("hotpath-index")
    write_index(memory, directory)
    disk = DiskInvertedIndex(directory)
    return data, family, memory, disk


def reader_variants(memory, disk, family):
    return {
        "memory": memory,
        "disk": disk,
        "cached-memory": CachedIndexReader(memory),
        "cached-disk": CachedIndexReader(disk),
        "union": UnionIndexReader(family, memory.t, [disk]),
    }


# ---------------------------------------------------------------------------
# Batched readers == scalar readers
# ---------------------------------------------------------------------------
class TestBatchedReaders:
    def test_sketch_list_lengths_matches_loop(self, corpus_setup):
        data, family, memory, disk = corpus_setup
        sketch = family.sketch(np.asarray(data.corpus[0])[:60])
        for name, reader in reader_variants(memory, disk, family).items():
            lengths = reader.sketch_list_lengths(sketch)
            expected = [
                reader.load_list(func, int(sketch[func])).size
                for func in range(family.k)
            ]
            assert lengths.tolist() == expected, name

    def test_reader_without_batched_methods_is_refused(self, corpus_setup):
        _, _, memory, _ = corpus_setup

        class MinimalReader:
            family = memory.family
            t = memory.t
            io_stats = memory.io_stats
            load_list = memory.load_list

        with pytest.raises(InvalidParameterError) as refusal:
            NearDuplicateSearcher(MinimalReader())
        assert "sketch_list_lengths" in str(refusal.value)
        assert "load_texts_windows" in str(refusal.value)

    def test_load_texts_windows_matches_point_reads(self, corpus_setup):
        data, family, memory, disk = corpus_setup
        rng = np.random.default_rng(3)
        sketch = family.sketch(np.asarray(data.corpus[2])[:80])
        # Texts present, absent, duplicated, and out of range.
        wanted = np.array(
            sorted(rng.integers(0, 140, size=12).tolist() + [0, 0, 5]),
            dtype=np.int64,
        )
        for name, reader in reader_variants(memory, disk, family).items():
            for func in range(family.k):
                minhash = int(sketch[func])
                batched = reader.load_texts_windows(func, minhash, wanted)
                parts = [
                    reader.load_texts_windows(func, minhash, [text_id])
                    for text_id in np.unique(wanted)
                ]
                parts = [part for part in parts if part.size]
                expected = (
                    np.concatenate(parts)
                    if parts
                    else np.empty(0, dtype=POSTING_DTYPE)
                )
                assert np.array_equal(batched, expected), (name, func)

    def test_load_texts_windows_absent_list(self, corpus_setup):
        _, family, memory, disk = corpus_setup
        for name, reader in reader_variants(memory, disk, family).items():
            out = reader.load_texts_windows(
                0, 0xDEADBEEF, np.array([1, 2], dtype=np.int64)
            )
            assert out.size == 0, name

    def test_cached_reader_serves_from_hot_list(self, corpus_setup):
        data, family, memory, _ = corpus_setup
        reader = CachedIndexReader(memory)
        sketch = family.sketch(np.asarray(data.corpus[4])[:80])
        func = int(np.argmax(reader.sketch_list_lengths(sketch)))
        minhash = int(sketch[func])
        full = reader.load_list(func, minhash)
        assert full.size > 0
        hits_before = reader.hits
        wanted = np.unique(full["text"][: min(full.size, 5)].astype(np.int64))
        batched = reader.load_texts_windows(func, minhash, wanted)
        assert reader.hits == hits_before + 1
        expected = np.concatenate(
            [memory.load_texts_windows(func, minhash, [t]) for t in wanted]
        )
        assert np.array_equal(batched, expected)


class TestZoneMapLocateMany:
    @given(
        text_ids=st.lists(st.integers(0, 30), min_size=1, max_size=40),
        step=st.integers(1, 8),
        queries=st.lists(st.integers(-2, 35), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_locate(self, text_ids, step, queries):
        zone = build_zone_map(
            np.array(sorted(text_ids), dtype=np.uint32), step=step
        )
        wanted = np.array(queries, dtype=np.int64)
        lo, hi = zone.locate_many(wanted)
        for slot, text_id in enumerate(queries):
            expected_lo, expected_hi = zone.locate(int(text_id))
            assert (int(lo[slot]), int(hi[slot])) == (expected_lo, expected_hi)

    def test_empty_zone_map(self):
        zone = build_zone_map(np.empty(0, dtype=np.uint32))
        lo, hi = zone.locate_many(np.array([0, 7], dtype=np.int64))
        assert lo.tolist() == [0, 0] and hi.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# Searcher: fused == reference
# ---------------------------------------------------------------------------
class TestSearcherEquivalence:
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    @pytest.mark.parametrize("theta", [0.6, 0.8, 1.0])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_matches_and_stats(self, corpus_setup, backend, theta, shuffled):
        data, family, memory, disk = corpus_setup
        index = memory if backend == "memory" else disk
        fused = NearDuplicateSearcher(_ShuffledReader(index, 0) if shuffled else index)
        reference = ReferenceSearcher(index)
        for position in (0, 3, 17, 41):
            query = np.asarray(data.corpus[position])[:64]
            a = fused.search(query, theta)
            b = reference.search(query, theta)
            assert a.matches == b.matches
            assert a.stats.groups_scanned == b.stats.groups_scanned
            assert a.stats.candidates == b.stats.candidates
            assert a.stats.lists_loaded == b.stats.lists_loaded
            assert a.stats.long_lists == b.stats.long_lists
            assert a.stats.rows_scanned == b.stats.rows_scanned
            if not shuffled:  # a shuffled list's runs overcount
                assert a.stats.rows_kept == b.stats.rows_kept

    def test_verify_path_equivalent(self, corpus_setup):
        data, _, memory, _ = corpus_setup
        fused = NearDuplicateSearcher(memory, corpus=data.corpus)
        reference = ReferenceSearcher(memory, corpus=data.corpus)
        for position in (0, 9, 23):
            query = np.asarray(data.corpus[position])[:64]
            a = fused.search(query, 0.7, verify=True)
            b = reference.search(query, 0.7, verify=True)
            assert a.matches == b.matches

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_long_list_path_equivalent_with_fewer_point_reads(
        self, corpus_setup, backend
    ):
        data, _, memory, disk = corpus_setup
        index = memory if backend == "memory" else disk
        fused = NearDuplicateSearcher(index, long_list_cutoff=1)
        reference = ReferenceSearcher(index, long_list_cutoff=1)
        saw_long = False
        for position in (0, 3, 17, 41, 60):
            query = np.asarray(data.corpus[position])[:64]
            a = fused.search(query, 0.6)
            b = reference.search(query, 0.6)
            assert a.matches == b.matches
            assert a.stats.long_lists == b.stats.long_lists
            # Reference pays one point read per (candidate, long list);
            # fused pays one batched read per long list.
            assert a.stats.point_reads <= b.stats.point_reads
            if b.stats.long_lists and b.stats.candidates > 1:
                saw_long = True
                assert a.stats.point_reads < b.stats.point_reads
        assert saw_long, "corpus did not exercise the long-list path"

    def test_point_reads_zero_without_long_lists(self, corpus_setup):
        data, _, memory, _ = corpus_setup
        searcher = NearDuplicateSearcher(memory, long_list_cutoff=0)
        result = searcher.search(np.asarray(data.corpus[0])[:64], 0.7)
        assert result.stats.long_lists == 0
        assert result.stats.point_reads == 0


class _ShuffledReader:
    """Reader proxy that hands back every full list in a random order.

    The list-count prune assumes lists sorted by text only to count
    exactly; an unsorted list must only overcount, so answers hold.
    """

    def __init__(self, inner, seed: int) -> None:
        self._inner = inner
        self._rng = np.random.default_rng(seed)

    def load_list(self, func, minhash):
        loaded = self._inner.load_list(func, minhash)
        if not np.ndim(func):
            return self._rng.permutation(loaded)
        return join_lists(
            self._rng.permutation(part) for part in split_lists(*loaded)
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)


@st.composite
def search_cases(draw):
    """A small random corpus, index parameters and one query.

    Tiny vocabularies make repeated tokens, hash ties and texts with
    many windows in one list the common case; ``k=1`` and a cutoff of 1
    give single short lists and the long-list refinement.
    """
    vocab = draw(st.integers(2, 12))
    texts = draw(
        st.lists(
            st.lists(st.integers(0, vocab - 1), min_size=1, max_size=60),
            min_size=1,
            max_size=8,
        )
    )
    source = draw(st.integers(0, len(texts)))
    if source < len(texts):
        text = texts[source]
        start = draw(st.integers(0, len(text) - 1))
        query = text[start : start + draw(st.integers(1, 40))]
    else:
        query = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=40))
    return {
        "texts": texts,
        "query": np.array(query, dtype=np.uint32),
        "k": draw(st.sampled_from([1, 2, 4, 8])),
        "seed": draw(st.integers(0, 3)),
        "t": draw(st.integers(1, 6)),
        "theta": draw(st.sampled_from([0.3, 0.5, 0.75, 1.0])),
        "cutoff": draw(st.sampled_from([None, 0, 1, 2])),
        "shuffle": draw(st.booleans()),
    }


class TestListCountPrune:
    """The scan prunes texts by their number of short lists; the scalar
    reference prunes by their number of windows.  Both must give the
    same matches, in the same order, with the same counters."""

    @given(case=search_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, case):
        family = HashFamily(k=case["k"], seed=case["seed"])
        index = build_memory_index(
            InMemoryCorpus(case["texts"]), family, t=case["t"]
        )
        fused_reader = (
            _ShuffledReader(index, case["seed"]) if case["shuffle"] else index
        )
        fused = NearDuplicateSearcher(fused_reader, long_list_cutoff=case["cutoff"])
        reference = ReferenceSearcher(index, long_list_cutoff=case["cutoff"])
        a = fused.search(case["query"], case["theta"])
        b = reference.search(case["query"], case["theta"])
        assert a.matches == b.matches
        for name in (
            "lists_loaded",
            "long_lists",
            "groups_scanned",
            "candidates",
            "texts_matched",
            "rows_scanned",
        ):
            assert getattr(a.stats, name) == getattr(b.stats, name), name
        if not case["shuffle"]:  # a shuffled list's runs overcount
            assert a.stats.rows_kept == b.stats.rows_kept
        # One grouped read per long list, against one per candidate.
        assert a.stats.point_reads <= b.stats.point_reads

    def test_repeated_token_text_is_pruned_by_lists(self):
        """A text repeating one token has many windows in one list, and
        no window in any other: at beta >= 2 none of its rows reaches
        the kernel."""
        family = HashFamily(k=4, seed=0)
        texts = [[7] * 200, list(range(40))]
        index = build_memory_index(InMemoryCorpus(texts), family, t=5)
        query = np.array([7] * 20 + list(range(20)), dtype=np.uint32)
        lists = split_lists(
            *index.load_list(np.arange(family.k), family.sketch(query))
        )
        per_list = [int(np.count_nonzero(p["text"] == 0)) for p in lists]
        assert sum(1 for n in per_list if n) == 1 and max(per_list) >= 2
        searcher = NearDuplicateSearcher(index, long_list_cutoff=0)
        result = searcher.search(query, 0.5)
        reference = ReferenceSearcher(index, long_list_cutoff=0).search(query, 0.5)
        assert result.matches == reference.matches
        assert result.stats.rows_scanned == sum(p.size for p in lists)
        assert result.stats.rows_kept <= result.stats.rows_scanned - sum(per_list)


class TestBetaOneEdge:
    def test_select_long_lists_keeps_zero_at_beta_one(self, corpus_setup):
        """With beta = 1 every list must stay short: the short-list
        threshold is beta - len(long) and must remain >= 1."""
        _, family, memory, _ = corpus_setup
        searcher = NearDuplicateSearcher(memory, long_list_cutoff=1)
        lengths = np.array([10_000] * family.k, dtype=np.int64)
        assert not searcher._select_long_lists(lengths, beta=1).any()
        assert searcher._select_long_lists(lengths, beta=4).sum() == 3

    def test_search_at_beta_one_uses_no_long_lists(self, corpus_setup):
        data, family, memory, _ = corpus_setup
        searcher = NearDuplicateSearcher(memory, long_list_cutoff=1)
        query = np.asarray(data.corpus[0])[:64]
        # theta low enough that ceil(k * theta) == 1.
        result = searcher.search(query, 1.0 / (2 * family.k))
        assert result.beta == 1
        assert result.stats.long_lists == 0
        assert result.stats.point_reads == 0
