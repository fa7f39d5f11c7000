"""Deep hypothesis properties: whole-pipeline invariants.

These are slower, wider-net property tests than
``tests/test_properties.py`` — each example exercises multiple layers
(build + query, or spill + aggregate) and asserts exact equivalence.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import search_definition2
from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.index.builder import build_memory_index
from repro.tokenizer.bpe import BPETokenizer

from index_lists import func_lists

# Small-but-varied corpora: 2-5 texts, lengths 1-25, vocab 12 (heavy
# duplication exercises tie-breaking everywhere).
corpora = st.lists(
    st.lists(st.integers(0, 11), min_size=1, max_size=25),
    min_size=2,
    max_size=5,
).map(lambda texts: InMemoryCorpus([np.asarray(t, dtype=np.uint32) for t in texts]))

queries = st.lists(st.integers(0, 11), min_size=1, max_size=12).map(
    lambda xs: np.asarray(xs, dtype=np.uint32)
)


class TestEndToEndOracle:
    @given(
        corpus=corpora,
        query=queries,
        theta=st.sampled_from([0.3, 0.6, 1.0]),
        t=st.integers(1, 6),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_equals_definition2(self, corpus, query, theta, t, seed):
        """Theorem 2 as a property: index+search == brute-force oracle,
        for arbitrary corpora, thresholds and hash draws."""
        family = HashFamily(k=5, seed=seed)
        index = build_memory_index(corpus, family, t=t, vocab_size=12)
        result = NearDuplicateSearcher(index).search(query, theta)
        got = {
            (m.text_id, i, j)
            for m in result.matches
            for rect in m.rectangles
            for (i, j) in rect.iter_spans(t)
        }
        expected = {
            (s.text_id, s.start, s.end)
            for s in search_definition2(corpus, query, theta, t, family)
        }
        assert got == expected

    @given(
        corpus=corpora,
        query=queries,
        cutoff=st.sampled_from([0, 1, 3, None]),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_prefix_filter_invariance(self, corpus, query, cutoff, seed):
        """Any prefix cutoff returns the identical answer set."""
        family = HashFamily(k=6, seed=seed)
        index = build_memory_index(corpus, family, t=3, vocab_size=12)
        baseline = NearDuplicateSearcher(index, long_list_cutoff=0).search(query, 0.5)
        filtered = NearDuplicateSearcher(index, long_list_cutoff=cutoff).search(
            query, 0.5
        )
        as_set = lambda res: {
            (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
            for m in res.matches
            for r in m.rectangles
        }
        assert as_set(baseline) == as_set(filtered)


class TestMultiThetaProperties:
    @given(
        corpus=corpora,
        query=queries,
        seed=st.integers(0, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_search_thetas_equals_individual(self, corpus, query, seed):
        """The single-pass multi-theta search is per-theta exact."""
        family = HashFamily(k=6, seed=seed)
        index = build_memory_index(corpus, family, t=3, vocab_size=12)
        searcher = NearDuplicateSearcher(index)
        thetas = [0.3, 0.6, 0.9, 1.0]
        combined = searcher.search_thetas(query, thetas)
        for theta in thetas:
            single = searcher.search(query, theta)
            as_set = lambda res: {
                (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
                for m in res.matches
                for r in m.rectangles
            }
            assert as_set(combined[theta]) == as_set(single)


class TestStorageProperties:
    @given(corpus=corpora, seed=st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_disk_roundtrip_preserves_lists(self, corpus, seed, tmp_path_factory):
        from repro.index.storage import DiskInvertedIndex, write_index

        family = HashFamily(k=3, seed=seed)
        memory = build_memory_index(corpus, family, t=2, vocab_size=12)
        directory = tmp_path_factory.mktemp("prop")
        write_index(memory, directory, zonemap_step=2, zonemap_min_list=3)
        disk = DiskInvertedIndex(directory)
        for func in range(family.k):
            for minhash, postings in func_lists(memory, func).items():
                assert np.array_equal(disk.load_list(func, minhash), postings)

    @given(
        corpus=corpora,
        batch=st.integers(1, 4),
        partitions=st.integers(2, 5),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=15, deadline=None)
    def test_external_build_equivalence(
        self, corpus, batch, partitions, seed, tmp_path_factory
    ):
        from repro.index.external import ExternalBuildConfig, build_external_index
        from repro.index.storage import DiskInvertedIndex

        family = HashFamily(k=3, seed=seed)
        reference = build_memory_index(corpus, family, t=2, vocab_size=12)
        directory = tmp_path_factory.mktemp("ext")
        build_external_index(
            corpus,
            family,
            2,
            directory,
            vocab_size=12,
            config=ExternalBuildConfig(
                batch_texts=batch,
                num_partitions=partitions,
                memory_budget_bytes=256,  # force recursive partitioning paths
            ),
        )
        external = DiskInvertedIndex(directory)
        assert external.num_postings == reference.num_postings
        for func in range(family.k):
            lists_a = func_lists(reference, func)
            lists_b = func_lists(external, func)
            assert lists_a.keys() == lists_b.keys()
            for key in lists_a:
                assert np.array_equal(lists_a[key], lists_b[key])


class TestTokenizerProperties:
    printable_texts = st.text(
        alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
        min_size=0,
        max_size=120,
    )

    @given(text=printable_texts)
    @settings(max_examples=80, deadline=None)
    def test_untrained_roundtrip(self, text):
        tokenizer = BPETokenizer()
        assert tokenizer.decode(tokenizer.encode(text)) == text

    @given(text=printable_texts, budget=st.integers(260, 330))
    @settings(max_examples=25, deadline=None)
    def test_trained_roundtrip(self, text, budget):
        corpus = [text, "common filler words appear here"]
        tokenizer = BPETokenizer.train(corpus, vocab_size=budget)
        assert tokenizer.decode(tokenizer.encode(text)) == text

    @given(text=printable_texts)
    @settings(max_examples=25, deadline=None)
    def test_save_load_identity(self, text, tmp_path_factory):
        tokenizer = BPETokenizer.train([text, "abc abc abc"], vocab_size=280)
        path = tmp_path_factory.mktemp("tok") / "model.json"
        tokenizer.save(path)
        loaded = BPETokenizer.load(path)
        assert loaded.encode(text).tolist() == tokenizer.encode(text).tolist()
