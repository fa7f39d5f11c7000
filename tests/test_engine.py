"""Tests for the high-level NearDupEngine facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.corpus import InMemoryCorpus
from repro.engine import Hit, NearDupEngine
from repro.exceptions import InvalidParameterError

from write_oracle import index_bytes

DOCS = [
    "the standard terms and conditions apply to all purchases made "
    "through this website including digital goods and services " * 2,
    "completely unrelated content about gardening tomatoes in summer "
    "with plenty of water and sunshine every single day " * 2,
    # Lifts the boilerplate of document 0 with two word changes.
    "intro paragraph here. the standard terms and conditions apply to "
    "all orders made through this platform including digital goods and "
    "services. closing remarks follow " * 2,
]


@pytest.fixture(scope="module")
def engine():
    return NearDupEngine.from_texts(DOCS, k=24, t=12, vocab_size=400, seed=1)


class TestFromTexts:
    def test_metadata(self, engine):
        assert engine.num_texts == 3
        assert engine.total_tokens > 0
        assert engine.tokenizer is not None

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            NearDupEngine.from_texts([])

    QUERY = (
        " the standard terms and conditions apply to all purchases made "
        "through this website including digital goods and services"
    )

    def test_string_search_finds_source(self, engine):
        hits = engine.search(self.QUERY, theta=0.8)
        assert {hit.text_id for hit in hits} >= {0}
        assert all(isinstance(hit, Hit) for hit in hits)

    def test_string_search_finds_paraphrase_at_low_theta(self, engine):
        # BPE merges differ between the two phrasings, so the paraphrase
        # sits at token-level Jaccard ~0.5 despite the word overlap.
        hits = engine.search(self.QUERY, theta=0.5)
        assert {hit.text_id for hit in hits} >= {0, 2}

    def test_snippets_decoded(self, engine):
        hits = engine.search(self.QUERY, theta=0.7)
        assert hits
        assert any("terms" in (hit.snippet or "") for hit in hits)

    def test_contains_near_duplicate(self, engine):
        assert engine.contains_near_duplicate(self.QUERY, theta=0.7)
        assert not engine.contains_near_duplicate(
            "zebra xylophone quantum volcano " * 4, theta=0.9
        )

    def test_token_query_accepted(self, engine):
        tokens = engine.tokenizer.encode(self.QUERY)
        result = engine.search_raw(tokens, theta=0.8)
        assert result.num_texts >= 1
        # Same answer as the string form of the query.
        via_string = engine.search_raw(self.QUERY, theta=0.8)
        assert {m.text_id for m in result.matches} == {
            m.text_id for m in via_string.matches
        }

    def test_verify_mode(self, engine):
        hits = engine.search(self.QUERY, theta=0.7, verify=True)
        assert {hit.text_id for hit in hits} >= {0}

    def test_unknown_search_keyword_raises(self, engine):
        """The raw searches take ``verify`` and nothing else: any other
        keyword fails at the call instead of reaching the searcher."""
        with pytest.raises(TypeError):
            engine.search_raw(self.QUERY, first_match_only=True)
        with pytest.raises(TypeError):
            engine.search_batch_raw([self.QUERY], first_match_only=True)


class TestFromCorpus:
    def test_token_only_engine(self):
        rng = np.random.default_rng(5)
        corpus = InMemoryCorpus(
            [rng.integers(0, 100, size=40).astype(np.uint32) for _ in range(4)]
        )
        engine = NearDupEngine.from_corpus(corpus, k=8, t=10, vocab_size=100)
        result = engine.search_raw(np.asarray(corpus[1])[:20], theta=0.9)
        assert any(m.text_id == 1 for m in result.matches)

    def test_string_query_without_tokenizer_rejected(self):
        corpus = InMemoryCorpus([np.arange(30, dtype=np.uint32)])
        engine = NearDupEngine.from_corpus(corpus, k=4, t=5)
        with pytest.raises(InvalidParameterError):
            engine.search("hello")

    def test_snippets_none_without_tokenizer(self):
        corpus = InMemoryCorpus([np.arange(30, dtype=np.uint32)])
        engine = NearDupEngine.from_corpus(corpus, k=4, t=5)
        hits = engine.search(np.arange(10, dtype=np.uint32), theta=0.5)
        assert all(hit.snippet is None for hit in hits)


class TestPersistence:
    def test_save_load_roundtrip(self, engine, tmp_path):
        engine.save(tmp_path / "saved")
        loaded = NearDupEngine.load(tmp_path / "saved")
        assert loaded.num_texts == engine.num_texts
        assert loaded.total_tokens == engine.total_tokens
        query = TestFromTexts.QUERY
        original = {(h.text_id, h.start, h.end) for h in engine.search(query, 0.7)}
        reloaded = {(h.text_id, h.start, h.end) for h in loaded.search(query, 0.7)}
        assert original == reloaded

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            NearDupEngine.load(tmp_path / "nothing")

    def test_saved_engine_resaveable(self, engine, tmp_path):
        """A loaded (disk-backed) engine saves again, byte for byte."""
        packed = NearDupEngine.from_texts(
            DOCS, k=24, t=12, vocab_size=400, seed=1, codec="packed"
        )
        for source in (engine, packed):
            root = tmp_path / source.codec
            source.save(root / "one")
            loaded = NearDupEngine.load(root / "one")
            loaded.save(root / "two")
            again = NearDupEngine.load(root / "two")
            assert again.num_texts == engine.num_texts
            assert index_bytes(root / "one" / "index") == index_bytes(
                root / "two" / "index"
            )
