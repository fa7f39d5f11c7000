"""Tests for the index integrity validator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.corpus.corpus import InMemoryCorpus
from repro.index.builder import build_memory_index
from repro.index.inverted import POSTING_DTYPE
from repro.index.storage import DiskInvertedIndex, MemoryInvertedIndex, write_index
from repro.index.validate import validate_index


@pytest.fixture(scope="module")
def good_setup():
    rng = np.random.default_rng(7)
    corpus = InMemoryCorpus(
        [rng.integers(0, 60, size=50).astype(np.uint32) for _ in range(8)]
    )
    family = HashFamily(k=4, seed=3)
    index = build_memory_index(corpus, family, t=8, vocab_size=60)
    return corpus, family, index


def corrupt_index(family, t, records):
    """Build an index directly from raw (minhash, text, l, c, r) records."""
    minhashes = np.array([r[0] for r in records], dtype=np.uint32)
    postings = np.empty(len(records), dtype=POSTING_DTYPE)
    for idx, (_, text, left, center, right) in enumerate(records):
        postings[idx] = (text, left, center, right)
    per_func = [(minhashes, postings)] + [
        (np.empty(0, dtype=np.uint32), np.empty(0, dtype=POSTING_DTYPE))
    ] * (family.k - 1)
    return MemoryInvertedIndex.from_postings(family, t, per_func)


class TestValidIndexes:
    def test_memory_index_passes(self, good_setup):
        corpus, family, index = good_setup
        report = validate_index(index, corpus)
        assert report.ok, report.errors
        assert report.lists_checked > 0
        assert report.postings_checked == index.num_postings

    def test_disk_index_passes(self, good_setup, tmp_path):
        corpus, family, index = good_setup
        write_index(index, tmp_path / "idx")
        disk = DiskInvertedIndex(tmp_path / "idx")
        report = validate_index(disk, corpus)
        assert report.ok, report.errors

    def test_structure_only_validation(self, good_setup):
        _, _, index = good_setup
        report = validate_index(index)  # no corpus: shallow checks only
        assert report.ok

    def test_sampled_validation(self, good_setup):
        corpus, _, index = good_setup
        report = validate_index(index, corpus, max_lists_per_func=2)
        assert report.ok
        assert report.lists_checked <= 2 * index.family.k


class TestCorruptIndexes:
    def test_bad_geometry_detected(self):
        family = HashFamily(k=2, seed=1)
        index = corrupt_index(family, 3, [(10, 0, 5, 2, 8)])  # left > center
        report = validate_index(index)
        assert not report.ok
        assert any("geometry" in e for e in report.errors)

    def test_narrow_window_detected(self):
        family = HashFamily(k=2, seed=1)
        index = corrupt_index(family, 10, [(10, 0, 2, 3, 5)])  # width 4 < t
        report = validate_index(index)
        assert any("narrower" in e for e in report.errors)

    def test_window_outside_text_detected(self):
        family = HashFamily(k=2, seed=1)
        corpus = InMemoryCorpus([[1, 2, 3]])
        index = corrupt_index(family, 2, [(10, 0, 0, 1, 9)])  # right=9 > len
        report = validate_index(index, corpus)
        assert any("exceeds text" in e for e in report.errors)

    def test_text_id_out_of_range_detected(self):
        family = HashFamily(k=2, seed=1)
        corpus = InMemoryCorpus([[1, 2, 3]])
        index = corrupt_index(family, 2, [(10, 7, 0, 1, 2)])
        report = validate_index(index, corpus)
        assert any("out of range" in e for e in report.errors)

    def test_wrong_minhash_detected(self):
        family = HashFamily(k=2, seed=1)
        corpus = InMemoryCorpus([np.arange(10, dtype=np.uint32)])
        # Window geometry fine, but the stored min-hash is bogus.
        index = corrupt_index(family, 3, [(123456, 0, 0, 4, 9)])
        report = validate_index(index, corpus)
        assert any("mismatch" in e or "minimal" in e for e in report.errors)

    def test_tampered_disk_payload_detected(self, good_setup, tmp_path):
        corpus, family, index = good_setup
        write_index(index, tmp_path / "tampered")
        payload = tmp_path / "tampered" / "index.postings.bin"
        raw = bytearray(payload.read_bytes())
        # Flip a posting's 'right' field to an absurd value.
        raw[12:16] = (10**6).to_bytes(4, "little")
        payload.write_bytes(bytes(raw))
        disk = DiskInvertedIndex(tmp_path / "tampered")
        report = validate_index(disk, corpus)
        assert not report.ok


class TestCLIValidate:
    def test_cli_roundtrip(self, good_setup, tmp_path, capsys):
        from repro.cli import main
        from repro.corpus.store import write_corpus

        corpus, family, index = good_setup
        write_index(index, tmp_path / "idx")
        write_corpus(corpus, tmp_path / "corpus")
        code = main(
            ["validate", str(tmp_path / "idx"), "--corpus", str(tmp_path / "corpus")]
        )
        assert code == 0
        assert "index OK" in capsys.readouterr().out
