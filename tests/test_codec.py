"""Format v2 posting codec: kernels, round-trips, reader equivalence.

Three layers of assurance:

* the vectorized pack/unpack kernels and the list encoders (one list
  and a run of lists) are checked byte-for-byte against the scalar
  ``reference_*`` oracle of ``tests/write_oracle.py`` (hypothesis
  property tests plus adversarial fixed cases);
* every reader backend — memory, disk v1, disk v2, cached disk v2,
  union over disk v2 — must return identical search results;
* corrupt-block, truncated-payload and partial-build directories must
  fail loudly, never decode garbage.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashing import HashFamily
from repro.core.intervals import FusedRectangles
from repro.core.search import (
    COUNTERS,
    BatchAnswer,
    NearDuplicateSearcher,
    QueryStats,
)
from repro.corpus.synthetic import synthweb
from repro.exceptions import IndexFormatError, InvalidParameterError
from repro.index.builder import build_memory_index
from repro.index.cache import CachedIndexReader
from repro.index import codec
from repro.index.codec import (
    BLOCK_POSTINGS,
    block_byte_sizes,
    block_counts,
    check_codec,
    decode_blocks,
    decode_rows,
    decode_texts,
    encode_list,
    encode_lists,
    list_columns,
    pack_bits,
    unpack_bits_at,
)
from repro.index.inverted import POSTING_BYTES, POSTING_DTYPE
from repro.index.lsm import UnionIndexReader
from repro.index.sidecar import SIDECAR_FILE, read_sidecar, write_sidecar
from repro.index.storage import DiskInvertedIndex, write_index
from repro.index.validate import validate_index
from repro.query.results import BatchStats
from index_lists import func_lists
from write_oracle import (
    reference_decode_list,
    reference_encode_list,
    reference_pack_bits,
    reference_unpack_bits,
)


def make_postings(
    n: int,
    *,
    seed: int = 0,
    text_range: int = 5000,
    position_scale: int = 100_000,
    equal_texts: bool = False,
) -> np.ndarray:
    """A synthetic text-sorted posting list with plausible geometry."""
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=POSTING_DTYPE)
    if equal_texts:
        out["text"] = rng.integers(0, text_range)
    else:
        out["text"] = np.sort(rng.integers(0, text_range, n)).astype(np.uint32)
    centers = rng.integers(0, position_scale, n).astype(np.uint32)
    out["center"] = centers
    out["left"] = centers - np.minimum(
        rng.integers(0, 64, n).astype(np.uint32), centers
    )
    out["right"] = centers + np.minimum(
        rng.integers(0, 64, n).astype(np.uint32),
        (2**32 - 1) - centers.astype(np.int64),
    ).astype(np.uint32)
    return out


def pack_fields(values: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar packer for fields of mixed widths: the fields MSB-first,
    back to back, as one Python int; returns the slab and every field's
    first bit."""
    stream, starts, bit = 0, [], 0
    for value, width in zip(values.tolist(), widths.tolist()):
        stream = (stream << width) | value
        starts.append(bit)
        bit += width
    nbytes = (bit + 7) // 8
    slab = (stream << (8 * nbytes - bit)).to_bytes(nbytes, "big")
    return np.frombuffer(slab, dtype=np.uint8), np.asarray(starts, dtype=np.int64)


def roundtrip(postings: np.ndarray) -> np.ndarray:
    """Encode then decode all blocks of one list."""
    encoded = encode_list(postings)
    counts = block_counts(encoded.count)
    sizes = block_byte_sizes(counts, encoded.widths)
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    return decode_blocks(
        encoded.data, offsets, counts, encoded.widths, encoded.first_texts
    )


# ---------------------------------------------------------------------------
# Bit-slab kernels vs. the scalar oracle
# ---------------------------------------------------------------------------
class TestPackKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(0, 32),
        values=st.lists(st.integers(0, 2**32 - 1), max_size=200),
    )
    def test_pack_matches_reference(self, width, values):
        mask = (1 << width) - 1 if width else 0
        vals = np.asarray([v & mask for v in values], dtype=np.uint32)
        assert np.array_equal(pack_bits(vals, width), reference_pack_bits(vals, width))

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 32),
        values=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=200),
        seed=st.integers(0, 2**16),
    )
    def test_unpack_inverts_pack_at_any_offset_order(self, width, values, seed):
        mask = (1 << width) - 1
        vals = np.asarray([v & mask for v in values], dtype=np.uint32)
        slab = pack_bits(vals, width)
        starts = np.arange(vals.size, dtype=np.int64) * width
        perm = np.random.default_rng(seed).permutation(vals.size)
        assert np.array_equal(unpack_bits_at(slab, starts[perm], width), vals[perm])
        assert np.array_equal(
            reference_unpack_bits(slab, vals.size, width), vals
        )
        # Per-field widths 0-32 in unsorted order: the first field is 0
        # bits wide at bit 0 (a kernel that shifted its field out of a
        # 64-bit word would shift by 64) and the last is 32 bits wide,
        # ending on the slab's last byte.
        rng = np.random.default_rng(seed)
        widths = np.concatenate(([0], rng.integers(0, 33, vals.size), [32]))
        fields = np.asarray([0, *values, values[-1] | 1 << 31], dtype=np.uint32)
        fields &= ((np.uint64(1) << widths.astype(np.uint64)) - 1).astype(np.uint32)
        slab, starts = pack_fields(fields, widths)
        assert starts[-1] + 32 > 8 * (slab.size - 1)
        perm = rng.permutation(widths.size)
        assert np.array_equal(
            unpack_bits_at(slab, starts[perm], widths[perm]), fields[perm]
        )

    def test_width_zero_and_empty(self):
        assert pack_bits(np.arange(5, dtype=np.uint32) * 0, 0).size == 0
        assert pack_bits(np.empty(0, dtype=np.uint32), 7).size == 0
        assert np.array_equal(
            unpack_bits_at(np.ones(4, np.uint8), np.arange(3), 0),
            np.zeros(3, np.uint32),
        )

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidParameterError):
            pack_bits(np.zeros(1, np.uint32), 33)
        with pytest.raises(InvalidParameterError):
            unpack_bits_at(np.zeros(1, np.uint8), np.zeros(1, np.int64), -1)
        for widths in ([3, 33], [-1, 3], [0, 255]):
            with pytest.raises(InvalidParameterError):
                unpack_bits_at(np.zeros(8, np.uint8), np.zeros(2, np.int64), widths)
        with pytest.raises(InvalidParameterError, match="one width per"):
            unpack_bits_at(np.zeros(8, np.uint8), np.zeros(2, np.int64), [3])

    def test_decode_rows_checks_every_block_width(self):
        encoded = encode_list(make_postings(300, seed=4))
        counts = block_counts(encoded.count)
        offsets = np.concatenate(([0], np.cumsum(encoded.block_sizes)))[:-1]
        widths = encoded.widths.copy()
        widths[2, 3] = 33
        texts = decode_texts(encoded.data, offsets, counts, widths, encoded.first_texts)
        with pytest.raises(InvalidParameterError):  # no row of block 2 asked for
            decode_rows(encoded.data, offsets, counts, widths, texts[:1], [0])
        with pytest.raises(InvalidParameterError):
            decode_blocks(encoded.data, offsets, counts, widths, encoded.first_texts)

    def test_check_codec(self):
        assert check_codec("raw") == "raw"
        assert check_codec("packed") == "packed"
        with pytest.raises(InvalidParameterError):
            check_codec("zstd")


# ---------------------------------------------------------------------------
# List encode/decode vs. the scalar oracle
# ---------------------------------------------------------------------------
class TestEncodeList:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 500),
        seed=st.integers(0, 2**16),
        text_range=st.sampled_from([1, 40, 5000]),
        position_scale=st.sampled_from([1, 1000, 2**32 - 1]),
        equal_texts=st.booleans(),
    )
    def test_matches_reference_and_roundtrips(
        self, n, seed, text_range, position_scale, equal_texts
    ):
        postings = make_postings(
            n,
            seed=seed,
            text_range=text_range,
            position_scale=position_scale,
            equal_texts=equal_texts,
        )
        encoded = encode_list(postings)
        oracle = reference_encode_list(postings)
        assert np.array_equal(encoded.data, oracle.data)
        assert np.array_equal(encoded.first_texts, oracle.first_texts)
        assert np.array_equal(encoded.widths, oracle.widths)
        assert encoded.count == oracle.count == n
        assert np.array_equal(roundtrip(postings), postings)
        assert np.array_equal(reference_decode_list(encoded), postings)

    @pytest.mark.parametrize(
        "n", [1, 2, BLOCK_POSTINGS - 1, BLOCK_POSTINGS, BLOCK_POSTINGS + 1, 3 * BLOCK_POSTINGS]
    )
    def test_block_boundaries(self, n):
        postings = make_postings(n, seed=n)
        assert np.array_equal(roundtrip(postings), postings)

    def test_single_posting(self):
        postings = make_postings(1, seed=9)
        encoded = encode_list(postings)
        assert encoded.num_blocks == 1
        assert int(encoded.first_texts[0]) == int(postings["text"][0])
        assert np.array_equal(roundtrip(postings), postings)

    def test_all_equal_texts_gets_width_zero_delta(self):
        postings = make_postings(300, seed=4, equal_texts=True)
        encoded = encode_list(postings)
        assert np.all(encoded.widths[:, 0] == 0)  # all deltas are zero
        assert np.array_equal(roundtrip(postings), postings)

    def test_max_uint32_values(self):
        top = 2**32 - 1
        postings = np.zeros(200, dtype=POSTING_DTYPE)
        postings["text"] = top
        postings["left"] = 0
        postings["center"] = top
        postings["right"] = top
        encoded = encode_list(postings)
        assert np.all(encoded.widths[:, 1] == 32)  # center - left residual
        assert np.array_equal(roundtrip(postings), postings)
        assert np.array_equal(
            encoded.data, reference_encode_list(postings).data
        )

    def test_width_zero_columns_all_zero_postings(self):
        postings = np.zeros(150, dtype=POSTING_DTYPE)
        encoded = encode_list(postings)
        assert np.all(encoded.widths == 0)
        assert encoded.data.size == 0
        assert np.array_equal(roundtrip(postings), postings)

    def test_empty_list(self):
        empty = np.empty(0, dtype=POSTING_DTYPE)
        encoded = encode_list(empty)
        assert encoded.count == 0 and encoded.num_blocks == 0
        assert roundtrip(empty).size == 0

    def test_compresses_typical_lists(self):
        postings = make_postings(2000, seed=11, position_scale=5000)
        encoded = encode_list(postings)
        assert encoded.data.size * 2 < postings.size * POSTING_BYTES

    def test_rejects_unsorted(self):
        postings = make_postings(10, seed=3)
        postings["text"] = postings["text"][::-1].copy()
        if postings["text"][0] > postings["text"][-1]:
            with pytest.raises(InvalidParameterError):
                encode_list(postings)

    def test_list_columns_block_leading_delta_is_zero(self):
        postings = make_postings(400, seed=6)
        delta = list_columns(postings)[0]
        assert np.all(delta[::BLOCK_POSTINGS] == 0)


def concat_lists(lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Lists back to back, with their bounds."""
    sizes = [int(postings.size) for postings in lists]
    joined = (
        np.concatenate(lists) if lists else np.empty(0, dtype=POSTING_DTYPE)
    )
    return joined, np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def assert_encodes_like_reference(lists: list[np.ndarray]) -> None:
    """``encode_lists`` of the run == every list's scalar encode, joined."""
    encoded = encode_lists(*concat_lists(lists))
    oracles = [reference_encode_list(postings) for postings in lists]
    assert np.array_equal(
        encoded.data, np.concatenate([np.empty(0, np.uint8)] + [o.data for o in oracles])
    )
    assert np.array_equal(
        encoded.widths,
        np.concatenate([np.empty((0, 4), np.uint8)] + [o.widths for o in oracles]),
    )
    assert np.array_equal(
        encoded.first_texts,
        np.concatenate([np.empty(0, np.uint32)] + [o.first_texts for o in oracles]),
    )
    sizes = [int(o.data.size) for o in oracles]
    list_offsets = encoded.block_offsets[encoded.list_blocks[:-1]]
    assert list_offsets.tolist() == (np.cumsum(sizes) - sizes).tolist()
    assert np.diff(encoded.list_blocks).tolist() == [o.num_blocks for o in oracles]


class TestEncodeLists:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(
            st.one_of(
                st.integers(0, 300),
                st.sampled_from([1, 127, 128, 129, 256]),
            ),
            max_size=8,
        ),
        seed=st.integers(0, 2**16),
        text_range=st.sampled_from([1, 40, 5000]),
        position_scale=st.sampled_from([1, 1000, 2**32 - 1]),
        equal_texts=st.booleans(),
    )
    def test_matches_reference_per_list(
        self, sizes, seed, text_range, position_scale, equal_texts
    ):
        assert_encodes_like_reference(
            [
                make_postings(
                    n,
                    seed=seed + i,
                    text_range=text_range,
                    position_scale=position_scale,
                    equal_texts=equal_texts,
                )
                for i, n in enumerate(sizes)
            ]
        )

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 256])
    def test_block_boundary_lengths(self, n):
        assert_encodes_like_reference(
            [make_postings(n, seed=n), make_postings(3, seed=1), make_postings(n, seed=2)]
        )

    def test_width_zero_columns_and_max_uint32(self):
        top = 2**32 - 1
        extreme = np.zeros(200, dtype=POSTING_DTYPE)
        extreme["text"] = top
        extreme["center"] = top
        extreme["right"] = top
        zeros = np.zeros(150, dtype=POSTING_DTYPE)
        encoded = encode_lists(*concat_lists([zeros, extreme, zeros]))
        assert np.all(encoded.widths[:2] == 0)  # the all-zero list's blocks
        assert np.all(encoded.widths[2:4, 1] == 32)  # center - left residual
        assert_encodes_like_reference([zeros, extreme, zeros])

    def test_texts_may_fall_between_lists(self):
        high = make_postings(50, seed=3, text_range=5000)
        high["text"] += 10_000
        low = make_postings(50, seed=4, text_range=40)
        assert_encodes_like_reference([high, low, high])

    def test_texts_may_not_fall_inside_a_list(self):
        high = make_postings(50, seed=3)
        high["text"] += 10_000
        low = make_postings(50, seed=4)
        postings = np.concatenate([high, low])
        with pytest.raises(InvalidParameterError, match="sorted"):
            encode_lists(postings, [0, postings.size])
        encode_lists(postings, [0, 50, postings.size])  # split there: accepted

    def test_rejects_bad_bounds(self):
        postings = make_postings(10)
        for bounds in ([], [1, 10], [0, 9], [0, 6, 4, 10]):
            with pytest.raises(InvalidParameterError, match="bounds"):
                encode_lists(postings, bounds)

    def test_input_past_the_working_set_cap(self, monkeypatch):
        """Chunked encoding (lists, and blocks of one list, split across
        encode passes) gives the bytes of one pass."""
        # The second run's last cut (posting 256) falls inside its last block.
        for sizes in ((5, 700, 1, 300, 129), (10, 250)):
            lists = [make_postings(n, seed=n) for n in sizes]
            whole = encode_lists(*concat_lists(lists))
            with monkeypatch.context() as patch:
                patch.setattr(codec, "_ENCODE_POSTINGS", 256)
                chunked = encode_lists(*concat_lists(lists))
            for name in ("data", "widths", "first_texts", "block_offsets", "list_blocks"):
                assert np.array_equal(getattr(whole, name), getattr(chunked, name)), name
            assert_encodes_like_reference(lists)

    def test_empty_run(self):
        encoded = encode_lists(np.empty(0, dtype=POSTING_DTYPE), [0, 0, 0])
        assert encoded.data.size == 0 and encoded.widths.shape == (0, 4)
        assert encoded.list_blocks.tolist() == [0, 0, 0]
        assert encoded.block_offsets[encoded.list_blocks[:-1]].tolist() == [0, 0]


# ---------------------------------------------------------------------------
# v1 <-> v2 search equivalence across every reader backend
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_setup(tmp_path_factory):
    data = synthweb(
        num_texts=130,
        mean_length=150,
        vocab_size=512,
        duplicate_rate=0.3,
        span_length=48,
        mutation_rate=0.03,
        seed=23,
    )
    family = HashFamily(k=8, seed=5)
    memory = build_memory_index(data.corpus, family, t=25, vocab_size=512)
    v1_dir = tmp_path_factory.mktemp("codec-v1")
    v2_dir = tmp_path_factory.mktemp("codec-v2")
    write_index(memory, v1_dir, zonemap_step=8, zonemap_min_list=16)
    write_index(memory, v2_dir, zonemap_step=8, zonemap_min_list=16, codec="packed")
    return data, family, memory, v1_dir, v2_dir


def reader_backends(memory, v1_dir, v2_dir):
    disk_v2 = DiskInvertedIndex(v2_dir)
    return {
        "memory": memory,
        "disk-v1": DiskInvertedIndex(v1_dir),
        "disk-v2": disk_v2,
        "cached-v2": CachedIndexReader(DiskInvertedIndex(v2_dir)),
        "union-v2": UnionIndexReader(disk_v2.family, disk_v2.t, [disk_v2]),
    }


class TestBackendEquivalence:
    def test_payload_actually_smaller(self, corpus_setup):
        _, _, memory, v1_dir, v2_dir = corpus_setup
        v1, v2 = DiskInvertedIndex(v1_dir), DiskInvertedIndex(v2_dir)
        assert v1.nbytes == memory.nbytes
        assert v2.nbytes * 2 < v1.nbytes
        assert v1.codec == "raw" and v2.codec == "packed"

    def test_every_list_identical(self, corpus_setup):
        _, family, memory, v1_dir, v2_dir = corpus_setup
        backends = reader_backends(memory, v1_dir, v2_dir)
        for func in range(family.k):
            for minhash, postings in func_lists(memory, func).items():
                for name, reader in backends.items():
                    assert np.array_equal(
                        reader.load_list(func, minhash), postings
                    ), (name, func, minhash)

    def test_point_reads_identical(self, corpus_setup):
        _, family, memory, v1_dir, v2_dir = corpus_setup
        backends = reader_backends(memory, v1_dir, v2_dir)
        rng = np.random.default_rng(1)
        for func in range(family.k):
            lists = list(func_lists(memory, func).items())
            minhash, postings = max(lists, key=lambda item: item[1].size)
            probe = int(rng.choice(postings["text"]))
            expected_one = postings[postings["text"] == probe]
            wanted = np.unique(
                rng.choice(postings["text"], size=min(6, postings.size))
            ).astype(np.int64)
            expected_many = postings[np.isin(postings["text"], wanted)]
            for name, reader in backends.items():
                assert np.array_equal(
                    reader.load_texts_windows(func, minhash, [probe]), expected_one
                ), name
                assert np.array_equal(
                    reader.load_texts_windows(func, minhash, wanted), expected_many
                ), name
            # Empty, absent, repeated, negative and past-uint32 ids (the
            # last one aliases ``probe`` modulo 2**32, so must not match it).
            for ids in (
                np.empty(0, dtype=np.int64),
                np.array([10**6], dtype=np.int64),
                np.array([probe, probe, probe], dtype=np.int64),
                np.array([-1, -probe - 1, probe], dtype=np.int64),
                np.array([2**32 + probe, 2**40], dtype=np.int64),
            ):
                expected = postings[np.isin(postings["text"], ids)]
                for name, reader in backends.items():
                    got = reader.load_texts_windows(func, minhash, ids)
                    assert got.dtype == POSTING_DTYPE, name
                    assert np.array_equal(got, expected), (name, ids)

    @pytest.mark.parametrize("theta", [0.6, 0.8])
    def test_search_results_identical(self, corpus_setup, theta):
        data, family, memory, v1_dir, v2_dir = corpus_setup
        backends = reader_backends(memory, v1_dir, v2_dir)
        queries = [
            np.asarray(data.corpus[i])[:64] for i in range(0, 120, 7)
        ]
        searchers = {
            name: NearDuplicateSearcher(reader, long_list_cutoff=64)
            for name, reader in backends.items()
        }
        for query in queries:
            reference = searchers["memory"].search(query, theta)
            for name, searcher in searchers.items():
                result = searcher.search(query, theta)
                assert result.matches == reference.matches, name

    def test_all_lists_identical_across_codecs(self, corpus_setup):
        _, _, memory, v1_dir, v2_dir = corpus_setup
        expected = memory.all_lists()
        for directory in (v1_dir, v2_dir):
            got = DiskInvertedIndex(directory).all_lists()
            for want, have in zip(expected, got):
                assert np.array_equal(want, have)

    def test_v2_reader_reports_compression_in_io_stats(self, corpus_setup):
        _, family, memory, v1_dir, v2_dir = corpus_setup
        disk = DiskInvertedIndex(v2_dir)
        func = 0
        minhash, postings = max(
            func_lists(memory, func).items(), key=lambda item: item[1].size
        )
        disk.io_stats.reset()
        disk.load_list(func, minhash)
        assert disk.io_stats.decoded_bytes == postings.size * POSTING_BYTES
        assert disk.io_stats.bytes_read < disk.io_stats.decoded_bytes
        # A point read reads its zone range's blocks but decodes only the
        # postings it returns; a raw one reads and counts its zone range.
        raw = DiskInvertedIndex(v1_dir)
        probe = int(postings["text"][postings.size // 2])
        lo, hi = disk.zone_map(func, minhash).locate(probe)
        blocks = slice(lo // BLOCK_POSTINGS, -(-hi // BLOCK_POSTINGS))
        widths = disk.list_blocks(func, minhash)[1]
        ranged = block_byte_sizes(block_counts(postings.size)[blocks], widths[blocks])
        for reader in (disk, raw):
            reader.io_stats.reset()
            got = reader.load_texts_windows(func, minhash, [probe])
            assert got.size == int((postings["text"] == probe).sum())
        assert disk.io_stats.bytes_read == int(ranged.sum())
        assert disk.io_stats.decoded_bytes == got.size * POSTING_BYTES
        assert raw.io_stats.bytes_read == (hi - lo) * POSTING_BYTES
        assert raw.io_stats.decoded_bytes == raw.io_stats.bytes_read

    def test_validate_passes_on_packed_index(self, corpus_setup):
        data, _, _, _, v2_dir = corpus_setup
        report = validate_index(DiskInvertedIndex(v2_dir), data.corpus)
        assert report.ok, report.errors


# ---------------------------------------------------------------------------
# Error paths: corruption, truncation, partial builds
# ---------------------------------------------------------------------------
def clone_index(source, destination):
    destination.mkdir()
    for path in source.iterdir():
        (destination / path.name).write_bytes(path.read_bytes())
    return destination


class TestErrorPaths:
    def test_truncated_v2_payload_rejected_at_open(self, corpus_setup, tmp_path):
        *_, v2_dir = corpus_setup
        clone = clone_index(v2_dir, tmp_path / "trunc")
        payload = clone / "index.postings.bin"
        payload.write_bytes(payload.read_bytes()[:-7])
        with pytest.raises(IndexFormatError, match="truncated|expected"):
            DiskInvertedIndex(clone)

    def test_partial_build_without_meta_is_explained(self, corpus_setup, tmp_path):
        *_, v2_dir = corpus_setup
        clone = clone_index(v2_dir, tmp_path / "partial")
        (clone / "index.meta.json").unlink()
        with pytest.raises(IndexFormatError, match="partial build"):
            DiskInvertedIndex(clone)

    def test_empty_directory_still_plain_missing_meta(self, tmp_path):
        with pytest.raises(IndexFormatError, match="missing"):
            DiskInvertedIndex(tmp_path)

    def test_version_codec_mismatch_rejected(self, corpus_setup, tmp_path):
        *_, v2_dir = corpus_setup
        clone = clone_index(v2_dir, tmp_path / "vmix")
        meta_path = clone / "index.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1  # packed codec claims to be v1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexFormatError, match="codec"):
            DiskInvertedIndex(clone)

    def test_unknown_codec_rejected(self, corpus_setup, tmp_path):
        *_, v2_dir = corpus_setup
        clone = clone_index(v2_dir, tmp_path / "badcodec")
        meta_path = clone / "index.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["codec"] = "zstd"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexFormatError, match="codec"):
            DiskInvertedIndex(clone)

    def test_corrupt_block_detected_by_validation(self, corpus_setup, tmp_path):
        *_, v2_dir = corpus_setup
        clone = clone_index(v2_dir, tmp_path / "corrupt")
        payload_path = clone / "index.postings.bin"
        payload = bytearray(payload_path.read_bytes())
        # Flip every byte of a payload stretch: decoded columns no longer
        # match the stored minimal widths / first_text entries.
        lo, hi = len(payload) // 4, len(payload) // 4 + 256
        for position in range(lo, min(hi, len(payload))):
            payload[position] ^= 0xFF
        payload_path.write_bytes(bytes(payload))
        report = validate_index(DiskInvertedIndex(clone))
        assert not report.ok

    def test_meta_commit_leaves_no_temp_file(self, corpus_setup):
        *_, v2_dir = corpus_setup
        assert not (v2_dir / "index.meta.json.tmp").exists()
        assert (v2_dir / "index.meta.json").exists()

    @pytest.mark.parametrize("column, width", [(0, 33), (1, 255), (2, 33), (3, 64)])
    def test_block_width_past_32_fails_the_read(
        self, corpus_setup, tmp_path, column, width
    ):
        """A block width the kernel cannot unpack fails every read that
        covers the block, whole-list and point reads alike, whichever
        column it is: the read raises instead of returning postings."""
        _, _, memory, _, v2_dir = corpus_setup
        func = 0
        minhash, postings = max(
            func_lists(memory, func).items(), key=lambda item: item[1].size
        )
        clone = clone_index(v2_dir, tmp_path / "wide")
        views = read_sidecar(clone / SIDECAR_FILE)[0]
        arrays = {name: np.array(view) for name, view in views.items()}
        del views  # unmap before the rewrite below
        lo, hi = arrays["list_edges"][func : func + 2]
        counts = arrays["counts"].astype(np.int64)
        slot = lo + int(np.searchsorted(arrays["keys"][lo:hi], minhash))
        first_block = int(((counts[:slot] + BLOCK_POSTINGS - 1) // BLOCK_POSTINGS).sum())
        last_block = first_block + (postings.size - 1) // BLOCK_POSTINGS
        arrays["blk_widths"][last_block, column] = width
        write_sidecar(clone / SIDECAR_FILE, arrays)
        disk = DiskInvertedIndex(clone)
        text = int(arrays["blk_first"][last_block])
        with pytest.raises(InvalidParameterError):
            disk.load_list(func, minhash)
        with pytest.raises(InvalidParameterError):
            disk.load_texts_windows(func, minhash, [text])

    def test_block_count_mismatch_rejected(self, corpus_setup, tmp_path):
        *_, v2_dir = corpus_setup
        clone = clone_index(v2_dir, tmp_path / "blkmiss")
        views = read_sidecar(clone / SIDECAR_FILE)[0]
        arrays = {name: np.array(view) for name, view in views.items()}
        del views  # unmap before the rewrite below
        name = "blk_first"
        if arrays[name].size:
            arrays[name] = arrays[name][:-1]
            write_sidecar(clone / SIDECAR_FILE, arrays)
            with pytest.raises(IndexFormatError, match="block"):
                DiskInvertedIndex(clone)


# ---------------------------------------------------------------------------
# QueryStats.merge and its consumers (satellite bugfix)
# ---------------------------------------------------------------------------
class TestQueryStatsMerge:
    def test_merge_covers_every_field(self):
        import dataclasses

        left = QueryStats()
        right = QueryStats(
            **{
                spec.name: index + 1
                for index, spec in enumerate(dataclasses.fields(QueryStats()))
            }
        )
        left.merge(right)
        for spec in dataclasses.fields(left):
            assert getattr(left, spec.name) == getattr(right, spec.name), spec.name
        left.merge(right)
        assert left.point_reads == 2 * right.point_reads

    def test_batch_stats_from_answer_keeps_point_reads(self):
        query = QueryStats(
            total_seconds=9.0,
            io_seconds=1.0,
            io_bytes=64,
            io_calls=2,
            lists_loaded=3,
            candidates=5,
            texts_matched=1,
            point_reads=7,
        )
        none = np.zeros(0, dtype=np.int64)
        answer = BatchAnswer(
            *(16, 25, 0.8, 13, False, none, none),
            FusedRectangles(*[none] * 6),
            np.array([[query.total_seconds, query.io_seconds]]),
            np.array([[getattr(query, name) for name in COUNTERS]]),
        )
        stats = BatchStats.from_answer(answer, queries=1)
        assert stats.point_reads == 7
        assert stats.io_bytes == 64
        assert stats.io_calls == 2
        assert stats.lists_loaded == 3
        assert stats.candidates == 5
        assert stats.texts_matched == 1
        assert stats.queries == 1
        # Wall time is tracked separately; the per-query total must not
        # leak into it, while the derived cpu share must.
        assert stats.total_seconds == 0.0
        assert stats.cpu_seconds == pytest.approx(8.0)

    def test_sharded_search_propagates_point_reads(self, corpus_setup):
        from repro.index.sharded import ShardedIndex, ShardedSearcher

        data, family, *_ = corpus_setup
        sharded = ShardedIndex.build(
            data.corpus, family, 25, num_shards=3, vocab_size=512
        )
        searcher = ShardedSearcher(sharded, long_list_cutoff=8)
        probe = None
        for i in range(40):
            result = searcher.search(np.asarray(data.corpus[i])[:64], 0.6)
            if result.stats.point_reads:
                probe = result
                break
        assert probe is not None, "workload produced no long-list point reads"
        assert probe.stats.lists_loaded > 0


# ---------------------------------------------------------------------------
# Writer integration: sharded disk shards, merge recompression, engine
# ---------------------------------------------------------------------------
class TestPackedIntegration:
    def test_sharded_build_to_disk_packed(self, corpus_setup, tmp_path):
        from repro.index.sharded import ShardedIndex, ShardedSearcher

        data, family, *_ = corpus_setup
        in_memory = ShardedIndex.build(
            data.corpus, family, 25, num_shards=2, vocab_size=512
        )
        on_disk = ShardedIndex.build(
            data.corpus,
            family,
            25,
            num_shards=2,
            vocab_size=512,
            directory=str(tmp_path / "shards"),
            codec="packed",
        )
        assert (tmp_path / "shards" / "shard0" / "index.meta.json").exists()
        for shard in on_disk.shards:
            assert shard.index.codec == "packed"
        a, b = ShardedSearcher(in_memory), ShardedSearcher(on_disk)
        for i in range(0, 30, 5):
            query = np.asarray(data.corpus[i])[:64]
            assert a.search(query, 0.7).matches == b.search(query, 0.7).matches

    def test_merge_recompresses_v1_sources_to_v2(self, corpus_setup, tmp_path):
        from repro.index.merge import merge_disk_indexes

        _, family, memory, v1_dir, _ = corpus_setup
        merged_dir = merge_disk_indexes(
            [v1_dir], tmp_path / "merged-v2", text_offsets=[0], codec="packed"
        )
        merged = DiskInvertedIndex(merged_dir)
        assert merged.codec == "packed"
        for func in range(family.k):
            for minhash, postings in func_lists(memory, func).items():
                assert np.array_equal(merged.load_list(func, minhash), postings)

    def test_engine_save_load_packed(self, tmp_path):
        from repro.engine import NearDupEngine

        texts = [
            f"the quick brown fox jumps over the lazy dog variant {i} "
            "with some shared boilerplate text repeated across documents"
            for i in range(30)
        ]
        engine = NearDupEngine.from_texts(
            texts, k=8, t=10, vocab_size=300, codec="packed"
        )
        assert engine.codec == "packed"
        saved = engine.save(tmp_path / "engine")
        reloaded = NearDupEngine.load(saved)
        assert reloaded.index.codec == "packed"
        assert reloaded.codec == "packed"
        for query in texts[:5]:
            assert [
                (hit.text_id, hit.start, hit.end)
                for hit in engine.search(query, 0.8)
            ] == [
                (hit.text_id, hit.start, hit.end)
                for hit in reloaded.search(query, 0.8)
            ]

    def test_external_build_packed_matches_memory(self, tmp_path):
        from repro.index.external import ExternalBuildConfig, build_external_index

        data = synthweb(
            num_texts=60, mean_length=120, vocab_size=256, seed=31
        )
        family = HashFamily(k=4, seed=7)
        memory = build_memory_index(data.corpus, family, t=20, vocab_size=256)
        config = ExternalBuildConfig(
            batch_texts=16, num_partitions=4, codec="packed"
        )
        build_external_index(
            data.corpus, family, 20, tmp_path / "ext", vocab_size=256, config=config
        )
        disk = DiskInvertedIndex(tmp_path / "ext")
        assert disk.codec == "packed"
        for func in range(family.k):
            for minhash, postings in func_lists(memory, func).items():
                assert np.array_equal(disk.load_list(func, minhash), postings)

    def test_cli_build_packed(self, tmp_path):
        from repro.cli import main
        from repro.corpus.store import write_corpus

        data = synthweb(num_texts=40, mean_length=100, vocab_size=256, seed=13)
        corpus_dir = tmp_path / "corpus"
        write_corpus(data.corpus, corpus_dir)
        index_dir = tmp_path / "index"
        code = main(
            [
                "build",
                str(corpus_dir),
                str(index_dir),
                "-k",
                "4",
                "-t",
                "20",
                "--codec",
                "packed",
            ]
        )
        assert code == 0
        assert DiskInvertedIndex(index_dir).codec == "packed"
