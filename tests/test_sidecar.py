"""Sidecar directory container and layout tests.

The page-aligned mmap sidecar (``index.dir.bin``) is the one directory
container the index writers emit, in the flat layout: one section per
array across all hash functions.  The per-function layouts of older
indexes — in the sidecar or the zipped ``.npz`` archive — stay
readable through the reader's one legacy function.  The contract is
strict interchangeability: the same index served from any layout opens
to equal reader arrays and answers every read and every search
byte-identically.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.synthetic import synthweb
from repro.exceptions import IndexFormatError
from repro.index import (
    CachedIndexReader,
    SIDECAR_FILE,
    UnionIndexReader,
    read_sidecar,
    write_sidecar,
)
from repro.index.builder import build_and_write_index, build_memory_index
from repro.index.merge import merge_disk_indexes
from repro.index.sidecar import DATA_ALIGN, SECTION_ALIGN, read_toc
from repro.index.storage import DiskInvertedIndex, write_index
from repro.index.validate import validate_index
from repro.service.protocol import result_to_wire

from index_lists import func_lists
from write_oracle import OracleIndexWriter

LAYOUTS = ("flat", "sidecar", "npz")


@pytest.fixture(scope="module")
def corpus_and_memory():
    data = synthweb(
        num_texts=120,
        mean_length=120,
        vocab_size=512,
        duplicate_rate=0.25,
        span_length=40,
        mutation_rate=0.04,
        seed=11,
    )
    family = HashFamily(k=6, seed=1)
    return data, family, build_memory_index(data.corpus, family, t=20, vocab_size=512)


def write_layouts(memory, base, codec, **zone_maps) -> dict:
    """One index in every layout: the writer's flat one, and the legacy
    per-function sidecar and npz from the test oracle writer, since no
    index writer emits those any more."""
    dirs = {"flat": write_index(memory, base / "flat", codec=codec, **zone_maps)}
    for layout in LAYOUTS[1:]:
        legacy = OracleIndexWriter(
            base / layout, memory.family, memory.t, codec=codec, dir_format=layout,
            **zone_maps,
        )
        legacy.write_lists(*memory.all_lists())
        legacy.close()
        dirs[layout] = base / layout
    return dirs


@pytest.fixture(scope="module")
def planted(tmp_path_factory, corpus_and_memory):
    """Corpus + packed index in the flat layout and both legacy ones."""
    data, family, memory = corpus_and_memory
    dirs = write_layouts(memory, tmp_path_factory.mktemp("containers"), "packed")
    return data, family, memory, dirs["flat"], dirs["sidecar"], dirs["npz"]


def clone_index(source, target):
    target.mkdir()
    for path in source.iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    return target


# ----------------------------------------------------------------------
# The raw container format
# ----------------------------------------------------------------------
class TestSidecarFormat:
    def test_round_trip_arrays(self, tmp_path):
        arrays = {
            "a": np.arange(17, dtype=np.uint32),
            "b": np.arange(6, dtype=np.uint64).reshape(3, 2),
            "c": np.empty(0, dtype=np.uint8),
            "d": np.arange(12, dtype=np.uint8).reshape(-1, 4),
        }
        path = tmp_path / SIDECAR_FILE
        write_sidecar(path, arrays)
        loaded, mapping = read_sidecar(path)
        assert set(loaded) == set(arrays)
        for name, want in arrays.items():
            got = loaded[name]
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert not got.flags.writeable  # views into a read-only map

    def test_layout_is_aligned(self, tmp_path):
        path = tmp_path / SIDECAR_FILE
        write_sidecar(path, {"x": np.arange(5, dtype=np.uint32), "y": np.arange(3, dtype=np.uint64)})
        sections, data_start, size = read_toc(path)
        assert data_start % DATA_ALIGN == 0
        for section in sections:
            assert section["offset"] % SECTION_ALIGN == 0
            assert data_start + section["offset"] + section["nbytes"] <= size

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: b"WRONGMAG" + raw[8:],
            lambda raw: raw[:20],
            lambda raw: raw[: len(raw) - 9],
        ],
        ids=["bad-magic", "truncated-toc", "truncated-data"],
    )
    def test_corruption_rejected(self, tmp_path, corrupt):
        path = tmp_path / SIDECAR_FILE
        write_sidecar(path, {"x": np.arange(4096, dtype=np.uint64)})
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(IndexFormatError):
            read_sidecar(path)


# ----------------------------------------------------------------------
# Container interchangeability
# ----------------------------------------------------------------------
class TestContainerEquivalence:
    def test_meta_declares_container(self, planted):
        for directory, layout in zip(planted[3:], LAYOUTS):
            meta = json.loads((directory / "index.meta.json").read_text())
            assert meta["directory"] == layout
            assert DiskInvertedIndex(directory).directory_layout == layout

    def test_every_list_identical_across_backends(self, planted):
        _, family, memory, sidecar_dir, legacy_dir, npz_dir = planted
        backends = {
            "memory": memory,
            "disk-sidecar": DiskInvertedIndex(sidecar_dir),
            "disk-legacy-sidecar": DiskInvertedIndex(legacy_dir),
            "disk-npz": DiskInvertedIndex(npz_dir),
            "cached-sidecar": CachedIndexReader(DiskInvertedIndex(sidecar_dir)),
            "union-sidecar": UnionIndexReader(
                family, memory.t, [DiskInvertedIndex(sidecar_dir)]
            ),
        }
        for func in range(family.k):
            for minhash, postings in func_lists(memory, func).items():
                for name, reader in backends.items():
                    assert np.array_equal(
                        reader.load_list(func, int(minhash)), postings
                    ), f"{name} diverged on func {func} list {minhash}"

    @pytest.mark.parametrize("theta", [1.0, 0.9, 0.8])
    def test_searches_byte_identical(self, planted, theta):
        data, *_ , sidecar_dir, _, npz_dir = planted
        from_sidecar = NearDuplicateSearcher(
            DiskInvertedIndex(sidecar_dir), corpus=data.corpus
        )
        from_npz = NearDuplicateSearcher(
            DiskInvertedIndex(npz_dir), corpus=data.corpus
        )
        for text_id in range(8):
            query = np.asarray(data.corpus[text_id])[:48]
            a = result_to_wire(from_sidecar.search(query, theta))
            b = result_to_wire(from_npz.search(query, theta))
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("container", ["sidecar", "npz"])
    def test_pre_sidecar_meta_opens(self, planted, tmp_path, container):
        """A meta without the ``"directory"`` key (written before the
        sidecar existed) reads whichever container sits on disk."""
        _, family, memory, _, legacy_dir, npz_dir = planted
        source = npz_dir if container == "npz" else legacy_dir
        clone = clone_index(source, tmp_path / "legacy")
        meta_path = clone / "index.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["directory"]
        meta_path.write_text(json.dumps(meta))
        reader = DiskInvertedIndex(clone)
        assert reader.directory_layout == container
        for func in range(family.k):
            for minhash, postings in func_lists(memory, func).items():
                assert np.array_equal(reader.load_list(func, int(minhash)), postings)
        assert validate_index(reader).ok

    def test_validate_passes_both_containers(self, planted):
        data, *_ = planted
        for directory in planted[3:]:
            report = validate_index(DiskInvertedIndex(directory), data.corpus)
            assert report.ok, report.errors

    def test_validate_flags_stray_container(self, planted, tmp_path):
        clone = clone_index(planted[3], tmp_path / "stray")
        (clone / "index.dir.npz").write_bytes(b"junk")
        report = validate_index(DiskInvertedIndex(clone))
        assert not report.ok
        assert any("stray" in error for error in report.errors)


class TestBuilderDefaults:
    def test_build_emits_sidecar_by_default(self, tmp_path):
        data = synthweb(
            num_texts=30, mean_length=60, vocab_size=256,
            duplicate_rate=0.2, span_length=24, mutation_rate=0.05, seed=5,
        )
        out = tmp_path / "built"
        build_and_write_index(data.corpus, HashFamily(k=4, seed=0), 16, out)
        assert (out / SIDECAR_FILE).exists()
        assert not (out / "index.dir.npz").exists()


# ----------------------------------------------------------------------
# One reader over every layout
# ----------------------------------------------------------------------
#: The arrays every layout opens to, and those only a packed index has.
READER_ARRAYS = (
    "_flat_keys", "_flat_starts", "_flat_counts",
    "_zm_keys", "_zm_starts", "_zm_lengths", "_zm_samples",
)
BLOCK_ARRAYS = ("_flat_blk_first", "_flat_blk_widths", "_flat_blk_offsets")


def answers_digest(reader, data) -> str:
    """sha256 over the wire form of a fixed set of answers."""
    searcher = NearDuplicateSearcher(reader, corpus=data.corpus)
    answers = [
        result_to_wire(searcher.search(np.asarray(data.corpus[text_id])[:48], theta))
        for text_id in range(0, 120, 8)
        for theta in (1.0, 0.8)
    ]
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def rewrite_sidecar(directory, edit) -> None:
    """Rewrite a directory's sidecar after ``edit`` changes its arrays."""
    views = read_sidecar(directory / SIDECAR_FILE)[0]
    arrays = {name: np.array(view) for name, view in views.items()}
    del views  # unmap before the rewrite below
    edit(arrays)
    write_sidecar(directory / SIDECAR_FILE, arrays)


@pytest.mark.parametrize("codec", ["raw", "packed"])
class TestLayouts:
    @pytest.fixture
    def layouts(self, tmp_path, corpus_and_memory, codec):
        # Small zone-map parameters give many lists a zone map.
        return write_layouts(
            corpus_and_memory[2], tmp_path, codec, zonemap_step=4, zonemap_min_list=8
        )

    def test_layouts_open_to_equal_reader_arrays(self, layouts, corpus_and_memory, codec):
        data = corpus_and_memory[0]
        flat = DiskInvertedIndex(layouts["flat"])
        assert flat._zm_keys.size > 1
        names = READER_ARRAYS + (BLOCK_ARRAYS if codec == "packed" else ())
        digest = answers_digest(flat, data)
        for layout, directory in layouts.items():
            reader = DiskInvertedIndex(directory)
            assert reader.directory_layout == layout
            for name in names:
                got, want = getattr(reader, name), getattr(flat, name)
                assert got.dtype == want.dtype, (layout, name)
                assert np.array_equal(got, want), (layout, name)
            assert answers_digest(reader, data) == digest, layout
            report = validate_index(reader, data.corpus)
            assert report.ok, (layout, report.errors)

    def test_flat_sidecar_has_one_section_per_array(self, layouts, codec):
        sections, _, _ = read_toc(layouts["flat"] / SIDECAR_FILE)
        names = [section["name"] for section in sections]
        per_codec = (
            ["blk_first", "blk_widths", "blk_offsets"] if codec == "packed" else ["starts"]
        )
        assert names == [
            "list_edges", "keys", "counts", *per_codec,
            "zm_edges", "zm_keys", "zm_starts", "zm_lengths", "zm_samples",
        ]

    def test_merge_upgrades_a_legacy_directory(self, layouts, tmp_path, codec):
        for layout in ("sidecar", "npz"):
            source = DiskInvertedIndex(layouts[layout])
            out = merge_disk_indexes(
                [layouts[layout]], tmp_path / f"upgraded-{layout}", codec=codec
            )
            upgraded = DiskInvertedIndex(out)
            assert upgraded.directory_layout == "flat"
            for func in range(source.family.k):
                want, got = func_lists(source, func), func_lists(upgraded, func)
                assert want.keys() == got.keys()
                for key, postings in want.items():
                    assert np.array_equal(got[key], postings)


class TestOutOfOrderDirectory:
    """Opening refuses a directory whose order the reads rely on."""

    @pytest.fixture
    def layouts(self, tmp_path, corpus_and_memory):
        return write_layouts(
            corpus_and_memory[2], tmp_path, "raw", zonemap_step=4, zonemap_min_list=8
        )

    @staticmethod
    def swap(array) -> None:
        array[[0, 1]] = array[[1, 0]]

    @pytest.mark.parametrize("name", ["keys", "zm_keys"])
    def test_flat_keys_out_of_order(self, layouts, name):
        rewrite_sidecar(layouts["flat"], lambda arrays: self.swap(arrays[name]))
        with pytest.raises(IndexFormatError, match="ascend"):
            DiskInvertedIndex(layouts["flat"])

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("list_edges", lambda edges: edges.__setitem__(-1, edges[-1] - 1)),
            ("zm_edges", lambda edges: edges.__setitem__(1, edges[2] + 1)),
            ("list_edges", lambda edges: edges.__setitem__(0, 1)),
        ],
        ids=["short-end", "descending", "late-start"],
    )
    def test_flat_edges_out_of_bounds(self, layouts, name, edit):
        rewrite_sidecar(layouts["flat"], lambda arrays: edit(arrays[name]))
        with pytest.raises(IndexFormatError, match="edges"):
            DiskInvertedIndex(layouts["flat"])

    @pytest.mark.parametrize("name", ["keys_0", "zm_keys_0"])
    def test_legacy_keys_out_of_order(self, layouts, name):
        rewrite_sidecar(layouts["sidecar"], lambda arrays: self.swap(arrays[name]))
        with pytest.raises(IndexFormatError, match="ascend"):
            DiskInvertedIndex(layouts["sidecar"])


def test_misshapen_legacy_section_is_a_format_error(corpus_and_memory, tmp_path):
    """A legacy section that cannot join the flat arrays is a format
    error, never numpy's raw ValueError."""
    dirs = write_layouts(corpus_and_memory[2], tmp_path, "packed")
    rewrite_sidecar(
        dirs["sidecar"], lambda arrays: arrays.update(blk_widths_0=np.zeros(5, np.uint8))
    )
    with pytest.raises(IndexFormatError, match="misshapes"):
        DiskInvertedIndex(dirs["sidecar"])
