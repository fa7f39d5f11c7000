"""Sidecar directory container tests.

The page-aligned mmap sidecar (``index.dir.bin``) is the one directory
container the index writers emit; the zipped ``.npz`` archive of older
indexes stays readable.  The contract is strict interchangeability: the
same directory served from either container answers every read and
every search byte-identically — the sidecar only changes *how* the
arrays reach memory (one shared zero-copy mapping instead of a
per-process decompressed copy).
"""

from __future__ import annotations

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
from repro.index.sidecar import DATA_ALIGN, SECTION_ALIGN, read_toc
from repro.index.storage import DiskInvertedIndex, write_index
from repro.index.validate import validate_index
from repro.service.protocol import result_to_wire
from write_oracle import OracleIndexWriter


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Corpus + packed index in both containers.

    The npz copy comes from the test oracle writer, since no index
    writer emits that legacy container any more.
    """
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
    memory = build_memory_index(data.corpus, family, t=20, vocab_size=512)
    base = tmp_path_factory.mktemp("containers")
    sidecar_dir = base / "sidecar"
    npz_dir = base / "npz"
    write_index(memory, sidecar_dir, codec="packed")
    legacy = OracleIndexWriter(
        npz_dir, family, memory.t, codec="packed", dir_format="npz"
    )
    legacy.write_lists(*memory.all_lists())
    legacy.close()
    return data, family, memory, sidecar_dir, npz_dir


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
        *_, sidecar_dir, npz_dir = planted
        for directory, container in ((sidecar_dir, "sidecar"), (npz_dir, "npz")):
            meta = json.loads((directory / "index.meta.json").read_text())
            assert meta["directory"] == container

    def test_every_list_identical_across_backends(self, planted):
        _, family, memory, sidecar_dir, npz_dir = planted
        backends = {
            "memory": memory,
            "disk-sidecar": DiskInvertedIndex(sidecar_dir),
            "disk-npz": DiskInvertedIndex(npz_dir),
            "cached-sidecar": CachedIndexReader(DiskInvertedIndex(sidecar_dir)),
            "union-sidecar": UnionIndexReader(
                family, memory.t, [DiskInvertedIndex(sidecar_dir)]
            ),
        }
        for func in range(family.k):
            for minhash, postings in memory.iter_lists(func):
                for name, reader in backends.items():
                    assert np.array_equal(
                        reader.load_list(func, int(minhash)), postings
                    ), f"{name} diverged on func {func} list {minhash}"

    @pytest.mark.parametrize("theta", [1.0, 0.9, 0.8])
    def test_searches_byte_identical(self, planted, theta):
        data, *_ , sidecar_dir, npz_dir = planted
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
        _, family, memory, sidecar_dir, npz_dir = planted
        clone = tmp_path / "legacy"
        clone.mkdir()
        source = npz_dir if container == "npz" else sidecar_dir
        for path in source.iterdir():
            (clone / path.name).write_bytes(path.read_bytes())
        meta_path = clone / "index.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["directory"]
        meta_path.write_text(json.dumps(meta))
        reader = DiskInvertedIndex(clone)
        for func in range(family.k):
            for minhash, postings in memory.iter_lists(func):
                assert np.array_equal(reader.load_list(func, int(minhash)), postings)
        assert validate_index(reader).ok

    def test_validate_passes_both_containers(self, planted):
        data, *_ , sidecar_dir, npz_dir = planted
        for directory in (sidecar_dir, npz_dir):
            report = validate_index(DiskInvertedIndex(directory), data.corpus)
            assert report.ok, report.errors

    def test_validate_flags_stray_container(self, planted, tmp_path):
        *_, sidecar_dir, _ = planted
        clone = tmp_path / "stray"
        clone.mkdir()
        for path in sidecar_dir.iterdir():
            (clone / path.name).write_bytes(path.read_bytes())
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
