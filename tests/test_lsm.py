"""Tests for the LSM live index (WAL, manifest, memtable, runs, service).

Layered bottom-up: WAL record encoding and torn-tail recovery, manifest
atomic commit, compaction picking, then :class:`LiveIndex` end-to-end
(append/seal/compact/reopen equivalence with an offline build, snapshot
isolation, crash-window GC, legacy root files), the live
engine facade, ``validate_live_index``, and the ``/ingest`` service
round trip with its client retry policy.
"""

from __future__ import annotations

import json
import os
import shutil
import threading

import numpy as np
import pytest

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.engine import NearDupEngine
from repro.exceptions import IndexFormatError, InvalidParameterError
from repro.index.builder import build_memory_index
from repro.index.lsm import (
    ACK_POLICIES,
    LiveIndex,
    LiveIndexConfig,
    LiveSearcher,
    Manifest,
    MANIFEST_FILE,
    UnionIndexReader,
    WAL_MAGIC,
    WriteAheadLog,
    decode_record,
    encode_record,
    manifest_exists,
    pick_compaction,
    run_name,
    scan_wal,
    wal_name,
)
from repro.index.lsm.live import TIER_RATIO
from repro.index.storage import DiskInvertedIndex
from repro.index.validate import validate_live_index
from repro.service import (
    RemoteError,
    RequestShedError,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
)

VOCAB = 64
T = 4
FAMILY = HashFamily(k=5, seed=99)


def make_texts(rng: np.random.Generator, count: int, lo: int = 1, hi: int = 30):
    return [
        rng.integers(0, VOCAB, size=int(rng.integers(lo, hi)), dtype=np.uint32)
        for _ in range(count)
    ]


def result_set(searcher, query, theta=0.6):
    result = searcher.search(query, theta)
    return {
        (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
        for m in result.matches
        for r in m.rectangles
    }


def offline_searcher(texts):
    index = build_memory_index(InMemoryCorpus(texts), FAMILY, T, vocab_size=VOCAB)
    return NearDuplicateSearcher(index)


def small_config(**overrides):
    base = dict(
        seal_threshold_postings=200,
        compact_fanout=3,
        background_compaction=False,
    )
    base.update(overrides)
    return LiveIndexConfig(**base)


def make_live(root, **overrides) -> LiveIndex:
    return LiveIndex(
        root, family=FAMILY, t=T, vocab_size=VOCAB, config=small_config(**overrides)
    )


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestWAL:
    def test_record_roundtrip(self):
        texts = [
            np.asarray([1, 2, 3], dtype=np.uint32),
            np.asarray([], dtype=np.uint32),
            np.asarray([60, 0, 60, 5], dtype=np.uint32),
        ]
        first_id, decoded = decode_record(encode_record(17, texts))
        assert first_id == 17
        assert [t.tolist() for t in decoded] == [t.tolist() for t in texts]

    def test_append_and_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, ack_policy="none")
        wal.append(0, [np.asarray([1, 2, 3, 4], dtype=np.uint32)])
        wal.append(1, [np.asarray([5], dtype=np.uint32)] * 2)
        wal.close()
        records, valid_end, tail_error = scan_wal(path)
        assert tail_error is None
        assert valid_end == path.stat().st_size
        assert [(fid, len(texts)) for fid, texts in records] == [(0, 1), (1, 2)]

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(0, [np.asarray([1, 2, 3, 4], dtype=np.uint32)])
        wal.append(1, [np.asarray([9, 9, 9, 9, 9], dtype=np.uint32)])
        wal.close()
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00\xde\xad")  # header + short payload
        reopened = WriteAheadLog(path)
        assert [fid for fid, _ in reopened.recovered] == [0, 1]
        assert reopened.truncated_bytes == 6
        assert path.stat().st_size == intact
        # The truncated segment accepts appends cleanly afterwards.
        reopened.append(2, [np.asarray([7, 7], dtype=np.uint32)])
        reopened.close()
        records, _, tail_error = scan_wal(path)
        assert tail_error is None
        assert [fid for fid, _ in records] == [0, 1, 2]

    def test_corrupt_payload_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(0, [np.asarray([1, 2, 3], dtype=np.uint32)])
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a token byte: CRC now mismatches
        path.write_bytes(data)
        reopened = WriteAheadLog(path)
        assert reopened.recovered == []
        assert reopened.truncated_bytes > 0
        reopened.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL0" + b"\x00" * 16)
        with pytest.raises(IndexFormatError, match="magic"):
            scan_wal(path)

    def test_ack_policy_sync_counts(self, tmp_path):
        always = WriteAheadLog(tmp_path / "a.log", ack_policy="always")
        batch = WriteAheadLog(tmp_path / "b.log", ack_policy="batch", fsync_batch=2)
        none = WriteAheadLog(tmp_path / "c.log", ack_policy="none")
        text = [np.asarray([1, 2, 3], dtype=np.uint32)]
        for i in range(4):
            always.append(i, text)
            batch.append(i, text)
            none.append(i, text)
        assert always.syncs == 4
        assert batch.syncs == 2  # every second append
        assert none.syncs == 0
        for wal in (always, batch, none):
            wal.close()

    def test_bad_policy_rejected(self, tmp_path):
        assert set(ACK_POLICIES) == {"always", "batch", "none"}
        with pytest.raises(InvalidParameterError, match="ack_policy"):
            WriteAheadLog(tmp_path / "w.log", ack_policy="sometimes")


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_commit_load_roundtrip(self, tmp_path):
        manifest = Manifest(family=FAMILY, t=T, vocab_size=VOCAB, codec="packed")
        manifest.runs = [run_name(0)]
        manifest.next_text_id = 42
        manifest.wal_seq = 3
        manifest.run_seq = 1
        manifest.commit(tmp_path)
        assert manifest.generation == 1  # commit bumps
        loaded = Manifest.load(tmp_path)
        assert loaded == manifest
        assert manifest_exists(tmp_path)

    def test_generation_strictly_increases(self, tmp_path):
        manifest = Manifest(family=FAMILY, t=T, vocab_size=VOCAB)
        manifest.commit(tmp_path)
        manifest.commit(tmp_path)
        assert Manifest.load(tmp_path).generation == 2

    def test_missing_and_malformed(self, tmp_path):
        with pytest.raises(IndexFormatError, match="missing"):
            Manifest.load(tmp_path)
        (tmp_path / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(IndexFormatError, match="JSON"):
            Manifest.load(tmp_path)

    def test_unsupported_version(self, tmp_path):
        manifest = Manifest(family=FAMILY, t=T, vocab_size=VOCAB)
        manifest.commit(tmp_path)
        raw = json.loads((tmp_path / MANIFEST_FILE).read_text())
        raw["format_version"] = 999
        (tmp_path / MANIFEST_FILE).write_text(json.dumps(raw))
        with pytest.raises(IndexFormatError, match="version"):
            Manifest.load(tmp_path)


# ----------------------------------------------------------------------
# Compaction picking
# ----------------------------------------------------------------------
class TestPickCompaction:
    def test_full_tier_window(self):
        assert pick_compaction([100, 100, 100, 100], 4, 4.0) == (0, 4)

    def test_too_few_runs(self):
        assert pick_compaction([100, 100], 4, 4.0) is None
        assert pick_compaction([], 4, 4.0) is None

    def test_skips_giant_run(self):
        # The first run is a different tier; the small tail forms one.
        assert pick_compaction([10**6, 10, 10, 10, 10], 4, 4.0) == (1, 5)

    def test_fallback_smallest_window(self):
        # No tier window, but 2*fanout runs: pick the cheapest fanout span.
        sizes = [1000, 1, 1000, 1, 1000, 1, 1000, 1]
        lo, hi = pick_compaction(sizes, 4, 1.5)
        assert hi - lo == 4
        total = sum(sizes[lo:hi])
        assert total == min(
            sum(sizes[i : i + 4]) for i in range(len(sizes) - 3)
        )


# ----------------------------------------------------------------------
# LiveIndex end-to-end
# ----------------------------------------------------------------------
class TestLiveIndex:
    def test_append_seal_compact_matches_offline(self, tmp_path):
        rng = np.random.default_rng(21)
        texts = make_texts(rng, 80, lo=T, hi=30)
        with make_live(tmp_path / "live") as live:
            ids = []
            for start in range(0, 80, 10):
                ids.extend(live.append_texts(texts[start : start + 10]))
            assert ids == list(range(80))
            assert live.num_texts == 80
            assert len(live.runs) > 1  # seal threshold forced several runs
            offline = offline_searcher(texts)
            searcher = live.searcher()
            for probe in texts[::13]:
                assert result_set(searcher, probe) == result_set(offline, probe)
            runs_before = len(live.runs)
            while live.compact():
                pass
            assert len(live.runs) < runs_before
            for probe in texts[::13]:
                assert result_set(searcher, probe) == result_set(offline, probe)

    def test_reopen_replays_wal(self, tmp_path):
        rng = np.random.default_rng(22)
        texts = make_texts(rng, 30, lo=T, hi=20)
        root = tmp_path / "live"
        live = make_live(root, seal_threshold_postings=10**9)
        live.append_texts(texts)
        assert live.runs == []  # nothing sealed: all state is WAL-only
        live.wal.close()  # simulate a crash: no seal, no manifest update
        reopened = make_live(root, seal_threshold_postings=10**9)
        assert reopened.num_texts == 30
        assert reopened.stats.replayed_texts == 30
        offline = offline_searcher(texts)
        searcher = reopened.searcher()
        for probe in texts[::7]:
            assert result_set(searcher, probe) == result_set(offline, probe)
        reopened.close()

    def test_reopen_validates_params(self, tmp_path):
        root = tmp_path / "live"
        make_live(root).close()
        with pytest.raises(InvalidParameterError):
            LiveIndex(root, family=HashFamily(k=5, seed=1), t=T, vocab_size=VOCAB)
        with pytest.raises(InvalidParameterError):
            LiveIndex(root, family=FAMILY, t=T + 1, vocab_size=VOCAB)

    def test_recovery_gc_of_unreferenced_run(self, tmp_path):
        rng = np.random.default_rng(23)
        root = tmp_path / "live"
        live = make_live(root)
        live.append_texts(make_texts(rng, 40, lo=T))
        live.seal()
        live.close()
        manifest = Manifest.load(root)
        # Crash window: a run directory written but never committed.
        stray = root / run_name(manifest.run_seq)
        shutil.copytree(root / manifest.runs[0], stray)
        reopened = make_live(root)
        assert not stray.exists()  # GC'd on open
        assert validate_live_index(root).ok
        reopened.close()

    def test_seal_syncs_run_before_manifest_commit(self, tmp_path, monkeypatch):
        """The sealed run's payload, sidecar and meta are fsynced before
        the manifest adopting the run is renamed into place: the old WAL
        is deleted right after, so the run is then the only copy."""
        rng = np.random.default_rng(25)
        root = tmp_path / "live"
        live = make_live(root, seal_threshold_postings=10**9)
        live.append_texts(make_texts(rng, 40, lo=T))
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.realpath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        name = live.seal()
        monkeypatch.undo()
        live.close()
        commit = events.index(("replace", os.path.realpath(root / MANIFEST_FILE)))
        synced = {path for kind, path in events[:commit] if kind == "fsync"}
        for file in ("index.postings.bin", "index.dir.bin", "index.meta.json.tmp"):
            assert os.path.realpath(root / name / file) in synced, file

    def test_snapshot_isolation_across_seal_and_compact(self, tmp_path):
        rng = np.random.default_rng(24)
        first = make_texts(rng, 30, lo=T)
        more = make_texts(rng, 40, lo=T)
        with make_live(tmp_path / "live") as live:
            live.append_texts(first)
            pinned = live.snapshot()
            pinned_offline = offline_searcher(first)
            probe = first[0]
            expected = result_set(NearDuplicateSearcher(pinned), probe)
            assert expected == result_set(pinned_offline, probe)
            live.append_texts(more)
            live.seal()
            while live.compact():
                pass
            # The pinned snapshot still answers over exactly `first`.
            assert result_set(NearDuplicateSearcher(pinned), probe) == expected
            # A fresh snapshot sees everything.
            fresh = result_set(live.searcher(), probe)
            assert fresh == result_set(offline_searcher(first + more), probe)

    def test_repeated_texts_each_get_an_id(self, tmp_path):
        """Every append is indexed: a text sent twice is two texts, so
        the live index answers like a rebuild of everything appended."""
        rng = np.random.default_rng(25)
        texts = make_texts(rng, 10, lo=T)
        with make_live(tmp_path / "live") as live:
            ids = live.append_texts(texts)
            ids += live.append_texts(texts)
            assert ids == list(range(20))
            assert live.num_texts == 20
            assert live.stats.texts_accepted == 20
            offline = offline_searcher(texts + texts)
            searcher = live.searcher()
            for probe in texts[::3]:
                assert result_set(searcher, probe) == result_set(offline, probe)

    def test_legacy_bloom_file_is_ignored(self, tmp_path):
        """A stray ``prefilter.npz`` in an older root is neither read nor
        rewritten nor garbage-collected, and changes no answer."""
        rng = np.random.default_rng(26)
        texts = make_texts(rng, 40, lo=T)
        root = tmp_path / "live"
        with make_live(root) as live:
            live.append_texts(texts[:30])
            live.seal()
            live.append_texts(texts[30:])
            before = [result_set(live.searcher(), probe) for probe in texts[::7]]
        legacy = root / "prefilter.npz"
        np.savez(legacy, bits=rng.integers(0, 256, size=64, dtype=np.uint8))
        payload = legacy.read_bytes()
        with make_live(root) as reopened:
            assert reopened.num_texts == 40
            after = [result_set(reopened.searcher(), probe) for probe in texts[::7]]
            assert after == before
            assert reopened.append_texts(texts[:2]) == [40, 41]
            reopened.seal()
        assert legacy.read_bytes() == payload
        assert validate_live_index(root).ok

    def test_background_compaction_thread(self, tmp_path):
        rng = np.random.default_rng(27)
        texts = make_texts(rng, 120, lo=T, hi=30)
        with make_live(
            tmp_path / "live", background_compaction=True, compact_fanout=2
        ) as live:
            live.append_texts(texts)
            deadline = threading.Event()
            for _ in range(200):  # compactor drains to below fanout
                if len(live.runs) < 2:
                    break
                deadline.wait(0.05)
            assert len(live.runs) < 2 or live.stats.compactions > 0
            searcher = live.searcher()
            offline = offline_searcher(texts)
            assert result_set(searcher, texts[0]) == result_set(offline, texts[0])

    def test_close_during_background_compaction_logs_no_error(
        self, tmp_path, caplog
    ):
        """A compaction the background thread starts while ``close()``
        is under way finishes quietly: no "background compaction
        failed" traceback on a clean shutdown, and the drain starts no
        further merge once ``close()`` has begun."""
        rng = np.random.default_rng(29)
        live = make_live(
            tmp_path / "live",
            background_compaction=True,
            seal_threshold_postings=10**9,
            compact_fanout=2,
        )
        compact = live.compact
        entered = threading.Event()

        def held_compact(**kwargs):
            # Hold the loop's first compact() until close() has begun.
            if not entered.is_set():
                entered.set()
                assert live._stop_compactor.wait(30)
            return compact(**kwargs)

        live.compact = held_compact
        with caplog.at_level("ERROR", logger="repro.index.lsm.live"):
            # Two big runs, then two small ones: two eligible windows,
            # merged one after the other by an unbounded drain.
            for count in (60, 60, 4, 4):
                live.append_texts(make_texts(rng, count, lo=T))
                assert live.seal() is not None
            assert entered.wait(30)
            sizes = [int(live._reader(n).num_postings) for n in live.manifest.runs]
            assert pick_compaction(sizes, 2, TIER_RATIO) == (0, 2)
            assert pick_compaction([sum(sizes[:2])] + sizes[2:], 2, TIER_RATIO) == (
                1,
                3,
            )
            live.close()
        assert not live._compactor.is_alive()
        assert [r for r in caplog.records if r.levelname == "ERROR"] == []
        # Only the merge already running when close() began was made.
        assert live.stats.compactions == 1
        assert len(live.manifest.runs) == 3

    def test_status_and_stats(self, tmp_path):
        rng = np.random.default_rng(28)
        with make_live(tmp_path / "live") as live:
            live.append_texts(make_texts(rng, 20, lo=T))
            status = live.status()
            assert status["next_text_id"] == 20
            assert status["ack_policy"] == "always"
            assert status["appends"] == 1
            assert status["texts_accepted"] == 20

    def test_rejects_out_of_range_tokens(self, tmp_path):
        with make_live(tmp_path / "live") as live:
            live.append_texts([np.asarray([0, 1, 2, 3, 4], dtype=np.uint32)])
            with pytest.raises(InvalidParameterError):
                live.append_texts(
                    [np.asarray([0, 1], dtype=np.uint32),
                     np.asarray([VOCAB, 1, 2], dtype=np.uint32)]
                )
            # Validation failed before any mutation: batch atomicity.
            assert live.num_texts == 1


# ----------------------------------------------------------------------
# Union reader
# ----------------------------------------------------------------------
class TestUnionReader:
    def test_delegates_and_concatenates(self, tmp_path):
        rng = np.random.default_rng(31)
        texts = make_texts(rng, 40, lo=T)
        with make_live(tmp_path / "live") as live:
            live.append_texts(texts)
            reader = live.snapshot()
            assert isinstance(reader, UnionIndexReader)
            assert reader.num_sources >= 1
            offline = build_memory_index(
                InMemoryCorpus(texts), FAMILY, T, vocab_size=VOCAB
            )
            assert reader.num_postings == offline.num_postings
            for func in range(FAMILY.k):
                for key in list(offline.list_keys(func))[:10]:
                    expected = offline.load_list(func, key)
                    got = reader.load_list(func, key)
                    assert got.tolist() == expected.tolist()
                    sketch = np.zeros(FAMILY.k, dtype=np.int64)
                    sketch[func] = key
                    lengths = reader.sketch_list_lengths(sketch)
                    assert lengths[func] == expected.size

    def test_io_bytes_are_the_bytes_the_runs_read(self, tmp_path):
        """A snapshot of one sealed packed run reports what the run read,
        not the decoded postings it returned."""
        rng = np.random.default_rng(32)
        texts = make_texts(rng, 40, lo=T, hi=60)
        with make_live(tmp_path / "live", seal_threshold_postings=10**9) as live:
            live.append_texts(texts)
            live.seal()
            snapshot = live.snapshot()
            assert snapshot.num_sources == 1
            direct = DiskInvertedIndex(live.root / live.runs[0])
            assert direct.codec == "packed"
            via_union = NearDuplicateSearcher(snapshot)
            via_run = NearDuplicateSearcher(direct)
            for text in texts[:20]:
                query = text[:T + 5]
                got = via_union.search(query, 0.6).stats
                expected = via_run.search(query, 0.6).stats
                assert got.io_bytes == expected.io_bytes
            io = snapshot.io_stats
            assert 0 < io.bytes_read < io.decoded_bytes


# ----------------------------------------------------------------------
# validate_live_index
# ----------------------------------------------------------------------
class TestValidateLive:
    @pytest.fixture
    def sealed_root(self, tmp_path):
        rng = np.random.default_rng(41)
        root = tmp_path / "live"
        live = make_live(root)
        live.append_texts(make_texts(rng, 60, lo=T))
        live.seal()
        live.close()
        return root

    def test_clean_root_ok(self, sealed_root):
        report = validate_live_index(sealed_root)
        assert report.ok, report.errors
        assert report.lists_checked > 0

    def test_detects_stray_run(self, sealed_root):
        manifest = Manifest.load(sealed_root)
        stray = sealed_root / run_name(manifest.run_seq + 7)
        shutil.copytree(sealed_root / manifest.runs[0], stray)
        report = validate_live_index(sealed_root)
        assert not report.ok
        assert any("stray run" in error for error in report.errors)

    def test_detects_stale_wal(self, sealed_root):
        (sealed_root / wal_name(0)).write_bytes(WAL_MAGIC)
        report = validate_live_index(sealed_root)
        assert not report.ok
        assert any("stale" in error for error in report.errors)

    def test_detects_missing_run(self, sealed_root):
        manifest = Manifest.load(sealed_root)
        shutil.rmtree(sealed_root / manifest.runs[0])
        report = validate_live_index(sealed_root)
        assert not report.ok

    def test_detects_missing_manifest(self, tmp_path):
        report = validate_live_index(tmp_path)
        assert not report.ok


# ----------------------------------------------------------------------
# Engine facade
# ----------------------------------------------------------------------
class TestLiveEngine:
    def test_create_append_query(self, tmp_path):
        rng = np.random.default_rng(51)
        texts = make_texts(rng, 30, lo=T)
        engine = NearDupEngine.live(
            tmp_path / "live", k=5, t=T, vocab_size=VOCAB, seed=99,
            config=small_config(),
        )
        ids = engine.append_texts(texts)
        assert ids == list(range(30))
        assert engine.num_texts == 30
        offline = offline_searcher(texts)
        assert result_set(engine.searcher, texts[3]) == result_set(
            offline, texts[3]
        )
        engine.close()

    def test_reopen_ignores_creation_params(self, tmp_path):
        root = tmp_path / "live"
        engine = NearDupEngine.live(
            root, k=5, t=T, vocab_size=VOCAB, seed=99, config=small_config()
        )
        engine.append_text(np.asarray([1, 2, 3, 4, 5], dtype=np.uint32))
        engine.close()
        reopened = NearDupEngine.live(root)  # params read from manifest
        assert reopened.live_index.manifest.t == T
        assert reopened.num_texts == 1
        reopened.close()

    def test_cached_searcher_is_live(self, tmp_path):
        engine = NearDupEngine.live(
            tmp_path / "live", k=5, t=T, vocab_size=VOCAB, seed=99,
            config=small_config(),
        )
        cached = engine.cached_searcher(cache_bytes=1 << 20)
        # The live default wraps the LiveSearcher in the generation-aware
        # result cache; the live searcher stays reachable underneath.
        assert isinstance(cached.inner, LiveSearcher)
        assert cached.result_cache is not None
        engine.close()

    def test_static_engine_rejects_live_api(self, planted_data, planted_index):
        engine = NearDupEngine(planted_data.corpus, planted_index)
        with pytest.raises(InvalidParameterError):
            engine.live_index
        with pytest.raises(InvalidParameterError):
            engine.append_texts([[1, 2, 3]])

    def test_save_rejected_for_live(self, tmp_path):
        engine = NearDupEngine.live(
            tmp_path / "live", k=5, t=T, vocab_size=VOCAB, seed=99,
            config=small_config(),
        )
        with pytest.raises(InvalidParameterError):
            engine.save(tmp_path / "out")
        engine.close()


# ----------------------------------------------------------------------
# Service /ingest
# ----------------------------------------------------------------------
class TestIngestService:
    @pytest.fixture
    def live_runner(self, tmp_path):
        engine = NearDupEngine.live(
            tmp_path / "live", k=5, t=T, vocab_size=VOCAB, seed=99,
            config=small_config(),
        )
        config = ServiceConfig(port=0, max_queue=16)
        with ServiceRunner(engine, config) as active:
            yield active

    def test_ingest_then_search(self, live_runner):
        rng = np.random.default_rng(61)
        texts = make_texts(rng, 12, lo=T)
        with ServiceClient(live_runner.host, live_runner.port) as client:
            response = client.ingest(texts)
            assert response["ids"] == list(range(12))
            assert response["accepted"] == 12
            assert response["next_text_id"] == 12
            offline = offline_searcher(texts)
            wire = client.search(texts[5], 0.6)
            served = {
                (m["text_id"], r["i_lo"], r["i_hi"], r["j_lo"], r["j_hi"],
                 r["count"])
                for m in wire["result"]["matches"]
                for r in m["rectangles"]
            }
            assert served == result_set(offline, texts[5])

    def test_health_and_stats_carry_live_block(self, live_runner):
        with ServiceClient(live_runner.host, live_runner.port) as client:
            assert client.health()["backend"] == "live"
            client.ingest([[1, 2, 3, 4, 5]])
            stats = client.stats()
            assert stats["live"]["next_text_id"] == 1

    def test_ingest_validation_errors(self, live_runner):
        with ServiceClient(live_runner.host, live_runner.port) as client:
            with pytest.raises(RemoteError):
                client._request("POST", "/ingest", {"texts": "nope"})
            with pytest.raises(RemoteError):
                client._request("POST", "/ingest", {})

    def test_static_engine_rejects_ingest(self, planted_data, planted_index):
        engine = NearDupEngine(planted_data.corpus, planted_index)
        with ServiceRunner(engine, ServiceConfig(port=0)) as runner:
            with ServiceClient(runner.host, runner.port) as client:
                with pytest.raises(RemoteError, match="live"):
                    client.ingest([[1, 2, 3]])


# ----------------------------------------------------------------------
# Client retry policy (satellite 2)
# ----------------------------------------------------------------------
class TestClientRetry:
    def _flaky_client(self, failures, exc_type):
        client = ServiceClient(retries=2, backoff_ms=1.0)
        calls = {"count": 0}

        def fake_request_once(method, path, body=None):
            calls["count"] += 1
            if calls["count"] <= failures:
                raise exc_type("boom")
            return {"ok": True, "echo": path}

        client._request_once = fake_request_once
        return client, calls

    @pytest.mark.parametrize(
        "exc_type", [ConnectionResetError, BrokenPipeError]
    )
    def test_idempotent_requests_retry_connection_errors(self, exc_type):
        client, calls = self._flaky_client(1, exc_type)
        assert client._request("POST", "/search", {})["ok"] is True
        assert calls["count"] == 2

    def test_retry_budget_exhausts(self):
        client, calls = self._flaky_client(10, ConnectionResetError)
        with pytest.raises(ConnectionResetError):
            client._request("POST", "/search", {})
        assert calls["count"] == 3  # initial + retries=2

    def test_ingest_never_retries_connection_errors(self):
        client, calls = self._flaky_client(1, ConnectionResetError)
        with pytest.raises(ConnectionResetError):
            client._request("POST", "/ingest", {"texts": []}, idempotent=False)
        assert calls["count"] == 1

    def test_ingest_still_retries_shed(self):
        client, calls = self._flaky_client(1, RequestShedError)
        response = client._request(
            "POST", "/ingest", {"texts": []}, idempotent=False
        )
        assert response["ok"] is True
        assert calls["count"] == 2

    def test_no_retries_by_default(self):
        client = ServiceClient()
        calls = {"count": 0}

        def fake_request_once(method, path, body=None):
            calls["count"] += 1
            raise ConnectionResetError("boom")

        client._request_once = fake_request_once
        with pytest.raises(ConnectionResetError):
            client._request("GET", "/health")
        assert calls["count"] == 1
