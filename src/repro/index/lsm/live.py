"""The LSM live index: WAL-backed streaming ingest over sealed runs.

A :class:`LiveIndex` root directory holds::

    root/
      MANIFEST.json        # committed run set (atomic os.replace)
      wal-<seq>.log        # active WAL segment (memtable durability)
      run-<seq>/           # immutable format-v2 index directories

Write path: ``append_texts`` validates the batch, logs it to the WAL
(fsync per ``ack_policy``), buffers it in the
:class:`~repro.index.lsm.memtable.Memtable`, and acknowledges.  Past
``seal_threshold_postings`` the memtable is **sealed**: written to a
new ``run-*`` directory through the ordinary index writer (the run's
meta file is its local commit point), then the manifest commits
{runs + new run, ``wal_seq+1``, advanced ``next_text_id``} atomically,
a fresh WAL segment starts, and the old one is deleted.  Every crash
point in that sequence recovers: an unreferenced run directory is
garbage-collected on open, WAL records below the manifest's
``next_text_id`` are skipped on replay, and stale segments are removed.

Read path: a query pins a **snapshot** — a
:class:`~repro.index.lsm.union.UnionIndexReader` over the current
manifest generation's run readers plus the memtable view.  Seals and
compactions commit new generations; in-flight queries keep reading the
snapshot they pinned (POSIX mmaps outlive the unlink).

Compaction is tiered: when ``compact_fanout`` adjacent runs of similar
size accumulate, they are merged (outside the state lock — runs are
immutable) through :func:`repro.index.merge.merge_disk_indexes` into
one run, committed, and the inputs are deleted.  A background worker
thread runs the policy after every seal; ``compact(all_runs=True)``
forces a full merge synchronously.
"""

from __future__ import annotations

import logging
import shutil
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.hashing import HashFamily
from repro.exceptions import InvalidParameterError
from repro.index.codec import check_codec
from repro.index.lsm.manifest import MANIFEST_FILE, Manifest, manifest_exists
from repro.index.lsm.memtable import Memtable
from repro.index.lsm.union import UnionIndexReader
from repro.index.lsm.wal import ACK_POLICIES, WriteAheadLog
from repro.index.merge import merge_disk_indexes
from repro.index.storage import DiskInvertedIndex, write_index

logger = logging.getLogger(__name__)

#: Size ratio under which adjacent runs count as one compaction tier.
TIER_RATIO = 4.0


def wal_name(seq: int) -> str:
    return f"wal-{seq:06d}.log"


def run_name(seq: int) -> str:
    return f"run-{seq:06d}"


@dataclass
class LiveIndexConfig:
    """Tuning knobs of one live index (see ``docs/FORMATS.md``)."""

    #: Memtable posting count that triggers a seal.
    seal_threshold_postings: int = 1_000_000
    #: Payload codec of sealed runs (``packed`` = format v2).
    codec: str = "packed"
    #: WAL ack durability: ``always`` | ``batch`` | ``none``.
    ack_policy: str = "always"
    #: Appends between fsyncs under ``ack_policy="batch"``.
    fsync_batch: int = 32
    #: Adjacent similar-sized runs that trigger a tiered merge.
    compact_fanout: int = 4
    #: Run the compaction policy on a background thread after seals.
    background_compaction: bool = True


@dataclass
class LiveIndexStats:
    """Counters of one :class:`LiveIndex` instance's lifetime."""

    appends: int = 0
    texts_accepted: int = 0
    seals: int = 0
    compactions: int = 0
    replayed_records: int = 0
    replayed_texts: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def pick_compaction(
    sizes: list[int], fanout: int, tier_ratio: float
) -> tuple[int, int] | None:
    """Choose the next tiered merge: a slice ``[lo, hi)`` of adjacent runs.

    Runs must stay in text-id order, so only *adjacent* groups are
    mergeable.  The policy scans for the leftmost (oldest) window of at
    least ``fanout`` adjacent runs whose sizes are within
    ``tier_ratio`` of each other — a size tier — preferring the longest
    such window.  When no tier exists but the run count has grown past
    ``2 * fanout`` (read amplification regardless of sizes), the
    ``fanout``-wide window with the smallest total size is merged so
    the run count stays bounded.  Returns ``None`` when nothing needs
    merging.
    """
    n = len(sizes)
    if fanout < 2 or n < fanout:
        return None
    best: tuple[int, int] | None = None
    lo = 0
    while lo < n:
        hi = lo + 1
        low = high = max(1, sizes[lo])
        while hi < n:
            size = max(1, sizes[hi])
            if max(high, size) > tier_ratio * min(low, size):
                break
            low, high = min(low, size), max(high, size)
            hi += 1
        if hi - lo >= fanout and (best is None or hi - lo > best[1] - best[0]):
            best = (lo, hi)
        lo = hi if hi > lo + 1 else lo + 1
    if best is not None:
        return best
    if n >= 2 * fanout:
        totals = [sum(sizes[i : i + fanout]) for i in range(n - fanout + 1)]
        lo = int(np.argmin(totals))
        return lo, lo + fanout
    return None


class LiveIndex:
    """Streaming, crash-safe, snapshot-isolated near-duplicate index.

    Thread-safe: appends, seals, compactions, and snapshot pins may
    race freely.  One state lock guards the mutable run-set/memtable
    view; compaction work (reading immutable runs, writing the merged
    run) happens outside it and only re-acquires it to commit.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        family: HashFamily | None = None,
        t: int | None = None,
        vocab_size: int | None = None,
        config: LiveIndexConfig | None = None,
    ) -> None:
        self.root = Path(root)
        self.config = config or LiveIndexConfig()
        check_codec(self.config.codec)
        if self.config.ack_policy not in ACK_POLICIES:
            raise InvalidParameterError(
                f"ack_policy must be one of {ACK_POLICIES}, "
                f"got {self.config.ack_policy!r}"
            )
        if self.config.seal_threshold_postings < 1:
            raise InvalidParameterError("seal_threshold_postings must be >= 1")
        self.stats = LiveIndexStats()
        self._lock = threading.RLock()
        self._compact_lock = threading.Lock()
        self._closed = False
        self._snapshot_cache: UnionIndexReader | None = None
        self._run_readers: dict[str, DiskInvertedIndex] = {}
        self._compactor: threading.Thread | None = None
        self._compact_wakeup = threading.Event()
        self._stop_compactor = threading.Event()

        if manifest_exists(self.root):
            self.manifest = Manifest.load(self.root)
            if family is not None and family != self.manifest.family:
                raise InvalidParameterError(
                    "requested hash family differs from the existing live index"
                )
            if t is not None and int(t) != self.manifest.t:
                raise InvalidParameterError(
                    "requested t differs from the existing live index"
                )
            if vocab_size is not None and int(vocab_size) != self.manifest.vocab_size:
                raise InvalidParameterError(
                    "requested vocab_size differs from the existing live index"
                )
        else:
            if family is None or t is None or vocab_size is None:
                raise InvalidParameterError(
                    f"{self.root} has no manifest; creating a live index "
                    "requires family, t, and vocab_size"
                )
            self.root.mkdir(parents=True, exist_ok=True)
            self.manifest = Manifest(
                family=family,
                t=int(t),
                vocab_size=int(vocab_size),
                codec=self.config.codec,
            )
            self.manifest.commit(self.root)

        self.family = self.manifest.family
        self.t = self.manifest.t
        self.memtable = Memtable(self.family, self.t, self.manifest.vocab_size)
        self._memtable_first_id = self.manifest.next_text_id
        self._memtable_tokens = 0
        self._next_text_id = self.manifest.next_text_id
        self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Garbage-collect crash leftovers and replay the WAL.

        Ordering invariants this relies on (see :meth:`seal`): a run
        directory not in the manifest was never committed; a WAL
        segment with a lower sequence number than the manifest's was
        superseded by a committed seal; WAL records whose ids fall
        below ``next_text_id`` were sealed before the crash.  Only
        ``run-*`` and ``wal-*`` entries are collected; any other file
        in the root (an old release's ``prefilter.npz``) is left alone.
        """
        referenced = set(self.manifest.runs)
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and entry.name.startswith("run-"):
                if entry.name not in referenced:
                    shutil.rmtree(entry, ignore_errors=True)
            elif entry.name.startswith("wal-") and entry.name.endswith(".log"):
                if entry.name != wal_name(self.manifest.wal_seq):
                    entry.unlink(missing_ok=True)
        self.wal = WriteAheadLog(
            self.root / wal_name(self.manifest.wal_seq),
            ack_policy=self.config.ack_policy,
            fsync_batch=self.config.fsync_batch,
        )
        for first_text_id, texts in self.wal.recovered:
            if first_text_id < self.manifest.next_text_id:
                continue  # sealed before the crash; fenced by the manifest
            batch = list(zip(range(first_text_id, first_text_id + len(texts)), texts))
            self.memtable.add_texts(batch)
            self._memtable_tokens += sum(int(t.size) for t in texts)
            self._next_text_id = max(
                self._next_text_id, first_text_id + len(texts)
            )
            self.stats.replayed_records += 1
            self.stats.replayed_texts += len(texts)
        if self.wal.recovered:
            logger.info(
                "replayed %d WAL records (%d texts, %d truncated tail bytes)",
                self.stats.replayed_records,
                self.stats.replayed_texts,
                self.wal.truncated_bytes,
            )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append_text(self, tokens: np.ndarray) -> int:
        """Ingest one text; returns its id."""
        return self.append_texts([tokens])[0]

    def append_texts(self, texts: list[np.ndarray]) -> list[int]:
        """Ingest a batch; returns one id per input, in input order.

        The batch is validated first, logged to the WAL second, and
        buffered third — when this method returns, every assigned id is
        recoverable under the configured ``ack_policy``.
        """
        with self._lock:
            self._check_open()
            accepted = [self.memtable.check_tokens(tokens) for tokens in texts]
            first_id = self._next_text_id
            ids = list(range(first_id, first_id + len(accepted)))
            if accepted:
                self.wal.append(first_id, accepted)
                self.memtable.add_texts(list(zip(ids, accepted)))
                self._memtable_tokens += sum(int(t.size) for t in accepted)
                self._next_text_id += len(accepted)
                self._snapshot_cache = None
                self.stats.texts_accepted += len(accepted)
            self.stats.appends += 1
            should_seal = (
                self.memtable.postings >= self.config.seal_threshold_postings
            )
        if should_seal:
            self.seal()
        return ids

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def seal(self) -> str | None:
        """Persist the memtable as an immutable run; returns its name.

        Crash-ordering: (1) the run directory is fully written and
        fsynced (its own meta commit making it locally complete); (2) the manifest
        commits, atomically adopting the run, advancing the WAL fence
        (``next_text_id``) and rotating ``wal_seq``; (3) the new WAL
        segment is created and the old one deleted; (4) the memtable
        clears.  A crash after (1) leaves an unreferenced run directory
        (GC'd on open) and a replayable WAL; a crash after (2) leaves a
        stale WAL whose records are below the fence (skipped); a crash
        after (3) lost nothing — the memtable content is in the run.
        """
        # The whole seal stays under the state lock: an append racing
        # past the memtable consolidation would be cleared below without
        # reaching the new WAL segment. Appends stall for the duration
        # of one run write — the background compactor, not the sealer,
        # does the heavy merging.
        with self._lock:
            self._check_open()
            built = self.memtable.index()
            if built is None:
                return None
            name = run_name(self.manifest.run_seq)
            memtable_tokens = self._memtable_tokens
            sealed_next_id = self._next_text_id
            # The run records the absolute id space, not a run-local one.
            write_index(
                built,
                self.root / name,
                codec=self.manifest.codec,
                num_texts=sealed_next_id,
            )
            self.manifest.runs.append(name)
            self.manifest.run_seq += 1
            old_wal_seq = self.manifest.wal_seq
            self.manifest.wal_seq += 1
            self.manifest.next_text_id = sealed_next_id
            self.manifest.total_tokens += memtable_tokens
            self.manifest.commit(self.root)
            old_wal = self.wal
            old_wal.close(sync=False)
            self.wal = WriteAheadLog(
                self.root / wal_name(self.manifest.wal_seq),
                ack_policy=self.config.ack_policy,
                fsync_batch=self.config.fsync_batch,
            )
            (self.root / wal_name(old_wal_seq)).unlink(missing_ok=True)
            self.memtable.clear()
            self._memtable_first_id = sealed_next_id
            self._memtable_tokens = 0
            self._snapshot_cache = None
            self.stats.seals += 1
        logger.info("sealed %s (%d postings)", name, int(built.num_postings))
        if self.config.background_compaction:
            self._ensure_compactor()
            self._compact_wakeup.set()
        return name

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, *, all_runs: bool = False) -> bool:
        """Run one compaction round synchronously; ``True`` if it merged.

        ``all_runs=True`` merges every sealed run into one (full
        compaction); otherwise the tiered policy picks a window (or
        nothing).  Safe to call concurrently with appends and queries.
        """
        with self._compact_lock:
            with self._lock:
                self._check_open()
                runs = list(self.manifest.runs)
                if all_runs:
                    window = (0, len(runs)) if len(runs) > 1 else None
                else:
                    sizes = [
                        int(self._reader(name).num_postings) for name in runs
                    ]
                    window = pick_compaction(
                        sizes, self.config.compact_fanout, TIER_RATIO
                    )
                if window is None:
                    return False
                lo, hi = window
                victims = runs[lo:hi]
                merged_name = run_name(self.manifest.run_seq)
                self.manifest.run_seq += 1
                # run_seq advances in the manifest only at commit below;
                # a crash mid-merge leaves an unreferenced run-<seq>
                # directory that open() garbage-collects.
            # Merge OUTSIDE the state lock: inputs are immutable runs and
            # the output directory is invisible until the commit.
            merge_disk_indexes(
                [self.root / name for name in victims],
                self.root / merged_name,
                text_offsets=[0] * len(victims),  # runs hold absolute ids
                codec=self.manifest.codec,
            )
            with self._lock:
                position = self.manifest.runs.index(victims[0])
                self.manifest.runs[position : position + len(victims)] = [
                    merged_name
                ]
                self.manifest.commit(self.root)
                for name in victims:
                    self._run_readers.pop(name, None)
                self._snapshot_cache = None
                self.stats.compactions += 1
            # Old run directories die after the commit; snapshots that
            # pinned them keep their mmaps alive until released.
            for name in victims:
                shutil.rmtree(self.root / name, ignore_errors=True)
            logger.info(
                "compacted %d runs [%s..%s] into %s",
                len(victims),
                victims[0],
                victims[-1],
                merged_name,
            )
            return True

    def _ensure_compactor(self) -> None:
        with self._lock:
            if self._compactor is not None and self._compactor.is_alive():
                return
            self._stop_compactor.clear()
            self._compactor = threading.Thread(
                target=self._compaction_loop, name="lsm-compactor", daemon=True
            )
            self._compactor.start()

    def _compaction_loop(self) -> None:
        while not self._stop_compactor.is_set():
            self._compact_wakeup.wait(timeout=0.5)
            if self._stop_compactor.is_set():
                return
            self._compact_wakeup.clear()
            try:
                # Drain: keep merging while the policy finds work.
                while self.compact():
                    pass
            except Exception:  # pragma: no cover - surfaced via logs
                logger.exception("background compaction failed")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _reader(self, name: str) -> DiskInvertedIndex:
        reader = self._run_readers.get(name)
        if reader is None:
            reader = DiskInvertedIndex(self.root / name)
            self._run_readers[name] = reader
        return reader

    def snapshot(self) -> UnionIndexReader:
        """Pin the current generation: an immutable union reader over
        {sealed runs, memtable view}.  Cached until the next mutation."""
        with self._lock:
            self._check_open()
            if self._snapshot_cache is not None:
                return self._snapshot_cache
            sources: list = [self._reader(name) for name in self.manifest.runs]
            built = self.memtable.index()
            if built is not None:
                sources.append(built)
            self._snapshot_cache = UnionIndexReader(
                self.family, self.t, sources, generation=self.generation
            )
            return self._snapshot_cache

    def searcher(self, **kwargs) -> "LiveSearcher":
        """A searcher that re-pins the latest snapshot per query."""
        return LiveSearcher(self, **kwargs)

    # -- reader-protocol conveniences (weakly consistent: each call pins
    # -- the latest snapshot; use snapshot()/searcher() for isolation).
    def list_lengths(self, func: int) -> np.ndarray:
        return self.snapshot().list_lengths(func)

    def list_keys(self, func: int) -> np.ndarray:
        return self.snapshot().list_keys(func)

    @property
    def io_stats(self):
        return self.snapshot().io_stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Durability barrier: fsync the active WAL segment."""
        with self._lock:
            self._check_open()
            self.wal.sync()

    def close(self) -> None:
        """Stop the compactor, sync the WAL, and release the root."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop_compactor.set()
        self._compact_wakeup.set()
        if self._compactor is not None:
            self._compactor.join(timeout=30.0)
        self.wal.close(sync=True)

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("live index is closed")

    def __enter__(self) -> "LiveIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone version of the visible state (manifest generation
        plus memtable growth), used to invalidate per-query searchers."""
        return (self.manifest.generation << 32) + self.memtable.num_texts

    @property
    def num_texts(self) -> int:
        """Upper bound of the assigned text-id space."""
        return self._next_text_id

    @property
    def total_tokens(self) -> int:
        return self.manifest.total_tokens + self._memtable_tokens

    @property
    def num_postings(self) -> int:
        with self._lock:
            if self._closed:
                return 0
            total = sum(
                int(self._reader(name).num_postings)
                for name in self.manifest.runs
            )
            return total + self.memtable.postings

    @property
    def nbytes(self) -> int:
        with self._lock:
            if self._closed:
                return 0
            total = sum(
                int(self._reader(name).nbytes) for name in self.manifest.runs
            )
            built = self.memtable.index()
            return total + (int(built.nbytes) if built is not None else 0)

    @property
    def runs(self) -> list[str]:
        with self._lock:
            return list(self.manifest.runs)

    @property
    def memtable_postings(self) -> int:
        return self.memtable.postings

    def status(self) -> dict:
        """Operational snapshot for ``/stats`` and the CLI."""
        with self._lock:
            return {
                "generation": self.manifest.generation,
                "next_text_id": self._next_text_id,
                "runs": list(self.manifest.runs),
                "memtable_postings": self.memtable.postings,
                "memtable_texts": self.memtable.num_texts,
                "wal_bytes": self.wal.nbytes,
                "wal_records": self.wal.records_written,
                "wal_syncs": self.wal.syncs,
                "ack_policy": self.config.ack_policy,
                **self.stats.to_dict(),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveIndex({str(self.root)!r}, texts={self.num_texts}, "
            f"runs={len(self.manifest.runs)}, "
            f"memtable={self.memtable.postings} postings)"
        )


class LiveSearcher:
    """Searcher over a :class:`LiveIndex` with per-query snapshot pinning.

    Every :meth:`search` call pins the live index's *current* snapshot;
    the inner :class:`~repro.core.search.NearDuplicateSearcher` (and
    its optional :class:`~repro.index.cache.CachedIndexReader`) is
    rebuilt only when the generation actually moved, so a read-mostly
    workload keeps its cache.  Unknown attributes delegate to the inner
    searcher, which makes this a drop-in for the batch planner/executor
    and the service micro-batcher.
    """

    def __init__(
        self,
        live: LiveIndex,
        *,
        cache_bytes: int = 0,
        long_list_cutoff: int | None = None,
        corpus=None,
    ) -> None:
        self.live = live
        self.cache_bytes = int(cache_bytes)
        self._long_list_cutoff = long_list_cutoff
        self._corpus = corpus
        self._refresh_lock = threading.Lock()
        self._generation: int | None = None
        self._inner: NearDuplicateSearcher | None = None

    def _current(self) -> "NearDuplicateSearcher":
        # Imported here, not at module top: repro.core.search reads the
        # index package during its own import, and this module is pulled
        # in by repro.index.__init__ — a top-level import would cycle.
        from repro.core.search import NearDuplicateSearcher

        generation = self.live.generation
        with self._refresh_lock:
            if self._inner is None or generation != self._generation:
                reader = self.live.snapshot()
                if self.cache_bytes > 0:
                    from repro.index.cache import CachedIndexReader

                    cache = CachedIndexReader(reader, capacity_bytes=self.cache_bytes)
                    if self._inner is not None:
                        # One counter history across generations, so the
                        # service's /stats never goes backwards.
                        cache.carry_counters(self._inner.index)
                    reader = cache
                self._inner = NearDuplicateSearcher(
                    reader,
                    long_list_cutoff=self._long_list_cutoff,
                    corpus=self._corpus,
                )
                self._generation = generation
            return self._inner

    def search(self, query: np.ndarray, theta: float, *, verify: bool = False):
        """One query against the latest committed generation."""
        return self._current().search(query, theta, verify=verify)

    def __getattr__(self, name: str):
        # Fires only for attributes not set on the instance: family, t,
        # index, corpus, long_list_cutoff, plan helpers, ... — all
        # resolved against the inner searcher of the latest generation.
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self._current(), name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LiveSearcher(live={self.live!r}, cache_bytes={self.cache_bytes})"
