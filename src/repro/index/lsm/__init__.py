"""LSM live index: WAL-backed streaming ingest over sealed v2 runs.

Public surface:

* :class:`LiveIndex` / :class:`LiveIndexConfig` — the streaming,
  crash-safe, snapshot-isolated index (``repro-cli live-ingest``).
* :class:`LiveSearcher` — per-query snapshot pinning over a live index.
* :class:`UnionIndexReader` — immutable union over text-disjoint readers.
* :class:`Memtable` — the in-memory write buffer.
* :class:`WriteAheadLog` / :class:`Manifest` — durability primitives.
"""

from repro.index.lsm.live import (
    LiveIndex,
    LiveIndexConfig,
    LiveIndexStats,
    LiveSearcher,
    pick_compaction,
    run_name,
    wal_name,
)
from repro.index.lsm.manifest import (
    MANIFEST_FILE,
    MANIFEST_FORMAT_VERSION,
    Manifest,
    manifest_exists,
)
from repro.index.lsm.memtable import Memtable
from repro.index.lsm.union import UnionIndexReader
from repro.index.lsm.wal import (
    ACK_POLICIES,
    WAL_MAGIC,
    WriteAheadLog,
    decode_record,
    encode_record,
    scan_wal,
)

__all__ = [
    "ACK_POLICIES",
    "LiveIndex",
    "LiveIndexConfig",
    "LiveIndexStats",
    "LiveSearcher",
    "MANIFEST_FILE",
    "MANIFEST_FORMAT_VERSION",
    "Manifest",
    "Memtable",
    "UnionIndexReader",
    "WAL_MAGIC",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
    "manifest_exists",
    "pick_compaction",
    "run_name",
    "scan_wal",
    "wal_name",
]
