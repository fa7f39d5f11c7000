"""Inverted indexes over compact windows: structures, builders, storage."""

from repro.index.builder import (
    BuildStats,
    DEFAULT_BATCH_TEXTS,
    build_and_write_index,
    build_memory_index,
    merge_per_func_chunks,
)
from repro.index.cache import CachedIndexReader, CacheStats
from repro.index.codec import (
    BLOCK_POSTINGS,
    CODECS,
    EncodedList,
    EncodedLists,
    check_codec,
    decode_blocks,
    encode_list,
    encode_lists,
    pack_bits,
    unpack_bits_at,
)
from repro.index.external import (
    ExternalBuildConfig,
    build_external_index,
)
from repro.index.lsm import (
    BloomPrefilter,
    LiveIndex,
    LiveIndexConfig,
    LiveSearcher,
    Manifest,
    Memtable,
    UnionIndexReader,
    WriteAheadLog,
    manifest_exists,
)
from repro.index.merge import merge_disk_indexes
from repro.index.inverted import (
    InvertedIndexReader,
    IOStats,
    POSTING_BYTES,
    POSTING_DTYPE,
)
from repro.index.sharded import Shard, ShardedIndex, ShardedSearcher
from repro.index.stats import (
    IndexSummary,
    all_list_lengths,
    cutoff_for_top_fraction,
    zipf_tail_report,
)
from repro.index.sidecar import SIDECAR_FILE, read_sidecar, write_sidecar
from repro.index.storage import DiskInvertedIndex, MemoryInvertedIndex, write_index
from repro.index.validate import ValidationReport, validate_index
from repro.index.zonemap import ZoneMap, build_zone_map

__all__ = [
    "BLOCK_POSTINGS",
    "BuildStats",
    "CODECS",
    "CacheStats",
    "CachedIndexReader",
    "EncodedList",
    "EncodedLists",
    "check_codec",
    "decode_blocks",
    "encode_list",
    "encode_lists",
    "pack_bits",
    "unpack_bits_at",
    "DEFAULT_BATCH_TEXTS",
    "SIDECAR_FILE",
    "read_sidecar",
    "write_sidecar",
    "DiskInvertedIndex",
    "ExternalBuildConfig",
    "BloomPrefilter",
    "LiveIndex",
    "LiveIndexConfig",
    "LiveSearcher",
    "Manifest",
    "Memtable",
    "UnionIndexReader",
    "WriteAheadLog",
    "manifest_exists",
    "Shard",
    "ShardedIndex",
    "ShardedSearcher",
    "ValidationReport",
    "validate_index",
    "IOStats",
    "IndexSummary",
    "InvertedIndexReader",
    "MemoryInvertedIndex",
    "POSTING_BYTES",
    "POSTING_DTYPE",
    "ZoneMap",
    "all_list_lengths",
    "build_and_write_index",
    "build_external_index",
    "build_memory_index",
    "build_zone_map",
    "cutoff_for_top_fraction",
    "merge_disk_indexes",
    "merge_per_func_chunks",
    "write_index",
    "zipf_tail_report",
]
