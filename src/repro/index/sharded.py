"""Sharded index: partition the corpus, query the shards, merge.

The paper scales index *construction* with per-thread private buffers
(Section 3.4); scaling the *index itself* beyond one machine's memory
or disk follows the same pattern — partition the corpus into shards of
contiguous text-id ranges, build an independent index per shard, and
fan every query out to all shards.  Compact windows never cross texts,
so the union of per-shard answers is exactly the single-index answer.

:class:`ShardedIndex` also implements the reader protocol, so a single
:class:`~repro.core.search.NearDuplicateSearcher` *could* run over it;
but fanning out one searcher per shard keeps per-shard prefix filtering
local (each shard has its own Zipf head), which is what
:class:`ShardedSearcher` does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.hashing import HashFamily
from repro.corpus.corpus import Corpus, InMemoryCorpus, infer_vocab_size
from repro.exceptions import InvalidParameterError
from repro.index.builder import DEFAULT_BATCH_TEXTS, build_memory_index
from repro.index.codec import check_codec

# NOTE: repro.core.search imports repro.index.inverted, whose package
# __init__ imports this module — so the searcher types are imported
# lazily inside ShardedSearcher to break the cycle.


def shard_ranges(total: int, num_shards: int) -> list[tuple[int, int]]:
    """``(first_text, count)`` of each shard under ceil-division.

    The one partitioning rule shared by :meth:`ShardedIndex.build` and
    the fleet builder (:func:`repro.service.router.build_shard_fleet`),
    so a routed deployment and an in-process sharded searcher agree on
    which shard owns which text.
    """
    if num_shards <= 0:
        raise InvalidParameterError(
            f"num_shards must be positive, got {num_shards}"
        )
    per_shard = max(1, (total + num_shards - 1) // num_shards)
    ranges = []
    start = 0
    while start < total:
        count = min(per_shard, total - start)
        ranges.append((start, count))
        start += count
    if not ranges:  # empty corpus: one empty shard keeps the API total
        ranges.append((0, 0))
    return ranges


@dataclass(frozen=True)
class Shard:
    """One shard: an index over texts ``[first_text, first_text + count)``.

    The shard's index numbers texts locally from 0; ``first_text``
    translates back to global corpus ids.
    """

    first_text: int
    count: int
    index: object  # any InvertedIndexReader


class ShardedIndex:
    """A corpus index split into contiguous text-id shards."""

    def __init__(self, shards: list[Shard], family: HashFamily, t: int) -> None:
        if not shards:
            raise InvalidParameterError("at least one shard is required")
        expected = 0
        for shard in shards:
            if shard.first_text != expected:
                raise InvalidParameterError(
                    f"shards must cover contiguous text ranges; expected start "
                    f"{expected}, got {shard.first_text}"
                )
            expected += shard.count
        self.shards = list(shards)
        self.family = family
        self.t = int(t)

    @classmethod
    def build(
        cls,
        corpus: Corpus,
        family: HashFamily,
        t: int,
        *,
        num_shards: int = 4,
        vocab_size: int | None = None,
        batch_texts: int = DEFAULT_BATCH_TEXTS,
        directory: str | None = None,
        codec: str = "raw",
    ) -> "ShardedIndex":
        """Partition ``corpus`` into ``num_shards`` ranges and index each.

        Shards are built one after another with
        :func:`~repro.index.builder.build_memory_index`.  With ``directory``
        set, every shard is persisted to ``directory/shard<i>`` using
        ``codec`` (``raw`` or ``packed``) and re-opened memory-mapped,
        so the sharded index serves from disk instead of RAM.
        """
        if num_shards <= 0:
            raise InvalidParameterError(f"num_shards must be positive, got {num_shards}")
        check_codec(codec)
        total = len(corpus)
        if vocab_size is None:
            vocab_size = infer_vocab_size(corpus)

        def materialize(index, shard_id: int):
            if directory is None:
                return index
            from repro.index.storage import DiskInvertedIndex, write_index

            shard_dir = Path(directory) / f"shard{shard_id}"
            write_index(index, shard_dir, codec=codec)
            return DiskInvertedIndex(shard_dir)

        shards = []
        for start, count in shard_ranges(total, num_shards):
            local = InMemoryCorpus(
                [np.asarray(corpus[start + offset]) for offset in range(count)]
            )
            index = build_memory_index(
                local, family, t, vocab_size=vocab_size, batch_texts=batch_texts
            )
            shards.append(
                Shard(
                    first_text=start,
                    count=count,
                    index=materialize(index, len(shards)),
                )
            )
        return cls(shards, family, t)

    @property
    def num_postings(self) -> int:
        return sum(int(shard.index.num_postings) for shard in self.shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)


class ShardedSearcher:
    """Fan a query out to every shard and merge the (re-numbered) results.

    Shards are searched one after another in shard order; this is the
    in-process reference a routed fleet must answer byte-identically.
    """

    def __init__(
        self,
        sharded: ShardedIndex,
        *,
        long_list_cutoff: int | None = None,
    ) -> None:
        from repro.core.search import NearDuplicateSearcher

        self.sharded = sharded
        self.t = sharded.t
        self._searchers = [
            NearDuplicateSearcher(shard.index, long_list_cutoff=long_list_cutoff)
            for shard in sharded.shards
        ]

    def search(self, query: np.ndarray, theta: float, *, verify: bool = False):
        """One result over every shard: global text ids, summed stats.

        The shards' answers gather in shard order, and shard ranges
        ascend, so the matches come out sorted by text."""
        from repro.core.search import BatchAnswer

        answer = BatchAnswer.gather(
            [
                (searcher._search_batch(searcher.plan([query], theta, verify=verify)), 0)
                for searcher in self._searchers
            ]
        )
        firsts = np.array([shard.first_text for shard in self.sharded.shards])
        (result,) = dataclasses.replace(
            answer,
            group_query=np.zeros_like(answer.group_query),
            group_text=answer.group_text + firsts[answer.group_query],
            seconds=answer.seconds.sum(axis=0, keepdims=True),
            counters=answer.counters.sum(axis=0, keepdims=True),
        ).results()
        return result
