"""repro — near-duplicate sequence search at scale (SIGMOD 2023 reproduction).

A from-scratch Python implementation of the near-duplicate sequence
search system of Peng, Wang & Deng, *"Near-Duplicate Sequence Search at
Scale for Large Language Model Memorization Evaluation"* (SIGMOD 2023),
together with every substrate its evaluation depends on: a trainable
BPE tokenizer, synthetic Zipf corpora with planted duplicates, an
n-gram language-model zoo standing in for GPT-2/GPT-Neo, inverted-index
storage with out-of-core construction, baselines, and the memorization
evaluation harness of the paper's Section 5.

Quickstart
----------
>>> from repro import HashFamily, build_memory_index, NearDuplicateSearcher
>>> from repro.corpus import synthweb
>>> data = synthweb(num_texts=200, seed=7)
>>> family = HashFamily(k=16, seed=1)
>>> index = build_memory_index(data.corpus, family, t=25)
>>> searcher = NearDuplicateSearcher(index)
>>> result = searcher.search(data.corpus[0][:64], theta=0.8)
>>> result.num_texts >= 1
True
"""

from repro.core import (
    CompactWindow,
    HashFamily,
    NearDuplicateSearcher,
    SearchResult,
    Span,
    collision_count,
    distinct_jaccard,
    expected_window_count,
    generate_compact_windows_stack,
    interval_scan,
    multiset_jaccard,
)
from repro.corpus import DiskCorpus, InMemoryCorpus, write_corpus
from repro.engine import Hit, NearDupEngine
from repro.index import (
    DiskInvertedIndex,
    MemoryInvertedIndex,
    build_external_index,
    build_memory_index,
    write_index,
)

__version__ = "1.0.0"

__all__ = [
    "CompactWindow",
    "DiskCorpus",
    "DiskInvertedIndex",
    "HashFamily",
    "Hit",
    "InMemoryCorpus",
    "MemoryInvertedIndex",
    "NearDupEngine",
    "NearDuplicateSearcher",
    "SearchResult",
    "Span",
    "__version__",
    "build_external_index",
    "build_memory_index",
    "collision_count",
    "distinct_jaccard",
    "expected_window_count",
    "generate_compact_windows_stack",
    "interval_scan",
    "multiset_jaccard",
    "write_corpus",
    "write_index",
]
