"""Stateful property test: LiveIndex vs a rebuild-from-scratch model.

A hypothesis rule-based state machine drives a :class:`LiveIndex`
through arbitrary interleavings of appends, seals, compactions, and
queries, checking after every query that it answers byte-identically
to an offline :func:`build_memory_index` over the union corpus — the
paper's correctness contract for the streaming tier (invariant (9):
sealed runs hold disjoint ascending text-id ranges, so per-source list
concatenation preserves global text-id order).

Beyond the match rectangles, the content-determined
:class:`~repro.core.search.QueryStats` counters are compared too
(lists loaded, candidates, texts matched, ...): the union reader must
not just return the right answers but do the same logical work as a
monolithic index.  Timing and I/O-byte fields are excluded — they
depend on codec framing and reader layout, not query semantics.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.hashing import HashFamily
from repro.core.search import NearDuplicateSearcher
from repro.corpus.corpus import InMemoryCorpus
from repro.index.builder import build_memory_index
from repro.index.lsm import LiveIndex, LiveIndexConfig

VOCAB = 24
T = 4
FAMILY = HashFamily(k=5, seed=77)

#: QueryStats fields that are functions of index *content*, not layout.
CONTENT_STATS = (
    "lists_loaded",
    "long_lists",
    "groups_scanned",
    "candidates",
    "texts_matched",
    "point_reads",
    "rows_scanned",
    "rows_kept",
)

any_text = st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=20).map(
    lambda xs: np.asarray(xs, dtype=np.uint32)
)


def result_set(result):
    return {
        (m.text_id, r.i_lo, r.i_hi, r.j_lo, r.j_hi, r.count)
        for m in result.matches
        for r in m.rectangles
    }


class LiveIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._root = Path(tempfile.mkdtemp(prefix="lsm_stateful_"))

    @initialize()
    def start(self):
        self.texts: list[np.ndarray] = []
        self.live = LiveIndex(
            self._root,
            family=FAMILY,
            t=T,
            vocab_size=VOCAB,
            config=LiveIndexConfig(
                # Sealing is driven explicitly by the seal rule, so the
                # machine controls exactly which interleavings happen.
                seal_threshold_postings=10**9,
                compact_fanout=2,
                background_compaction=False,
            ),
        )

    def teardown(self):
        self.live.close()
        shutil.rmtree(self._root, ignore_errors=True)

    @rule(batch=st.lists(any_text, min_size=1, max_size=4))
    def append(self, batch):
        ids = self.live.append_texts(batch)
        assert ids == list(range(len(self.texts), len(self.texts) + len(batch)))
        self.texts.extend(batch)

    @rule()
    def seal(self):
        self.live.seal()

    @rule()
    def compact(self):
        self.live.compact()

    @rule(probe=st.integers(0, 10**6), theta=st.sampled_from([0.4, 0.8, 1.0]))
    def query_matches_rebuild(self, probe, theta):
        if not self.texts:
            return
        text = self.texts[probe % len(self.texts)]
        query = text[: max(1, text.size // 2)]
        rebuilt = build_memory_index(
            InMemoryCorpus(self.texts), FAMILY, T, vocab_size=VOCAB
        )
        expected = NearDuplicateSearcher(rebuilt).search(query, theta)
        actual = self.live.searcher().search(query, theta)
        assert result_set(actual) == result_set(expected)
        for field in CONTENT_STATS:
            assert getattr(actual.stats, field) == getattr(
                expected.stats, field
            ), field

    @invariant()
    def counts_consistent(self):
        assert self.live.num_texts == len(self.texts)
        assert self.live.total_tokens == sum(t.size for t in self.texts)


LiveIndexMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=10, deadline=None
)
TestLiveIndexStateful = LiveIndexMachine.TestCase
