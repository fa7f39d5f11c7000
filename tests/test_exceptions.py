"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    CorpusFormatError,
    IndexFormatError,
    InvalidParameterError,
    QueryError,
    ReproError,
    TokenizerError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            CorpusFormatError,
            IndexFormatError,
            InvalidParameterError,
            QueryError,
            TokenizerError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_invalid_parameter_is_value_error(self):
        """Library misuse is also catchable as the stdlib ValueError."""
        assert issubclass(InvalidParameterError, ValueError)

    def test_single_except_catches_library_failures(self):
        import numpy as np

        from repro.core.hashing import HashFamily

        with pytest.raises(ReproError):
            HashFamily(k=0)
        with pytest.raises(ReproError):
            HashFamily(k=2).sketch(np.array([], dtype=np.uint32))


class TestSelectLongLists:
    """Direct unit tests of the prefix-selection internals."""

    @pytest.fixture
    def searcher(self, planted_index):
        from repro.core.search import NearDuplicateSearcher

        return NearDuplicateSearcher(planted_index)

    def test_cutoff_zero_disables(self, planted_index):
        import numpy as np

        from repro.core.search import NearDuplicateSearcher

        searcher = NearDuplicateSearcher(planted_index, long_list_cutoff=0)
        lengths = np.array([1000] * planted_index.family.k)
        assert not searcher._select_long_lists(lengths, beta=8).any()

    def test_explicit_cutoff_marks_longer_lists(self, planted_index):
        import numpy as np

        from repro.core.search import NearDuplicateSearcher

        searcher = NearDuplicateSearcher(planted_index, long_list_cutoff=100)
        lengths = np.array([50, 150, 99, 101] + [10] * (planted_index.family.k - 4))
        chosen = set(
            np.flatnonzero(searcher._select_long_lists(lengths, beta=8)).tolist()
        )
        assert chosen == {1, 3}

    def test_beta_cap_prefers_longest(self, planted_index):
        import numpy as np

        from repro.core.search import NearDuplicateSearcher

        searcher = NearDuplicateSearcher(planted_index, long_list_cutoff=1)
        k = planted_index.family.k
        lengths = np.arange(10, 10 + k) * 100
        chosen = set(
            np.flatnonzero(searcher._select_long_lists(lengths, beta=3)).tolist()
        )
        assert len(chosen) == 2  # beta - 1
        # The two longest lists are the last two.
        assert chosen == {k - 1, k - 2}

    def test_heuristic_ignores_empty_lists(self, planted_index):
        import numpy as np

        from repro.core.search import NearDuplicateSearcher

        searcher = NearDuplicateSearcher(planted_index)  # heuristic cutoff
        lengths = np.zeros(planted_index.family.k, dtype=np.int64)
        assert not searcher._select_long_lists(lengths, beta=8).any()
