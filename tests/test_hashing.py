"""Tests for the universal hash family and k-mins sketches."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashing import HASH_SPACE, HashFamily
from repro.core.verify import distinct_jaccard, estimate_jaccard
from repro.exceptions import InvalidParameterError


class TestConstruction:
    def test_k_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            HashFamily(k=0)

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            HashFamily(k=-3)

    def test_same_seed_same_family(self):
        assert HashFamily(k=4, seed=5) == HashFamily(k=4, seed=5)

    def test_different_seed_different_family(self):
        assert HashFamily(k=4, seed=5) != HashFamily(k=4, seed=6)

    def test_eq_against_other_type(self):
        assert HashFamily(k=2).__eq__(42) is NotImplemented


class TestHashing:
    def test_scalar_matches_vector(self, family: HashFamily):
        tokens = np.array([0, 1, 17, 4095], dtype=np.uint32)
        vector = family.hash_tokens(tokens, func=3)
        for token, expected in zip(tokens, vector):
            assert family.hash_token(int(token), func=3) == int(expected)

    def test_output_range(self, family: HashFamily):
        values = family.hash_tokens(np.arange(1000, dtype=np.uint32), func=0)
        assert values.dtype == np.uint32
        assert int(values.max()) < HASH_SPACE

    def test_deterministic(self, family: HashFamily):
        tokens = np.arange(100, dtype=np.uint32)
        assert np.array_equal(
            family.hash_tokens(tokens, 2), family.hash_tokens(tokens, 2)
        )

    def test_functions_differ(self, family: HashFamily):
        tokens = np.arange(200, dtype=np.uint32)
        a = family.hash_tokens(tokens, 0)
        b = family.hash_tokens(tokens, 1)
        assert not np.array_equal(a, b)

    def test_func_index_validated(self, family: HashFamily):
        with pytest.raises(InvalidParameterError):
            family.hash_tokens(np.arange(3), func=family.k)
        with pytest.raises(InvalidParameterError):
            family.hash_token(1, func=-1)

    def test_vocabulary_table_matches_direct_hash(self, family: HashFamily):
        table = family.hash_vocabulary(500)
        assert table.shape == (family.k, 500)
        for func in range(family.k):
            direct = family.hash_tokens(np.arange(500, dtype=np.uint32), func)
            assert np.array_equal(table[func], direct)

    def test_vocabulary_size_validated(self, family: HashFamily):
        with pytest.raises(InvalidParameterError):
            family.hash_vocabulary(0)

    def test_hashes_spread(self, family: HashFamily):
        """A universal family should not collide a small vocabulary."""
        values = family.hash_tokens(np.arange(1000, dtype=np.uint32), func=0)
        assert len(set(values.tolist())) > 990


class TestMinHashAndSketch:
    def test_minhash_is_min_over_tokens(self, family: HashFamily):
        tokens = np.array([3, 9, 27, 81], dtype=np.uint32)
        expected = min(family.hash_token(int(t), 1) for t in tokens)
        assert family.minhash(tokens, 1) == expected

    def test_minhash_ignores_duplicates(self, family: HashFamily):
        a = np.array([5, 5, 5, 7], dtype=np.uint32)
        b = np.array([5, 7], dtype=np.uint32)
        assert family.minhash(a, 0) == family.minhash(b, 0)

    def test_minhash_empty_rejected(self, family: HashFamily):
        with pytest.raises(InvalidParameterError):
            family.minhash(np.array([], dtype=np.uint32), 0)

    def test_sketch_shape_and_consistency(self, family: HashFamily):
        tokens = np.array([1, 2, 3, 4, 5], dtype=np.uint32)
        sketch = family.sketch(tokens)
        assert sketch.shape == (family.k,)
        for func in range(family.k):
            assert int(sketch[func]) == family.minhash(tokens, func)

    def test_sketch_empty_rejected(self, family: HashFamily):
        with pytest.raises(InvalidParameterError):
            family.sketch(np.array([], dtype=np.uint32))

    def test_sketch_order_invariant(self, family: HashFamily):
        tokens = np.array([9, 1, 4, 4, 2], dtype=np.uint32)
        shuffled = np.array([4, 2, 9, 1, 4], dtype=np.uint32)
        assert np.array_equal(family.sketch(tokens), family.sketch(shuffled))

    def test_collision_fraction_estimates_jaccard(self):
        """Unbiasedness check: mean estimate ~ true Jaccard (Section 3.2)."""
        rng = np.random.default_rng(0)
        a = np.arange(0, 60, dtype=np.uint32)
        b = np.arange(30, 90, dtype=np.uint32)  # Jaccard = 30/90
        truth = distinct_jaccard(a, b)
        estimates = []
        for seed in range(60):
            fam = HashFamily(k=64, seed=seed)
            estimates.append(estimate_jaccard(fam.sketch(a), fam.sketch(b)))
        assert abs(float(np.mean(estimates)) - truth) < 0.02

    def test_estimator_variance_within_bound(self):
        """Empirical variance stays below the 1/(4k) bound."""
        a = np.arange(0, 40, dtype=np.uint32)
        b = np.arange(20, 60, dtype=np.uint32)
        k = 32
        estimates = [
            estimate_jaccard(
                HashFamily(k=k, seed=seed).sketch(a),
                HashFamily(k=k, seed=seed).sketch(b),
            )
            for seed in range(200)
        ]
        assert float(np.var(estimates)) < 1.5 / (4 * k)


class TestPersistence:
    def test_dict_roundtrip(self, family: HashFamily):
        clone = HashFamily.from_dict(family.to_dict())
        assert clone == family

    def test_file_roundtrip(self, family: HashFamily, tmp_path):
        path = tmp_path / "family.json"
        family.save(path)
        assert HashFamily.load(path) == family

    def test_from_dict_validates_shapes(self):
        payload = HashFamily(k=4, seed=0).to_dict()
        payload["k"] = 5
        with pytest.raises(InvalidParameterError):
            HashFamily.from_dict(payload)

    def test_roundtrip_preserves_hashes(self, family: HashFamily, tmp_path):
        path = tmp_path / "family.json"
        family.save(path)
        loaded = HashFamily.load(path)
        tokens = np.arange(64, dtype=np.uint32)
        for func in range(family.k):
            assert np.array_equal(
                family.hash_tokens(tokens, func), loaded.hash_tokens(tokens, func)
            )


#: Token ids that repeat often and sit at both ends of the uint32 range.
_TOKENS = st.one_of(st.integers(0, 6), st.integers(2**32 - 4, 2**32 - 1))


def _oracle_sketch(family: HashFamily, tokens: np.ndarray) -> np.ndarray:
    """Min over every function's hashes of the distinct tokens, through
    ``hash_tokens_all`` rather than the sketch path."""
    return family.hash_tokens_all(np.unique(tokens)).min(axis=1)


class TestSketchMany:
    """``sketch_many`` over a batch equals one ``sketch`` per row."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.lists(_TOKENS, min_size=1, max_size=9), min_size=1, max_size=7
        ),
        k=st.integers(1, 9),
        seed=st.integers(0, 40),
    )
    def test_equals_stacked_sketch(self, rows, k, seed):
        """Ragged widths, width 1, repeated tokens, ids near ``2**32 - 1``
        and a batch of one."""
        family = HashFamily(k=k, seed=seed)
        batch = [np.asarray(row, dtype=np.uint32) for row in rows]
        many = family.sketch_many(batch)
        assert many.shape == (len(batch), k) and many.dtype == np.uint32
        for tokens, got in zip(batch, many):
            assert np.array_equal(got, family.sketch(tokens))
            assert np.array_equal(got, _oracle_sketch(family, tokens))

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(1, 9),
        count=st.integers(1, 6),
        data=st.data(),
    )
    def test_matrix_form_equals_row_form(self, width, count, data):
        family = HashFamily(k=5, seed=1)
        matrix = np.array(
            data.draw(
                st.lists(
                    st.lists(_TOKENS, min_size=width, max_size=width),
                    min_size=count,
                    max_size=count,
                )
            ),
            dtype=np.uint32,
        )
        assert np.array_equal(
            family.sketch_many(matrix), family.sketch_many(list(matrix))
        )

    def test_empty_batch_and_empty_row(self, family: HashFamily):
        assert family.sketch_many([]).shape == (0, family.k)
        empty = np.empty((0, 4), dtype=np.uint32)
        assert family.sketch_many(empty).shape == (0, family.k)
        with pytest.raises(InvalidParameterError):
            family.sketch_many(np.empty((2, 0), dtype=np.uint32))
        with pytest.raises(InvalidParameterError):
            family.sketch(np.array([], dtype=np.uint32))
        with pytest.raises(InvalidParameterError):
            family.sketch_many(
                [np.array([1, 2], dtype=np.uint32), np.array([], dtype=np.uint32)]
            )
