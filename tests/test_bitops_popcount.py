"""Unit and property tests for repro.bitops.popcount."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitops.popcount import (
    distance_to_master,
    hamming_distance,
    hamming_matrix,
    popcount,
)
from repro.exceptions import ValidationError


class TestPopcount:
    def test_scalar(self):
        assert popcount(0) == 0
        assert popcount(1) == 1
        assert popcount(0b1011) == 3
        assert popcount((1 << 63) - 1) == 63

    def test_scalar_returns_python_int(self):
        assert isinstance(popcount(7), int)

    def test_array(self):
        arr = np.array([0, 1, 2, 3, 255], dtype=np.int64)
        np.testing.assert_array_equal(popcount(arr), [0, 1, 1, 2, 8])

    def test_preserves_shape(self):
        arr = np.arange(16, dtype=np.uint32).reshape(4, 4)
        assert popcount(arr).shape == (4, 4)

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            popcount(np.array([1.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            popcount(np.array([-1]))

    @given(st.integers(0, 2**63 - 1))
    def test_matches_bin_count(self, x):
        assert popcount(x) == bin(x).count("1")

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=50))
    def test_vectorized_matches_scalar(self, xs):
        arr = np.array(xs, dtype=np.uint64)
        expected = [bin(x).count("1") for x in xs]
        np.testing.assert_array_equal(popcount(arr), expected)


class TestHammingDistance:
    def test_identity_is_zero(self):
        assert hamming_distance(12345, 12345) == 0

    def test_known_pairs(self):
        assert hamming_distance(0b0000, 0b1111) == 4
        assert hamming_distance(0b1010, 0b0101) == 4
        assert hamming_distance(0b1010, 0b1000) == 1

    def test_symmetry_vectorized(self):
        i = np.arange(64)
        j = np.arange(64)[::-1].copy()
        np.testing.assert_array_equal(hamming_distance(i, j), hamming_distance(j, i))

    def test_broadcasting(self):
        i = np.arange(8)[:, None]
        j = np.arange(8)[None, :]
        d = hamming_distance(i, j)
        assert d.shape == (8, 8)
        assert d[3, 3] == 0

    @given(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023))
    def test_triangle_inequality(self, a, b, c):
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestDistanceToMaster:
    def test_nu2(self):
        np.testing.assert_array_equal(distance_to_master(2), [0, 1, 1, 2])

    def test_class_sizes_are_binomial(self):
        d = distance_to_master(6)
        sizes = np.bincount(d, minlength=7)
        np.testing.assert_array_equal(sizes, [1, 6, 15, 20, 15, 6, 1])

    def test_doubling_equals_popcount_of_indices(self):
        for nu in range(1, 21):
            d = distance_to_master(nu)
            assert d.dtype == np.int64
            np.testing.assert_array_equal(d, popcount(np.arange(1 << nu, dtype=np.uint64)))


class TestHammingMatrix:
    def test_nu2_matrix(self):
        m = hamming_matrix(2)
        expected = np.array(
            [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
        )
        np.testing.assert_array_equal(m, expected)

    def test_symmetric_zero_diagonal(self):
        m = hamming_matrix(5)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 0)

    def test_guard(self):
        with pytest.raises(ValidationError):
            hamming_matrix(20)
