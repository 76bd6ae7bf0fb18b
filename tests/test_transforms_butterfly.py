"""Tests for the butterfly engine — the executable core of Algorithm 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ValidationError
from repro.transforms.butterfly import (
    butterfly_transform,
    butterfly_transform_reference,
)


def kron_from_bit_factors(factors):
    """Dense ⊗ with factor for bit s at Kronecker position ν−s (MSB first)."""
    m = np.array([[1.0]])
    for f in reversed(factors):
        m = np.kron(m, np.asarray(f, dtype=float))
    return m


finite_vec = lambda n: hnp.arrays(
    np.float64, n, elements=st.floats(-10, 10, allow_nan=False)
)


class TestButterflyTransform:
    @pytest.mark.parametrize("nu", [1, 2, 3, 5])
    def test_matches_dense_kronecker_uniform(self, nu):
        p = 0.07
        m = np.array([[1 - p, p], [p, 1 - p]])
        rng = np.random.default_rng(nu)
        v = rng.standard_normal(1 << nu)
        dense = kron_from_bit_factors([m] * nu)
        np.testing.assert_allclose(butterfly_transform(v, [m] * nu), dense @ v, atol=1e-12)

    @pytest.mark.parametrize("nu", [2, 4])
    def test_matches_dense_kronecker_distinct_factors(self, nu):
        rng = np.random.default_rng(100 + nu)
        factors = [rng.random((2, 2)) for _ in range(nu)]
        v = rng.standard_normal(1 << nu)
        dense = kron_from_bit_factors(factors)
        np.testing.assert_allclose(butterfly_transform(v, factors), dense @ v, atol=1e-12)

    def test_reference_agrees_with_vectorized(self):
        rng = np.random.default_rng(7)
        nu = 6
        factors = [rng.random((2, 2)) for _ in range(nu)]
        v = rng.standard_normal(1 << nu)
        np.testing.assert_allclose(
            butterfly_transform(v, factors),
            butterfly_transform_reference(v, factors),
            atol=1e-12,
        )

    def test_in_place_overwrites(self):
        v = np.arange(4, dtype=float)
        expected = butterfly_transform(v.copy(), [np.eye(2) * 2] * 2)
        out = butterfly_transform(v, [np.eye(2) * 2] * 2, in_place=True)
        assert out is v
        np.testing.assert_allclose(v, expected)

    def test_not_in_place_preserves_input(self):
        v = np.arange(4, dtype=float)
        orig = v.copy()
        butterfly_transform(v, [np.full((2, 2), 0.5)] * 2)
        np.testing.assert_array_equal(v, orig)

    def test_empty_factors_rejected(self):
        with pytest.raises(ValidationError):
            butterfly_transform(np.zeros(1), [])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            butterfly_transform(np.zeros(8), [np.eye(2)] * 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_linearity(self, nu, data):
        n = 1 << nu
        v = data.draw(finite_vec(n))
        w = data.draw(finite_vec(n))
        a = data.draw(st.floats(-3, 3, allow_nan=False))
        rng = np.random.default_rng(0)
        factors = [rng.random((2, 2)) for _ in range(nu)]
        lhs = butterfly_transform(a * v + w, factors)
        rhs = a * butterfly_transform(v, factors) + butterfly_transform(w, factors)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_stochastic_factors_preserve_mass(self, nu, data):
        """Column-stochastic factors ⇒ Kronecker product column-stochastic
        ⇒ 1ᵀ(Qv) = 1ᵀv (Sec. 2.2)."""
        n = 1 << nu
        v = data.draw(finite_vec(n))
        rng = np.random.default_rng(1)
        factors = []
        for _ in range(nu):
            a, b = rng.random(2)
            factors.append(np.array([[1 - a, b], [a, 1 - b]]))
        out = butterfly_transform(v, factors)
        np.testing.assert_allclose(out.sum(), v.sum(), atol=1e-8 * (1 + abs(v.sum())))
