"""Tests for the reduced mutation matrix QΓ (Eq. 14, corrected)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops.classes import error_class_indices, error_class_representatives
from repro.exceptions import ValidationError
from repro.mutation import UniformMutation, reduced_mutation_matrix
from repro.mutation.reduced import reduced_mutation_matrix_reference
from repro.util.binomial import log_binomial


class TestAgainstFullMatrix:
    @pytest.mark.parametrize("nu,p", [(3, 0.1), (5, 0.01), (7, 0.2), (8, 0.45)])
    def test_row_d_sums_full_q_over_class_k(self, nu, p):
        """QΓ[d,k] must equal Σ_{j∈Γk} Q[rep_d, j] — the probability that
        the class-d representative mutates into class k."""
        q_full = UniformMutation(nu, p).dense()
        q_red = reduced_mutation_matrix(nu, p)
        reps = error_class_representatives(nu)
        for d in range(nu + 1):
            for k in range(nu + 1):
                expected = q_full[error_class_indices(nu, k), reps[d]].sum()
                assert q_red[d, k] == pytest.approx(expected, abs=1e-13)

    def test_independent_of_representative_choice(self):
        """Any member of Γ_d gives the same row (the σ_{i,i'} symmetry
        underlying Lemma 2)."""
        nu, p = 6, 0.07
        q_full = UniformMutation(nu, p).dense()
        q_red = reduced_mutation_matrix(nu, p)
        rng = np.random.default_rng(0)
        for d in range(nu + 1):
            members = error_class_indices(nu, d)
            i = int(rng.choice(members))
            for k in range(nu + 1):
                expected = q_full[error_class_indices(nu, k), i].sum()
                assert q_red[d, k] == pytest.approx(expected, abs=1e-13)


def _per_row_build(nu: int, p: float) -> np.ndarray:
    """Eq. 14 row by row, each binomial weight a scalar ``log_binomial``
    call: the loop the tabulated build vectorizes."""
    log_p, log_1mp = np.log(p), np.log1p(-p)

    def pmf(n, log_s, log_f):
        if n == 0:
            return np.ones(1)
        i = np.arange(n + 1, dtype=np.float64)
        log_c = np.array([log_binomial(n, k) for k in range(n + 1)])
        with np.errstate(under="ignore"):
            return np.exp(log_c + i * log_s + (n - i) * log_f)

    return np.array(
        [np.convolve(pmf(nu - d, log_p, log_1mp), pmf(d, log_1mp, log_p)) for d in range(nu + 1)]
    )


class TestConvolutionEqualsTripleSum:
    """The fast convolution form equals the literal Eq. (14) sums."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.floats(1e-4, 0.5))
    def test_property(self, nu, p):
        np.testing.assert_allclose(
            reduced_mutation_matrix(nu, p),
            reduced_mutation_matrix_reference(nu, p),
            atol=1e-13,
        )

    @pytest.mark.parametrize("nu", [1, 2, 5, 14, 20, 64, 200])
    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.1, 0.37, 0.5])
    def test_tabulated_build_is_bitwise_the_per_row_build(self, nu, p):
        # same float operations in the same order: not one bit may move
        fast = reduced_mutation_matrix(nu, p)
        assert fast.tobytes() == _per_row_build(nu, p).tobytes()

    @pytest.mark.parametrize("nu", [1, 2, 3, 5, 8, 13, 20, 30])
    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.1, 0.37, 0.5])
    def test_tabulated_build_matches_triple_sum(self, nu, p):
        np.testing.assert_allclose(
            reduced_mutation_matrix(nu, p),
            reduced_mutation_matrix_reference(nu, p),
            rtol=0.0,
            atol=1e-14,
        )


class TestStochasticity:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 0.5))
    def test_row_stochastic(self, nu, p):
        """Rows sum to one — a fixed molecule mutates into *some* class.
        (With the paper's printed exponent sign the sums blow up, which
        is how we verified the typo.)"""
        q = reduced_mutation_matrix(nu, p)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(q >= -1e-15)

    def test_paper_printed_exponent_is_wrong(self):
        """Direct demonstration of the Eq. (14) typo: using the printed
        (1−p) exponent (k+d−2j)−ν produces non-stochastic rows."""
        import math

        nu, p = 5, 0.1
        bad = np.zeros((nu + 1, nu + 1))
        for d in range(nu + 1):
            for k in range(nu + 1):
                for j in range(max(0, k + d - nu), min(k, d) + 1):
                    flips = k + d - 2 * j
                    bad[d, k] += (
                        math.comb(nu - d, k - j)
                        * math.comb(d, j)
                        * p**flips
                        * (1 - p) ** (flips - nu)  # printed exponent
                    )
        assert not np.allclose(bad.sum(axis=1), 1.0)


class TestEdgeCases:
    def test_p_zero_is_identity(self):
        np.testing.assert_array_equal(reduced_mutation_matrix(6, 0.0), np.eye(7))

    def test_p_half_rows_are_binomial(self):
        """At p = 1/2 every sequence is equally likely, so row d is the
        class-size distribution C(ν,k)/2^ν regardless of d."""
        from repro.util.binomial import binomial_row

        nu = 6
        q = reduced_mutation_matrix(nu, 0.5)
        expected = binomial_row(nu) / 2.0**nu
        for d in range(nu + 1):
            np.testing.assert_allclose(q[d], expected, atol=1e-12)

    def test_long_chain_stays_stochastic(self):
        """The log-space evaluation keeps very long chains stochastic."""
        q = reduced_mutation_matrix(100, 0.01)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)

    def test_very_long_chain_fast_and_stochastic(self):
        """ν = 1000 (a 2¹⁰⁰⁰-dimensional full problem) must run in
        seconds via the convolution form and stay row stochastic."""
        q = reduced_mutation_matrix(1000, 0.01)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q >= 0.0)

    def test_invalid_p(self):
        with pytest.raises(ValidationError):
            reduced_mutation_matrix(5, 0.7)
