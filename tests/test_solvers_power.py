"""Tests for the (shifted) power iteration."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import UniformMutation
from repro.operators import Fmmp, ShiftedOperator, Smvp, Xmvp
from repro.operators.shifted import conservative_shift
from repro.solvers import PowerIteration, dense_solve


@pytest.fixture
def problem():
    nu, p = 7, 0.02
    mut = UniformMutation(nu, p)
    ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=11)
    return mut, ls, dense_solve(mut, ls)


class TestConvergence:
    def test_matches_dense_ground_truth(self, problem):
        mut, ls, ref = problem
        op = Fmmp(mut, ls)
        res = PowerIteration(op, tol=1e-13).solve(ls.start_vector(), landscape=ls)
        assert res.converged
        assert res.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-10)
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-9)

    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_all_forms_give_same_concentrations(self, problem, form):
        mut, ls, ref = problem
        op = Fmmp(mut, ls, form=form)
        res = PowerIteration(op, tol=1e-13).solve(
            ls.start_vector(), landscape=ls, form=form
        )
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-8)

    def test_eigenvector_normalized_and_positive(self, problem):
        mut, ls, _ = problem
        res = PowerIteration(Fmmp(mut, ls), tol=1e-12).solve(ls.start_vector())
        assert res.eigenvector.min() >= 0.0
        assert res.eigenvector.sum() == pytest.approx(1.0)

    def test_residual_definition(self, problem):
        """Reported residual must equal ‖W·x − λ·x‖₂ of the final pair."""
        mut, ls, _ = problem
        op = Fmmp(mut, ls)
        res = PowerIteration(op, tol=1e-10).solve(ls.start_vector())
        actual = np.linalg.norm(op.matvec(res.eigenvector) - res.eigenvalue * res.eigenvector)
        assert actual == pytest.approx(res.residual, rel=0.5, abs=1e-12)
        assert actual < 1e-9


class TestShift:
    def test_shift_reduces_iterations(self, problem):
        """Sec. 3: the conservative shift gives a clearly measurable
        reduction (paper: ≳10 % on random landscapes)."""
        mut, ls, _ = problem
        base = Fmmp(mut, ls)
        mu = conservative_shift(mut, ls)
        plain = PowerIteration(base, tol=1e-12).solve(ls.start_vector())
        shifted = PowerIteration(ShiftedOperator(base, mu), tol=1e-12).solve(ls.start_vector())
        assert shifted.iterations < plain.iterations
        reduction = 1.0 - shifted.iterations / plain.iterations
        assert reduction >= 0.05, f"shift saved only {reduction:.1%}"

    def test_shifted_eigenvalue_unshifted_in_result(self, problem):
        mut, ls, ref = problem
        mu = conservative_shift(mut, ls)
        res = PowerIteration(ShiftedOperator(Fmmp(mut, ls), mu), tol=1e-13).solve(
            ls.start_vector(), landscape=ls
        )
        assert res.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-9)

    def test_shifted_concentrations_identical(self, problem):
        mut, ls, ref = problem
        mu = conservative_shift(mut, ls)
        res = PowerIteration(ShiftedOperator(Fmmp(mut, ls), mu), tol=1e-13).solve(
            ls.start_vector(), landscape=ls
        )
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-9)


class TestOperatorsInsidePi:
    def test_xmvp5_converges_to_slightly_perturbed_answer(self):
        """Pi(Xmvp(5)) converges to the sparsified matrix's eigenvector:
        close to, but measurably different from, the exact solution —
        the accuracy/speed trade-off of [10]."""
        nu, p = 10, 0.01
        mut = UniformMutation(nu, p)
        ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=4)
        exact = PowerIteration(Fmmp(mut, ls), tol=1e-13).solve(ls.start_vector(), landscape=ls)
        approx = PowerIteration(Xmvp(mut, ls, 5), tol=1e-10).solve(
            ls.start_vector(), landscape=ls
        )
        err = np.abs(exact.concentrations - approx.concentrations).max()
        assert err < 1e-7, "dmax=5 should be accurate to ~1e-10 .. 1e-8"
        assert err > 0.0

    def test_smvp_agrees(self, problem):
        mut, ls, ref = problem
        res = PowerIteration(Smvp(mut, ls), tol=1e-13).solve(ls.start_vector(), landscape=ls)
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-9)


class _NanAfter:
    """Stub operator: the wrapped product, but all NaN from call ``calls`` on."""

    def __init__(self, op, calls: int):
        self.op = op
        self.n = op.n
        self.nan_from = calls
        self.calls = 0

    def matvec(self, v):
        self.calls += 1
        y = self.op.matvec(v)
        return np.full_like(y, np.nan) if self.calls >= self.nan_from else y


class TestFailureModes:
    def test_max_iterations_raises(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ConvergenceError) as exc_info:
            PowerIteration(Fmmp(mut, ls), tol=1e-15, max_iterations=2).solve(ls.start_vector())
        assert exc_info.value.iterations == 2

    def test_no_raise_mode(self, problem):
        mut, ls, _ = problem
        res = PowerIteration(Fmmp(mut, ls), tol=1e-15, max_iterations=2).solve(
            ls.start_vector(), raise_on_fail=False
        )
        assert not res.converged
        assert res.iterations == 2

    def test_zero_start_rejected(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ValidationError):
            PowerIteration(Fmmp(mut, ls)).solve(np.zeros(mut.n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, problem, bad):
        mut, ls, _ = problem
        start = ls.start_vector()
        start[3] = bad
        with pytest.raises(ValidationError, match="finite"):
            PowerIteration(Fmmp(mut, ls), max_iterations=1000).solve(start)

    def test_non_finite_iterate_stops_at_first_nan(self, problem):
        mut, ls, _ = problem
        op = _NanAfter(Fmmp(mut, ls), calls=3)
        with pytest.raises(ConvergenceError, match="non-finite") as exc_info:
            PowerIteration(op, tol=1e-15, max_iterations=1000).solve(ls.start_vector())
        assert exc_info.value.iterations == 3
        assert op.calls == 3

    def test_wrong_start_shape(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ValidationError):
            PowerIteration(Fmmp(mut, ls)).solve(np.ones(3))

    def test_bad_tol(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ValidationError):
            PowerIteration(Fmmp(mut, ls), tol=0.0)


class TestHistory:
    def test_history_recorded_and_monotone_tail(self, problem):
        mut, ls, _ = problem
        res = PowerIteration(Fmmp(mut, ls), tol=1e-12, record_history=True).solve(
            ls.start_vector()
        )
        assert len(res.history) == res.iterations
        resids = [h.residual for h in res.history]
        # Geometric convergence: the last residuals decrease.
        assert resids[-1] < resids[max(0, len(resids) - 5)]

    def test_history_off_by_default(self, problem):
        mut, ls, _ = problem
        res = PowerIteration(Fmmp(mut, ls), tol=1e-10).solve(ls.start_vector())
        assert res.history == []
