"""Block power iteration: lock-step sweeps, per-column shifts, deflation."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import UniformMutation
from repro.operators import BatchedFmmp, Fmmp
from repro.operators.shifted import ShiftedOperator, conservative_shift
from repro.solvers import BlockPowerIteration, BlockSolveResult, PowerIteration

NU = 6
P = 0.02


def make_operator(form="right", n_lands=3):
    mutation = UniformMutation(NU, P)
    lands = [
        SinglePeakLandscape(NU, f_peak=2.0),
        RandomLandscape(NU, c=4.0, sigma=1.0, seed=0),
        RandomLandscape(NU, c=4.0, sigma=1.0, seed=1),
    ][:n_lands]
    return BatchedFmmp(mutation, lands, form=form), mutation, lands


class TestAgainstScalarPowerIteration:
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_eigenpairs_match_scalar_route(self, form):
        op, mutation, lands = make_operator(form)
        block = BlockPowerIteration(op, tol=1e-12).solve()
        assert isinstance(block, BlockSolveResult)
        assert block.converged
        for j, land in enumerate(lands):
            scalar = PowerIteration(Fmmp(mutation, land, form=form), tol=1e-12).solve(
                land.start_vector(), landscape=land, form=form
            )
            assert block[j].eigenvalue == pytest.approx(scalar.eigenvalue, rel=1e-10)
            np.testing.assert_allclose(
                block[j].concentrations, scalar.concentrations, atol=1e-9
            )

    def test_iteration_counts_match_scalar_route(self):
        """Lock-step + deflation must not change any column's trajectory."""
        op, mutation, lands = make_operator()
        block = BlockPowerIteration(op, tol=1e-12).solve()
        for j, land in enumerate(lands):
            scalar = PowerIteration(Fmmp(mutation, land), tol=1e-12).solve(
                land.start_vector()
            )
            assert block[j].iterations == scalar.iterations
        assert block.sweeps == max(r.iterations for r in block)

    def test_per_column_shifts_match_shifted_scalar(self):
        op, mutation, lands = make_operator()
        shifts = [conservative_shift(mutation, land) for land in lands]
        block = BlockPowerIteration(op, shifts=shifts, tol=1e-12).solve()
        for j, land in enumerate(lands):
            shifted = ShiftedOperator(Fmmp(mutation, land), shifts[j])
            scalar = PowerIteration(shifted, tol=1e-12).solve(land.start_vector())
            assert block[j].eigenvalue == pytest.approx(scalar.eigenvalue, rel=1e-10)

    def test_shifts_accelerate_convergence(self):
        op, mutation, lands = make_operator()
        plain = BlockPowerIteration(op, tol=1e-12).solve()
        shifts = [conservative_shift(mutation, land) for land in lands]
        shifted = BlockPowerIteration(op, shifts=shifts, tol=1e-12).solve()
        assert shifted.sweeps <= plain.sweeps
        np.testing.assert_allclose(
            shifted.eigenvalues, plain.eigenvalues, rtol=1e-9
        )


class TestBlockSolveResult:
    def test_sequence_protocol(self):
        op, _, lands = make_operator()
        block = BlockPowerIteration(op, tol=1e-10).solve()
        assert len(block) == len(lands)
        assert [r.eigenvalue for r in block] == list(block.eigenvalues)
        assert block[1] is block.columns[1]

    def test_method_label(self):
        op, _, _ = make_operator()
        block = BlockPowerIteration(op, tol=1e-10).solve(method_name="BPi(Fmmp)")
        assert all(r.method == "BPi(Fmmp)" for r in block)

    def test_record_history(self):
        op, _, _ = make_operator()
        block = BlockPowerIteration(op, tol=1e-10, record_history=True).solve()
        for r in block:
            assert len(r.history) == r.iterations
            assert r.history[-1].residual < 1e-10


class TestDeflationAndFailure:
    def test_deflation_freezes_fast_columns(self):
        """Columns converging at different speeds all land on the right
        eigenpair (the fast ones are frozen, not dragged along)."""
        mutation = UniformMutation(NU, P)
        lands = [
            SinglePeakLandscape(NU, f_peak=8.0),  # large gap: fast
            RandomLandscape(NU, c=5.0, sigma=2.0, seed=5),  # slow
        ]
        op = BatchedFmmp(mutation, lands)
        block = BlockPowerIteration(op, tol=1e-12).solve()
        its = [r.iterations for r in block]
        assert its[0] != its[1]  # genuinely different convergence speeds
        for j, land in enumerate(lands):
            scalar = PowerIteration(Fmmp(mutation, land), tol=1e-12).solve(
                land.start_vector()
            )
            assert block[j].eigenvalue == pytest.approx(scalar.eigenvalue, rel=1e-10)

    def test_raise_on_fail_true_raises(self):
        op, _, _ = make_operator()
        with pytest.raises(ConvergenceError, match="did not reach"):
            BlockPowerIteration(op, tol=1e-14, max_iterations=2).solve()

    def test_raise_on_fail_false_flags_stragglers(self):
        op, _, _ = make_operator()
        block = BlockPowerIteration(op, tol=1e-14, max_iterations=2).solve(
            raise_on_fail=False
        )
        assert not block.converged
        assert all(not r.converged for r in block)
        assert all(np.isfinite(r.eigenvalue) for r in block)


class _NanColumnAfter:
    """Stub block operator: the wrapped shared-landscape product, with one
    column all NaN from call ``calls`` on."""

    def __init__(self, op, column: int, calls: int):
        self.op = op
        self.n = op.n
        self.column = column
        self.nan_from = calls
        self.calls = 0

    def matmat(self, block):
        self.calls += 1
        y = self.op.matmat(block, columns=list(range(block.shape[1])))
        if self.calls >= self.nan_from:
            y[:, self.column] = np.nan
        return y


class TestValidation:
    def test_bad_tol_and_iterations(self):
        op, _, _ = make_operator()
        with pytest.raises(ValidationError):
            BlockPowerIteration(op, tol=0.0)
        with pytest.raises(ValidationError):
            BlockPowerIteration(op, max_iterations=0)

    def test_starts_shape_checked(self):
        op, _, _ = make_operator()
        with pytest.raises(ValidationError, match="starts"):
            BlockPowerIteration(op).solve(np.zeros(op.n))
        with pytest.raises(ValidationError, match="columns"):
            BlockPowerIteration(op).solve(np.ones((op.n, 2)))

    def test_zero_mass_start_rejected(self):
        op, _, _ = make_operator()
        starts = np.ones((op.n, 3))
        starts[:, 1] = 0.0
        with pytest.raises(ValidationError, match="mass"):
            BlockPowerIteration(op).solve(starts)

    def test_non_finite_start_rejected(self):
        op, _, lands = make_operator()
        starts = np.stack([land.start_vector() for land in lands], axis=1)
        starts[5, 2] = np.nan
        with pytest.raises(ValidationError, match="column 2 must be finite"):
            BlockPowerIteration(op, max_iterations=1000).solve(starts)

    def test_non_finite_column_stops_at_first_nan(self):
        op, _, lands = make_operator()
        starts = np.stack([land.start_vector() for land in lands], axis=1)
        stub = _NanColumnAfter(op, column=1, calls=3)
        with pytest.raises(ConvergenceError, match="column 1: non-finite") as exc_info:
            BlockPowerIteration(stub, tol=1e-15, max_iterations=1000).solve(starts)
        assert exc_info.value.iterations == 3
        assert stub.calls == 3

    def test_shift_length_checked(self):
        op, _, _ = make_operator()
        with pytest.raises(ValidationError, match="shifts"):
            BlockPowerIteration(op, shifts=[0.1, 0.2]).solve()

    def test_shared_operator_requires_starts(self):
        mutation = UniformMutation(NU, P)
        land = SinglePeakLandscape(NU)
        shared = BatchedFmmp(mutation, land)
        with pytest.raises(ValidationError, match="starts"):
            BlockPowerIteration(shared).solve()
        # ... and works when given a block of starts:
        starts = np.repeat(land.start_vector()[:, None], 2, axis=1)
        block = BlockPowerIteration(shared, tol=1e-11).solve(starts)
        assert block.converged and len(block) == 2
        assert block[0].eigenvalue == pytest.approx(block[1].eigenvalue, rel=1e-12)
