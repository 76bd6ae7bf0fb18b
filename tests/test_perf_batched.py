"""Roofline cost model for the batched kernel + cost reconciliation.

The reconciliation contract: ``Fmmp.costs(batch=B)``, the per-column
``Fmmp.costs()`` and ``batched_fmmp_costs(nu, B)`` must describe
the *same* sweep schedule — one source of truth consumed from three
entry points.
"""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import GroupedMutation, UniformMutation, site_factor
from repro.operators import Fmmp
from repro.operators.base import OperatorCosts
from repro.perf import (
    BatchedMeasurement,
    batched_fmmp_costs,
    fmmp_costs,
    measure_batched_matmat,
    modeled_crossover_batch,
    modeled_speedup,
)
from repro.transforms.batched import fused_stage_count


class TestBatchedCostModel:
    @pytest.mark.parametrize("nu", [2, 3, 8, 18])
    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_bytes_track_the_sweep_schedule(self, nu, batch):
        costs = batched_fmmp_costs(nu, batch)
        n, b = float(1 << nu), float(batch)
        sweeps = fused_stage_count(nu)
        # `right` form: fused sweeps + one pre-scale pass.
        expected = 16.0 * n * b * sweeps + 8.0 * (2.0 * n * b + n)
        assert costs.bytes_moved == pytest.approx(expected)
        assert costs.batch == batch

    def test_form_scale_passes(self):
        right = batched_fmmp_costs(8, 4, form="right")
        left = batched_fmmp_costs(8, 4, form="left")
        sym = batched_fmmp_costs(8, 4, form="symmetric")
        assert right.bytes_moved == left.bytes_moved  # one pass each
        assert sym.bytes_moved > right.bytes_moved  # pre AND post

    def test_sweep_costs_follow_the_four_bit_plan(self):
        # nu=10 runs sweeps of radix 16, 16 and 4: three passes over the
        # block, 2r-1 flops per element each, plus the left form's one
        # post-scale pass.
        costs = batched_fmmp_costs(10, 16, form="left")
        n, b = float(1 << 10), 16.0
        assert costs.bytes_moved == pytest.approx(
            16.0 * n * b * 3 + 8.0 * (2.0 * n * b + n)
        )
        assert costs.flops == pytest.approx(n * b * (31 + 31 + 7 + 1))

    def test_per_vector_amortization(self):
        c16 = batched_fmmp_costs(10, 16)
        c1 = batched_fmmp_costs(10, 1)
        assert c16.per_vector().bytes_moved < c1.per_vector().bytes_moved
        assert c16.per_vector().batch == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            batched_fmmp_costs(0, 4)
        with pytest.raises(ValidationError):
            batched_fmmp_costs(8, 0)
        with pytest.raises(ValidationError):
            batched_fmmp_costs(8, 4, form="diagonal")


class TestModeledSpeedupAndCrossover:
    @pytest.mark.parametrize("nu", [8, 12, 18])
    def test_speedup_monotone_in_batch(self, nu):
        speedups = [modeled_speedup(nu, b) for b in (1, 2, 4, 16, 64)]
        assert all(b >= a for a, b in zip(speedups, speedups[1:]))

    def test_acceptance_regime_modeled(self):
        """The acceptance point (nu=18, B=16) against the fused B=1
        product: B columns share only the diagonal read of each scale
        pass, so the bytes model predicts 104N / 96.5N per vector — far
        below the 1.5x bar, which only the measured bench can judge."""
        assert modeled_speedup(18, 16) == pytest.approx(104.0 / 96.5)

    def test_crossover_reaches_target(self):
        assert modeled_crossover_batch(18, target_speedup=1.05) == 4
        assert modeled_crossover_batch(18, target_speedup=1.5) is None

    def test_crossover_unreachable_returns_none(self):
        assert modeled_crossover_batch(8, target_speedup=1e9) is None

    def test_crossover_validation(self):
        with pytest.raises(ValidationError):
            modeled_crossover_batch(8, target_speedup=0.0)


class TestCostReconciliation:
    """Fmmp.costs(batch=), per-column Fmmp.costs() and
    batched_fmmp_costs must agree — the reconciliation contract."""

    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    @pytest.mark.parametrize("batch", [2, 16])
    def test_fmmp_costs_batch_delegates_to_model(self, form, batch):
        nu = 8
        op = Fmmp(UniformMutation(nu, 0.01), SinglePeakLandscape(nu), form=form)
        got = op.costs(batch=batch)
        want = batched_fmmp_costs(nu, batch, form=form)
        assert got.flops == pytest.approx(want.flops)
        assert got.bytes_moved == pytest.approx(want.bytes_moved)
        assert got.batch == batch

    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_costs_count_the_operator_plan(self, batch, variant):
        nu = 11
        op = Fmmp(UniformMutation(nu, 0.01), SinglePeakLandscape(nu), variant=variant)
        radices = [stage.radix for stage in op._plan]
        assert sorted(radices) == [8, 16, 16]
        nb = float(op.n * batch)
        costs = op.costs(batch=batch)
        assert costs.flops == pytest.approx(nb * (sum(2 * r - 1 for r in radices) + 1))
        assert costs.bytes_moved == pytest.approx(
            16.0 * nb * len(radices) + 8.0 * (2.0 * nb + op.n)
        )

    def test_batched_operator_costs_match_model(self):
        nu = 7
        mutation = UniformMutation(nu, 0.02)
        lands = [RandomLandscape(nu, seed=s) for s in range(3)]
        op = Fmmp(mutation, lands)
        got = op.costs()
        want = batched_fmmp_costs(nu, 3, form="right")
        assert got.bytes_moved == pytest.approx(want.bytes_moved)
        assert got.batch == 3

    def test_scalar_costs_unchanged_at_batch_1(self):
        nu = 8
        op = Fmmp(UniformMutation(nu, 0.01), SinglePeakLandscape(nu))
        assert op.costs().batch == 1
        assert op.costs().bytes_moved == pytest.approx(
            op.costs(batch=1).bytes_moved
        )

    def test_grouped_mutation_costs_scale_linearly(self):
        nu = 4
        mutation = GroupedMutation([site_factor(0.1) for _ in range(nu)] )
        op = Fmmp(mutation, SinglePeakLandscape(nu))
        c1, c4 = op.costs(batch=1), op.costs(batch=4)
        assert c4.flops == pytest.approx(4.0 * c1.flops)
        assert c4.batch == 4

    def test_operator_costs_per_vector(self):
        c = OperatorCosts(flops=80.0, bytes_moved=160.0, storage_bytes=8.0, batch=4)
        pv = c.per_vector()
        assert pv.flops == 20.0 and pv.bytes_moved == 40.0 and pv.batch == 1
        assert pv.storage_bytes == 8.0


class TestMeasurement:
    def test_measure_small_problem(self):
        m = measure_batched_matmat(6, 4, repeats=1, min_time=1e-4)
        assert isinstance(m, BatchedMeasurement)
        assert m.single_s > 0.0 and m.batched_s > 0.0
        assert np.isfinite(m.per_vector_speedup)
        d = m.to_dict()
        assert d["nu"] == 6 and d["batch"] == 4
        assert d["per_vector_speedup"] == pytest.approx(m.per_vector_speedup)
        assert d["single_gbs"] > 0.0 and d["batched_gbs"] > 0.0

    def test_scalar_model_still_available(self):
        # the closed-form entry point is the B=1 plan model
        assert fmmp_costs(8).bytes_moved == batched_fmmp_costs(8, 1).bytes_moved
