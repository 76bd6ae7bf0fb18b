"""Tests for the stage-fused multi-vector butterfly kernel."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.transforms import (
    batched_butterfly_transform,
    butterfly_transform,
    butterfly_transform_reference,
    fused_stage_count,
    fused_stage_plan,
)


def random_factors(nu, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((2, 2)) + 2.0 * np.eye(2) for _ in range(nu)]


def kron_of_bits(factors, lo, radix):
    """``kron(M_hi, …, M_lo)`` of the bits a sweep of this radix fuses."""
    want = np.ones((1, 1))
    for s in reversed(range(lo, lo + radix.bit_length() - 1)):
        want = np.kron(want, factors[s])
    return want


class TestFusedStagePlan:
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 7, 8, 20])
    def test_four_bit_sweeps_are_krons_of_their_bits(self, nu, variant):
        factors = random_factors(nu)
        plan = fused_stage_plan(factors, variant=variant)
        assert len(plan) == -(-nu // 4) == fused_stage_count(nu)
        covered = []
        for stage in plan:
            lo = stage.span.bit_length() - 1
            np.testing.assert_allclose(
                stage.matrix, kron_of_bits(factors, lo, stage.radix), rtol=1e-15
            )
            covered += range(lo, lo + stage.radix.bit_length() - 1)
        assert sorted(covered) == list(range(nu))

    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("nu", [1, 3, 5, 6, 7, 9])
    def test_leftover_bits_form_one_smaller_group(self, nu, variant):
        plan = fused_stage_plan(random_factors(nu), variant=variant)
        assert [stage.radix for stage in plan[:-1]] == [16] * (nu // 4)
        # The traversal order is kept: eq9 ends on the top bits, eq10 on
        # the bottom ones, so the leftover group is the last sweep.
        assert plan[-1].radix == 1 << (nu % 4)
        assert plan[-1].span == (1 << (nu - nu % 4) if variant == "eq9" else 1)

    def test_radix4_factor_is_kron_of_adjacent_stages(self):
        factors = random_factors(2, seed=3)
        plan = fused_stage_plan(factors)
        assert len(plan) == 1 and plan[0].radix == 4
        np.testing.assert_allclose(plan[0].matrix, np.kron(factors[1], factors[0]))

    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    def test_single_vector_low_sweep_multiplies_from_the_right(self, variant, monkeypatch):
        import repro.transforms.batched as kernel

        routes = []
        apply_sweep = kernel._apply_sweep

        def spy(src3, dst3, stage, right):
            routes.append((stage.span, right))
            apply_sweep(src3, dst3, stage, right)

        monkeypatch.setattr(kernel, "_apply_sweep", spy)
        factors = random_factors(10)
        plan = fused_stage_plan(factors, variant=variant)
        v = np.random.default_rng(0).standard_normal((1 << 10, 1))
        got = batched_butterfly_transform(v, factors, variant=variant)
        # Only the span-1 group of a single vector takes the right route.
        assert routes == [(stage.span, stage.span == 1) for stage in plan]
        assert sum(right for _, right in routes) == 1
        want = butterfly_transform_reference(v[:, 0], factors)
        np.testing.assert_allclose(got[:, 0], want, atol=1e-12 * np.abs(want).max())
        routes.clear()
        batched_butterfly_transform(np.hstack([v, v]), factors, variant=variant)
        assert not any(right for _, right in routes)


class TestBatchedButterflyCorrectness:
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 6, 7])
    def test_matches_column_stacked_scalar(self, nu, variant):
        factors = random_factors(nu, seed=nu)
        n = 1 << nu
        rng = np.random.default_rng(nu + 10)
        block = rng.standard_normal((n, 5))
        got = batched_butterfly_transform(block, factors, variant=variant)
        want = np.stack(
            [butterfly_transform(block[:, j], factors) for j in range(5)], axis=1
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_matches_paper_reference_triple_loop(self):
        factors = random_factors(4, seed=7)
        rng = np.random.default_rng(42)
        block = rng.standard_normal((16, 3))
        got = batched_butterfly_transform(block, factors)
        for j in range(3):
            want = butterfly_transform_reference(block[:, j], factors)
            np.testing.assert_allclose(got[:, j], want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    def test_four_bit_and_leftover_sweeps_match_reference(self, variant):
        factors = random_factors(5, seed=1)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((32, 4))
        got = batched_butterfly_transform(block, factors, variant=variant)
        for j in range(4):
            want = butterfly_transform_reference(block[:, j], factors)
            np.testing.assert_allclose(got[:, j], want, rtol=1e-13, atol=1e-14)

    def test_input_block_never_mutated(self):
        factors = random_factors(3)
        block = np.random.default_rng(0).standard_normal((8, 2))
        saved = block.copy()
        batched_butterfly_transform(
            block, factors, pre_scale=np.arange(1.0, 9.0), post_scale=np.ones(8)
        )
        np.testing.assert_array_equal(block, saved)

    @pytest.mark.parametrize("shape", ["shared", "per-column"])
    def test_scale_folding_is_exact(self, shape):
        factors = random_factors(4, seed=9)
        n, b = 16, 3
        rng = np.random.default_rng(9)
        block = rng.standard_normal((n, b))
        if shape == "shared":
            pre = rng.uniform(0.5, 2.0, n)
            post = rng.uniform(0.5, 2.0, n)
            pre_cols = np.repeat(pre[:, None], b, axis=1)
            post_cols = np.repeat(post[:, None], b, axis=1)
        else:
            pre_cols = pre = rng.uniform(0.5, 2.0, (n, b))
            post_cols = post = rng.uniform(0.5, 2.0, (n, b))
        got = batched_butterfly_transform(block, factors, pre_scale=pre, post_scale=post)
        want = np.stack(
            [
                post_cols[:, j]
                * butterfly_transform(pre_cols[:, j] * block[:, j], factors)
                for j in range(b)
            ],
            axis=1,
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


class TestBufferContract:
    def test_out_and_scratch_reuse(self):
        factors = random_factors(4)
        rng = np.random.default_rng(2)
        block = rng.standard_normal((16, 4))
        out = np.empty((16, 4))
        scratch = np.empty((16, 4))
        got = batched_butterfly_transform(block, factors, out=out, scratch=scratch)
        assert got is out
        np.testing.assert_allclose(got, batched_butterfly_transform(block, factors))

    def test_out_must_not_alias_input(self):
        factors = random_factors(3)
        block = np.zeros((8, 2))
        with pytest.raises(ValidationError, match="alias"):
            batched_butterfly_transform(block, factors, out=block)

    def test_scratch_must_not_alias_out(self):
        factors = random_factors(3)
        block = np.ones((8, 2))
        out = np.empty((8, 2))
        with pytest.raises(ValidationError, match="alias"):
            batched_butterfly_transform(block, factors, out=out, scratch=out)

    def test_wrong_shape_buffers_rejected(self):
        factors = random_factors(3)
        block = np.ones((8, 2))
        with pytest.raises(ValidationError, match="shape"):
            batched_butterfly_transform(block, factors, out=np.empty((8, 3)))


class TestValidation:
    def test_rejects_1d_and_3d_blocks(self):
        factors = random_factors(3)
        with pytest.raises(ValidationError, match="2-D"):
            batched_butterfly_transform(np.zeros(8), factors)
        with pytest.raises(ValidationError, match="2-D"):
            batched_butterfly_transform(np.zeros((8, 1, 1)), factors)

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            batched_butterfly_transform(np.zeros((9, 2)), random_factors(3))

    def test_rejects_empty_factor_list(self):
        with pytest.raises(ValidationError, match="factor"):
            batched_butterfly_transform(np.zeros((1, 1)), [])

    def test_rejects_bad_scale_shape(self):
        factors = random_factors(3)
        with pytest.raises(ValidationError, match="pre_scale"):
            batched_butterfly_transform(np.zeros((8, 2)), factors, pre_scale=np.ones(4))
