"""Tests for the device kernel library, especially Algorithm 2 fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import Device, TESLA_C2050
from repro.device.kernels import (
    abs_kernel,
    axpy_kernel,
    copy_kernel,
    diff_square_into_kernel,
    fmmp_stage_kernel,
    multiply_into_kernel,
    pointwise_multiply_kernel,
    reduce_add_stage_kernel,
    square_into_kernel,
    tree_reduce_sum,
    xmvp_pass_kernel,
)
from repro.exceptions import DeviceError
from repro.mutation import UniformMutation
from repro.transforms.butterfly import butterfly_transform_reference


class TestAlgorithm2IndexFormula:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**20), st.integers(0, 15))
    def test_bit_trick_equals_modulo_formula(self, item_id, log_i):
        """Paper's derivation: 2·ID − (ID & (i−1)) == 2·i·⌊ID/i⌋ + ID mod i
        for power-of-two i."""
        i = 1 << log_i
        lhs = 2 * item_id - (item_id & (i - 1))
        rhs = 2 * i * (item_id // i) + item_id % i
        assert lhs == rhs

    def test_indices_cover_lower_half_pairs(self):
        """Across one launch the work items touch each pair (j, j+i)
        exactly once — the disjointness OpenCL requires."""
        n, span = 64, 8
        touched = []
        for item in range(n // 2):
            j = 2 * item - (item & (span - 1))
            touched.extend([j, j + span])
        assert sorted(touched) == list(range(n))


class TestFmmpStageKernel:
    @pytest.mark.parametrize("nu", [3, 6])
    def test_full_stage_sweep_equals_q_apply(self, nu):
        """log₂N launches of the stage kernel == the uniform Q matvec."""
        p = 0.03
        mut = UniformMutation(nu, p)
        v0 = np.random.default_rng(nu).random(1 << nu)
        dev = Device(TESLA_C2050, validate=True)
        dev.alloc("v", 1 << nu)
        dev.to_device("v", v0)
        m = mut.factor()
        for s in range(nu):
            dev.launch(
                fmmp_stage_kernel,
                (1 << nu) // 2,
                {"span": 1 << s, "m00": m[0, 0], "m01": m[0, 1], "m10": m[1, 0], "m11": m[1, 1]},
            )
        np.testing.assert_allclose(dev.from_device("v"), mut.apply(v0), atol=1e-13)

    def test_single_stage_matches_host_butterfly(self):
        v0 = np.random.default_rng(1).random(32)
        m = np.array([[0.9, 0.1], [0.1, 0.9]])
        dev = Device(TESLA_C2050, validate=True)
        dev.alloc("v", 32)
        dev.to_device("v", v0)
        dev.launch(
            fmmp_stage_kernel,
            16,
            {"span": 4, "m00": m[0, 0], "m01": m[0, 1], "m10": m[1, 0], "m11": m[1, 1]},
        )
        # identity factors everywhere but bit 2 (span 4): one stage alone
        factors = [np.eye(2), np.eye(2), m, np.eye(2), np.eye(2)]
        np.testing.assert_allclose(
            dev.from_device("v"), butterfly_transform_reference(v0, factors), atol=1e-14
        )

    def test_missing_param_rejected(self):
        dev = Device(TESLA_C2050)
        dev.alloc("v", 8)
        with pytest.raises(DeviceError):
            dev.launch(fmmp_stage_kernel, 4, {"span": 1})

    def test_bad_span_rejected(self):
        dev = Device(TESLA_C2050)
        dev.alloc("v", 8)
        with pytest.raises(DeviceError):
            dev.launch(
                fmmp_stage_kernel, 4, {"span": 3, "m00": 1, "m01": 0, "m10": 0, "m11": 1}
            )


class TestElementwiseKernels:
    def _dev(self, **arrays):
        dev = Device(TESLA_C2050, validate=True)
        for name, arr in arrays.items():
            dev.alloc(name, len(arr))
            dev.to_device(name, np.asarray(arr, dtype=float))
        return dev

    def test_pointwise_multiply(self):
        dev = self._dev(v=[1, 2, 3, 4], f=[2, 2, 3, 3])
        dev.launch(pointwise_multiply_kernel, 4)
        np.testing.assert_array_equal(dev.from_device("v"), [2, 4, 9, 12])

    def test_multiply_into(self):
        dev = self._dev(dst=[0, 0], a=[2, 3], b=[4, 5])
        dev.launch(multiply_into_kernel, 2)
        np.testing.assert_array_equal(dev.from_device("dst"), [8, 15])

    def test_copy(self):
        dev = self._dev(dst=[0, 0, 0], src=[1, 2, 3])
        dev.launch(copy_kernel, 3)
        np.testing.assert_array_equal(dev.from_device("dst"), [1, 2, 3])

    def test_axpy(self):
        dev = self._dev(y=[1, 1], x=[2, 4])
        dev.launch(axpy_kernel, 2, {"alpha": 0.5})
        np.testing.assert_array_equal(dev.from_device("y"), [2, 3])

    def test_square_into(self):
        dev = self._dev(dst=[0, 0], src=[3, -4])
        dev.launch(square_into_kernel, 2)
        np.testing.assert_array_equal(dev.from_device("dst"), [9, 16])

    def test_diff_square_into(self):
        dev = self._dev(dst=[0, 0], a=[3, 1], b=[1, 4])
        dev.launch(diff_square_into_kernel, 2)
        np.testing.assert_array_equal(dev.from_device("dst"), [4, 9])

    def test_abs(self):
        dev = self._dev(dst=[0, 0], src=[-2, 5])
        dev.launch(abs_kernel, 2)
        np.testing.assert_array_equal(dev.from_device("dst"), [2, 5])


class TestReduction:
    def test_tree_reduce_sum(self):
        rng = np.random.default_rng(0)
        data = rng.random(128)
        dev = Device(TESLA_C2050, validate=True)
        dev.alloc("scratch", 128)
        dev.to_device("scratch", data)
        total = tree_reduce_sum(dev, "scratch", 128)
        assert total == pytest.approx(data.sum(), rel=1e-12)

    def test_single_stage_semantics(self):
        dev = Device(TESLA_C2050, validate=True)
        dev.alloc("v", 8)
        dev.to_device("v", np.arange(8, dtype=float))
        dev.launch(reduce_add_stage_kernel, 4, {"half": 4})
        np.testing.assert_array_equal(dev.from_device("v")[:4], [4, 6, 8, 10])

    def test_non_power_of_two_rejected(self):
        dev = Device(TESLA_C2050)
        dev.alloc("scratch", 8)
        with pytest.raises(DeviceError):
            tree_reduce_sum(dev, "scratch", 6)

    def test_launch_count_is_log2(self):
        dev = Device(TESLA_C2050)
        dev.alloc("scratch", 64)
        dev.to_device("scratch", np.ones(64))
        tree_reduce_sum(dev, "scratch", 64)
        assert dev.accounting.launches == 6


class TestXmvpPassKernel:
    def test_single_pass(self):
        w = np.arange(8, dtype=float)
        dev = Device(TESLA_C2050, validate=True)
        dev.alloc("acc", 8)
        dev.alloc("w", 8)
        dev.to_device("acc", np.zeros(8))
        dev.to_device("w", w)
        dev.launch(xmvp_pass_kernel, 8, {"mask": 0b101, "q": 2.0})
        expected = 2.0 * w[np.arange(8) ^ 0b101]
        np.testing.assert_array_equal(dev.from_device("acc"), expected)

    def test_negative_mask_rejected(self):
        dev = Device(TESLA_C2050)
        dev.alloc("acc", 4)
        dev.alloc("w", 4)
        with pytest.raises(DeviceError):
            dev.launch(xmvp_pass_kernel, 4, {"mask": -1, "q": 1.0})
