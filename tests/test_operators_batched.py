"""Batched multi-vector operator tests.

The load-bearing property: for every mutation model, eigenproblem form
and stage order, :meth:`Fmmp.matmat` on an ``(N, B)`` block is
bit-for-bit-tolerance equal to stacking the scalar :meth:`Fmmp.matvec`
column by column.  A Hypothesis sweep drives the property over
``ν ∈ [2, 10]``; deterministic tests cover the per-column landscape
mode, column subsetting, and the thread-safety of the scalar operator's
scratch pool.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
from repro.operators import Fmmp, Smvp
from repro.util.scratch import ScratchPool

common = settings(max_examples=12, deadline=None)


def build_mutation(kind, nu, p, seed):
    if kind == "uniform":
        return UniformMutation(nu, p)
    if kind == "persite":
        rng = np.random.default_rng(seed)
        return PerSiteMutation.from_error_rates(rng.uniform(0.0, 0.4, nu))
    if nu == 1:
        return GroupedMutation([site_factor(p)])
    # grouped: one 4-dim stochastic block plus 2x2 site factors
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.1, 1.0, (4, 4))
    block /= block.sum(axis=0, keepdims=True)
    blocks = [block] + [site_factor(p) for _ in range(nu - 2)]
    return GroupedMutation(blocks)


class TestBatchedMatchesScalar:
    """Hypothesis sweep: matmat == column-stacked matvec, all models/forms."""

    @common
    @given(
        st.integers(2, 10),
        st.floats(1e-4, 0.45),
        st.sampled_from(["uniform", "persite", "grouped"]),
        st.sampled_from(["right", "symmetric", "left"]),
        st.integers(0, 1_000),
    )
    def test_matmat_equals_stacked_matvec(self, nu, p, kind, form, seed):
        mutation = build_mutation(kind, nu, p, seed)
        rng = np.random.default_rng(seed + 1)
        b = int(rng.integers(1, 5))
        lands = [
            RandomLandscape(nu, c=4.0, sigma=1.0, seed=seed + j) for j in range(b)
        ]
        batched = Fmmp(mutation, lands, form=form)
        block = rng.standard_normal((1 << nu, b))
        got = batched.matmat(block)
        want = np.stack(
            [
                Fmmp(mutation, lands[j], form=form).matvec(block[:, j])
                for j in range(b)
            ],
            axis=1,
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    @common
    @given(st.integers(2, 8), st.floats(1e-4, 0.45), st.sampled_from(["eq9", "eq10"]))
    def test_variants_match_scalar(self, nu, p, variant):
        mutation = UniformMutation(nu, p)
        land = SinglePeakLandscape(nu, f_peak=3.0)
        batched = Fmmp(mutation, land, variant=variant)
        rng = np.random.default_rng(nu)
        block = rng.standard_normal((1 << nu, 3))
        got = batched.matmat(block)
        scalar = Fmmp(mutation, land, variant=variant)
        for j in range(3):
            np.testing.assert_allclose(
                got[:, j], scalar.matvec(block[:, j]), rtol=1e-12, atol=1e-13
            )


class TestOneOperatorFold:
    """matvec is exactly the one-column matmat, in both modes."""

    @pytest.mark.parametrize("kind", ["uniform", "persite", "grouped"])
    @pytest.mark.parametrize("nu", range(1, 12))
    def test_matvec_is_the_one_column_matmat(self, nu, kind):
        mutation = build_mutation(kind, nu, 0.03, seed=nu)
        lands = [RandomLandscape(nu, c=4.0, sigma=1.0, seed=nu + j) for j in range(3)]
        v = np.random.default_rng(nu).standard_normal(1 << nu)
        for form in ("right", "symmetric", "left"):
            for variant in ("eq9", "eq10"):
                per_column = Fmmp(mutation, lands, form=form, variant=variant)
                for j, land in enumerate(lands):
                    shared = Fmmp(mutation, land, form=form, variant=variant)
                    want = shared.matvec(v)
                    assert np.array_equal(
                        want, per_column.matmat(v[:, None], columns=[j])[:, 0]
                    )
                    assert np.array_equal(want, shared.matmat(v[:, None])[:, 0])


class TestBadInput:
    """Bad landscapes and column indices fail with a named error."""

    def setup_method(self):
        self.nu = 4
        self.mutation = UniformMutation(self.nu, 0.05)
        self.lands = [RandomLandscape(self.nu, seed=s) for s in range(3)]

    @pytest.mark.parametrize(
        "landscape, where",
        [
            (np.ones(16), "landscape must be"),
            ("single-peak", "landscape must be"),
            (None, "landscape must be"),
            ([SinglePeakLandscape(4), None], r"landscape\[1\]"),
            ([np.ones(16)], r"landscape\[0\]"),
        ],
    )
    def test_landscape_that_is_not_a_landscape(self, landscape, where):
        with pytest.raises(ValidationError, match=where):
            Fmmp(self.mutation, landscape)

    @pytest.mark.parametrize("columns", [[3], [0, 3], [-1], [2, -3]])
    def test_column_out_of_range(self, columns):
        op = Fmmp(self.mutation, self.lands)
        block = np.ones((op.n, len(columns)))
        with pytest.raises(ValidationError, match="out of range"):
            op.matmat(block, columns=columns)

    @pytest.mark.parametrize("column", [3, -1])
    def test_matvec_column_out_of_range(self, column):
        op = Fmmp(self.mutation, self.lands)
        with pytest.raises(ValidationError, match="out of range"):
            op.matvec(np.ones(op.n), column=column)

    def test_shared_matvec_has_only_column_0(self):
        op = Fmmp(self.mutation, self.lands[0])
        with pytest.raises(ValidationError, match="single column 0"):
            op.matvec(np.ones(op.n), column=1)


class TestPerColumnMode:
    def setup_method(self):
        self.nu = 5
        self.mutation = UniformMutation(self.nu, 0.03)
        self.lands = [
            SinglePeakLandscape(self.nu, f_peak=2.0),
            RandomLandscape(self.nu, c=4.0, sigma=1.0, seed=0),
            RandomLandscape(self.nu, c=4.0, sigma=1.0, seed=1),
        ]
        self.op = Fmmp(self.mutation, self.lands, form="right")

    def test_batch_and_flags(self):
        assert self.op.batch == 3
        assert self.op.per_column
        shared = Fmmp(self.mutation, self.lands[0])
        assert shared.batch == 1 and not shared.per_column

    def test_each_column_uses_its_own_landscape(self):
        rng = np.random.default_rng(2)
        block = rng.standard_normal((self.op.n, 3))
        got = self.op.matmat(block)
        for j, land in enumerate(self.lands):
            want = Fmmp(self.mutation, land).matvec(block[:, j])
            np.testing.assert_allclose(got[:, j], want, rtol=1e-12, atol=1e-13)

    def test_column_subsetting_after_deflation(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((self.op.n, 2))
        got = self.op.matmat(block, columns=[2, 0])
        np.testing.assert_allclose(
            got[:, 0], Fmmp(self.mutation, self.lands[2]).matvec(block[:, 0])
        )
        np.testing.assert_allclose(
            got[:, 1], Fmmp(self.mutation, self.lands[0]).matvec(block[:, 1])
        )

    def test_matvec_selects_a_column(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(self.op.n)
        np.testing.assert_allclose(
            self.op.matvec(v, column=1),
            Fmmp(self.mutation, self.lands[1]).matvec(v),
            rtol=1e-12,
        )

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="columns"):
            self.op.matmat(np.zeros((self.op.n, 2)))

    def test_columns_kwarg_rejected_in_shared_mode(self):
        shared = Fmmp(self.mutation, self.lands[0])
        with pytest.raises(ValidationError, match="per-column"):
            shared.matmat(np.zeros((shared.n, 1)), columns=[0])

    def test_landscape_nu_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="nu"):
            Fmmp(self.mutation, [SinglePeakLandscape(self.nu + 1)])

    def test_empty_landscape_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            Fmmp(self.mutation, [])

    def test_buffer_reuse_matches_fresh_allocation(self):
        rng = np.random.default_rng(5)
        block = rng.standard_normal((self.op.n, 3))
        out = np.empty_like(block)
        scratch = np.empty_like(block)
        got = self.op.matmat(block, out=out, scratch=scratch)
        assert got is out
        np.testing.assert_array_equal(got, self.op.matmat(block))


class TestDefaultMatmat:
    """The base-class matmat loops matvec — every operator gains it
    (Smvp); Fmmp's fused matmat keeps the same contract."""

    def test_base_matmat_loops_matvec(self):
        mutation = UniformMutation(4, 0.05)
        land = SinglePeakLandscape(4)
        for op in (Smvp(mutation, land), Fmmp(mutation, land)):
            rng = np.random.default_rng(6)
            block = rng.standard_normal((16, 3))
            got = op.matmat(block)
            want = np.stack([op.matvec(block[:, j]) for j in range(3)], axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_base_matmat_validates_shape(self):
        mutation, land = UniformMutation(3, 0.1), SinglePeakLandscape(3)
        for op in (Smvp(mutation, land), Fmmp(mutation, land)):
            with pytest.raises(ValidationError):
                op.matmat(np.zeros(8))
            with pytest.raises(ValidationError):
                op.matmat(np.zeros((7, 2)))

    def test_base_matmat_empty_block(self):
        mutation, land = UniformMutation(3, 0.1), SinglePeakLandscape(3)
        for op in (Smvp(mutation, land), Fmmp(mutation, land)):
            out = op.matmat(np.zeros((8, 0)))
            assert out.shape == (8, 0)
            buf = np.empty((8, 0))
            assert op.matmat(np.zeros((8, 0)), out=buf) is buf
        per_column = Fmmp(mutation, [land, land])
        buf = np.empty((8, 0))
        assert per_column.matmat(np.zeros((8, 0)), columns=[], out=buf) is buf


class TestScratchPoolThreadSafety:
    """Regression: Fmmp._scratch used to be a shared pair of buffers, so
    concurrent matvec calls on one operator corrupted each other."""

    def test_pool_acquire_release_cycle(self):
        pool = ScratchPool()
        a = pool.acquire((8,))
        b = pool.acquire((8,))
        assert a.shape == (8,) and b.shape == (8,)
        assert pool.idle((8,)) == 0
        pool.release(a, b)
        assert pool.idle((8,)) == 2
        assert pool.acquire((8,)) is b  # LIFO reuse, no realloc
        assert pool.acquire((8,)) is a

    def test_pool_bounds_idle_buffers(self):
        pool = ScratchPool(max_idle=2)
        arrays = [pool.acquire((4,)) for _ in range(5)]
        pool.release(*arrays)
        assert pool.idle((4,)) == 2

    def test_concurrent_matvec_is_correct(self):
        nu = 9
        mutation = UniformMutation(nu, 0.02)
        land = RandomLandscape(nu, c=4.0, sigma=1.0, seed=0)
        op = Fmmp(mutation, land)
        rng = np.random.default_rng(7)
        vecs = [rng.standard_normal(1 << nu) for _ in range(8)]
        expected = [op.matvec(v) for v in vecs]

        results = [[None] * len(vecs) for _ in range(4)]
        errors = []

        def worker(tid):
            try:
                for rep in range(5):
                    for i, v in enumerate(vecs):
                        results[tid][i] = op.matvec(v)
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for tid in range(4):
            for i in range(len(vecs)):
                np.testing.assert_allclose(
                    results[tid][i], expected[i], rtol=1e-12, atol=1e-14
                )
