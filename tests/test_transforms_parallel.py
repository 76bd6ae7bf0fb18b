"""Panel-parallel butterfly engine tests.

The load-bearing contract: :func:`parallel_butterfly_transform` is
**bit-identical** to the serial stage-fused kernel for every panel
count ``R`` and thread count ``T`` — the partitioned schedule reorders
*which participant* touches which rows, never the arithmetic each row
sees.  A Hypothesis sweep drives the property over ``ν ∈ [2, 10]``,
all three eigenproblem forms and ``R ∈ {1, 2, 4}``; deterministic
tests pin down engine error handling, reducer determinism and the
keyed-LRU scratch pool under thread pressure.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
from repro.operators import Fmmp
from repro.transforms import batched_butterfly_transform
from repro.transforms.parallel import (
    PanelEngine,
    PanelReducer,
    get_engine,
    max_panels,
    parallel_butterfly_transform,
    resolve_panels,
    resolve_threads,
    shutdown_engines,
)
from repro.util.scratch import ScratchPool

common = settings(max_examples=15, deadline=None)


@pytest.fixture(scope="module", autouse=True)
def _teardown_engines():
    yield
    shutdown_engines()


def build_mutation(kind, nu, p, seed):
    if kind == "uniform":
        return UniformMutation(nu, p)
    if kind == "persite":
        rng = np.random.default_rng(seed)
        return PerSiteMutation.from_error_rates(rng.uniform(0.0, 0.4, nu))
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.1, 1.0, (4, 4))
    block /= block.sum(axis=0, keepdims=True)
    return GroupedMutation([block] + [site_factor(p) for _ in range(nu - 2)])


def form_scales(form, n, rng):
    """(pre, post) diagonal scalings matching the three Fmmp forms."""
    f = rng.uniform(0.5, 2.0, n)
    if form == "right":
        return f, None
    if form == "left":
        return None, f
    root = np.sqrt(f)
    return root, root


class TestBitIdentity:
    """Threaded == serial, to the last bit, for every (R, T)."""

    @common
    @given(
        st.integers(2, 10),
        st.floats(1e-4, 0.45),
        st.sampled_from(["uniform", "persite"]),
        st.sampled_from(["right", "symmetric", "left"]),
        st.sampled_from([1, 2, 4]),
        st.integers(0, 1_000),
    )
    def test_kernel_matches_serial_bitwise(self, nu, p, kind, form, panels, seed):
        mutation = build_mutation(kind, nu, p, seed)
        factors = mutation.factors_per_bit()
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 4))
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, b)))
        pre, post = form_scales(form, 1 << nu, rng)
        want = batched_butterfly_transform(
            block, factors, pre_scale=pre, post_scale=post
        )
        for threads in (1, 2):
            got = parallel_butterfly_transform(
                block,
                factors,
                pre_scale=pre,
                post_scale=post,
                panels=panels,
                engine=get_engine(threads),
            )
            assert np.array_equal(want, got), (
                f"bit mismatch at nu={nu} kind={kind} form={form} "
                f"R={panels} T={threads}"
            )

    @common
    @given(
        st.integers(2, 10),
        st.floats(1e-4, 0.45),
        st.sampled_from(["uniform", "persite", "grouped"]),
        st.sampled_from(["right", "symmetric", "left"]),
        st.sampled_from([1, 2, 4]),
        st.integers(0, 1_000),
    )
    def test_operator_matches_serial_bitwise(self, nu, p, kind, form, panels, seed):
        """Fmmp(threads=..., panels=R) == the panels=1 serial fused
        engine == the default Fmmp, bitwise, for every R.  Grouped
        models fall back to the serial path and satisfy the bitwise bar
        trivially."""
        mutation = build_mutation(kind, nu, p, seed)
        land = RandomLandscape(nu, c=4.0, sigma=1.0, seed=seed)
        rng = np.random.default_rng(seed + 1)
        v = rng.standard_normal(1 << nu)
        want = Fmmp(mutation, land, form=form, panels=1).matvec(v)
        got = Fmmp(mutation, land, form=form, threads=2, panels=panels).matvec(v)
        assert np.array_equal(want, got)
        assert np.array_equal(got, Fmmp(mutation, land, form=form).matvec(v))

    def test_eq10_variant_matches_serial_bitwise(self):
        nu = 7
        factors = UniformMutation(nu, 0.05).factors_per_bit()
        rng = np.random.default_rng(0)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 3)))
        want = batched_butterfly_transform(block, factors, variant="eq10")
        got = parallel_butterfly_transform(
            block, factors, variant="eq10", panels=4, engine=get_engine(2)
        )
        assert np.array_equal(want, got)

    def test_repeated_threaded_runs_are_byte_identical(self):
        """Determinism: same input, same panels — same bytes every run,
        regardless of thread count."""
        nu = 9
        factors = PerSiteMutation.from_error_rates(
            np.random.default_rng(1).uniform(0.0, 0.3, nu)
        ).factors_per_bit()
        rng = np.random.default_rng(2)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 2)))
        pre = rng.uniform(0.5, 2.0, 1 << nu)
        runs = [
            parallel_butterfly_transform(
                block, factors, pre_scale=pre, panels=4, engine=get_engine(t)
            )
            for t in (1, 2, 4, 2, 1)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0], other)

    def test_out_and_scratch_buffers_reused(self):
        nu = 6
        factors = UniformMutation(nu, 0.03).factors_per_bit()
        rng = np.random.default_rng(3)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 2)))
        out = np.empty_like(block)
        scratch = np.empty_like(block)
        got = parallel_butterfly_transform(
            block, factors, panels=2, engine=get_engine(2), out=out, scratch=scratch
        )
        assert got is out
        assert np.array_equal(got, batched_butterfly_transform(block, factors))

    def test_aliased_buffers_rejected(self):
        nu = 5
        factors = UniformMutation(nu, 0.03).factors_per_bit()
        block = np.zeros((1 << nu, 1))
        buf = np.empty_like(block)
        with pytest.raises(ValidationError, match="alias"):
            parallel_butterfly_transform(
                block, factors, panels=2, out=buf, scratch=buf
            )


class TestResolution:
    def test_resolve_panels_clamps_to_max(self):
        assert max_panels(2) == 1
        assert resolve_panels(4, 2, threads=4) == 1
        assert resolve_panels(None, 10, threads=3) == 4
        assert resolve_panels(None, 10, threads=1) == 1

    def test_resolve_panels_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError, match="power of two"):
            resolve_panels(3, 8)

    def test_resolve_threads_validates(self):
        assert resolve_threads(2) == 2
        with pytest.raises(ValidationError):
            resolve_threads(0)
        with pytest.raises(ValidationError):
            resolve_threads(True)


class TestPanelEngine:
    def test_worker_exception_propagates_and_engine_survives(self):
        eng = PanelEngine(2)
        try:

            def boom(t):
                if t == 1:
                    raise RuntimeError("worker died on purpose")
                eng.barrier_wait()

            with pytest.raises(RuntimeError, match="on purpose"):
                eng.run(boom)

            # The engine must be reusable after an abort.
            hits = []
            lock = threading.Lock()

            def ok(t):
                with lock:
                    hits.append(t)
                eng.barrier_wait()

            eng.run(ok)
            assert sorted(hits) == [0, 1]
        finally:
            eng.close()

    def test_caller_exception_propagates(self):
        eng = PanelEngine(2)
        try:

            def boom(t):
                if t == 0:
                    raise ValueError("caller died")
                eng.barrier_wait()

            with pytest.raises(ValueError, match="caller died"):
                eng.run(boom)
        finally:
            eng.close()

    def test_closed_engine_rejects_jobs(self):
        eng = PanelEngine(2)
        eng.close()
        eng.close()  # idempotent
        with pytest.raises(ValidationError, match="closed"):
            eng.run(lambda t: None)

    def test_single_thread_engine_is_a_plain_call(self):
        eng = PanelEngine(1)
        seen = []
        eng.run(seen.append)
        assert seen == [0]

    def test_get_engine_caches_per_thread_count(self):
        a = get_engine(2)
        assert get_engine(2) is a
        assert get_engine(3) is not a


class TestPanelReducer:
    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        red = PanelReducer(4)
        assert np.isclose(red.abs_sum(x), np.abs(x).sum())
        assert np.isclose(red.norm(x), np.linalg.norm(x))
        assert np.isclose(red.diff_norm(x, y), np.linalg.norm(x - y))
        assert np.isclose(red.dot(x, y), float(np.dot(x, y)))

    def test_2d_reduces_per_column(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 3))
        red = PanelReducer(2)
        np.testing.assert_allclose(red.abs_sum(x), np.abs(x).sum(axis=0))
        np.testing.assert_allclose(red.norm(x), np.linalg.norm(x, axis=0))

    def test_engine_and_serial_fill_are_byte_identical(self):
        """Same panels ⇒ same partials ⇒ same combined bytes, whether
        the workers or the caller computed them."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1 << 12)
        y = rng.standard_normal(1 << 12)
        serial = PanelReducer(4)
        threaded = PanelReducer(4, engine=get_engine(2))
        for name in ("abs_sum", "sq_sum", "norm"):
            assert getattr(serial, name)(x) == getattr(threaded, name)(x)
        assert serial.diff_norm(x, y) == threaded.diff_norm(x, y)
        assert serial.dot(x, y) == threaded.dot(x, y)

    def test_indivisible_length_rejected(self):
        red = PanelReducer(4)
        with pytest.raises(ValidationError, match="panels"):
            red.abs_sum(np.zeros(6))

    def test_bad_panel_counts_rejected(self):
        with pytest.raises(ValidationError):
            PanelReducer(3)
        with pytest.raises(ValidationError):
            PanelReducer(0)


class TestScratchPoolLRU:
    def test_keys_are_shape_and_dtype(self):
        pool = ScratchPool()
        a = pool.acquire((8,))
        b = pool.acquire((8,), dtype=np.float32)
        pool.release(a, b)
        assert pool.idle((8,)) == 1
        assert pool.idle((8,), dtype=np.float32) == 1
        assert pool.idle() == 2

    def test_max_idle_bounds_each_key(self):
        pool = ScratchPool(max_idle=2)
        arrays = [pool.acquire((4, 2)) for _ in range(5)]
        pool.release(*arrays)
        assert pool.idle((4, 2)) == 2

    def test_max_keys_evicts_lru_key(self):
        pool = ScratchPool(max_keys=2)
        for shape in ((2,), (3,), (4,)):
            pool.release(pool.acquire(shape))
        assert pool.idle((2,)) == 0  # LRU key evicted wholesale
        assert pool.idle((3,)) == 1
        assert pool.idle((4,)) == 1
        assert len(pool.keys) == 2

    def test_clear_drops_everything(self):
        pool = ScratchPool()
        pool.release(pool.acquire((4,)))
        pool.clear()
        assert pool.idle() == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            ScratchPool(max_idle=0)
        with pytest.raises(ValidationError):
            ScratchPool(max_keys=0)

    def test_threaded_stress_no_sharing(self):
        """Hammer one pool from 4 threads; no buffer may ever be handed
        to two owners at once, and idle counts stay bounded."""
        pool = ScratchPool(max_idle=4, max_keys=4)
        errors = []
        live_ids = set()
        lock = threading.Lock()

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    shape = (int(rng.integers(1, 4)) * 8,)
                    buf = pool.acquire(shape)
                    with lock:
                        assert id(buf) not in live_ids, "buffer double-issued"
                        live_ids.add(id(buf))
                    buf.fill(seed)
                    assert (buf == seed).all()
                    with lock:
                        live_ids.discard(id(buf))
                    pool.release(buf)
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.idle() <= 4 * 4
