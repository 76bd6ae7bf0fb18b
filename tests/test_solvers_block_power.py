"""Block power iteration: lock-step sweeps, per-column shifts, deflation,
the in-place working set and its memory admission."""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import UniformMutation
from repro.operators import Fmmp
from repro.operators.dense_w import convert_eigenvector
from repro.operators.shifted import ShiftedOperator, conservative_shift
from repro.service import SolveJob, WorkerPool, plan_batch, plan_batched_jobs
from repro.solvers import BlockPowerIteration, BlockSolveResult, PowerIteration
from repro.solvers import power as power_module
from repro.solvers.result import IterationRecord

NU = 6
P = 0.02


def make_operator(form="right", n_lands=3):
    mutation = UniformMutation(NU, P)
    lands = [
        SinglePeakLandscape(NU, f_peak=2.0),
        RandomLandscape(NU, c=4.0, sigma=1.0, seed=0),
        RandomLandscape(NU, c=4.0, sigma=1.0, seed=1),
    ][:n_lands]
    return Fmmp(mutation, lands, form=form), mutation, lands


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
        op = Fmmp(mutation, lands)
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

    def matmat(self, block, **kwargs):
        self.calls += 1
        y = self.op.matmat(block, columns=list(range(block.shape[1])), **kwargs)
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
        shared = Fmmp(mutation, land)
        with pytest.raises(ValidationError, match="starts"):
            BlockPowerIteration(shared).solve()
        # ... and works when given a block of starts:
        starts = np.repeat(land.start_vector()[:, None], 2, axis=1)
        block = BlockPowerIteration(shared, tol=1e-11).solve(starts)
        assert block.converged and len(block) == 2
        assert block[0].eigenvalue == pytest.approx(block[1].eigenvalue, rel=1e-12)


# ------------------------------------------------- in-place working set
def reference_block_power(op, starts, shifts, tol, record_history, lands, form):
    """The allocating lock-step loop that the in-place solver replaced:
    a fresh block for every product, shift, quotient and difference.
    Kept as the bitwise specification of ``BlockPowerIteration``."""
    per_column = getattr(op, "per_column", False)
    b = starts.shape[1]
    mu = np.zeros(b) if shifts is None else np.asarray(shifts, dtype=np.float64)
    x = np.ascontiguousarray(starts, dtype=np.float64).copy()
    x /= np.abs(x).sum(axis=0)[None, :]
    active = list(range(b))
    lam = np.zeros(b)
    residual = np.full(b, np.inf)
    iterations = np.zeros(b, dtype=int)
    final = [None] * b
    histories = [[] for _ in range(b)]
    sweeps = 0
    while active:
        sweeps += 1
        kwargs = {"columns": active} if per_column else {}
        y = op.matmat(x, **kwargs)
        mu_act = mu[active]
        if np.any(mu_act != 0.0):
            y = y - x * mu_act[None, :]
        lam_act = np.abs(y).sum(axis=0)
        y = y / lam_act[None, :]
        res_act = lam_act * np.linalg.norm(y - x, axis=0)
        if record_history:
            for k, j in enumerate(active):
                histories[j].append(
                    IterationRecord(sweeps, float(lam_act[k] + mu[j]), float(res_act[k]))
                )
        done = [k for k in range(len(active)) if res_act[k] < tol]
        for k, j in enumerate(active):
            lam[j], residual[j], iterations[j] = lam_act[k], res_act[k], sweeps
        if done:
            for k in done:
                final[active[k]] = y[:, k].copy()
            keep = [k for k in range(len(active)) if k not in set(done)]
            active = [active[k] for k in keep]
            x = np.ascontiguousarray(y[:, keep])
        else:
            x = y
    columns = []
    for j in range(b):
        v = np.abs(final[j])
        v /= v.sum()
        conc = convert_eigenvector(v, lands[j], form)
        columns.append(
            (float(lam[j] + mu[j]), v, conc, int(iterations[j]), float(residual[j]), histories[j])
        )
    return columns, sweeps


PIN_LANDS = [
    SinglePeakLandscape(NU, f_peak=8.0),
    SinglePeakLandscape(NU, f_peak=2.0),
    RandomLandscape(NU, c=5.0, sigma=2.0, seed=5),
    RandomLandscape(NU, c=4.0, sigma=1.0, seed=1),
]


def pin_problem(form, per_column, shifted):
    """A 4-column block whose columns converge at >= 3 distinct sweeps."""
    mutation = UniformMutation(NU, P)
    if per_column:
        op = Fmmp(mutation, PIN_LANDS, form=form)
        lands = PIN_LANDS
        starts = None
        shifts = [conservative_shift(mutation, land) for land in lands] if shifted else None
    else:
        land = PIN_LANDS[2]
        op = Fmmp(mutation, land, form=form)
        lands = [land] * 4
        rng = np.random.default_rng(0)
        starts = np.stack(
            [land.start_vector(), np.ones(op.n), rng.random(op.n) + 0.1,
             PIN_LANDS[0].start_vector()],
            axis=1,
        )
        base = conservative_shift(mutation, land)
        shifts = [base * c for c in (1.0, 0.5, 0.0, 0.9)] if shifted else None
    return op, starts, shifts, lands


class TestInPlaceWorkingSet:
    @pytest.mark.parametrize("record_history", [False, True])
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("per_column", [True, False])
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_bitwise_equal_to_allocating_loop(self, form, per_column, shifted, record_history):
        op, starts, shifts, lands = pin_problem(form, per_column, shifted)
        block = BlockPowerIteration(
            op, shifts=shifts, tol=1e-12, record_history=record_history
        ).solve(starts)
        if starts is None:
            starts = np.stack([land.start_vector() for land in lands], axis=1)
        expected, sweeps = reference_block_power(
            op, starts, shifts, 1e-12, record_history, lands, form
        )
        # at least two deflations leave columns still running
        assert len({its for _, _, _, its, _, _ in expected}) >= 3
        assert block.sweeps == sweeps
        for got, (eig, vec, conc, its, res, hist) in zip(block, expected):
            assert got.eigenvalue == eig
            assert got.eigenvector.tobytes() == vec.tobytes()
            assert got.concentrations.tobytes() == conc.tobytes()
            assert got.iterations == its
            assert got.residual == res
            assert got.history == hist

    def test_sweeps_reuse_out_and_scratch_between_deflations(self, monkeypatch):
        calls = []
        real = Fmmp.matmat

        def spy(self, block, **kwargs):
            calls.append((tuple(kwargs["columns"]), block, kwargs.get("out"), kwargs.get("scratch")))
            return real(self, block, **kwargs)

        monkeypatch.setattr(Fmmp, "matmat", spy)
        op, _, _, _ = pin_problem("right", per_column=True, shifted=False)
        BlockPowerIteration(op, tol=1e-12).solve()
        segments = {}
        for columns, block, out, scratch in calls:
            segments.setdefault(columns, []).append((block, out, scratch))
        assert len(segments) >= 3
        for sweeps in segments.values():
            first_scratch = sweeps[0][2]
            assert first_scratch is not None
            for k, (block, out, scratch) in enumerate(sweeps):
                assert out is not None and scratch is first_scratch
                # iterate and product swap roles: two blocks ping-pong
                if k:
                    assert block is sweeps[k - 1][1] and out is sweeps[k - 1][0]

    def test_scale_selection_built_once_per_active_set(self, monkeypatch):
        seen = {}
        real = Fmmp._scales

        def spy(self, columns):
            pre, post = real(self, columns)
            # keep the arrays alive so no two can share an id
            seen.setdefault(tuple(columns), []).extend(
                a for a in (pre, post) if a is not None
            )
            return pre, post

        monkeypatch.setattr(Fmmp, "_scales", spy)
        for form in ("right", "symmetric", "left"):
            seen.clear()
            op, _, _, _ = pin_problem(form, per_column=True, shifted=False)
            BlockPowerIteration(op, tol=1e-12).solve()
            assert len(seen) >= 3
            for scales in seen.values():
                assert all(a is scales[0] for a in scales)

    @pytest.mark.perf_smoke
    def test_peak_memory_follows_the_working_set(self):
        nu, b = 12, 8
        mutation = UniformMutation(nu, 0.01)
        lands = [SinglePeakLandscape(nu, f_peak=2.0 + k) for k in range(4)] + [
            RandomLandscape(nu, c=4.0, sigma=1.0, seed=k) for k in range(4)
        ]
        block_bytes = (1 << nu) * b * 8
        peaks = {}
        for tol in (1e-8, 1e-13):
            op = Fmmp(mutation, lands)
            tracemalloc.start()
            try:
                result = BlockPowerIteration(op, tol=tol).solve()
                peaks[tol] = tracemalloc.get_traced_memory()[1] / block_bytes
            finally:
                tracemalloc.stop()
            assert result.converged
            assert len({r.iterations for r in result}) >= 3  # deflation happened
        assert peaks[1e-8] <= 5.5 and peaks[1e-13] <= 5.5, peaks
        assert peaks[1e-13] <= peaks[1e-8] + 0.25, peaks


class TestMemoryAdmission:
    def test_oversized_block_rejected_before_any_sweep(self, monkeypatch):
        monkeypatch.setattr(power_module, "_physical_memory", lambda: 1 << 10)
        op, _, lands = make_operator()
        calls = []
        real = op.matmat
        monkeypatch.setattr(op, "matmat", lambda *a, **k: calls.append(1) or real(*a, **k))
        with pytest.raises(ValidationError, match=r"nu=6, B=3 needs \d+ bytes.*only 1024 bytes"):
            BlockPowerIteration(op, tol=1e-12).solve()
        assert calls == []
        # the same block fits once the probe reports enough memory
        monkeypatch.setattr(power_module, "_physical_memory", lambda: 1 << 30)
        assert BlockPowerIteration(op, tol=1e-12).solve().converged
        assert calls

    def test_unknown_memory_admits(self, monkeypatch):
        monkeypatch.setattr(power_module, "_physical_memory", lambda: None)
        op, _, _ = make_operator()
        assert BlockPowerIteration(op, tol=1e-12).solve().converged

    def test_pool_falls_back_to_scalar_routes(self, monkeypatch):
        monkeypatch.setattr(power_module, "_physical_memory", lambda: 1 << 10)
        jobs = [
            SolveJob(nu=NU, p=P, landscape="single-peak", peak=peak, method="power", tol=1e-10)
            for peak in (2.0, 3.0, 4.0)
        ]
        block = plan_batched_jobs(plan_batch(jobs))[0]
        outcomes = WorkerPool(kind="serial").run_batched(block)
        assert len(outcomes) == 3
        for result, tele in outcomes:
            assert result is not None and result.converged
            assert tele.fallback_used and tele.route != "batched-power"
            assert tele.failures[0].startswith("batched[B=3]: ValidationError")
            assert "needs" in tele.failures[0] and "physical memory" in tele.failures[0]
