"""Fault-tolerant worker pool: timeouts, retries, graceful degradation.

The pool turns one :class:`~repro.service.jobspec.SolveJob` into one
:class:`~repro.service.jobspec.JobResult`, surviving the failure modes a
serving backend actually sees:

* **Per-job timeouts** — each attempt gets a wall-clock budget
  (``thread``/``process`` executors; a timed-out thread attempt is
  abandoned, a timed-out process attempt's worker is left to the
  executor to recycle).
* **Bounded retries with backoff** — transient failures (a poisoned
  worker, a flaky allocation) are retried up to ``retries`` times per
  route with exponentially growing backoff.
* **Graceful degradation** — when a route keeps failing, the pool walks
  a structural fallback chain (e.g. ``shift-invert`` → shifted power →
  plain power → dense for small ν) so a job completes whenever *any*
  applicable route can, with the failure named in the telemetry.
* **Structured telemetry** — queue time, solve time, iterations,
  attempts, named failures, and the route that finally served the job.

Workers share operator construction within a scheduler group through a
per-process build memo: the first job of a group pays for the mutation
Q-factor tables / FWHT plan, subsequent jobs in the same group reuse
them.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.service.jobspec import JobResult, SolveJob

__all__ = [
    "MAX_DENSE_NU",
    "JobTelemetry",
    "WorkerPool",
    "execute_job",
    "execute_batched_job",
    "fallback_routes",
]

#: largest chain length for which the dense fallback route is allowed
MAX_DENSE_NU = 10

_POOL_KINDS = ("serial", "thread", "process")

#: per-process memo of built (mutation, landscape) pairs, keyed by the
#: job's problem hash — realizes the scheduler's operator sharing.
_BUILD_MEMO: dict[str, tuple] = {}
_BUILD_MEMO_CAP = 32


@dataclass
class JobTelemetry:
    """Structured per-job execution record.

    ``status`` is ``"solved"`` (a worker produced the result),
    ``"cached"`` (the service answered from the result cache) or
    ``"failed"`` (every route in the fallback chain failed — the named
    failures are in ``failures``).

    ``batch`` is the block width the job was solved in: 1 for a scalar
    solve, B > 1 when the job rode a batched
    :class:`~repro.service.scheduler.BatchedSolveJob` (its
    ``solve_seconds`` is then the whole block's wall-clock divided by
    B — the amortized per-column cost).
    """

    key: str
    label: str
    status: str = "solved"
    route: str = ""
    attempts: int = 0
    failures: list[str] = field(default_factory=list)
    fallback_used: bool = False
    queue_seconds: float = 0.0
    solve_seconds: float = 0.0
    iterations: int = 0
    cache: str = "miss"
    batch: int = 1

    @classmethod
    def cached(cls, job: SolveJob, status: str) -> "JobTelemetry":
        """Telemetry for a cache-served job (no worker involved)."""
        return cls(
            key=job.cache_key(),
            label=job.label(),
            status="cached",
            route="cache",
            cache=status,
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "status": self.status,
            "route": self.route,
            "attempts": self.attempts,
            "failures": list(self.failures),
            "fallback_used": self.fallback_used,
            "queue_seconds": self.queue_seconds,
            "solve_seconds": self.solve_seconds,
            "iterations": self.iterations,
            "cache": self.cache,
            "batch": self.batch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobTelemetry":
        return cls(**data)


# ------------------------------------------------------------ execution
def _route_label(job: SolveJob) -> str:
    method = job.method if job.method != "auto" else f"auto->{job.resolved_method()}"
    return method


def fallback_routes(job: SolveJob) -> list[SolveJob]:
    """The degradation chain for ``job``: requested route first, then
    progressively simpler structurally-applicable routes.

    The chain (deduplicated by method) is

    1. the requested route,
    2. the shifted power iteration (uniform mutation only — the
       paper's default accelerated route),
    3. the plain power iteration (always applicable),
    4. the dense eigendecomposition for ν ≤ :data:`MAX_DENSE_NU`.

    Reduced jobs stay reduced: the (ν+1) route is exact and has no
    cheaper fallback, so only the dense *reduced-size* path behind
    :class:`~repro.solvers.reduced.ReducedSolver` applies.
    """
    chain = [job]
    if job.resolved_method() == "reduced":
        return chain
    seen = {job.method}

    def add(**changes) -> None:
        candidate = job.with_(**changes)
        if candidate.method not in seen:
            seen.add(candidate.method)
            chain.append(candidate)

    if job.mutation == "uniform" and job.p != 0.0:
        add(method="power", operator="fmmp", form="right", shift=True, dmax=None)
    # a "power" entry above shadows this one via the method dedup, so
    # force the plain variant through a distinct method check
    plain = job.with_(method="power", operator="fmmp", form="right", shift=False, dmax=None)
    if all(not _same_route(plain, c) for c in chain):
        chain.append(plain)
    if job.nu <= MAX_DENSE_NU:
        add(method="dense", operator="fmmp", form="right", shift=False, dmax=None)
    return chain


def _same_route(a: SolveJob, b: SolveJob) -> bool:
    return (
        a.method == b.method
        and a.operator == b.operator
        and a.form == b.form
        and a.shift == b.shift
        and a.dmax == b.dmax
    )


def _built(job: SolveJob):
    """(mutation, landscape) for ``job``, via the per-process memo."""
    key = job.operator_key() + ":" + job.cache_key()
    hit = _BUILD_MEMO.get(key)
    if hit is None:
        hit = (job.build_mutation(), job.build_landscape())
        if len(_BUILD_MEMO) >= _BUILD_MEMO_CAP:
            _BUILD_MEMO.pop(next(iter(_BUILD_MEMO)))
        _BUILD_MEMO[key] = hit
    return hit


def _result_gamma(res, nu: int) -> np.ndarray:
    """Error-class concentrations from any route's result object."""
    from repro.model.concentrations import class_concentrations
    from repro.solvers.kron_solver import KroneckerSolveResult

    if isinstance(res, KroneckerSolveResult):
        return res.eigenvector.class_concentrations()
    conc = np.asarray(res.concentrations)
    if conc.shape[0] == nu + 1:
        return conc
    return class_concentrations(conc, nu)


def _solve_shift_invert(job: SolveJob) -> JobResult:
    from repro.model.concentrations import class_concentrations
    from repro.operators.dense_w import convert_eigenvector
    from repro.operators.fmmp import Fmmp
    from repro.solvers.shift_invert import cg_inverse_iteration

    mutation, landscape = _built(job)
    if not mutation.is_symmetric:
        raise ValidationError(
            "shift-invert (CG inverse iteration) needs the symmetric form, "
            "which exists only for symmetric mutation models"
        )
    op = Fmmp(mutation, landscape, form="symmetric")
    res = cg_inverse_iteration(
        op,
        start=np.sqrt(landscape.values()),
        mu=landscape.fmax * 1.05,
        tol=max(job.tol, 1e-13),
        max_outer=min(job.max_iterations, 200),
    )
    conc = convert_eigenvector(res.eigenvector, landscape, "symmetric")
    return JobResult(
        eigenvalue=float(res.eigenvalue),
        concentrations=class_concentrations(conc, job.nu),
        method=res.method,
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
        tol=job.tol,
    )


def execute_job(job: SolveJob, *, threads: int | None = None) -> JobResult:
    """Solve one job synchronously (the pool's default worker body).

    Module-level and picklable, so it crosses process boundaries; the
    reduced route reproduces
    :class:`~repro.solvers.reduced.ReducedSolver` output bit-for-bit
    (the parallel sweep's regression tests rely on it).

    ``threads`` (pool-level, **not** part of the job's content hash —
    thread count must never change what a job computes, only how fast)
    turns on the panel-parallel butterfly for the iterative fmmp
    routes.  Bound via ``functools.partial`` so the partial still
    pickles into process workers.
    """
    from repro.model.quasispecies import QuasispeciesModel
    from repro.solvers.reduced import ReducedSolver

    method = job.resolved_method()
    if method == "reduced":
        if job.landscape == "hamming":
            target = np.asarray(job.class_values, dtype=np.float64)
        else:
            target = job.build_landscape()
        res = ReducedSolver(job.nu, float(job.p), target).solve()
        return JobResult(
            eigenvalue=float(res.eigenvalue),
            concentrations=res.concentrations,
            method=res.method,
            iterations=res.iterations,
            residual=res.residual,
            converged=res.converged,
            tol=job.tol,
        )
    if method == "shift-invert":
        return _solve_shift_invert(job)

    mutation, landscape = _built(job)
    model = QuasispeciesModel(landscape, mutation)
    res = model.solve(
        job.method,
        operator=job.operator,
        form=job.form,
        dmax=job.dmax,
        tol=job.tol,
        shift=job.shift,
        max_iterations=job.max_iterations,
        threads=threads,
    )
    return JobResult(
        eigenvalue=float(res.eigenvalue),
        concentrations=_result_gamma(res, job.nu),
        method=getattr(res, "method", method),
        iterations=int(getattr(res, "iterations", 0)),
        residual=float(getattr(res, "residual", 0.0)),
        converged=bool(getattr(res, "converged", True)),
        tol=job.tol,
    )


def _effective_shift(job: SolveJob, mutation, landscape) -> float:
    """The shift μ the scalar route would apply to ``job``.

    Mirrors :meth:`repro.model.quasispecies.QuasispeciesModel.solve`
    exactly: ``auto`` implies the conservative shift for non-degenerate
    uniform problems; ``shift=True`` demands the uniform formula; a
    float is used verbatim.
    """
    from repro.mutation.uniform import UniformMutation
    from repro.operators.shifted import conservative_shift

    shift = job.shift
    if job.method == "auto" and shift is False and isinstance(mutation, UniformMutation):
        degenerate = mutation.p == 0.0 and landscape.fmin == landscape.fmax
        if not degenerate:
            shift = True
    if shift is False:
        return 0.0
    if shift is True:
        if not isinstance(mutation, UniformMutation):
            raise ValidationError(
                "the conservative shift formula needs the uniform model; "
                "pass an explicit float shift instead"
            )
        return conservative_shift(mutation, landscape)
    return float(shift)


def execute_batched_job(bjob, *, threads: int | None = None) -> list:
    """Solve a :class:`~repro.service.scheduler.BatchedSolveJob`.

    Builds the shared mutation operator once, stacks the per-job
    landscapes into one per-column :class:`~repro.operators.fmmp.Fmmp`,
    and runs the lock-step
    :class:`~repro.solvers.power.BlockPowerIteration` with per-column
    shifts.  Returns one :class:`~repro.service.jobspec.JobResult` per
    member job, in order.  Module-level and picklable.
    """
    from repro.model.concentrations import class_concentrations
    from repro.operators.fmmp import Fmmp
    from repro.solvers.power import BlockPowerIteration

    jobs = list(bjob.jobs)
    if not jobs:
        raise ValidationError("batched job has no members")
    mutation = jobs[0].build_mutation()
    landscapes = [job.build_landscape() for job in jobs]
    shifts = np.array(
        [_effective_shift(job, mutation, land) for job, land in zip(jobs, landscapes)]
    )
    op = Fmmp(mutation, landscapes, form=bjob.form, threads=threads)
    solver = BlockPowerIteration(
        op,
        shifts=shifts,
        tol=bjob.tol,
        max_iterations=bjob.max_iterations,
    )
    shifted_any = bool(np.any(shifts != 0.0))
    label = "BPi(Fmmp, shifted)" if shifted_any else "BPi(Fmmp)"
    block = solver.solve(raise_on_fail=False, method_name=label)
    results = []
    for job, res in zip(jobs, block.columns):
        results.append(
            JobResult(
                eigenvalue=float(res.eigenvalue),
                concentrations=class_concentrations(res.concentrations, job.nu),
                method=res.method,
                iterations=int(res.iterations),
                residual=float(res.residual),
                converged=bool(res.converged),
                tol=job.tol,
            )
        )
    return results


def _timed_call(fn, job):
    """Worker wrapper measuring start/end stamps (module-level so it
    pickles into process workers)."""
    t0 = time.perf_counter()
    result = fn(job)
    return result, t0, time.perf_counter()


# ----------------------------------------------------------------- pool
@dataclass
class _JobState:
    job: SolveJob
    routes: list[SolveJob]
    route_idx: int = 0
    attempt: int = 0
    telemetry: JobTelemetry = None  # set in __post_init__

    def __post_init__(self) -> None:
        self.telemetry = JobTelemetry(key=self.job.cache_key(), label=self.job.label())

    @property
    def current(self) -> SolveJob:
        return self.routes[self.route_idx]

    def record_failure(self, message: str, retries: int) -> bool:
        """Advance retry/fallback state; returns True when exhausted.

        ``retries`` is the per-route retry budget — pass 0 for
        structural errors (retrying a :class:`ValidationError` cannot
        succeed; fall straight through to the next route).
        """
        self.telemetry.failures.append(f"{_route_label(self.current)}: {message}")
        self.attempt += 1
        if self.attempt > retries:
            self.route_idx += 1
            self.attempt = 0
        return self.route_idx >= len(self.routes)

    def finish(self, result_tuple, submit_time: float) -> JobResult:
        result, t_start, t_end = result_tuple
        tele = self.telemetry
        tele.status = "solved"
        tele.route = _route_label(self.current)
        tele.fallback_used = self.route_idx > 0
        tele.queue_seconds = max(0.0, t_start - submit_time)
        tele.solve_seconds = t_end - t_start
        tele.iterations = result.iterations
        return result

    def fail(self) -> None:
        self.telemetry.status = "failed"
        self.telemetry.route = ""


class WorkerPool:
    """Execute solve jobs with retries, timeouts and fallback routes.

    Parameters
    ----------
    workers:
        Worker count (default ``os.cpu_count()``, capped at the batch
        size).
    kind:
        ``"thread"`` (default; LAPACK/BLAS release the GIL), ``"process"``
        (full isolation — required for hard timeout enforcement), or
        ``"serial"`` (in-line, deterministic; timeouts not enforced).
    timeout:
        Per-attempt wall-clock budget in seconds (``None`` = unlimited).
    retries:
        Extra attempts per route before falling back (0 = no retry).
    backoff:
        Base backoff in seconds; wave ``k`` of retries sleeps
        ``backoff·2^k`` (capped at 1 s).
    solve_fn:
        Worker body override — used by fault-injection tests and by
        any deployment that wraps :func:`execute_job` (must be
        picklable for ``kind="process"``).
    batched_solve_fn:
        Override for the batched-block worker body (defaults to
        :func:`execute_batched_job`); fault-injection tests use it to
        exercise the batched → scalar degradation path.
    threads:
        Panel-engine threads per worker (``None`` →
        ``REPRO_NUM_THREADS`` or 1).  Bound into the default worker
        bodies with ``functools.partial`` — the thread count is an
        execution knob, never part of a job's content hash.  When
        ``threads > 1`` the effective worker count is capped at
        ``cpu_count // threads`` (at least 1) so pool workers × engine
        threads never oversubscribe the host.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        kind: str = "thread",
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
        solve_fn=None,
        batched_solve_fn=None,
        threads: int | None = None,
    ):
        if kind not in _POOL_KINDS:
            raise ValidationError(f"kind must be one of {_POOL_KINDS}, got {kind!r}")
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValidationError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {timeout}")
        from repro.transforms.parallel import resolve_threads

        self.workers = workers
        self.kind = kind
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.threads = resolve_threads(threads)
        if solve_fn is None and self.threads > 1:
            solve_fn = functools.partial(execute_job, threads=self.threads)
        if batched_solve_fn is None and self.threads > 1:
            batched_solve_fn = functools.partial(
                execute_batched_job, threads=self.threads
            )
        self.solve_fn = solve_fn or execute_job
        self.batched_solve_fn = batched_solve_fn or execute_batched_job

    def effective_workers(self, n_jobs: int) -> int:
        """Worker count for ``n_jobs``: the requested (or cpu_count)
        figure, capped at the job count and — when each worker drives a
        multi-threaded panel engine — at ``cpu_count // threads`` so
        the pool never oversubscribes the host."""
        cpus = os.cpu_count() or 1
        workers = min(n_jobs, self.workers or cpus)
        if self.threads > 1:
            workers = min(workers, max(1, cpus // self.threads))
        return max(1, workers)

    # ----------------------------------------------------------------- run
    def run(self, jobs: list[SolveJob]) -> list[tuple[JobResult | None, JobTelemetry]]:
        """Solve ``jobs``; returns aligned ``(result, telemetry)`` pairs.

        A ``None`` result means every route failed; the telemetry names
        each failure.
        """
        states = [_JobState(job, fallback_routes(job)) for job in jobs]
        if not states:
            return []
        workers = self.effective_workers(len(states))
        if self.kind == "serial" or workers == 1:
            return [self._run_serial(state) for state in states]
        return self._run_executor(states, workers)

    # ------------------------------------------------------------- batched
    def run_batched(self, bjob) -> list[tuple[JobResult | None, JobTelemetry]]:
        """Execute one :class:`~repro.service.scheduler.BatchedSolveJob`.

        The whole block rides a single
        :class:`~repro.solvers.power.BlockPowerIteration` stream; the
        returned ``(result, telemetry)`` pairs align with
        ``bjob.jobs``.  Degradation is per *failure scope*:

        * the block itself raising (bad build, kernel error) falls back
          to scalar :meth:`run` for **every** member — each telemetry
          names the block failure and ``fallback_used`` is set;
        * individual unconverged columns fall back to the scalar route
          chain for **those columns only** — the converged columns keep
          their batched results.
        """
        jobs = list(bjob.jobs)
        b = len(jobs)
        t0 = time.perf_counter()
        try:
            results = self.batched_solve_fn(bjob)
            if len(results) != b:
                raise ValidationError(
                    f"batched worker returned {len(results)} results for {b} jobs"
                )
        except Exception as exc:  # noqa: BLE001 - block falls back to scalar
            note = f"batched[B={b}]: {type(exc).__name__}: {exc}"
            outcomes = self.run(jobs)
            for _, tele in outcomes:
                tele.failures.insert(0, note)
                tele.fallback_used = True
            return outcomes
        elapsed = time.perf_counter() - t0

        outcomes: list[tuple[JobResult | None, JobTelemetry] | None] = [None] * b
        pending: list[int] = []
        for k, (job, result) in enumerate(zip(jobs, results)):
            if not result.converged:
                pending.append(k)
                continue
            tele = JobTelemetry(
                key=job.cache_key(),
                label=job.label(),
                status="solved",
                route="batched-power",
                attempts=1,
                solve_seconds=elapsed / b,
                iterations=result.iterations,
                batch=b,
            )
            outcomes[k] = (result, tele)
        if pending:
            note = (
                f"batched-power: column did not converge within "
                f"{bjob.max_iterations} sweeps"
            )
            scalar = self.run([jobs[k] for k in pending])
            for k, (result, tele) in zip(pending, scalar):
                tele.failures.insert(0, note)
                tele.fallback_used = True
                outcomes[k] = (result, tele)
        return outcomes

    # -------------------------------------------------------------- serial
    def _run_serial(self, state: _JobState) -> tuple[JobResult | None, JobTelemetry]:
        wave = 0
        while True:
            state.telemetry.attempts += 1
            submit = time.perf_counter()
            try:
                out = _timed_call(self.solve_fn, state.current)
            except Exception as exc:  # noqa: BLE001 - a failing route falls back
                budget = 0 if isinstance(exc, ValidationError) else self.retries
                exhausted = state.record_failure(f"{type(exc).__name__}: {exc}", budget)
                if exhausted:
                    state.fail()
                    return None, state.telemetry
                time.sleep(min(1.0, self.backoff * (2**wave)))
                wave += 1
                continue
            return state.finish(out, submit), state.telemetry

    # ------------------------------------------------------------ executor
    def _run_executor(
        self, states: list[_JobState], workers: int
    ) -> list[tuple[JobResult | None, JobTelemetry]]:
        outcomes: list[tuple[JobResult | None, JobTelemetry]] = [None] * len(states)
        active = list(range(len(states)))
        wave = 0
        if self.kind == "thread":
            executor = ThreadPoolExecutor(max_workers=workers)
        else:
            # Process workers pin their BLAS pools to one thread on
            # startup: the pool (and, with threads > 1, each worker's
            # panel engine) owns the parallelism — nested BLAS teams
            # would oversubscribe the host (see repro.util.blas).
            from repro.util.blas import pin_blas_env

            executor = ProcessPoolExecutor(
                max_workers=workers, initializer=pin_blas_env
            )
        with executor as pool:
            while active:
                submissions = []
                for i in active:
                    states[i].telemetry.attempts += 1
                    fut = pool.submit(_timed_call, self.solve_fn, states[i].current)
                    submissions.append((i, fut, time.perf_counter()))
                retry_wave = []
                for i, fut, submitted in submissions:
                    state = states[i]
                    try:
                        if self.timeout is None:
                            out = fut.result()
                        else:
                            remaining = max(0.0, submitted + self.timeout - time.perf_counter())
                            out = fut.result(timeout=remaining)
                    except FutureTimeoutError:
                        fut.cancel()
                        if state.record_failure(
                            f"TimeoutError: exceeded {self.timeout:g}s budget", self.retries
                        ):
                            state.fail()
                            outcomes[i] = (None, state.telemetry)
                        else:
                            retry_wave.append(i)
                        continue
                    except CancelledError:
                        state.record_failure("CancelledError: attempt cancelled", 0)
                        state.fail()
                        outcomes[i] = (None, state.telemetry)
                        continue
                    except Exception as exc:  # noqa: BLE001 - worker raised
                        budget = 0 if isinstance(exc, ValidationError) else self.retries
                        if state.record_failure(f"{type(exc).__name__}: {exc}", budget):
                            state.fail()
                            outcomes[i] = (None, state.telemetry)
                        else:
                            retry_wave.append(i)
                        continue
                    outcomes[i] = (state.finish(out, submitted), state.telemetry)
                active = retry_wave
                if active:
                    time.sleep(min(1.0, self.backoff * (2**wave)))
                    wave += 1
        return outcomes
