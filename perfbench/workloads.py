"""The benchmark's workloads: inputs from a seed, how to run them, reference checks.

Each workload is a request set sent by one caller, closed loop: a cold
pass to a freshly built front end (a ``QuasispeciesModel`` or a default
``SolverService()``), then warm resubmits of the same requests to that
front end.  Only public entry points are driven, with default settings:
no thread, panel or batching knob is ever passed, so a later gain counts
only when it is the default behaviour.

Every request is checked against the exact (ν+1) reduction of Lemma 2
(``ReducedSolver``) for its own problem, which needs class-dependent
(Hamming) landscapes; the seed moves the landscapes and error rates by a
few percent, so the work per run stays the same across seeds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import QuasispeciesModel
from repro.landscapes import SinglePeakLandscape
from repro.model.concentrations import class_concentrations
from repro.service import SolverService, SolveJob
from repro.solvers.reduced import ReducedSolver

#: residual tolerance of every power solve the benchmark requests
SOLVE_TOL = 1e-12


@dataclass
class Problem:
    """The mathematics of one request, for the Lemma 2 reference."""

    nu: int
    p: float
    class_values: np.ndarray
    label: str

    def reference(self) -> tuple[float, np.ndarray]:
        res = ReducedSolver(self.nu, self.p, self.class_values).solve()
        return float(res.eigenvalue), np.asarray(res.concentrations)

    def bounds(self, full_size: bool) -> tuple[float, float]:
        """Error bounds derived from :data:`SOLVE_TOL`.

        The power iterate is 1-norm normalised, so ``‖x‖₂ ≥ n^{-1/2}`` and
        the 2-norm residual ``tol`` bounds the relative residual by
        ``tol·√n``; ``κ = √(f_max/f_min)`` is the condition of the
        similarity that symmetrises ``W = Q·F``.  That bounds the
        eigenvalue error (``η = tol·√n·κ``); summing an n-vector's error
        into classes costs at most another ``√n`` on the concentrations.
        ``n`` is ``2^ν`` for full-size routes and ``ν+1`` for reduced ones.
        """
        n = (1 << self.nu) if full_size else self.nu + 1
        kappa = math.sqrt(float(self.class_values.max() / self.class_values.min()))
        eta = SOLVE_TOL * math.sqrt(n) * kappa
        return eta, eta * math.sqrt(n)


@dataclass
class Workload:
    """A request set, its front end, and the problems behind each request."""

    name: str
    problems: list[Problem]
    unique: int
    resubmits: int
    full_size: bool
    build_front_end: Callable[[], object]
    submit: Callable[[object], list]

    @property
    def why(self) -> str:
        """Why the workload was chosen: the docstring of its factory."""
        return " ".join(FACTORIES[self.name].__doc__.split())


def _jitter(rng: np.random.Generator, value: float, rel: float = 0.01) -> float:
    return float(value * (1.0 + rel * (2.0 * rng.random() - 1.0)))


# -------------------------------------------------------------- solve_nu20
def _solve_nu20(seed: int, tiny: bool) -> Workload:
    """Kernel-bound: one 2^20 shifted power solve through
    QuasispeciesModel.solve.  Each vector is 8 MiB, over the 4 MiB L2;
    Fmmp.matvec takes ~89% of the time and there is no service layer."""
    nu = 8 if tiny else 20
    rng = np.random.default_rng(seed)
    # small enough that the iteration count, and so the work, is the same
    # for every seed
    p = _jitter(rng, 0.01, 0.002)
    peak = _jitter(rng, 2.0, 0.002)
    values = np.array([peak] + [1.0] * nu)
    problem = Problem(nu, p, values, f"single-peak nu={nu} p={p:.6g} peak={peak:.6g}")

    def build():
        return QuasispeciesModel(SinglePeakLandscape(nu, peak, 1.0), p=p)

    def submit(model):
        res = model.solve("power", shift=True, tol=SOLVE_TOL)
        return [(float(res.eigenvalue), class_concentrations(res.concentrations, nu))]

    # QuasispeciesModel keeps no result cache, so a resubmit is a full
    # re-solve: the repeat passes of a run are its warm samples.
    return Workload("solve_nu20", [problem], 1, 0, True, build, submit)


# ------------------------------------------------------- service workloads
def _service_workload(name, unique_jobs, rng, n_dups, full_size, resubmits) -> Workload:
    picks = rng.choice(len(unique_jobs), n_dups, replace=False)
    jobs = list(unique_jobs) + [unique_jobs[i] for i in picks]
    jobs = [jobs[i] for i in rng.permutation(len(jobs))]
    problems = []
    for i, job in enumerate(jobs):
        values = (np.asarray(job.class_values) if job.class_values is not None
                  else job.build_landscape().class_values())
        label = f"request #{i} ({job.label()} peak={values[0]:.6g})"
        problems.append(Problem(job.nu, job.p, values, label))

    def submit(service):
        report = service.submit(jobs)
        return [
            None if r is None else (float(r.eigenvalue), np.asarray(r.concentrations))
            for r in report.results
        ]

    return Workload(name, problems, len(unique_jobs), resubmits, full_size, SolverService, submit)


def _batch_nu14(seed: int, tiny: bool) -> Workload:
    """64 unique nu=14 power jobs (4 error rates x 16 Hamming landscapes)
    plus 32 duplicates, shuffled, to a default SolverService: 4
    BatchedFmmp blocks of B=16 that fit in L2, so per-call overhead
    dominates; the warm resubmits are served from the result cache."""
    nu, n_rates, n_lands = (6, 2, 4) if tiny else (14, 4, 16)
    rng = np.random.default_rng(seed)
    rates = [_jitter(rng, 0.004 * (k + 1)) for k in range(n_rates)]
    lands = [
        tuple([_jitter(rng, 2.0)] + list(1.0 + 0.1 * rng.random(nu)))
        for _ in range(n_lands)
    ]
    unique = [
        SolveJob(nu=nu, p=p, landscape="hamming", class_values=values,
                 method="power", shift=True, tol=SOLVE_TOL)
        for p in rates for values in lands
    ]
    # The cold pass leaves BLAS worker threads spinning for ~0.1 s, which
    # share the two cores with the first ~8 warm passes.  40 resubmits keep
    # those a minority: the median reads the settled warm path, the tail
    # the contended one.
    return _service_workload("batch_nu14", unique, rng, len(unique) // 2, True, 40)


def _sweep_reduced(seed: int, tiny: bool) -> Workload:
    """400 unique nu=20 reduced-route jobs (4 peaks x 100 error rates)
    plus 200 duplicates: service hashing, planning, cache and pool
    dominate and the Fmmp kernel is unused.  400 stays below the default
    cache capacity of 512, so the warm pass reads what the cold pass
    wrote."""
    nu, n_peaks, n_rates = (8, 2, 5) if tiny else (20, 4, 100)
    rng = np.random.default_rng(seed)
    peaks = [_jitter(rng, base) for base in (1.5, 2.0, 3.0, 5.0)[:n_peaks]]
    rates = rng.uniform(1e-3, 0.1, n_rates)
    unique = [
        SolveJob(nu=nu, p=float(p), landscape="single-peak", peak=peak, tol=SOLVE_TOL)
        for peak in peaks for p in rates
    ]
    return _service_workload("sweep_reduced", unique, rng, len(unique) // 2, False, 10)


FACTORIES = {
    "solve_nu20": _solve_nu20,
    "batch_nu14": _batch_nu14,
    "sweep_reduced": _sweep_reduced,
}


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed`` (``tiny``
    shrinks ν and the request count, for the harness's own tests)."""
    return FACTORIES[name](seed, tiny)


def references(workload: Workload) -> list[tuple[float, np.ndarray]]:
    """The Lemma 2 reference answer of every request, in request order."""
    return [problem.reference() for problem in workload.problems]


def wrong_answers(workload: Workload, answers, refs) -> list[str]:
    """Labels of the requests whose answer is missing or out of bounds."""
    wrong = []
    for problem, answer, (ref_eig, ref_conc) in zip(workload.problems, answers, refs):
        if answer is None:
            wrong.append(f"{problem.label}: no result")
            continue
        eig, conc = answer
        eig_tol, conc_tol = problem.bounds(workload.full_size)
        eig_err = abs(eig - ref_eig)
        conc_err = float(np.max(np.abs(np.asarray(conc) - ref_conc)))
        if not (eig_err <= eig_tol and conc_err <= conc_tol):
            wrong.append(
                f"{problem.label}: eigenvalue err {eig_err:.3g} (bound {eig_tol:.3g}), "
                f"concentration err {conc_err:.3g} (bound {conc_tol:.3g})"
            )
    if len(answers) != len(workload.problems):
        wrong.append(f"{len(answers)} answers for {len(workload.problems)} requests")
    return wrong
