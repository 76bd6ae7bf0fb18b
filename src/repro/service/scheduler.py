"""Batch planner: dedup, operator grouping, and cost-ordered execution.

Given a manifest of :class:`~repro.service.jobspec.SolveJob` requests,
:func:`plan_batch` produces a :class:`BatchPlan` that the worker pool
executes:

1. **Deduplication** — jobs with identical content hashes are collapsed
   to one physical solve; the plan's ``index_map`` expands results back
   to the original request order.
2. **Operator grouping** — jobs sharing a mutation operator (same ν, p,
   mutation family, seed — i.e. the same Q-factor tables and FWHT
   plans) are placed in one :class:`JobGroup`, so workers build the
   operator once per group (a per-process build memo in
   :mod:`repro.service.pool` realizes the sharing).
3. **Cost ordering** — groups of reduced (ν+1)-sized jobs run before
   full 2^ν groups, and cheaper groups before expensive ones (flop
   estimates from :mod:`repro.perf.costs`), so short jobs are never
   stuck behind long ones and cache-priming results appear early.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.perf.costs import operator_costs
from repro.service.jobspec import SolveJob

__all__ = [
    "JobGroup",
    "BatchPlan",
    "BatchedSolveJob",
    "estimate_cost",
    "plan_batch",
    "is_batchable",
    "plan_batched_jobs",
]

#: nominal iteration count used to price one iterative full-size solve
_NOMINAL_ITERATIONS = 200.0


def estimate_cost(job: SolveJob) -> float:
    """Rough flop estimate for one solve of ``job`` (planning only).

    Reduced jobs cost one dense (ν+1) eigendecomposition; dense full
    solves cost ``N³``; iterative full routes cost the per-matvec flops
    of their operator (:func:`repro.perf.costs.operator_costs`) times a
    nominal iteration count.  Only the *relative* ordering matters.
    """
    method = job.resolved_method()
    n = float(job.n)
    if method == "reduced":
        return float(job.nu + 1) ** 3
    if method == "dense":
        return n**3
    if method == "kronecker":
        # decoupled per-group eigenproblems: negligible next to full N
        return sum(float(1 << g) ** 3 for g in _kron_groups(job))
    operator = job.operator
    dmax = job.dmax if operator == "xmvp" else None
    if operator == "xmvp":
        dmax = dmax or job.nu
    flops = operator_costs(operator, job.nu, dmax).flops
    return flops * _NOMINAL_ITERATIONS


def _kron_groups(job: SolveJob) -> tuple[int, ...]:
    from repro.service.jobspec import split_groups

    return split_groups(job.nu)


@dataclass
class JobGroup:
    """Unique jobs sharing one operator build, in execution order."""

    key: str
    indices: list[int] = field(default_factory=list)  # into BatchPlan.unique_jobs
    reduced: bool = False
    cost: float = 0.0


@dataclass
class BatchPlan:
    """The scheduler's output: what to solve, once, and in what order.

    Attributes
    ----------
    jobs:
        The original request list (duplicates included).
    unique_jobs:
        One job per distinct content hash, in first-seen order.
    index_map:
        ``index_map[i]`` is the index into ``unique_jobs`` serving
        original request ``i``.
    groups:
        Operator-sharing groups in execution order (reduced first,
        then by ascending cost estimate).
    """

    jobs: list[SolveJob]
    unique_jobs: list[SolveJob]
    index_map: list[int]
    groups: list[JobGroup]

    @property
    def order(self) -> list[int]:
        """Indices into ``unique_jobs`` in planned execution order."""
        return [i for group in self.groups for i in group.indices]

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def n_unique(self) -> int:
        return len(self.unique_jobs)

    @property
    def n_duplicates(self) -> int:
        """Requests answered by another identical request's solve."""
        return len(self.jobs) - len(self.unique_jobs)

    def multiplicity(self, unique_index: int) -> int:
        """How many original requests map to ``unique_jobs[unique_index]``."""
        return sum(1 for u in self.index_map if u == unique_index)

    def group_of(self, unique_index: int) -> JobGroup:
        """The operator group containing ``unique_jobs[unique_index]``."""
        for group in self.groups:
            if unique_index in group.indices:
                return group
        raise IndexError(f"unique index {unique_index} not in any group")

    def to_dict(self) -> dict:
        """Scalar summary for batch reports."""
        return {
            "jobs": self.n_jobs,
            "unique_jobs": self.n_unique,
            "duplicates": self.n_duplicates,
            "groups": len(self.groups),
            "reduced_jobs": sum(len(g.indices) for g in self.groups if g.reduced),
        }


@dataclass(frozen=True)
class BatchedSolveJob:
    """A block of operator-sharing jobs to solve in one butterfly stream.

    Every member shares the mutation operator ``Q`` (same
    :meth:`~repro.service.jobspec.SolveJob.operator_key`) and the
    eigenproblem form; the landscapes differ per column.  The pool
    executes it through
    :class:`~repro.solvers.power.BlockPowerIteration` on one
    per-column :class:`~repro.operators.fmmp.Fmmp`, with per-column
    shifts and per-column convergence bookkeeping.

    Attributes
    ----------
    key:
        The shared operator key (group identity).
    form:
        The shared eigenproblem form.
    indices:
        Positions of the member jobs in ``BatchPlan.unique_jobs``.
    jobs:
        The member jobs, aligned with ``indices``.
    """

    key: str
    form: str
    indices: tuple[int, ...]
    jobs: tuple[SolveJob, ...]

    @property
    def batch(self) -> int:
        return len(self.jobs)

    @property
    def tol(self) -> float:
        """The tightest member tolerance — satisfying it satisfies all."""
        return min(j.tol for j in self.jobs)

    @property
    def max_iterations(self) -> int:
        return max(int(j.max_iterations) for j in self.jobs)

    def label(self) -> str:
        first = self.jobs[0]
        return (
            f"batched[B={self.batch}] nu={first.nu} p={first.p:g} "
            f"mutation={first.mutation} form={self.form}"
        )


def is_batchable(job: SolveJob) -> bool:
    """Whether ``job`` can ride the batched multi-vector power route.

    Batchable jobs are full-size power solves on the Fmmp operator —
    the route a per-column :class:`~repro.operators.fmmp.Fmmp` implements.
    Reduced/dense/Krylov/kronecker routes keep their scalar paths (they
    are either already (ν+1)-sized or need per-job Krylov state).
    """
    return job.resolved_method() == "power" and job.operator == "fmmp"


def plan_batched_jobs(
    plan: BatchPlan,
    subset: Sequence[int] | None = None,
    *,
    min_batch: int = 2,
) -> list[BatchedSolveJob]:
    """Extract batched blocks from a plan's operator-sharing groups.

    Walks each :class:`JobGroup`, keeps its batchable members (within
    ``subset`` when given — the service passes the cache-miss indices),
    sub-groups them by eigenproblem form (one
    :class:`~repro.operators.fmmp.Fmmp` has a single form),
    and emits a :class:`BatchedSolveJob` for every sub-group of at least
    ``min_batch`` jobs.  Smaller sub-groups stay on the scalar route —
    a one-column block has nothing to amortize.
    """
    if min_batch < 1:
        from repro.exceptions import ValidationError

        raise ValidationError(f"min_batch must be >= 1, got {min_batch}")
    allowed = None if subset is None else set(subset)
    blocks: list[BatchedSolveJob] = []
    for group in plan.groups:
        if group.reduced:
            continue
        by_form: dict[str, list[int]] = {}
        for idx in group.indices:
            if allowed is not None and idx not in allowed:
                continue
            job = plan.unique_jobs[idx]
            if not is_batchable(job):
                continue
            by_form.setdefault(job.form, []).append(idx)
        for form in sorted(by_form):
            indices = by_form[form]
            if len(indices) < min_batch:
                continue
            blocks.append(
                BatchedSolveJob(
                    key=group.key,
                    form=form,
                    indices=tuple(indices),
                    jobs=tuple(plan.unique_jobs[i] for i in indices),
                )
            )
    return blocks


def plan_batch(jobs: list[SolveJob]) -> BatchPlan:
    """Plan a batch: dedup → group by operator → order by cost.

    Deterministic: equal inputs give equal plans (grouping keys are
    content hashes, ties broken by first-seen order).
    """
    unique_jobs: list[SolveJob] = []
    index_map: list[int] = []
    seen: dict[str, int] = {}
    for job in jobs:
        key = job.content_key()
        if key not in seen:
            seen[key] = len(unique_jobs)
            unique_jobs.append(job)
        index_map.append(seen[key])

    groups: dict[str, JobGroup] = {}
    for idx, job in enumerate(unique_jobs):
        key = job.operator_key()
        group = groups.get(key)
        if group is None:
            group = groups[key] = JobGroup(key=key, reduced=job.is_reduced)
        group.indices.append(idx)
        group.cost += estimate_cost(job)

    ordered = sorted(
        groups.values(),
        key=lambda g: (not g.reduced, g.cost, min(g.indices)),
    )
    for group in ordered:
        group.indices.sort(key=lambda i: (estimate_cost(unique_jobs[i]), i))
    return BatchPlan(
        jobs=list(jobs),
        unique_jobs=unique_jobs,
        index_map=index_map,
        groups=ordered,
    )
