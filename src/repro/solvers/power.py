"""The (shifted) power iteration — the paper's solver of choice (Sec. 3).

Why power iteration: ``W`` is positive definite (Sec. 2) and
Perron–Frobenius applies, so ``λ₀ > λ₁ ≥ … ≥ λ_{N−1} > 0`` and
convergence to the Perron vector is guaranteed.  Among Krylov methods it
has the smallest possible memory footprint — one extra vector — which is
the binding constraint once ``N = 2^ν`` vectors barely fit in memory.

Paper-faithful details implemented here:

* start vector ``s = diag(F)/‖diag(F)‖₁`` (the landscape itself),
* stopping criterion: the residual ``R(λ̃, x̃) = ‖W·x̃ − λ̃·x̃‖₂``,
* optional conservative shift ``μ = (1−2p)^ν f_min`` (via
  :class:`~repro.operators.shifted.ShiftedOperator`), which improves the
  rate from ``λ₁/λ₀`` to ``(λ₁−μ)/(λ₀−μ)`` and cuts iteration counts by
  ≳10 % on random landscapes (reproduced in the shift-ablation bench).
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.operators.base import ImplicitOperator
from repro.operators.dense_w import convert_eigenvector
from repro.operators.shifted import ShiftedOperator
from repro.solvers.result import IterationRecord, SolveResult

__all__ = ["PowerIteration", "BlockPowerIteration", "BlockSolveResult"]


class PowerIteration:
    """Power iteration on any implicit operator.

    Parameters
    ----------
    operator:
        The implicit product for ``W`` (any form); if a
        :class:`~repro.operators.shifted.ShiftedOperator` is passed, the
        reported eigenvalue is automatically un-shifted.
    tol:
        Residual threshold ``τ`` on ``‖Wx − λx‖₂`` (paper: 1e−15 for the
        exact products, 1e−10 for Xmvp(5)).
    max_iterations:
        Safety cap; exceeded ⇒ :class:`ConvergenceError` unless
        ``raise_on_fail=False``.
    record_history:
        Keep a per-iteration (λ, residual) trace.
    reducer:
        Optional :class:`~repro.transforms.parallel.PanelReducer` used for
        the iteration's reductions (1-norm estimate and residual).
        Defaults to the operator's own ``panel_reducer`` attribute when it
        has one (set by ``Fmmp(threads=...)``), so threaded operators get
        panel-ordered, run-to-run deterministic reductions automatically;
        serial operators keep the plain NumPy reductions.

    Notes
    -----
    Iterates are normalized in the **1-norm** — they are relative
    concentrations, and this keeps the Rayleigh-like eigenvalue estimate
    ``λ̃ = ‖W·x‖₁ / ‖x‖₁`` exact in the limit for the positive Perron
    vector (for positive ``x`` and non-negative ``W``, ``1ᵀWx = λ 1ᵀx``
    at the fixed point).  The residual is still measured in the 2-norm,
    as in the paper.
    """

    def __init__(
        self,
        operator: ImplicitOperator,
        *,
        tol: float = 1e-12,
        max_iterations: int = 100_000,
        record_history: bool = False,
        reducer=None,
    ):
        if tol <= 0.0:
            raise ValidationError(f"tol must be positive, got {tol}")
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        self.operator = operator
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.record_history = bool(record_history)
        self.reducer = reducer if reducer is not None else getattr(
            operator, "panel_reducer", None
        )

    # --------------------------------------------------------------- solve
    def solve(
        self,
        start: np.ndarray,
        *,
        landscape=None,
        form: str = "right",
        raise_on_fail: bool = True,
        method_name: str | None = None,
    ) -> SolveResult:
        """Run the iteration from ``start``.

        Parameters
        ----------
        start:
            Starting vector (e.g. ``landscape.start_vector()``); must
            have positive mass.
        landscape, form:
            When given, the converged eigenvector is also converted to
            physical concentrations ``x_R`` (see
            :func:`repro.operators.dense_w.convert_eigenvector`);
            otherwise the working-form vector doubles as concentrations.
        raise_on_fail:
            Raise :class:`ConvergenceError` when the tolerance is not
            met within ``max_iterations`` (default), else return the
            best iterate with ``converged=False``.
        method_name:
            Label stored in the result (defaults to
            ``Pi(<operator class>)``).
        """
        op = self.operator
        mu = op.mu if isinstance(op, ShiftedOperator) else 0.0
        x = np.asarray(start, dtype=np.float64).copy()
        if x.shape != (op.n,):
            raise ValidationError(f"start vector must have shape ({op.n},), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValidationError("start vector must be finite (it holds NaN or inf)")
        mass = np.abs(x).sum()
        if mass <= 0.0:
            raise ValidationError("start vector must have nonzero mass")
        x /= mass

        history: list[IterationRecord] = []
        lam = 0.0
        residual = np.inf
        iterations = 0
        red = self.reducer
        for iterations in range(1, self.max_iterations + 1):
            y = op.matvec(x)
            # 1-norm estimate; y > 0 near the fixed point.  With a panel
            # reducer the sum is panel-partitioned and combined in fixed
            # panel order — byte-identical across runs and thread counts.
            lam = red.abs_sum(y) if red is not None else float(np.abs(y).sum())
            if lam <= 0.0:
                raise ConvergenceError(
                    "iterate collapsed to zero — W is not acting as a positive operator",
                    iterations=iterations,
                    residual=float("nan"),
                )
            y /= lam
            # Residual of the *normalized* pair: ‖W x − λ x‖₂ = λ‖y − x‖₂.
            if red is not None:
                residual = lam * red.diff_norm(y, x)
            else:
                residual = lam * float(np.linalg.norm(y - x))
            # NaN fails every comparison below, so without this guard a
            # non-finite iterate would burn the whole iteration budget.
            if not (math.isfinite(lam) and math.isfinite(residual)):
                raise ConvergenceError(
                    f"non-finite iterate at iteration {iterations} "
                    f"(lambda={lam}, residual={residual})",
                    iterations=iterations,
                    residual=float(residual),
                )
            x = y
            if self.record_history:
                history.append(IterationRecord(iterations, lam + mu, residual))
            if residual < self.tol:
                break
        else:  # pragma: no cover - loop always breaks or exhausts
            pass

        converged = residual < self.tol
        if not converged and raise_on_fail:
            raise ConvergenceError(
                f"power iteration did not reach tol={self.tol} in "
                f"{self.max_iterations} iterations (residual={residual:.3e})",
                iterations=iterations,
                residual=residual,
            )

        eigenvalue = lam + mu  # un-shift
        x = np.abs(x)  # Perron vector: clean up −0.0 / tiny negative noise
        x /= x.sum()
        if landscape is not None:
            concentrations = convert_eigenvector(x, landscape, form)
        else:
            concentrations = x
        name = method_name or f"Pi({type(op).__name__})"
        return SolveResult(
            eigenvalue=eigenvalue,
            eigenvector=x,
            concentrations=concentrations,
            iterations=iterations,
            residual=residual,
            converged=converged,
            method=name,
            history=history,
        )


@dataclass
class BlockSolveResult:
    """Outcome of a lock-step block power iteration.

    Attributes
    ----------
    columns:
        Per-column :class:`~repro.solvers.result.SolveResult`\\ s, in the
        original column order (deflated columns keep the iteration count
        at which they converged).
    sweeps:
        Number of fused ``matmat`` sweeps executed — the quantity the
        batched route amortizes (``sweeps`` equals the iteration count
        of the *slowest* column).
    """

    columns: list[SolveResult]
    sweeps: int

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.columns)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([r.eigenvalue for r in self.columns])

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, j: int) -> SolveResult:
        return self.columns[j]

    def __iter__(self):
        return iter(self.columns)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _admit_block(n: int, b: int, per_column: bool) -> None:
    """Refuse a block solve whose working set cannot fit in memory.

    The working set is three ``(n, b)`` float64 blocks (iterate, product,
    kernel scratch) plus, for per-column operators, one selection of the
    landscape scales once a column deflates.
    """
    physical = _physical_memory()
    if physical is None:
        return
    needed = (4 if per_column else 3) * n * b * 8
    if needed > physical:
        raise ValidationError(
            f"block power iteration at nu={n.bit_length() - 1}, B={b} needs "
            f"{needed} bytes of working memory but only {physical} bytes "
            "of physical memory exist"
        )


class BlockPowerIteration:
    """Lock-step power iteration on ``B`` columns sharing one operator.

    All columns ride the *same* fused butterfly stream
    (:meth:`~repro.operators.fmmp.Fmmp.matmat`): one sweep
    advances every still-active column by one power step.  Each column
    keeps its own eigenvalue estimate, residual, and optional shift
    ``μ_j`` (the per-landscape conservative shift of Sec. 3); columns
    that reach the tolerance are **deflated** — dropped from the working
    block so later sweeps only move the unconverged columns' memory.

    Parameters
    ----------
    operator:
        A :class:`~repro.operators.fmmp.Fmmp` (per-column or
        shared landscapes) or any :class:`ImplicitOperator` whose
        :meth:`matmat` applies the block product.  Per-column operators
        are driven through their ``columns=`` selection so deflation
        composes with per-column diagonals.
    shifts:
        Optional per-column shift ``μ_j``: scalar (shared) or length-B
        sequence.  The iteration runs on ``W_j − μ_j I`` and reports the
        un-shifted eigenvalue, exactly like wrapping each column in a
        :class:`~repro.operators.shifted.ShiftedOperator`.
    tol, max_iterations, record_history:
        As for :class:`PowerIteration`; the residual criterion
        ``‖W_j x_j − λ_j x_j‖₂ < τ`` is applied per column.
    reducer:
        Optional :class:`~repro.transforms.parallel.PanelReducer`; the
        per-column 1-norms and residuals become panel-partitioned partial
        sums combined in fixed panel order (axis-0 reductions per column).
        Defaults to the operator's ``panel_reducer`` attribute (set by
        ``Fmmp(threads=...)``).
    """

    def __init__(
        self,
        operator: ImplicitOperator,
        *,
        shifts: float | Sequence[float] | np.ndarray | None = None,
        tol: float = 1e-12,
        max_iterations: int = 100_000,
        record_history: bool = False,
        reducer=None,
    ):
        if tol <= 0.0:
            raise ValidationError(f"tol must be positive, got {tol}")
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        self.operator = operator
        self.shifts = shifts
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.record_history = bool(record_history)
        self.reducer = reducer if reducer is not None else getattr(
            operator, "panel_reducer", None
        )

    # ------------------------------------------------------------ plumbing
    def _resolve_batch(self, starts: np.ndarray | None) -> int:
        op = self.operator
        if starts is not None:
            arr = np.asarray(starts)
            if arr.ndim != 2 or arr.shape[0] != op.n:
                raise ValidationError(
                    f"starts must be an ({op.n}, B) block, got shape {arr.shape}"
                )
            b = arr.shape[1]
        elif getattr(op, "per_column", False):
            b = op.batch
        else:
            raise ValidationError(
                "starts is required unless the operator carries per-column landscapes"
            )
        if b < 1:
            raise ValidationError("block power iteration needs at least one column")
        if getattr(op, "per_column", False) and b != op.batch:
            raise ValidationError(
                f"starts has {b} columns but the operator has {op.batch} landscape columns"
            )
        return b

    def _resolve_shifts(self, b: int) -> np.ndarray:
        if self.shifts is None:
            return np.zeros(b)
        mu = np.atleast_1d(np.asarray(self.shifts, dtype=np.float64))
        if mu.shape == (1,):
            mu = np.full(b, mu[0])
        if mu.shape != (b,):
            raise ValidationError(f"shifts must be scalar or length {b}, got shape {mu.shape}")
        return mu

    def _resolve_landscapes(self, landscapes, b: int):
        if landscapes is None:
            op_lands = getattr(self.operator, "landscapes", None)
            if op_lands is not None and getattr(self.operator, "per_column", False):
                return list(op_lands)
            if op_lands is not None and len(op_lands) == 1:
                return [op_lands[0]] * b
            return [None] * b
        lands = list(landscapes)
        if len(lands) == 1:
            lands = lands * b
        if len(lands) != b:
            raise ValidationError(f"expected {b} landscapes, got {len(lands)}")
        return lands

    # --------------------------------------------------------------- solve
    def solve(
        self,
        starts: np.ndarray | None = None,
        *,
        landscapes=None,
        form: str | None = None,
        raise_on_fail: bool = True,
        method_name: str | None = None,
    ) -> BlockSolveResult:
        """Run the lock-step iteration.

        Parameters
        ----------
        starts:
            ``(n, B)`` block of start vectors (columns with positive
            mass).  Defaults to each landscape's
            :meth:`~repro.landscapes.base.FitnessLandscape.start_vector`
            when the operator carries per-column landscapes.
        landscapes:
            Per-column landscapes for the concentration conversion;
            defaults to the operator's own, when it has them.
        form:
            Eigenproblem form for the conversion (defaults to the
            operator's ``form`` attribute, else ``"right"``).
        raise_on_fail:
            Raise :class:`ConvergenceError` if any column misses the
            tolerance within ``max_iterations`` (default); otherwise
            the stragglers are returned with ``converged=False``.
        """
        op = self.operator
        n = op.n
        b = self._resolve_batch(starts)
        mu = self._resolve_shifts(b)
        lands = self._resolve_landscapes(landscapes, b)
        if form is None:
            form = getattr(op, "form", "right")
        per_column = bool(getattr(op, "per_column", False))

        _admit_block(n, b, per_column)
        if starts is None:
            for j, land in enumerate(lands):
                if land is None:
                    raise ValidationError(f"no start vector and no landscape for column {j}")
            x = np.stack([land.start_vector() for land in lands], axis=1, dtype=np.float64)
        else:
            x = np.ascontiguousarray(starts, dtype=np.float64).copy()
        finite = np.isfinite(x).all(axis=0)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValidationError(f"start column {bad} must be finite (it holds NaN or inf)")
        mass = np.abs(x).sum(axis=0)
        if np.any(mass <= 0.0):
            bad = int(np.argmin(mass))
            raise ValidationError(f"start column {bad} has nonzero mass required, got {mass[bad]}")
        x /= mass[None, :]

        name = method_name or f"BPi({type(op).__name__})"
        active = list(range(b))
        lam = np.zeros(b)
        residual = np.full(b, np.inf)
        iterations = np.zeros(b, dtype=int)
        final = [None] * b
        histories: list[list[IterationRecord]] = [[] for _ in range(b)]
        sweeps = 0

        # The working set: iterate ``x``, product ``y`` and the kernel's
        # scratch ``s``, all (n, m) for the m active columns.  Once the
        # product is done ``s`` is the step's temporary, and each
        # in-place operation below rounds exactly like the allocating
        # expression it replaces (noted alongside).
        y = np.empty_like(x)
        s = np.empty_like(x)
        red = self.reducer
        while active and sweeps < self.max_iterations:
            sweeps += 1
            kwargs = {"columns": active} if per_column else {}
            y = op.matmat(x, out=y, scratch=s, **kwargs)
            mu_act = mu[active]
            if np.any(mu_act != 0.0):
                np.multiply(x, mu_act, out=s)  # y = y - x * mu
                y -= s
            # Panel-ordered per-column 1-norms when a reducer is present
            # (byte-identical across runs and thread counts at fixed R).
            lam_act = red.abs_sum(y) if red is not None else np.abs(y, out=s).sum(axis=0)
            if np.any(lam_act <= 0.0):
                bad = active[int(np.argmin(lam_act))]
                raise ConvergenceError(
                    f"column {bad} collapsed to zero — W is not acting as a "
                    "positive operator",
                    iterations=sweeps,
                    residual=float("nan"),
                )
            np.divide(y, lam_act, out=y)
            if red is not None:
                res_act = lam_act * red.diff_norm(y, x)
            else:
                np.subtract(y, x, out=s)  # np.linalg.norm(y - x, axis=0)
                s *= s
                res_act = lam_act * np.sqrt(s.sum(axis=0))
            finite = np.isfinite(lam_act) & np.isfinite(res_act)
            if not finite.all():
                k = int(np.argmin(finite))
                raise ConvergenceError(
                    f"column {active[k]}: non-finite iterate at sweep {sweeps} "
                    f"(lambda={lam_act[k]}, residual={res_act[k]})",
                    iterations=sweeps,
                    residual=float(res_act[k]),
                )

            if self.record_history:
                for k, j in enumerate(active):
                    histories[j].append(
                        IterationRecord(sweeps, float(lam_act[k] + mu[j]), float(res_act[k]))
                    )

            done = [k for k in range(len(active)) if res_act[k] < self.tol]
            for k in range(len(active)):
                j = active[k]
                lam[j] = lam_act[k]
                residual[j] = res_act[k]
                iterations[j] = sweeps
            if done:
                # Deflation: freeze converged columns and shrink the
                # working set to the kept ones.  Each old block is
                # dropped before a new one is allocated, so memory never
                # holds more than the old product and the new blocks.
                done_set = set(done)
                for k in done:
                    final[active[k]] = y[:, k].copy()
                keep = [k for k in range(len(active)) if k not in done_set]
                active = [active[k] for k in keep]
                x = s = None
                x = np.take(y, keep, axis=1)
                y = None
                y = np.empty_like(x)
                s = np.empty_like(x)
            else:
                x, y = y, x

        for k, j in enumerate(active):  # stragglers keep their last iterate
            final[j] = x[:, k].copy()
        x = y = s = None

        if active and raise_on_fail:
            raise ConvergenceError(
                f"block power iteration: columns {active} did not reach "
                f"tol={self.tol} in {self.max_iterations} sweeps "
                f"(worst residual={float(np.max(residual[active])):.3e})",
                iterations=sweeps,
                residual=float(np.max(residual[active])),
            )

        unconverged = set(active)
        results: list[SolveResult] = []
        for j in range(b):
            v = final[j]
            np.abs(v, out=v)
            v /= v.sum()
            concentrations = (
                convert_eigenvector(v, lands[j], form) if lands[j] is not None else v
            )
            results.append(
                SolveResult(
                    eigenvalue=float(lam[j] + mu[j]),
                    eigenvector=v,
                    concentrations=concentrations,
                    iterations=int(iterations[j]),
                    residual=float(residual[j]),
                    converged=j not in unconverged,
                    method=name,
                    history=histories[j],
                )
            )
        return BlockSolveResult(columns=results, sweeps=sweeps)
