"""``BatchedFmmp`` — the multi-vector fast mutation matrix product.

The service scheduler groups jobs by :attr:`SolveJob.operator_key`, i.e.
by mutation operator ``Q`` (ν, p, model, seed) but *not* by landscape.
Jobs in one group therefore share the expensive part of ``W = Q·F`` —
the ν-stage butterfly — and differ only in the cheap diagonal ``F``.
This operator exploits exactly that: ``B`` right-hand sides (optionally
each with its *own* landscape) ride one stage-fused butterfly stream
(:func:`repro.transforms.batched.batched_butterfly_transform`), with the
per-column ``F`` / ``F^{1/2}`` scalings folded in as ``(N, B)``
pre/post-scale blocks.

Two modes:

* **shared landscape** (``per_column=False``): one
  :class:`~repro.landscapes.base.FitnessLandscape`, behaves like a
  drop-in :class:`~repro.operators.fmmp.Fmmp` whose :meth:`matmat` is
  fused — this is what the verification oracle exercises;
* **per-column landscapes** (``per_column=True``): a sequence of ``B``
  landscapes, column ``j`` of ``matmat`` computes ``W_j · v_j`` with
  ``W_j = form(Q, F_j)`` — this is what
  :class:`~repro.solvers.power.BlockPowerIteration` and the service's
  batched jobs use.

Grouped mutation models have no 2×2 butterfly; they fall back to a
per-column Kronecker contraction (still one operator instance, same
interface).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.mutation.grouped import GroupedMutation
from repro.mutation.persite import PerSiteMutation
from repro.mutation.uniform import UniformMutation
from repro.operators.base import FORMS, ImplicitOperator, OperatorCosts
from repro.transforms.batched import batched_butterfly_transform, fused_stage_plan
from repro.transforms.kronecker import kron_matvec

__all__ = ["BatchedFmmp"]

_VARIANTS = ("eq9", "eq10")


class BatchedFmmp(ImplicitOperator):
    """Stage-fused multi-vector ``W``-product sharing one butterfly stream.

    Parameters
    ----------
    mutation:
        The shared mutation model ``Q``.
    landscapes:
        Either a single :class:`FitnessLandscape` (shared by every
        column) or a sequence of ``B`` landscapes (one per column).
    form:
        ``right``/``symmetric``/``left`` (Eqs. 3–5), applied per column.
    variant:
        Stage traversal order, ``"eq9"`` or ``"eq10"``.
    threads:
        Panel-engine thread count (``None`` reads ``REPRO_NUM_THREADS``,
        default 1).  With ``threads > 1`` (or explicit ``panels``)
        :meth:`matmat` runs the panel-parallel fused kernel — output
        bit-identical to the serial kernel for every ``(threads,
        panels)``; grouped models keep their serial per-column fallback.
    panels:
        Panel count ``R``; defaults to the roofline
        :func:`repro.perf.parallel.auto_panels` pick.

    Examples
    --------
    >>> from repro.mutation import UniformMutation
    >>> from repro.landscapes import SinglePeakLandscape
    >>> op = BatchedFmmp(UniformMutation(6, 0.01), SinglePeakLandscape(6))
    >>> import numpy as np
    >>> op.matmat(np.ones((64, 3))).shape
    (64, 3)
    """

    def __init__(
        self,
        mutation: MutationModel,
        landscapes: FitnessLandscape | Sequence[FitnessLandscape],
        form: str = "right",
        variant: str = "eq9",
        *,
        threads: int | None = None,
        panels: int | None = None,
    ):
        if form not in FORMS:
            raise ValidationError(f"form must be one of {FORMS}, got {form!r}")
        if variant not in _VARIANTS:
            raise ValidationError(f"variant must be one of {_VARIANTS}, got {variant!r}")
        self.mutation = mutation
        self.form = form
        self.variant = variant
        self.n = mutation.n

        if isinstance(landscapes, FitnessLandscape):
            if landscapes.nu != mutation.nu:
                raise ValidationError(
                    f"landscape (nu={landscapes.nu}) disagrees with "
                    f"mutation (nu={mutation.nu})"
                )
            self.per_column = False
            self.landscapes: tuple[FitnessLandscape, ...] = (landscapes,)
            self._f = np.ascontiguousarray(landscapes.values(), dtype=np.float64)
        else:
            lands = tuple(landscapes)
            if not lands:
                raise ValidationError("BatchedFmmp needs at least one landscape")
            for j, land in enumerate(lands):
                if land.nu != mutation.nu:
                    raise ValidationError(
                        f"landscapes[{j}] (nu={land.nu}) disagrees with "
                        f"mutation (nu={mutation.nu})"
                    )
            self.per_column = True
            self.landscapes = lands
            # (N, B): column j is F_j, contiguous for the fused kernel.
            self._f = np.ascontiguousarray(
                np.stack([land.values() for land in lands], axis=1), dtype=np.float64
            )
        self._sqrt_f = np.sqrt(self._f) if form == "symmetric" else None
        self._all_columns = tuple(range(self.batch))
        self._selection: tuple[tuple[int, ...], np.ndarray] | None = None

        self._plan = None
        if isinstance(mutation, (UniformMutation, PerSiteMutation)):
            self._bit_factors = mutation.factors_per_bit()
            self._blocks = None
            self._plan = fused_stage_plan(self._bit_factors, variant=variant)
        elif isinstance(mutation, GroupedMutation):
            self._bit_factors = None
            self._blocks = mutation.blocks()
        else:  # pragma: no cover - future models fall back to .apply
            self._bit_factors = None
            self._blocks = None

        # Lazy imports: repro.transforms.parallel touches the distributed
        # package, which imports the solver stack above this module.
        from repro.transforms.parallel import resolve_threads

        self.threads = resolve_threads(threads)
        parallel_requested = self.threads > 1 or panels is not None
        self.panels = 1
        self.panel_reducer = None
        self._engine = None
        if parallel_requested and self._bit_factors is not None:
            from repro.perf.parallel import auto_panels
            from repro.transforms.parallel import (
                PanelReducer,
                get_engine,
                resolve_panels,
            )

            if panels is None:
                self.panels = auto_panels(
                    mutation.nu, self.batch, threads=self.threads
                )
            else:
                self.panels = resolve_panels(panels, mutation.nu, threads=self.threads)
            self._engine = get_engine(self.threads)
            self.panel_reducer = PanelReducer(self.panels, engine=self._engine)
        self._parallel = parallel_requested and self._bit_factors is not None

    # --------------------------------------------------------------- state
    @property
    def batch(self) -> int:
        """Number of landscape columns (1 in shared mode)."""
        return len(self.landscapes)

    @property
    def is_symmetric(self) -> bool:
        return self.form == "symmetric" and self.mutation.is_symmetric

    # -------------------------------------------------------------- scales
    def _scales(self, columns: Sequence[int] | None):
        """Pre/post diagonal scales for the requested columns.

        Returns ``(pre, post)`` with shapes ``(N,)`` (shared mode) or
        ``(N, B')`` (per-column mode, ``B'`` selected columns), per the
        form table of :mod:`repro.operators.base`.
        """
        scale = self._f if self._sqrt_f is None else self._sqrt_f
        if self.per_column and columns is not None:
            key = tuple(columns)
            if key != self._all_columns:
                # One selection per active set, not per product: the
                # block power iteration's set only changes at deflation.
                selection = self._selection
                if selection is None or selection[0] != key:
                    selection = (key, np.take(scale, key, axis=1))
                    self._selection = selection
                scale = selection[1]
        if self.form == "right":
            return scale, None
        if self.form == "symmetric":
            return scale, scale
        return None, scale  # left

    def _check_columns(self, b: int, columns: Sequence[int] | None) -> None:
        if not self.per_column:
            if columns is not None:
                raise ValidationError(
                    "columns only applies to a per-column BatchedFmmp"
                )
            return
        expected = len(columns) if columns is not None else self.batch
        if b != expected:
            raise ValidationError(
                f"block has {b} columns but {expected} landscape columns "
                "were selected"
            )

    # ------------------------------------------------------------- product
    def matmat(
        self,
        block: np.ndarray,
        *,
        columns: Sequence[int] | None = None,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(N, B)`` block product; column ``j`` is ``W_j · block[:, j]``.

        Parameters
        ----------
        block:
            ``(N, B)`` input block (never mutated).
        columns:
            In per-column mode, the landscape indices backing the block's
            columns (defaults to all, in order).  Used by the block power
            iteration to keep driving the *active* columns after
            deflation.
        out, scratch:
            Optional reusable ``(N, B)`` float64 C-contiguous buffers,
            forwarded to the fused kernel.
        """
        arr = np.asarray(block)
        if arr.ndim != 2:
            raise ValidationError(f"matmat expects a 2-D (N, B) block, got shape {arr.shape}")
        if arr.shape[0] != self.n:
            raise ValidationError(f"matmat block must have {self.n} rows, got {arr.shape[0]}")
        b = arr.shape[1]
        self._check_columns(b, columns)
        if b == 0:
            return np.empty((self.n, 0), dtype=np.float64)
        pre, post = self._scales(columns)
        if self._bit_factors is not None:
            if self._parallel:
                from repro.transforms.parallel import parallel_butterfly_transform

                return parallel_butterfly_transform(
                    arr,
                    self._bit_factors,
                    pre_scale=pre,
                    post_scale=post,
                    plan=self._plan,
                    panels=self.panels,
                    engine=self._engine,
                    out=out,
                    scratch=scratch,
                )
            return batched_butterfly_transform(
                arr,
                self._bit_factors,
                pre_scale=pre,
                post_scale=post,
                plan=self._plan,
                out=out,
                scratch=scratch,
            )
        # Grouped / generic fallback: per-column contraction with the
        # same scale folding semantics.
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        result = np.empty((self.n, b), dtype=np.float64) if out is None else out
        for j in range(b):
            w = arr[:, j].copy()
            if pre is not None:
                w *= pre if pre.ndim == 1 else pre[:, j]
            q = kron_matvec(self._blocks, w) if self._blocks is not None else self.mutation.apply(w)
            if post is not None:
                q = q * (post if post.ndim == 1 else post[:, j])
            result[:, j] = q
        return result

    def matvec(self, v: np.ndarray, *, column: int = 0) -> np.ndarray:
        """Single-column product ``W_column · v`` (oracle convenience)."""
        v = self.check(v)
        if self.per_column:
            cols: Sequence[int] | None = (column,)
        else:
            if column != 0:
                raise ValidationError("shared-landscape BatchedFmmp has a single column 0")
            cols = None
        return self.matmat(v.reshape(self.n, 1), columns=cols).reshape(self.n)

    # --------------------------------------------------------------- costs
    def costs(self, *, batch: int | None = None) -> OperatorCosts:
        """Fused-kernel costs for a ``(N, batch)`` product (defaults to
        this operator's own column count)."""
        b = self.batch if batch is None else batch
        if b < 1:
            raise ValidationError(f"batch must be >= 1, got {b}")
        if self._blocks is not None:
            n = float(self.n)
            contraction = sum(2.0 * n * (1 << g) for g in self.mutation.group_sizes)
            scale_passes = 2.0 if self.form == "symmetric" else 1.0
            return OperatorCosts(
                flops=b * (contraction + scale_passes * n),
                bytes_moved=b * 8.0 * (2.0 * n * len(self._blocks) + 3.0 * scale_passes * n),
                storage_bytes=8.0 * n * len(self.landscapes),
                batch=b,
            )
        from repro.perf.batched import batched_fmmp_costs

        return batched_fmmp_costs(self.mutation.nu, b, form=self.form, plan=self._plan)
