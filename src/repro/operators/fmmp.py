"""``Fmmp`` — the paper's fast mutation matrix product (Sec. 2).

Exact ``W·v`` in ``Θ(N log₂ N)`` with no matrix storage at all: the
Kronecker factorization of ``Q`` turns the product into a ν-stage
butterfly (Eq. 9 / Eq. 10, Algorithm 1), run as the ``⌈ν/4⌉`` fused
sweeps of :mod:`repro.transforms.batched` with the diagonal ``F``
scalings folded in.  Works unchanged for the
generalized mutation models of Sec. 2.2 — per-site factors run through
the same butterfly, grouped factors through the multilinear Kronecker
contraction.

One operator serves every right-hand side: :meth:`Fmmp.matvec` is the
``B = 1`` case of :meth:`Fmmp.matmat`, and both run the same fused
sweep plan.  The landscape argument picks the mode:

* **shared landscape** — one
  :class:`~repro.landscapes.base.FitnessLandscape`; every column of a
  block is multiplied by the same ``W``;
* **per-column landscapes** — a sequence of ``B`` landscapes; column
  ``j`` of :meth:`~Fmmp.matmat` computes ``W_j · v_j`` with
  ``W_j = form(Q, F_j)``.  The service scheduler groups jobs that share
  ``Q`` (ν, p, model, seed) but not ``F``, so such a group rides one
  butterfly stream with the per-column ``F`` / ``F^{1/2}`` folded in as
  ``(N, B)`` scale blocks — this is what
  :class:`~repro.solvers.power.BlockPowerIteration` and the service's
  batched jobs use.

Two stage orders are provided, mirroring the two recursions:

* ``variant="eq9"`` — combine after recursing (Eq. 9): ascending spans
  ``1, 2, …, N/2``, exactly Algorithm 1;
* ``variant="eq10"`` — split before recursing (Eq. 10): descending spans.

For a fixed bit↔factor assignment the stages commute, so both variants
produce identical results up to rounding (asserted in the tests) — the
choice only matters for memory-access order, which is why the paper
mentions both.
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
from repro.transforms.parallel import (
    PanelReducer,
    get_engine,
    parallel_butterfly_transform,
    resolve_panels,
    resolve_threads,
)
from repro.util.scratch import ScratchPool

__all__ = ["Fmmp"]

_VARIANTS = ("eq9", "eq10")


def _landscape_columns(landscape) -> tuple[FitnessLandscape, ...]:
    """The per-column landscapes of a sequence argument, each checked."""
    if isinstance(landscape, (str, bytes, np.ndarray)) or not hasattr(landscape, "__iter__"):
        raise ValidationError(
            "landscape must be a FitnessLandscape or a non-empty sequence of them, "
            f"got {type(landscape).__name__}"
        )
    lands = tuple(landscape)
    if not lands:
        raise ValidationError("Fmmp needs at least one landscape")
    for j, land in enumerate(lands):
        if not isinstance(land, FitnessLandscape):
            raise ValidationError(
                f"landscape[{j}] must be a FitnessLandscape, got {type(land).__name__}"
            )
    return lands


class Fmmp(ImplicitOperator):
    """Fast mutation matrix product operator for ``W`` (Eqs. 3–5 forms).

    Parameters
    ----------
    mutation:
        Any :class:`~repro.mutation.base.MutationModel`; butterfly path
        for 2×2-factored models, Kronecker contraction for grouped ones.
    landscape:
        One :class:`~repro.landscapes.base.FitnessLandscape` (shared by
        every column) or a non-empty sequence of ``B`` landscapes (one
        per column).
    form:
        ``right``/``symmetric``/``left``, applied per column.
    variant:
        ``"eq9"`` (ascending spans, Algorithm 1) or ``"eq10"``
        (descending spans).
    threads:
        Panel-engine thread count (``None`` reads ``REPRO_NUM_THREADS``,
        default 1).  With ``threads > 1`` (or an explicit ``panels``)
        2×2-factored models run every product through the
        panel-parallel engine
        (:func:`repro.transforms.parallel.parallel_butterfly_transform`),
        which runs the same sweep plan as the default serial kernel;
        the output is **bit-identical** to the default for every
        ``(threads, panels)`` combination.  Grouped models have no
        butterfly to parallelize and silently stay on their serial
        per-column contraction.
    panels:
        Panel count ``R`` (power of two) for the parallel kernel;
        defaults to the roofline model's
        :func:`repro.perf.parallel.auto_panels` pick for
        ``(ν, batch, threads)``.

    Attributes
    ----------
    per_column:
        Whether the operator carries per-column landscapes.
    landscapes:
        The column landscapes (one entry in shared mode).
    landscape:
        The shared landscape, or ``None`` in per-column mode.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mutation import UniformMutation
    >>> from repro.landscapes import SinglePeakLandscape
    >>> op = Fmmp(UniformMutation(10, 0.01), SinglePeakLandscape(10))
    >>> y = op.matvec(op.landscape.start_vector())
    >>> y.shape
    (1024,)
    >>> op.matmat(np.ones((1024, 3))).shape
    (1024, 3)
    """

    def __init__(
        self,
        mutation: MutationModel,
        landscape: FitnessLandscape | Sequence[FitnessLandscape],
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
        self.per_column = not isinstance(landscape, FitnessLandscape)
        if self.per_column:
            self.landscape = None
            self.landscapes = _landscape_columns(landscape)
        else:
            self.landscape = landscape
            self.landscapes = (landscape,)
        for j, land in enumerate(self.landscapes):
            if land.nu != mutation.nu:
                where = f"landscape[{j}]" if self.per_column else "landscape"
                raise ValidationError(
                    f"mutation (nu={mutation.nu}) and {where} (nu={land.nu}) disagree"
                )
        self.mutation = mutation
        self.form = form
        self.variant = variant
        self.n = mutation.n

        if self.per_column:
            # (N, B): column j is F_j, contiguous for the fused kernel.
            f = np.stack([land.values() for land in self.landscapes], axis=1)
        else:
            f = landscape.values()
        self._f = np.ascontiguousarray(f, dtype=np.float64)
        self._sqrt_f = np.sqrt(self._f) if form == "symmetric" else None
        self._all_columns = tuple(range(self.batch))
        self._selection: tuple[tuple[int, ...], np.ndarray] | None = None

        self.threads = resolve_threads(threads)
        parallel_requested = self.threads > 1 or panels is not None
        self.panels = 1
        self.panel_reducer = None
        self._engine = None

        self._plan = None
        if isinstance(mutation, (UniformMutation, PerSiteMutation)):
            self._bit_factors = mutation.factors_per_bit()
            self._blocks = None
            # The fused sweep plan (the kron factors) is built once here
            # and reused by every product.
            self._plan = fused_stage_plan(self._bit_factors, variant=variant)
            # matvec's one (N, 1) scratch block is acquired per call from
            # a bounded keyed pool, so concurrent workers can share one
            # operator instance.
            self._scratch_pool = ScratchPool()
            if parallel_requested:
                from repro.perf.parallel import auto_panels

                if panels is None:
                    self.panels = auto_panels(mutation.nu, self.batch, threads=self.threads)
                else:
                    self.panels = resolve_panels(panels, mutation.nu, threads=self.threads)
                self._engine = get_engine(self.threads)
                self.panel_reducer = PanelReducer(self.panels, engine=self._engine)
        elif isinstance(mutation, GroupedMutation):
            self._bit_factors = None
            self._blocks = mutation.blocks()
        else:  # pragma: no cover - future models fall back to .apply
            self._bit_factors = None
            self._blocks = None
        self._parallel = parallel_requested and self._plan is not None

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
        if columns is not None:
            key = tuple(columns)
            if key != self._all_columns:
                # One selection per active set, not per product: the
                # block power iteration's set only changes at deflation,
                # so the range check runs only when the cache misses.
                selection = self._selection
                if selection is None or selection[0] != key:
                    bad = [j for j in key if not 0 <= j < self.batch]
                    if bad:
                        raise ValidationError(
                            f"columns {bad} out of range for {self.batch} landscape columns"
                        )
                    selection = (key, np.take(scale, key, axis=1))
                    self._selection = selection
                scale = selection[1]
        if self.form == "right":
            return scale, None
        if self.form == "symmetric":
            return scale, scale
        return None, scale  # left

    # ------------------------------------------------------------- product
    def _product(
        self,
        block: np.ndarray,
        columns: Sequence[int] | None,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(N, b)`` product of a validated block with ``b >= 1`` columns."""
        pre, post = self._scales(columns)
        if self._plan is not None:
            kwargs = dict(
                pre_scale=pre, post_scale=post, plan=self._plan, out=out, scratch=scratch
            )
            if self._parallel:
                return parallel_butterfly_transform(
                    block, self._bit_factors, panels=self.panels, engine=self._engine, **kwargs
                )
            return batched_butterfly_transform(block, self._bit_factors, **kwargs)
        # Models without a 2×2 butterfly: per-column contraction with the
        # same scale folding.
        block = np.ascontiguousarray(block, dtype=np.float64)
        result = np.empty(block.shape, dtype=np.float64) if out is None else out
        for j in range(block.shape[1]):
            w = block[:, j].copy()
            if pre is not None:
                w *= pre if pre.ndim == 1 else pre[:, j]
            q = kron_matvec(self._blocks, w) if self._blocks is not None else self.mutation.apply(w)
            if post is not None:
                q = q * (post if post.ndim == 1 else post[:, j])
            result[:, j] = q
        return result

    def matvec(self, v: np.ndarray, *, column: int = 0) -> np.ndarray:
        """``W_column · v``; shared-mode operators have the single column 0."""
        v = self.check(v)
        if not self.per_column and column != 0:
            raise ValidationError("a shared-landscape Fmmp has a single column 0")
        columns = (column,) if self.per_column else None
        block = v.reshape(self.n, 1)
        if self._plan is None:
            return self._product(block, columns).reshape(self.n)
        scratch = self._scratch_pool.acquire(block.shape)
        try:
            out = self._product(block, columns, scratch=scratch)
        finally:
            self._scratch_pool.release(scratch)
        return out.reshape(self.n)

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
        if not self.per_column:
            if columns is not None:
                raise ValidationError("columns only applies to a per-column Fmmp")
        else:
            expected = len(columns) if columns is not None else self.batch
            if b != expected:
                raise ValidationError(
                    f"block has {b} columns but {expected} landscape columns were selected"
                )
        if b == 0:
            return np.empty((self.n, 0), dtype=np.float64) if out is None else out
        return self._product(arr, columns, out, scratch)

    # --------------------------------------------------------------- costs
    def costs(self, *, batch: int | None = None) -> OperatorCosts:
        """Costs of one product on a ``(N, batch)`` block (defaults to
        this operator's own column count).

        Butterfly models are costed from the sweep plan this operator
        runs (:func:`repro.perf.batched.batched_fmmp_costs`): ``⌈ν/4⌉``
        fused sweeps plus the folded diagonal scale passes — the paper's
        ``Θ(N log₂ N)``.  Grouped models are costed per column from their
        Kronecker contraction.
        """
        b = self.batch if batch is None else batch
        if b < 1:
            raise ValidationError(f"batch must be >= 1, got {b}")
        if self._blocks is None:
            # Lazy import: repro.perf pulls in modules that import the
            # operators package.
            from repro.perf.batched import batched_fmmp_costs

            return batched_fmmp_costs(self.mutation.nu, b, form=self.form, plan=self._plan)
        n = float(self.n)
        scale_passes = 2.0 if self.form == "symmetric" else 1.0
        # Σ per-group contraction cost: N * 2^{g_i} mults/adds each.
        contraction = sum(2.0 * n * (1 << g) for g in self.mutation.group_sizes)
        return OperatorCosts(
            flops=b * (contraction + scale_passes * n),
            bytes_moved=b * 8.0 * (2.0 * n * len(self._blocks) + 3.0 * scale_passes * n),
            storage_bytes=8.0 * n * self.batch,
            batch=b,
        )
