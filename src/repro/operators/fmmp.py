"""``Fmmp`` — the paper's fast mutation matrix product (Sec. 2).

Exact ``W·v`` in ``Θ(N log₂ N)`` with no matrix storage at all: the
Kronecker factorization of ``Q`` turns the product into a ν-stage
butterfly (Eq. 9 / Eq. 10, Algorithm 1), run as the ``⌈ν/4⌉`` fused
sweeps of :mod:`repro.transforms.batched` with the diagonal ``F``
scalings folded in.  Works unchanged for the
generalized mutation models of Sec. 2.2 — per-site factors run through
the same butterfly, grouped factors through the multilinear Kronecker
contraction.

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

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.mutation.grouped import GroupedMutation
from repro.mutation.persite import PerSiteMutation
from repro.mutation.uniform import UniformMutation
from repro.operators.base import FormMixin, ImplicitOperator, OperatorCosts
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


class Fmmp(ImplicitOperator, FormMixin):
    """Fast mutation matrix product operator for ``W`` (Eqs. 3–5 forms).

    Parameters
    ----------
    mutation:
        Any :class:`~repro.mutation.base.MutationModel`; butterfly path
        for 2×2-factored models, Kronecker contraction for grouped ones.
    landscape:
        The fitness landscape.
    form:
        ``right``/``symmetric``/``left``.
    variant:
        ``"eq9"`` (ascending spans, Algorithm 1) or ``"eq10"``
        (descending spans).
    threads:
        Panel-engine thread count (``None`` reads ``REPRO_NUM_THREADS``,
        default 1).  With ``threads > 1`` (or an explicit ``panels``)
        2×2-factored models route :meth:`matvec` through the
        panel-parallel engine
        (:func:`repro.transforms.parallel.parallel_butterfly_transform`),
        which runs the same sweep plan as the default serial kernel;
        the output is **bit-identical** to the default for every
        ``(threads, panels)`` combination.  Grouped models have no
        butterfly to parallelize and silently stay on their serial
        contraction.
    panels:
        Panel count ``R`` (power of two) for the parallel kernel;
        defaults to the roofline model's
        :func:`repro.perf.parallel.auto_panels` pick for
        ``(ν, 1, threads)``.

    Examples
    --------
    >>> from repro.mutation import UniformMutation
    >>> from repro.landscapes import SinglePeakLandscape
    >>> op = Fmmp(UniformMutation(10, 0.01), SinglePeakLandscape(10))
    >>> y = op.matvec(op.landscape.start_vector())
    >>> y.shape
    (1024,)
    """

    def __init__(
        self,
        mutation: MutationModel,
        landscape: FitnessLandscape,
        form: str = "right",
        variant: str = "eq9",
        *,
        threads: int | None = None,
        panels: int | None = None,
    ):
        if mutation.nu != landscape.nu:
            raise ValidationError(
                f"mutation (nu={mutation.nu}) and landscape (nu={landscape.nu}) disagree"
            )
        if variant not in _VARIANTS:
            raise ValidationError(f"variant must be one of {_VARIANTS}, got {variant!r}")
        self.mutation = mutation
        self.variant = variant
        self.n = mutation.n
        self._init_form(landscape, form)

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
            # The one (N, 1) scratch block of the ping-pong schedule is
            # acquired per call from a bounded keyed pool, so concurrent
            # workers can share one operator instance.
            self._scratch_pool = ScratchPool()
            if parallel_requested:
                from repro.perf.parallel import auto_panels

                if panels is None:
                    self.panels = auto_panels(
                        mutation.nu, 1, threads=self.threads
                    )
                else:
                    self.panels = resolve_panels(
                        panels, mutation.nu, threads=self.threads
                    )
                self._engine = get_engine(self.threads)
                self.panel_reducer = PanelReducer(self.panels, engine=self._engine)
        elif isinstance(mutation, GroupedMutation):
            self._bit_factors = None
            self._blocks = mutation.blocks()
        else:  # pragma: no cover - future models fall back to .apply
            self._bit_factors = None
            self._blocks = None
        self._parallel = parallel_requested and self._plan is not None

    # ------------------------------------------------------------- product
    def _q_contract(self, w: np.ndarray) -> np.ndarray:
        """``Q·w`` for models without a 2×2 butterfly (never in place)."""
        if self._blocks is not None:
            return kron_matvec(self._blocks, w)
        return self.mutation.apply(w)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = self.check(v)
        if self._plan is None:
            return self._apply_form(v, self._q_contract)
        # The diagonal F/F^{1/2} scalings fold into the sweep schedule,
        # exactly as in BatchedFmmp.matmat.
        if self.form == "right":
            pre, post = self._f, None
        elif self.form == "symmetric":
            pre, post = self._sqrt_f, self._sqrt_f
        else:  # left
            pre, post = None, self._f
        shape = (self.n, 1)
        scratch = self._scratch_pool.acquire(shape)
        kwargs = dict(pre_scale=pre, post_scale=post, plan=self._plan, scratch=scratch)
        try:
            if self._parallel:
                out = parallel_butterfly_transform(
                    v.reshape(shape),
                    self._bit_factors,
                    panels=self.panels,
                    engine=self._engine,
                    **kwargs,
                )
            else:
                out = batched_butterfly_transform(v.reshape(shape), self._bit_factors, **kwargs)
        finally:
            self._scratch_pool.release(scratch)
        return out.reshape(self.n)

    @property
    def is_symmetric(self) -> bool:
        return self.form == "symmetric" and self.mutation.is_symmetric

    def costs(self, *, batch: int = 1) -> OperatorCosts:
        """Costs of one product on a ``(N, batch)`` block.

        Butterfly models are costed from the sweep plan this operator
        runs (:func:`repro.perf.batched.batched_fmmp_costs`): ``⌈ν/4⌉``
        fused sweeps plus the folded diagonal scale passes — the paper's
        ``Θ(N log₂ N)``.  Grouped models are costed per column from their
        Kronecker contraction.
        """
        if batch < 1:
            raise ValidationError(f"batch must be >= 1, got {batch}")
        if self._blocks is None:
            # Lazy import: repro.perf pulls in modules that import the
            # operators package.
            from repro.perf.batched import batched_fmmp_costs

            return batched_fmmp_costs(
                self.mutation.nu, batch, form=self.form, plan=self._plan
            )
        n = float(self.n)
        scale_passes = 2.0 if self.form == "symmetric" else 1.0
        # Σ per-group contraction cost: N * 2^{g_i} mults/adds each.
        contraction = sum(2.0 * n * (1 << b) for b in self.mutation.group_sizes)
        return OperatorCosts(
            flops=batch * (contraction + scale_passes * n),
            bytes_moved=batch * 8.0 * (2.0 * n * len(self._blocks) + 3.0 * scale_passes * n),
            storage_bytes=8.0 * n,
            batch=batch,
        )
