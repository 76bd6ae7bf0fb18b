"""Panel-parallel butterfly engine: the stage-fused kernel across cores.

The stage-fused batched kernel of :mod:`repro.transforms.batched` is
bandwidth-bound on a single core; this module runs the *identical*
sweep schedule on a persistent pool of worker threads, partitioning the
``(N, B)`` block into ``R = 2^r`` contiguous row **panels** on the high
index bits — the same layout under which
:class:`repro.distributed.partition.PartitionedVector` splits ranks.

Each fused sweep is one stacked ``matmul`` over GEMMs of a fixed shape
(see :func:`repro.transforms.batched._sweep_views`); the engine cuts the
run of stacked GEMMs into at most ``R`` contiguous work units and runs
the units of a sweep between two barriers.  A unit is either a run of
whole butterfly groups (the group lives inside one panel) or, for a
group wider than a panel, a run of that group's column chunks — the
unit then reads the partner panels' rows in place.  A slice of a
stacked ``matmul`` evaluates the very same per-item GEMMs as the whole
call, so together with the fixed ping-pong buffer parity of the serial
kernel the result is **bit-identical** to
:func:`~repro.transforms.batched.batched_butterfly_transform` for every
panel count and thread count (asserted across the whole model/form grid
in the tests).  Cutting *inside* a GEMM would not have this property
(BLAS picks a micro-kernel per shape, and for 16×16 factors narrow and
wide kernels round differently), so a sweep with fewer stacked GEMMs
than panels runs with fewer units.

NumPy releases the GIL inside the large slice kernels, so the panels
genuinely overlap on multicore hosts; see ``docs/performance.md`` for
the measured scaling and the auto-``R`` heuristic.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence

import numpy as np

from repro.bitops.panels import panel_bounds
from repro.exceptions import ValidationError
from repro.transforms.batched import (
    FusedStage,
    _apply_sweep,
    _prepare,
    _sweep_views,
    batched_butterfly_transform,
)

__all__ = [
    "PanelEngine",
    "PanelReducer",
    "parallel_butterfly_transform",
    "resolve_threads",
    "resolve_panels",
    "max_panels",
    "get_engine",
    "shutdown_engines",
    "THREADS_ENV",
]

#: Environment variable consulted when ``threads=None`` is passed.
THREADS_ENV = "REPRO_NUM_THREADS"

#: Per-sweep barrier timeout (seconds).  Generous: a sweep is a handful
#: of milliseconds even at ν = 24; hitting this means a worker died.
BARRIER_TIMEOUT_S = 120.0


def resolve_threads(threads: int | None) -> int:
    """Resolve a thread count: explicit value, else ``REPRO_NUM_THREADS``,
    else 1 (serial)."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValidationError(
                f"{THREADS_ENV} must be an integer, got {raw!r}"
            ) from exc
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)):
        raise ValidationError(f"threads must be an integer, got {threads!r}")
    threads = int(threads)
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    return threads


def max_panels(nu: int) -> int:
    """Largest admissible panel count ``R`` for a ν-bit transform:
    ``N/4`` (``N/2`` at ``ν = 1``).

    A sweep with fewer stacked GEMMs than panels (only at small ν)
    simply runs with fewer work units — see :func:`_stage_units`.
    """
    if nu < 1:
        raise ValidationError(f"nu must be >= 1, got {nu}")
    n = 1 << nu
    return max(1, n // (4 if nu >= 2 else 2))


def resolve_panels(
    panels: int | None,
    nu: int,
    *,
    threads: int = 1,
) -> int:
    """Resolve the panel count ``R`` (a power of two).

    ``panels=None`` auto-picks the smallest power of two ``>= threads``;
    explicit *and* auto values are clamped down to :func:`max_panels`
    (small ν simply cannot host many panels — the clamp keeps sweeps
    like ``R=4`` at ``ν=2`` well-defined instead of erroring).
    """
    cap = max_panels(nu)
    if panels is None:
        r = 1
        while r < threads:
            r <<= 1
        return min(r, cap)
    if isinstance(panels, bool) or not isinstance(panels, (int, np.integer)):
        raise ValidationError(f"panels must be an integer, got {panels!r}")
    panels = int(panels)
    if panels < 1 or (panels & (panels - 1)) != 0:
        raise ValidationError(f"panels must be a positive power of two, got {panels}")
    return min(panels, cap)


class _Aborted(BaseException):
    """Internal: a participant saw the barrier break — unwind quietly."""


class PanelEngine:
    """Persistent SPMD worker-thread pool with a per-sweep barrier.

    The engine owns ``threads − 1`` daemon workers; the caller itself is
    participant 0, so ``threads=1`` degenerates to a plain function call
    with no synchronization at all.  :meth:`run` hands every participant
    the same callable ``fn(t)``; inside it, participants call
    :meth:`barrier_wait` between sweeps.  An exception in any
    participant aborts the barrier, unwinds the others, and re-raises in
    the caller.

    Engines are cheap to keep alive (workers sleep on a condition
    variable between jobs) — use :func:`get_engine` for a shared,
    per-thread-count instance.
    """

    def __init__(self, threads: int):
        threads = resolve_threads(threads)
        self.threads = threads
        self._barrier = threading.Barrier(threads) if threads > 1 else None
        self._cond = threading.Condition()
        self._generation = 0
        self._fn = None
        self._pending = 0
        self._errors: list[BaseException] = []
        self._closed = False
        self._workers: list[threading.Thread] = []
        for t in range(1, threads):
            w = threading.Thread(
                target=self._worker_loop,
                args=(t,),
                daemon=True,
                name=f"repro-panel-{t}",
            )
            w.start()
            self._workers.append(w)

    # ------------------------------------------------------------- workers
    def _worker_loop(self, t: int) -> None:
        seen = 0
        while True:
            with self._cond:
                while self._generation == seen and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                seen = self._generation
                fn = self._fn
            try:
                fn(t)
            except _Aborted:
                pass
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                with self._cond:
                    self._errors.append(exc)
                if self._barrier is not None:
                    self._barrier.abort()
            finally:
                with self._cond:
                    self._pending -= 1
                    if self._pending == 0:
                        self._cond.notify_all()

    # ------------------------------------------------------------ dispatch
    def barrier_wait(self) -> None:
        """Sweep barrier: every participant must arrive before any may
        continue.  No-op for a single-threaded engine."""
        if self._barrier is None:
            return
        try:
            self._barrier.wait(timeout=BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            raise _Aborted() from None

    def run(self, fn) -> None:
        """Execute ``fn(t)`` on every participant ``t in [0, threads)``
        and wait for all of them; re-raises the first participant error."""
        if self.threads == 1:
            fn(0)
            return
        with self._cond:
            if self._closed:
                raise ValidationError("PanelEngine is closed")
            if self._pending:
                raise ValidationError("PanelEngine is already running a job")
            self._fn = fn
            self._errors.clear()
            self._pending = self.threads - 1
            self._generation += 1
            self._cond.notify_all()
        caller_exc: BaseException | None = None
        try:
            fn(0)
        except _Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            caller_exc = exc
            self._barrier.abort()
        with self._cond:
            while self._pending:
                self._cond.wait()
            errors = list(self._errors)
            self._errors.clear()
            self._fn = None
        broken = self._barrier.broken
        if broken:
            self._barrier.reset()
        if caller_exc is not None:
            raise caller_exc
        if errors:
            raise errors[0]
        if broken:
            raise ValidationError(
                "panel engine barrier broke without a recorded error "
                "(worker died or barrier timed out)"
            )

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for w in self._workers:
            w.join(timeout=5.0)


_ENGINES: dict[int, PanelEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(threads: int | None = None) -> PanelEngine:
    """Shared persistent engine for ``threads`` participants (workers
    sleep between jobs; repeated transforms reuse the same pool)."""
    threads = resolve_threads(threads)
    with _ENGINES_LOCK:
        engine = _ENGINES.get(threads)
        if engine is None:
            engine = PanelEngine(threads)
            _ENGINES[threads] = engine
        return engine


def shutdown_engines() -> None:
    """Close and drop every cached engine (tests / interpreter teardown)."""
    with _ENGINES_LOCK:
        engines = list(_ENGINES.values())
        _ENGINES.clear()
    for engine in engines:
        engine.close()


# ---------------------------------------------------------------- sweeps
def _scale_unit(
    src: np.ndarray, dst: np.ndarray, scale: np.ndarray, p: int, panels: int
) -> None:
    """Panel ``p``'s rows of the elementwise pre-scale sweep."""
    r0, r1 = panel_bounds(src.shape[0], panels, p)
    s = scale[r0:r1, None] if scale.ndim == 1 else scale[r0:r1]
    np.multiply(src[r0:r1], s, out=dst[r0:r1])


def _post_unit(out: np.ndarray, post: np.ndarray, p: int, panels: int) -> None:
    """Panel ``p``'s rows of the in-place post-scale epilogue."""
    r0, r1 = panel_bounds(out.shape[0], panels, p)
    s = post[r0:r1, None] if post.ndim == 1 else post[r0:r1]
    np.multiply(out[r0:r1], s, out=out[r0:r1])


def _stage_units(src: np.ndarray, stage: FusedStage, panels: int) -> int:
    """Work-unit count of one fused sweep: its stacked GEMMs cut into
    at most ``panels`` contiguous runs.

    A slice of a stacked ``matmul`` runs the very same per-item GEMMs as
    the whole call, so the bits never depend on the cut.  Cutting inside
    a GEMM would not be safe: its shape selects the BLAS micro-kernel,
    and for 16×16 factors kernels of different widths round differently.
    """
    s4, _, _ = _sweep_views(src, src, stage)
    return min(panels, s4.shape[0] * s4.shape[1])


def _stage_unit(
    src: np.ndarray, dst: np.ndarray, stage: FusedStage, p: int, units: int
) -> None:
    """Work unit ``p`` of ``units``: a contiguous run of the sweep's
    stacked GEMMs — whole groups, or a run of column chunks inside one
    group (a butterfly group wider than a panel: the unit reads the
    partner panels' rows in place)."""
    s4, d4, right = _sweep_views(src, dst, stage)
    g, m = s4.shape[:2]
    k0, k1 = p * g * m // units, (p + 1) * g * m // units
    if k1 - k0 >= m:
        sl = (slice(k0 // m, k1 // m),)
    else:
        sl = (k0 // m, slice(k0 % m, k0 % m + k1 - k0))
    _apply_sweep(s4[sl], d4[sl], stage, right)


def parallel_butterfly_transform(
    block: np.ndarray,
    factors: Sequence[np.ndarray],
    *,
    variant: str = "eq9",
    pre_scale: np.ndarray | None = None,
    post_scale: np.ndarray | None = None,
    plan: Sequence[FusedStage] | None = None,
    panels: int | None = None,
    threads: int | None = None,
    engine: PanelEngine | None = None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Panel-parallel :func:`~repro.transforms.batched.batched_butterfly_transform`.

    Identical semantics, arguments and — by construction — *bits*:
    for every ``(panels, threads)`` combination the output equals the
    serial fused kernel's exactly.

    Parameters
    ----------
    block, factors, variant, pre_scale, post_scale, plan, out, scratch:
        As for the serial kernel.
    panels:
        Panel count ``R`` (power of two); ``None`` auto-picks the
        smallest power of two ``>= threads``, clamped to
        :func:`max_panels`.
    threads:
        Participant count; ``None`` reads ``REPRO_NUM_THREADS``
        (default 1).  Ignored when ``engine`` is given.
    engine:
        A :class:`PanelEngine` to run on (defaults to the shared
        :func:`get_engine` pool for ``threads``).
    """
    work_in, pre, post, plan, out, scratch = _prepare(
        block, factors, variant, pre_scale, post_scale, plan, out, scratch
    )
    threads_n = engine.threads if engine is not None else resolve_threads(threads)
    panels_n = resolve_panels(panels, len(factors), threads=threads_n)
    if panels_n == 1:
        # One panel ⇒ the partitioned schedule is the serial schedule.
        return batched_butterfly_transform(
            work_in,
            factors,
            pre_scale=pre,
            post_scale=post,
            plan=plan,
            out=out,
            scratch=scratch,
        )
    steps = (1 if pre is not None else 0) + len(plan)
    eng = engine if engine is not None else get_engine(threads_n)
    nt = eng.threads

    def participant(t: int) -> None:
        # Fixed contiguous unit assignment: participant t executes work
        # units [t·R/T, (t+1)·R/T) of every sweep.  The unit→thread map
        # never affects the numbers (units are independent slices), so
        # any T gives the same bits.
        units = range(t * panels_n // nt, (t + 1) * panels_n // nt)
        src = work_in
        i = 0
        if pre is not None:
            dst = out if (steps - 1 - i) % 2 == 0 else scratch
            for p in units:
                _scale_unit(src, dst, pre, p, panels_n)
            eng.barrier_wait()
            src = dst
            i += 1
        for stage in plan:
            dst = out if (steps - 1 - i) % 2 == 0 else scratch
            u = _stage_units(src, stage, panels_n)
            for p in range(t * u // nt, (t + 1) * u // nt):
                _stage_unit(src, dst, stage, p, u)
            eng.barrier_wait()
            src = dst
            i += 1
        if post is not None:
            for p in units:
                _post_unit(out, post, p, panels_n)

    eng.run(participant)
    return out


# -------------------------------------------------------------- reducers
class PanelReducer:
    """Deterministic panel-partitioned reductions for the solver loop.

    Norms, Rayleigh quotients and residuals of the power iteration are
    computed as **per-panel partial sums combined in fixed panel order**
    (left to right), so a threaded solve produces byte-identical
    reductions on every run and for every thread count: each panel's
    partial is an ordinary NumPy reduction over a fixed slice, and the
    cross-panel combination is an explicit ordered loop.

    2-D inputs reduce along axis 0 (per column), matching the block
    power iteration's lock-step quantities.
    """

    def __init__(self, panels: int, *, engine: PanelEngine | None = None):
        if isinstance(panels, bool) or not isinstance(panels, (int, np.integer)):
            raise ValidationError(f"panels must be an integer, got {panels!r}")
        panels = int(panels)
        if panels < 1 or (panels & (panels - 1)) != 0:
            raise ValidationError(
                f"panels must be a positive power of two, got {panels}"
            )
        self.panels = panels
        self.engine = engine

    # ----------------------------------------------------------- plumbing
    def _bounds(self, n: int, p: int) -> tuple[int, int]:
        if n % self.panels != 0:
            raise ValidationError(
                f"array of {n} rows is not divisible into {self.panels} panels"
            )
        return panel_bounds(n, self.panels, p)

    def _partials(self, arrays: tuple[np.ndarray, ...], unit) -> list:
        """Per-panel partials ``unit(p, *panel_slices)`` — optionally
        computed by the engine's workers, always *combined* by the
        caller in panel order."""
        n = arrays[0].shape[0]
        slots: list = [None] * self.panels
        eng = self.engine

        def fill(p: int) -> None:
            r0, r1 = self._bounds(n, p)
            slots[p] = unit(*(a[r0:r1] for a in arrays))

        if eng is not None and eng.threads > 1:
            nt = eng.threads

            def participant(t: int) -> None:
                for p in range(t * self.panels // nt, (t + 1) * self.panels // nt):
                    fill(p)

            eng.run(participant)
        else:
            for p in range(self.panels):
                fill(p)
        return slots

    @staticmethod
    def _combine(slots: list):
        total = slots[0]
        for part in slots[1:]:
            total = total + part
        return total

    # ---------------------------------------------------------- reductions
    def abs_sum(self, x: np.ndarray):
        """``‖x‖₁`` (1-D) or per-column 1-norms (2-D, axis 0)."""
        x = np.asarray(x)
        if x.ndim == 1:
            slots = self._partials((x,), lambda a: float(np.abs(a).sum()))
            return float(self._combine(slots))
        slots = self._partials((x,), lambda a: np.abs(a).sum(axis=0))
        return self._combine(slots)

    def sq_sum(self, x: np.ndarray):
        """``‖x‖₂²`` (1-D) or per-column squared 2-norms (2-D)."""
        x = np.asarray(x)
        if x.ndim == 1:
            slots = self._partials((x,), lambda a: float(np.dot(a, a)))
            return float(self._combine(slots))
        slots = self._partials((x,), lambda a: (a * a).sum(axis=0))
        return self._combine(slots)

    def norm(self, x: np.ndarray):
        """``‖x‖₂`` (per column for 2-D input)."""
        s = self.sq_sum(x)
        return float(np.sqrt(s)) if np.isscalar(s) else np.sqrt(s)

    def diff_norm(self, x: np.ndarray, y: np.ndarray):
        """``‖x − y‖₂`` without materializing the full difference
        (per column for 2-D inputs) — the residual kernel."""
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape:
            raise ValidationError(
                f"diff_norm operands disagree: {x.shape} vs {y.shape}"
            )
        if x.ndim == 1:
            slots = self._partials(
                (x, y), lambda a, b: float(((a - b) ** 2).sum())
            )
            return float(np.sqrt(self._combine(slots)))
        slots = self._partials((x, y), lambda a, b: ((a - b) ** 2).sum(axis=0))
        return np.sqrt(self._combine(slots))

    def dot(self, x: np.ndarray, y: np.ndarray):
        """``xᵀy`` (per column for 2-D inputs) — the Rayleigh-quotient
        numerator."""
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape:
            raise ValidationError(f"dot operands disagree: {x.shape} vs {y.shape}")
        if x.ndim == 1:
            slots = self._partials((x, y), lambda a, b: float(np.dot(a, b)))
            return float(self._combine(slots))
        slots = self._partials((x, y), lambda a, b: (a * b).sum(axis=0))
        return self._combine(slots)

    def rayleigh(self, x: np.ndarray, y: np.ndarray):
        """Rayleigh quotient ``xᵀy / xᵀx`` (``y = W·x``), panel-ordered."""
        num = self.dot(x, y)
        den = self.sq_sum(x)
        return num / den
