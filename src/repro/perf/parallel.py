"""Threaded roofline model + scaling measurement for the panel engine.

The panel-parallel kernel (:mod:`repro.transforms.parallel`) runs the
same fused sweep schedule as the serial batched kernel, so its *byte
count* is unchanged — what threading buys is **aggregate bandwidth**,
and what it costs is **per-sweep synchronization** plus load imbalance
when the panel count doesn't divide evenly across participants.  The
model here is the serial bytes model of
:func:`repro.perf.batched.batched_fmmp_costs` plus three host knobs:

* ``single_core_gbs`` — one streaming core's effective bandwidth;
* ``contention`` — memory-bus saturation: ``T`` streaming threads
  sustain ``T / (1 + contention·(T−1))`` times one core's bandwidth
  (``contention=0`` is perfect scaling, ``1`` is a fully serialized
  bus);
* ``barrier_s`` — one barrier rendezvous, paid once per sweep.

With those, the modeled wall-clock of a ``(ν, B, R, T)`` transform is

    t(R, T) = bytes · ⌈R/T⌉/R / (BW₁ · sat(T)/T) + sweeps · barrier_s

— ``⌈R/T⌉/R`` is the critical-path share of the busiest participant and
``BW₁·sat(T)/T`` the per-thread slice of the saturated aggregate
bandwidth (so at ``R = T`` the speedup tends to ``sat(T)``).  :func:`modeled_thread_speedup` is ``t(serial)/t(R,T)``;
:func:`auto_panels` picks the ``R`` that maximizes it (falling back to
``R = 1``, i.e. the serial kernel, whenever threading cannot win — tiny
ν is all barrier, no bandwidth).  The measured counterparts back the
model with wall-clock numbers for ``benchmarks/bench_parallel.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.perf.batched import batched_fmmp_costs, _form_passes
from repro.transforms.batched import fused_stage_count
from repro.transforms.parallel import max_panels, resolve_panels, resolve_threads
from repro.util.timing import TimingResult, median_time

__all__ = [
    "HostModel",
    "DEFAULT_HOST",
    "ParallelCosts",
    "parallel_fmmp_costs",
    "modeled_thread_speedup",
    "modeled_thread_crossover",
    "auto_panels",
    "ParallelMeasurement",
    "measure_parallel_matmat",
    "measured_thread_scaling",
    "measured_thread_crossover",
]


@dataclass(frozen=True)
class HostModel:
    """The three knobs of the threaded roofline (see module docstring)."""

    single_core_gbs: float = 12.0
    contention: float = 0.15
    barrier_s: float = 5e-6

    def saturation(self, threads: int) -> float:
        """Aggregate-bandwidth multiplier of ``threads`` streaming cores."""
        if threads < 1:
            raise ValidationError(f"threads must be >= 1, got {threads}")
        return threads / (1.0 + self.contention * (threads - 1))


DEFAULT_HOST = HostModel()


@dataclass(frozen=True)
class ParallelCosts:
    """Modeled execution of one panel-parallel ``(N, B)`` product.

    Attributes
    ----------
    nu, batch, threads, panels:
        The configuration (``panels`` resolved, power of two).
    bytes_moved:
        Total block traffic — identical to the serial fused kernel's
        (the partition moves no extra bytes).
    bytes_critical:
        The busiest participant's share (load imbalance included).
    sweeps:
        Barrier-synchronized steps (fused sweeps + folded scale passes).
    modeled_time_s:
        Modeled wall-clock under the :class:`HostModel`.
    """

    nu: int
    batch: int
    threads: int
    panels: int
    bytes_moved: float
    bytes_critical: float
    sweeps: int
    modeled_time_s: float


def _steps(nu: int, form: str) -> int:
    """Barrier-separated steps: fused sweeps plus the pre-scale sweep
    (the post-scale epilogue rides the final barrier)."""
    pre, post = _form_passes(form)
    return fused_stage_count(nu) + (1 if pre else 0) + (1 if post else 0)


def parallel_fmmp_costs(
    nu: int,
    batch: int,
    *,
    threads: int = 1,
    panels: int | None = None,
    form: str = "right",
    host: HostModel = DEFAULT_HOST,
) -> ParallelCosts:
    """Threaded roofline for one panel-parallel Fmmp product."""
    threads = resolve_threads(threads)
    serial = batched_fmmp_costs(nu, batch, form=form)
    r = resolve_panels(panels, nu, threads=threads)
    t_eff = min(threads, r)  # more threads than panels just idle
    units_critical = -(-r // t_eff)  # ceil(R/T): busiest participant
    bytes_critical = serial.bytes_moved * units_critical / r
    sweeps = _steps(nu, form)
    # Each of the T streaming participants sustains its 1/T share of the
    # saturated aggregate bandwidth BW₁·sat(T); the busiest one carries
    # ``bytes_critical`` of traffic at that per-thread rate.
    bw_per_thread = host.single_core_gbs * 1e9 * host.saturation(t_eff) / t_eff
    time_s = bytes_critical / bw_per_thread
    if threads > 1 and r > 1:
        time_s += sweeps * host.barrier_s
    return ParallelCosts(
        nu=nu,
        batch=batch,
        threads=threads,
        panels=r,
        bytes_moved=serial.bytes_moved,
        bytes_critical=bytes_critical,
        sweeps=sweeps,
        modeled_time_s=time_s,
    )


def modeled_thread_speedup(
    nu: int,
    batch: int,
    threads: int,
    *,
    panels: int | None = None,
    form: str = "right",
    host: HostModel = DEFAULT_HOST,
) -> float:
    """Modeled wall-clock speedup of ``threads`` panel workers over the
    serial fused kernel (same bytes, more bandwidth, plus barriers)."""
    serial = parallel_fmmp_costs(
        nu, batch, threads=1, panels=1, form=form, host=host
    )
    par = parallel_fmmp_costs(
        nu,
        batch,
        threads=threads,
        panels=panels,
        form=form,
        host=host,
    )
    return serial.modeled_time_s / par.modeled_time_s


def auto_panels(
    nu: int,
    batch: int,
    *,
    threads: int,
    form: str = "right",
    host: HostModel = DEFAULT_HOST,
) -> int:
    """Roofline-guided panel count for ``(ν, B, threads)``.

    Evaluates every power-of-two ``R`` up to ``min(2^⌈log₂T⌉,
    max_panels)`` and returns the smallest one attaining the best
    modeled speedup; degenerates to ``R = 1`` (serial kernel) whenever
    threading is modeled to lose — small ν is barrier-dominated.
    """
    threads = resolve_threads(threads)
    if threads == 1:
        return 1
    cap = max_panels(nu)
    best_r, best_s = 1, 1.0
    r = 2
    top = 1
    while top < threads:
        top <<= 1
    while r <= min(top, cap):
        s = modeled_thread_speedup(
            nu, batch, threads, panels=r, form=form, host=host
        )
        if s > best_s:
            best_r, best_s = r, s
        r <<= 1
    return best_r


def modeled_thread_crossover(
    nu: int,
    batch: int,
    *,
    target_speedup: float = 1.8,
    max_threads: int = 64,
    form: str = "right",
    host: HostModel = DEFAULT_HOST,
) -> int | None:
    """Smallest thread count whose modeled speedup reaches the target
    (``None`` when even ``max_threads`` cannot — e.g. tiny ν)."""
    if target_speedup <= 0.0:
        raise ValidationError(f"target_speedup must be > 0, got {target_speedup}")
    t = 2
    while t <= max_threads:
        if (
            modeled_thread_speedup(
                nu, batch, t, form=form, host=host
            )
            >= target_speedup
        ):
            return t
        t *= 2
    return None


# --------------------------------------------------------------- measured
@dataclass(frozen=True)
class ParallelMeasurement:
    """One measured serial-vs-threaded comparison point."""

    nu: int
    batch: int
    threads: int
    panels: int
    serial_s: float
    parallel_s: float

    @property
    def speedup(self) -> float:
        """Wall-clock speedup of the threaded transform over serial."""
        return self.serial_s / self.parallel_s

    @property
    def serial_gbs(self) -> float:
        return (
            batched_fmmp_costs(self.nu, self.batch).bytes_moved / self.serial_s / 1e9
        )

    @property
    def parallel_gbs(self) -> float:
        return (
            batched_fmmp_costs(self.nu, self.batch).bytes_moved
            / self.parallel_s
            / 1e9
        )

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "batch": self.batch,
            "threads": self.threads,
            "panels": self.panels,
            "serial_s": self.serial_s,
            "parallel_s": self.parallel_s,
            "speedup": self.speedup,
            "serial_gbs": self.serial_gbs,
            "parallel_gbs": self.parallel_gbs,
        }


def measure_parallel_matmat(
    nu: int,
    batch: int,
    threads: int,
    *,
    panels: int | None = None,
    form: str = "right",
    p: float = 0.01,
    repeats: int = 3,
    min_time: float = 0.01,
) -> ParallelMeasurement:
    """Time the serial fused kernel vs the panel engine on one block.

    BLAS threading is pinned to one thread for the duration (engine
    threads are the parallelism; see :mod:`repro.util.blas`) so the
    comparison is engine scaling, not BLAS scaling.
    """
    # Local imports: repro.operators lazily imports this module.
    from repro.mutation.uniform import UniformMutation
    from repro.transforms.batched import batched_butterfly_transform
    from repro.transforms.parallel import get_engine, parallel_butterfly_transform
    from repro.util.blas import blas_limit

    threads = resolve_threads(threads)
    r = (
        auto_panels(nu, batch, threads=threads, form=form)
        if panels is None
        else resolve_panels(panels, nu, threads=threads)
    )
    factors = UniformMutation(nu, p).factors_per_bit()
    n = 1 << nu
    rng = np.random.default_rng(nu)
    block = np.ascontiguousarray(rng.random((n, batch)) + 0.5)
    pre = np.ascontiguousarray(rng.random(n) + 0.5)
    out = np.empty_like(block)
    scratch = np.empty_like(block)
    engine = get_engine(threads)

    with blas_limit(1):
        serial: TimingResult = median_time(
            lambda: batched_butterfly_transform(
                block, factors, pre_scale=pre, out=out, scratch=scratch
            ),
            repeats=repeats,
            min_time=min_time,
        )
        parallel: TimingResult = median_time(
            lambda: parallel_butterfly_transform(
                block,
                factors,
                pre_scale=pre,
                panels=r,
                engine=engine,
                out=out,
                scratch=scratch,
            ),
            repeats=repeats,
            min_time=min_time,
        )
    return ParallelMeasurement(
        nu=nu,
        batch=batch,
        threads=threads,
        panels=r,
        serial_s=serial.median,
        parallel_s=parallel.median,
    )


def measured_thread_scaling(
    nu: int,
    batch: int,
    threads: tuple[int, ...] = (1, 2, 4, 8),
    *,
    form: str = "right",
    repeats: int = 3,
    min_time: float = 0.01,
) -> list[ParallelMeasurement]:
    """Measured scaling curve over thread counts (one block size)."""
    return [
        measure_parallel_matmat(
            nu, batch, t, form=form, repeats=repeats, min_time=min_time
        )
        for t in threads
    ]


def measured_thread_crossover(
    nu: int,
    batch: int,
    *,
    target_speedup: float = 1.8,
    threads: tuple[int, ...] = (2, 4, 8),
    form: str = "right",
    repeats: int = 3,
    min_time: float = 0.01,
) -> int | None:
    """Smallest measured thread count reaching ``target_speedup`` over
    the serial kernel (``None`` if none of the probed counts does —
    including on hosts without enough cores to scale at all)."""
    for t in threads:
        m = measure_parallel_matmat(
            nu, batch, t, form=form, repeats=repeats, min_time=min_time
        )
        if m.speedup >= target_speedup:
            return t
    return None
