"""Span recording around the package's layer boundaries, from outside.

The benchmark does not edit the package: :func:`traced` swaps each
public function or method named in :data:`TARGETS` for a thin wrapper
that opens a span, calls the original and closes the span, and puts the
originals back when the block ends.  Spans live in memory, one stack per
thread with a parent id, and are written out as JSON lines afterwards.

A name that no longer exists (a later change deleted that path) is
skipped and reported in :attr:`Tracer.missing`; the layer metrics fed
only by missing names are then reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass


# ------------------------------------------------------------ span attributes
def _rows_cols(arr) -> dict:
    shape = getattr(arr, "shape", ())
    if len(shape) == 1:
        return {"n": int(shape[0]), "b": 1}
    if len(shape) == 2:
        return {"n": int(shape[0]), "b": int(shape[1])}
    return {}


def _arg_block(args, kwargs, out):
    """Rows and columns of the vector or block a product was applied to."""
    if len(args) > 1:
        return _rows_cols(args[1])
    return _rows_cols(kwargs.get("v", kwargs.get("block")))


def _kernel_block(args, kwargs, out):
    return _rows_cols(args[0] if args else kwargs.get("block"))


def _iterations(args, kwargs, out):
    return {"iterations": int(getattr(out, "iterations", 0))}


def _sweeps(args, kwargs, out):
    return {"sweeps": int(getattr(out, "sweeps", 0))}


def _lookup(args, kwargs, out):
    return {"hit": int(out[0] is not None)}


def _plan(args, kwargs, out):
    return {"requests": int(out.n_jobs), "duplicates": int(out.n_duplicates)}


def _report(args, kwargs, out):
    solved = [t for t in out.telemetry if t.status != "cached"]
    return {
        "busy_s": sum(t.solve_seconds for t in solved),
        "wait_s": sum(t.queue_seconds for t in solved),
        "solved": sum(1 for t in solved if t.status == "solved"),
        "fallbacks": sum(1 for t in solved if t.fallback_used),
        "retries": sum(max(0, t.attempts - 1) for t in solved),
    }


@dataclass(frozen=True)
class Target:
    """One wrapped boundary: ``module:qualname``, the layer kind its spans
    count towards, and what to record from its arguments and result."""

    module: str
    qualname: str
    kind: str
    attrs: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


#: Every boundary the traced run wraps.  ``Fmmp._q_fast`` is the legacy
#: butterfly loop the default scalar ``Fmmp.matvec`` still runs; it is
#: counted as kernel time so ``transforms.kernel_s`` covers the scalar
#: solve too, and it drops out (reported absent) once that path is gone.
TARGETS = (
    Target("repro.service.service", "SolverService.submit", "service.submit", _report),
    Target("repro.service.jobspec", "SolveJob.content_key", "service.hash"),
    Target("repro.service.jobspec", "SolveJob.cache_key", "service.hash"),
    Target("repro.service.jobspec", "SolveJob.operator_key", "service.hash"),
    Target("repro.service.service", "plan_batch", "service.plan", _plan),
    Target("repro.service.service", "plan_batched_jobs", "service.plan"),
    Target("repro.service.cache", "ResultCache.lookup", "service.cache", _lookup),
    Target("repro.service.cache", "ResultCache.store", "service.cache"),
    Target("repro.service.pool", "WorkerPool.run", "service.pool"),
    Target("repro.service.pool", "WorkerPool.run_batched", "service.pool"),
    Target("repro.service.pool", "execute_job", "service.worker"),
    Target("repro.service.pool", "execute_batched_job", "service.worker"),
    Target("repro.model.quasispecies", "QuasispeciesModel.solve", "model.solve"),
    Target("repro.solvers.power", "PowerIteration.solve", "solvers.power", _iterations),
    Target("repro.solvers.power", "BlockPowerIteration.solve", "solvers.power", _sweeps),
    Target("repro.solvers.reduced", "ReducedSolver.solve", "solvers.reduced"),
    Target("repro.operators.shifted", "ShiftedOperator.matvec", "operators.shift"),
    Target("repro.operators.fmmp", "Fmmp.matvec", "operators.product", _arg_block),
    Target("repro.operators.batched", "BatchedFmmp.matmat", "operators.product", _arg_block),
    Target("repro.operators.fmmp", "Fmmp._q_fast", "transforms.kernel", _arg_block),
    Target(
        "repro.transforms.batched",
        "batched_butterfly_transform",
        "transforms.kernel",
        _kernel_block,
    ),
    Target("repro.transforms.batched", "fused_stage_plan", "transforms.plan"),
)


# ------------------------------------------------------------------ tracer
class Tracer:
    """In-memory span store with one open-span stack per thread.

    A span opened on a worker thread with an empty stack takes as parent
    the innermost span open on the main thread at that moment (the pool
    call that dispatched it), so worker time nests under the caller.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_top = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, kind: str, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            on_main = threading.get_ident() == tracer._main
            parent = stack[-1] if stack else (0 if on_main else tracer._main_top)
            sid = next(tracer._ids)
            stack.append(sid)
            if on_main:
                tracer._main_top = sid
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if on_main:
                    tracer._main_top = stack[-1] if stack else 0
            extra = attrs(args, kwargs, out) if attrs is not None else {}
            tracer.spans.append((sid, parent, kind, threading.get_ident(), t0, t1, extra))
            return out

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, kind, thread, t0, t1, extra in self.spans:
                row = {"id": sid, "parent": parent, "name": kind, "thread": thread,
                       "start": t0, "end": t1, **extra}
                fh.write(json.dumps(row) + "\n")


def _resolve(target: Target):
    """``(owner, attribute name, original)`` for a target, or ``None``."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    owner = module
    *path, name = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        fn = owner.__dict__.get(name)
    else:
        fn = getattr(owner, name, None)
    if not callable(fn):
        return None
    return owner, name, fn


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block.

    A module-level function is replaced in every loaded ``repro`` module
    that binds it, so call sites that imported it by name are traced
    too.  Everything is restored on exit.
    """
    patches: list[tuple[object, str, object]] = []
    tracer.missing = []
    try:
        for target in tracer.targets:
            found = _resolve(target)
            if found is None:
                tracer.missing.append(target.name)
                continue
            owner, name, fn = found
            wrapper = tracer.wrap(fn, target.kind, target.attrs)
            if isinstance(owner, type):
                patches.append((owner, name, fn))
                setattr(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "repro" and getattr(mod, name, None) is fn:
                    patches.append((mod, name, fn))
                    setattr(mod, name, wrapper)
        yield tracer
    finally:
        for owner, name, fn in reversed(patches):
            setattr(owner, name, fn)


# ---------------------------------------------------------------- summary
def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its children.

    Children on worker threads may overlap each other, so the covered
    part is the union of the children's intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _kind, _th, t0, t1, _x in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _kind, _th, t0, t1, _x in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_table(spans) -> dict[str, dict]:
    """Per span kind: calls, summed duration and summed self time."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for sid, _parent, kind, _th, t0, t1, _x in spans:
        row = table.setdefault(kind, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += selfs[sid]
    busy = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["share"] = row["self_s"] / busy if busy > 0 else 0.0
    return table


def nominal_bytes(n: int, b: int) -> float:
    """Fixed nominal traffic of one (N, B) butterfly product: ``16·N·B·ν``
    (one read and one write of 8 bytes per element per stage).  Computed,
    not measured."""
    return 16.0 * n * b * math.log2(n) if n > 1 else 0.0


#: per-layer metric → span kinds it is computed from (absent when every
#: target feeding those kinds is missing).
METRIC_SOURCES = {
    "transforms.kernel_s": ("transforms.kernel",),
    "transforms.eff_gbs": ("transforms.kernel",),
    "transforms.plan_s": ("transforms.plan",),
    "transforms.plan_calls": ("transforms.plan",),
    "operators.self_s": ("operators.product", "operators.shift"),
    "operators.calls": ("operators.product",),
    "operators.columns": ("operators.product",),
    "operators.s_per_vector": ("operators.product",),
    "operators.eff_gbs": ("operators.product",),
    "solvers.self_s": ("solvers.power",),
    "solvers.share": ("solvers.power",),
    "solvers.iterations": ("solvers.power",),
    "solvers.block_sweeps": ("solvers.power",),
    "solvers.reduced_s": ("solvers.reduced",),
    "service.hash_s": ("service.hash",),
    "service.hash_calls": ("service.hash",),
    "service.plan_s": ("service.plan",),
    "service.cache_s": ("service.cache",),
    "service.cache_hit_ratio": ("service.cache",),
    "service.dedup_ratio": ("service.plan",),
    "service.pool_busy_s": ("service.submit",),
    "service.pool_wait_s": ("service.submit",),
    "service.fallback_ratio": ("service.submit",),
    "service.retries": ("service.submit",),
}


def layer_metrics(spans, cycles: int, missing_kinds: set[str]) -> dict[str, float]:
    """The per-layer metrics: totals per traced cycle (a cold pass and its
    warm resubmits), ratios over all cycles.

    Metrics whose every source kind is in ``missing_kinds`` are left out.
    """
    cycles = max(1, cycles)
    selfs = self_times(spans)
    by_kind: dict[str, list] = {}
    for span in spans:
        by_kind.setdefault(span[2], []).append(span)

    def self_of(*kinds):
        return sum(selfs[s[0]] for k in kinds for s in by_kind.get(k, ()))

    def attr_sum(kind, key):
        return sum(s[6].get(key, 0) for s in by_kind.get(kind, ()))

    kinds_of = {s[0]: s[2] for s in spans}
    kernel_s = self_of("transforms.kernel")
    kernel_bytes = sum(nominal_bytes(s[6]["n"], s[6]["b"])
                       for s in by_kind.get("transforms.kernel", ()) if "n" in s[6])
    products = by_kind.get("operators.product", [])
    columns = sum(s[6].get("b", 0) for s in products)
    product_bytes = sum(nominal_bytes(s[6]["n"], s[6]["b"]) for s in products if "n" in s[6])
    # outermost operator calls (a shift wrapper around a product counts once)
    op_kinds = ("operators.product", "operators.shift")
    op_time = sum(s[5] - s[4] for k in op_kinds for s in by_kind.get(k, ())
                  if kinds_of.get(s[1]) not in op_kinds)
    solver_self = self_of("solvers.power")
    busy = sum(selfs.values())
    hits = attr_sum("service.cache", "hit")
    n_lookups = sum(1 for s in by_kind.get("service.cache", ()) if "hit" in s[6])
    requests = attr_sum("service.plan", "requests")
    solved = attr_sum("service.submit", "solved")

    metrics = {
        "transforms.kernel_s": kernel_s / cycles,
        "transforms.eff_gbs": kernel_bytes / kernel_s / 1e9 if kernel_s > 0 else 0.0,
        "transforms.plan_s": self_of("transforms.plan") / cycles,
        "transforms.plan_calls": len(by_kind.get("transforms.plan", ())) / cycles,
        "operators.self_s": self_of(*op_kinds) / cycles,
        "operators.calls": len(products) / cycles,
        "operators.columns": columns / cycles,
        "operators.s_per_vector": op_time / columns if columns else 0.0,
        "operators.eff_gbs": product_bytes / op_time / 1e9 if op_time > 0 else 0.0,
        "solvers.self_s": solver_self / cycles,
        "solvers.share": solver_self / busy if busy > 0 else 0.0,
        "solvers.iterations": attr_sum("solvers.power", "iterations") / cycles,
        "solvers.block_sweeps": attr_sum("solvers.power", "sweeps") / cycles,
        "solvers.reduced_s": self_of("solvers.reduced") / cycles,
        "service.hash_s": self_of("service.hash") / cycles,
        "service.hash_calls": len(by_kind.get("service.hash", ())) / cycles,
        "service.plan_s": self_of("service.plan") / cycles,
        "service.cache_s": self_of("service.cache") / cycles,
        "service.cache_hit_ratio": hits / n_lookups if n_lookups else 0.0,
        "service.dedup_ratio": (attr_sum("service.plan", "duplicates") / requests
                                if requests else 0.0),
        "service.pool_busy_s": attr_sum("service.submit", "busy_s") / cycles,
        "service.pool_wait_s": attr_sum("service.submit", "wait_s") / cycles,
        "service.fallback_ratio": (attr_sum("service.submit", "fallbacks") / solved
                                   if solved else 0.0),
        "service.retries": attr_sum("service.submit", "retries") / cycles,
    }
    return {
        name: value for name, value in metrics.items()
        if not set(METRIC_SOURCES[name]) <= missing_kinds
    }


def missing_kinds(tracer: Tracer) -> set[str]:
    """Span kinds none of whose targets could be wrapped."""
    present = {t.kind for t in tracer.targets if t.name not in tracer.missing}
    return {t.kind for t in tracer.targets} - present
