#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve_nu20 --seed 1 --seconds 30 --trace 0

Workloads (defined, with why each was chosen, in ``workloads.py``):
``solve_nu20``, ``batch_nu14`` and ``sweep_reduced``.  One caller in one
process drives them closed loop, through public entry points only and
with ``REPRO_NUM_THREADS`` removed from the environment.  The package is
imported from ``src/`` of the checkout; without it the run fails.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of :data:`END_TO_END`:

* ``setup_s`` — import, input construction and model/service
  construction, timed in fresh interpreters spread over the run and
  reported as the median of :data:`SETUP_PROBES` (reference solves are
  excluded);
* ``batch_s`` — wall time of one cold pass over the workload's request
  set (for ``solve_nu20`` the set is one solve); ``solve_s`` — the same
  per unique problem, i.e. the time to one dominant eigenpair;
* ``warm_s``, ``warm_s_p90`` — warm resubmits of the same request set to
  the same front end.  ``QuasispeciesModel`` keeps no result cache, so on
  ``solve_nu20`` every pass re-solves and the passes after the first are
  its warm samples;
* ``ok_frac`` — requests answered correctly over requests attempted
  (``1 − failed_frac``; a failed request or a wrong answer counts);
* ``peak_rss_mb`` — the process's peak resident set.

Timings are medians over the run; the tail is the highest percentile, up
to the 90th, with at least ten samples beyond it (the maximum when there
are fewer than eleven samples); sample counts are printed.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of :data:`PER_LAYER` from the traced ones (see
``spans.py``), together with the tracing overhead (traced minus untraced
time).  The spans are written to ``.perfbench/`` as JSON lines.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details: environment, sample counts, wrong answers by name, absent layer
metrics and the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
THREADS_ENV = "REPRO_NUM_THREADS"
WORKLOADS = ("solve_nu20", "batch_nu14", "sweep_reduced")
SETUP_PROBES = 7

#: end-to-end metric → unit (reported with ``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "batch_s": "s",
    "warm_s": "s",
    "warm_s_p90": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metric → unit (reported with ``--trace 1``)
PER_LAYER = {
    "transforms.kernel_s": "s",
    "transforms.eff_gbs": "GB/s",
    "transforms.plan_s": "s",
    "transforms.plan_calls": "count",
    "operators.self_s": "s",
    "operators.calls": "count",
    "operators.columns": "count",
    "operators.s_per_vector": "s",
    "operators.eff_gbs": "GB/s",
    "solvers.self_s": "s",
    "solvers.share": "ratio",
    "solvers.iterations": "count",
    "solvers.block_sweeps": "count",
    "solvers.reduced_s": "s",
    "service.hash_s": "s",
    "service.hash_calls": "count",
    "service.plan_s": "s",
    "service.cache_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.dedup_ratio": "ratio",
    "service.pool_busy_s": "s",
    "service.pool_wait_s": "s",
    "service.fallback_ratio": "ratio",
    "service.retries": "count",
    "trace.e2e_s": "s",
    "trace.overhead_s": "s",
    "trace.cover": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'repro'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile up to the 90th with
    at least ten samples beyond it (nearest rank), else the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    rank = min(math.ceil(0.9 * n), n - 10)
    return xs[rank - 1], 100.0 * rank / n


def environment(removed_threads: str | None) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "blas": blas,
        THREADS_ENV: "unset" if removed_threads is None else f"removed (was {removed_threads!r})",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ setup
def probe_setup(workload: str, seed: int) -> float:
    """Import, build inputs and the front end; runs in a fresh interpreter."""
    t0 = time.perf_counter()
    use_checkout_src()
    import workloads

    w = workloads.build(workload, seed)
    w.build_front_end()
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """One :func:`probe_setup` in a fresh interpreter."""
    # BLAS worker threads left spinning by the last pass would compete
    # with the probe for the cores; give them time to park.
    time.sleep(0.2)
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          env=env, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -------------------------------------------------------------- measuring
class Runner:
    """Drives one workload and checks every answer it gets back."""

    def __init__(self, workload):
        import workloads

        self.workload = workload
        self.refs = workloads.references(workload)
        self.wrong_answers = workloads.wrong_answers
        self.attempted = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def one_pass(self, front, submit) -> float:
        n = len(self.workload.problems)
        t0 = time.perf_counter()
        try:
            answers = submit(front)
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            answers = [None] * n
            self.errors.append(f"pass raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        self.attempted += n
        self.wrong.extend(self.wrong_answers(self.workload, answers, self.refs))
        return elapsed

    def cycle(self, submit=None) -> tuple[float, list[float]]:
        """A fresh front end, one cold pass, then the warm resubmits."""
        submit = submit or self.workload.submit
        front = self.workload.build_front_end()
        cold = self.one_pass(front, submit)
        warm = [self.one_pass(front, submit) for _ in range(self.workload.resubmits)]
        return cold, warm

    @property
    def failed(self) -> int:
        return len(self.wrong)


def run_untraced(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    w = runner.workload
    setup: list[float] = []
    cold: list[float] = []
    warm: list[float] = []
    measured = 0.0  # time spent in cycles, setup probes excluded
    while measured < seconds:
        t0 = time.perf_counter()
        c, ws = runner.cycle()
        measured += time.perf_counter() - t0
        cold.append(c)
        warm.extend(ws)
        # Probes are spread over the run so that they meet the same host
        # conditions as the passes: on a shared host the speed drifts over
        # seconds.
        if len(setup) < SETUP_PROBES and measured >= len(setup) * seconds / SETUP_PROBES:
            setup.append(measure_setup(w.name, seed))
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(w.name, seed))
    if w.resubmits == 0:
        warm = cold[1:] or list(cold)
    warm_tail, pct = tail(warm)
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(c / w.unique for c in cold),
        "batch_s": statistics.median(cold),
        "warm_s": statistics.median(warm),
        "warm_s_p90": warm_tail,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "samples": {"setup": len(setup), "cold": len(cold), "warm": len(warm),
                    "warm_tail_percentile": pct},
    }
    return metrics, details


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import spans

    tracer = spans.Tracer()
    root = tracer.wrap(runner.workload.submit, "bench", None)
    untraced: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        c, ws = runner.cycle()
        untraced.append(c + sum(ws))
        with spans.traced(tracer):
            c, ws = runner.cycle(root)
        traced.append(c + sum(ws))
        if time.perf_counter() >= deadline:
            break
    metrics = spans.layer_metrics(tracer.spans, len(traced), spans.missing_kinds(tracer))
    roots = [s for s in tracer.spans if s[2] == "bench"]
    selfs = spans.self_times(tracer.spans)
    root_time = sum(s[5] - s[4] for s in roots)
    metrics["trace.e2e_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.cover"] = 1.0 - sum(selfs[s[0]] for s in roots) / root_time
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{runner.workload.name}.jsonl"
    tracer.write_jsonl(str(span_file))
    details = {
        "samples": {"traced_cycles": len(traced), "untraced_cycles": len(untraced)},
        "untraced_e2e_s": statistics.median(untraced),
        "missing_targets": tracer.missing,
        "absent": sorted(set(PER_LAYER) - set(metrics)),
        "layers": spans.layer_table(tracer.spans),
        "spans_file": str(span_file.relative_to(ROOT)),
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    removed_threads = os.environ.pop(THREADS_ENV, None)

    try:
        if args.probe_setup:
            print(json.dumps({"setup_s": probe_setup(args.workload, args.seed)}))
            return 0
        use_checkout_src()
        import workloads

        w = workloads.build(args.workload, args.seed)
        runner = Runner(w)
        if args.trace:
            metrics, details = run_traced(runner, args.seconds)
        else:
            metrics, details = run_untraced(runner, args.seconds, args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    details = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(removed_threads),
        "failed_frac": runner.failed / runner.attempted,
        "errors": runner.errors[:20],
        "wrong": runner.wrong[:20],
        **details,
    }
    print(json.dumps(details))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
