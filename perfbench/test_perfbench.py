"""Tests of the benchmark harness itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_src()

import spans  # noqa: E402
import workloads  # noqa: E402


def _runner(name: str, seed: int = 3) -> run.Runner:
    return run.Runner(workloads.build(name, seed, tiny=True))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_answers_correctly(name):
    runner = _runner(name)
    cold, warm = runner.cycle()
    assert cold > 0 and len(warm) == runner.workload.resubmits
    assert runner.attempted == len(runner.workload.problems) * (1 + len(warm))
    assert runner.failed == 0, runner.wrong


def test_inputs_follow_the_seed():
    a, b, c = (workloads.build("sweep_reduced", s, tiny=True) for s in (1, 1, 2))
    assert [p.label for p in a.problems] == [p.label for p in b.problems]
    assert [p.label for p in a.problems] != [p.label for p in c.problems]


def test_injected_wrong_result_is_counted_and_named():
    runner = _runner("batch_nu14")
    honest = runner.workload.submit

    def corrupt(front):
        answers = honest(front)
        eig, conc = answers[2]
        answers[2] = (eig * (1.0 + 1e-6), conc)
        return answers

    runner.cycle(corrupt)
    passes = 1 + runner.workload.resubmits
    assert runner.failed == passes
    assert runner.wrong[0].startswith("request #2 ")


def test_answers_of_another_request_are_caught():
    runner = _runner("sweep_reduced")
    honest = runner.workload.submit
    runner.one_pass(runner.workload.build_front_end(), lambda f: honest(f)[::-1])
    assert runner.failed > 0


def test_a_raising_pass_fails_every_request():
    runner = _runner("solve_nu20")

    def broken(front):
        raise RuntimeError("boom")

    runner.one_pass(runner.workload.build_front_end(), broken)
    assert runner.failed == runner.attempted == 1
    assert runner.errors == ["pass raised RuntimeError: boom"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_pass_reports_every_layer_metric(name):
    from repro.operators.fmmp import Fmmp

    original = Fmmp.__dict__["matvec"]
    runner = _runner(name)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert Fmmp.__dict__["matvec"] is not original
        runner.cycle(tracer.wrap(runner.workload.submit, "bench", None))
    assert Fmmp.__dict__["matvec"] is original
    assert runner.failed == 0 and tracer.missing == []
    metrics = spans.layer_metrics(tracer.spans, 1, spans.missing_kinds(tracer))
    assert set(metrics) | {"trace.e2e_s", "trace.overhead_s", "trace.cover"} == set(run.PER_LAYER)
    selfs = spans.self_times(tracer.spans)
    assert all(-1e-9 <= selfs[s[0]] <= s[5] - s[4] + 1e-9 for s in tracer.spans)


def test_missing_target_yields_absent_metric():
    targets = tuple(t for t in spans.TARGETS if t.kind != "transforms.plan") + (
        spans.Target("repro.transforms.batched", "deleted_plan_function", "transforms.plan"),
        spans.Target("repro.no_such_module", "Gone.method", "transforms.plan"),
    )
    runner = _runner("batch_nu14")
    tracer = spans.Tracer(targets)
    with spans.traced(tracer):
        runner.cycle()
    assert runner.failed == 0
    assert sorted(tracer.missing) == [
        "repro.no_such_module:Gone.method",
        "repro.transforms.batched:deleted_plan_function",
    ]
    metrics = spans.layer_metrics(tracer.spans, 1, spans.missing_kinds(tracer))
    assert "transforms.plan_s" not in metrics and "transforms.plan_calls" not in metrics
    assert metrics["transforms.kernel_s"] > 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans_ = [
        (1, 0, "service.pool", 1, 0.0, 10.0, {}),
        (2, 1, "service.worker", 2, 1.0, 5.0, {}),
        (3, 1, "service.worker", 3, 3.0, 7.0, {}),
        (4, 3, "solvers.reduced", 3, 4.0, 6.0, {}),
    ]
    selfs = spans.self_times(spans_)
    assert selfs == {1: 4.0, 2: 4.0, 3: 2.0, 4: 2.0}


@pytest.mark.parametrize(
    "n, rank, pct", [(5, 5, 100.0), (11, 1, 100 / 11), (50, 40, 80.0), (100, 90, 90.0), (300, 270, 90.0)]
)
def test_tail_keeps_ten_samples_beyond(n, rank, pct):
    value, percentile = run.tail([float(i) for i in range(n, 0, -1)])
    assert value == float(rank)
    assert percentile == pytest.approx(pct)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [HERE.name]


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_end_to_end_output_format(trace):
    proc = _run_bench(run.ROOT, "--workload", "sweep_reduced", "--seed", "5",
                      "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "batch_nu14", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
