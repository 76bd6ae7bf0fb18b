"""Thread plumbing through the service layer and CLI.

The panel engine's thread count is an *execution* option, not part of
any job's identity: it must reach every worker (bit-identical results
make that safe), must never enter a :class:`SolveJob` content hash, and
pool workers × engine threads must never oversubscribe the host.
"""

import functools

import numpy as np
import pytest

from repro.cli import build_parser
from repro.exceptions import ValidationError
from repro.service.jobspec import SolveJob
from repro.service.pool import WorkerPool, execute_job
from repro.service.service import _OPTION_KEYS, SolverService
from repro.transforms.parallel import resolve_threads


class TestOversubscriptionGuard:
    def _pool(self, monkeypatch, cpus, **kw):
        monkeypatch.setattr("repro.service.pool.os.cpu_count", lambda: cpus)
        return WorkerPool(**kw)

    def test_threads_cap_worker_count(self, monkeypatch):
        pool = self._pool(monkeypatch, 8, workers=8, threads=4)
        assert pool.effective_workers(16) == 2  # 8 cpus / 4 threads

    def test_serial_engine_leaves_workers_alone(self, monkeypatch):
        pool = self._pool(monkeypatch, 8, workers=8, threads=1)
        assert pool.effective_workers(16) == 8

    def test_job_count_still_bounds(self, monkeypatch):
        pool = self._pool(monkeypatch, 8, workers=8, threads=2)
        assert pool.effective_workers(3) == 3

    def test_never_below_one_worker(self, monkeypatch):
        pool = self._pool(monkeypatch, 1, workers=4, threads=4)
        assert pool.effective_workers(10) == 1

    def test_threads_bound_into_solve_fn(self):
        pool = WorkerPool(threads=2)
        assert isinstance(pool.solve_fn, functools.partial)
        assert pool.solve_fn.func is execute_job
        assert pool.solve_fn.keywords == {"threads": 2}

    def test_serial_pool_uses_plain_execute_job(self):
        pool = WorkerPool(threads=1)
        assert pool.solve_fn is execute_job


class TestThreadsStayOutOfJobIdentity:
    def test_cache_key_ignores_execution_threads(self):
        job = SolveJob(nu=5, p=0.03)
        key = job.cache_key()
        # threads ride on the pool's partial, not the job — the payload
        # round-trips without any thread field and the key is stable.
        clone = SolveJob.from_dict(job.to_dict())
        assert "threads" not in job.to_dict()
        assert clone.cache_key() == key

    def test_execute_job_threads_agree_and_are_deterministic(self):
        job = SolveJob(nu=6, p=0.02, method="power")
        serial = execute_job(job)
        t2 = execute_job(job, threads=2)
        t4 = execute_job(job, threads=4)
        # Bit-identity holds *within* the fused engine family: repeated
        # threaded runs and different thread counts give the same bytes
        # (the panel count, not the thread count, fixes the bits).
        assert t2.eigenvalue == t4.eigenvalue
        np.testing.assert_array_equal(t2.concentrations, t4.concentrations)
        rerun = execute_job(job, threads=2)
        assert rerun.eigenvalue == t2.eigenvalue
        # The serial route reduces with plain NumPy sums instead of the
        # panel reducer — agreement is to solver tolerance there, not
        # bitwise.
        assert serial.eigenvalue == pytest.approx(t2.eigenvalue, abs=1e-10)
        np.testing.assert_allclose(
            serial.concentrations, t2.concentrations, rtol=1e-9, atol=1e-12
        )


class TestServiceOptions:
    def test_threads_is_a_manifest_option(self):
        assert "threads" in _OPTION_KEYS

    def test_service_accepts_threads(self):
        svc = SolverService(workers=1, kind="serial", threads=2)
        assert svc.pool.threads == 2

    def test_threaded_service_matches_serial_service(self):
        jobs = [
            SolveJob(nu=5, p=0.03, method="power"),
            SolveJob(nu=6, p=0.05, peak=3.0, method="power"),
        ]
        serial = SolverService(workers=1, kind="serial")
        threaded = SolverService(workers=1, kind="serial", threads=2)
        for a, b in zip(
            serial.submit(jobs).results, threaded.submit(jobs).results
        ):
            assert a.converged and b.converged
            assert a.eigenvalue == pytest.approx(b.eigenvalue, abs=1e-10)


class TestResolveThreadsEnv:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert resolve_threads(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert resolve_threads(2) == 2

    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert resolve_threads(None) == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "lots")
        with pytest.raises(ValidationError):
            resolve_threads(None)


class TestCliThreadsFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--nu", "4", "--threads", "2"],
            ["verify", "--grid", "small", "--threads", "2"],
            ["batch", "manifest.json", "--threads", "2"],
        ],
    )
    def test_threads_flag_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert args.threads == 2

    def test_threads_defaults_to_none(self):
        args = build_parser().parse_args(["solve", "--nu", "4"])
        assert args.threads is None
