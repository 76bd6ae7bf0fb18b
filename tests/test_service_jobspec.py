"""Tests for the canonical job specs and content hashing."""

import pickle
from dataclasses import asdict

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.service import (
    JOB_METHODS,
    JobResult,
    ProblemSpec,
    SolveJob,
    SolverService,
    canonical_payload,
    content_hash,
)
from repro.service import jobspec
from repro.verify import spec as verify_spec


class TestCanonicalPayload:
    def test_floats_hash_exactly(self):
        # 0.1 + 0.2 != 0.3 — float.hex canonicalization must keep them apart
        assert content_hash(0.1 + 0.2) != content_hash(0.3)
        assert canonical_payload(0.5) == (0.5).hex()

    def test_numpy_scalars_and_arrays(self):
        assert canonical_payload(np.float64(0.5)) == (0.5).hex()
        assert canonical_payload(np.int64(3)) == 3
        assert canonical_payload(np.array([1.0, 2.0])) == [(1.0).hex(), (2.0).hex()]

    def test_tuples_and_lists_agree(self):
        assert content_hash((1, 2.0, "x")) == content_hash([1, 2.0, "x"])

    def test_dict_key_order_irrelevant(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_unhashable_type_raises(self):
        with pytest.raises(ValidationError):
            canonical_payload(object())

    def test_digest_is_stable(self):
        # the exact digest is part of the on-disk cache contract
        a = content_hash({"nu": 4, "p": 0.01})
        b = content_hash({"nu": 4, "p": 0.01})
        assert a == b and len(a) == 64

    @pytest.mark.parametrize(
        "job, digests",
        [
            (
                SolveJob(nu=12, p=0.01, landscape="random", mutation="persite", seed=5,
                         method="power", shift=True, tol=1e-10),
                ("dd669b398deb757e7915d066c116edbd18a0d64639c6423550b2b53bf7277c21",
                 "0d152e6598cf037a10f55043e4382fb1e30e9d6e3efaf395b7044fb014fbec39",
                 "2af961e2b9d2ade1a834618fe1ec3c7e7041c63047c3861496e0f0daca4c4a5c"),
            ),
            (
                SolveJob(nu=3, p=0.05, landscape="hamming", class_values=(2.0, 1.5, 1.0, 1.0),
                         tag="golden"),
                ("63e5883402ee5d517b0207c46354b08138ce7926d30478a38355e9754e6fc97f",
                 "72b16180ad8ec82d02ac8f3e29e391fea1381583399f4a6ffb8dc246fd216617",
                 "6ba5fd81bf24a0b1372ae7066523738fc95020b93fec6cae263dae69b6734f8d"),
            ),
        ],
        ids=["named", "hamming"],
    )
    def test_job_digests_are_pinned(self, job, digests):
        # disk-cache filenames are these digests: they must never drift
        assert (job.content_key(), job.cache_key(), job.operator_key()) == digests


def _keys(job: SolveJob) -> tuple[str, str, str]:
    return job.content_key(), job.cache_key(), job.operator_key()


class TestKeyMemo:
    """Each job instance computes its three digests at most once."""

    @pytest.fixture
    def digests(self, monkeypatch):
        # every SHA-256 of the module, content_hash's included, goes
        # through _digest; jobs hash their memoized canonical payload
        calls = []
        real = jobspec._digest

        def spy(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(jobspec, "_digest", spy)
        return calls

    def test_keys_computed_once_per_instance(self, digests):
        job = SolveJob(nu=6, p=0.02, landscape="random", method="power")
        first = _keys(job)
        assert len(digests) == 3
        assert _keys(job) == first and len(digests) == 3

    @pytest.mark.service_smoke
    def test_submit_hashes_each_unique_job_at_most_three_times(self, digests):
        unique = [SolveJob(nu=6, p=p, peak=peak) for p in (0.01, 0.02, 0.03) for peak in (2.0, 3.0)]
        jobs = unique + unique[::2]  # duplicates are the same objects
        service = SolverService()
        first = service.submit(jobs)
        assert first.passed and first.n_solved == len(unique)
        assert len(digests) <= 3 * len(unique)
        digests.clear()
        second = service.submit(jobs)
        assert second.n_cached == len(unique) and second.n_solved == 0
        assert digests == []

    def test_with_copies_get_fresh_keys(self):
        job = SolveJob(nu=6, p=0.02, landscape="hamming", class_values=(2.0,) + (1.0,) * 6)
        keys = _keys(job)
        changed = job.with_(p=0.03, tol=1e-8)
        fresh = SolveJob(nu=6, p=0.03, landscape="hamming", class_values=(2.0,) + (1.0,) * 6,
                         tol=1e-8)
        assert _keys(changed) == _keys(fresh)
        assert all(a != b for a, b in zip(_keys(changed), keys))
        assert _keys(job.with_(tag="x")) == keys

    def test_memo_invisible_to_dataclass_protocols(self):
        job = SolveJob(nu=6, p=0.02, landscape="random", seed=3, method="power")
        twin = SolveJob(nu=6, p=0.02, landscape="random", seed=3, method="power")
        pickled = pickle.dumps(twin)
        _keys(job)
        assert job == twin and hash(job) == hash(twin)
        assert asdict(job) == asdict(twin) and job.to_dict() == twin.to_dict()
        assert pickle.dumps(job) == pickled

    def test_pickle_round_trip_keeps_keys(self):
        job = SolveJob(nu=5, p=0.04, landscape="hamming", class_values=(3.0,) + (1.0,) * 5,
                       mutation="uniform", shift=0.25)
        keys = _keys(job)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job and _keys(clone) == keys


class TestSharedProblemSpec:
    def test_verify_spec_is_the_service_spec(self):
        # satellite 1: one shared source of truth, no parallel definitions
        assert verify_spec.ProblemSpec is ProblemSpec
        assert verify_spec.LANDSCAPE_KINDS == ("single-peak", "linear", "flat", "random", "kronecker")

    def test_content_key_deterministic(self):
        a = ProblemSpec(nu=5, p=0.03, landscape="random", seed=7)
        b = ProblemSpec(nu=5, p=0.03, landscape="random", seed=7)
        assert a.content_key() == b.content_key()
        assert a.content_key() != a.with_(seed=8).content_key()


class TestSolveJobValidation:
    def test_defaults_valid(self):
        job = SolveJob(nu=6, p=0.01)
        assert job.n == 64 and job.method == "auto"

    def test_hamming_requires_class_values(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, landscape="hamming")

    def test_hamming_class_values_length_checked(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, landscape="hamming", class_values=(1.0, 2.0))

    def test_class_values_coerced_to_float_tuple(self):
        job = SolveJob(nu=2, p=0.01, landscape="hamming", class_values=[2, 1, 1])
        assert job.class_values == (2.0, 1.0, 1.0)

    def test_class_values_rejected_for_named_landscapes(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=2, p=0.01, landscape="single-peak", class_values=(2.0, 1.0, 1.0))

    def test_bad_method_rejected(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, method="magic")

    def test_bad_tol_rejected(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, tol=0.0)

    def test_dmax_range_checked(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, dmax=9)


class TestContentKeys:
    def test_cache_key_ignores_accuracy_knobs(self):
        a = SolveJob(nu=6, p=0.02, tol=1e-12, max_iterations=1000, tag="x")
        b = SolveJob(nu=6, p=0.02, tol=1e-6, max_iterations=50, tag="y")
        assert a.cache_key() == b.cache_key()
        assert a.content_key() != b.content_key()

    def test_cache_key_sees_route(self):
        a = SolveJob(nu=6, p=0.02, method="power")
        b = SolveJob(nu=6, p=0.02, method="lanczos")
        assert a.cache_key() != b.cache_key()

    def test_operator_key_groups_shared_mutation(self):
        a = SolveJob(nu=6, p=0.02, landscape="random", mutation="persite", seed=3, method="power")
        b = SolveJob(nu=6, p=0.02, landscape="kronecker", mutation="persite", seed=3, method="lanczos")
        c = SolveJob(nu=6, p=0.03, landscape="random", mutation="persite", seed=3, method="power")
        assert a.operator_key() == b.operator_key()  # same operator, different problems
        assert a.operator_key() != c.operator_key()  # different p → different operator


class TestRouteResolution:
    def test_auto_dispatch(self):
        assert SolveJob(nu=6, p=0.02).resolved_method() == "reduced"
        assert SolveJob(nu=6, p=0.02, landscape="random").resolved_method() == "power"
        assert (
            SolveJob(nu=6, p=0.02, landscape="kronecker", mutation="grouped").resolved_method()
            == "kronecker"
        )

    def test_explicit_method_wins(self):
        assert SolveJob(nu=6, p=0.02, method="dense").resolved_method() == "dense"

    def test_all_job_methods_constructible(self):
        for method in JOB_METHODS:
            SolveJob(nu=4, p=0.02, landscape="random", method=method)


class TestSerialization:
    def test_round_trip(self):
        job = SolveJob(
            nu=4, p=0.03, landscape="hamming", class_values=(2.0, 1.0, 1.0, 1.0, 1.0),
            method="reduced", tol=1e-10, tag="sweep",
        )
        again = SolveJob.from_dict(job.to_dict())
        assert again == job
        assert again.content_key() == job.content_key()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            SolveJob.from_dict({"nu": 4, "p": 0.01, "speed": "ludicrous"})

    def test_from_problem(self):
        spec = ProblemSpec(nu=5, p=0.04, landscape="random", mutation="persite", seed=2)
        job = SolveJob.from_problem(spec, method="power", tol=1e-9)
        assert (job.nu, job.p, job.seed, job.method, job.tol) == (5, 0.04, 2, "power", 1e-9)
        assert job.problem() == spec

    def test_job_result_round_trip(self):
        result = JobResult(
            eigenvalue=1.9,
            concentrations=np.array([0.7, 0.2, 0.1]),
            method="reduced",
            iterations=1,
            residual=1e-15,
            converged=True,
            tol=1e-12,
        )
        again = JobResult.from_dict(result.to_dict())
        assert again.eigenvalue == result.eigenvalue
        np.testing.assert_array_equal(again.concentrations, result.concentrations)
        assert again.converged and again.tol == result.tol


class TestBuilders:
    def test_hamming_landscape_build(self):
        job = SolveJob(nu=3, p=0.01, landscape="hamming", class_values=(3.0, 1.0, 1.0, 1.0))
        ls = job.build_landscape()
        np.testing.assert_array_equal(ls.class_values(), [3.0, 1.0, 1.0, 1.0])

    def test_named_builds_match_problem_spec(self):
        job = SolveJob(nu=4, p=0.05, landscape="random", mutation="persite", seed=6)
        spec = job.problem()
        np.testing.assert_array_equal(
            job.build_landscape().values(), spec.build_landscape().values()
        )
