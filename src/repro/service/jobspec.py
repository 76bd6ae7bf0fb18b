"""Canonical solve-job specifications and content hashing.

This module is the *single source of truth* for describing one
quasispecies problem declaratively — plain scalars and strings only —
shared by the verification harness (:mod:`repro.verify.spec`), the
serving layer (:mod:`repro.service`), and the batch CLI.

Two layers of description live here:

:class:`ProblemSpec`
    The mathematical problem: chain length, error rate, landscape
    family, mutation family, seed.  Declarative, hashable, and
    deterministic — the same spec rebuilds identical landscape and
    mutation objects inside pytest, the CLI, the scheduler workers, and
    any future remote backend.  (Extracted from ``repro.verify.spec``,
    which now re-exports it, so the verification grids and the service
    layer can never drift apart.)

:class:`SolveJob`
    A problem *plus* a solver route (method, operator, eigenproblem
    form, shift, tolerances).  Jobs are content-addressed:
    :meth:`SolveJob.content_key` is a deterministic SHA-256 over a
    canonical payload (floats serialized via ``float.hex`` so hashing is
    exact, keys sorted), :meth:`SolveJob.cache_key` drops the accuracy
    knobs (``tol``/``max_iterations``/``tag``) so the result cache can
    serve a *tighter* cached solve to a *looser* request, and
    :meth:`SolveJob.operator_key` identifies jobs that share the same
    mutation operator (ν, p, mutation family, seed) so Q-factor tables
    and FWHT plans are built once per group.

:class:`JobResult`
    The service-level result payload: dominant eigenvalue plus the
    (ν+1) error-class concentrations — uniform across every route
    (full 2^ν solves are contracted to classes), light enough to cache
    on disk by the thousands.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes import (
    HammingLandscape,
    KroneckerLandscape,
    LinearLandscape,
    RandomLandscape,
    SinglePeakLandscape,
)
from repro.landscapes.base import FitnessLandscape
from repro.mutation import (
    GroupedMutation,
    MutationModel,
    PerSiteMutation,
    UniformMutation,
    site_factor,
)
from repro.util.rng import as_generator
from repro.util.validation import check_chain_length, check_error_rate

__all__ = [
    "LANDSCAPE_KINDS",
    "MUTATION_KINDS",
    "JOB_METHODS",
    "ProblemSpec",
    "SolveJob",
    "JobResult",
    "split_groups",
    "canonical_payload",
    "content_hash",
]

LANDSCAPE_KINDS = ("single-peak", "linear", "flat", "random", "kronecker")
MUTATION_KINDS = ("uniform", "persite", "grouped")

#: solver routes a job may request (``auto`` defers to the model's
#: structural dispatch; ``shift-invert`` is the CG inverse-iteration
#: route of :func:`repro.solvers.shift_invert.cg_inverse_iteration`).
JOB_METHODS = (
    "auto",
    "power",
    "dense",
    "reduced",
    "kronecker",
    "lanczos",
    "arnoldi",
    "shift-invert",
)

_OPERATORS = ("fmmp", "xmvp", "smvp")
_FORMS = ("right", "left", "symmetric")

#: landscape kinds whose class structure admits the exact (ν+1) reduction
_ERROR_CLASS_KINDS = ("single-peak", "linear", "flat", "hamming")


def split_groups(nu: int, max_group: int = 3) -> tuple[int, ...]:
    """Deterministic split of ``ν`` bits into groups of size ≤ ``max_group``.

    Used to give Kronecker landscapes and grouped mutation models a
    reproducible structure for any chain length.
    """
    nu = check_chain_length(nu)
    if max_group < 1:
        raise ValidationError(f"max_group must be >= 1, got {max_group}")
    groups: list[int] = []
    left = nu
    while left > 0:
        g = min(max_group, left)
        groups.append(g)
        left -= g
    return tuple(groups)


# ------------------------------------------------------------- hashing
def canonical_payload(obj):
    """Recursively canonicalize ``obj`` for deterministic hashing.

    Floats go through :meth:`float.hex` (exact, locale-independent),
    tuples become lists, dict keys are emitted sorted by
    :func:`content_hash`'s JSON serialization.  Raises for types with no
    canonical form (no silent ``repr`` fallbacks).
    """
    # Exact-type fast path for what job payloads hold (``bool`` is not
    # ``int`` here, so it still reaches the chain below).
    kind = type(obj)
    if kind is float:
        return obj.hex()
    if kind is str or kind is int:
        return obj
    if kind is tuple:
        return [canonical_payload(x) for x in obj]
    if kind is dict:
        return {str(k): canonical_payload(v) for k, v in obj.items()}
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, np.floating):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [canonical_payload(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): canonical_payload(v) for k, v in obj.items()}
    raise ValidationError(f"cannot canonicalize {type(obj).__name__} for hashing")


def content_hash(obj) -> str:
    """Deterministic SHA-256 hex digest of a canonicalized payload."""
    return _digest(canonical_payload(obj))


def _digest(canonical) -> str:
    """SHA-256 hex digest of an already canonical payload — the one place
    a digest is computed, so :class:`SolveJob` can hash its canonical
    payload without walking it again."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ProblemSpec:
    """One quasispecies problem, fully determined by plain scalars.

    Attributes
    ----------
    nu:
        Chain length ``ν`` (``N = 2**ν``).
    p:
        Nominal per-site error rate; per-site/grouped models derive
        their (seeded) heterogeneous rates from it.
    landscape:
        One of :data:`LANDSCAPE_KINDS`.
    mutation:
        One of :data:`MUTATION_KINDS`.
    peak, floor:
        Master / background fitness used by the structured landscapes.
    seed:
        Seed for every random ingredient (random landscape values,
        per-site rate jitter, grouped-block mixing).
    """

    nu: int
    p: float
    landscape: str = "single-peak"
    mutation: str = "uniform"
    peak: float = 2.0
    floor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_chain_length(self.nu)
        check_error_rate(self.p, allow_zero=True)
        if self.landscape not in LANDSCAPE_KINDS:
            raise ValidationError(
                f"landscape must be one of {LANDSCAPE_KINDS}, got {self.landscape!r}"
            )
        if self.mutation not in MUTATION_KINDS:
            raise ValidationError(
                f"mutation must be one of {MUTATION_KINDS}, got {self.mutation!r}"
            )

    # --------------------------------------------------------------- label
    @property
    def n(self) -> int:
        return 1 << self.nu

    def label(self) -> str:
        """Compact human-readable identifier used in reports."""
        return (
            f"nu={self.nu} p={self.p:g} landscape={self.landscape} "
            f"mutation={self.mutation} seed={self.seed}"
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        return cls(**data)

    def with_(self, **changes) -> "ProblemSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **changes)

    def content_key(self) -> str:
        """Deterministic content hash of this problem description."""
        return content_hash(self.to_dict())

    # ------------------------------------------------------------ builders
    def build_landscape(self) -> FitnessLandscape:
        """Materialize the landscape object this spec describes."""
        if self.landscape == "single-peak":
            return SinglePeakLandscape(self.nu, self.peak, self.floor)
        if self.landscape == "linear":
            return LinearLandscape(self.nu, self.peak, self.floor)
        if self.landscape == "flat":
            # Flat is a (degenerate) error-class landscape: phi(k) = floor.
            return HammingLandscape(self.nu, [self.floor] * (self.nu + 1))
        if self.landscape == "random":
            return RandomLandscape(
                self.nu,
                c=max(self.peak, 1.5),
                sigma=min(1.0, max(self.peak, 1.5) / 3.0),
                seed=self.seed,
            )
        # kronecker
        rng = as_generator(self.seed)
        diagonals = [
            self.floor + (self.peak - self.floor) * rng.random(1 << g) + 0.1
            for g in split_groups(self.nu)
        ]
        return KroneckerLandscape(diagonals)

    def build_mutation(self) -> MutationModel:
        """Materialize the mutation model this spec describes."""
        if self.mutation == "uniform":
            return UniformMutation(self.nu, self.p)
        rng = as_generator(self.seed + 1)
        if self.mutation == "persite":
            factors = []
            for _ in range(self.nu):
                p01 = self._jitter_rate(rng)
                p10 = self._jitter_rate(rng)
                factors.append(site_factor(p01, p10))
            return PerSiteMutation(factors)
        # grouped: per-group blocks = convex mix of a product-of-sites
        # block with a random column-stochastic matrix, so the blocks are
        # genuinely non-product (exercising the Kronecker contraction).
        blocks = []
        for g in split_groups(self.nu):
            block = np.ones((1, 1))
            for _ in range(g):
                block = np.kron(block, site_factor(self._jitter_rate(rng), self._jitter_rate(rng)))
            noise = rng.random((1 << g, 1 << g)) + 1e-3
            noise /= noise.sum(axis=0, keepdims=True)
            blocks.append(0.9 * block + 0.1 * noise)
        return GroupedMutation(blocks)

    def _jitter_rate(self, rng: np.random.Generator) -> float:
        """A per-site rate near ``p`` (equal to ``p`` at the degenerate
        corners so p = 0 / p = 1/2 stay exactly degenerate)."""
        if self.p in (0.0, 0.5):
            return self.p
        lo = 0.5 * self.p
        hi = min(0.5, 1.5 * self.p)
        return float(lo + (hi - lo) * rng.random())


@dataclass(frozen=True)
class SolveJob:
    """One content-addressed solve request: a problem plus a route.

    The problem fields mirror :class:`ProblemSpec` with one extension:
    ``landscape="hamming"`` carries an explicit tuple of ν+1 class
    fitness values (how the sweep runners describe arbitrary
    Hamming-structured landscapes).  The route fields mirror
    :meth:`repro.model.quasispecies.QuasispeciesModel.solve`.

    Attributes
    ----------
    method, operator, form, dmax, shift:
        The solver route (see :data:`JOB_METHODS`).
    tol, max_iterations:
        Accuracy knobs — excluded from :meth:`cache_key` so a cached
        solve at *tighter* tolerance satisfies a *looser* request.
    tag:
        Free-form manifest label; never hashed.
    """

    nu: int
    p: float
    landscape: str = "single-peak"
    mutation: str = "uniform"
    peak: float = 2.0
    floor: float = 1.0
    seed: int = 0
    class_values: tuple | None = None
    method: str = "auto"
    operator: str = "fmmp"
    form: str = "right"
    dmax: int | None = None
    shift: bool | float = False
    tol: float = 1e-12
    max_iterations: int = 100_000
    tag: str = ""

    def __post_init__(self) -> None:
        check_chain_length(self.nu)
        check_error_rate(self.p, allow_zero=True)
        if self.landscape == "hamming":
            if self.class_values is None:
                raise ValidationError("landscape='hamming' requires class_values")
            values = tuple(float(v) for v in self.class_values)
            if len(values) != self.nu + 1:
                raise ValidationError(
                    f"class_values must have nu+1={self.nu + 1} entries, got {len(values)}"
                )
            object.__setattr__(self, "class_values", values)
        else:
            if self.landscape not in LANDSCAPE_KINDS:
                raise ValidationError(
                    f"landscape must be 'hamming' or one of {LANDSCAPE_KINDS}, "
                    f"got {self.landscape!r}"
                )
            if self.class_values is not None:
                raise ValidationError("class_values is only valid with landscape='hamming'")
        if self.mutation not in MUTATION_KINDS:
            raise ValidationError(
                f"mutation must be one of {MUTATION_KINDS}, got {self.mutation!r}"
            )
        if self.method not in JOB_METHODS:
            raise ValidationError(f"method must be one of {JOB_METHODS}, got {self.method!r}")
        if self.operator not in _OPERATORS:
            raise ValidationError(f"operator must be one of {_OPERATORS}, got {self.operator!r}")
        if self.form not in _FORMS:
            raise ValidationError(f"form must be one of {_FORMS}, got {self.form!r}")
        if self.dmax is not None and not 1 <= int(self.dmax) <= self.nu:
            raise ValidationError(f"dmax must be in [1, {self.nu}], got {self.dmax}")
        if not isinstance(self.shift, bool) and not isinstance(self.shift, (int, float)):
            raise ValidationError(f"shift must be a bool or a float, got {self.shift!r}")
        if not (isinstance(self.tol, (int, float)) and self.tol > 0):
            raise ValidationError(f"tol must be positive, got {self.tol!r}")
        if int(self.max_iterations) < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")

    # ------------------------------------------------------------ identity
    @property
    def n(self) -> int:
        return 1 << self.nu

    def label(self) -> str:
        """Compact identifier used in batch reports and CLI tables."""
        base = (
            f"nu={self.nu} p={self.p:g} landscape={self.landscape} "
            f"mutation={self.mutation} method={self.method}"
        )
        return f"{self.tag}: {base}" if self.tag else base

    def _problem_payload(self) -> dict:
        return {
            "nu": self.nu,
            "p": self.p,
            "landscape": self.landscape,
            "mutation": self.mutation,
            "peak": self.peak,
            "floor": self.floor,
            "seed": self.seed,
            "class_values": self.class_values,
        }

    def _route_payload(self) -> dict:
        return {
            "method": self.method,
            "operator": self.operator,
            "form": self.form,
            "dmax": self.dmax,
            "shift": self.shift,
        }

    def _keys(self) -> tuple[str, str, str]:
        """``(content_key, cache_key, operator_key)``, computed together
        on first use from one canonical payload and memoized on the
        instance, in ``__dict__`` outside the dataclass fields: equality,
        hashing, ``asdict`` and ``to_dict`` never see them,
        :meth:`__getstate__` leaves them out of pickles, and ``with_``
        builds a new instance, so a changed job never reuses them."""
        keys = self.__dict__.get("_memo_keys")
        if keys is None:
            c = canonical_payload(self._problem_payload() | self._route_payload())
            knobs = canonical_payload({"tol": self.tol, "max_iterations": self.max_iterations})
            reduced = self.is_reduced
            operator = {
                "nu": c["nu"],
                "p": c["p"],
                "mutation": c["mutation"],
                "seed": None if self.mutation == "uniform" else c["seed"],
                "reduced": reduced,
                "operator": None if reduced else c["operator"],
                "dmax": None if reduced else c["dmax"],
            }
            keys = (_digest(c | knobs), _digest(c), _digest(operator))
            self.__dict__["_memo_keys"] = keys
        return keys

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def content_key(self) -> str:
        """Full content hash (problem + route + accuracy knobs)."""
        return self._keys()[0]

    def cache_key(self) -> str:
        """Content hash *excluding* accuracy knobs (``tol``,
        ``max_iterations``) and the cosmetic ``tag`` — the key under
        which the tolerance-aware result cache files this job."""
        return self._keys()[1]

    def operator_key(self) -> str:
        """Hash identifying jobs that share operator construction.

        Jobs with equal keys use the same mutation operator (same ν, p,
        mutation family, seed), so Q-factor tables / FWHT plans built
        for one serve the whole group; reduced jobs group separately
        (they share the (ν+1) machinery instead).  The uniform model
        ignores the seed (``Q`` depends on ν and p only), so uniform
        jobs group *across* seeds — a random-landscape grid over many
        seeds is a single operator group, i.e. one batched butterfly
        stream.
        """
        return self._keys()[2]

    # ----------------------------------------------------------- structure
    def resolved_method(self) -> str:
        """The concrete route ``auto`` dispatches to (for planning).

        Mirrors the model's structural dispatch: the exact (ν+1)
        reduction whenever the landscape is Hamming-structured and the
        mutation uniform, otherwise the full-size power route.
        """
        if self.method != "auto":
            return self.method
        if self.mutation == "uniform" and self.landscape in _ERROR_CLASS_KINDS:
            return "reduced"
        if self.landscape == "kronecker" and self.mutation == "grouped":
            return "kronecker"
        return "power"

    @property
    def is_reduced(self) -> bool:
        """True when this job runs in the (ν+1)-dimensional reduction."""
        return self.resolved_method() == "reduced"

    # ------------------------------------------------------------ builders
    def problem(self) -> ProblemSpec:
        """The :class:`ProblemSpec` view of the problem fields
        (named-landscape jobs only)."""
        if self.landscape == "hamming":
            raise ValidationError("explicit hamming jobs have no named ProblemSpec")
        return ProblemSpec(
            nu=self.nu,
            p=self.p,
            landscape=self.landscape,
            mutation=self.mutation,
            peak=self.peak,
            floor=self.floor,
            seed=self.seed,
        )

    def build_landscape(self) -> FitnessLandscape:
        """Materialize the landscape (delegates to :class:`ProblemSpec`
        for the named kinds)."""
        if self.landscape == "hamming":
            return HammingLandscape(self.nu, list(self.class_values))
        return self.problem().build_landscape()

    def build_mutation(self) -> MutationModel:
        """Materialize the mutation model."""
        spec = ProblemSpec(
            nu=self.nu,
            p=self.p,
            landscape="single-peak",
            mutation=self.mutation,
            peak=self.peak,
            floor=self.floor,
            seed=self.seed,
        )
        return spec.build_mutation()

    # --------------------------------------------------------- conversion
    @classmethod
    def from_problem(cls, spec: ProblemSpec, **route) -> "SolveJob":
        """Wrap a :class:`ProblemSpec` as a job (route fields via kwargs)."""
        return cls(**spec.to_dict(), **route)

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["class_values"] is not None:
            data["class_values"] = list(data["class_values"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SolveJob":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown SolveJob fields: {sorted(unknown)}")
        data = dict(data)
        if data.get("class_values") is not None:
            data["class_values"] = tuple(data["class_values"])
        return cls(**data)

    def with_(self, **changes) -> "SolveJob":
        """A copy of this job with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class JobResult:
    """Service-level result of one solve job.

    ``concentrations`` holds the ν+1 error-class concentrations
    ``[Γ_k]`` — exactly the reduced solver's output for reduced jobs,
    and the class-contracted eigenvector for full 2^ν routes — so every
    route produces the same light, cacheable payload.
    """

    eigenvalue: float
    concentrations: np.ndarray
    method: str
    iterations: int
    residual: float
    converged: bool
    tol: float

    def to_dict(self) -> dict:
        """Plain-JSON form (arrays become lists)."""
        return {
            "eigenvalue": self.eigenvalue,
            "concentrations": [float(x) for x in np.asarray(self.concentrations)],
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "tol": self.tol,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        return cls(
            eigenvalue=float(data["eigenvalue"]),
            concentrations=np.asarray(data["concentrations"], dtype=np.float64),
            method=str(data["method"]),
            iterations=int(data["iterations"]),
            residual=float(data["residual"]),
            converged=bool(data["converged"]),
            tol=float(data["tol"]),
        )
