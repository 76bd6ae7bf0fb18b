"""Fast structured transforms.

The paper's central observation is that the mutation matrix ``Q`` has a
Kronecker-product factorization (Eq. 7), so multiplying by it is an
FFT/FWHT-like butterfly transform with ``Θ(N log₂ N)`` cost.  This package
holds the transform machinery itself, independent of the quasispecies
semantics:

* :mod:`repro.transforms.butterfly` — the 2×2-stage butterfly
  (``butterfly_transform`` on the fused kernel, plus a literal scalar
  transcription of the paper's Algorithm 1 as the executable spec),
* :mod:`repro.transforms.fwht` — the fast Walsh–Hadamard transform used to
  diagonalize ``Q``,
* :mod:`repro.transforms.kronecker` — matvec with an arbitrary Kronecker
  product of small dense factors (Eq. 11 generality),
* :mod:`repro.transforms.batched` — the stage-fused, cache-blocked
  butterfly kernel (4-bit GEMM-shaped sweeps, folded diagonal scalings,
  one scratch block) behind ``Fmmp.matvec``/``Fmmp.matmat``, the
  distributed local stages and the ``butterfly_transform``/``fwht`` paths.
"""

from repro.transforms.butterfly import (
    butterfly_transform,
    butterfly_transform_reference,
)
from repro.transforms.batched import (
    FusedStage,
    fused_stage_plan,
    fused_stage_count,
    batched_butterfly_transform,
)
from repro.transforms.parallel import (
    PanelEngine,
    PanelReducer,
    parallel_butterfly_transform,
    resolve_threads,
    resolve_panels,
    max_panels,
    get_engine,
    shutdown_engines,
)
from repro.transforms.fwht import fwht, fwht_inverse, fwht_matrix
from repro.transforms.kronecker import kron_matvec, kron_vector, kron_diagonal

__all__ = [
    "butterfly_transform",
    "butterfly_transform_reference",
    "FusedStage",
    "fused_stage_plan",
    "fused_stage_count",
    "batched_butterfly_transform",
    "PanelEngine",
    "PanelReducer",
    "parallel_butterfly_transform",
    "resolve_threads",
    "resolve_panels",
    "max_panels",
    "get_engine",
    "shutdown_engines",
    "fwht",
    "fwht_inverse",
    "fwht_matrix",
    "kron_matvec",
    "kron_vector",
    "kron_diagonal",
]
