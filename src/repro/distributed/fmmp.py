"""Distributed Fmmp: the butterfly over block-partitioned vectors.

Stage structure (block size ``B = N/R``, ranks indexed by the high bits):

* **local stages** — span ``h < B``: both members of every butterfly
  pair live in the same block; every rank runs all of them on its own
  data as one call of the fused kernel
  (:func:`~repro.transforms.batched.batched_butterfly_transform` on a
  ``(B, 1)`` block, with the plan built once per operator), no
  communication;
* **cross stages** — span ``h = B·2^d`` for hypercube dimension
  ``d = 0 … r−1``: the pair partner of every element sits in the block
  of the partner rank ``k ^ 2^d``.  Both ranks exchange their full
  blocks, then each computes *its own* output row of the 2×2 mix:

      lower rank (bit d = 0):  block ← m00·block + m01·partner
      upper rank (bit d = 1):  block ← m10·partner + m11·block

  — one ``B``-element exchange and one axpy-like pass per cross stage,
  exactly the distributed-FFT pattern.

Communication per matvec: ``r = log₂R`` exchanges of ``8·B`` bytes.
Compute per rank: the full ν stages over ``B`` elements.  The numerics
are executed for real and must match the serial butterfly to machine
precision (the local stages are fused into 4-bit sweeps, so the
operation order differs from the serial product's), which the tests
assert at ``1e-13``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.distributed.cluster import ClusterProfile
from repro.distributed.partition import PartitionedVector, split_stages
from repro.exceptions import ValidationError
from repro.transforms.batched import batched_butterfly_transform, fused_stage_plan

__all__ = ["DistributedFmmp"]


class DistributedFmmp:
    """Distributed butterfly ``Q·v`` for per-bit 2×2 factors.

    Parameters
    ----------
    cluster:
        The simulated cluster (fixes ``R``).
    factors:
        ν per-bit 2×2 factors (``factors[s]`` on bit ``s``), as produced
        by the uniform/per-site mutation models.
    """

    def __init__(self, cluster: ClusterProfile, factors: Sequence[np.ndarray]):
        self.cluster = cluster
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        for idx, f in enumerate(self.factors):
            if f.shape != (2, 2):
                raise ValidationError(f"factor {idx} must be 2x2, got {f.shape}")
        self.nu = len(self.factors)
        self.n = 1 << self.nu
        if cluster.ranks > self.n // 2:
            raise ValidationError(
                f"{cluster.ranks} ranks need at least 2 elements per block "
                f"(N = {self.n})"
            )
        self.block_size = self.n // cluster.ranks
        # Shared stage-split math: bottom log2(B) stages are rank-local,
        # top log2(R) pair across ranks (same helper the shared-memory
        # panel engine classifies its sweeps with).
        self.local_stages, self.cross_stages = split_stages(self.nu, cluster.ranks)
        self._local_factors = self.factors[: self.local_stages]
        self._local_plan = fused_stage_plan(self._local_factors)

    # ------------------------------------------------------------- numerics
    def apply(self, v: PartitionedVector) -> PartitionedVector:
        """In-place distributed ``Q·v``; returns ``v`` for chaining."""
        if v.ranks != self.cluster.ranks or v.n != self.n:
            raise ValidationError("partitioned vector does not match this operator")
        # Local stages: span 1 .. B/2 inside every block, one fused call
        # per rank.
        for k, block in enumerate(v.blocks):
            v.blocks[k] = batched_butterfly_transform(
                block.reshape(-1, 1), self._local_factors, plan=self._local_plan
            ).reshape(-1)
        # Cross stages: hypercube dimension d pairs rank k with k ^ 2^d.
        for d in range(self.cross_stages):
            m = self.factors[self.local_stages + d]
            bit = 1 << d
            for k in range(self.cluster.ranks):
                if k & bit:
                    continue  # handled together with the partner
                partner = k ^ bit
                lo = v.blocks[k]
                hi = v.blocks[partner]
                new_lo = m[0, 0] * lo + m[0, 1] * hi
                new_hi = m[1, 0] * lo + m[1, 1] * hi
                v.blocks[k] = new_lo
                v.blocks[partner] = new_hi
        return v

    # ------------------------------------------------------------- modeling
    def compute_time_per_matvec(self) -> float:
        """Per-rank roofline time: ν stages over B elements (every stage
        — local or cross — touches each local element once)."""
        b = float(self.block_size)
        bytes_moved = 32.0 * (b / 2.0) * self.local_stages + 32.0 * b * self.cross_stages / 2.0
        flops = 6.0 * (b / 2.0) * self.local_stages + 6.0 * b * self.cross_stages / 2.0
        # Each stage also costs a launch on the node profile.
        t = self.cluster.node.kernel_time(bytes_moved, flops)
        t += (self.local_stages + self.cross_stages - 1) * self.cluster.node.launch_overhead_s
        return t

    def comm_time_per_matvec(self) -> float:
        """``log₂R`` block exchanges of ``8·B`` bytes."""
        if self.cross_stages == 0:
            return 0.0
        return self.cross_stages * self.cluster.exchange_time(8.0 * self.block_size)

    def comm_bytes_per_matvec(self) -> float:
        """Bytes each rank sends per matvec."""
        return 8.0 * self.block_size * self.cross_stages

    def matvec_time(self) -> float:
        """Modeled wall-clock of one distributed matvec (ranks are
        symmetric, so the max over ranks equals any rank's time)."""
        return self.compute_time_per_matvec() + self.comm_time_per_matvec()
