"""Closed-form per-matvec cost formulas.

These mirror the :meth:`~repro.operators.base.ImplicitOperator.costs`
methods but are computable for *any* ν without building an operator (the
mask tables of an ``Xmvp(5)`` at ν = 25 alone would be ~54k entries; the
dense ``Smvp`` at ν = 25 would be 9 PB — which is rather the point of
the paper).

The formulas (matching Secs. 1.2/2.1):

========== ========================================== =====================
operator    flops                                      complexity class
========== ========================================== =====================
``Smvp``    ``2N²``                                    ``Θ(N²)``
``Xmvp``    ``2N·Σ_{k≤dmax}C(ν,k) + 2N``               ``Θ(N·Σ C(ν,k))``
``Fmmp``    ``N·Σ_sweeps(2r−1) + N``                    ``Θ(N log₂ N)``
========== ========================================== =====================

(The Fmmp row is the fused sweep plan's count — ``⌈ν/4⌉`` sweeps of
radix ``r ≤ 16`` — from :func:`repro.perf.batched.batched_fmmp_costs`.)
"""

from __future__ import annotations

import math

from repro.exceptions import ValidationError
from repro.operators.base import OperatorCosts
from repro.perf.batched import batched_fmmp_costs

__all__ = ["fmmp_costs", "xmvp_costs", "smvp_costs", "xmvp_mask_count", "operator_costs"]


def _check(nu: int) -> int:
    if not isinstance(nu, int) or nu < 1:
        raise ValidationError(f"nu must be a positive integer, got {nu!r}")
    return nu


def xmvp_mask_count(nu: int, dmax: int) -> int:
    """Number of XOR offset masks, ``Σ_{k=0}^{dmax} C(ν, k)``."""
    nu = _check(nu)
    if not 1 <= dmax <= nu:
        raise ValidationError(f"dmax must be in [1, {nu}], got {dmax}")
    return sum(math.comb(nu, k) for k in range(dmax + 1))


def fmmp_costs(nu: int) -> OperatorCosts:
    """Fmmp per-matvec costs (right form): the fused sweep plan at B=1."""
    return batched_fmmp_costs(_check(nu), 1)


def xmvp_costs(nu: int, dmax: int, *, scale_passes: float = 1.0) -> OperatorCosts:
    """Xmvp(dmax) per-matvec costs: one gather-add pass per mask."""
    nu = _check(nu)
    passes = float(xmvp_mask_count(nu, dmax))
    n = float(1 << nu)
    return OperatorCosts(
        flops=2.0 * n * passes + scale_passes * 2.0 * n,
        bytes_moved=8.0 * n * (3.0 * passes + 3.0 * scale_passes),
        storage_bytes=8.0 * (passes + n),
    )


def smvp_costs(nu: int) -> OperatorCosts:
    """Dense product costs: ``2N²`` flops, matrix-dominated traffic."""
    nu = _check(nu)
    n = float(1 << nu)
    return OperatorCosts(
        flops=2.0 * n * n,
        bytes_moved=8.0 * (n * n + 2.0 * n),
        storage_bytes=8.0 * n * n,
    )


def operator_costs(kind: str, nu: int, dmax: int | None = None) -> OperatorCosts:
    """Dispatch by operator name (``"fmmp"``/``"xmvp"``/``"smvp"``)."""
    if kind == "fmmp":
        return fmmp_costs(nu)
    if kind == "xmvp":
        if dmax is None:
            raise ValidationError("xmvp costs need dmax")
        return xmvp_costs(nu, dmax)
    if kind == "smvp":
        return smvp_costs(nu)
    raise ValidationError(f"unknown operator kind {kind!r}")
