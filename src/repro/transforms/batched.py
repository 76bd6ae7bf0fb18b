"""Stage-fused, cache-blocked butterfly kernel: the one Fmmp product path.

A Kronecker product of ν 2×2 factors applied to the columns of an
``(N, B)`` block (``B = 1`` for a plain ``Fmmp.matvec``) is scheduled as
a few GEMM-shaped sweeps instead of ν elementwise stages:

* **block layout** — vectors are the *columns* of an ``(N, B)`` C-order
  block, so the butterfly partners of a sweep with span ``h`` are
  contiguous runs of ``h·B`` doubles.
* **4-bit sweeps** — up to four adjacent bits (in the ``eq9``/``eq10``
  traversal order) fuse into one ``16×16`` factor
  ``kron(M_{s+3}, …, M_s)``, so the block is streamed ``⌈ν/4⌉`` times;
  the ``ν mod 4`` leftover bits form one smaller group.  Each sweep is a
  single stacked ``matmul`` — one read stream and one write stream.
* **right-side low sweep** — when a sweep has ``span·B == 1`` (the
  lowest group of a single vector) its groups are the rows of an
  ``(N/r, r)`` matrix, so the sweep is ``src · Kᵀ`` on a stacked
  ``(g, A, r)`` view with a fixed row count ``A``: a few hundred tall
  GEMMs instead of ``N/r`` tiny matrix products.
* **bounded GEMMs** — wide groups are cut into column chunks so no GEMM
  exceeds :data:`GEMM_MAX_MNK`; the kernel stays single-threaded and
  parallelism is left to :mod:`repro.transforms.parallel`.
* **diagonal folding** — the ``F`` (and ``F^{1/2}``) scalings of the
  eigenproblem forms (Eqs. 3–5) fold into the sweep schedule: the
  pre-scale becomes the leading write of the ping-pong chain (replacing
  the first sweep's read of the caller's block) and the post-scale an
  in-place epilogue on the output block, so neither needs a buffer of
  its own.
* **one scratch block** — the whole transform ping-pongs between the
  output block and a single reusable ``(N, B)`` scratch buffer.
* **plan built once** — :func:`fused_stage_plan` builds the ``kron``
  factors; operators build it once and pass it back through ``plan=``.

Stages acting on distinct bits commute (see
:mod:`repro.transforms.butterfly`), so every fusion above is *exact* up
to floating-point rounding; the tests and the verification grids compare
this kernel against the paper's Algorithm 1 transcription
(:func:`~repro.transforms.butterfly.butterfly_transform_reference`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "FusedStage",
    "fused_stage_plan",
    "fused_stage_count",
    "batched_butterfly_transform",
]

#: Adjacent bits fused into one sweep (``2**GROUP_BITS``-square factors).
GROUP_BITS = 4

#: Largest ``m·n·k`` of one GEMM in a sweep.  Every sweep is cut into
#: stacked GEMMs of at most this size: each stays cache-resident and at
#: or below OpenBLAS's multithreading threshold, so the kernel runs on
#: the calling thread and never waits on BLAS worker wake-ups (which
#: stall for tens of milliseconds when the host's cores are busy).  The
#: shapes depend only on the block and the plan — never on the panel
#: count — so the panel engine's slices see the serial kernel's GEMMs.
GEMM_MAX_MNK = 1 << 18


def _check_2x2(m: np.ndarray, what: str = "factor") -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape != (2, 2):
        raise ValidationError(f"{what} must be a 2x2 matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FusedStage:
    """One fused butterfly sweep over the block.

    Attributes
    ----------
    span:
        Pair distance of the *lowest* bit this sweep mixes (``2**s``).
    radix:
        ``2**k`` for a sweep fusing the ``k`` bits ``s … s+k−1``.
    matrix:
        The ``(radix, radix)`` mixing matrix
        ``kron(M_{s+k−1}, …, M_s)`` (the highest bit is the most
        significant digit of the group index — exactly the C-order
        reshape convention).
    """

    span: int
    radix: int
    matrix: np.ndarray


def fused_stage_count(nu: int) -> int:
    """Number of fused sweeps over the block: ``⌈ν/4⌉``."""
    if nu < 1:
        raise ValidationError(f"nu must be >= 1, got {nu}")
    return -(-nu // GROUP_BITS)


def fused_stage_plan(
    factors: Sequence[np.ndarray],
    *,
    variant: str = "eq9",
) -> list[FusedStage]:
    """Build the fused sweep schedule for ``factors``.

    ``variant="eq9"`` traverses bits in ascending span order (Eq. 9 /
    Algorithm 1); ``variant="eq10"`` in descending order (Eq. 10).  The
    traversal is cut into runs of four bits, the last run holding the
    ``ν mod 4`` leftover bits; each run becomes one sweep whose matrix is
    the ``kron`` of its bits' 2×2 factors.
    """
    if variant not in ("eq9", "eq10"):
        raise ValidationError(f"variant must be 'eq9' or 'eq10', got {variant!r}")
    nu = len(factors)
    if nu == 0:
        raise ValidationError("at least one factor is required")
    mats = [_check_2x2(m, f"factors[{i}]") for i, m in enumerate(factors)]
    order = list(range(nu)) if variant == "eq9" else list(range(nu - 1, -1, -1))
    plan: list[FusedStage] = []
    for i in range(0, nu, GROUP_BITS):
        lo, *rest = sorted(order[i : i + GROUP_BITS])
        matrix = mats[lo]
        for s in rest:
            matrix = np.kron(mats[s], matrix)
        plan.append(FusedStage(span=1 << lo, radix=1 << (1 + len(rest)), matrix=matrix))
    return plan


def _check_block(block: np.ndarray, n: int | None = None, name: str = "block") -> np.ndarray:
    arr = np.asarray(block)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D (N, B), got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValidationError(f"{name} must have {n} rows, got {arr.shape[0]}")
    if not np.issubdtype(arr.dtype, np.number) or np.issubdtype(arr.dtype, np.complexfloating):
        raise ValidationError(f"{name} must be a real numeric block, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.float64)


def _check_scale(scale, n: int, b: int, name: str) -> np.ndarray | None:
    if scale is None:
        return None
    arr = np.ascontiguousarray(scale, dtype=np.float64)
    if arr.shape == (n,):
        return arr
    if arr.shape == (n, b):
        return arr
    raise ValidationError(
        f"{name} must have shape ({n},) or ({n}, {b}), got {arr.shape}"
    )


def _prepare(block, factors, variant, pre_scale, post_scale, plan, out, scratch):
    """Validate a transform call and resolve its plan and buffers.

    Returns ``(block, pre, post, plan, out, scratch)`` with the block as
    a C-contiguous float64 ``(N, B)`` array; ``scratch`` stays ``None``
    when none was given and the schedule has a single step.
    """
    work_in = _check_block(block, None, "block")
    n, b = work_in.shape
    nu = len(factors)
    if nu == 0:
        raise ValidationError("at least one factor is required")
    if n != (1 << nu):
        raise ValidationError(f"block must have 2**{nu} = {1 << nu} rows, got {n}")
    pre = _check_scale(pre_scale, n, b, "pre_scale")
    post = _check_scale(post_scale, n, b, "post_scale")
    if plan is None:
        plan = fused_stage_plan(factors, variant=variant)
    elif sum(stage.radix.bit_length() - 1 for stage in plan) != nu:
        raise ValidationError(f"plan does not cover the {nu} bits of the factors")

    def _buffer(buf: np.ndarray | None, name: str) -> np.ndarray:
        if buf is None:
            return np.empty((n, b), dtype=np.float64)
        if buf.shape != (n, b) or buf.dtype != np.float64 or not buf.flags.c_contiguous:
            raise ValidationError(
                f"{name} must be a C-contiguous float64 array of shape ({n}, {b})"
            )
        if np.shares_memory(buf, block):
            raise ValidationError(f"{name} must not alias the input block")
        return buf

    out = _buffer(out, "out")
    if scratch is not None or (1 if pre is not None else 0) + len(plan) > 1:
        scratch = _buffer(scratch, "scratch")
        if np.shares_memory(scratch, out):
            raise ValidationError("scratch must not alias out")
    return work_in, pre, post, plan, out, scratch


def _sweep_views(src: np.ndarray, dst: np.ndarray, stage: FusedStage):
    """``(src4, dst4, right)``: one sweep as stacked GEMMs.

    Both views have two leading *stacking* axes whose items are
    independent GEMMs of one fixed shape.  Left sweeps view the block as
    ``(g, chunks, r, z)`` — group, column chunk of ``z ≤ span·B``
    doubles, the ``r`` rows mixed — and compute ``K · item``; a sweep
    with ``span·B == 1`` is a *right* sweep on the ``(g, 1, A, r)`` view
    (``A`` rows of ``r`` contiguous doubles) and computes ``item · Kᵀ``.
    """
    n, b = src.shape
    r, h = stage.radix, stage.span
    cap = GEMM_MAX_MNK // (r * r)
    if h * b == 1:
        a = min(cap, n // r)
        shape = (n // (a * r), 1, a, r)
        return src.reshape(shape), dst.reshape(shape), True
    # Chunks are whole rows (hc rows of b columns), a power of two ≤ span.
    hc = min(h, 1 << max((cap // b).bit_length() - 1, 0))
    shape = (n // (r * h), r, h // hc, hc * b)
    return src.reshape(shape).swapaxes(1, 2), dst.reshape(shape).swapaxes(1, 2), False


def _apply_sweep(src4: np.ndarray, dst4: np.ndarray, stage: FusedStage, right: bool) -> None:
    """``dst4 = sweep(src4)`` on (a slice of) :func:`_sweep_views`."""
    if right:
        np.matmul(src4, stage.matrix.T, out=dst4)
    else:
        np.matmul(stage.matrix, src4, out=dst4)


def _apply_fused(src: np.ndarray, dst: np.ndarray, stage: FusedStage) -> None:
    """One fused sweep ``dst = M · src`` on every butterfly group: one
    stacked ``matmul``, one read and one write stream."""
    src4, dst4, right = _sweep_views(src, dst, stage)
    _apply_sweep(src4, dst4, stage, right)


def _scale_into(dst: np.ndarray, src: np.ndarray, scale: np.ndarray) -> None:
    """``dst = scale ∘ src`` (column-broadcast for 1-D scales)."""
    np.multiply(src, scale[:, None] if scale.ndim == 1 else scale, out=dst)


def batched_butterfly_transform(
    block: np.ndarray,
    factors: Sequence[np.ndarray],
    *,
    variant: str = "eq9",
    pre_scale: np.ndarray | None = None,
    post_scale: np.ndarray | None = None,
    plan: Sequence[FusedStage] | None = None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the full ν-stage butterfly to every column of ``block``.

    Parameters
    ----------
    block:
        ``(N, B)`` array; column ``j`` is an independent input vector of
        length ``N = 2**ν``.  Never modified.
    factors:
        One 2×2 matrix per bit (``factors[s]`` acts on bit ``s`` — same
        convention as :func:`repro.transforms.butterfly.butterfly_transform`).
    variant:
        Stage traversal order, ``"eq9"`` (ascending) or ``"eq10"``
        (descending).  Both give identical results up to rounding.
    pre_scale, post_scale:
        Optional diagonal scalings folded into the first / last sweep:
        shape ``(N,)`` (shared by all columns) or ``(N, B)`` (per
        column).  ``out = post ∘ (M_ν ⊗ … ⊗ M_1) · (pre ∘ block)``.
    plan:
        The :func:`fused_stage_plan` of ``factors`` (and ``variant``),
        built once by the caller; built here when omitted.
    out:
        Optional ``(N, B)`` float64 C-contiguous output block.  Must not
        alias ``block``.
    scratch:
        Optional ``(N, B)`` float64 C-contiguous scratch block (the one
        auxiliary buffer the ping-pong schedule needs).  Must not alias
        ``block`` or ``out``.

    Returns
    -------
    numpy.ndarray
        The transformed ``(N, B)`` block (``out`` if given).
    """
    src, pre, post, plan, out, scratch = _prepare(
        block, factors, variant, pre_scale, post_scale, plan, out, scratch
    )
    # Ping-pong so the last step lands in ``out``: a step writes ``out``
    # when an even number of steps remain after it, ``scratch``
    # otherwise.  The pre-scale is the leading write of the chain (it
    # replaces the first sweep's read of the caller's block); the
    # post-scale is an in-place epilogue on ``out``.
    remaining = (1 if pre is not None else 0) + len(plan)
    if pre is not None:
        remaining -= 1
        dst = scratch if remaining % 2 else out
        _scale_into(dst, src, pre)
        src = dst
    for stage in plan:
        remaining -= 1
        dst = scratch if remaining % 2 else out
        _apply_fused(src, dst, stage)
        src = dst
    if post is not None:
        out *= post[:, None] if post.ndim == 1 else post
    return out
