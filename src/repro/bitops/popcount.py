"""Vectorized population count and Hamming distances.

The Hamming distance between sequences is ``dH(X_i, X_j) =
popcount(i XOR j)`` — the key identity behind both the explicit mutation
matrix (Eq. 2) and the XOR-based implicit product ``Xmvp`` of [10].

NumPy has no public popcount ufunc for the versions we target, so we use
the classic SWAR (SIMD-within-a-register) bit-slicing algorithm, fully
vectorized over ``uint64`` lanes.  For the chain lengths of interest
(ν ≤ 28) a single 64-bit word per index suffices.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.util.validation import check_chain_length

__all__ = ["popcount", "hamming_distance", "distance_to_master", "hamming_matrix"]

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_SHIFT56 = np.uint64(56)
_ONE = np.uint64(1)
_TWO = np.uint64(2)
_FOUR = np.uint64(4)


def popcount(x: np.ndarray | int) -> np.ndarray | int:
    """Number of set bits of each element of ``x`` (non-negative ints).

    Accepts scalars or arrays of any integer dtype up to 64 bits; returns
    ``int64`` counts with the same shape (or a Python ``int`` for scalar
    input).

    Implementation: SWAR popcount — pairwise bit sums, then nibble sums,
    then a multiply-accumulate that gathers the byte sums into the top
    byte.  Constant number of vector ops per element.
    """
    scalar = np.isscalar(x)
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"popcount requires integer input, got dtype {arr.dtype}")
    if arr.size and int(arr.min()) < 0:
        raise ValidationError("popcount requires non-negative integers")
    v = arr.astype(np.uint64, copy=True)
    v -= (v >> _ONE) & _M1
    v = (v & _M2) + ((v >> _TWO) & _M2)
    v = (v + (v >> _FOUR)) & _M4
    # The SWAR gather multiply wraps mod 2**64 by design; silence the
    # scalar overflow warning NumPy emits for 0-d operands.
    with np.errstate(over="ignore"):
        counts = ((v * _H01) >> _SHIFT56).astype(np.int64)
    if scalar:
        return int(counts)
    return counts


def hamming_distance(i: np.ndarray | int, j: np.ndarray | int) -> np.ndarray | int:
    """Hamming distance ``dH(X_i, X_j) = popcount(i ^ j)``, broadcasting."""
    a = np.asarray(i)
    b = np.asarray(j)
    if not (np.issubdtype(a.dtype, np.integer) and np.issubdtype(b.dtype, np.integer)):
        raise ValidationError("hamming_distance requires integer inputs")
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    out = popcount(x)
    if np.isscalar(i) and np.isscalar(j):
        return int(np.asarray(out))
    return out


def distance_to_master(nu: int) -> np.ndarray:
    """``dH(X_i, X_0)`` for all ``0 <= i < 2**nu`` as an ``int64`` array.

    This is simply the popcount of every index — the vector that defines
    error-class membership and Hamming-based fitness landscapes.  It is
    built by doubling: setting bit ``k`` adds one to every index below
    ``2**k``, so ``d[2**k : 2**(k+1)] = d[:2**k] + 1`` — one pass of
    additions over the output instead of a SWAR popcount per element.
    """
    nu = check_chain_length(nu)
    d = np.empty(1 << nu, dtype=np.int64)
    d[0] = 0
    for k in range(nu):
        half = 1 << k
        np.add(d[:half], 1, out=d[half : 2 * half])
    return d


def hamming_matrix(nu: int, *, max_nu: int = 13) -> np.ndarray:
    """Dense ``N × N`` matrix of pairwise Hamming distances.

    Only used to build explicit matrices for validation and for the dense
    ``Smvp`` baseline, hence the deliberately low ``max_nu`` guard
    (``2**13 = 8192`` → a 512 MiB float64 matrix downstream).
    """
    nu = check_chain_length(nu, max_nu=max_nu)
    idx = np.arange(1 << nu, dtype=np.uint64)
    return popcount(idx[:, None] ^ idx[None, :])
