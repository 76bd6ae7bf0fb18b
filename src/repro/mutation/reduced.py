"""The reduced (ν+1)×(ν+1) mutation matrix ``QΓ`` (Eq. 14, corrected).

``QΓ[d, k]`` is the probability that one *fixed* sequence from error class
``Γ_d`` mutates into *any* sequence of class ``Γ_k``:

    QΓ[d, k] = Σ_j C(ν−d, k−j) · C(d, j) · p^{k+d−2j} · (1−p)^{ν−(k+d−2j)}

with ``max(0, k+d−ν) <= j <= min(k, d)`` — ``j`` counts the set bits of
the source that *stay* set.  The printed exponent of ``(1−p)`` in the
paper, ``(k+d−2j)−ν``, is a sign typo: the total number of sites is ν and
``k+d−2j`` of them flip, so ``ν−(k+d−2j)`` don't.  (With the printed
exponent the matrix would not even be substochastic; see the unit tests.)

Rows of ``QΓ`` sum to one (a fixed sequence mutates into *some* class
with certainty), i.e. the reduced matrix is **row** stochastic — the
paper's observation that the reduction maps single molecules to class
*representatives*, not to class aggregates.

Implementation
--------------
Row ``d`` is computed as a polynomial-coefficient convolution rather
than the literal triple sum: a source sequence in ``Γ_d`` has ``ν−d``
unset sites, each independently contributing ``(1−p) + p·x`` to the
generating polynomial of the destination distance, and ``d`` set sites
contributing ``p + (1−p)·x`` (the flip-back keeps the site *out* of the
new distance).  Hence

    Σ_k QΓ[d, k]·x^k = ((1−p) + p·x)^{ν−d} · (p + (1−p)·x)^{d},

so each row is one ``numpy.convolve`` of two binomial-expansion
coefficient vectors, ``Θ(ν²)`` per row at C speed.  The binomial weights
are evaluated in log space so very long chains neither overflow the
binomials nor lose the small-``k`` structure to underflow.

Both coefficient families are tabulated once per ``(ν, p)``: the
``(ν+1)×(ν+1)`` table ``log C(n, i) = lg[n] − lg[i] − lg[n−i]`` is
built from the ν+1 values ``lg[i] = lgamma(i+1)``, and one ``np.exp``
per family turns it into the rows ``C(n, i)·s^i·f^{n−i}`` that the
convolutions read.  Each entry takes the same floating-point
operations, in the same order, as scalar ``log_binomial`` calls would,
so the tabulation does not change a bit of the matrix.  The tables take
``O(ν²)`` memory; the build takes ~0.1 ms at ν = 20 and ~0.15 s at
ν = 1000 (a 2¹⁰⁰⁰-dimensional full problem), where the convolutions
dominate.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.binomial import binomial
from repro.util.validation import check_chain_length, check_error_rate

__all__ = ["reduced_mutation_matrix", "reduced_mutation_matrix_reference"]


def _binomial_pmf_tables(nu: int, log_p: float, log_1mp: float):
    """Row ``n`` of each table holds ``C(n, i)·s^i·f^{n−i}`` for
    ``i = 0..n`` (zero beyond ``n``), with ``(s, f) = (p, 1−p)`` for the
    first table and ``(1−p, p)`` for the second; computed in log space
    (entries below ~1e-300 flush to zero)."""
    # lgamma(k + 1) = log(k!), so log C(n, k) = lg[n] − lg[k] − lg[n − k].
    lg = np.array([math.lgamma(k + 1) for k in range(nu + 1)])
    k = np.arange(nu + 1)
    n = k[:, None]
    log_c = lg[n] - lg[k] - lg[np.abs(n - k)]
    log_c[k > n] = -np.inf
    i = k.astype(np.float64)
    rest = n - i

    def table(log_s: float, log_f: float) -> np.ndarray:
        logs = log_c + i * log_s
        logs += rest * log_f
        return np.exp(logs, out=logs)

    with np.errstate(under="ignore"):
        return table(log_p, log_1mp), table(log_1mp, log_p)


def reduced_mutation_matrix(nu: int, p: float) -> np.ndarray:
    """Build ``QΓ ∈ R^{(ν+1)×(ν+1)}`` for chain length ``nu`` and rate ``p``.

    Parameters
    ----------
    nu:
        Chain length; the reduced dimension is ``ν + 1``.  Because the
        reduction is exact, this is valid for *much* longer chains than
        the full solvers (the guard accepts up to ν = 10000).
    p:
        Error rate, ``0 <= p <= 1/2`` (``p = 0`` yields the identity).

    Returns
    -------
    numpy.ndarray
        The row-stochastic reduced mutation matrix.
    """
    nu = check_chain_length(nu, max_nu=10_000)
    p = check_error_rate(p, allow_zero=True)
    if p == 0.0:
        return np.eye(nu + 1)

    log_p = np.log(p)
    log_1mp = np.log1p(-p)
    # ((1−p) + p·x)^{n}: "success" = contributing to the new distance (a
    # wild site flipping), probability p; (p + (1−p)·x)^{n}: a set site
    # *stays* set with 1−p.
    wild, mutant = _binomial_pmf_tables(nu, log_p, log_1mp)
    q = np.empty((nu + 1, nu + 1))
    for d in range(nu + 1):
        q[d, :] = np.convolve(wild[nu - d, : nu - d + 1], mutant[d, : d + 1])
    return q


def reduced_mutation_matrix_reference(nu: int, p: float) -> np.ndarray:
    """Literal triple-sum transcription of (corrected) Eq. (14).

    Executable specification for the tests; ``Θ(ν³)`` Python loops, so
    only suitable for small ν.
    """
    nu = check_chain_length(nu, max_nu=64)
    p = check_error_rate(p, allow_zero=True)
    if p == 0.0:
        return np.eye(nu + 1)
    q = np.zeros((nu + 1, nu + 1))
    for d in range(nu + 1):
        for k in range(nu + 1):
            for j in range(max(0, k + d - nu), min(k, d) + 1):
                flips = k + d - 2 * j
                q[d, k] += (
                    binomial(nu - d, k - j)
                    * binomial(d, j)
                    * p**flips
                    * (1.0 - p) ** (nu - flips)
                )
    return q
