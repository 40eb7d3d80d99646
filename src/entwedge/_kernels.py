"""The quadratic pair sums behind the measures.

Both reduce to one pattern: squared moduli ``|a b' - b a'|^2`` of the
2x2 minors of a matrix.  ``minor_pair_sum`` adds them for one matrix.
``swap_term_sum`` is built from it: exchanging the slot-j entries of two
multi-indices K, L turns ``a_K a_L - a_K' a_L'`` into a 2x2 minor of the
slot-j unfolding (rows over slot j, columns over all other slots), and
the ordered (K, L) pairs count each such minor twice.  For a normalized
state this is the I-concurrence purity form
``sum_j 2 (1 - tr rho_j^2)`` of Rungta et al., PRA 64, 042315 (2001).

Summation order is fixed, so repeated calls with the same input give
bitwise-identical results.
"""

from __future__ import annotations

import numpy as np

# Cap on entries per temporary block (32 MB of complex128).
_BLOCK_ENTRIES = 1 << 21


def _wedge_abs2_sum(u: np.ndarray, v: np.ndarray) -> float:
    """sum over all (p, q) of |u[p] v[q] - v[p] u[q]|^2, row-blocked."""
    n = u.size
    block = max(1, _BLOCK_ENTRIES // max(1, n))
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        w = np.outer(u[start:stop], v) - np.outer(v[start:stop], u)
        total += float(np.sum(w.real ** 2 + w.imag ** 2))
    return total


def minor_pair_sum(mat: np.ndarray) -> float:
    """Sum of ``|M[mu,i] M[nu,j] - M[nu,i] M[mu,j]|^2`` over row pairs
    ``mu < nu`` and all column pairs ``(i, j)``, i.e. every squared 2x2
    minor of ``mat`` counted twice.  Equals ``1 - tr rho^2`` of the row
    marginal when ``mat`` has unit Frobenius norm."""
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    R, C = mat.shape
    # The summand is symmetric under exchanging the row pair with the
    # column pair, so pair over whichever side is shorter.
    if R > C:
        mat = mat.T
        R, C = C, R
    total = 0.0
    for mu in range(R):
        for nu in range(mu + 1, R):
            total += _wedge_abs2_sum(mat[mu], mat[nu])
    return total


def swap_term_sum(amps: np.ndarray, dims) -> float:
    """Sum over ordered multi-index pairs ``(K, L)`` and slots ``j`` of
    ``|a_K a_L - a_K' a_L'|^2``, the primes exchanging the slot-j
    entries: ``sum_j 2 * minor_pair_sum(slot-j unfolding)``."""
    amps = np.asarray(amps, dtype=np.complex128)
    total = 0.0
    lead = 1
    for nj in dims:
        nj = int(nj)
        unfolding = amps.reshape(lead, nj, -1).swapaxes(0, 1).reshape(nj, -1)
        total += 2.0 * minor_pair_sum(unfolding)
        lead *= nj
    return total
