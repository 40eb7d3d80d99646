"""The split residual behind every measure and every verdict.

``minor_pair_sum`` adds the squared moduli ``|a b' - b a'|^2`` of the
2x2 minors of one matrix.  Applied to a state unfolded across a split
(:func:`entwedge.states.unfold`) it is the split's residual: zero
exactly when the state factors there, and ``1 - tr rho^2`` of either
side's marginal for a normalized state, the purity form of the
generalized concurrence (Rungta et al., PRA 64, 042315 (2001)).  Every
measure in :mod:`entwedge.measures` is a sum of such residuals, so this
is the one algorithm that computes them.

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
