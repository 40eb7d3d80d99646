"""The split residual behind every measure and every verdict.

``minor_pair_sum`` adds the squared moduli ``|a b' - b a'|^2`` of the
2x2 minors of one matrix.  Applied to a state unfolded across a split
(:func:`entwedge.states.unfold`) it is the split's residual: zero
exactly when the state factors there, and ``1 - tr rho^2`` of either
side's marginal for a normalized state, the purity form of the
generalized concurrence (Rungta et al., PRA 64, 042315 (2001)).  Every
measure in :mod:`entwedge.measures` is a sum of such residuals, so this
is the one algorithm that computes them.

It also takes an ``(S, R, C)`` stack of same-shape matrices and returns
their S sums from one call.  Each row pair's product is broadcast over
the stack while every matrix keeps its own per-pair sum, so a stacked
result is bitwise the one-matrix call on that matrix.  Summation order
is fixed, so repeated calls with the same input give bitwise-identical
results.

Every temporary holds at most ``_BLOCK_ENTRIES`` entries (128 KB of
complex128).  A pair product wider than that is summed in row blocks;
the split into blocks starts at vectors longer than 90 entries, where
the result can differ from one unblocked sum in the last bits.
"""

from __future__ import annotations

import numpy as np

# Cap on entries per temporary (128 KB of complex128).  It bounds the
# row blocks of a wide pair product, and the run of a stack processed at
# once: the run's contiguous copy, and one product block across the run.
_BLOCK_ENTRIES = 1 << 13


def _run_sums(mats: np.ndarray, block: int) -> np.ndarray:
    """Per-matrix minor sums of a contiguous ``(s, rows, n)`` run with
    ``rows <= n``, pairing rows and summing each pair's ``(n, n)``
    product ``block`` rows at a time."""
    s, rows, n = mats.shape
    tails = mats[:, :, None, :]
    heads = [mats[:, :, start:start + block, None] for start in range(0, n, block)]
    totals = np.zeros(s)
    for mu in range(rows):
        for nu in range(mu + 1, rows):
            # a pair's blocks add up on their own before joining the total
            pair = None
            for head in heads:
                w = head[:, mu] * tails[:, nu] - head[:, nu] * tails[:, mu]
                part = np.add.reduce((w.real ** 2 + w.imag ** 2).reshape(s, -1), axis=1)
                pair = part if pair is None else pair + part
            totals += pair
    return totals


def minor_pair_sum(mat: np.ndarray):
    """Sum of ``|M[mu,i] M[nu,j] - M[nu,i] M[mu,j]|^2`` over row pairs
    ``mu < nu`` and all column pairs ``(i, j)``, i.e. every squared 2x2
    minor of ``mat`` counted twice.  Equals ``1 - tr rho^2`` of the row
    marginal when ``mat`` has unit Frobenius norm.

    A 2-D ``mat`` gives a float; an ``(S, R, C)`` stack gives an array
    of its S sums, each bitwise the one-matrix result."""
    stack = np.asarray(mat)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    count, R, C = stack.shape
    # The summand is symmetric under exchanging the row pair with the
    # column pair, so pair over whichever side is shorter.
    if R > C:
        stack = stack.transpose(0, 2, 1)
        R, C = C, R
    block = min(C, max(1, _BLOCK_ENTRIES // C))
    run = max(1, _BLOCK_ENTRIES // max(R * C, block * C))
    totals = np.empty(count)
    for first in range(0, count, run):
        mats = np.ascontiguousarray(stack[first:first + run], dtype=np.complex128)
        totals[first:first + run] = _run_sums(mats, block)
    return float(totals[0]) if single else totals
