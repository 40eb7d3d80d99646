"""The split residual behind every measure and every verdict.

``minor_pair_sum`` adds the squared moduli ``|a b' - b a'|^2`` of the
2x2 minors of one matrix.  Applied to a state unfolded across a split
(:func:`entwedge.states.unfold`) it is the split's residual: zero
exactly when the state factors there, and ``1 - tr rho^2`` of either
side's marginal for a normalized state, the purity form of the
generalized concurrence (Rungta et al., PRA 64, 042315 (2001)).  Every
measure and every verdict is built from such residuals, and
``split_residuals`` is the one route to the kernel calls for them.

It takes an ``(S, R, C)`` stack of same-shape matrices and returns
their S sums from one call.  Each row pair's product is broadcast over
the stack while every matrix keeps its own per-pair sum, so a matrix's
sum is bitwise the same whatever else is in the stack.  Summation order
is fixed, so repeated calls with the same input give bitwise-identical
results.

Every temporary holds at most ``_BLOCK_ENTRIES`` entries (128 KB of
complex128).  A pair product wider than that is summed in row blocks;
the split into blocks starts at vectors longer than 90 entries, where
the result can differ from one unblocked sum in the last bits.

``check_split_work`` counts the kernel's products for a list of splits:
the one price every measure, verdict and invariance trial pays, held to
``MAX_SPLIT_WORK`` before anything is validated.  It also bounds memory.
A split with a one-row side has no 2x2 minors, so its residual is 0 and
``split_residuals`` never unfolds it.  Every other split has two or more
rows on both sides and costs at least ``D**2 / 4`` products on a state
of ``D`` amplitudes, so the ``k <= 127`` splits a call may unfold hold
at most ``min(127 D, 4 MAX_SPLIT_WORK / D) <= 712741`` amplitudes
(11 MB of complex128); an invariance chunk holds at most ``m * 2**16``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TooLargeError
from .states import unfold

# Cap on entries per temporary (128 KB of complex128).  It bounds the
# row blocks of a wide pair product, and the run of a stack processed at
# once: the run's contiguous copy, and one product block across the run.
_BLOCK_ENTRIES = 1 << 13

# Most kernel products one call may make: the smallest round number above
# the costliest call a total-dimension cap of 4096 allowed, 977010688 for
# separability_report on (2,2,2,2,4,4,4,4), which took 9.4 s.  The
# slowest accepted call found, C on (200, 222), took 7.5-8.1 s as one
# `entwedge measure --state` process (55 MB peak RSS, 5 runs timed by
# hand, OPENBLAS_NUM_THREADS=1) on a shared 2-CPU x86-64 Xeon host.
MAX_SPLIT_WORK = 10 ** 9


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


def minor_pair_sum(stack: np.ndarray) -> np.ndarray:
    """The ``(S,)`` sums of an ``(S, R, C)`` stack: for each matrix M,
    ``|M[mu,i] M[nu,j] - M[nu,i] M[mu,j]|^2`` over row pairs ``mu < nu``
    and all column pairs ``(i, j)``, i.e. every squared 2x2 minor of M
    counted twice.  Equals ``1 - tr rho^2`` of the row marginal when M
    has unit Frobenius norm."""
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
    return totals


def check_split_work(dims, lefts) -> int:
    """Products :func:`split_residuals` makes for the splits ``lefts`` of
    a state on ``dims``: per split, the row pairs of its shorter side
    times its longer side squared, as :func:`minor_pair_sum` pairs.
    ``TooLargeError`` above ``MAX_SPLIT_WORK``.  Reads dims only, so it
    runs before validation."""
    total = math.prod(dims)
    work = 0
    for left in lefts:
        r = math.prod(dims[ax] for ax in left)
        short, long = sorted((r, total // r))
        work += short * (short - 1) // 2 * long * long
    if work > MAX_SPLIT_WORK:
        raise TooLargeError(
            f"kernel work of {work} products on dims {tuple(dims)} exceeds the "
            f"measure guard of {MAX_SPLIT_WORK}"
        )
    return work


def split_residuals(rows: np.ndarray, dims, lefts) -> np.ndarray:
    """``(T, S)`` residuals of a ``(T, prod(dims))`` stack of amplitude
    rows: entry ``[t, s]`` is row t's at the split with the 0-based slots
    ``lefts[s]`` on the rows.  Trusts its arguments.

    A split with a one-row side, ``r == 1`` or ``r == D``, has no 2x2
    minors: it is never unfolded and its residual is exactly 0.0, which
    is what the kernel returns on a one-row matrix.  The shape ``(r, D /
    r)`` of any other split follows from ``dims``, so those splits are
    grouped by row count r, and each group of k is unfolded once for the
    whole stack: ``k * T * D`` entries, at most ``m * 2**16`` (8 MB at
    m = 8) for a ``lu.CHUNK_AMPLITUDES`` chunk.  The kernel runs once per
    row and group.  One call per group on the whole stack is a one-line
    change with bitwise equal results; it waits on the benchmark harness,
    whose peak memory grows with the op rate (ROADMAP item 1)."""
    total = math.prod(dims)
    groups = {}
    for s, left in enumerate(lefts):
        r = math.prod(dims[ax] for ax in left)
        if 1 < r < total:
            groups.setdefault(r, []).append(s)
    residuals = np.zeros((len(rows), len(lefts)))
    for r, members in groups.items():
        stack = np.empty((len(rows), len(members), r, rows.shape[1] // r), np.complex128)
        for k, s in enumerate(members):
            stack[:, k] = unfold(rows, dims, lefts[s])
        residuals[:, members] = [minor_pair_sum(mats) for mats in stack]
    return residuals
