"""Independent references that the tests check entwedge against.

Plain functions with no input checks.  The paper's wedge product works
on numpy arrays: ``alt`` carries the 1/m! prefactor, so it is a
projection, while ``wedge_pair`` deliberately does NOT divide by 2.
With that convention the squared norm of the wedge of two qubit rows is
twice the squared 2x2 determinant, which is what the concurrence
normalization expects.  The unfolding and marginal oracles transpose
``state.tensor`` themselves, apart from the library's ``states.unfold``.
``row_pair_minor_sum`` is a copy of the library's blocked row-pair
kernel, the bitwise reference the kernel is held to.
``square_split_divisions`` counts the trial divisors a copy of
``ketlang._square_split``'s loop tries, which the radicand price must
bound.

The single-trial path draws one invariance trial at a time: ``trial_rng``
rebuilds trial k's place in the experiment's stream, then uniform
doubles from ``Generator.random`` go through the library's own
Box-Muller, QR and rotation helpers on a batch of one.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from entwedge import Bipartition, PureState, lu


def signature(image) -> int:
    """Sign of the permutation ``i -> image[i]``, by inversion count."""
    inversions = sum(a > b for a, b in itertools.combinations(image, 2))
    return -1 if inversions % 2 else 1


def alt(factors) -> np.ndarray:
    """``(1/m!) sum_p sign(p) (slot permutation p)`` over every axis of an
    array, or over the tensor product of a sequence of vectors."""
    if not isinstance(factors, np.ndarray):
        factors = reduce(np.multiply.outer, factors)
    tensor = np.asarray(factors, dtype=np.complex128)
    total = sum(
        signature(image) * np.transpose(tensor, image)
        for image in itertools.permutations(range(tensor.ndim))
    )
    return total / math.factorial(tensor.ndim)


def wedge_pair(v, w) -> np.ndarray:
    """Two-slot wedge ``v (x) w - w (x) v`` with no 1/2 factor."""
    return np.outer(v, w) - np.outer(w, v)


def brute_swap_sum(amps: np.ndarray, dims: tuple[int, ...]) -> float:
    """Direct triple loop over index pairs and exchange slots."""
    tensor = amps.reshape(dims)
    total = 0.0
    m = len(dims)
    for K in np.ndindex(*dims):
        for L in np.ndindex(*dims):
            for j in range(m):
                Ks = list(K)
                Ls = list(L)
                Ks[j], Ls[j] = Ls[j], Ks[j]
                diff = tensor[K] * tensor[L] - tensor[tuple(Ks)] * tensor[tuple(Ls)]
                total += abs(diff) ** 2
    return total


def brute_minor_sum(mat: np.ndarray) -> float:
    """Direct loop over row pairs and column pairs of 2x2 minors."""
    rows, cols = mat.shape
    total = 0.0
    for mu in range(rows):
        for nu in range(mu + 1, rows):
            for i in range(cols):
                for j in range(cols):
                    d = mat[mu, i] * mat[nu, j] - mat[nu, i] * mat[mu, j]
                    total += abs(d) ** 2
    return total


# The row-pair kernel's cap on entries per temporary.
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


def row_pair_minor_sum(mat: np.ndarray):
    """Sum of ``|M[mu,i] M[nu,j] - M[nu,i] M[mu,j]|^2`` over row pairs
    ``mu < nu`` and all column pairs ``(i, j)``, i.e. every squared 2x2
    minor of ``mat`` counted twice.  Equals ``1 - tr rho^2`` of the row
    marginal when ``mat`` has unit Frobenius norm.

    A 2-D ``mat`` gives a float; an ``(S, R, C)`` stack gives an array
    of its S sums, each bitwise the one-matrix result.

    A copy of the library's blocked row-pair kernel, one-matrix shape
    included, so that the recorded residuals keep a bitwise reference if
    ``entwedge._kernels.minor_pair_sum`` changes its algorithm."""
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


def pair_qubit_term_sum(amps: np.ndarray) -> float:
    """Two-qubit closed form ``2 |a_00 a_11 - a_10 a_01|^2`` of C's term
    sum, so C is ``2 |a_00 a_11 - a_10 a_01|`` at norm constant 2."""
    det = amps[0] * amps[3] - amps[2] * amps[1]
    return 2.0 * (det.real * det.real + det.imag * det.imag)


def matricize(state: PureState, part: Bipartition) -> np.ndarray:
    """``state`` as a matrix across ``part``: rows over the left labels,
    columns over the rest, each row-major in increasing label order."""
    rows = math.prod(state.dims[j - 1] for j in part.left)
    axes = [j - 1 for j in part.left + part.right]
    return np.transpose(state.tensor, axes).reshape(rows, -1)


def partial_trace(state: PureState, keep: int) -> np.ndarray:
    """Reduced density matrix of subsystem ``keep`` (1-based label)."""
    mat = np.moveaxis(state.tensor, keep - 1, 0).reshape(state.dims[keep - 1], -1)
    return mat @ mat.conj().T


def purity(rho: np.ndarray) -> float:
    """``tr(rho^2)`` of a Hermitian ``rho``: its squared Frobenius norm."""
    return float(np.sum(np.abs(rho) ** 2))


def subset_impurities(state: PureState) -> list:
    """``1 - tr rho_A^2`` over all ``2^m - 2`` proper subsets A of the
    labels, each ``rho_A = M M^dagger`` of the matricization across A."""
    m = len(state.dims)
    impurities = []
    for size in range(1, m):
        for left in itertools.combinations(range(1, m + 1), size):
            mat = matricize(state, Bipartition(left, m))
            impurities.append(1.0 - purity(mat @ mat.conj().T))
    return impurities


def cmb_concurrence(state: PureState) -> float:
    """Multipartite concurrence ``2^(1-m/2) sqrt(sum_A (1 - tr rho_A^2))``
    over the proper subsets A (Carvalho, Mintert and Buchleitner, PRL
    93, 230501 (2004))."""
    return 2.0 ** (1 - len(state.dims) / 2) * math.sqrt(sum(subset_impurities(state)))


def gme_concurrence(state: PureState) -> float:
    """Genuine multipartite concurrence ``sqrt(2 min_S (1 - tr rho_S^2))``
    over the bipartitions S (Ma et al., PRA 83, 062325 (2011)); a subset
    and its complement have one purity, so the min runs over subsets,
    and rounding below 0 reads 0."""
    return math.sqrt(2.0 * max(0.0, min(subset_impurities(state))))


def tripartite_term_sum(tensor: np.ndarray) -> float:
    """E's term sum on three subsystems, written out as three explicit
    slot terms from broadcast amplitude products.

    Slot j's term is ``a[k] a[l] - a[k'] a[l']`` with the slot-j entries
    of k and l exchanged: a transpose of axes j and j + 3 of the
    ``(n1, n2, n3, n1, n2, n3)`` product, which holds ``D^2`` entries.
    """
    total = 0.0
    prod = tensor[:, :, :, None, None, None] * tensor[None, None, None, :, :, :]
    for j in range(3):
        perm = list(range(6))
        perm[j], perm[j + 3] = j + 3, j
        diff = prod - prod.transpose(perm)
        total += float(np.sum(diff.real ** 2 + diff.imag ** 2))
    return total


def grid_norm_sq(grid) -> float:
    """Sum of squared moduli of all entries."""
    grid = np.asarray(grid)
    return float(np.sum(grid.real ** 2 + grid.imag ** 2))


def trial_rng(seed: int, k: int, dims) -> np.random.Generator:
    """Generator at the first word of trial ``k`` in the stream of an
    experiment with ``seed`` on ``dims``: PCG64 seeded with
    ``SeedSequence(seed)``, advanced ``k * sum 2 n^2`` raw words."""
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    return np.random.Generator(bits.advance(k * sum(2 * n * n for n in dims)))


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on ``rng``'s next uniform doubles:
    the real parts of the complex Gaussians, then their imaginary parts."""
    pairs = (n + 1) // 2
    z = lu._box_muller(rng.random(pairs), rng.random(pairs))
    return np.concatenate([z.real, z.imag])[:n]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary from the complex Gaussians of ``rng``'s next
    ``2 dim^2`` uniform doubles."""
    z = lu._box_muller(rng.random(dim * dim), rng.random(dim * dim))
    return lu._haar_stack(z.reshape(1, dim, dim))[0]


def apply_local(state: PureState, gates) -> PureState:
    """``state`` with ``gates[j]`` applied to slot j alone."""
    stacks = [np.asarray(gate, dtype=np.complex128)[None] for gate in gates]
    return PureState(state.dims, lu._rotate(state.amplitudes, state.dims, stacks)[0])


def square_split_divisions(n: int) -> int:
    """Divisors ``ketlang._square_split`` tries on ``n >= 1``: its loop,
    counting instead of splitting."""
    count = 0
    d = 2
    while d * d * d <= n:
        count += 1
        while n % d == 0:
            n //= d
        d += 1 if d == 2 else 2
    return count
