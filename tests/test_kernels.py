"""The split residual kernel and the unfolding against brute-force oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from entwedge import Bipartition, matricize, multipartite_measure
from entwedge import _kernels
from entwedge.states import unfold
from conftest import random_state


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
    rows, cols = mat.shape
    total = 0.0
    for mu in range(rows):
        for nu in range(mu + 1, rows):
            for i in range(cols):
                for j in range(cols):
                    d = mat[mu, i] * mat[nu, j] - mat[nu, i] * mat[mu, j]
                    total += abs(d) ** 2
    return total


class TestNumpyBackend:
    # (1, 3, 2) has a dim-1 slot; the slot-1 unfolding of (5, 2, 2) is
    # taller (5 rows) than wide (4 columns)
    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 3), (3, 2, 2), (2, 2, 2, 2), (1, 3, 2), (5, 2, 2)]
    )
    def test_swap_matches_bruteforce(self, rng, dims):
        state = random_state(rng, dims)
        got = multipartite_measure(state).term_sum
        want = brute_swap_sum(np.asarray(state.amplitudes), dims)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (4, 4), (7, 3)])
    def test_minor_matches_bruteforce(self, rng, shape):
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _kernels.minor_pair_sum(mat)
        assert got == pytest.approx(brute_minor_sum(mat), rel=1e-12)

    def test_minor_wide_equals_tall(self, rng):
        # the summand is symmetric under swapping the row pair with the
        # column pair, so transposition must not change the result
        mat = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        a = _kernels.minor_pair_sum(mat)
        b = _kernels.minor_pair_sum(mat.T.copy())
        assert a == pytest.approx(b, rel=1e-12)


class TestUnfold:
    @pytest.mark.parametrize("dims", [(2, 3, 4), (2, 2, 2, 2)])
    def test_every_split_matches_matricize(self, rng, dims):
        # every nonempty proper left side, canonical or not; each stack
        # row is unfolded on its own
        m = len(dims)
        states = [random_state(rng, dims) for _ in range(3)]
        rows = np.stack([s.amplitudes for s in states])
        for size in range(1, m):
            for left in itertools.combinations(range(1, m + 1), size):
                stack = unfold(rows, dims, [j - 1 for j in left])
                assert stack.flags.c_contiguous
                for state, mat in zip(states, stack):
                    want = matricize(state, Bipartition(left, m))
                    assert mat.shape == want.shape
                    assert np.array_equal(mat, want)


class TestSelection:
    def test_repeat_calls_bitwise_stable(self, rng):
        state = random_state(rng, (3, 2, 2))
        first = multipartite_measure(state).term_sum
        second = multipartite_measure(state).term_sum
        assert first == second
        mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert _kernels.minor_pair_sum(mat) == _kernels.minor_pair_sum(mat)
