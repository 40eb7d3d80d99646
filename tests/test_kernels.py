"""The pair-sum kernels against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from entwedge import _kernels
from conftest import random_state

pytestmark = pytest.mark.skipif(
    not hasattr(_kernels, "swap_term_sum"), reason="kernel module incomplete"
)


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
        got = _kernels.swap_term_sum(state.amplitudes, dims)
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


class TestSelection:
    def test_repeat_calls_bitwise_stable(self, rng):
        state = random_state(rng, (3, 2, 2))
        first = _kernels.swap_term_sum(state.amplitudes, state.dims)
        second = _kernels.swap_term_sum(state.amplitudes, state.dims)
        assert first == second
        mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert _kernels.minor_pair_sum(mat) == _kernels.minor_pair_sum(mat)
