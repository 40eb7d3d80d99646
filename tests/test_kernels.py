"""The split residual kernel and the unfolding against brute-force oracles."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from entwedge import Bipartition, matricize, multipartite_measure, separability_report
from entwedge import _kernels
from entwedge.measures import DEFAULT_CONFIG, MeasureKind, measure_rows
from entwedge.multilinear import grid_norm_sq, wedge_pair
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


def random_stack(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def wedge_sum(mat: np.ndarray) -> float:
    """The paper's own route: the squared norm of the wedge of every row
    pair, added over ``mu < nu``."""
    return sum(
        grid_norm_sq(wedge_pair(mat[mu], mat[nu]))
        for mu, nu in itertools.combinations(range(len(mat)), 2)
    )


WEDGE_SHAPES = [(2, 2), (3, 8), (8, 3), (16, 16), (2, 128)]


class TestWedgeIdentity:
    @pytest.mark.parametrize("shape", WEDGE_SHAPES)
    def test_matrix_is_sum_of_row_wedges(self, rng, shape):
        mat = random_stack(rng, shape)
        assert _kernels.minor_pair_sum(mat) == pytest.approx(wedge_sum(mat), rel=1e-12)

    @pytest.mark.parametrize("shape", WEDGE_SHAPES)
    def test_stack_is_sum_of_row_wedges(self, rng, shape):
        stack = random_stack(rng, (3,) + shape)
        got = _kernels.minor_pair_sum(stack)
        assert got.shape == (3,)
        for value, mat in zip(got, stack):
            assert value == pytest.approx(wedge_sum(mat), rel=1e-12)


class TestStack:
    @staticmethod
    def assert_bitwise_singles(stack):
        got = _kernels.minor_pair_sum(stack)
        want = [_kernels.minor_pair_sum(mat) for mat in stack]
        assert [float(x).hex() for x in got] == [x.hex() for x in want]

    def test_longer_than_one_run(self, rng):
        # one 32x32 pair product per matrix: the 40 cannot share one run
        stack = random_stack(rng, (40, 8, 32))
        assert 40 * 32 * 32 > _kernels._BLOCK_ENTRIES
        self.assert_bitwise_singles(stack)

    def test_tall_stack_is_transposed(self, rng):
        self.assert_bitwise_singles(random_stack(rng, (12, 32, 4)))

    def test_wide_pair_spans_row_blocks(self, rng):
        # 256 columns: each pair product is summed in several row blocks
        assert 256 * 256 > _kernels._BLOCK_ENTRIES
        self.assert_bitwise_singles(random_stack(rng, (3, 2, 256)))

    def test_one_row_reads_zero(self, rng):
        assert _kernels.minor_pair_sum(random_stack(rng, (1, 7))) == 0.0
        assert list(_kernels.minor_pair_sum(random_stack(rng, (4, 1, 7)))) == [0.0] * 4

    def test_real_stack_matches_complex(self, rng):
        stack = rng.standard_normal((5, 3, 6))
        got = _kernels.minor_pair_sum(stack)
        want = _kernels.minor_pair_sum(stack.astype(np.complex128))
        assert np.array_equal(got, want)


class TestMemoryBound:
    # The parent block cap let one wide pair product hold 32 MB per
    # temporary; these inputs then peaked at about 96 MB.
    LIMIT = 2 * 1024 * 1024

    @staticmethod
    def peak_bytes(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_wide_matrix(self, rng):
        mat = random_stack(rng, (2, 2048))
        assert self.peak_bytes(lambda: _kernels.minor_pair_sum(mat)) < self.LIMIT

    def test_separability_report(self, rng):
        state = random_state(rng, (2, 2, 1024))
        assert self.peak_bytes(lambda: separability_report(state)) < self.LIMIT


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


class TestSplitResiduals:
    # splits out of order, mixed row counts, one split asked for twice
    SPLITS = {
        (2, 3, 4): [[2], [0, 1], [1], [0], [2], [1, 2], [0, 2]],
        (2, 2, 2, 2): [[1, 3], [3], [0], [0, 1, 2], [3], [2, 0], [1]],
        (1, 3, 2): [[2], [0], [1, 2], [1], [0]],
        (5, 7): [[1], [0], [1]],
    }

    @pytest.mark.parametrize("dims", list(SPLITS))
    def test_entries_are_one_matrix_calls(self, rng, dims):
        lefts = self.SPLITS[dims]
        rows = np.stack([random_state(rng, dims).amplitudes for _ in range(5)])
        got = _kernels.split_residuals(rows, dims, lefts)
        assert got.shape == (5, len(lefts))
        for s, left in enumerate(lefts):
            for t, mat in enumerate(unfold(rows, dims, left)):
                assert float(got[t, s]).hex() == _kernels.minor_pair_sum(mat).hex()

    @staticmethod
    def count_kernel(monkeypatch) -> list:
        shapes = []
        real = _kernels.minor_pair_sum

        def counted(mat):
            shapes.append(np.shape(mat))
            return real(mat)

        monkeypatch.setattr(_kernels, "minor_pair_sum", counted)
        return shapes

    @pytest.mark.parametrize(
        "dims, want",
        [((2, 2, 2), [(3, 2, 4)] * 4), ((2, 3, 4), [(1, 2, 12), (1, 3, 8), (1, 4, 6)] * 4)],
    )
    def test_one_call_per_row_and_shape(self, monkeypatch, rng, dims, want):
        rows = np.stack([random_state(rng, dims).amplitudes for _ in range(4)])
        shapes = self.count_kernel(monkeypatch)
        measure_rows(MeasureKind.MULTIPARTITE_E, rows, dims, DEFAULT_CONFIG)
        assert sorted(shapes) == sorted(want)


class TestSelection:
    def test_repeat_calls_bitwise_stable(self, rng):
        state = random_state(rng, (3, 2, 2))
        first = multipartite_measure(state).term_sum
        second = multipartite_measure(state).term_sum
        assert first == second
        mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert _kernels.minor_pair_sum(mat) == _kernels.minor_pair_sum(mat)
