"""The split residual kernel and the unfolding against brute-force oracles."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from entwedge import (
    enumerate_bipartitions,
    multipartite_measure,
    separability_report,
)
from entwedge import _kernels, lu
from entwedge.errors import TooLargeError
from entwedge.measures import MeasureKind, measure_rows
from entwedge.states import Bipartition, unfold
from conftest import random_state
from oracles import (
    brute_minor_sum,
    brute_swap_sum,
    grid_norm_sq,
    matricize,
    row_pair_minor_sum,
    slots,
    wedge_pair,
)


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
        got = _kernels.minor_pair_sum(mat[None])[0]
        assert got == pytest.approx(brute_minor_sum(mat), rel=1e-12)

    def test_minor_wide_equals_tall(self, rng):
        # the summand is symmetric under swapping the row pair with the
        # column pair, so transposition must not change the result
        mat = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        a = _kernels.minor_pair_sum(mat[None])[0]
        b = _kernels.minor_pair_sum(mat.T.copy()[None])[0]
        assert a == pytest.approx(b, rel=1e-12)


def random_stack(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def exact_minor_sum(mat: np.ndarray) -> Fraction:
    """``brute_minor_sum`` in exact rationals, on the same floats."""
    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in mat]
    total = Fraction(0)
    for top, bottom in itertools.combinations(rows, 2):
        # the minor a d - b c with a, c from the top row, b, d from the bottom
        for (a, b), (c, d) in itertools.product(zip(top, bottom), repeat=2):
            re = a[0] * d[0] - a[1] * d[1] - b[0] * c[0] + b[1] * c[1]
            im = a[0] * d[1] + a[1] * d[0] - b[0] * c[1] - b[1] * c[0]
            total += re * re + im * im
    return total


class TestNearProductAccuracy:
    # A residual of size r is conditioned like 1/sqrt(r) in the entries,
    # so no backward-stable kernel keeps its relative digits as r -> 0.
    # The bound |err| <= C u sqrt(exact) with u = 2^-53 is what one can
    # ask.  C = 8 is fixed before any change of kernel; the row-pair
    # kernel's worst ratio on these 275 matrices is 0.65.
    C = 8

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 4), (4, 4), (2, 8)])
    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(2, 13)])
    def test_error_scales_with_sqrt_residual(self, rng, shape, eps):
        for _ in range(5):
            # a product state in random local bases, plus noise, unit norm
            left, right = (random_stack(rng, (n,)) for n in shape)
            mat = np.outer(left, right) / np.linalg.norm(left) / np.linalg.norm(right)
            mat = mat + eps * random_stack(rng, shape)
            mat /= np.linalg.norm(mat)
            got = _kernels.minor_pair_sum(mat[None])[0]
            exact = exact_minor_sum(mat)
            assert got >= 0
            assert abs(Fraction(got) - exact) <= self.C * 2.0 ** -53 * math.sqrt(exact)


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
        assert _kernels.minor_pair_sum(mat[None])[0] == pytest.approx(wedge_sum(mat), rel=1e-12)

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
        want = [_kernels.minor_pair_sum(mat[None])[0] for mat in stack]
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
        assert _kernels.minor_pair_sum(random_stack(rng, (1, 7))[None])[0] == 0.0
        assert list(_kernels.minor_pair_sum(random_stack(rng, (4, 1, 7)))) == [0.0] * 4

    def test_real_stack_matches_complex(self, rng):
        stack = rng.standard_normal((5, 3, 6))
        got = _kernels.minor_pair_sum(stack)
        want = _kernels.minor_pair_sum(stack.astype(np.complex128))
        assert np.array_equal(got, want)


class TestRowPairOracle:
    # The stack-only kernel is bitwise the row-pair oracle, on its stack
    # and on each matrix alone, through every branch of the blocking.
    @pytest.mark.parametrize("shape", [
        (5, 12, 3),  # R > C: paired after a transpose
        (3, 3, 200),  # C > 90: each pair product summed in row blocks
        (3, 2, 256),
        (40, 8, 32),  # more matrices than one run holds
        (7, 16, 16),
        (4, 1, 7),  # one row: no minors
    ])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64, np.float32])
    def test_kernel_is_the_oracle(self, rng, shape, dtype):
        stack = random_stack(rng, shape)
        if not np.issubdtype(dtype, np.complexfloating):
            stack = stack.real
        stack = stack.astype(dtype)
        got = [x.hex() for x in _kernels.minor_pair_sum(stack).tolist()]
        assert got == [x.hex() for x in row_pair_minor_sum(stack).tolist()]
        assert got == [row_pair_minor_sum(mat).hex() for mat in stack]


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
        assert self.peak_bytes(lambda: _kernels.minor_pair_sum(mat[None])) < self.LIMIT

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
                assert float(got[t, s]).hex() == _kernels.minor_pair_sum(mat[None])[0].hex()

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
        # The kernel would give bitwise equal sums from one call per shape
        # on the whole stack; this pin stays only because the benchmark
        # harness's peak memory grows with the op rate (ROADMAP item 1).
        # The PR that lands the row fold (item 3) moves it to one call.
        rows = np.stack([random_state(rng, dims).amplitudes for _ in range(4)])
        shapes = self.count_kernel(monkeypatch)
        measure_rows(MeasureKind.MULTIPARTITE_E, rows, dims)
        assert sorted(shapes) == sorted(want)


class TestSelection:
    def test_repeat_calls_bitwise_stable(self, rng):
        state = random_state(rng, (3, 2, 2))
        first = multipartite_measure(state).term_sum
        second = multipartite_measure(state).term_sum
        assert first == second
        mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert _kernels.minor_pair_sum(mat[None])[0] == _kernels.minor_pair_sum(mat[None])[0]


class TestSplitWork:
    def test_one_row_costs_nothing(self):
        # a one-row side has no row pairs, however long the other side
        assert _kernels.check_split_work((1, 4096), [[0]]) == 0
        assert _kernels.check_split_work((3, 1, 2), [[1]]) == 0

    def test_pairs_along_the_shorter_side(self):
        # (3, 8) has 3 row pairs times 8^2 columns; (8, 3) is paired
        # after the same transpose the kernel makes
        assert _kernels.check_split_work((3, 8), [[0]]) == 3 * 8 ** 2
        assert _kernels.check_split_work((8, 3), [[0]]) == 3 * 8 ** 2
        # splits add, and both sides of a split price the same
        assert _kernels.check_split_work((2, 3, 4), [[0], [1], [2]]) == 12 ** 2 + 3 * 8 ** 2 + 6 * 6 ** 2
        assert _kernels.check_split_work((2, 3, 4), [[0, 2]]) == _kernels.check_split_work((2, 3, 4), [[1]])

    @pytest.mark.parametrize("dims", [(2, 2), (64, 64), (5, 2), (2, 3, 4), (1, 512), (3, 1, 2)])
    def test_is_the_kernel_term_of_trial_work(self, dims):
        # the re-measure reads split {1} on two subsystems, every
        # singleton split otherwise
        lefts = [[0]] if len(dims) == 2 else [[j] for j in range(len(dims))]
        gates = sum(n ** 3 for n in dims)
        assert lu._trial_work(dims) == lu._TRIAL_FLOOR + gates + _kernels.check_split_work(dims, lefts)

    def test_costliest_call_under_a_total_of_4096_is_accepted(self):
        # separability_report on (2,2,2,2,4,4,4,4) reads all 127 splits;
        # no call on a total dimension of at most 4096 prices more
        dims = (2, 2, 2, 2, 4, 4, 4, 4)
        lefts = [slots(part) for part in enumerate_bipartitions(8)]
        assert _kernels.check_split_work(dims, lefts) == 977010688
        assert 977010688 <= _kernels.MAX_SPLIT_WORK

    def test_free_splits_are_never_unfolded(self, monkeypatch):
        # every split of (2**20, 1, ..., 1) has a one-row side, so it
        # prices no products and has no minors to sum
        dims = (1 << 20,) + (1,) * 7
        lefts = [slots(part) for part in enumerate_bipartitions(8)]
        assert _kernels.check_split_work(dims, lefts) == 0

        def unfold(rows, dims, left):
            # fail at the first call, before 127 copies of 16 MB are made
            raise AssertionError(f"split {left} was unfolded")

        monkeypatch.setattr(_kernels, "unfold", unfold)
        rows = np.zeros((1, 1 << 20), np.complex128)
        rows[0, -1] = 1.0
        residuals = _kernels.split_residuals(rows, dims, lefts)
        assert residuals.shape == (1, 127)
        assert not residuals.any()

    @pytest.mark.parametrize(
        "dims", [d for m in (2, 3, 4) for d in itertools.product((1, 2, 3), repeat=m)]
    )
    def test_price_and_kernel_unfold_the_same_splits(self, monkeypatch, rng, dims):
        # every nonempty proper left side in one call: the price counts
        # exactly the splits the kernel unfolds, and no split it skips
        # reads anything but 0.0
        m = len(dims)
        lefts = [left for size in range(1, m) for left in itertools.combinations(range(m), size)]
        unfolded = []
        real = _kernels.unfold

        def unfold(rows, dims, left):
            unfolded.append(left)
            return real(rows, dims, left)

        monkeypatch.setattr(_kernels, "unfold", unfold)
        residuals = _kernels.split_residuals(random_state(rng, dims).amplitudes[None], dims, lefts)
        price = 0
        for left in unfolded:
            r = math.prod(dims[ax] for ax in left)
            short, long = sorted((r, math.prod(dims) // r))
            assert short > 1
            price += short * (short - 1) // 2 * long ** 2
        assert _kernels.check_split_work(dims, lefts) == price
        skipped = [s for s, left in enumerate(lefts) if left not in unfolded]
        assert all(residuals[0, s] == 0.0 for s in skipped)

    def test_guard_boundary(self, monkeypatch):
        monkeypatch.setattr(_kernels, "MAX_SPLIT_WORK", 3 * 8 ** 2)
        assert _kernels.check_split_work((3, 8), [[0]]) == 192
        monkeypatch.setattr(_kernels, "MAX_SPLIT_WORK", 3 * 8 ** 2 - 1)
        message = r"kernel work of 192 products on dims \(3, 8\) exceeds the measure guard of 191"
        with pytest.raises(TooLargeError, match=message):
            _kernels.check_split_work((3, 8), [[0]])
