"""State container, the unfolding, marginal oracles, and bipartitions."""

from __future__ import annotations

import itertools
import math
import re
import time

import numpy as np
import pytest

from entwedge import (
    PureState,
    enumerate_bipartitions,
    normalize,
    validate,
)
from entwedge import states
from entwedge.errors import NotNormalizedError, TooLargeError, ValidationError
from entwedge.states import Bipartition
from conftest import bell_state, random_state, w3_state
from oracles import complement, partial_trace, purity, slots


def unfolding(state: PureState, part: Bipartition) -> np.ndarray:
    """The library's unfolding of one state across ``part``."""
    return states.unfold(state.amplitudes[None], state.dims, slots(part))[0]


def brute_marginal(state: PureState, keep: int) -> np.ndarray:
    """Independent route: direct double sum over all other indices."""
    tensor = state.tensor
    j = keep - 1
    n = state.dims[j]
    rho = np.zeros((n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            acc = 0j
            for idx in itertools.product(*[range(d) for d in state.dims]):
                if idx[j] != a:
                    continue
                other = idx[:j] + (b,) + idx[j + 1:]
                acc += tensor[idx] * np.conj(tensor[other])
            rho[a, b] = acc
    return rho


class TestPureState:
    @pytest.mark.parametrize(
        "amps", [["a", "b"], [[1, 0], [0]], object()], ids=["text", "ragged", "object"]
    )
    def test_amplitudes_numpy_cannot_read_are_refused(self, amps):
        with pytest.raises(ValidationError, match="^amplitudes must be complex numbers: "):
            PureState((2,), amps)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="got 3 amplitudes for dims"):
            PureState((2, 2), np.zeros(3, dtype=np.complex128))

    def test_guard_names_a_huge_total_by_its_bits(self, int_digit_limit):
        # str() refuses the 8599-digit product of two 4300-digit dims
        with pytest.raises(TooLargeError, match=r"^total dimension of \d+ bits exceeds"):
            PureState((10 ** 4299, 10 ** 4299), [])

    def test_guards(self):
        with pytest.raises(TooLargeError):
            PureState((2,) * 9, np.zeros(512))
        with pytest.raises(TooLargeError):
            PureState((2 ** 21,), np.zeros(2 ** 21))
        # the boundary itself is allowed
        amps = np.zeros(2 ** 20, dtype=np.complex128)
        amps[0] = 1.0
        PureState((2,) * 8, np.zeros(256))
        PureState((2 ** 20,), amps)

    def test_immutable(self):
        state = bell_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.3

    def test_compares_by_identity(self):
        # array fields have no single truth value, so a state is equal
        # only to itself and hashes by identity
        state = bell_state()
        assert state == state
        assert state != PureState(state.dims, state.amplitudes)
        assert state in {state}

    def test_validate_ok(self):
        validate(bell_state())
        vec = np.zeros(4, dtype=np.complex128)
        vec[1] = 1.0
        validate(PureState((2, 2), vec))

    def test_validate_norm(self):
        vec = np.ones(4, dtype=np.complex128)  # squared norm 4
        with pytest.raises(NotNormalizedError) as info:
            validate(PureState((2, 2), vec))
        assert abs(info.value.norm - 2.0) < 1e-12

    def test_validate_tolerance_is_on_squared_norm(self):
        vec = np.zeros(2, dtype=np.complex128)
        vec[0] = math.sqrt(1 + 5e-10)
        validate(PureState((2,), vec))
        vec[0] = math.sqrt(1 + 5e-9)
        with pytest.raises(NotNormalizedError) as info:
            validate(PureState((2,), vec))
        assert info.value.tol == states.DEFAULT_NORM_TOL == 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validate_refuses_non_finite(self, bad):
        vec = np.array([bad, 0.0, 0.0, 0.0], dtype=np.complex128)
        with pytest.raises(NotNormalizedError):
            validate(PureState((2, 2), vec))
        with pytest.raises(ValidationError):
            normalize(PureState((2, 2), vec))

    def test_normalize(self):
        vec = np.array([3.0, 0.0, 0.0, 4.0], dtype=np.complex128)
        state = normalize(PureState((2, 2), vec))
        np.testing.assert_allclose(state.amplitudes, vec / 5.0, rtol=0, atol=1e-15)
        with pytest.raises(ValidationError, match="zero vector"):
            normalize(PureState((2, 2), np.zeros(4)))

    def test_normalize_is_idempotent_enough(self, rng):
        state = random_state(rng, (3, 2, 2))
        again = normalize(PureState(state.dims, state.amplitudes * 7.3))
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=1e-14)

    @pytest.mark.parametrize(
        "amps", [[1e-200, 0], [1e-160, 1e-160], [1e200, 0], [1e308, 1e308]], ids=repr
    )
    def test_normalize_where_squares_overflow_or_underflow(self, amps):
        # the squares of these leave the float range or lose digits as
        # subnormals; scaled by a power of two first, they normalize
        state = normalize(PureState((2,), amps))
        validate(state)
        want = np.array(amps) / max(amps)
        np.testing.assert_allclose(state.amplitudes, want / np.linalg.norm(want), rtol=1e-15)

    def test_normalize_is_bitwise_the_plain_quotient(self, rng):
        # a power-of-two scale is exact, so where nothing overflows or
        # underflows the result is a / |a| to the bit, |a| the square
        # root of numpy's pairwise sum of |a|^2
        for _ in range(200):
            n = int(rng.integers(1, 64))
            a = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-100, 100)
            got = normalize(PureState((n,), a)).amplitudes
            assert got.tobytes() == (a / np.sqrt(np.sum(np.abs(a) ** 2))).tobytes()

    @pytest.mark.parametrize("scale, shown", [(1e200, "1e+200"), (1e-200, "1e-200")])
    def test_validate_names_the_norm_at_its_size(self, scale, shown):
        # squared, 1e200 overflows with a warning, which the settings of
        # this suite make an error, and 1e-200 underflows to 0
        with pytest.raises(NotNormalizedError, match=re.escape(f"state norm is {shown},")) as info:
            validate(PureState((2, 2), [scale, 0, 0, 0]))
        assert info.value.norm == scale


class TestMatricize:
    def test_bell_rows(self):
        mat = unfolding(bell_state(), Bipartition((1,), 2))
        expected = np.array([[1, 0], [0, 1]], dtype=np.complex128) / math.sqrt(2)
        np.testing.assert_allclose(mat, expected, atol=0)

    def test_product_basis_state(self):
        # |0,1> over dims (2, 3): single 1 in row 0, column 1
        vec = np.zeros(6, dtype=np.complex128)
        vec[1] = 1.0
        mat = unfolding(PureState((2, 3), vec), Bipartition((1,), 2))
        assert mat.shape == (2, 3)
        assert mat[0, 1] == 1.0
        assert np.count_nonzero(mat) == 1

    def test_middle_subsystem_rows(self, rng):
        # rows over subsystem 2 of a (2, 3, 2) state, exhaustive index check
        state = random_state(rng, (2, 3, 2))
        mat = unfolding(state, Bipartition((2,), 3))
        tensor = state.tensor
        assert mat.shape == (3, 4)
        for i1 in range(2):
            for i2 in range(3):
                for i3 in range(2):
                    assert mat[i2, i1 * 2 + i3] == tensor[i1, i2, i3]

    def test_round_trip_all_partitions(self, rng):
        state = random_state(rng, (2, 2, 3))
        for part in enumerate_bipartitions(3):
            mat = unfolding(state, part)
            axes = [j - 1 for j in part.left + complement(part)]
            rebuilt = np.transpose(
                mat.reshape([state.dims[ax] for ax in axes]), np.argsort(axes)
            )
            np.testing.assert_array_equal(rebuilt.reshape(-1), state.amplitudes)


class TestPartialTrace:
    def test_bell_is_maximally_mixed(self):
        rho = partial_trace(bell_state(), 1)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_basis_state_is_pure(self):
        vec = np.zeros(4, dtype=np.complex128)
        vec[0] = 1.0
        rho = partial_trace(PureState((2, 2), vec), 2)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=0)

    def test_against_brute_double_sum(self, rng):
        state = random_state(rng, (2, 3, 2))
        for keep in (1, 2, 3):
            rho = partial_trace(state, keep)
            np.testing.assert_allclose(
                rho, brute_marginal(state, keep), atol=1e-13
            )

    def test_marginal_trace_and_hermiticity(self, rng):
        for dims in [(2, 2), (3, 2, 2), (2, 2, 2, 3)]:
            state = random_state(rng, dims)
            for keep in range(1, len(dims) + 1):
                rho = partial_trace(state, keep)
                assert abs(np.trace(rho) - 1.0) < 1e-12
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-14

    def test_widest_marginal_accepted(self):
        # a 1024-wide slot: the marginal is the projector on its index 3
        amps = np.zeros(1024, dtype=np.complex128)
        amps[3] = 1.0
        rho = partial_trace(PureState((1024, 1), amps), 1)
        assert rho.shape == (1024, 1024) and rho[3, 3] == 1.0

    def test_single_subsystem_is_the_projector(self, rng):
        # the one-slot unfolding is an n x 1 matrix, so its Gram matrix
        # is the outer product up to rounding
        state = random_state(rng, (3,))
        vec = state.amplitudes
        rho = partial_trace(state, 1)
        np.testing.assert_allclose(rho, np.outer(vec, vec.conj()), rtol=0, atol=1e-15)


class TestPurity:
    def test_pure_and_mixed(self):
        assert purity(np.diag([1.0, 0.0])) == 1.0
        assert abs(purity(np.eye(2) / 2) - 0.5) < 1e-15

    def test_w3_marginal_purity(self):
        rho = partial_trace(w3_state(), 1)
        assert abs(purity(rho) - 5 / 9) < 1e-12
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rho), [1 / 3, 2 / 3], atol=1e-12
        )

    def test_sides_match(self, rng):
        # both sides of any split have equal purity
        state = random_state(rng, (2, 3, 2))
        for part in enumerate_bipartitions(3):
            left = unfolding(state, part)
            right = unfolding(state, Bipartition(complement(part), 3))
            p_left = float(np.sum(np.abs(left @ left.conj().T) ** 2))
            p_right = float(np.sum(np.abs(right @ right.conj().T) ** 2))
            assert abs(p_left - p_right) < 1e-12

    def test_range(self, rng):
        for dims in [(2, 2), (3, 3)]:
            state = random_state(rng, dims)
            value = purity(partial_trace(state, 1))
            assert 1 / dims[0] - 1e-12 <= value <= 1 + 1e-12


class TestBipartitions:
    def test_m2(self):
        assert [p.left for p in enumerate_bipartitions(2)] == [(1,)]

    def test_m3(self):
        assert [p.left for p in enumerate_bipartitions(3)] == [(1,), (2,), (3,)]

    def test_m4_seven_splits(self):
        assert [p.left for p in enumerate_bipartitions(4)] == [
            (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4),
        ]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_count(self, m):
        # each split once, by its canonical side: the smaller side, or
        # the side holding subsystem 1 on a tie
        parts = enumerate_bipartitions(m)
        assert len(parts) == 2 ** (m - 1) - 1
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert p.total == m and list(p.left) == sorted(set(p.left))
            assert 2 * len(p.left) < m or (2 * len(p.left) == m and p.left[0] == 1)

    def test_invalid(self, int_digit_limit):
        with pytest.raises(ValidationError, match="^need at least 2 subsystems, got 1$"):
            enumerate_bipartitions(1)
        with pytest.raises(
            ValidationError, match="^need at least 2 subsystems, got an integer of 16610 bits$"
        ):
            enumerate_bipartitions(-(10 ** 5000))

    @pytest.mark.parametrize("m", [9, 2 ** 40])
    def test_more_subsystems_than_a_state_has_are_refused_first(self, m):
        # 2**39 splits would not fit in memory
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match="^m exceeds the guard of 8 subsystems$"):
            enumerate_bipartitions(m)
        assert time.perf_counter() - start < 1.0

    def test_eight_subsystems_still_split(self):
        parts = enumerate_bipartitions(8)
        assert len(parts) == 127
        assert parts[-1] == Bipartition((1, 6, 7, 8), 8)
