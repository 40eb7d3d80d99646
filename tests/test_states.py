"""State container, marginals, matricization, and bipartitions."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from entwedge import (
    Bipartition,
    DensityMatrix,
    PureState,
    enumerate_bipartitions,
    matricize,
    normalize,
    partial_trace,
    purity,
    validate,
)
from entwedge.errors import (
    InvalidPartitionError,
    LengthMismatchError,
    NotNormalizedError,
    ValidationError,
    TooLargeError,
    ZeroStateError,
)
from conftest import bell_state, random_state, w3_state


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
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            PureState((2, 2), np.zeros(3, dtype=np.complex128))

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
        validate(PureState((2,), vec), tol=1e-9)
        vec[0] = math.sqrt(1 + 5e-9)
        with pytest.raises(NotNormalizedError):
            validate(PureState((2,), vec), tol=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validate_refuses_non_finite(self, bad):
        vec = np.array([bad, 0.0, 0.0, 0.0], dtype=np.complex128)
        with pytest.raises(NotNormalizedError):
            validate(PureState((2, 2), vec))
        # a NaN tolerance is refused as such, not as a norm failure
        with pytest.raises(ValidationError, match="tol must be nonnegative and finite"):
            validate(bell_state(), tol=math.nan)
        with pytest.raises(ValidationError):
            normalize(PureState((2, 2), vec))

    def test_normalize(self):
        vec = np.array([3.0, 0.0, 0.0, 4.0], dtype=np.complex128)
        state = normalize(PureState((2, 2), vec))
        np.testing.assert_allclose(state.amplitudes, vec / 5.0, rtol=0, atol=1e-15)
        with pytest.raises(ZeroStateError):
            normalize(PureState((2, 2), np.zeros(4)))

    def test_normalize_is_idempotent_enough(self, rng):
        state = random_state(rng, (3, 2, 2))
        again = normalize(PureState(state.dims, state.amplitudes * 7.3))
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=1e-14)


class TestMatricize:
    def test_bell_rows(self):
        mat = matricize(bell_state(), Bipartition((1,), 2))
        expected = np.array([[1, 0], [0, 1]], dtype=np.complex128) / math.sqrt(2)
        np.testing.assert_allclose(mat, expected, atol=0)

    def test_product_basis_state(self):
        # |0,1> over dims (2, 3): single 1 in row 0, column 1
        vec = np.zeros(6, dtype=np.complex128)
        vec[1] = 1.0
        mat = matricize(PureState((2, 3), vec), Bipartition((1,), 2))
        assert mat.shape == (2, 3)
        assert mat[0, 1] == 1.0
        assert np.count_nonzero(mat) == 1

    def test_middle_subsystem_rows(self, rng):
        # rows over subsystem 2 of a (2, 3, 2) state, exhaustive index check
        state = random_state(rng, (2, 3, 2))
        mat = matricize(state, Bipartition((2,), 3))
        tensor = state.tensor
        assert mat.shape == (3, 4)
        for i1 in range(2):
            for i2 in range(3):
                for i3 in range(2):
                    assert mat[i2, i1 * 2 + i3] == tensor[i1, i2, i3]

    def test_round_trip_all_partitions(self, rng):
        state = random_state(rng, (2, 2, 3))
        for part in enumerate_bipartitions(3):
            mat = matricize(state, part)
            axes = [j - 1 for j in part.left] + [j - 1 for j in part.right]
            rebuilt = np.transpose(
                mat.reshape([state.dims[ax] for ax in axes]), np.argsort(axes)
            )
            np.testing.assert_array_equal(rebuilt.reshape(-1), state.amplitudes)

    def test_wrong_total(self):
        with pytest.raises(InvalidPartitionError):
            matricize(bell_state(), Bipartition((1,), 3))


class TestPartialTrace:
    def test_bell_is_maximally_mixed(self):
        rho = partial_trace(bell_state(), 1)
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_basis_state_is_pure(self):
        vec = np.zeros(4, dtype=np.complex128)
        vec[0] = 1.0
        rho = partial_trace(PureState((2, 2), vec), 2)
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=0)

    def test_against_brute_double_sum(self, rng):
        state = random_state(rng, (2, 3, 2))
        for keep in (1, 2, 3):
            rho = partial_trace(state, keep)
            np.testing.assert_allclose(
                rho.entries, brute_marginal(state, keep), atol=1e-13
            )

    def test_marginal_trace_and_hermiticity(self, rng):
        for dims in [(2, 2), (3, 2, 2), (2, 2, 2, 3)]:
            state = random_state(rng, dims)
            for keep in range(1, len(dims) + 1):
                rho = partial_trace(state, keep)
                assert abs(np.trace(rho.entries) - 1.0) < 1e-12
                assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-14

    def test_bad_label(self):
        with pytest.raises(InvalidPartitionError):
            partial_trace(bell_state(), 3)

    def test_single_subsystem_is_the_projector(self, rng):
        # the one-slot unfolding is an n x 1 matrix, so its Gram matrix
        # is the outer product up to rounding
        state = random_state(rng, (3,))
        vec = state.amplitudes
        rho = partial_trace(state, 1)
        np.testing.assert_allclose(rho.entries, np.outer(vec, vec.conj()), rtol=0, atol=1e-15)


class TestPurity:
    def test_pure_and_mixed(self):
        assert purity(DensityMatrix(2, np.diag([1.0, 0.0]))) == 1.0
        assert abs(purity(DensityMatrix(2, np.eye(2) / 2)) - 0.5) < 1e-15

    def test_w3_marginal_purity(self):
        rho = partial_trace(w3_state(), 1)
        assert abs(purity(rho) - 5 / 9) < 1e-12
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rho.entries), [1 / 3, 2 / 3], atol=1e-12
        )

    def test_sides_match(self, rng):
        # both sides of any split have equal purity
        state = random_state(rng, (2, 3, 2))
        for part in enumerate_bipartitions(3):
            left = matricize(state, part)
            right = matricize(state, Bipartition(part.right, 3))
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
        parts = enumerate_bipartitions(m)
        assert len(parts) == 2 ** (m - 1) - 1
        assert len(set(parts)) == len(parts)
        assert all(p.is_canonical for p in parts)

    def test_canonicalization(self):
        assert Bipartition((2, 3), 4).canonical().left == (1, 4)
        assert Bipartition((2,), 3).is_canonical
        assert not Bipartition((1, 3), 3).is_canonical
        assert Bipartition((1, 2), 4).is_canonical

    def test_complement(self):
        assert Bipartition((2,), 4).right == (1, 3, 4)

    def test_invalid(self):
        with pytest.raises(InvalidPartitionError):
            Bipartition((), 3)
        with pytest.raises(InvalidPartitionError):
            Bipartition((1, 2, 3), 3)
        with pytest.raises(InvalidPartitionError):
            Bipartition((0,), 3)
        with pytest.raises(InvalidPartitionError):
            Bipartition((4,), 3)
        with pytest.raises(InvalidPartitionError):
            Bipartition((1, 1), 3)
        with pytest.raises(InvalidPartitionError):
            enumerate_bipartitions(1)
