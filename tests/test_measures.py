"""Concurrence and the multipartite wedge measure."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from entwedge import (
    Bipartition,
    MeasureConfig,
    MeasureKind,
    PureState,
    bipartite_concurrence,
    evaluate,
    multipartite_measure,
    normalize,
    pair_coefficient,
    pair_qubit_concurrence,
    parse_ket,
    partial_trace,
    partition_residual,
    purity,
    resolve_measure,
    swapped_wedge_coefficient,
    tripartite_measure,
)
from entwedge import _kernels
from entwedge.measures import DEFAULT_CONFIG, measure_rows
from entwedge.states import unfold
from entwedge.errors import (
    IndexOutOfRangeError,
    NotNormalizedError,
    TooLargeError,
    WrongArityError,
    WrongDimsError,
)
from conftest import (
    bell_state,
    bell_x_zero_state,
    ghz_state,
    random_product_state,
    random_state,
    w3_state,
)

SQRT6 = math.sqrt(6.0)
W3_VALUE = 4.0 / math.sqrt(3.0)


def swap_sum_oracle(state: PureState) -> float:
    """Direct triple loop over multi-index pairs and exchange slots."""
    tensor = state.tensor
    total = 0.0
    for K in np.ndindex(*state.dims):
        for L in np.ndindex(*state.dims):
            for j in range(state.num_subsystems):
                Ks = list(K)
                Ls = list(L)
                Ks[j], Ls[j] = Ls[j], Ks[j]
                diff = tensor[K] * tensor[L] - tensor[tuple(Ks)] * tensor[tuple(Ls)]
                total += abs(diff) ** 2
    return total


def minor_sum_oracle(mat: np.ndarray) -> float:
    rows, cols = mat.shape
    total = 0.0
    for mu in range(rows):
        for nu in range(mu + 1, rows):
            for i in range(cols):
                for j in range(cols):
                    d = mat[mu, i] * mat[nu, j] - mat[nu, i] * mat[mu, j]
                    total += abs(d) ** 2
    return total


def marginal_deficit_sum(state: PureState) -> float:
    """sum_j (2 - 2 tr rho_j^2), the closed-form counterpart of the pair sum."""
    return sum(
        2.0 - 2.0 * purity(partial_trace(state, j))
        for j in range(1, state.num_subsystems + 1)
    )


class TestPairQubit:
    def test_bell(self):
        result = pair_qubit_concurrence(bell_state())
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.kind is MeasureKind.BIPARTITE_CONCURRENCE

    def test_product_basis_state(self):
        amps = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128)
        assert pair_qubit_concurrence(PureState((2, 2), amps)).value == 0.0

    def test_skewed_superposition(self):
        amps = np.array(
            [math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)], dtype=np.complex128
        )
        result = pair_qubit_concurrence(PureState((2, 2), amps))
        assert result.value == pytest.approx(0.6, abs=1e-12)

    def test_wrong_dims(self):
        with pytest.raises(WrongDimsError):
            pair_qubit_concurrence(random_state(np.random.default_rng(0), (2, 3)))
        with pytest.raises(WrongDimsError):
            pair_qubit_concurrence(ghz_state(3))

    def test_matches_generic(self, rng):
        # the vectorized kernel may round one ulp away from the closed form
        for _ in range(50):
            state = random_state(rng, (2, 2))
            fast = pair_qubit_concurrence(state)
            generic = bipartite_concurrence(state)
            assert fast.value == pytest.approx(generic.value, rel=1e-14)
            assert fast.term_sum == pytest.approx(generic.term_sum, rel=1e-14)


class TestBipartite:
    def test_bell(self):
        assert bipartite_concurrence(bell_state()).value == pytest.approx(1.0, abs=1e-12)

    def test_product_states_vanish(self, rng):
        for dims in [(2, 2), (3, 4), (5, 2)]:
            state = random_product_state(rng, dims)
            assert bipartite_concurrence(state).value <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 5), (4, 3), (6, 6)])
    def test_against_purity_route(self, rng, dims):
        state = random_state(rng, dims)
        result = bipartite_concurrence(state)
        impurity = 1.0 - purity(partial_trace(state, 1))
        assert result.value == pytest.approx(math.sqrt(2.0 * impurity), abs=1e-9)
        assert result.term_sum == pytest.approx(impurity, abs=1e-9)

    def test_against_minor_loop(self, rng):
        state = random_state(rng, (3, 4))
        want = minor_sum_oracle(state.tensor)
        assert bipartite_concurrence(state).term_sum == pytest.approx(want, rel=1e-12)

    def test_maximally_entangled_ceiling(self):
        n = 3
        amps = np.zeros(n * n, dtype=np.complex128)
        amps[:: n + 1] = 1.0 / math.sqrt(n)
        result = bipartite_concurrence(PureState((n, n), amps))
        assert result.value == pytest.approx(math.sqrt(2.0 * (1.0 - 1.0 / n)), abs=1e-12)

    def test_wrong_arity(self):
        with pytest.raises(WrongArityError):
            bipartite_concurrence(ghz_state(3))
        single = PureState((2,), np.array([1.0, 0.0], dtype=np.complex128))
        with pytest.raises(WrongArityError):
            bipartite_concurrence(single)

    def test_not_normalized(self):
        amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128)
        with pytest.raises(NotNormalizedError):
            bipartite_concurrence(PureState((2, 2), amps))

    def test_normalize_flag(self):
        amps = np.array([3.0, 0.0, 0.0, 3.0], dtype=np.complex128)
        result = bipartite_concurrence(normalize(PureState((2, 2), amps)))
        assert result.value == pytest.approx(1.0, abs=1e-12)


class TestCoefficients:
    def test_pair_coefficient_ghz(self):
        z = pair_coefficient(ghz_state(3), (0, 0, 0), (1, 1, 1))
        assert z == pytest.approx(0.5, abs=1e-12)

    def test_pair_coefficient_random(self, rng):
        state = random_state(rng, (2, 3, 2))
        t = state.tensor
        K, L = (1, 2, 0), (0, 1, 1)
        assert pair_coefficient(state, K, L) == t[K] * t[L]

    def test_swapped_matching_slot_is_exact_zero(self, rng):
        state = random_state(rng, (2, 2))
        assert swapped_wedge_coefficient(state, (0, 1), (0, 0), 1) == 0j

    def test_swapped_bell(self):
        z = swapped_wedge_coefficient(bell_state(), (0, 0), (1, 1), 1)
        assert z == pytest.approx(0.5, abs=1e-12)
        # exchanging the second slot gives the same magnitude
        z2 = swapped_wedge_coefficient(bell_state(), (0, 0), (1, 1), 2)
        assert abs(z2) == pytest.approx(0.5, abs=1e-12)

    def test_antisymmetric_in_swap(self, rng):
        state = random_state(rng, (3, 2))
        a = swapped_wedge_coefficient(state, (2, 1), (0, 0), 1)
        b = swapped_wedge_coefficient(state, (0, 1), (2, 0), 1)
        assert a == pytest.approx(-b, abs=1e-15)

    def test_bad_indices(self):
        state = bell_state()
        with pytest.raises(IndexOutOfRangeError):
            pair_coefficient(state, (0, 2), (0, 0))
        with pytest.raises(IndexOutOfRangeError):
            pair_coefficient(state, (0, 0, 0), (0, 0))
        with pytest.raises(IndexOutOfRangeError):
            swapped_wedge_coefficient(state, (0, 0), (1, 1), 0)
        with pytest.raises(IndexOutOfRangeError):
            swapped_wedge_coefficient(state, (0, 0), (1, 1), 3)


class TestMultipartite:
    def test_ghz3(self):
        result = multipartite_measure(ghz_state(3))
        assert result.value == pytest.approx(SQRT6, abs=1e-12)

    def test_w3(self):
        assert multipartite_measure(w3_state()).value == pytest.approx(
            W3_VALUE, abs=1e-12
        )

    def test_bell_times_zero(self):
        # an unentangled third party contributes nothing
        assert multipartite_measure(bell_x_zero_state()).value == pytest.approx(
            2.0, abs=1e-12
        )

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)])
    def test_against_direct_loop(self, rng, dims):
        state = random_state(rng, dims)
        result = multipartite_measure(state)
        assert result.term_sum == pytest.approx(swap_sum_oracle(state), rel=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 3), (2, 3, 2, 2)])
    def test_closed_form_identity(self, rng, dims):
        for _ in range(5):
            state = random_state(rng, dims)
            result = multipartite_measure(state)
            want_sq = result.norm_constant * marginal_deficit_sum(state)
            assert result.value**2 == pytest.approx(want_sq, abs=1e-9)

    def test_twice_bipartite_on_two_subsystems(self, rng):
        for dims in [(2, 2), (3, 4), (2, 5)]:
            state = random_state(rng, dims)
            e = multipartite_measure(state).value
            c = bipartite_concurrence(state).value
            assert e == pytest.approx(2.0 * c, abs=1e-9)

    def test_product_states_vanish(self, rng):
        for dims in [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]:
            state = random_product_state(rng, dims)
            assert multipartite_measure(state).value <= 1e-10

    def test_size_guard(self):
        dims = (16, 16, 16, 2)  # 8192 total
        amps = np.zeros(8192, dtype=np.complex128)
        amps[0] = 1.0
        with pytest.raises(TooLargeError):
            multipartite_measure(PureState(dims, amps))

    def test_bipartite_size_guard_before_validation(self):
        # 4160 > 4096, and all-zero amplitudes would fail validation
        state = PureState((65, 64), np.zeros(65 * 64, dtype=np.complex128))
        with pytest.raises(TooLargeError):
            bipartite_concurrence(state)

    def test_bipartite_boundary_dimension_allowed(self):
        amps = np.zeros(4096, dtype=np.complex128)
        amps[0] = 1.0
        assert bipartite_concurrence(PureState((64, 64), amps)).value == 0.0

    def test_boundary_dimension_allowed(self):
        dims = (8, 8, 8, 8)  # exactly 4096
        amps = np.zeros(4096, dtype=np.complex128)
        amps[0] = 1.0
        assert multipartite_measure(PureState(dims, amps)).value == 0.0

    def test_wrong_arity(self):
        single = PureState((4,), np.array([1, 0, 0, 0], dtype=np.complex128))
        with pytest.raises(WrongArityError):
            multipartite_measure(single)


class TestMeasureRows:
    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (1, 3, 2), (3, 2, 2, 2)])
    def test_stack_rows_equal_public_measures(self, rng, dims):
        # one unfolding per split of the whole stack, row results bitwise
        # those of the public measure on each state alone
        states = [random_state(rng, dims) for _ in range(4)]
        rows = np.stack([s.amplitudes for s in states])
        measures = [multipartite_measure]
        if len(dims) == 2:
            measures.append(bipartite_concurrence)
        for measure in measures:
            want = [measure(s) for s in states]
            got = measure_rows(want[0].kind, rows, dims, DEFAULT_CONFIG)
            assert got == want


    @pytest.mark.parametrize("dims", [(2, 3, 4), (3, 2, 2, 2), (2, 2, 2, 2, 2)])
    def test_term_sum_adds_slots_in_order(self, rng, dims):
        # E's term sum is bitwise twice the singleton residuals added one
        # at a time from slot 1, the order every earlier output has used
        rows = np.stack([random_state(rng, dims).amplitudes for _ in range(6)])
        got = measure_rows(MeasureKind.MULTIPARTITE_E, rows, dims, DEFAULT_CONFIG)
        for t, result in enumerate(got):
            want = 0.0
            for j in range(len(dims)):
                want += _kernels.minor_pair_sum(unfold(rows, dims, [j])[t])
            assert result.term_sum.hex() == (2.0 * want).hex()


class TestNearProductExact:
    """``|0..0> + e |1..1>`` with ``e = 10^-k``, written as a ket decimal.

    Normalized, every singleton split residual is exactly
    ``2 e^2 / (1 + e^2)^2`` and E's term sum is ``2 m`` times that, so
    the floats can be held to exact fractions.  The kernel keeps these
    residuals to a few ulps; the bound leaves room for rounding, not for
    cancellation.
    """

    REL = Fraction(1, 10**14)

    @staticmethod
    def _rel(got: float, want: Fraction) -> Fraction:
        return abs(Fraction(got) - want) / want

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", range(3, 16))
    def test_residuals_keep_their_digits(self, m, k):
        zeros = ",".join("0" * m)
        ones = ",".join("1" * m)
        text = f"|{zeros}> + 0.{'0' * (k - 1)}1|{ones}>"
        state = normalize(evaluate(parse_ket(text)))
        e = Fraction(1, 10**k)
        exact = 2 * e**2 / (1 + e**2) ** 2
        for j in range(1, m + 1):
            residual = partition_residual(state, Bipartition((j,), m))
            assert self._rel(residual, exact) <= self.REL
        assert self._rel(multipartite_measure(state).term_sum, 2 * m * exact) <= self.REL
        if m == 2:
            assert self._rel(bipartite_concurrence(state).term_sum, exact) <= self.REL


class TestTripartite:
    def test_goldens(self):
        assert tripartite_measure(ghz_state(3)).value == pytest.approx(SQRT6, abs=1e-12)
        assert tripartite_measure(w3_state()).value == pytest.approx(W3_VALUE, abs=1e-12)
        assert tripartite_measure(bell_x_zero_state()).value == pytest.approx(
            2.0, abs=1e-12
        )

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 2, 3)])
    def test_agrees_with_generic(self, rng, dims):
        state = random_state(rng, dims)
        a = tripartite_measure(state)
        b = multipartite_measure(state)
        assert abs(a.value - b.value) <= 1e-12
        assert a.term_sum == pytest.approx(b.term_sum, rel=1e-12)

    def test_wrong_arity(self):
        with pytest.raises(WrongArityError):
            tripartite_measure(bell_state())
        with pytest.raises(WrongArityError):
            tripartite_measure(ghz_state(4))


class TestConfig:
    def test_result_invariant(self, rng):
        state = random_state(rng, (2, 2, 2))
        result = multipartite_measure(state)
        assert result.value == math.sqrt(result.norm_constant * result.term_sum)

    def test_norm_constant_scales_value(self, rng):
        state = random_state(rng, (2, 3))
        base = bipartite_concurrence(state)
        half = bipartite_concurrence(state, MeasureConfig(norm_constant=1.0))
        assert half.value == pytest.approx(base.value / math.sqrt(2.0), rel=1e-12)
        assert half.term_sum == base.term_sum
        assert half.norm_constant == 1.0

    def test_invalid_config(self):
        with pytest.raises(WrongDimsError):
            MeasureConfig(norm_constant=0.0)
        with pytest.raises(WrongDimsError):
            MeasureConfig(tol=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(WrongDimsError):
                MeasureConfig(norm_constant=bad)
            with pytest.raises(WrongDimsError):
                MeasureConfig(tol=bad)

    def test_loose_tolerance_accepts(self):
        amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) * math.sqrt(0.5005)
        cfg = MeasureConfig(tol=1e-2)
        assert bipartite_concurrence(PureState((2, 2), amps), cfg).value > 0


class TestResolve:
    def test_auto(self):
        assert resolve_measure("auto", 2) is bipartite_concurrence
        assert resolve_measure("auto", 3) is multipartite_measure

    def test_explicit(self):
        assert resolve_measure("bipartite", 5) is bipartite_concurrence
        assert resolve_measure("multipartite", 2) is multipartite_measure

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_measure("spectral", 2)
