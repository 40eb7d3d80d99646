"""Concurrence and the multipartite wedge measure."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from entwedge import (
    Bipartition,
    MeasureKind,
    PureState,
    bipartite_concurrence,
    evaluate,
    invariance_experiment,
    multipartite_measure,
    normalize,
    parse_ket,
    separability_report,
)
from entwedge import _kernels
from entwedge.measures import _values, measure_rows
from entwedge.states import unfold
from entwedge.errors import (
    NotNormalizedError,
    TooLargeError,
    ValidationError,
)
from conftest import (
    bell_state,
    bell_x_zero_state,
    ghz_state,
    random_product_state,
    random_state,
    w3_state,
)
from oracles import (
    brute_minor_sum,
    brute_swap_sum,
    pair_qubit_term_sum,
    partial_trace,
    purity,
    tripartite_term_sum,
)

SQRT6 = math.sqrt(6.0)
W3_VALUE = 4.0 / math.sqrt(3.0)


def marginal_deficit_sum(state: PureState) -> float:
    """sum_j (2 - 2 tr rho_j^2), the closed-form counterpart of the pair sum."""
    return sum(
        2.0 - 2.0 * purity(partial_trace(state, j))
        for j in range(1, state.num_subsystems + 1)
    )


class TestPairQubit:
    def test_bell(self):
        result = bipartite_concurrence(bell_state())
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.kind is MeasureKind.BIPARTITE_CONCURRENCE

    def test_product_basis_state(self):
        amps = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128)
        assert bipartite_concurrence(PureState((2, 2), amps)).value == 0.0

    def test_skewed_superposition(self):
        amps = np.array(
            [math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)], dtype=np.complex128
        )
        result = bipartite_concurrence(PureState((2, 2), amps))
        assert result.value == pytest.approx(0.6, abs=1e-12)

    def test_matches_generic(self, rng):
        # the vectorized kernel may round one ulp away from the closed form
        for _ in range(50):
            state = random_state(rng, (2, 2))
            want = pair_qubit_term_sum(state.amplitudes)
            result = bipartite_concurrence(state)
            assert result.term_sum == pytest.approx(want, rel=1e-14)
            assert result.value == pytest.approx(math.sqrt(2.0 * want), rel=1e-14)


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
        want = brute_minor_sum(state.tensor)
        assert bipartite_concurrence(state).term_sum == pytest.approx(want, rel=1e-12)

    def test_maximally_entangled_ceiling(self):
        n = 3
        amps = np.zeros(n * n, dtype=np.complex128)
        amps[:: n + 1] = 1.0 / math.sqrt(n)
        result = bipartite_concurrence(PureState((n, n), amps))
        assert result.value == pytest.approx(math.sqrt(2.0 * (1.0 - 1.0 / n)), abs=1e-12)

    def test_wrong_arity(self):
        with pytest.raises(ValidationError, match="needs 2 subsystems, got 3"):
            bipartite_concurrence(ghz_state(3))
        single = PureState((2,), np.array([1.0, 0.0], dtype=np.complex128))
        with pytest.raises(ValidationError, match="needs 2 subsystems, got 1"):
            bipartite_concurrence(single)

    def test_not_normalized(self):
        amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128)
        with pytest.raises(NotNormalizedError):
            bipartite_concurrence(PureState((2, 2), amps))

    def test_normalize_flag(self):
        amps = np.array([3.0, 0.0, 0.0, 3.0], dtype=np.complex128)
        result = bipartite_concurrence(normalize(PureState((2, 2), amps)))
        assert result.value == pytest.approx(1.0, abs=1e-12)


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
        assert result.term_sum == pytest.approx(
            brute_swap_sum(state.amplitudes, state.dims), rel=1e-12
        )

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

    @pytest.mark.parametrize("dims, count", [((3, 3), 20), ((16, 16), 20), ((64, 64), 4)])
    def test_exactly_twice_bipartite_on_square_dims(self, rng, dims, count):
        # split {2} read as a second unfolding, the transpose of split
        # {1}'s, is summed in another order on square dims
        for _ in range(count):
            state = random_state(rng, dims)
            e = multipartite_measure(state)
            c = bipartite_concurrence(state)
            assert e.value == 2.0 * c.value
            assert e.term_sum == 4.0 * c.term_sum

    def test_product_states_vanish(self, rng):
        for dims in [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]:
            state = random_product_state(rng, dims)
            assert multipartite_measure(state).value <= 1e-10

    def test_size_guard(self):
        # four singleton splits of 120 row pairs times 4096^2 columns
        dims = (16, 16, 16, 16)
        amps = np.zeros(16 ** 4, dtype=np.complex128)
        amps[0] = 1.0
        with pytest.raises(TooLargeError, match="exceeds the measure guard"):
            multipartite_measure(PureState(dims, amps))

    def test_bipartite_size_guard_before_validation(self):
        # 32640 row pairs times 256^2 columns is past the measure guard,
        # and all-zero amplitudes would fail validation
        state = PureState((256, 256), np.zeros(256 * 256, dtype=np.complex128))
        with pytest.raises(TooLargeError):
            bipartite_concurrence(state)

    @pytest.mark.parametrize("measure, dims", [
        (bipartite_concurrence, (65, 64)),  # past the old total of 4096, cheap
        (bipartite_concurrence, (2, 31622)),  # the widest two-row C accepted
        (multipartite_measure, (16, 16, 16, 2)),
    ])
    def test_priced_shapes_past_4096_are_accepted(self, monkeypatch, measure, dims):
        # the guard reads the kernel's price, not the total dimension; the
        # kernel itself is stubbed, so only the guard and validation run
        monkeypatch.setattr(
            _kernels, "split_residuals", lambda rows, dims, lefts: np.zeros((len(rows), len(lefts)))
        )
        amps = np.zeros(math.prod(dims), dtype=np.complex128)
        amps[0] = 1.0
        assert measure(PureState(dims, amps)).value == 0.0

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
        with pytest.raises(ValidationError, match="needs at least 2 subsystems, got 1"):
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
            got = measure_rows(want[0].kind, rows, dims)
            assert got.shape == (len(states),)
            assert [t.hex() for t in got.tolist()] == [w.term_sum.hex() for w in want]
            values = _values(got).tolist()
            assert [v.hex() for v in values] == [w.value.hex() for w in want]


    @pytest.mark.parametrize("dims", [(2, 3, 4), (3, 2, 2, 2), (2, 2, 2, 2, 2)])
    def test_term_sum_adds_slots_in_order(self, rng, dims):
        # E's term sum is bitwise twice the singleton residuals added one
        # at a time from slot 1, the order every earlier output has used
        rows = np.stack([random_state(rng, dims).amplitudes for _ in range(6)])
        got = measure_rows(MeasureKind.MULTIPARTITE_E, rows, dims)
        for t, term_sum in enumerate(got.tolist()):
            want = 0.0
            for j in range(len(dims)):
                want += _kernels.minor_pair_sum(unfold(rows, dims, [j])[t][None])[0]
            assert term_sum.hex() == (2.0 * want).hex()


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
            part = Bipartition((j,), m).canonical()
            residual = separability_report(state).per_partition[part].residual
            assert self._rel(residual, exact) <= self.REL
        assert self._rel(multipartite_measure(state).term_sum, 2 * m * exact) <= self.REL
        if m == 2:
            assert self._rel(bipartite_concurrence(state).term_sum, exact) <= self.REL


class TestTripartite:
    """The explicit three-slot oracle against the goldens and against
    the generic route."""

    def test_goldens(self):
        def explicit(state):
            return math.sqrt(2.0 * tripartite_term_sum(state.tensor))

        assert explicit(ghz_state(3)) == pytest.approx(SQRT6, abs=1e-12)
        assert explicit(w3_state()) == pytest.approx(W3_VALUE, abs=1e-12)
        assert explicit(bell_x_zero_state()) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 2, 3)])
    def test_agrees_with_generic(self, rng, dims):
        state = random_state(rng, dims)
        want = tripartite_term_sum(state.tensor)
        got = multipartite_measure(state)
        assert abs(math.sqrt(2.0 * want) - got.value) <= 1e-12
        assert got.term_sum == pytest.approx(want, rel=1e-12)


class TestConfig:
    def test_result_invariant(self, rng):
        state = random_state(rng, (2, 2, 2))
        result = multipartite_measure(state)
        assert result.value == math.sqrt(result.norm_constant * result.term_sum)

    def test_invalid_config(self):
        # the prefactor is a constant, not a setting
        calls = [
            (bipartite_concurrence, bell_state()),
            (multipartite_measure, ghz_state(3)),
            (invariance_experiment, bell_state()),
        ]
        for call, state in calls:
            with pytest.raises(TypeError, match="norm_constant"):
                call(state, norm_constant=2.0)
