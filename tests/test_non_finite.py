"""Non-finite numbers are refused on every input path, with typed errors.

The values are NaN, both infinities, ``1e999`` (which reads as infinity)
and integers of 400 digits, which no float can hold.  Where the library
takes an integer, NaN, infinity, fractions, strings and booleans are
refused too, rather than truncated.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwedge import (
    Bipartition,
    DensityMatrix,
    MeasureConfig,
    Permutation,
    PureState,
    TensorGrid,
    UnitaryGate,
    enumerate_bipartitions,
    evaluate,
    haar_unitary,
    invariance_experiment,
    is_product_state,
    load_state,
    normalize,
    pair_coefficient,
    parse_ket,
    partial_trace,
    separability_report,
    swapped_wedge_coefficient,
    trial_rng,
    validate,
)
from entwedge.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidPartitionError,
    LengthMismatchError,
    NotNormalizedError,
    SchemaError,
    ValidationError,
    WrongDimsError,
)
from conftest import bell_state

HUGE = st.integers(10 ** 399, 10 ** 400 - 1)

NON_FINITE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, float("1e999")]),
    HUGE,
    HUGE.map(lambda n: -n),
)

# The same values as JSON literals; Python's json reads all of them.
NON_FINITE_JSON = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]),
    HUGE.map(str),
    HUGE.map(lambda n: str(-n)),
)


@settings(max_examples=100, deadline=None)
@given(
    literal=NON_FINITE_JSON,
    count=st.integers(1, 4),
    data=st.data(),
)
def test_state_file_components(tmp_path_factory, literal, count, data):
    bad = data.draw(st.integers(0, count - 1), label="bad entry")
    field = data.draw(st.sampled_from(["re", "im"]), label="field")
    entries = []
    for pos in range(count):
        re, im = "0.5", "0.0"
        if pos == bad:
            re, im = (literal, im) if field == "re" else (re, literal)
        entries.append('{"idx": [%d], "re": %s, "im": %s}' % (pos, re, im))
    path = tmp_path_factory.mktemp("state") / "state.json"
    path.write_text('{"dims": [4], "amplitudes": [%s]}' % ", ".join(entries), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_state(str(path))
    assert f"amplitudes[{bad}].{field}: expected a finite number" in str(info.value)


@settings(max_examples=100, deadline=None)
@given(NON_FINITE)
def test_measure_config(value):
    with pytest.raises(WrongDimsError):
        MeasureConfig(norm_constant=value)
    with pytest.raises(WrongDimsError):
        MeasureConfig(tol=value)


@settings(max_examples=100, deadline=None)
@given(NON_FINITE)
def test_separability_threshold(value):
    with pytest.raises(ValidationError):
        separability_report(bell_state(), threshold=value)
    with pytest.raises(ValidationError):
        is_product_state(bell_state(), threshold=value)


@settings(max_examples=100, deadline=None)
@given(
    value=NON_FINITE,
    count=st.integers(1, 8),
    data=st.data(),
)
def test_amplitudes(value, count, data):
    # a huge integer cannot become a complex128 at all, so PureState
    # refuses it; a non-finite float, real or imaginary part, reaches
    # validate and normalize
    pos = data.draw(st.integers(0, count - 1), label="bad entry")
    amps = [1.0 / math.sqrt(count)] * count
    for bad in [value] + ([complex(0.0, value)] if isinstance(value, float) else []):
        amps[pos] = bad
        with pytest.raises(ValidationError):
            validate(PureState((count,), amps))
        with pytest.raises(ValidationError):
            normalize(PureState((count,), amps))


@settings(max_examples=100, deadline=None)
@given(NON_FINITE)
def test_validate_tolerance(value):
    # refused as a bad tolerance, whatever the state
    with pytest.raises(ValidationError, match="tol must be nonnegative and finite"):
        validate(bell_state(), tol=value)


@pytest.mark.parametrize("tol", [-1, -1e-12])
def test_validate_negative_tolerance(tol):
    with pytest.raises(ValidationError, match="tol must be nonnegative and finite") as info:
        validate(bell_state(), tol=tol)
    assert not isinstance(info.value, NotNormalizedError)


def test_validate_infinite_tolerance_does_not_pass_any_norm():
    with pytest.raises(ValidationError, match="tol must be nonnegative and finite"):
        validate(PureState((2,), [5, 0]), tol=math.inf)


# Each place the library turns a caller's value into an integer, with
# the error class that place raises for a bad value.
INTEGER_SITES = {
    "PureState.dims": (lambda v: PureState((2, v), [1, 0, 0, 0]), InvalidPartitionError),
    "DensityMatrix.dim": (lambda v: DensityMatrix(v, np.eye(2) / 2), DimensionMismatchError),
    "Bipartition.total": (lambda v: Bipartition((1,), v), InvalidPartitionError),
    "Bipartition.left": (lambda v: Bipartition((v,), 3), InvalidPartitionError),
    "evaluate.dims": (lambda v: evaluate(parse_ket("|0>|1>"), dims=(2, v)), InvalidPartitionError),
    "UnitaryGate.dim": (lambda v: UnitaryGate(v, np.eye(2)), DimensionMismatchError),
    "haar_unitary.dim": (lambda v: haar_unitary(v, trial_rng(0, 0, (2,))), DimensionMismatchError),
    "trial_rng.seed": (lambda v: trial_rng(v, 0, (2,)), ValidationError),
    "trial_rng.trial": (lambda v: trial_rng(0, v, (2,)), ValidationError),
    "trial_rng.dims": (lambda v: trial_rng(0, 1, (2, v)), ValidationError),
    "invariance.trials": (lambda v: invariance_experiment(bell_state(), trials=v), ValidationError),
    "invariance.seed": (
        lambda v: invariance_experiment(bell_state(), trials=2, seed=v), ValidationError
    ),
    "pair_coefficient": (
        lambda v: pair_coefficient(bell_state(), (v, 0), (0, 0)), IndexOutOfRangeError
    ),
    "swapped_wedge_coefficient.slot": (
        lambda v: swapped_wedge_coefficient(bell_state(), (0, 0), (1, 1), v),
        IndexOutOfRangeError,
    ),
    "partial_trace.keep": (lambda v: partial_trace(bell_state(), v), InvalidPartitionError),
    "enumerate_bipartitions": (enumerate_bipartitions, InvalidPartitionError),
    "TensorGrid.dims": (lambda v: TensorGrid((2, v), np.zeros(4)), LengthMismatchError),
    "Permutation.image": (lambda v: Permutation((v, 0)), LengthMismatchError),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, "2", True], ids=repr)
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_arguments_are_checked(site, value):
    call, error = INTEGER_SITES[site]
    with pytest.raises(error, match="expected an integer"):
        call(value)


def test_numpy_integers_are_accepted():
    two = np.int64(2)
    state = PureState((two, np.int64(1)), [1, 0])
    assert state.dims == (2, 1)
    assert all(type(n) is int for n in state.dims)
    assert evaluate(parse_ket("|0>|1>"), dims=(two, two)).dims == (2, 2)
    assert Bipartition((np.int64(1),), np.int64(3)) == Bipartition((1,), 3)
    run = invariance_experiment(bell_state(), trials=np.int64(2), seed=np.uint64(7))
    assert (run.trials, run.seed) == (2, 7)
    assert type(run.seed) is int


@pytest.mark.parametrize("value", ["1e-3", 1j, None], ids=repr)
def test_non_real_numbers_are_refused(value):
    with pytest.raises(ValidationError):
        separability_report(bell_state(), threshold=value)
    with pytest.raises(ValidationError):
        is_product_state(bell_state(), threshold=value)
    with pytest.raises(ValidationError, match="tol must be nonnegative and finite"):
        validate(bell_state(), tol=value)
    with pytest.raises(WrongDimsError):
        MeasureConfig(norm_constant=value)
