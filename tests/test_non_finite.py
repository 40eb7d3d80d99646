"""Non-finite numbers are refused on every input path, with typed errors.

The values are NaN, both infinities, ``1e999`` (which reads as infinity)
and integers of 400 digits, which no float can hold.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwedge import (
    MeasureConfig,
    PureState,
    is_product_state,
    load_state,
    normalize,
    separability_report,
    validate,
)
from entwedge.errors import NotNormalizedError, SchemaError, ValidationError, WrongDimsError
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
