"""Non-finite numbers are refused with typed errors: as amplitudes, and as
the numbers in a state file.

The values are NaN, both infinities, ``1e999`` (which reads as infinity)
and integers of 400 digits, which no float can hold.  Where the library
takes an integer, NaN, infinity, fractions, strings and booleans are
refused too, rather than truncated.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwedge import (
    PureState,
    enumerate_bipartitions,
    invariance_experiment,
    load_state,
    normalize,
    validate,
)
from entwedge.errors import EntwedgeError, ParseError, ValidationError
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
    with pytest.raises(ParseError) as info:
        load_state(str(path))
    assert f"amplitudes[{bad}].{field}: expected a finite number" in str(info.value)


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


# Each place the library turns a caller's value into an integer, with
# the error class that place raises for a bad value.
INTEGER_SITES = {
    "PureState.dims": (lambda v: PureState((2, v), [1, 0, 0, 0]), ValidationError),
    "invariance.trials": (lambda v: invariance_experiment(bell_state(), trials=v), ValidationError),
    "invariance.seed": (
        lambda v: invariance_experiment(bell_state(), trials=2, seed=v), ValidationError
    ),
    "enumerate_bipartitions": (enumerate_bipartitions, ValidationError),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, "2", True], ids=repr)
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_arguments_are_checked(site, value):
    call, error = INTEGER_SITES[site]
    with pytest.raises(error, match="expected an integer"):
        call(value)


@pytest.mark.parametrize(
    "value", [10 ** 5000, -(10 ** 5000), Fraction(10 ** 5000, 3)], ids=["big", "-big", "big/3"]
)
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_values_too_long_to_print_are_refused(site, value, int_digit_limit):
    # repr() of each value raises a bare ValueError past 4300 digits
    call = INTEGER_SITES[site][0]
    with pytest.raises(EntwedgeError):
        call(value)


def test_numpy_integers_are_accepted():
    two = np.int64(2)
    state = PureState((two, np.int64(1)), [1, 0])
    assert state.dims == (2, 1)
    assert all(type(n) is int for n in state.dims)
    assert [type(p.total) for p in enumerate_bipartitions(np.int64(2))] == [int]
    run = invariance_experiment(bell_state(), trials=np.int64(2), seed=np.uint64(7))
    assert (run.trials, run.seed) == (2, 7)
    assert type(run.seed) is int
