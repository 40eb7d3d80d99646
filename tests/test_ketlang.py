"""Ket expression parsing, canonical printing, and exact evaluation."""

from __future__ import annotations

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entwedge import evaluate, multipartite_measure, parse_ket, pretty
from entwedge.errors import (
    KetSyntaxError,
    ParseError,
    TooLargeError,
    ValidationError,
)
from entwedge import ketlang
from entwedge.ketlang import (
    MAX_NESTING,
    MAX_RADICAND,
    MAX_RADICAND_DIVISIONS,
    ExactScalar,
    KetNode,
    ProductNode,
    ScalarNode,
    SumNode,
    _square_split,
)
from conftest import bell_state, ghz_state, w3_state

# Expressions the canonical printer must survive: parse -> pretty ->
# reparse gives the same tree, and a second pretty is byte-identical.
ROUND_TRIP_CORPUS = [
    "|0>",
    "|1>",
    "|0,0>",
    "|0,1,2>",
    "|3>",
    "|10>",
    "|2,3>",
    "|0,1> |2>",
    "|0,0> + |1,1>",
    "|0,0> - |1,1>",
    "-|0>",
    "+|0>",
    "-|0,1> + |1,0>",
    "|0>|1>",
    "|0> |1> |2>",
    "|0> + |1> + |2>",
    "|0> - |1> - |2>",
    "2 |0>",
    "7 |0>",
    "100 |0>",
    "5/2 |0>",
    "1/2/3 |0>",
    "0.5 |0,0>",
    "0.25 |0> + 0.75 |1>",
    "0.125 |0,0,0>",
    "3/4 |1>",
    "i |0>",
    "-i |1>",
    "2 i |0>",
    "i i |0>",
    "2/i |0>",
    "|0> + i |1>",
    "|0> - i |1>",
    "sqrt(2) |0>",
    "sqrt(5) |0,1>",
    "sqrt(8) |0>",
    "sqrt(9) |0>",
    "sqrt(1/2) |0,0>",
    "sqrt(3)/2 |1>",
    "sqrt(2)/2 (|0,0> + |1,1>)",
    "1/sqrt(2) (|0,0> + |1,1>)",
    "sqrt(1/2) |0> + sqrt(1/2) |1>",
    "sqrt(1/3) (|0,0,1> + |0,1,0> + |1,0,0>)",
    "(|0> + |1>) (|0> - |1>)",
    "(|0> - |1>) (|0> + |1>) (|0> - |1>)",
    "(|0> + |1>) |0> + |0> (|0> - |1>)",
    "(|0,0> + |1,1>) + |0,1>",
    "- (|0> + |1>)",
    "i (|0> + |1>)",
    "(i |0>) (2 |1>)",
    "2 (3 |0>)",
    "(2) |0>",
    "((|0>))",
    "2 3 |0>",
    "0.6 |0> + 0.8 i |1>",
    "507923/sqrt(53939) |0>",
    "1000000000/sqrt(3) |0>",
    "sqrt(2)/0.000000001 |0>",
]


# The 20 largest primes below 2**53, each a radicand under the cap.
BIG_PRIMES = [
    9007199254740881, 9007199254740847, 9007199254740761, 9007199254740727,
    9007199254740677, 9007199254740653, 9007199254740649, 9007199254740623,
    9007199254740613, 9007199254740571, 9007199254740563, 9007199254740541,
    9007199254740529, 9007199254740509, 9007199254740481, 9007199254740439,
    9007199254740397, 9007199254740311, 9007199254740307, 9007199254740299,
]


def square_split_by_trial(n: int) -> tuple[int, int]:
    """Reference split: trial division all the way to sqrt(n)."""
    root, free = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            root *= d ** (count // 2)
            if count % 2:
                free *= d
        d += 1
    return root, free * n


def peak_bytes_and_seconds(fn) -> tuple[int, float]:
    """Peak traced allocation and wall time of ``fn()``, which must raise
    ``TooLargeError``."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(TooLargeError):
            fn()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, seconds


def decimal_text(digits: int, places: int) -> str:
    text = str(digits).rjust(places + 1, "0")
    return text[:-places] + "." + text[-places:]


def atoms(nonzero: bool):
    low = 1 if nonzero else 0
    return st.one_of(
        st.integers(low, 10 ** 12).map(str),
        st.builds(decimal_text, st.integers(low, 10 ** 9), st.integers(1, 12)),
        st.just("i"),
        st.builds("sqrt({}/{})".format, st.integers(1, 1000), st.integers(1, 1000)),
    )


# scalar := atom ('/' atom)*, never dividing by zero
SCALARS = st.builds(
    lambda first, rest: "/".join([first, *rest]),
    atoms(nonzero=False),
    st.lists(atoms(nonzero=True), max_size=2),
)


def kets(arity: int):
    indices = st.lists(st.integers(0, 3), min_size=arity, max_size=arity)
    return indices.map(lambda xs: "|" + ",".join(map(str, xs)) + ">")


def expressions(arity: int, depth: int):
    """Ket expression text with ``arity`` slots and at most ``depth``
    levels of parentheses."""
    factors = kets(arity)
    if depth > 0:
        inner = expressions(arity, depth - 1).map("({})".format)
        factors = st.one_of(factors, inner)
        if arity > 1:
            split = st.tuples(expressions(1, depth - 1), expressions(arity - 1, depth - 1))
            factors = st.one_of(factors, split.map(lambda pair: "({}) ({})".format(*pair)))
    terms = st.builds(
        lambda scalars, factor: " ".join([*scalars, factor]),
        st.lists(SCALARS, max_size=2),
        factors,
    )
    return st.builds(
        lambda lead, first, rest: lead + first + "".join(f" {op} {t}" for op, t in rest),
        st.sampled_from(["", "+", "-"]),
        terms,
        st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=2),
    )


class TestExactScalar:
    def test_radicand_made_square_free(self):
        assert ExactScalar.make(1, 0, 12) == ExactScalar.make(2, 0, 3)
        assert ExactScalar.make(1, 0, 12).rad == 3

    def test_fraction_radicand_clears_denominator(self):
        # sqrt(1/2) = sqrt(2)/2, and sqrt(2)/2 is already canonical
        a = ExactScalar.make(1, 0, Fraction(1, 2))
        b = ExactScalar.make(Fraction(1, 2), 0, 2)
        assert a == b

    def test_zero_is_canonical(self):
        assert ExactScalar.make(0, 0, 5) == ExactScalar.make(0)
        assert ExactScalar.make(3, 0, 0) == ExactScalar.make(0)
        assert ExactScalar.make(0).rad == 1

    def test_negative_radicand_refused(self):
        with pytest.raises(ValueError):
            ExactScalar.make(1, 0, -2)

    def test_multiplication(self):
        root2 = ExactScalar.make(1, 0, 2)
        root3 = ExactScalar.make(1, 0, 3)
        assert root2 * root3 == ExactScalar.make(1, 0, 6)
        assert root2 * root2 == ExactScalar.make(2)

    def test_addition(self):
        root2 = ExactScalar.make(1, 0, 2)
        assert root2 + ExactScalar.make(Fraction(1, 2), 1, 2) == ExactScalar.make(
            Fraction(3, 2), 1, 2
        )
        # zero adds over any radicand, and a zero sum is the canonical zero
        assert ExactScalar.make(0) + root2 == root2 + ExactScalar.make(0) == root2
        assert root2 + -root2 == ExactScalar.make(0)
        with pytest.raises(ValueError):
            root2 + ExactScalar.make(1, 0, 3)

    def test_division(self):
        one = ExactScalar.make(1)
        i = ExactScalar.make(0, 1)
        assert one / i == ExactScalar.make(0, -1)
        with pytest.raises(ZeroDivisionError):
            one / ExactScalar.make(0)

    # the cofactor left after trial division to the cube root is 1, p,
    # p**2 or p*q; the examples hit each with primes near 10**6
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10 ** 12))
    @example(1)
    @example(999983)
    @example(999983 ** 2)
    @example(999983 * 1000003)
    @example(8 * 999983 ** 2)
    @example(10 ** 12)
    @example(999999999989)
    def test_square_split_matches_trial_division(self, n):
        assert _square_split(n) == square_split_by_trial(n)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
    def test_product_of_radicals_stays_canonical(self, a, b):
        left = ExactScalar.make(1, 0, a)
        right = ExactScalar.make(1, 0, b)
        assert left * right == ExactScalar.make(1, 0, a * b)

    def test_to_complex_exact_cases(self):
        assert ExactScalar.make(1, 0, 2).to_complex() == complex(math.sqrt(2.0))
        assert ExactScalar.make(Fraction(3, 5)).to_complex() == 0.6
        assert (ExactScalar.make(1, 0, 2) * ExactScalar.make(1, 0, 2)).to_complex() == 2.0


class TestParsing:
    def test_single_ket(self):
        expr = parse_ket("|0,1>")
        assert expr.root == KetNode((0, 1))
        assert expr.arity == 2

    def test_juxtaposition_tensors(self):
        expr = parse_ket("|0>|1>")
        assert expr.root == ProductNode((KetNode((0,)), KetNode((1,))))
        assert expr.arity == 2

    def test_sum_with_signs(self):
        expr = parse_ket("|0,0> - |1,1>")
        assert isinstance(expr.root, SumNode)
        assert [sign for sign, _ in expr.root.terms] == [1, -1]

    def test_leading_sign_wraps_single_term(self):
        expr = parse_ket("-|0>")
        assert expr.root == SumNode(((-1, KetNode((0,))),))

    def test_scalar_chain(self):
        # the chain stays as written; evaluate divides it out
        expr = parse_ket("sqrt(2) / 2")
        assert expr.root == ScalarNode("sqrt(2)/2", (ExactScalar.make(1, 0, 2), ExactScalar.make(2)))
        assert expr.arity == 0
        assert ketlang._walk(expr.root) == {((), 2): ExactScalar.make(Fraction(1, 2), 0, 2)}

    def test_equivalent_root_half_spellings_agree_exactly(self):
        forms = ["sqrt(2)/2", "sqrt(1/2)", "1/sqrt(2)"]
        roots = [parse_ket(f"{text} |0>").root for text in forms]
        # three trees, one exact amplitude table and one float
        assert len(set(roots)) == 3
        tables = [ketlang._walk(root) for root in roots]
        assert tables[0] == tables[1] == tables[2]
        floats = {evaluate(root).amplitudes[0] for root in roots}
        assert len(floats) == 1

    def test_mixed_arity_sum_refused(self):
        with pytest.raises(ParseError, match="^summed terms have different slot counts"):
            parse_ket("|0> + |0,1>")

    @pytest.mark.parametrize(
        "text, column",
        [
            ("|0,1", 5),  # missing '>'
            ("|x>", 2),  # unknown symbol
            ("2/0 |0>", 2),  # division at the slash
            ("sqrt(2/0)", 8),  # zero denominator token
            ("|0> )", 5),  # trailing input
            ("", 1),  # nothing to parse
            ("1..2", 1),  # malformed number
            ("3.", 1),  # dangling decimal point
            ("|0>#", 4),  # unexpected character
            ("()", 2),  # empty parentheses
            ("|0> +", 6),  # dangling operator
        ],
    )
    def test_syntax_error_columns(self, text, column):
        with pytest.raises(KetSyntaxError) as info:
            parse_ket(text)
        assert info.value.column == column

    @pytest.mark.parametrize(
        "text, column",
        [("+ + |0>", 3), ("- |0> - - |1>", 9), ("|0> + - |1>", 7), ("(-|0> -) |1>", 8)],
    )
    def test_sign_error_columns(self, text, column):
        # one loop reads the optional first sign and every later one
        with pytest.raises(KetSyntaxError) as info:
            parse_ket(text)
        assert info.value.column == column

    def test_ket_after_slash_is_refused(self):
        with pytest.raises(KetSyntaxError) as info:
            parse_ket("1/|0>")
        assert str(info.value) == "expected a scalar, got '|' (column 3)"

    @pytest.mark.parametrize("char", ["\u00b2", "\u2460"], ids=["superscript", "circled"])
    def test_digits_that_are_not_decimal_are_unexpected(self, char):
        # str.isdigit accepts both, but int() reads neither
        with pytest.raises(KetSyntaxError) as info:
            parse_ket(f"|{char}>")
        assert str(info.value) == f"unexpected character '{char}' (column 2)"

    @pytest.mark.parametrize(
        "text, shown",
        [("|\u0663>", "|3>"), ("|\uff11>", "|1>"), ("\uff10.5|\u0661>", "0.5 |1>")],
        ids=["arabic-indic", "fullwidth", "fullwidth-decimal"],
    )
    def test_decimal_digits_of_any_script_parse(self, text, shown):
        # int() and Fraction() read every decimal digit, as they did before
        assert pretty(parse_ket(text)) == shown

    @pytest.mark.parametrize("prime", [1000000000039, 2 ** 53 - 111])
    def test_large_prime_radicand_is_fast(self, prime):
        # trial division to sqrt(n) needs about 10**8 steps on the prime
        # just below the cap
        start = time.perf_counter()
        (value,) = parse_ket(f"sqrt({prime})").root.atoms
        assert time.perf_counter() - start < 0.5
        assert value == ExactScalar(Fraction(1), Fraction(0), Fraction(prime))

    def test_radicand_cap(self):
        assert MAX_RADICAND == 2 ** 53
        assert parse_ket(f"sqrt({2 ** 53})").root.atoms == (ExactScalar.make(2 ** 26, 0, 2),)
        for text in (f"sqrt({2 ** 53 + 1})", f"2 sqrt(2/{2 ** 53 + 1}) |0>"):
            with pytest.raises(KetSyntaxError) as info:
                parse_ket(text)
            assert info.value.column == text.index("sqrt") + 1
            assert "cap" in str(info.value)
        # the cap applies in lowest terms
        assert parse_ket(f"sqrt({2 * (2 ** 53 + 1)}/{2 ** 53 + 1})").root.atoms == (
            ExactScalar.make(1, 0, 2),
        )

    @pytest.mark.parametrize("text, column", [
        ("|{}>", 2), ("|0,{}>", 4), ("{} |0>", 1), ("0.{} |0>", 1),
        ("sqrt({}) |0>", 6), ("sqrt(2/{}) |0>", 8),
    ])
    def test_overlong_number_refused(self, int_digit_limit, text, column):
        # int() and Fraction() raise a bare ValueError past 4300 digits
        with pytest.raises(KetSyntaxError, match="number literal of 500[02] characters") as info:
            parse_ket(text.format("1" * 5000))
        assert info.value.column == column

    def test_number_at_digit_limit_parses(self, int_digit_limit):
        assert parse_ket(f"|0,{'1' * 4300}>").root.indices[1] == int("1" * 4300)
        assert parse_ket(f"0.{'1' * 4299} |0>").root.factors[0].atoms[0].re < 1

    def test_nesting_cap(self):
        assert MAX_NESTING == 64
        for depth in (MAX_NESTING + 1, 400):
            text = "(" * depth + "|0>" + ")" * depth
            with pytest.raises(KetSyntaxError) as info:
                parse_ket(text)
            assert info.value.column == MAX_NESTING + 1
            assert "cap" in str(info.value)

    def test_nesting_at_cap(self):
        # every level is a product, so pretty keeps all but the outer
        # parentheses and the evaluator walks the full depth
        text = "(i " * MAX_NESTING + "|0>" + ")" * MAX_NESTING
        expr = parse_ket(text)
        assert parse_ket(pretty(expr)).root == expr.root
        assert pretty(expr).count("(") == MAX_NESTING - 1
        state = evaluate(expr)
        assert state.amplitudes[0] == 1.0  # i**64

    @pytest.mark.parametrize("text, value", [
        ("1000000000/sqrt(3) |0>", 10 ** 9 / math.sqrt(3)),
        ("sqrt(2)/0.000000001 |0>", math.sqrt(2) * 10 ** 9),
    ], ids=["over-sqrt3", "sqrt2-over-decimal"])
    def test_chain_past_radicand_cap_parses(self, text, value):
        # 10**9 sqrt(3)/3 and 10**9 sqrt(2) fold into no radicand under
        # the cap, but the chain prints as written
        expr = parse_ket(text)
        assert pretty(expr) == text
        assert evaluate(expr).amplitudes[0] == pytest.approx(value, rel=1e-15)
        # and a later division shrinks the value exactly
        assert ketlang._walk(parse_ket("1000000000/sqrt(3)/1000000000").root) == {
            ((), 3): ExactScalar.make(1, 0, Fraction(1, 3))
        }

    def test_unit_scalar_past_radicand_cap_refused(self):
        # sqrt(p)/sqrt(5)/0.2 is sqrt(5p): written as one atom its
        # radicand is past the cap, but the cap reads written radicands,
        # so the chain parses and evaluates to the same value
        p = 9007199254740991
        with pytest.raises(KetSyntaxError, match="beyond the cap") as info:
            parse_ket(f"|0> sqrt({5 * p})")
        assert info.value.column == 5
        text = f"sqrt({p})/sqrt(5)/0.2 |0>"
        assert pretty(parse_ket(text)) == text
        amplitude = evaluate(parse_ket(text)).amplitudes[0]
        assert amplitude == pytest.approx(math.sqrt(5 * p), rel=1e-15)

    @pytest.mark.parametrize("text, value", [
        # a quotient of three 3000-digit decimals, in lowest terms
        ("0." + "7" * 3000 + "/0." + "3" * 2999 + "1/0." + "1" * 2999 + "3 |0>", 21.0),
        # sqrt(2)/10^8000, which underflows to zero
        ("sqrt(2)/1" + "0" * 4000 + "/1" + "0" * 4000 + " |0>", 0.0),
    ], ids=["rational", "radical"])
    def test_chain_past_printed_digits_parses(self, int_digit_limit, text, value):
        # the value has more digits than Python prints, the chain does not
        expr = parse_ket(text)
        assert pretty(expr) == text
        assert evaluate(expr).amplitudes[0] == pytest.approx(value, rel=1e-15)

    def test_whitespace_ignored(self):
        assert parse_ket("  |0,0>   +|1,1> ").root == parse_ket("|0,0>+|1,1>").root


class TestPretty:
    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_round_trip(self, text):
        first = parse_ket(text)
        printed = pretty(first)
        second = parse_ket(printed)
        assert second.root == first.root
        assert second.arity == first.arity
        assert pretty(second) == printed

    def test_corpus_is_large_enough(self):
        assert len(ROUND_TRIP_CORPUS) >= 50
        assert len(set(ROUND_TRIP_CORPUS)) == len(ROUND_TRIP_CORPUS)

    def test_canonical_spellings(self):
        assert pretty(parse_ket("|0>|1>")) == "|0> |1>"
        assert pretty(parse_ket("+|0>")) == "|0>"
        # scalar chains print as written, without whitespace
        assert pretty(parse_ket("sqrt(9) |0>")) == "sqrt(9) |0>"
        assert pretty(parse_ket("sqrt(3) / 2 |1>")) == "sqrt(3)/2 |1>"
        assert pretty(parse_ket("1/sqrt( 2 )|0>")) == "1/sqrt(2) |0>"
        assert pretty(parse_ket("0.5 |0>")) == "0.5 |0>"

    def test_negative_and_imaginary_scalars(self):
        # division-by-i chains print as written and evaluate to phases
        assert pretty(parse_ket("1/i/i")) == "1/i/i"
        assert pretty(parse_ket("2/i")) == "2/i"
        assert pretty(parse_ket("i")) == "i"
        assert ketlang._walk(parse_ket("1/i/i").root) == {((), 1): ExactScalar.make(-1)}

    def test_radicand_past_cap_prints_unfolded(self):
        # as written, not folded under the root as sqrt(1/500000000000000000)
        expr = parse_ket("sqrt(2)/1000000000 |0>")
        assert pretty(expr) == "sqrt(2)/1000000000 |0>"
        assert parse_ket(pretty(expr)).root == expr.root
        assert pretty(parse_ket("-sqrt(2)/1000000000/i")) == "-sqrt(2)/1000000000/i"

    @settings(max_examples=150, deadline=None)
    @given(st.one_of([expressions(arity, 2) for arity in (1, 2, 3)]))
    @example("sqrt(2)/1000000000 |0>")
    @example("sqrt(3)/2 |1>")
    def test_generated_round_trip(self, text):
        expr = parse_ket(text)
        printed = pretty(expr)
        assert parse_ket(printed).root == expr.root
        assert pretty(parse_ket(printed)) == printed

    def test_mixed_scalar_prints_as_a_sum(self):
        # no chain has a mixed value; 1 + i is a sum of two chains
        expr = parse_ket("(1+i)|0>")
        one, i = ScalarNode("1", (ExactScalar.make(1),)), ScalarNode("i", (ExactScalar.make(0, 1),))
        assert expr.root.factors[0] == SumNode(((1, one), (1, i)))
        assert pretty(expr) == "(1 + i) |0>"
        assert evaluate(expr).amplitudes[0] == 1 + 1j


class TestEvaluate:
    def test_bell(self):
        state = evaluate(parse_ket("sqrt(1/2) (|0,0> + |1,1>)"))
        assert state.dims == (2, 2)
        np.testing.assert_allclose(
            state.amplitudes, bell_state().amplitudes, atol=1e-15
        )

    def test_w3(self):
        text = "sqrt(1/3) (|0,0,1> + |0,1,0> + |1,0,0>)"
        state = evaluate(parse_ket(text))
        np.testing.assert_allclose(state.amplitudes, w3_state().amplitudes, atol=1e-15)

    def test_ghz_measure(self):
        state = evaluate(parse_ket("sqrt(1/2) (|0,0,0> + |1,1,1>)"))
        value = multipartite_measure(state).value
        assert value == pytest.approx(math.sqrt(6.0), abs=1e-12)
        np.testing.assert_allclose(
            state.amplitudes, ghz_state(3).amplitudes, atol=1e-15
        )

    # each part of an amplitude is rounded once, to the float nearest its
    # exact value: sqrt(p/q) lies between the midpoints to its neighbours
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
    @example(2, 7)
    def test_root_amplitude_is_correctly_rounded(self, p, q):
        x = complex(evaluate(parse_ket(f"sqrt({p}/{q})|0>")).amplitudes[0]).real
        low = (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2
        high = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        assert low * low <= Fraction(p, q) <= high * high

    # a rational part is rounded as float() rounds the exact fraction,
    # subnormals included, where rounding to 53 bits first would not
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.integers(1, 10 ** 6), st.integers(300, 330))
    @example(984916, 314)
    def test_subnormal_amplitude_is_correctly_rounded(self, n, e):
        amp = evaluate(parse_ket(f"{n}/1{'0' * e}|0>")).amplitudes[0]
        assert amp == float(Fraction(n, 10 ** e))

    def test_decimal_amplitudes_exact(self):
        state = evaluate(parse_ket("0.6 |0> + 0.8 i |1>"))
        assert state.amplitudes[0] == 0.6
        assert state.amplitudes[1] == 0.8j

    def test_exact_cancellation(self):
        state = evaluate(parse_ket("|0,0> + |1,1> - |1,1>"))
        assert state.amplitudes[3] == 0.0

    def test_radical_product_collapses_to_integer(self):
        state = evaluate(parse_ket("sqrt(2) sqrt(2) |0>"))
        assert state.amplitudes[0] == 2.0

    def test_not_normalized_by_design(self):
        state = evaluate(parse_ket("|0,0> + |1,1>"))
        assert state.norm() == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_dims_inferred_per_slot(self):
        assert evaluate(parse_ket("|0,1>")).dims == (1, 2)
        assert evaluate(parse_ket("|0>|1>")).dims == (1, 2)
        assert evaluate(parse_ket("|2> + |0>")).dims == (3,)

    def test_zero_term_pads_dims(self):
        state = evaluate(parse_ket("|0,0> + 0|1,1>"))
        assert state.dims == (2, 2)
        assert list(state.amplitudes) == [1, 0, 0, 0]

    def test_no_kets_refused(self):
        with pytest.raises(ParseError, match="^expression has no kets"):
            evaluate(parse_ket("2 + 3"))

    def test_overflowing_amplitude_refused(self):
        with pytest.raises(ValidationError):
            evaluate(parse_ket("1" + "0" * 400 + " |0> + |1>"))
        with pytest.raises(ValidationError):
            evaluate(parse_ket("1" + "0" * 308 + " sqrt(5) |0>"))

    @pytest.mark.parametrize("text, exact", [
        (" ".join(f"sqrt({p})" for p in BIG_PRIMES) + " |0>", lambda root: root),
        ("1/" + "/".join(f"sqrt({p})" for p in BIG_PRIMES) + " |0>", lambda root: 1 / root),
    ], ids=["product", "chain"])
    def test_amplitude_past_float_radicand(self, text, exact):
        # the radicand, their product, has 1060 bits and its root alone
        # overflows a float, though the amplitude fits
        product = math.prod(BIG_PRIMES)
        assert product.bit_length() == 1060
        root = Fraction(math.isqrt(product * 10 ** 40), 10 ** 20)
        amplitude = evaluate(parse_ket(text)).amplitudes[0]
        assert amplitude == pytest.approx(float(exact(root)), rel=1e-15)
        # an amplitude that really overflows is still refused
        with pytest.raises(ValidationError, match="overflows a float"):
            evaluate(parse_ket("1" + "0" * 500 + " " + text))

    @pytest.mark.parametrize("text, zero", [
        ("(|0>+|1>) - |1>", (1,)),
        ("sqrt(8)/2 |0> - sqrt(2) |0> + |1>", (0,)),
    ])
    def test_exact_cancellation_is_zero(self, text, zero):
        # the exact sum cancels to ZERO before anything is rounded
        table = ketlang._walk(parse_ket(text).root)
        assert [scalar for (idx, _), scalar in table.items() if idx == zero] == [ketlang.ZERO]
        amplitude = evaluate(parse_ket(text)).amplitudes[zero[0]]
        assert amplitude == 0 and not np.signbit(amplitude.real)

    def test_distribution_over_sums(self):
        state = evaluate(parse_ket("(|0> + |1>) (|0> - |1>)"))
        np.testing.assert_allclose(
            state.amplitudes, [1.0, -1.0, 1.0, -1.0], atol=0
        )


class TestRadicandBudget:
    def test_budget(self):
        # the twenty primes below the cap take 4161280 divisions
        assert MAX_RADICAND_DIVISIONS == 2 ** 22
        assert 20 * round(BIG_PRIMES[0] ** (1 / 3)) <= MAX_RADICAND_DIVISIONS

    def test_charged_before_factoring(self, monkeypatch):
        factored = []
        real = ketlang._square_split

        def counted(n):
            factored.append(n)
            return real(n)

        monkeypatch.setattr(ketlang, "_square_split", counted)
        # 1000 and 1001 each charge 10, and 30 > 25
        monkeypatch.setattr(ketlang, "MAX_RADICAND_DIVISIONS", 25)
        assert len(parse_ket("sqrt(1000) sqrt(1001/1) |0>").root.factors) == 3
        assert factored == [1000, 1001]
        factored.clear()
        with pytest.raises(TooLargeError, match="^factoring the sqrt radicands takes over 25 divisions$"):
            parse_ket("sqrt(1000) sqrt(1001) sqrt(1/1000) |0>")
        assert factored == [1000, 1001]
        # charged per expression and in lowest terms
        parse_ket("sqrt(2000/2) sqrt(1) sqrt(3/3) |0>")
        monkeypatch.setattr(ketlang, "MAX_RADICAND_DIVISIONS", 9)
        with pytest.raises(TooLargeError):
            parse_ket("sqrt(1000)")


class TestGuardsBeforeExpansion:
    # Checked on the syntax tree, so neither the dense vector nor the
    # expanded product is ever built.
    def test_huge_index(self):
        expr = parse_ket("|2000000>")
        peak, seconds = peak_bytes_and_seconds(lambda: evaluate(expr))
        assert peak < 1 << 20
        assert seconds < 0.1

    def test_too_many_factors(self):
        text = "(|0>+|1>)" * 10
        peak, seconds = peak_bytes_and_seconds(lambda: evaluate(parse_ket(text)))
        assert peak < 1 << 20
        assert seconds < 0.1

    def test_boundary_still_evaluates(self):
        state = evaluate(parse_ket("(|0>+|1>)" * 8))
        assert state.dims == (2,) * 8
        assert np.all(state.amplitudes == 1.0)

    def test_exponential_expansion(self):
        # one slot, so no state guard sees it; every factor doubles the
        # terms, so twenty of them would run for tens of minutes
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
        expr = parse_ket("".join(f"(1+sqrt({p}))" for p in primes) + "|0>")
        peak, seconds = peak_bytes_and_seconds(lambda: evaluate(expr))
        assert peak < 1 << 20
        assert seconds < 0.1

    @pytest.mark.parametrize("text", [
        # a flat chain of unit factors re-multiplies the expanded terms
        "(|0>+|1>)" * 11 + " 1" * 6,
        # and so does each nesting level
        "(" * 6 + "(|0>+|1>)" * 11 + ") 1" * 6,
    ])
    def test_unit_factors_count(self, text):
        assert ketlang._shape(parse_ket(text).root)[1] == 2 ** 11
        peak, _ = peak_bytes_and_seconds(lambda: evaluate(parse_ket(text)))
        assert peak < 1 << 20

    def test_long_product_of_kets_parses_in_linear_time(self):
        # 30000 slots: growing the dims tuple factor by factor would copy
        # 4.5*10^8 entries before the slot guard could see them
        start = time.perf_counter()
        expr = parse_ket("|0>" * 30000)
        assert time.perf_counter() - start < 1.0
        assert expr.arity == 30000
        with pytest.raises(TooLargeError, match="30000 subsystems"):
            evaluate(expr)

    def test_division_chain_is_priced_before_dividing(self, monkeypatch):
        # 100 decimals of 1200 digits, 120 KB: dividing them out took
        # 0.65 s, each division reducing ever larger fractions
        def no_division(*args):
            raise AssertionError("divided before the chain was priced")

        monkeypatch.setattr(ExactScalar, "__truediv__", no_division)
        text = "/".join(["0." + "7" * 1200] * 100) + "|0>"
        expr = parse_ket(text)
        # 100 steps for the chain, 1 for the ket and 1 for their product
        with pytest.raises(TooLargeError, match="costs 102 steps times 797501 bits"):
            evaluate(expr)

    def test_division_chain_boundary(self, monkeypatch):
        # 3 prices 2 + 1 bits of re, 0 + 1 of im and 1 of the radicand;
        # 4 prices 3 + 1 + 0 + 1 + 1: two atoms of 11 bits in all, one
        # step each, then the ket and the product add a step and a bit
        monkeypatch.setattr(ketlang, "MAX_EXPANSION_BITS", 4 * 12)
        assert evaluate(parse_ket("3/4 |0>")).amplitudes[0] == 0.75
        monkeypatch.setattr(ketlang, "MAX_EXPANSION_BITS", 4 * 12 - 1)
        with pytest.raises(TooLargeError, match="4 steps times 12 bits"):
            evaluate(parse_ket("3/4 |0>"))

    def test_expansion_cap_boundary(self, monkeypatch):
        # 8 sums of 4 steps, then partial products of 4, 8, .., 256 terms;
        # each sum of two 1-bit kets prices 2 bits, and the product adds them
        expr = parse_ket("(|0>+|1>)" * 8)
        assert ketlang._shape(expr.root)[1:] == (256, 8 * 4 + 508, 8 * 2)
        monkeypatch.setattr(ketlang, "MAX_EXPANSION", 540)
        assert evaluate(expr).dims == (2,) * 8
        monkeypatch.setattr(ketlang, "MAX_EXPANSION", 539)
        with pytest.raises(TooLargeError, match="more than 539 steps"):
            evaluate(expr)

    def test_expansion_bits_boundary(self, monkeypatch):
        expr = parse_ket("(|0>+|1>)" * 8)
        monkeypatch.setattr(ketlang, "MAX_EXPANSION_BITS", 540 * 16)
        assert evaluate(expr).dims == (2,) * 8
        monkeypatch.setattr(ketlang, "MAX_EXPANSION_BITS", 540 * 16 - 1)
        with pytest.raises(TooLargeError, match="540 steps times 16 bits"):
            evaluate(expr)

    def test_expansion_bits(self):
        # a chain counts the bits of its atoms' numerators, denominators
        # and radicands; a product adds, a sum takes the max plus one
        def size(node):
            return ketlang._shape(node)[1:]

        three, four = 2 + 1 + 0 + 1 + 1, 3 + 1 + 0 + 1 + 1
        assert size(parse_ket("3/4 |0>").root)[2] == three + four + 1
        assert size(parse_ket("i sqrt(5) |0>").root)[2] == 4 + 6 + 1
        assert size(parse_ket("(3/4 |0> + sqrt(5) |1>)").root)[2] == 12 + 1
        long = parse_ket("(0." + "7" * 1000 + "+sqrt(2)) |0>").root
        assert size(long)[2] > 2 * 3300

    def test_long_decimals_are_priced(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        text = "".join(f"(0.{'7' * 1000}+sqrt({p}))" for p in primes) + "|0>"
        expr = parse_ket(text)
        terms, steps, bits = ketlang._shape(expr.root)[1:]
        assert steps <= ketlang.MAX_EXPANSION < steps * bits
        peak, seconds = peak_bytes_and_seconds(lambda: evaluate(expr))
        assert peak < 1 << 20
        assert seconds < 0.1

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            # more than 8 slots, as one ket or as a product of sums
            st.integers(9, 40).map(lambda k: "|" + ",".join(["1"] * k) + ">"),
            st.integers(9, 40).map(lambda k: "(|0>+|1>)" * k),
            # a total dimension past 2**20 from one large index
            st.builds(
                lambda small, big, at: " ".join(
                    f"(|0>+|{x}>)" for x in small[:at] + [big] + small[at:]
                ),
                st.lists(st.integers(0, 40), max_size=7),
                st.integers(2 ** 20, 10 ** 12),
                st.integers(0, 7),
            ),
        )
    )
    def test_generated_oversized_expressions(self, text):
        expr = parse_ket(text)
        peak, _ = peak_bytes_and_seconds(lambda: evaluate(expr))
        assert peak < 1 << 20
