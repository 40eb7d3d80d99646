"""A small expression language for writing states as kets.

Grammar (whitespace between tokens is ignored)::

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor factor*                      # juxtaposition multiplies
    factor  := scalar | ket | '(' expr ')'
    ket     := '|' INT (',' INT)* '>'
    scalar  := atom ('/' atom)*
    atom    := INT | DECIMAL | 'i' | 'sqrt' '(' INT ['/' INT] ')'

Juxtaposed kets tensor together, so ``|0>|1>`` means the same as
``|0,1>``.  Ket indices are 0-based.  Scalars are kept exact as
``(re + im*i) * sqrt(rad)`` with rational parts and a square-free
integer radicand; amplitudes accumulate in that exact form and are
converted to floating point once, at the very end of evaluation.

A ``sqrt(p/q)`` radicand is capped: ``p*q``, in lowest terms, may not
exceed ``MAX_RADICAND``, and neither may the radicand of any scalar's
printed form.  Parentheses nest at most ``MAX_NESTING`` deep.  Size
guards run on the syntax tree, so an expression naming too many slots
or too large a total dimension is refused before any product is
expanded or any amplitude allocated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ArityMismatchError,
    DimTooSmallError,
    InvalidPartitionError,
    KetSyntaxError,
    ValidationError,
)
from .states import PureState, check_size_guards, require_int

# Largest ``p*q`` (in lowest terms) accepted in ``sqrt(p/q)``.  Splitting
# off its square part trial-divides up to the cube root, about 2*10^5
# steps at the cap; past 2**53 the radicand is not even an exact float.
MAX_RADICAND = 2 ** 53

# Deepest parenthesis nesting accepted.  The parser, the printer and the
# evaluator each recurse once per level, so without a cap a short input
# could exhaust the interpreter's stack.
MAX_NESTING = 64


# --- exact scalars -------------------------------------------------------

def _square_split(n: int) -> tuple[int, int]:
    """n >= 1 as root**2 * free with free square-free.

    Trial division stops once ``d**3`` exceeds what is left.  That
    cofactor has no prime factor below ``d``, so it is 1, p, p**2 or
    p*q, and an integer square root tells the square case apart.
    """
    root, free = 1, 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            root *= d ** (count // 2)
            if count % 2:
                free *= d
        d += 1
    r = math.isqrt(n)
    if r * r == n:
        return root * r, free
    return root, free * n


@dataclass(frozen=True)
class ExactScalar:
    """Value ``(re + im*i) * sqrt(rad)`` with exact rational parts.

    Kept canonical: ``rad`` is a square-free positive integer (1 when the
    value is rational or zero), and the zero value is ``(0, 0, 1)``.
    """

    re: Fraction
    im: Fraction
    rad: Fraction

    @staticmethod
    def make(re, im=0, rad=1) -> "ExactScalar":
        re, im, rad = Fraction(re), Fraction(im), Fraction(rad)
        if rad < 0:
            raise ValueError(f"radicand must be nonnegative, got {rad}")
        if rad == 0 or (re == 0 and im == 0):
            return ExactScalar(Fraction(0), Fraction(0), Fraction(1))
        # sqrt(p/q) = sqrt(p*q)/q, then pull the square part out front.
        root, free = _square_split(rad.numerator * rad.denominator)
        scale = Fraction(root, rad.denominator)
        return ExactScalar(re * scale, im * scale, Fraction(free))

    @staticmethod
    def integer(n: int) -> "ExactScalar":
        return ExactScalar.make(n)

    @staticmethod
    def imaginary_unit() -> "ExactScalar":
        return ExactScalar.make(0, 1)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        if re == 0 and im == 0:
            return ZERO
        # Both radicands are square-free, so with g = gcd(a, b) the product
        # is a*b = g^2 (a/g)(b/g), and (a/g)(b/g) is square-free again.
        a, b = self.rad.numerator, other.rad.numerator
        g = math.gcd(a, b)
        return ExactScalar(re * g, im * g, Fraction((a // g) * (b // g)))

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        # 1 / ((a+bi) sqrt(r)) = (a-bi) sqrt(r) / ((a^2+b^2) r), and r is
        # already square-free
        scale = (other.re * other.re + other.im * other.im) * other.rad
        return self * ExactScalar(other.re / scale, -other.im / scale, other.rad)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im, self.rad)

    def to_complex(self) -> complex:
        r = math.sqrt(self.rad.numerator / self.rad.denominator)
        return complex(float(self.re) * r, float(self.im) * r)


ZERO = ExactScalar.make(0)
ONE = ExactScalar.make(1)


# --- syntax tree ---------------------------------------------------------

@dataclass(frozen=True)
class KetNode:
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ScalarNode:
    value: ExactScalar


@dataclass(frozen=True)
class ProductNode:
    factors: tuple


@dataclass(frozen=True)
class SumNode:
    # (sign, node) pairs with sign in {+1, -1}
    terms: tuple


@dataclass(frozen=True)
class KetExpr:
    root: object
    arity: int


def _slot_dims(node) -> tuple[int, ...]:
    """One past the largest index each slot uses, read off the tree; its
    length is the slot count."""
    if isinstance(node, KetNode):
        return tuple(x + 1 for x in node.indices)
    if isinstance(node, ScalarNode):
        return ()
    if isinstance(node, ProductNode):
        return tuple(n for factor in node.factors for n in _slot_dims(factor))
    if isinstance(node, SumNode):
        shapes = [_slot_dims(term) for _, term in node.terms]
        arities = {len(shape) for shape in shapes}
        if len(arities) > 1:
            raise ArityMismatchError(
                f"summed terms have different slot counts: {sorted(arities)}"
            )
        return tuple(map(max, zip(*shapes)))
    raise TypeError(f"not a ket expression node: {node!r}")


# --- lexer ---------------------------------------------------------------

_PUNCT = {
    "|": "PIPE", ">": "GT", "(": "LPAREN", ")": "RPAREN",
    ",": "COMMA", "+": "PLUS", "-": "MINUS", "/": "SLASH",
}


def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        col = pos + 1
        if ch.isspace():
            pos += 1
        elif ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, col))
            pos += 1
        elif ch.isdigit():
            end = pos
            dots = 0
            while end < len(text) and (text[end].isdigit() or text[end] == "."):
                dots += text[end] == "."
                end += 1
            word = text[pos:end]
            if dots > 1 or word.endswith("."):
                raise KetSyntaxError(f"malformed number {word!r}", col)
            tokens.append(("DECIMAL" if dots else "INT", word, col))
            pos = end
        elif ch.isalpha():
            end = pos
            while end < len(text) and text[end].isalpha():
                end += 1
            word = text[pos:end]
            if word not in ("i", "sqrt"):
                raise KetSyntaxError(f"unknown symbol {word!r}", col)
            tokens.append(("IDENT", word, col))
            pos = end
        else:
            raise KetSyntaxError(f"unexpected character {ch!r}", col)
    tokens.append(("EOF", "", len(text) + 1))
    return tokens


# --- recursive-descent parser ---------------------------------------------

_FACTOR_START = ("INT", "DECIMAL", "IDENT", "PIPE", "LPAREN")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            got = tok[1] or "end of input"
            raise KetSyntaxError(f"expected {kind}, got {got!r}", tok[2])
        self.pos += 1
        return tok

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self):
        sign = 1
        if self.peek()[0] in ("PLUS", "MINUS"):
            sign = -1 if self.take(self.peek()[0])[0] == "MINUS" else 1
        terms = [(sign, self.term())]
        while self.peek()[0] in ("PLUS", "MINUS"):
            sign = -1 if self.take(self.peek()[0])[0] == "MINUS" else 1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return SumNode(tuple(terms))

    # term := factor factor*   (juxtaposition)
    def term(self):
        factors = [self.factor()]
        while self.peek()[0] in _FACTOR_START:
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return ProductNode(tuple(factors))

    # factor := scalar | ket | '(' expr ')'
    def factor(self):
        kind, _, col = self.peek()
        if kind == "PIPE":
            return self.ket()
        if kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise KetSyntaxError(
                    f"parentheses nest deeper than the cap of {MAX_NESTING}", col
                )
            self.take("LPAREN")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.take("RPAREN")
            return inner
        if kind in ("INT", "DECIMAL", "IDENT"):
            return ScalarNode(self.scalar())
        got = self.peek()[1] or "end of input"
        raise KetSyntaxError(f"expected a scalar, ket, or '(', got {got!r}", col)

    # ket := '|' INT (',' INT)* '>'
    def ket(self):
        self.take("PIPE")
        indices = [int(self.take("INT")[1])]
        while self.peek()[0] == "COMMA":
            self.take("COMMA")
            indices.append(int(self.take("INT")[1]))
        self.take("GT")
        return KetNode(tuple(indices))

    # scalar := atom ('/' atom)*
    def scalar(self) -> ExactScalar:
        col = self.peek()[2]
        value = self.atom()
        while self.peek()[0] == "SLASH":
            _, _, col = self.take("SLASH")
            try:
                value = value / self.atom()
            except ZeroDivisionError:
                raise KetSyntaxError("division by zero", col) from None
        # An atom alone prints within the cap, but dividing by a decimal
        # or a sqrt can grow a in (a/b) sqrt(r) until a^2 r passes it, and
        # then no text pretty can print for the value would parse again.
        if value.rad != 1 and _unfolded_radicand(value) > MAX_RADICAND:
            raise KetSyntaxError(
                f"scalar needs a radicand beyond the cap of {MAX_RADICAND}", col
            )
        return value

    # atom := INT | DECIMAL | 'i' | 'sqrt' '(' INT ['/' INT] ')'
    def atom(self) -> ExactScalar:
        kind, word, col = self.peek()
        if kind == "INT":
            self.take("INT")
            return ExactScalar.make(int(word))
        if kind == "DECIMAL":
            self.take("DECIMAL")
            return ExactScalar.make(Fraction(word))
        if kind == "IDENT" and word == "i":
            self.take("IDENT")
            return ExactScalar.imaginary_unit()
        if kind == "IDENT" and word == "sqrt":
            self.take("IDENT")
            self.take("LPAREN")
            num = int(self.take("INT")[1])
            den, den_col = 1, col
            if self.peek()[0] == "SLASH":
                self.take("SLASH")
                _, den_word, den_col = self.take("INT")
                den = int(den_word)
            self.take("RPAREN")
            if den == 0:
                raise KetSyntaxError("division by zero", den_col)
            rad = Fraction(num, den)
            if rad.numerator * rad.denominator > MAX_RADICAND:
                raise KetSyntaxError(
                    f"sqrt radicand {rad} is beyond the cap of {MAX_RADICAND}", col
                )
            return ExactScalar.make(1, 0, rad)
        got = word or "end of input"
        raise KetSyntaxError(f"expected a scalar, got {got!r}", col)


def parse_ket(text: str) -> KetExpr:
    """Parse an expression, checking syntax and slot-count consistency.

    Raises
    ------
    KetSyntaxError
        With a 1-based column on any syntax problem.
    ArityMismatchError
        When summed subexpressions carry different slot counts.
    """
    parser = _Parser(text)
    root = parser.expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise KetSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return KetExpr(root, len(_slot_dims(root)))


# --- canonical printing ----------------------------------------------------

def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _unfolded_radicand(s: ExactScalar) -> int:
    """``a^2 r`` for ``s = (a/b) sqrt(r)`` up to a unit factor, the
    radicand ``s`` prints with as ``sqrt(a^2 r)/b``."""
    coef = s.re if s.im == 0 else s.im
    return coef.numerator ** 2 * s.rad.numerator


def _scalar_text(s: ExactScalar) -> str:
    if s.is_zero():
        return "0"
    if s.re != 0 and s.im != 0:
        raise ValueError("mixed real/imaginary scalars cannot print as one atom")
    coef = s.re if s.im == 0 else s.im
    magnitude = abs(coef)
    folded = magnitude * magnitude * s.rad
    if s.rad == 1:
        body = _fraction_text(magnitude)
    elif magnitude == 1:
        body = f"sqrt({_fraction_text(s.rad)})"
    elif folded.numerator * folded.denominator <= MAX_RADICAND:
        # fold the rational part under the root: q*sqrt(r) = sqrt(q^2 r)
        body = f"sqrt({_fraction_text(folded)})"
    else:
        # the folded radicand carries b^2 and would pass the parser's cap
        body = f"sqrt({_unfolded_radicand(s)})/{magnitude.denominator}"
    if s.im == 0:
        return body if coef > 0 else body + "/i/i"
    if coef > 0:
        return "i" if body == "1" else body + "/i/i/i"
    return body + "/i"


def pretty(expr) -> str:
    """Canonical text for an expression; reparsing it rebuilds the same tree."""
    node = expr.root if isinstance(expr, KetExpr) else expr
    if isinstance(node, KetNode):
        return "|" + ",".join(str(x) for x in node.indices) + ">"
    if isinstance(node, ScalarNode):
        return _scalar_text(node.value)
    if isinstance(node, ProductNode):
        parts = []
        for factor in node.factors:
            text = pretty(factor)
            # a nested product came from explicit parentheses; keep them,
            # since bare juxtaposition reparses as one flat product
            wrap = isinstance(factor, (SumNode, ProductNode))
            parts.append(f"({text})" if wrap else text)
        return " ".join(parts)
    if isinstance(node, SumNode):
        pieces = []
        for pos, (sign, term) in enumerate(node.terms):
            text = pretty(term)
            if isinstance(term, SumNode):
                text = f"({text})"
            if pos == 0:
                pieces.append(text if sign == 1 else "-" + text)
            else:
                pieces.append((" + " if sign == 1 else " - ") + text)
        return "".join(pieces)
    raise TypeError(f"not a ket expression node: {node!r}")


# --- evaluation ------------------------------------------------------------

def _amp_add(table: dict, scalar: ExactScalar) -> None:
    if scalar.is_zero():
        return
    re, im = table.get(scalar.rad, (Fraction(0), Fraction(0)))
    table[scalar.rad] = (re + scalar.re, im + scalar.im)


def _walk(node) -> dict:
    """Exact amplitudes as {multi-index: {radicand: (re, im)}}."""
    if isinstance(node, KetNode):
        return {node.indices: {ONE.rad: (ONE.re, ONE.im)}}
    if isinstance(node, ScalarNode):
        table = {}
        _amp_add(table, node.value)
        return {(): table}
    if isinstance(node, ProductNode):
        amps = _walk(node.factors[0])
        for factor in node.factors[1:]:
            f_amps = _walk(factor)
            merged = {}
            for idx_a, table_a in amps.items():
                for idx_b, table_b in f_amps.items():
                    target = merged.setdefault(idx_a + idx_b, {})
                    for rad_a, (re_a, im_a) in table_a.items():
                        for rad_b, (re_b, im_b) in table_b.items():
                            product = ExactScalar(re_a, im_a, rad_a) * ExactScalar(
                                re_b, im_b, rad_b
                            )
                            _amp_add(target, product)
            amps = merged
        return amps
    if isinstance(node, SumNode):
        merged = {}
        for sign, term in node.terms:
            for idx, table in _walk(term).items():
                target = merged.setdefault(idx, {})
                for rad, (re, im) in table.items():
                    scalar = ExactScalar(re, im, rad)
                    _amp_add(target, scalar if sign == 1 else -scalar)
        return merged
    raise TypeError(f"not a ket expression node: {node!r}")


def evaluate(expr: KetExpr, dims=None) -> PureState:
    """Turn an expression into a dense state.

    Dims are inferred as one past the largest index used in each slot
    unless supplied.  The result is NOT normalized; whatever the
    expression says is what comes out.  The size guards run on the
    syntax tree, before any product is expanded.

    Raises
    ------
    ArityMismatchError
        If the expression has no kets, or supplied dims have the wrong
        number of entries.
    DimTooSmallError
        If a ket index does not fit inside the supplied dims.
    TooLargeError
        If the expression has more than ``MAX_SUBSYSTEMS`` slots or the
        dims multiply to more than ``MAX_TOTAL_DIM``.
    ValidationError
        If an amplitude is too large for a float.
    """
    node = expr.root if isinstance(expr, KetExpr) else expr
    needed = _slot_dims(node)
    arity = len(needed)
    if arity == 0:
        raise ArityMismatchError("expression has no kets, so there is no state")
    if dims is None:
        dims = needed
    else:
        dims = tuple(require_int(n, InvalidPartitionError, "dims") for n in dims)
        if len(dims) != arity:
            raise ArityMismatchError(
                f"expression has {arity} slots but {len(dims)} dims were supplied"
            )
        for slot, (need, have) in enumerate(zip(needed, dims)):
            if need > have:
                raise DimTooSmallError(
                    f"slot {slot + 1} uses index {need - 1} but its dim is {have}"
                )
    check_size_guards(dims)
    vector = np.zeros(math.prod(dims), dtype=np.complex128)
    amps = _walk(node)
    totals = []
    for idx, table in amps.items():
        total = 0j
        try:
            for rad, (re, im) in table.items():
                total += ExactScalar(re, im, rad).to_complex()
        except OverflowError:
            total = complex(math.inf)
        if not cmath.isfinite(total):
            label = ",".join(map(str, idx))
            raise ValidationError(f"amplitude of |{label}> overflows a float")
        totals.append(total)
    multi = np.array(list(amps), dtype=np.intp).reshape(-1, arity)
    vector[np.ravel_multi_index(multi.T, dims)] = totals
    return PureState(dims, vector)
