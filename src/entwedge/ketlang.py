"""A small expression language for writing states as kets.

Grammar (whitespace between tokens is ignored)::

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor factor*                      # juxtaposition multiplies
    factor  := scalar | ket | '(' expr ')'
    ket     := '|' INT (',' INT)* '>'
    scalar  := atom ('/' atom)*
    atom    := INT | DECIMAL | 'i' | 'sqrt' '(' INT ['/' INT] ')'

Juxtaposed kets tensor together, so ``|0>|1>`` means the same as
``|0,1>``.  Ket indices are 0-based.  The parser only reads: a scalar
chain keeps its text as written and the exact value of each atom, and
``evaluate`` divides it out.  Scalars are kept exact as
``(re + im*i) * sqrt(rad)`` with rational parts and a square-free
integer radicand.  Amplitudes accumulate in that exact form, in one
flat table keyed by multi-index and radicand, and are converted to
floating point once, at the very end of evaluation.

One walk of the syntax tree reads its slot dims and the price of
expanding it: ``parse_ket`` takes the slot count from it, and
``evaluate`` the dims and the price.  A ``sqrt(p/q)`` radicand is
capped: ``p*q``, in lowest terms, may not exceed ``MAX_RADICAND``, and
factoring them all is priced against ``MAX_RADICAND_DIVISIONS``.
Parentheses nest at most ``MAX_NESTING`` deep.  Size guards run on the
syntax tree, so an expression naming too many slots or too large a
total dimension, or one whose expansion would take more than
``MAX_EXPANSION`` exact steps or more than ``MAX_EXPANSION_BITS``
steps times bits of the numbers they work on, is refused before any
product is expanded, any chain divided or any amplitude allocated.
Each two-term factor doubles the expansion, so twenty ``(1+sqrt(p))``
factors, 255 bytes, would otherwise run for tens of minutes.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import KetSyntaxError, ParseError, TooLargeError, ValidationError
from .states import PureState, check_size_guards, sparse_state

# Largest ``p*q`` (in lowest terms) accepted in ``sqrt(p/q)``.  Splitting
# off its square part trial-divides up to the cube root, about 2*10^5
# steps at the cap; past 2**53 the radicand is not even an exact float.
MAX_RADICAND = 2 ** 53

# Most trial divisions, a cube root per sqrt atom charged before it is
# factored, one expression's radicands may take: the twenty primes below
# the cap take 4161280 and 0.5 s on a shared 2-CPU x86-64 host.
MAX_RADICAND_DIVISIONS = 2 ** 22

# Deepest parenthesis nesting accepted.  The parser, the printer and the
# evaluator each recurse once per level, so without a cap a short input
# could exhaust the interpreter's stack.
MAX_NESTING = 64

# Most exact-arithmetic steps expanding an expression may take, as
# _shape counts them.  Twelve (1+sqrt(p)) factors, 12333 steps
# in 143 bytes, took 0.17-0.31 s on a shared 2-CPU x86-64 host; eight
# two-term factors, the largest expansions the tests and the benchmark
# use, take 540 to 553.
MAX_EXPANSION = 2 ** 14

# Most steps times bits an expansion may cost, as _shape prices
# them, since a step costs more as its numbers grow.  Eleven factors
# (0.77...7 + sqrt(p)) with 1000-digit decimals, 6185 steps on 73118
# bits, took 0.7-1.0 s; at the cap, 35 juxtaposed 4000-digit decimals
# take 0.5-0.6 s and twelve such factors with 67-digit decimals 0.2-0.4 s
# on a shared 2-CPU x86-64 host.  The tests price at most 298995, a
# quotient of three 3000-digit decimals, and the benchmark at most 31248
# over seeds 0-19.
MAX_EXPANSION_BITS = 2 ** 26


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
    rad: int

    @staticmethod
    def make(re, im=0, rad=1) -> "ExactScalar":
        re, im, rad = Fraction(re), Fraction(im), Fraction(rad)
        if rad < 0:
            raise ValueError(f"radicand must be nonnegative, got {rad}")
        if rad == 0 or (re == 0 and im == 0):
            return ExactScalar(Fraction(0), Fraction(0), 1)
        if rad == 1:  # already canonical, the case of every rational atom
            return ExactScalar(re, im, 1)
        # sqrt(p/q) = sqrt(p*q)/q, then pull the square part out front.
        root, free = _square_split(rad.numerator * rad.denominator)
        scale = Fraction(root, rad.denominator)
        return ExactScalar(re * scale, im * scale, free)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        # a sum over two radicands has no (re + im*i) sqrt(rad) form
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        if self.rad != other.rad:
            raise ValueError(f"cannot add over radicands {self.rad} and {other.rad}")
        re, im = self.re + other.re, self.im + other.im
        return ExactScalar(re, im, self.rad) if re or im else ZERO

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        if re == 0 and im == 0:
            return ZERO
        # Both radicands are square-free, so with g = gcd(a, b) the product
        # is a*b = g^2 (a/g)(b/g), and (a/g)(b/g) is square-free again.
        a, b = self.rad, other.rad
        g = math.gcd(a, b)
        return ExactScalar(re * g, im * g, (a // g) * (b // g))

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
        # each part rounded once, correctly, from its exact value, which
        # may fit a float where sqrt(rad) alone would overflow
        return complex(_times_root(self.re, self.rad), _times_root(self.im, self.rad))


def _times_root(q: Fraction, rad: int) -> float:
    """``q * sqrt(rad)`` rounded once from the exact ``q^2 rad = n/d``.

    ``isqrt(n 4^k // d)`` holds about 64 bits of ``sqrt(n/d) 2^k``; its
    last bit is set when the root is inexact (round to odd), so
    ``root 2^-k``, rounded once by int division or ``float``, is the
    value correctly rounded, subnormals included.  ``OverflowError`` if
    the value does not fit a float.
    """
    n, d = q.numerator * q.numerator * rad, q.denominator * q.denominator
    k = 64 - (n.bit_length() - d.bit_length()) // 2
    n, d = (n << 2 * k, d) if k >= 0 else (n, d << -2 * k)
    scaled = n // d
    root = math.isqrt(scaled)
    if root * root != scaled or scaled * d != n:
        root |= 1
    value = root / (1 << k) if k >= 0 else float(root << -k)
    return -value if q.numerator < 0 else value


ZERO = ExactScalar.make(0)
ONE = ExactScalar.make(1)


# --- syntax tree ---------------------------------------------------------

@dataclass(frozen=True)
class KetNode:
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ScalarNode:
    # a chain atom ('/' atom)* as written, whitespace dropped and digits
    # in ASCII, and each atom's exact value; evaluate divides them out
    text: str
    atoms: tuple


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


def _shape(node) -> tuple[tuple[int, ...], int, int, int]:
    """``(dims, terms, steps, bits)`` of ``node``, read off the tree in
    one walk.

    ``dims`` holds one past the largest index each slot uses; its length
    is the slot count, and summed terms must agree on it.  ``terms``
    bounds the entries of the amplitude table: a ket or a scalar counts
    1, a product multiplies, a sum adds.  ``steps`` bounds the exact
    products, divisions and additions :func:`_walk` makes: a ket counts
    1 and a scalar chain one per atom, and every partial product and
    every sum adds its terms to the steps of its parts.  ``bits`` prices
    the size of the numbers those steps work on: a ket counts 1 and a
    chain the bits of its atoms' numerators, denominators and
    radicands, a product adds its factors' bits and a sum takes their
    max plus one.
    """
    if isinstance(node, KetNode):
        return tuple([x + 1 for x in node.indices]), 1, 1, 1
    if isinstance(node, ScalarNode):
        ints = [x for v in node.atoms
                for x in (*v.re.as_integer_ratio(), *v.im.as_integer_ratio(), v.rad)]
        return (), 1, len(node.atoms), sum([x.bit_length() for x in ints])
    if isinstance(node, ProductNode):
        dims, terms, steps, bits = _shape(node.factors[0])
        dims = list(dims)  # a long product of kets appends in linear time
        for factor in node.factors[1:]:
            f_dims, f_terms, f_steps, f_bits = _shape(factor)
            dims += f_dims
            terms *= f_terms
            steps += f_steps + terms
            bits += f_bits
        return tuple(dims), terms, steps, bits
    if isinstance(node, SumNode):
        shapes, terms, steps, bits = zip(*[_shape(term) for _, term in node.terms])
        arities = {len(dims) for dims in shapes}
        if len(arities) > 1:
            raise ParseError(f"summed terms have different slot counts: {sorted(arities)}")
        total = sum(terms)
        return tuple(map(max, zip(*shapes))), total, total + sum(steps), max(bits) + 1
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
        elif ch.isdecimal():
            end = pos
            dots = 0
            while end < len(text) and (text[end].isdecimal() or text[end] == "."):
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
        self.divisions = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            got = tok[1] or "end of input"
            raise KetSyntaxError(f"expected {kind}, got {got!r}", tok[2])
        self.pos += 1
        return tok

    def number(self, kind: str, convert=int):
        """Take a ``kind`` token and convert its text with ``convert``."""
        _, word, col = self.take(kind)
        try:
            return convert(word)
        except ValueError:  # past Python's limit on the digits int() reads
            message = f"number literal of {len(word)} characters is too long"
            raise KetSyntaxError(message, col) from None

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self):
        terms = []
        while not terms or self.peek()[0] in ("PLUS", "MINUS"):
            kind = self.peek()[0]
            if kind in ("PLUS", "MINUS"):
                self.take(kind)
            terms.append((-1 if kind == "MINUS" else 1, self.term()))
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
            return self.scalar()
        got = self.peek()[1] or "end of input"
        raise KetSyntaxError(f"expected a scalar, ket, or '(', got {got!r}", col)

    # ket := '|' INT (',' INT)* '>'
    def ket(self):
        self.take("PIPE")
        indices = [self.number("INT")]
        while self.peek()[0] == "COMMA":
            self.take("COMMA")
            indices.append(self.number("INT"))
        self.take("GT")
        return KetNode(tuple(indices))

    # scalar := atom ('/' atom)*
    def scalar(self) -> ScalarNode:
        start = self.pos
        atoms = [self.atom()]
        while self.peek()[0] == "SLASH":
            _, _, col = self.take("SLASH")
            atoms.append(self.atom())
            if atoms[-1].is_zero():
                raise KetSyntaxError("division by zero", col)
        text = "".join([word for _, word, _ in self.tokens[start:self.pos]])
        if not text.isascii():  # the only other characters are decimal digits
            text = "".join([c if c.isascii() else str(int(c)) for c in text])
        return ScalarNode(text, tuple(atoms))

    # atom := INT | DECIMAL | 'i' | 'sqrt' '(' INT ['/' INT] ')'
    def atom(self) -> ExactScalar:
        kind, word, col = self.peek()
        if kind == "INT":
            return ExactScalar.make(self.number("INT"))
        if kind == "DECIMAL":
            return ExactScalar.make(self.number("DECIMAL", Fraction))
        if kind == "IDENT" and word == "i":
            self.take("IDENT")
            return ExactScalar.make(0, 1)
        if kind == "IDENT" and word == "sqrt":
            self.take("IDENT")
            self.take("LPAREN")
            num = self.number("INT")
            den, den_col = 1, col
            if self.peek()[0] == "SLASH":
                self.take("SLASH")
                den_col = self.peek()[2]
                den = self.number("INT")
            self.take("RPAREN")
            if den == 0:
                raise KetSyntaxError("division by zero", den_col)
            rad = Fraction(num, den)
            product = rad.numerator * rad.denominator
            if product > MAX_RADICAND:
                raise KetSyntaxError(
                    f"sqrt radicand {rad} is beyond the cap of {MAX_RADICAND}", col
                )
            self.divisions += round(product ** (1 / 3))
            if self.divisions > MAX_RADICAND_DIVISIONS:
                raise TooLargeError(
                    f"factoring the sqrt radicands takes over {MAX_RADICAND_DIVISIONS} divisions"
                )
            return ExactScalar.make(1, 0, rad)
        got = word or "end of input"
        raise KetSyntaxError(f"expected a scalar, got {got!r}", col)


def parse_ket(text: str) -> KetExpr:
    """Parse an expression, checking syntax and slot-count consistency.

    Nothing is computed: a scalar chain keeps its atoms, and
    :func:`evaluate` prices and divides them.

    Raises
    ------
    ParseError
        On any syntax problem, as a :class:`KetSyntaxError` with a 1-based
        column, or when summed subexpressions carry different slot counts.
    TooLargeError
        Past ``MAX_RADICAND_DIVISIONS``, before the radicands are factored.
    """
    parser = _Parser(text)
    root = parser.expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise KetSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return KetExpr(root, len(_shape(root)[0]))


# --- printing ------------------------------------------------------------

def pretty(expr) -> str:
    """Text for an expression; reparsing it rebuilds the same tree.

    Scalar chains print as written, whitespace dropped and digits in
    ASCII; kets, products and sums print in one spacing.
    """
    node = expr.root if isinstance(expr, KetExpr) else expr
    if isinstance(node, KetNode):
        return "|" + ",".join(str(x) for x in node.indices) + ">"
    if isinstance(node, ScalarNode):
        return node.text
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

def _amp_add(table: dict, idx: tuple, scalar: ExactScalar) -> None:
    if not scalar.is_zero():
        key = (idx, scalar.rad)
        table[key] = table[key] + scalar if key in table else scalar


def _walk(node) -> dict:
    """Exact amplitudes as {(multi-index, radicand): ExactScalar}."""
    if isinstance(node, KetNode):
        return {(node.indices, ONE.rad): ONE}
    if isinstance(node, ScalarNode):
        table = {}
        _amp_add(table, (), reduce(operator.truediv, node.atoms))
        return table
    if isinstance(node, ProductNode):
        amps = _walk(node.factors[0])
        for factor in node.factors[1:]:
            f_amps = _walk(factor)
            merged = {}
            for (idx_a, _), a in amps.items():
                for (idx_b, _), b in f_amps.items():
                    _amp_add(merged, idx_a + idx_b, a * b)
            amps = merged
        return amps
    if isinstance(node, SumNode):
        merged = {}
        for sign, term in node.terms:
            for (idx, _), scalar in _walk(term).items():
                _amp_add(merged, idx, scalar if sign == 1 else -scalar)
        return merged
    raise TypeError(f"not a ket expression node: {node!r}")


def evaluate(expr: KetExpr) -> PureState:
    """Turn an expression into a dense state.

    Each slot's dim is one past the largest index the kets use there;
    a zero term such as ``0|1,1>`` pads a slot.  The result is NOT
    normalized; whatever the expression says is what comes out.  The
    size guards run on the syntax tree, before any product is expanded.

    Raises
    ------
    ParseError
        If the expression has no kets.
    TooLargeError
        If the expression has more than ``MAX_SUBSYSTEMS`` slots, the
        dims multiply to more than ``MAX_TOTAL_DIM`` or expanding it
        takes more than ``MAX_EXPANSION`` steps or ``MAX_EXPANSION_BITS``
        steps times bits.
    ValidationError
        If an amplitude is too large for a float.
    """
    node = expr.root if isinstance(expr, KetExpr) else expr
    dims, _, steps, bits = _shape(node)
    if not dims:
        raise ParseError("expression has no kets, so there is no state")
    check_size_guards(dims)
    if steps > MAX_EXPANSION:
        raise TooLargeError(f"expression takes more than {MAX_EXPANSION} steps to expand")
    if steps * bits > MAX_EXPANSION_BITS:
        raise TooLargeError(
            f"expanding the expression costs {steps} steps times {bits} bits, "
            f"beyond the guard of {MAX_EXPANSION_BITS}"
        )
    # each multi-index sums its radicands' floats in the order they arose
    totals = {}
    for (idx, _), scalar in _walk(node).items():
        try:
            value = scalar.to_complex()
        except OverflowError:
            value = complex(math.inf)
        totals[idx] = totals.get(idx, 0j) + value
    for idx, total in totals.items():
        if not cmath.isfinite(total):
            label = ",".join(map(str, idx))
            raise ValidationError(f"amplitude of |{label}> overflows a float")
    return sparse_state(dims, totals)
