"""Exact coefficient arithmetic: rationals, polynomials in q, and their fraction field.

Every computation runs in one of two modes:

* fixed mode  -- q is specialized to an exact rational; scalars are `Fraction`.
* generic mode -- q stays formal; scalars are `RatFunc`, elements of Q(q).

The mode is a property of the whole computation and is never mixed: an
arithmetic operator handed one scalar of each kind raises `ModeMismatch`.
Throughout the package a value ``q: Fraction | None`` selects the mode, with
``None`` meaning generic.

Polynomial arithmetic in q is written once, in `Coeffs`: a tuple of
coefficients, low degree first, whose + - * and truth value are those of
the polynomial.  It serves both layers: `Poly` keeps its coefficients as
`Coeffs` of `Fraction`s, stripped of trailing zeros, and the compiled layer
(`algebra.CompiledAlgebra`) writes every generic-mode raw value as `Coeffs`
of ints, of any length.  Rational functions are gcd-reduced with a monic
denominator, so equality is structural.

`Tokens` is the package's one tokenizer and token cursor, shared by the
scalar grammar here, the `.alg` grammar and the `--map` grammar.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable

from .errors import DivisionByZero, ModeMismatch, ParseError, PoleAtQ0

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Coeffs(tuple):
    """The coefficients of a polynomial in q, low degree first, with ring operators.

    `+`, `-`, `*` and unary `-` are polynomial arithmetic, and the truth
    value says whether the polynomial is nonzero, whatever the length:
    trailing zeros are allowed, and `()` is zero.  A plain tuple on the
    right is read as coefficients too.
    """

    __slots__ = ()

    # + and - nearly always meet equal lengths, where map() runs about 5 %
    # of classify at generic q faster than the zip_longest generator
    def __add__(self, other: tuple) -> "Coeffs":
        if len(self) == len(other):
            return Coeffs(map(operator.add, self, other))
        return Coeffs(a + b for a, b in zip_longest(self, other, fillvalue=0))

    def __sub__(self, other: tuple) -> "Coeffs":
        if len(self) == len(other):
            return Coeffs(map(operator.sub, self, other))
        return Coeffs(a - b for a, b in zip_longest(self, other, fillvalue=0))

    def __neg__(self) -> "Coeffs":
        return Coeffs(map(operator.neg, self))

    def __mul__(self, other: tuple) -> "Coeffs":
        out = [0] * (len(self) + len(other) - 1)
        for k, c in enumerate(self):
            if c:
                for l, d in enumerate(other):
                    out[k + l] += c * d
        return Coeffs(out)

    def __bool__(self) -> bool:
        return any(self)


class Poly:
    """Univariate polynomial in the formal parameter q over the rationals.

    Coefficients are stored low degree first as `Coeffs`, which also does
    the arithmetic; the zero polynomial is the empty tuple.  Instances are
    immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", Coeffs(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c: Fraction | int) -> "Poly":
        return cls((Fraction(c),))

    @classmethod
    def q(cls) -> "Poly":
        return cls((_ZERO, _ONE))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (_ONE,)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.coeffs + other.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(self.coeffs - other.coeffs)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.coeffs * other.coeffs)

    def scale(self, c: Fraction | int) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        return Poly(tuple(c * x for x in self.coeffs))

    def monic(self) -> "Poly":
        return self.scale(1 / self.leading)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact long division: self = quot*other + rem with deg rem < deg other."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.leading
        dd = other.degree
        quot = [_ZERO] * max(0, len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            f = c / dlead
            quot[k - dd] = f
            for l, d in enumerate(other.coeffs):
                rem[k - dd + l] -= f * d
        return Poly(quot), Poly(rem)

    def __call__(self, q0: Fraction | int) -> Fraction:
        q0 = Fraction(q0)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


_P_ZERO = Poly()
_P_ONE = Poly.const(1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a if a.is_zero else a.monic()


class RatFunc:
    """Element of Q(q): a gcd-reduced ratio of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            num, den = _P_ZERO, _P_ONE
        elif not den.is_one:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lc = den.leading
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.scale(1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def const(cls, c: Fraction | int) -> "RatFunc":
        return cls(Poly.const(c))

    @classmethod
    def q(cls) -> "RatFunc":
        return cls(Poly.q())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        raise ModeMismatch(
            f"generic-mode scalar combined with {type(other).__name__}")

    def __add__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if self.den.is_one and other.den.is_one:
            return RatFunc(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __mul__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if self.den.is_one and other.den.is_one:
            return RatFunc(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> "RatFunc":
        return self * self._coerce(other).inv()

    def __radd__(self, other):
        raise ModeMismatch("fixed-mode scalar combined with generic-mode scalar")

    __rsub__ = __radd__
    __rmul__ = __radd__
    __rtruediv__ = __radd__

    def inv(self) -> "RatFunc":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.den, self.num)

    def specialize(self, q0: Fraction | int) -> Fraction:
        q0 = Fraction(q0)
        d = self.den(q0)
        if d == 0:
            raise PoleAtQ0(f"denominator {self.den} vanishes at q = {q0}")
        return self.num(q0) / d

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"RatFunc({self})"

    def __str__(self) -> str:
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"


Scalar = Fraction | RatFunc


def inv(a: Scalar) -> Scalar:
    if isinstance(a, Fraction):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / a
    return a.inv()


def specialize_q(x: RatFunc | Poly, q0: Fraction | int) -> Fraction:
    """Evaluate a generic-mode scalar at an exact rational q0."""
    if isinstance(x, Poly):
        return x(q0)
    return x.specialize(q0)


def scalar_one(q: Fraction | None) -> Scalar:
    return _ONE if q is not None else RatFunc(_P_ONE)


def from_fraction(c: Fraction | int, q: Fraction | None) -> Scalar:
    """Lift an exact rational constant into the active coefficient field."""
    return Fraction(c) if q is not None else RatFunc.const(c)


_Q_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def format_q(q: Fraction | None) -> str:
    return "generic" if q is None else str(q)


def parse_q(text: str) -> Fraction | None:
    """Parse a q-mode flag: 'generic' or an exact rational like '7/3'."""
    text = text.strip()
    if text == "generic":
        return None
    if not _Q_RE.match(text):
        raise ParseError(f"q must be 'generic' or an exact rational, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"q has a zero denominator: {text!r}") from None


# --- tokens --------------------------------------------------------------------
#
# Each grammar (scalars below, `specdsl.parse_expr`, `cli.parse_map_expr`) keeps
# its own rules and rejects as unexpected whatever token it has no rule for.

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^():])|(\S))")


class Tokens:
    """Token cursor over INT, NAME, EOF and the operators + - * / ^ ( ) :.

    The text is tokenized up front, so a character outside the alphabet is
    reported before any syntax error.  Tokens are (kind, text, offset)
    triples, an operator's kind being its text.  Every ParseError carries a
    line and a column; columns on the first line are shifted by `col_offset`.
    """

    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.source, self.line, self.col_offset = text, line, col_offset
        self.toks: list[tuple[str, str, int]] = []
        self.k = 0
        for mm in _TOKEN_RE.finditer(text):
            g = mm.lastindex
            if g == 4:
                raise self.error(f"unexpected character {mm[4]!r}", pos=mm.start(4))
            self.toks.append((("INT", "NAME", mm[3])[g - 1], mm[g], mm.start(g)))
        self.toks.append(("EOF", "", len(text)))

    def peek(self) -> str:
        """Kind of the current token."""
        return self.toks[self.k][0]

    @property
    def text(self) -> str:
        """Text of the current token."""
        return self.toks[self.k][1]

    def accept(self, *kinds: str) -> str | None:
        """Consume the current token and return its text if its kind is in `kinds`."""
        kind, text, _ = self.toks[self.k]
        if kind not in kinds:
            return None
        self.k += 1
        return text

    def take(self, kind: str, *expected: str) -> str:
        """Consume the current token, which must be of `kind`, and return its text."""
        text = self.accept(kind)
        if text is None:
            raise self.unexpected(*(expected or (kind,)))
        return text

    def glued(self) -> bool:
        """Whether the current token starts where the previous one ends."""
        _, text, pos = self.toks[self.k - 1]
        return self.toks[self.k][2] == pos + len(text)

    def end(self, *expected: str) -> None:
        if self.peek() != "EOF":
            raise self.error(f"trailing input {self.text!r}", *expected)

    def unexpected(self, *expected: str) -> ParseError:
        return self.error(f"unexpected token {self.text!r}", *expected)

    def error(self, message: str, *expected: str, cls=ParseError,
              pos: int | None = None) -> ParseError:
        """A `cls` located at offset `pos`, by default the current token's."""
        pos = self.toks[self.k][2] if pos is None else pos
        nl = self.source.rfind("\n", 0, pos)
        col = pos - nl if nl >= 0 else self.col_offset + pos + 1
        return cls(message, self.line + self.source.count("\n", 0, pos), col,
                   expected=expected)


# --- scalar string parsing -------------------------------------------------
#
# Evaluated in Q(q); fixed-mode parsing then demands a constant result.
#   sum     := product (('+'|'-') product)*
#   product := power (('*'|'/') power)*
#   power   := '-' power | atom ('^' INT)?     INT at most _MAX_EXPONENT
#   atom    := INT | 'q' | '(' sum ')'

# Scalar text arrives from outside (product tables), and an unbounded
# exponent would let one short string stall a run.
_MAX_EXPONENT = 64


def _sum(toks: Tokens) -> RatFunc:
    val = _product(toks)
    while op := toks.accept("+", "-"):
        rhs = _product(toks)
        val = val + rhs if op == "+" else val - rhs
    return val


def _product(toks: Tokens) -> RatFunc:
    val = _power(toks)
    while op := toks.accept("*", "/"):
        rhs = _power(toks)
        val = val * rhs if op == "*" else val / rhs
    return val


def _power(toks: Tokens) -> RatFunc:
    if toks.accept("-"):
        return -_power(toks)
    val = _atom(toks)
    if not toks.accept("^"):
        return val
    if toks.peek() == "INT" and int(toks.text) > _MAX_EXPONENT:
        raise toks.error(f"exponent {toks.text} is above {_MAX_EXPONENT}")
    e = int(toks.take("INT"))
    out = RatFunc.const(1)
    while e:  # square and multiply
        if e & 1:
            out = out * val
        e >>= 1
        if e:
            val = val * val
    return out


def _atom(toks: Tokens) -> RatFunc:
    if toks.peek() == "INT":
        return RatFunc.const(int(toks.take("INT")))
    if toks.accept("("):
        val = _sum(toks)
        toks.take(")")
        return val
    if toks.text == "q":
        toks.take("NAME")
        return RatFunc.q()
    raise toks.unexpected("INT", "q", "(")


def parse_scalar(text: str, q: Fraction | None = None) -> Scalar:
    """Parse the serialized scalar forms back into the active field.

    Accepts rationals ("p/q"), polynomials ("3*q^2 - 1/2*q + 4") and rational
    functions ("(num)/(den)").  In fixed mode the result must be constant.
    """
    toks = Tokens(text)
    try:
        val = _sum(toks)
    except RecursionError:
        raise toks.error("scalar nests too deeply") from None
    toks.end("end of input")
    if q is None:
        return val
    if val.den.is_one and val.num.degree <= 0:
        return val.num(_ZERO)
    raise ModeMismatch(f"{text!r} is not a constant in fixed-q mode")
