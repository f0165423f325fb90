"""A fixed corpus for the three text grammars: scalars, `.alg` expressions and maps.

Each accepted input is pinned to its value: a scalar's canonical text, an
expression's AST and printed form, a map combination's (weight, map) pairs.
Each rejected input is pinned to its exception class, and for `.alg`
expressions and spec files also to the line and column of the error.
"""

from fractions import Fraction

import pytest

from blockq.algebra import Window
from blockq.cli import parse_map_expr
from blockq.errors import (DivisionByZero, IntegralityViolation, ModeMismatch,
                           ParseError, UnknownMapName, UnknownVariable)
from blockq.halfder import builtin_map, shift_map
from blockq.scalars import parse_q, parse_scalar
from blockq.specdsl import builtin_algebra, parse_expr, parse_spec, print_expr, print_spec

# (text, q flag, canonical text of the value or exception class)
SCALARS = [
    ("0", "generic", "0"),
    ("1/2", "generic", "1/2"),
    ("-3", "generic", "-3"),
    ("q", "generic", "q"),
    ("3*q^2 - 1/2*q + 4", "generic", "3*q^2 - 1/2*q + 4"),
    ("(q + 1)/(q - 1)", "generic", "(q + 1)/(q - 1)"),
    ("(q^2 - 1)/(q - 1)", "generic", "q + 1"),
    ("2*3/4", "generic", "3/2"),
    ("2/3^2", "generic", "2/9"),
    ("2/3/4", "generic", "1/6"),
    ("--q", "generic", "q"),
    ("-q^2", "generic", "-q^2"),
    ("(-q)^2", "generic", "q^2"),
    ("q^0", "generic", "1"),
    ("q^64", "generic", "q^64"),
    ("2^64", "5", "18446744073709551616"),
    ("(1 - q)^3", "generic", "-q^3 + 3*q^2 - 3*q + 1"),
    ("1 - -1", "generic", "2"),
    (" q ", "generic", "q"),
    ("1 +\n2", "generic", "3"),
    ("7/3", "5", "7/3"),
    ("-2", "5", "-2"),
    ("q/q", "5", "1"),
    ("(q-q)", "5", "0"),
    ("1 +\n2", "5", "3"),
    ("3 *", "generic", ParseError),
    ("", "generic", ParseError),
    ("m^2", "generic", ParseError),
    ("x", "generic", ParseError),
    ("q^-1", "generic", ParseError),
    ("q^q", "generic", ParseError),
    ("q^2^2", "generic", ParseError),
    ("q^65", "generic", ParseError),
    ("(q + 1)^500", "5", ParseError),
    ("2q", "generic", ParseError),
    ("q2", "generic", ParseError),
    ("(1", "generic", ParseError),
    ("1)", "generic", ParseError),
    ("1:2", "generic", ParseError),
    ("1.5", "generic", ParseError),
    ("1 +\n*", "generic", ParseError),
    ("1/0", "generic", DivisionByZero),
    ("2/(q-q)", "generic", DivisionByZero),
    ("1/0", "5", DivisionByZero),
    ("q + 1", "2", ModeMismatch),
]

# (text, repr of the AST, print_expr text)
EXPRS_ACCEPTED = [
    ("n*(i + q) - m*(j + q)",
     "Sub(left=Mul(left=Var(name='n'), right=Add(left=Var(name='i'), right=Var(name='q'))), "
     "right=Mul(left=Var(name='m'), right=Add(left=Var(name='j'), right=Var(name='q'))))",
     "n*(i + q) - m*(j + q)"),
    ("n*(i+q) - m*(j + (1/2)*q)",
     "Sub(left=Mul(left=Var(name='n'), right=Add(left=Var(name='i'), right=Var(name='q'))), "
     "right=Mul(left=Var(name='m'), right=Add(left=Var(name='j'), "
     "right=Mul(left=Lit(value=Fraction(1, 2)), right=Var(name='q')))))",
     "n*(i + q) - m*(j + (1/2)*q)"),
    ("2*q", "Mul(left=Lit(value=Fraction(2, 1)), right=Var(name='q'))", "2*q"),
    ("m*1/2", "Mul(left=Var(name='m'), right=Lit(value=Fraction(1, 2)))", "m*(1/2)"),
    ("2*3/4", "Mul(left=Lit(value=Fraction(2, 1)), right=Lit(value=Fraction(3, 4)))",
     "2*(3/4)"),
    ("m*(1/2)", "Mul(left=Var(name='m'), right=Lit(value=Fraction(1, 2)))", "m*(1/2)"),
    ("1 / 2", "Lit(value=Fraction(1, 2))", "1/2"),
    ("0", "Lit(value=Fraction(0, 1))", "0"),
    ("((m))", "Var(name='m')", "m"),
    ("- - m", "Neg(arg=Neg(arg=Var(name='m')))", "--m"),
    ("-m*-n", "Mul(left=Neg(arg=Var(name='m')), right=Neg(arg=Var(name='n')))",
     "(-m)*(-n)"),
    ("-(m + n)*q",
     "Mul(left=Neg(arg=Add(left=Var(name='m'), right=Var(name='n'))), right=Var(name='q'))",
     "(-(m + n))*q"),
    ("q*q*q - 3/6",
     "Sub(left=Mul(left=Mul(left=Var(name='q'), right=Var(name='q')), right=Var(name='q')), "
     "right=Lit(value=Fraction(1, 2)))",
     "q*q*q - 1/2"),
]

# (text, exception class, line, column)
EXPRS_REJECTED = [
    ("n*(i+q) / m", ParseError, 1, 9),
    ("n/m", ParseError, 1, 2),
    ("m^2", ParseError, 1, 2),
    ("m ^ 2", ParseError, 1, 3),
    ("2/3^2", ParseError, 1, 4),
    ("1/0*m", ParseError, 1, 3),
    ("2/0*m", ParseError, 1, 3),
    ("1/m", ParseError, 1, 3),
    ("1/-2", ParseError, 1, 3),
    ("n*(i+q", ParseError, 1, 7),
    ("(m", ParseError, 1, 3),
    ("m)", ParseError, 1, 2),
    ("m +", ParseError, 1, 4),
    ("m*", ParseError, 1, 3),
    ("*m", ParseError, 1, 1),
    ("-", ParseError, 1, 2),
    ("", ParseError, 1, 1),
    ("m n", ParseError, 1, 3),
    ("m:n", ParseError, 1, 2),
    ("m $", ParseError, 1, 3),
    ("m.5", ParseError, 1, 2),
    ("k", UnknownVariable, 1, 1),
    ("m2", UnknownVariable, 1, 1),
    ("M", UnknownVariable, 1, 1),
]

_HEAD = "algebra X\nsuper false\n"

# (spec text, canonical text or (exception class, line, column))
SPECS = [
    (_HEAD + "rule even even antisymmetric:   n*i - m*j  # c\n",
     _HEAD + "rule even even antisymmetric: n*i - m*j\n"),
    (_HEAD + "rule even even antisymmetric: n/m\n", (ParseError, 3, 32)),
    (_HEAD + "rule even even antisymmetric: m^2\n", (ParseError, 3, 32)),
    (_HEAD + "rule even even antisymmetric: n*(i + q) - k\n", (UnknownVariable, 3, 43)),
    (_HEAD + "\nrule even even antisymmetric: 1/0*m\n", (ParseError, 4, 33)),
]

# (text, q flag, (weight, rule) pairs or exception class); B(q) on a 2x2 window
MAPS = [
    ("id", "2", [("1", "id")]),
    ("identity", "2", [("1", "id")]),
    ("  id  ", "2", [("1", "id")]),
    ("shift", "2", [("1", "shift")]),
    ("id + alpha", "2", [("1", "id"), ("1", "alpha")]),
    ("2*id - 1/3*alpha", "2", [("2", "id"), ("-1/3", "alpha")]),
    ("2 id", "2", [("2", "id")]),
    ("2/3 *id", "2", [("2/3", "id")]),
    ("1/2alpha", "2", [("1/2", "alpha")]),
    ("0*id", "2", [("0", "id")]),
    ("id - - alpha", "2", [("1", "id"), ("1", "alpha")]),
    ("id + - + alpha", "2", [("1", "id"), ("-1", "alpha")]),
    ("-id", "2", [("-1", "id")]),
    ("+ id", "2", [("1", "id")]),
    ("id - 2*shift", "2", [("1", "id"), ("-2", "shift")]),
    ("id +\nalpha", "2", [("1", "id"), ("1", "alpha")]),
    ("2*id - 1/3*id", "generic", [("2", "id"), ("-1/3", "id")]),
    ("", "2", ParseError),
    ("-", "2", ParseError),
    ("2 *", "2", ParseError),
    ("* id", "2", ParseError),
    ("2 * * id", "2", ParseError),
    ("2*-id", "2", ParseError),
    ("id -", "2", ParseError),
    ("id +", "2", ParseError),
    ("id + 2", "2", ParseError),
    ("id alpha", "2", ParseError),
    ("id * 2", "2", ParseError),
    ("2*3*id", "2", ParseError),
    ("2*3/4", "2", ParseError),
    ("2/0*id", "2", ParseError),
    ("2 / 3*id", "2", ParseError),
    ("2/ 3*id", "2", ParseError),
    ("2 /3*id", "2", ParseError),
    ("2/3/4*id", "2", ParseError),
    ("2/3^2", "2", ParseError),
    ("m^2", "2", ParseError),
    ("id^2", "2", ParseError),
    ("(id)", "2", ParseError),
    ("id:alpha", "2", ParseError),
    ("id $", "2", ParseError),
    ("foo", "2", UnknownMapName),
    ("id_2", "2", UnknownMapName),
    ("beta", "2", UnknownMapName),
    ("alpha", "1/2", IntegralityViolation),
]


# Input deep enough to overflow the Python stack, in the parser (parentheses,
# leading minus signs) or in the AST walkers (a long sum or product): each a
# ParseError located on the input
DEEP_SCALARS = ["(" * 246 + "1" + ")" * 246, "-" * 982 + "1", "(" * 5000 + "q" + ")" * 5000]
DEEP_EXPRS = ["(" * 330 + "m" + ")" * 330, "-" * 989 + "m", " + ".join(["m"] * 992),
              "*".join(["n"] * 499), "-" * 5000 + "m", " - ".join(["m"] * 100_000)]


@pytest.mark.parametrize("text,q,expected", SCALARS)
def test_scalar(text, q, expected):
    mode = parse_q(q)
    if isinstance(expected, str):
        val = parse_scalar(text, mode)
        assert str(val) == expected
        assert isinstance(val, Fraction) == (mode is not None)
    else:
        with pytest.raises(Exception) as err:
            parse_scalar(text, mode)
        assert type(err.value) is expected


def test_scalar_exponent_bound_is_located():
    with pytest.raises(ParseError) as err:
        parse_scalar("1 +\n(q + 1)^65")
    assert (err.value.line, err.value.col) == (2, 9)


@pytest.mark.parametrize("text", DEEP_SCALARS, ids=lambda t: f"{t[:2]}x{len(t)}")
def test_deep_scalar_is_located(text):
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert err.value.line == 1 and 1 <= err.value.col <= len(text)


@pytest.mark.parametrize("text,ast,printed", EXPRS_ACCEPTED)
def test_expr_accepted(text, ast, printed):
    e = parse_expr(text)
    assert repr(e) == ast
    assert print_expr(e) == printed


@pytest.mark.parametrize("text,cls,line,col", EXPRS_REJECTED)
def test_expr_rejected(text, cls, line, col):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert (type(err.value), err.value.line, err.value.col) == (cls, line, col)


def test_expr_location_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("n/m", line=3, col_offset=30)
    assert (err.value.line, err.value.col) == (3, 32)


@pytest.mark.parametrize("text", DEEP_EXPRS, ids=lambda t: f"{t[:2]}x{len(t)}")
def test_deep_expr_is_located(text):
    with pytest.raises(ParseError) as err:
        parse_spec(_HEAD + "rule even even antisymmetric: " + text + "\n")
    # the walkers fail at the first token, column 31; the parser further on
    assert err.value.line == 3 and 31 <= err.value.col <= 30 + len(text)


@pytest.mark.parametrize("text,expected", SPECS)
def test_spec(text, expected):
    if isinstance(expected, str):
        assert print_spec(parse_spec(text)) == expected
    else:
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert (type(err.value), err.value.line, err.value.col) == expected


@pytest.mark.parametrize("text,q,expected", MAPS)
def test_map(text, q, expected):
    alg = builtin_algebra("B", parse_q(q))
    if isinstance(expected, list):
        w = Window(2, 2)
        combo = parse_map_expr(text, alg, w)
        assert [(str(c), g) for c, g in combo] == [
            (c, shift_map(alg, w) if name == "shift" else builtin_map(name, alg, w))
            for c, name in expected]
    else:
        with pytest.raises(Exception) as err:
            parse_map_expr(text, alg, Window(2, 2))
        assert type(err.value) is expected
