"""Exact field arithmetic: rationals, polynomials in q, rational functions."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockq.errors import DivisionByZero, ModeMismatch, ParseError, PoleAtQ0
from blockq.scalars import (Coeffs, Poly, RatFunc, format_q, inv, parse_q,
                            parse_scalar, specialize_q)

fractions_st = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
polys_st = st.lists(fractions_st, max_size=4).map(Poly)
nonzero_polys_st = polys_st.filter(lambda p: not p.is_zero)
ratfuncs_st = st.tuples(polys_st, nonzero_polys_st).map(lambda t: RatFunc(*t))


def rf(text: str) -> RatFunc:
    return parse_scalar(text)


class TestRationalOps:
    def test_add_halves(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            inv(Fraction(0))

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            Fraction(1) + RatFunc.const(1)
        with pytest.raises(ModeMismatch):
            RatFunc.q() / Fraction(2)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Poly([0, 0]).is_zero

    def test_product_difference_of_squares(self):
        q = Poly.q()
        one = Poly.const(1)
        assert (q + one) * (q - one) == Poly([-1, 0, 1])

    def test_divmod_roundtrip(self):
        a = Poly([3, Fraction(1, 2), 0, 2])
        b = Poly([1, 1])
        quot, rem = a.divmod(b)
        assert quot * b + rem == a
        assert rem.degree < b.degree

    def test_str_form(self):
        assert str(Poly([4, Fraction(-1, 2), 3])) == "3*q^2 - 1/2*q + 4"
        assert str(Poly()) == "0"


int_coeffs_st = st.lists(st.integers(-50, 50), max_size=5)


class TestCoeffs:
    """`Coeffs` is polynomial arithmetic in q: checked against `Poly` and,
    independently of both, against values at more points than the degree."""

    @staticmethod
    def values(cs, points):
        return [sum(c * t ** k for k, c in enumerate(cs)) for t in points]

    @given(a=int_coeffs_st, b=int_coeffs_st)
    @example(a=[], b=[])
    @example(a=[], b=[1, 0, 0])
    @example(a=[0, 0], b=[3])
    @example(a=[1, 2, 0], b=[-1])
    @example(a=[0, 0, 0], b=[0])
    @settings(max_examples=200, deadline=None)
    def test_ring_operators_agree_with_poly(self, a, b):
        ca, cb = Coeffs(a), Coeffs(b)
        points = range(len(a) + len(b) + 1)
        for got, want, op in ((ca + cb, Poly(a) + Poly(b), int.__add__),
                              (ca - cb, Poly(a) - Poly(b), int.__sub__),
                              (ca * cb, Poly(a) * Poly(b), int.__mul__),
                              (-ca, -Poly(a), lambda x, _y: -x)):
            assert type(got) is Coeffs
            assert Poly(got) == want
            assert self.values(got, points) == [
                op(x, y) for x, y in zip(self.values(a, points), self.values(b, points))]
        assert bool(ca) is (Poly(a).degree >= 0) is any(a)
        assert len(ca + cb) == len(ca - cb) == max(len(a), len(b))

    @given(a=int_coeffs_st, b=int_coeffs_st)
    @settings(max_examples=60, deadline=None)
    def test_plain_tuple_right_operand_is_read_as_coefficients(self, a, b):
        ca, cb = Coeffs(a), Coeffs(b)
        for got, want in ((ca + tuple(b), ca + cb), (ca - tuple(b), ca - cb),
                          (ca * tuple(b), ca * cb)):
            assert type(got) is Coeffs and got == want

    def test_zero_of_any_length_is_falsy(self):
        assert not Coeffs() and not Coeffs((0,)) and not Coeffs((0, 0, 0))
        assert Coeffs((0, 0, 1)) and Coeffs((-1,))

    def test_poly_keeps_stripped_coeffs(self):
        p = Poly([1, 2]) - Poly([0, 2])
        assert type(p.coeffs) is Coeffs and p.coeffs == (Fraction(1),)


class TestRatFunc:
    def test_mul_difference_of_squares(self):
        assert rf("q+1") * rf("q-1") == rf("q^2 - 1")

    def test_inv_swaps(self):
        x = rf("(q - 2)/(q + 3)")
        assert inv(x) == rf("(q + 3)/(q - 2)")

    def test_canonical_monic_denominator(self):
        x = RatFunc(Poly([2]), Poly([0, 2]))  # 2 / 2q
        assert x.den.leading == 1
        assert x == rf("1/q")

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            RatFunc(Poly.const(1), Poly())


class TestSpecialize:
    def test_square_minus_one(self):
        assert specialize_q(rf("q^2 - 1"), Fraction(3)) == 8

    def test_pole(self):
        with pytest.raises(PoleAtQ0):
            specialize_q(rf("1/(q - 2)"), Fraction(2))

    def test_bracket_coefficient_substitution(self):
        # n*(i+q) - m*(j+q) at (m,i,n,j) = (1,0,0,1) is -1-q
        x = rf("-1 - q")
        assert specialize_q(x, Fraction(1)) == -2

    @given(a=ratfuncs_st, b=ratfuncs_st,
           q0=st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(-3),
                               Fraction(1, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_ring_homomorphism(self, a, b, q0):
        assume(a.den(q0) != 0 and b.den(q0) != 0)
        assert specialize_q(a + b, q0) == specialize_q(a, q0) + specialize_q(b, q0)
        assert specialize_q(a * b, q0) == specialize_q(a, q0) * specialize_q(b, q0)


class TestFieldAxioms:
    @given(a=ratfuncs_st, b=ratfuncs_st, c=ratfuncs_st)
    @settings(max_examples=40, deadline=None)
    def test_rational_function_field(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if a:
            assert a * inv(a) == RatFunc.const(1)

    @given(a=fractions_st, b=fractions_st, c=fractions_st)
    @settings(max_examples=40, deadline=None)
    def test_fixed_mode_field(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        if b:
            assert a / b * b == a

    @given(p1=nonzero_polys_st, p2=polys_st, p3=nonzero_polys_st)
    @settings(max_examples=40, deadline=None)
    def test_canonical_form_unique(self, p1, p2, p3):
        # common factors cancel to the same normal form
        assert RatFunc(p1 * p2, p1 * p3) == RatFunc(p2, p3)


class TestSerialization:
    @given(x=ratfuncs_st)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_generic(self, x):
        assert parse_scalar(str(x)) == x

    @given(a=fractions_st)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_fixed(self, a):
        assert parse_scalar(str(a), Fraction(5)) == a

    def test_fixed_mode_rejects_q(self):
        with pytest.raises(ModeMismatch):
            parse_scalar("q + 1", Fraction(2))

    def test_parse_error_location(self):
        with pytest.raises(ParseError):
            parse_scalar("3 *")


class TestQFlag:
    def test_generic(self):
        assert parse_q("generic") is None
        assert format_q(None) == "generic"

    def test_rational(self):
        assert parse_q("7/3") == Fraction(7, 3)
        assert parse_q("-2") == Fraction(-2)
        assert format_q(Fraction(1, 2)) == "1/2"

    def test_decimals_rejected(self):
        with pytest.raises(ParseError):
            parse_q("0.5")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_q("1/0")


REIMPORT = """
import gc, importlib, sys
for _ in range(5):
    for name in [n for n in sys.modules if n == "blockq" or n.startswith("blockq.")]:
        del sys.modules[name]
    importlib.import_module("blockq.cli")
gc.collect()
print(sum(1 for o in gc.get_objects()
          if isinstance(o, type) and o.__name__ == "RatFunc"
          and o.__module__ == "blockq.scalars"))
"""


def test_reimport_keeps_one_ratfunc_class():
    # a module-level alias that typing caches (Union[...]) would keep every
    # re-imported RatFunc class, and its module, alive
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", REIMPORT], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["1"]
