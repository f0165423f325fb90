"""Grammar, evaluation and round-trips of the .alg definition language."""

from fractions import Fraction

import pytest
from oracles import UnboundVariable, eval_expr

from blockq.algebra import EVEN, ODD, Window, bracket_basis
from blockq.errors import DuplicateRule, ParseError, UnknownAlgebra, UnknownVariable
from blockq.scalars import RatFunc
from blockq.specdsl import (Add, Lit, Mul, RuleDecl, SpecFile, Sub, Var,
                            builtin_algebra, builtin_specfile, expand_expr,
                            make_algebra, parse_expr, parse_spec, print_expr,
                            print_spec, shipped_alg_text)


class TestExprParser:
    def test_block_coefficient(self):
        e = parse_expr("(n*(i+q) - m*(j+q))")
        mono = expand_expr(e)
        # two bilinear terms plus two q-linear ones
        assert mono == {
            (0, 1, 1, 0, 0): Fraction(1), (0, 0, 1, 0, 1): Fraction(1),
            (1, 0, 0, 1, 0): Fraction(-1), (1, 0, 0, 0, 1): Fraction(-1)}

    def test_half_literal(self):
        e = parse_expr("n*(i+q) - m*(j + (1/2)*q)")
        mono = expand_expr(e)
        assert mono[(1, 0, 0, 0, 1)] == Fraction(-1, 2)

    def test_no_division_by_variables(self):
        with pytest.raises(ParseError):
            parse_expr("n*(i+q) / m")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_expr("n*(i+q) - k")

    def test_reads_past_any_whitespace(self):
        # a no-break space used to end the expression silently: n*i - m*j read as n*i
        assert parse_expr("n*i\xa0- m*j") == parse_expr("n*i - m*j")
        with pytest.raises(ParseError) as err:
            parse_expr("n\nm")
        assert (err.value.line, err.value.col) == (2, 1)

    def test_location_reported(self):
        with pytest.raises(ParseError) as err:
            parse_expr("n*(i+q")
        assert err.value.line == 1
        assert err.value.col is not None


class TestEvalExpr:
    def test_generic_substitution(self):
        e = parse_expr("(n*(i+q) - m*(j+q))")
        val = eval_expr(e, {"m": RatFunc.const(1), "i": RatFunc.const(0),
                            "n": RatFunc.const(0), "j": RatFunc.const(1)})
        assert val == RatFunc.const(-1) - RatFunc.q()

    def test_fixed_two_q_at_zero(self):
        e = parse_expr("2*q")
        assert eval_expr(e, {"q": Fraction(0)}, generic=False) == 0

    def test_unbound_q_in_fixed_mode(self):
        e = parse_expr("q")
        with pytest.raises(UnboundVariable):
            eval_expr(e, {"m": Fraction(1)}, generic=False)

    def test_unbound_index_variable(self):
        e = parse_expr("m + n")
        with pytest.raises(UnboundVariable):
            eval_expr(e, {"m": Fraction(1), "q": Fraction(2)}, generic=False)

    def test_matches_expansion(self):
        e = parse_expr("n*(i+q) - m*(j + (1/2)*q)")
        binds = {"m": Fraction(3), "i": Fraction(-1), "n": Fraction(2),
                 "j": Fraction(5), "q": Fraction(4)}
        direct = eval_expr(e, dict(binds), generic=False)
        mono = expand_expr(e)
        acc = Fraction(0)
        for (em, ei, en, ej, eq), c in mono.items():
            acc += (c * binds["m"] ** em * binds["i"] ** ei
                    * binds["n"] ** en * binds["j"] ** ej * binds["q"] ** eq)
        assert direct == acc


class TestSpecFiles:
    def test_roundtrip(self):
        for name in ("B", "S"):
            sf = parse_spec(shipped_alg_text(name))
            assert parse_spec(print_spec(sf)) == sf

    def test_shipped_files_match_builtin(self):
        for name in ("B", "S"):
            sf = parse_spec(shipped_alg_text(name))
            assert make_algebra(sf, Fraction(3)) == builtin_algebra(name, Fraction(3))

    def test_duplicate_rule(self):
        text = ("algebra X\nsuper false\n"
                "rule even even antisymmetric: n*i\n"
                "rule even even antisymmetric: m*j\n")
        with pytest.raises(DuplicateRule):
            parse_spec(text)

    def test_repeated_header(self):
        # a second header used to replace the first one silently
        rule = "rule even even antisymmetric: n*i\n"
        for text, lineno in (("algebra X\nalgebra Y\nsuper false\n" + rule, 2),
                             ("algebra X\nsuper false\n" + rule + "super true\n", 4)):
            with pytest.raises(ParseError) as err:
                parse_spec(text)
            assert (err.value.line, err.value.col) == (lineno, 1)

    def test_missing_rule(self):
        with pytest.raises(ParseError):
            parse_spec("algebra X\nsuper true\nrule even even antisymmetric: n*i\n")

    def test_wrong_symmetry_flag(self):
        text = ("algebra X\nsuper false\n"
                "rule even even symmetric: n*i - m*j\n")
        with pytest.raises(ParseError):
            parse_spec(text)

    def test_comments_and_whitespace(self):
        text = ("# a Block variant\n\nalgebra   T\n"
                "super false   # no odd part\n"
                "rule even even antisymmetric:   n*i-m*j\n")
        sf = parse_spec(text)
        assert sf.name == "T"

    def test_print_expr_parenthesizes(self):
        e = parse_expr("-(m + n)*q")
        assert parse_expr(print_expr(e)) == e


class TestBuiltinAlgebras:
    def test_block_has_single_rule(self):
        alg = builtin_algebra("B", None)
        assert not alg.is_super
        assert list(alg.rules) == [(EVEN, EVEN)]

    def test_super_has_three_rules(self):
        # three declared rules, and (odd, even) completed by graded skew-symmetry
        alg = builtin_algebra("S", None)
        assert alg.is_super
        assert set(alg.rules) == {(EVEN, EVEN), (EVEN, ODD), (ODD, EVEN), (ODD, ODD)}
        assert alg.rules[(ODD, EVEN)] == {(en, ej, em, ei, eq): -c for (em, ei, en, ej, eq), c
                                          in alg.rules[(EVEN, ODD)].items()}

    def test_builtin_specfiles_are_the_block_rules(self):
        # the shipped files, parsed once, against the rules written out by hand
        even_even = Sub(Mul(Var("n"), Add(Var("i"), Var("q"))),
                        Mul(Var("m"), Add(Var("j"), Var("q"))))
        even_odd = Sub(Mul(Var("n"), Add(Var("i"), Var("q"))),
                       Mul(Var("m"), Add(Var("j"), Mul(Lit(Fraction(1, 2)), Var("q")))))
        assert builtin_specfile("B") == SpecFile("B", False, (
            RuleDecl(EVEN, EVEN, False, even_even),))
        assert builtin_specfile("S") == SpecFile("S", True, (
            RuleDecl(EVEN, EVEN, False, even_even),
            RuleDecl(EVEN, ODD, False, even_odd),
            RuleDecl(ODD, ODD, True, Mul(Lit(Fraction(2)), Var("q")))))
        assert builtin_specfile("S") is builtin_specfile("S")

    def test_unknown_name(self):
        with pytest.raises(UnknownAlgebra):
            builtin_algebra("X", None)
        with pytest.raises(UnknownAlgebra):
            builtin_specfile("W")

    @pytest.mark.parametrize("q", [None, Fraction(0), Fraction(2), Fraction(7, 3)])
    def test_parsed_equals_builtin_brackets(self, q):
        # oracle equivalence on every pair in a 3x3 window
        for name in ("B", "S"):
            parsed = make_algebra(parse_spec(shipped_alg_text(name)), q)
            built = builtin_algebra(name, q)
            basis = Window(3, 3).basis(built.parities)
            for x in basis:
                for y in basis:
                    assert bracket_basis(parsed, x, y) == bracket_basis(built, x, y)
