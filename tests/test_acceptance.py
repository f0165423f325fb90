"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (tolerance zero); the classification criteria pin
both the stable dimensions and the named maps spanning them.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from blockq.algebra import EVEN, ODD, BasisIndex, Window, bracket_basis
from blockq.cli import main
from blockq.errors import IntegralityViolation, WrongQ
from blockq.halfder import (MapDegree, build_constraints, builtin_map, check_map,
                            classify, half_derivation_system, stabilize)
from blockq.scalars import specialize_q
from blockq.specdsl import (builtin_algebra, make_algebra, parse_spec,
                            print_spec, shipped_alg_text)
from blockq.tpverify import (ProductTable, builtin_tp, left_mult_map,
                             verify_associative)

L = lambda m, i: BasisIndex(EVEN, m, i)
G = lambda m, i: BasisIndex(ODD, m, i)

Q = Fraction


def _unit_vec(idx):
    from blockq.algebra import SparseVector
    return SparseVector.basis(idx, Fraction(1))


@contextmanager
def criterion(n: int, desc: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc}")


def run_cli(*argv) -> int:
    return main([*argv, "--quiet"])


MUTATED_B = """algebra B
super false
rule even even antisymmetric: n*(i + q) - m*(j - q)
"""

MUTATED_S = """algebra S
super true
rule even even antisymmetric: n*(i + q) - m*(j + q)
rule even odd antisymmetric: n*(i + q) - m*(j - (1/2)*q)
rule odd odd symmetric: 2*q
"""


def test_criterion_1_jacobi_suites(tmp_path):
    with criterion(1, "Jacobi suites pass symbolically; mutations fail with a witness"):
        assert run_cli("verify-algebra", "--algebra", "B", "--q", "generic",
                       "--window", "4x4") == 0
        assert run_cli("verify-algebra", "--algebra", "S", "--q", "generic",
                       "--window", "3x3") == 0
        for text in (MUTATED_B, MUTATED_S):
            path = tmp_path / "mut.alg"
            path.write_text(text)
            out = tmp_path / "rep.json"
            assert main(["verify-algebra", "--spec", str(path), "--q", "generic",
                         "--window", "3x3", "--out", str(out), "--quiet"]) == 1
            rep = json.loads(out.read_text())
            witnesses = (rep["jacobi"]["violations"]
                         or rep["antisymmetry"]["violations"])
            assert witnesses and witnesses[0]["indices"]
            # a concrete witness triple from the Jacobi suite
            assert any(len(v["indices"]) == 3
                       for v in rep["jacobi"]["violations"])


BLOCK_WINDOWS = [Window(4, 6), Window(5, 7)]


def test_criterion_2_block_classification():
    with criterion(2, "Delta(B(q)): dim 1 generically, <id, alpha> for q in Z"):
        for q in (None, Q(1, 2), Q(7, 3)):
            rep = classify(builtin_algebra("B", q), EVEN, (3, 3), BLOCK_WINDOWS)
            assert rep.total_dim == 1, (q, rep.total_dim)
            assert [(d.r, d.s) for d in rep.degrees] == [(0, 0)]
            assert rep.degrees[0].matched_names == ["id"]
        for q in (Q(0), Q(1), Q(2), Q(3), Q(-2)):
            rep = classify(builtin_algebra("B", q), EVEN, (3, 3), BLOCK_WINDOWS)
            assert rep.total_dim == 2, (q, rep.total_dim)
            want = {(0, 0)} | {(0, int(q))}
            assert {(d.r, d.s) for d in rep.degrees} == want
            matched = {name for d in rep.degrees for name in d.matched_names}
            assert matched == {"id", "alpha"}


def test_criterion_3_super_even_classification():
    with criterion(3, "Delta0(S(q)): dim 1 for q != 0, <id, alpha, beta> at q = 0"):
        windows = [Window(3, 3), Window(4, 4), Window(5, 5)]
        for q in (Q(1), Q(2), Q(-3)):
            rep = classify(builtin_algebra("S", q), EVEN, (3, 3), windows)
            assert rep.total_dim == 1, (q, rep.total_dim)
            assert rep.degrees[0].matched_names == ["id"]
        rep = classify(builtin_algebra("S", Q(0)), EVEN, (3, 3), windows)
        assert rep.total_dim == 3
        assert [(d.r, d.s) for d in rep.degrees] == [(0, 0)]
        assert rep.degrees[0].matched_names == ["id", "alpha", "beta"]


def test_criterion_4_super_odd_classification():
    with criterion(4, "Delta1(S(q)): 0 off 2Z, <gamma> on 2Z*, <gamma,delta,epsilon> at 0"):
        windows = [Window(4, 7), Window(5, 8)]
        for q in (Q(1), Q(3), Q(-1)):
            rep = classify(builtin_algebra("S", q), ODD, (3, 3), windows)
            assert rep.total_dim == 0, (q, rep.total_dim)
        for q in (Q(2), Q(-4)):
            rep = classify(builtin_algebra("S", q), ODD, (3, 3), windows)
            assert rep.total_dim == 1, (q, rep.total_dim)
            d = rep.degrees[0]
            assert (d.r, d.s) == (0, int(q) // 2)
            assert d.matched_names == ["gamma"]
        rep = classify(builtin_algebra("S", Q(0)), ODD, (3, 3), windows)
        assert rep.total_dim == 3
        assert [(d.r, d.s) for d in rep.degrees] == [(0, 0)]
        assert rep.degrees[0].matched_names == ["gamma", "delta", "epsilon"]


MEMBERSHIP_LADDER = [Window(3, 3), Window(4, 6), Window(5, 8)]


def test_criterion_5_named_map_membership():
    with criterion(5, "named maps verify at their q and fail transplanted"):
        cases = ([("B", Q(k), "alpha") for k in (1, 2, -2)]
                 + [("S", Q(0), name) for name in ("beta", "delta", "epsilon")]
                 + [("S", Q(k), "gamma") for k in (2, -4)])
        for algname, q, mapname in cases:
            alg = builtin_algebra(algname, q)
            for w in MEMBERSHIP_LADDER:
                gm = builtin_map(mapname, alg, w)
                rep = check_map(alg, gm, w)
                assert rep.passed, (algname, q, mapname, str(w))
        with pytest.raises(IntegralityViolation):
            builtin_map("alpha", builtin_algebra("B", Q(1, 2)), Window(3, 3))
        with pytest.raises(IntegralityViolation):
            builtin_map("gamma", builtin_algebra("S", Q(1)), Window(3, 3))
        for name in ("beta", "delta", "epsilon"):
            with pytest.raises(WrongQ):
                builtin_map(name, builtin_algebra("S", Q(2)), Window(3, 3))
        # tables moved to a wrong q stop verifying
        donor = builtin_map("alpha", builtin_algebra("B", Q(1)), Window(4, 6))
        assert not check_map(builtin_algebra("B", Q(2)), donor, Window(4, 6)).passed
        donor = builtin_map("gamma", builtin_algebra("S", Q(2)), Window(4, 6))
        assert not check_map(builtin_algebra("S", Q(-4)), donor, Window(4, 6)).passed


def test_criterion_6_tp_axiom_suites(tmp_path):
    with criterion(6, "TP suites pass for the built-ins; derived mutations fail"):
        runs = (("trivial", "B", Q(1)), ("block_thalg", "B", Q(2)),
                ("super_full", "S", Q(0)), ("super_even", "S", Q(0)))
        for structure, algname, q in runs:
            assert run_cli("verify-tp", "--structure", structure,
                           "--algebra", algname, "--q", str(q),
                           "--window", "4x6") == 0, structure
        # glavlem: left multiplications lie in the stabilized null spaces
        q = Q(2)
        alg = builtin_algebra("B", q)
        prod = builtin_tp("block_thalg", q)
        lm = left_mult_map(prod, L(0, -4), Window(4, 6))
        st = stabilize(half_derivation_system(alg, lm.degree), BLOCK_WINDOWS)
        assert st.basis.contains(lm.table)
        alg0 = builtin_algebra("S", Q(0))
        for structure in ("super_full", "super_even"):
            prod0 = builtin_tp(structure, Q(0))
            for z in prod0.factor_indices():
                lm = left_mult_map(prod0, z, Window(3, 3))
                st = stabilize(half_derivation_system(alg0, lm.degree),
                               [Window(3, 3), Window(4, 4)])
                assert st.basis.contains(lm.table), (structure, z)
        # mutation with a non-central image fails the Leibniz law
        mutated = {"super": False,
                   "entries": [{"x": ["even", 0, -2], "y": ["even", 0, -2],
                                "value": [["even", 1, 0, "1"]]}]}
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(mutated))
        out = tmp_path / "rep.json"
        assert main(["verify-tp", "--json", str(path), "--algebra", "B",
                     "--q", "1", "--window", "4x6", "--out", str(out),
                     "--quiet"]) == 1
        rep = json.loads(out.read_text())
        assert rep["transposed_leibniz"]["violations"][0]["indices"]
        # mutation with c2 = 2, c1 = 1 fails associativity
        prod = ProductTable(is_super=True, q=Q(0))
        prod.put(L(0, 0), L(0, 0), _unit_vec(L(0, 0)))
        prod.put(L(0, 0), G(0, 0), _unit_vec(G(0, 0)).scale(Q(2)))
        rep2 = verify_associative(prod, Window(3, 3))
        assert not rep2.passed and rep2.violations


def test_criterion_7_centrality_annihilator():
    with criterion(7, "centrality and annihilator invariants hold exhaustively on 5x7"):
        w = Window(5, 7)
        for q in (Q(1), Q(2)):
            alg = builtin_algebra("B", q)
            center = L(0, int(-q))
            ann_index = (0, int(-2 * q))
            for m, i in w.points():
                assert bracket_basis(alg, L(m, i), center).is_zero
                n, j = -m, ann_index[1] - i
                assert bracket_basis(alg, L(m, i), L(n, j)).is_zero


def test_criterion_8_hom_lie(tmp_path):
    with criterion(8, "Hom-Lie twists verify (id, alpha, id+alpha, gamma); shift fails"):
        for expr in ("id", "alpha", "id + alpha"):
            assert run_cli("hom-check", "--algebra", "B", "--q", "2",
                           "--map", expr, "--window", "4x6") == 0, expr
        assert run_cli("hom-check", "--algebra", "S", "--q", "2",
                       "--map", "gamma", "--window", "3x5") == 0
        out = tmp_path / "rep.json"
        assert main(["hom-check", "--algebra", "B", "--q", "2", "--map", "shift",
                     "--window", "3x3", "--out", str(out), "--quiet"]) == 1
        rep = json.loads(out.read_text())
        assert rep["violations"] and len(rep["violations"][0]["indices"]) == 3


def test_criterion_9_specialization_consistency():
    # imported here: perfbench loads this module by path, without tests/ on sys.path
    from oracles import provenances, scalar_rows
    with criterion(9, "generic constraint matrices specialize to the fixed ones"):
        rng = random.Random(2024)
        degrees = []
        while len(degrees) < 20:
            deg = MapDegree(rng.choice((EVEN, ODD)),
                            rng.randint(-3, 3), rng.randint(-3, 3))
            if deg not in degrees:
                degrees.append(deg)
        gen = builtin_algebra("S", None)
        w = Window(2, 2)
        for deg in degrees:
            cs_gen = build_constraints(gen, deg, w)
            gen_rows = dict(zip(provenances(cs_gen), scalar_rows(cs_gen)))
            for q0 in (Q(0), Q(1), Q(2), Q(5)):
                cs_fix = build_constraints(builtin_algebra("S", q0), deg, w)
                fixed_rows = dict(zip(provenances(cs_fix), scalar_rows(cs_fix)))
                assert set(fixed_rows) <= set(gen_rows)
                for prov, row in gen_rows.items():
                    spec = {u: specialize_q(v, q0) for u, v in row.items()}
                    spec = {u: v for u, v in spec.items() if v}
                    if spec:
                        assert spec == fixed_rows[prov], (deg, q0, prov)
                    else:
                        assert prov not in fixed_rows


def test_criterion_10_parser_oracle():
    with criterion(10, "parsed .alg brackets match the built-ins; specs round-trip"):
        for name in ("B", "S"):
            sf = parse_spec(shipped_alg_text(name))
            assert parse_spec(print_spec(sf)) == sf
            for q in (None, Q(2)):
                parsed = make_algebra(sf, q)
                built = builtin_algebra(name, q)
                basis = Window(3, 3).basis(built.parities)
                for x in basis:
                    for y in basis:
                        assert bracket_basis(parsed, x, y) == \
                            bracket_basis(built, x, y)
