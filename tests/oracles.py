"""Test oracles: every case enumerated, and exact values by a route other
than the compiled layer.  `blockq` itself never runs them."""

from fractions import Fraction
from itertools import product

from blockq.algebra import _antisymmetry, _jacobi, check_identity
from blockq.errors import BlockqError
from blockq.halfder import (MapDegree, _rref_vectors, combo_apply, half_derivation_system,
                            null_space, stabilize)
from blockq.homlie import _as_combo, _cyclic_sums, _witness
from blockq.scalars import RatFunc
from blockq.specdsl import Add, Lit, Mul, Neg, Sub, Var
from blockq.tpverify import _leibniz


def antisymmetry_by_enumeration(alg, w):
    """Evaluate antisymmetry on every unordered basis pair in w."""
    return _antisymmetry(alg, w, False)


def jacobi_by_enumeration(alg, w):
    """Evaluate the graded Jacobi identity on every basis triple in w."""
    return _jacobi(alg, w, None)


def transposed_leibniz_by_enumeration(alg, prod, w):
    """Transposed Leibniz evaluated on every pair (x, y) for each active z."""
    return _leibniz(alg, prod, w, True)


def hom_jacobi_by_enumeration(alg, maps, w):
    """Both Hom-Lie identities for the whole combination on every basis triple in w."""
    terms = _as_combo(maps, alg)
    comp = alg.compiled()
    basis = w.basis(alg.parities)
    standard, literal = _cyclic_sums(
        comp, comp.raw_vectors({b: combo_apply(terms, b) for b in basis}))
    report = check_identity(product(basis, repeat=3), standard, _witness(alg, terms),
                            len(basis) ** 3)
    report.notes["conventions"] = {
        "standard": report.passed,
        "literal": not any(literal(*t) for t in product(basis, repeat=3))}
    return report


def provenances(cs):
    """The generating pair (x, y) of each row of a constraint system."""
    return [(x, y) for _e, x, y in cs.rows]


def scalar_rows(cs):
    """Each row of a constraint system with its true field values, by unknown."""
    lift = cs.algebra.lift
    return [{cs.unknowns[u]: lift(v) for u, v in entries} for entries, _x, _y in cs.rows]


def intersect_by_zassenhaus(U, V):
    """Reduced echelon basis of span(U) & span(V), by the Zassenhaus algorithm.

    Echelon the rows (u | u), u in U, and (v | 0), v in V, with halves keyed
    (0, idx) and (1, idx): the rows pivoting in the right half span U & V.
    """
    rows = [{(h, k): c for h in (0, 1) for k, c in u.items()} for u in U]
    rows += [{(0, k): c for k, c in v.items()} for v in V]
    return [{k: c for (_half, k), c in row.items()}
            for row in _rref_vectors(rows) if min(row)[0] == 1]


def stabilized_by_full_kernels(systems):
    """The first system's kernel intersected with the full kernel of each
    later system, restricted to the first system's unknowns; nothing seeded."""
    labels0 = set(systems[0].unknowns)
    current = null_space(systems[0]).vectors
    for cs in systems[1:]:
        current = intersect_by_zassenhaus(
            current, [{k: v for k, v in vec.items() if k in labels0}
                      for vec in null_space(cs).vectors])
    return current


def classified_degree_by_degree(alg, shift, bounds, windows):
    """`classify`'s degrees and warnings with every degree solved by
    `stabilize`, none mirrored: (r, s, basis vectors) per nonzero degree."""
    degrees, warnings = [], []
    for r in range(-bounds[0], bounds[0] + 1):
        for s in range(-bounds[1], bounds[1] + 1):
            st = stabilize(half_derivation_system(alg, MapDegree(shift, r, s)), windows)
            if st.stable_dim:
                degrees.append((r, s, st.basis.vectors))
            if st.warning:
                warnings.append(f"degree ({r},{s}) did not stabilize: "
                                f"intersection dims {st.intersection_dims}")
    return degrees, warnings


class UnboundVariable(BlockqError):
    """Expression evaluation met a variable with no binding."""


def eval_expr(e, bindings, generic=True):
    """Exact value of a parsed expression; an unbound q stays formal in
    generic mode, and int or Fraction bindings are lifted into the field."""
    def run(node):
        if isinstance(node, Lit):
            return RatFunc.const(node.value) if generic else Fraction(node.value)
        if isinstance(node, Var):
            if node.name in bindings:
                val = bindings[node.name]
                if isinstance(val, (int, Fraction)) and generic:
                    return RatFunc.const(val)
                return val
            if node.name == "q" and generic:
                return RatFunc.q()
            raise UnboundVariable(f"variable {node.name!r} has no binding")
        if isinstance(node, Neg):
            return -run(node.arg)
        if isinstance(node, Add):
            return run(node.left) + run(node.right)
        if isinstance(node, Sub):
            return run(node.left) - run(node.right)
        if isinstance(node, Mul):
            return run(node.left) * run(node.right)
        raise TypeError(f"not an expression node: {node!r}")

    return run(e)
