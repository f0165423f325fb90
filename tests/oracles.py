"""Test oracles: every case enumerated, and exact values by a route other
than the compiled layer.  `blockq` itself never runs them.

The scalar builders (`antisymmetry_sides`, `jacobi_sides`,
`half_derivation_sides`, `hom_cyclic_sum`, `hom_witness`, `apply_basis`) rebuild a witness's sides
from the exact brackets (`bracket_basis`, `bracket_vec`); they are the
reference for the witness strings, which the suites lift from their
residuals' compiled values.  The enumerations (`*_by_enumeration`) walk
every case through `check_identity` with the suites' compiled residuals, no
proof and no orbit count, and take their witnesses from the scalar
builders, so a report compared with one also has its witnesses checked.
`rows_by_rule_calls` builds half-derivation rows from three rule calls per
pair, the reference of the row kernels `halfder._rows` calls.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from blockq.algebra import (BasisIndex, SparseVector, _antisymmetry_residual, _jacobi_residual,
                            bracket_basis, bracket_coeff, bracket_vec, check_identity)
from blockq.errors import BlockqError
from blockq.halfder import (MapDegree, _rref_vectors, combo_apply, half_derivation_system,
                            null_space, stabilize)
from blockq.homlie import _as_combo, _cyclic_sums
from blockq.scalars import RatFunc, from_fraction, scalar_one
from blockq.specdsl import Add, Lit, Mul, Neg, Sub, Var
from blockq.tpverify import _leibniz_terms


def antisymmetry_by_enumeration(alg, w):
    """Evaluate antisymmetry on every unordered basis pair in w, witnesses
    from `antisymmetry_sides`."""
    basis = w.basis(alg.parities)
    residual = _antisymmetry_residual(alg.compiled())
    return check_identity(combinations_with_replacement(basis, 2),
                          lambda *pair: residual(*pair) and pair,
                          lambda pair: antisymmetry_sides(alg, *pair),
                          len(basis) * (len(basis) + 1) // 2)


def jacobi_by_enumeration(alg, w):
    """Evaluate the graded Jacobi identity on every basis triple in w,
    witnesses from `jacobi_sides`."""
    basis = w.basis(alg.parities)
    residual = _jacobi_residual(alg.compiled())
    return check_identity(product(basis, repeat=3), lambda *t: residual(*t) and t,
                          lambda t: jacobi_sides(alg, *t), len(basis) ** 3)


def transposed_leibniz_by_enumeration(alg, prod, w):
    """Transposed Leibniz evaluated on every pair (x, y) for each active z,
    witnesses from `half_derivation_sides` of the left multiplication."""
    basis = w.basis(alg.parities)
    partners, residual, _witness = _leibniz_terms(alg, prod)
    return check_identity(
        ((z, x, y) for z in basis if z in partners for x, y in product(basis, repeat=2)),
        lambda *t: residual(*t) and t,
        lambda t: half_derivation_sides(alg, lambda u: prod.product(t[0], u), t[0].parity,
                                        *t[1:]),
        len(basis) ** 3)


def hom_jacobi_by_enumeration(alg, maps, w):
    """Both Hom-Lie identities for the whole combination on every basis triple in w."""
    terms = _as_combo(maps, alg)
    comp = alg.compiled()
    basis = w.basis(alg.parities)
    standard, literal = _cyclic_sums(
        comp, comp.raw_vectors({b: combo_apply(terms, b) for b in basis})[0])
    witness = hom_witness(alg, terms)
    report = check_identity(product(basis, repeat=3), lambda *t: standard(*t) and t,
                            lambda t: witness(*t), len(basis) ** 3)
    report.notes["conventions"] = {
        "standard": report.passed,
        "literal": not any(literal(*t) for t in product(basis, repeat=3))}
    return report


def antisymmetry_sides(alg, x, y):
    """[x,y] and -(-1)^{|x||y|}[y,x] on the scalar layer."""
    sign = from_fraction(1 if x.parity & y.parity else -1, alg.q)
    return bracket_basis(alg, x, y), bracket_basis(alg, y, x).scale(sign)


def jacobi_sides(alg, x, y, z):
    """[x,[y,z]] and [[x,y],z] + (-1)^{|x||y|}[y,[x,z]] on the scalar layer."""
    one = scalar_one(alg.q)
    bx, by, bz = (SparseVector.basis(b, one) for b in (x, y, z))
    lhs = bracket_vec(alg, bx, bracket_vec(alg, by, bz))
    rhs = bracket_vec(alg, bracket_vec(alg, bx, by), bz)
    t2 = bracket_vec(alg, by, bracket_vec(alg, bx, bz))
    return lhs, rhs - t2 if x.parity and y.parity else rhs + t2


def apply_basis(gm, x):
    """A graded map's image of one basis element, as a sparse vector."""
    c = gm.table.get(x)
    return SparseVector.basis(gm.image_index(x), c) if c else SparseVector()


def half_derivation_sides(alg, phi, odd, x, y):
    """2 phi([x,y]) and [phi(x),y] + (-1)^{odd |x|}[x,phi(y)] on the scalar
    layer, phi given on basis elements with parity `odd`: a graded map's
    `apply_basis`, or a left multiplication z.u with odd = |z|."""
    one = scalar_one(alg.q)
    lhs = phi(x.plus(y)).scale(from_fraction(2, alg.q) * bracket_coeff(alg, x, y))
    tx = bracket_vec(alg, phi(x), SparseVector.basis(y, one))
    ty = bracket_vec(alg, SparseVector.basis(x, one), phi(y))
    return lhs, tx - ty if odd and x.parity else tx + ty


def hom_cyclic_sum(alg, terms, x, y, z):
    """The standard cyclic sum of a twist combination on the scalar layer."""
    one = scalar_one(alg.q)
    total = SparseVector()
    for a, b, c, negate in ((x, y, z, x.parity and z.parity), (y, z, x, y.parity and x.parity),
                            (z, x, y, z.parity and y.parity)):
        inner = bracket_vec(alg, SparseVector.basis(b, one), SparseVector.basis(c, one))
        part = bracket_vec(alg, combo_apply(terms, a), inner)
        total = total - part if negate else total + part
    return total


def hom_witness(alg, terms):
    """The scalar (lhs, rhs) of a failing Hom-Lie triple."""
    return lambda x, y, z: (hom_cyclic_sum(alg, terms, x, y, z), "0")


def provenances(cs):
    """The generating pair (x, y) of each row of a constraint system."""
    return [(x, y) for _e, x, y in cs.rows]


def scalar_rows(cs):
    """Each row of a constraint system with its true field values, by unknown."""
    lift = cs.algebra.lift
    return [{cs.unknowns[u]: lift(v) for u, v in entries} for entries, _x, _y in cs.rows]


def rows_by_rule_calls(alg, deg, w, pairs):
    """The reference of `halfder._rows`: each pair's row from three calls of
    the compiled rules (`CompiledAlgebra.pair`) and one dict that merges the
    entries of coincident unknowns, as (entries, pair); zero rows are
    skipped.  Unknown k is w.basis(alg.parities)[k]."""
    comp = alg.compiled()
    index = {x: u for u, x in enumerate(w.basis(alg.parities))}
    shift, r, s = deg.parity_shift, deg.r, deg.s
    for pair in pairs:
        p1, p2, m1, i1, m2, i2 = pair
        c_out = comp.pair[(p1, p2)](m1, i1, m2, i2)
        c_x = comp.pair[(p1 ^ shift, p2)](m1 + r, i1 + s, m2, i2)
        c_y = comp.pair[(p1, p2 ^ shift)](m1, i1, m2 + r, i2 + s)
        u_x, u_y = index[BasisIndex(p1, m1, i1)], index[BasisIndex(p2, m2, i2)]
        u_out = index[BasisIndex(p1 ^ p2, m1 + m2, i1 + i2)]
        d = {}
        if c_out:
            d[u_out] = c_out + c_out
        if c_x:
            d[u_x] = d[u_x] - c_x if u_x in d else -c_x
        if c_y:
            t = c_y if shift and p1 else -c_y
            d[u_y] = d[u_y] + t if u_y in d else t
        entries = tuple((u, v) for u, v in d.items() if v)
        if entries:
            yield entries, pair


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
