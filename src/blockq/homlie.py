"""Hom-Lie twisted Jacobi verification.

For a twisting map phi (a graded map, or a linear combination of them) the
standard cyclic identity

    [phi(x),[y,z]] + [phi(y),[z,x]] + [phi(z),[x,y]] = 0

is checked on every basis triple of the window; in the super case the
cyclic terms carry the weights (-1)^{|x||z|}, (-1)^{|y||x|}, (-1)^{|z||y|}.
A second convention with middle term [phi(y),[z,y]] circulates in places;
the report records which of the two each input satisfies, while pass/fail
follows the standard form.

Both identities are linear in phi, so a combination passes when each of its
terms does, and each term is first proved on its own with less work:

* a dense term, whose table is constant on each parity over the window
  basis (`id`, `epsilon`, `shift`), agrees on the window with a map defined
  on all of Z x Z.  Its standard residual is then a polynomial in the
  indices, of the degree a Jacobi residual has, so it is proved on the
  certifying grid (`algebra.certifying_grid`) when the window contains that
  grid.  The literal middle term [phi(y),[z,y]] puts y in both slots of one
  bracket, which that degree bound does not cover, so a dense term never
  proves the literal form;
* any other term (or one that is zero on the window) is sparse.  Its
  residuals vanish unless x, y or z lies in its support, so only window
  triples touching the support are evaluated, in window order: those with
  x in the support for the standard identity (which is invariant under
  rotating the triple), then those with y in the support for the literal
  one.

When every term is proved for the standard identity the report passes with
`checked` counting every triple of the window.  The literal flag is true
when every term is proved for it too; otherwise the combined literal residual
is evaluated on the grid triples, then on the whole window, until one is
nonzero.  When a term is not proved, the combination is enumerated over the
window as a whole (`hom_jacobi_by_enumeration`, also the oracle in tests),
and that enumeration alone decides the report.
"""

from __future__ import annotations

from itertools import chain, product

from .algebra import (AlgebraSpec, BasisIndex, CompiledAlgebra, SparseVector,
                      VerificationReport, Window, _ViolationLog, bracket_vec,
                      certifying_grid, check_identity)
from .halfder import GradedMap, MapCombo, combo_apply
from .scalars import scalar_one


def _as_combo(maps: GradedMap | MapCombo, alg: AlgebraSpec) -> MapCombo:
    if isinstance(maps, GradedMap):
        return [(scalar_one(alg.q), maps)]
    return list(maps)


def hom_cyclic_sum(alg: AlgebraSpec, terms: MapCombo, x: BasisIndex,
                   y: BasisIndex, z: BasisIndex) -> SparseVector:
    """Scalar-layer standard cyclic sum, the witness for a violated triple."""
    one = scalar_one(alg.q)

    def wrap(a, b, c):
        phi_a = combo_apply(terms, a)
        inner = bracket_vec(alg, SparseVector.basis(b, one), SparseVector.basis(c, one))
        return bracket_vec(alg, phi_a, inner)

    def weight(a, b):
        return -1 if (a.parity and b.parity) else 1

    total = SparseVector()
    parts = [(wrap(x, y, z), weight(x, z)),
             (wrap(y, z, x), weight(y, x)),
             (wrap(z, x, y), weight(z, y))]
    for vec, sgn in parts:
        for idx, c in vec.entries.items():
            total.add_term(idx, c if sgn > 0 else -c)
    return total


def _cyclic_sums(comp: CompiledAlgebra, phi: dict):
    """sums(x, y, z) -> (standard sum, literal sum) on the compiled layer, as
    dicts from output index to a nonzero raw value."""
    pair = comp.pair
    vmul, vadd, vneg, vis_zero = comp.vmul, comp.vadd, comp.vneg, comp.vis_zero

    def term_value(a: BasisIndex, b: BasisIndex, c: BasisIndex):
        """[phi(a), [b,c]] accumulated per output index, None when zero."""
        imgs = phi.get(a)
        if not imgs:
            return None
        c_in = pair[(b.parity, c.parity)](b.m, b.i, c.m, c.i)
        if vis_zero(c_in):
            return None
        pin = (b.parity + c.parity) & 1
        min_, iin = b.m + c.m, b.i + c.i
        out = {}
        for tgt, wcoef in imgs:
            c_out = pair[(tgt.parity, pin)](tgt.m, tgt.i, min_, iin)
            if vis_zero(c_out):
                continue
            key = ((tgt.parity + pin) & 1, tgt.m + min_, tgt.i + iin)
            val = vmul(wcoef, vmul(c_in, c_out))
            cur = out.get(key)
            tot = val if cur is None else vadd(cur, val)
            if vis_zero(tot):
                out.pop(key, None)
            else:
                out[key] = tot
        return out or None

    def accumulate(acc: dict, vals: dict | None, sgn: int) -> None:
        if not vals:
            return
        for key, v in vals.items():
            v2 = v if sgn > 0 else vneg(v)
            cur = acc.get(key)
            tot = v2 if cur is None else vadd(cur, v2)
            if vis_zero(tot):
                acc.pop(key, None)
            else:
                acc[key] = tot

    def sums(x: BasisIndex, y: BasisIndex, z: BasisIndex):
        w2 = -1 if (y.parity and x.parity) else 1
        outer: dict = {}
        accumulate(outer, term_value(x, y, z), -1 if (x.parity and z.parity) else 1)
        accumulate(outer, term_value(z, x, y), -1 if (z.parity and y.parity) else 1)
        std = dict(outer)
        accumulate(std, term_value(y, z, x), w2)
        accumulate(outer, term_value(y, z, y), w2)
        return std, outer

    return sums


def _is_dense(gm: GradedMap, basis: list[BasisIndex]) -> bool:
    """The table is one constant per parity (maybe zero) on the window basis."""
    values: dict[int, set] = {}
    for b in basis:
        values.setdefault(b.parity, set()).add(gm.table.get(b))
    return all(len(v) == 1 for v in values.values())


def _with_support_at(basis: list[BasisIndex], support, pos: int):
    """The window triples whose member at position pos lies in support, in
    window order."""
    axes = [basis, basis, basis]
    axes[pos] = [b for b in basis if b in support]
    return product(*axes)


def _sparse_proof(sums, basis: list[BasisIndex], support) -> tuple[bool, bool]:
    """(standard proved, literal proved) for a sparse term on the window.

    The standard sum is unchanged by rotating (x, y, z), and every triple it
    can be nonzero on has a rotation with x in the support.  Where it
    vanishes, the literal sum minus it is the weighted
    [phi(y),[z,y]] - [phi(y),[z,x]], nonzero only with y in the support.
    """
    if any(sums(*t)[0] for t in _with_support_at(basis, support, 0)):
        return False, False
    return True, not any(sums(*t)[1] for t in _with_support_at(basis, support, 1))


def _proved_terms(comp: CompiledAlgebra, terms: MapCombo, basis: list[BasisIndex],
                  grid_basis: list[BasisIndex] | None) -> bool | None:
    """None unless every term is proved for the standard identity; then
    whether every term is proved for the literal one too."""
    literal = True
    for term in terms:
        phi = comp.raw_vectors({b: combo_apply([term], b) for b in basis})
        sums = _cyclic_sums(comp, phi)
        if not phi or not _is_dense(term[1], basis):
            std, lit = _sparse_proof(sums, basis, phi)
        elif grid_basis is not None:
            std = not any(sums(*t)[0] for t in product(grid_basis, repeat=3))
            lit = False
        else:
            return None
        if not std:
            return None
        literal = literal and lit
    return literal


def hom_jacobi_check(alg: AlgebraSpec, maps: GradedMap | MapCombo,
                     w: Window) -> VerificationReport:
    """The twisted cyclic Jacobi identity on all basis triples in w."""
    terms = _as_combo(maps, alg)
    comp = alg.compiled()
    basis = w.basis(alg.parities)
    grid = certifying_grid(alg, 2)
    grid_basis = grid.basis(alg.parities) if grid <= w else None
    literal = _proved_terms(comp, terms, basis, grid_basis)
    if literal is None:
        return hom_jacobi_by_enumeration(alg, terms, w)
    if not literal:
        sums = _cyclic_sums(comp, comp.raw_vectors({b: combo_apply(terms, b) for b in basis}))
        candidates = product(basis, repeat=3)
        if grid_basis is not None:
            candidates = chain(product(grid_basis, repeat=3), candidates)
        literal = not any(sums(*t)[1] for t in candidates)
    report = _ViolationLog().report(len(basis) ** 3)
    report.notes["conventions"] = {"standard": True, "literal": literal}
    return report


def hom_jacobi_by_enumeration(alg: AlgebraSpec, maps: GradedMap | MapCombo,
                              w: Window) -> VerificationReport:
    """Both identities for the whole combination on every basis triple in w."""
    terms = _as_combo(maps, alg)
    comp = alg.compiled()
    basis = w.basis(alg.parities)
    sums = _cyclic_sums(comp, comp.raw_vectors({b: combo_apply(terms, b) for b in basis}))
    literal_violations = 0

    def standard(x: BasisIndex, y: BasisIndex, z: BasisIndex) -> dict:
        nonlocal literal_violations
        std, lit = sums(x, y, z)
        literal_violations += bool(lit)
        return std

    report = check_identity(
        product(basis, repeat=3), standard,
        lambda x, y, z: (hom_cyclic_sum(alg, terms, x, y, z), "0"), len(basis) ** 3)
    report.notes["conventions"] = {"standard": report.passed,
                                   "literal": literal_violations == 0}
    return report
