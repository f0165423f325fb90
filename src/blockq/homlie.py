"""Hom-Lie twisted Jacobi verification.

For a twisting map phi (a graded map, or a linear combination of them) the
standard cyclic identity

    [phi(x),[y,z]] + [phi(y),[z,x]] + [phi(z),[x,y]] = 0

is checked on every basis triple of the window; in the super case the
cyclic terms carry the weights (-1)^{|x||z|}, (-1)^{|y||x|}, (-1)^{|z||y|}.
A second convention with middle term [phi(y),[z,y]] circulates in places;
the report records which of the two each input satisfies, while pass/fail
follows the standard form.

The standard identity is linear in phi, so a combination passes when each
of its terms does, and each term is first proved on its own with less work:

* a dense term, whose table is constant on each parity over the window
  basis (`id`, `epsilon`, `shift`), agrees on the window with a map defined
  on all of Z x Z.  Its standard residual is then a polynomial in the
  indices, of the degree a Jacobi residual has, so it is proved on the
  certifying grid (`algebra.certifying_grid`), over the triples
  `algebra.triple_orbits` takes for a cyclic residual, when the window
  contains that grid;
* any other term (or one that is zero on the window) is sparse.  Its
  standard sum is unchanged by rotating (x, y, z) and vanishes unless x, y
  or z lies in its support, so only the window triples with x in the
  support are evaluated.

When every term is proved the report passes with `checked` counting every
triple of the window.  Otherwise the combination is checked over the window
as a whole, and that check alone decides the report.  Where the bracket is
graded antisymmetric, swapping two arguments changes the standard sum only
by a sign, since each inner bracket does.  So:

* a witness walk evaluates it in window order and stops once the report
  keeps its 100 witnesses.  Each witness is the nonzero standard sum the
  walk evaluated, lifted past the twist's clearing factor and two scales
  (`hom_cyclic_sum`), so nothing is evaluated twice;
* the total is then counted by `algebra.triple_orbits` for a cyclic
  residual: one evaluation per multiset {x, y, z}, weighted by its size
  (6, 3 or 1), when the compiled algebra is antisymmetric, and otherwise one
  per rotation orbit, weighted by its size (3, or 1 when x = y = z).

The literal flag is one search in window order that stops at the first
nonzero literal sum.  The literal sum differs from the standard one only in
its third term, [phi(y),[z,y]] against [phi(y),[z,x]], so where the report
passes it can be nonzero only at triples with y in the combination's
support, and only those are searched; otherwise every window triple is.
"""

from __future__ import annotations

from itertools import product

from .algebra import (AlgebraSpec, BasisIndex, CompiledAlgebra, SparseVector,
                      VerificationReport, Window, certifying_grid,
                      check_identity, triple_orbits, vanishes_on_triples)
from .halfder import GradedMap, MapCombo, combo_apply
from .scalars import Scalar, scalar_one


def _as_combo(maps: GradedMap | MapCombo, alg: AlgebraSpec) -> MapCombo:
    if isinstance(maps, GradedMap):
        return [(scalar_one(alg.q), maps)]
    return list(maps)


def hom_cyclic_sum(comp: CompiledAlgebra, standard: dict, factor: Scalar) -> SparseVector:
    """The witness of a failing triple, which perfbench's trace times by this
    name: the raw standard sum `_cyclic_sums` returned, two structure
    constants and an image cleared by `factor` per value, lifted."""
    return comp.lift_sides(({BasisIndex(*k): v for k, v in standard.items()},), 2, factor)[0]


def _cyclic_sums(comp: CompiledAlgebra, phi: dict):
    """(standard, literal): the two cyclic sums at (x, y, z) on the compiled
    layer, each a dict from output index to a nonzero raw value."""
    pair = comp.pair

    def add_term(acc: dict, negate: int, a: BasisIndex, b: BasisIndex,
                 c: BasisIndex) -> None:
        """acc += [phi(a), [b,c]] per output index, or -= when negate is
        nonzero, dropping the indices whose value cancels."""
        imgs = phi.get(a)
        if not imgs:
            return
        c_in = pair[(b.parity, c.parity)](b.m, b.i, c.m, c.i)
        if not c_in:
            return
        if negate:
            c_in = -c_in
        pin = (b.parity + c.parity) & 1
        min_, iin = b.m + c.m, b.i + c.i
        for tgt, wcoef in imgs:
            c_out = pair[(tgt.parity, pin)](tgt.m, tgt.i, min_, iin)
            if not c_out:
                continue
            key = ((tgt.parity + pin) & 1, tgt.m + min_, tgt.i + iin)
            val = wcoef * c_in * c_out
            cur = acc.get(key)
            if cur is None:  # val, a product of nonzero values, is nonzero
                acc[key] = val
            elif tot := cur + val:
                acc[key] = tot
            else:
                del acc[key]

    def cyclic_sum(literal: bool):
        """The sum whose third term is [phi(y),[z,y]] if literal, else [phi(y),[z,x]]."""
        def total(x: BasisIndex, y: BasisIndex, z: BasisIndex) -> dict:
            acc: dict = {}
            add_term(acc, x.parity and z.parity, x, y, z)
            add_term(acc, z.parity and y.parity, z, x, y)
            add_term(acc, y.parity and x.parity, y, z, y if literal else x)
            return acc
        return total

    return cyclic_sum(False), cyclic_sum(True)


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


def _proved_terms(comp: CompiledAlgebra, terms: MapCombo, basis: list[BasisIndex],
                  grid_basis: list[BasisIndex] | None) -> bool:
    """Whether every term is proved for the standard identity on its own:
    a dense one on the grid, a sparse one on the triples with x in its
    support, which meet every rotation orbit it can be nonzero on."""
    for term in terms:
        phi, _ = comp.raw_vectors({b: combo_apply([term], b) for b in basis})
        standard, _ = _cyclic_sums(comp, phi)
        if not phi or not _is_dense(term[1], basis):
            if any(standard(*t) for t in _with_support_at(basis, phi, 0)):
                return False
        elif grid_basis is None or not vanishes_on_triples(comp, standard, grid_basis,
                                                           cyclic=True):
            return False
    return True


def hom_jacobi_check(alg: AlgebraSpec, maps: GradedMap | MapCombo,
                     w: Window) -> VerificationReport:
    """The twisted cyclic Jacobi identity on all basis triples in w."""
    terms = _as_combo(maps, alg)
    comp = alg.compiled()
    basis = w.basis(alg.parities)
    grid = certifying_grid(alg, 2)
    proved = _proved_terms(comp, terms, basis,
                           grid.basis(alg.parities) if grid <= w else None)
    phi, factor = comp.raw_vectors({b: combo_apply(terms, b) for b in basis})
    standard, literal_sum = _cyclic_sums(comp, phi)
    report = check_identity(product(basis, repeat=3), standard,
                            lambda found: (hom_cyclic_sum(comp, found, factor), "0"),
                            len(basis) ** 3, proved,
                            None if proved else triple_orbits(comp, basis, cyclic=True))
    candidates = (_with_support_at(basis, phi, 1) if report.passed
                  else product(basis, repeat=3))
    report.notes["conventions"] = {"standard": report.passed,
                                   "literal": not any(literal_sum(*t) for t in candidates)}
    return report
