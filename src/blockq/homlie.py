"""Hom-Lie twisted Jacobi verification.

For a twisting map phi (a graded map, or a linear combination of them) the
standard cyclic identity

    [phi(x),[y,z]] + [phi(y),[z,x]] + [phi(z),[x,y]] = 0

is evaluated on every basis triple of the window; in the super case the
cyclic terms carry the weights (-1)^{|x||z|}, (-1)^{|y||x|}, (-1)^{|z||y|}.
A second convention with middle term [phi(y),[z,y]] circulates in places;
the report records which of the two each input satisfies, while pass/fail
follows the standard form.
"""

from __future__ import annotations

from .algebra import (AlgebraSpec, BasisIndex, SparseVector, VerificationReport,
                      Window, _ViolationLog, bracket_vec)
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


def hom_jacobi_check(alg: AlgebraSpec, maps: GradedMap | MapCombo,
                     w: Window) -> VerificationReport:
    """Evaluate the twisted cyclic Jacobi identity on all basis triples in w."""
    terms = _as_combo(maps, alg)
    comp = alg.compiled()
    pair = comp.pair
    vmul, vadd, vneg, vis_zero = comp.vmul, comp.vadd, comp.vneg, comp.vis_zero

    basis = w.basis(alg.parities)
    # phi images per source: list of (target index, raw weight).  The identity
    # is linear in phi, so the common factor `raw` scales by never changes
    # which triples vanish.
    weights = comp.raw({(b, tgt): c for b in basis
                        for tgt, c in combo_apply(terms, b).entries.items()})
    phi: dict[BasisIndex, list[tuple[BasisIndex, object]]] = {}
    for (b, tgt), wcoef in weights.items():
        phi.setdefault(b, []).append((tgt, wcoef))

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

    log_std = _ViolationLog()
    lit_violations = 0
    checked = 0
    for x in basis:
        for y in basis:
            for z in basis:
                checked += 1
                w1 = -1 if (x.parity and z.parity) else 1
                w2 = -1 if (y.parity and x.parity) else 1
                w3 = -1 if (z.parity and y.parity) else 1
                t1 = term_value(x, y, z)
                t3 = term_value(z, x, y)
                acc_std: dict = {}
                accumulate(acc_std, t1, w1)
                accumulate(acc_std, term_value(y, z, x), w2)
                accumulate(acc_std, t3, w3)
                acc_lit: dict = {}
                accumulate(acc_lit, t1, w1)
                accumulate(acc_lit, term_value(y, z, y), w2)
                accumulate(acc_lit, t3, w3)
                if acc_std:
                    log_std.record((x, y, z),
                                   lambda: (hom_cyclic_sum(alg, terms, x, y, z), "0"))
                if acc_lit:
                    lit_violations += 1
    report = log_std.report(checked)
    report.notes["conventions"] = {"standard": log_std.total == 0,
                                   "literal": lit_violations == 0}
    return report
