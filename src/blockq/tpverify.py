"""Finitely supported supercommutative products and the transposed Poisson axiom suite.

A product table stores one value per unordered basis pair; the swapped order
resolves to the same entry with the supercommutativity sign (-1)^{|x||y|}.
The verifiers check, exactly and exhaustively over a window:

* grading and parity additivity of the stored entries (odd squares vanish);
* associativity, enumerated over support-adjacent indices plus the window
  (triples whose pairwise products miss the support are zero on both sides
  identically, so only support-touching triples need evaluation).  It
  involves no bracket, so it compares exact product values;
* the transposed Leibniz law  2 z.[x,y] = [z.x, y] + (-1)^{|x||z|} [x, z.y],
  evaluated for each z with a product partner only on the pairs (x, y)
  where x, y or x+y is one (every other pair has all three terms zero);
* that every left multiplication is a half-(super)derivation.

The Leibniz law says that L_z: u -> z.u is a half-(super)derivation, so its
witnesses are `halfder.half_derivation_sides` of L_z, as in the last check.
Both run through `algebra.check_identity`.  Leibniz evaluates on the
compiled layer, with the product images cleared by one `raw_vectors` call:
the identity is linear in the product, so that common factor keeps every
zero where it was.  The scalar layer builds only kept witnesses and the
associativity residual.  Both reports count in `checked` every triple of
their cube, evaluated or not.  The zero product is admitted and called the
trivial structure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product

from .algebra import (EVEN, MAX_REPORT_VIOLATIONS, ODD, AlgebraSpec, BasisIndex,
                      SparseVector, VerificationReport, Window, _ViolationLog,
                      check_identity, index_from_json)
from .errors import NonHomogeneousMultiplication, ParseError, WrongQ
from .halfder import GradedMap, MapDegree, check_map, half_derivation_sides
from .scalars import Scalar, format_q, from_fraction, parse_scalar, scalar_one

PairKey = tuple[BasisIndex, BasisIndex]


def _swap_sign(x: BasisIndex, y: BasisIndex) -> int:
    return -1 if (x.parity and y.parity) else 1


@dataclass
class ProductTable:
    """Supercommutative product with finite support.

    entries hold each unordered pair once, under the key (x, y) with x <= y;
    `q` records the coefficient mode the values live in (None = generic).
    """

    is_super: bool
    entries: dict[PairKey, SparseVector] = field(default_factory=dict)
    q: Fraction | None = None

    def put(self, x: BasisIndex, y: BasisIndex, value: SparseVector) -> None:
        if (y, x) < (x, y):
            x, y = y, x
            if _swap_sign(x, y) < 0:
                value = value.scale(from_fraction(-1, self.q))
        if not value:
            self.entries.pop((x, y), None)
            return
        cur = self.entries.get((x, y))
        if cur is not None and cur != value:
            raise ValueError(f"conflicting entries for {x}*{y}")
        self.entries[(x, y)] = value

    def product(self, x: BasisIndex, y: BasisIndex) -> SparseVector:
        v = self.entries.get((x, y))
        if v is not None:
            return v
        v = self.entries.get((y, x))
        if v is not None:
            return v.scale(from_fraction(_swap_sign(x, y), self.q))
        return SparseVector()

    def product_vec(self, u: SparseVector, v: SparseVector) -> SparseVector:
        out = SparseVector()
        for kx, cx in u.entries.items():
            for ky, cy in v.entries.items():
                term = self.product(kx, ky).scale(cx * cy)
                for idx, c in term.entries.items():
                    out.add_term(idx, c)
        return out

    def factor_indices(self) -> list[BasisIndex]:
        """Indices occurring as factors of a stored entry."""
        out = set()
        for x, y in self.entries:
            out.add(x)
            out.add(y)
        return sorted(out)

    def support_indices(self) -> list[BasisIndex]:
        """Factor indices together with every image index."""
        out = set(self.factor_indices())
        for v in self.entries.values():
            out.update(v.entries)
        return sorted(out)

    def to_json_dict(self) -> dict:
        return {"super": self.is_super,
                "entries": [{
                    "x": x.json(), "y": y.json(),
                    "value": [[*idx.json(), str(c)]
                              for idx, c in v.items()],
                } for (x, y), v in sorted(self.entries.items())]}

    @classmethod
    def from_json(cls, data: dict, q: Fraction | None) -> "ProductTable":
        """The inverse of to_json_dict; ParseError on a malformed table."""
        if not (isinstance(data, dict) and isinstance(data.get("super"), bool)
                and isinstance(data.get("entries"), list)):
            raise ParseError("a product table is an object with a boolean 'super' "
                             "and a list 'entries'")
        prod = cls(is_super=data["super"], q=q)

        def index(item) -> BasisIndex:
            idx = index_from_json(item)
            if idx.parity == ODD and not prod.is_super:
                raise ParseError(f"odd index {idx} in a product table whose 'super' is false")
            return idx

        for item in data["entries"]:
            if not (isinstance(item, dict) and "x" in item and "y" in item
                    and isinstance(item.get("value"), list)):
                raise ParseError(f"a product entry has 'x', 'y' and a list 'value', got {item!r}")
            x, y = index(item["x"]), index(item["y"])
            vec = SparseVector()
            for term in item["value"]:
                if not (isinstance(term, list) and len(term) == 4 and isinstance(term[3], str)):
                    raise ParseError(f"a value term is [parity, m, i, scalar text], got {term!r}")
                vec.add_term(index(term[:3]), parse_scalar(term[3], q))
            prod.put(x, y, vec)
        return prod


BUILTIN_PRODUCTS = ("trivial", "block_thalg", "super_full", "super_even")


def builtin_tp(name: str, q: Fraction | None, *, is_super: bool = False) -> ProductTable:
    """The products appearing in the classification of TP structures.

    block_thalg (q in Z):  L[0,-2q].L[0,-2q] = L[0,-q] on the Lie algebra;
    super_full (q = 0):    L[0,0]^2 = L[0,0],  L[0,0].G[0,0] = G[0,0];
    super_even (q = 0):    L[0,0]^2 = L[0,0] alone;
    trivial:               the zero product (the baseline answer).
    """
    if name == "trivial":
        return ProductTable(is_super=is_super, q=q)
    if name == "block_thalg":
        if q is None or q.denominator != 1:
            raise WrongQ(f"block_thalg needs q in Z, got {format_q(q)}")
        qi = q.numerator
        prod = ProductTable(is_super=False, q=q)
        src = BasisIndex(EVEN, 0, -2 * qi)
        prod.put(src, src, SparseVector.basis(BasisIndex(EVEN, 0, -qi), scalar_one(q)))
        return prod
    if name in ("super_full", "super_even"):
        if q is None or q != 0:
            raise WrongQ(f"{name} needs q = 0, got {format_q(q)}")
        prod = ProductTable(is_super=True, q=q)
        L = BasisIndex(EVEN, 0, 0)
        one = scalar_one(q)
        prod.put(L, L, SparseVector.basis(L, one))
        if name == "super_full":
            G = BasisIndex(ODD, 0, 0)
            prod.put(L, G, SparseVector.basis(G, one))
        return prod
    raise WrongQ(f"no built-in product named {name!r}")


def verify_supercommutative_grading(prod: ProductTable) -> VerificationReport:
    """Structural invariants: parity additivity, vanishing odd squares, and a
    single homogeneous degree per left multiplication.

    The index grading is *shifted*, not additive: L[0,-2q].L[0,-2q] = L[0,-q]
    lands at (0,-q), so the check is that every left multiplication moves all
    sources by one common (parity, r, s), never that images sit at (m+n, i+j).
    """
    log = _ViolationLog()
    checked = 0
    degrees: dict[BasisIndex, MapDegree] = {}
    for (x, y), v in sorted(prod.entries.items()):
        checked += 1
        if x.parity and x == y and not v.is_zero:
            log.record((x, y), lambda: (v, "0 (odd square)"))
            continue
        want_parity = (x.parity + y.parity) & 1
        if any(idx.parity != want_parity for idx in v.entries):
            log.record((x, y), lambda: (v, f"images of parity {want_parity}"))
            continue
        if len(v.entries) > 1:
            log.record((x, y), lambda: (v, "a single homogeneous image"))
            continue
        img = next(iter(v.entries))
        for z, src in ((x, y), (y, x)):
            deg = MapDegree((img.parity + src.parity) & 1,
                            img.m - src.m, img.i - src.i)
            seen = degrees.get(z)
            if seen is None:
                degrees[z] = deg
            elif seen != deg:
                log.record((z, src), lambda: (f"degree {deg}", f"degree {seen}"))
                break
    return log.report(checked)


def verify_associative(prod: ProductTable, w: Window) -> VerificationReport:
    """(x.y).z = x.(y.z) over support indices plus the window.

    Triples with x.y = 0 and y.z = 0 vanish on both sides, so only triples
    whose middle factor touches a stored pair are evaluated; the count covers
    the full enumerated cube.
    """
    parities = (EVEN, ODD) if prod.is_super else (EVEN,)
    universe = sorted(set(prod.support_indices()) | set(w.basis(parities)))
    pairs = {(x, y) for xy in prod.entries for x, y in (xy, xy[::-1])}
    one = scalar_one(prod.q)

    def sides(x: BasisIndex, y: BasisIndex, z: BasisIndex) -> tuple[SparseVector, SparseVector]:
        return (prod.product_vec(prod.product(x, y), SparseVector.basis(z, one)),
                prod.product_vec(SparseVector.basis(x, one), prod.product(y, z)))

    return check_identity(
        chain(((x, y, z) for x, y in sorted(pairs) for z in universe),
              ((x, y, z) for y, z in sorted(pairs) for x in universe if (x, y) not in pairs)),
        lambda *case: operator.ne(*sides(*case)), sides, len(universe) ** 3)


def _leibniz(alg: AlgebraSpec, prod: ProductTable, w: Window,
             every_pair: bool) -> VerificationReport:
    """Transposed Leibniz for each active z, on every pair (x, y) or on those
    where x, y or x+y is a product partner of z."""
    if alg.is_super != prod.is_super:
        raise WrongQ("algebra and product disagree about the odd part")
    if prod.q is not None and alg.q != prod.q:
        raise WrongQ(f"product was built at q = {prod.q}, algebra runs at {format_q(alg.q)}")
    basis = w.basis(alg.parities)
    partners: dict[BasisIndex, set[BasisIndex]] = {}
    for x, y in prod.entries:
        partners.setdefault(x, set()).add(y)
        partners.setdefault(y, set()).add(x)
    comp = alg.compiled()
    coeff, vmul, vadd, vis_zero = comp.coeff, comp.vmul, comp.vadd, comp.vis_zero
    two, one, minus = comp.raw({k: from_fraction(k, alg.q) for k in (2, 1, -1)}).values()
    get = comp.raw_vectors({(z, u): prod.product(z, u)
                            for z in partners for u in partners[z]}).get

    def residual(z: BasisIndex, x: BasisIndex, y: BasisIndex) -> bool:
        """Whether 2 z.[x,y] - [z.x, y] - (-1)^{|x||z|} [x, z.y] is nonzero."""
        sign = one if x.parity & z.parity else minus
        terms = [(t, vmul(a, vmul(two, coeff(x, y)))) for t, a in get((z, x.plus(y)), ())]
        terms += [(t.plus(y), vmul(a, vmul(minus, coeff(t, y)))) for t, a in get((z, x), ())]
        terms += [(x.plus(t), vmul(a, vmul(sign, coeff(x, t)))) for t, a in get((z, y), ())]
        out: dict = {}
        for key, v in terms:
            out[key] = vadd(out[key], v) if key in out else v
        return not all(map(vis_zero, out.values()))

    return check_identity(
        ((z, x, y) for z in basis if z in partners for x, y in product(basis, repeat=2)
         if every_pair or not partners[z].isdisjoint((x, y, x.plus(y)))),
        residual, lambda z, x, y: half_derivation_sides(
            alg, lambda u: prod.product(z, u), z.parity, x, y), len(basis) ** 3)


def verify_transposed_leibniz(alg: AlgebraSpec, prod: ProductTable,
                              w: Window) -> VerificationReport:
    """2 z.[x,y] = [z.x, y] + (-1)^{|x||z|} [x, z.y] on all window triples (z,x,y).

    Every term vanishes unless z has a product partner among x, y and the
    index x+y of [x,y].  So only active z (a nonempty left-multiplication
    column) and, for each, only the pairs touching its partners are
    evaluated, in window order; `checked` counts every window triple.
    """
    return _leibniz(alg, prod, w, False)


def left_mult_map(prod: ProductTable, z: BasisIndex, w: Window) -> GradedMap:
    """Left multiplication by z as a graded map over the window sources."""
    parities = (EVEN, ODD) if prod.is_super else (EVEN,)
    table: dict[BasisIndex, Scalar] = {}
    degree: MapDegree | None = None
    for b in w.basis(parities):
        v = prod.product(z, b)
        if v.is_zero:
            continue
        if len(v.entries) > 1:
            raise NonHomogeneousMultiplication(
                f"{z}*{b} has {len(v.entries)} terms")
        (img, c), = v.entries.items()
        deg = MapDegree((img.parity + b.parity) & 1, img.m - b.m, img.i - b.i)
        if degree is None:
            degree = deg
        elif degree != deg:
            raise NonHomogeneousMultiplication(
                f"left multiplication by {z} spans degrees {degree} and {deg}")
        table[b] = c
    if degree is None:
        degree = MapDegree(z.parity, 0, 0)
    return GradedMap(degree, table)


def verify_left_multiplications(alg: AlgebraSpec, prod: ProductTable,
                                w: Window) -> tuple[VerificationReport, list[dict]]:
    """check_map for every left multiplication with support; per-z summaries.
    One that is not homogeneous on the window fails, with no degree."""
    details = []
    checked = 0
    violations: list[dict] = []
    total = 0
    for z in prod.factor_indices():
        try:
            lm = left_mult_map(prod, z, w)
        except NonHomogeneousMultiplication:
            details.append({"z": z.json(), "degree": None, "pass": False})
            continue
        rep = check_map(alg, lm, w)
        checked += rep.checked
        total += rep.total_violations
        violations.extend(rep.violations[:max(0, MAX_REPORT_VIOLATIONS - len(violations))])
        details.append({"z": z.json(), "degree": str(lm.degree),
                        "pass": rep.passed})
    report = VerificationReport(checked=checked,
                                passed=all(d["pass"] for d in details),
                                violations=violations, total_violations=total)
    return report, details
