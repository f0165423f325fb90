"""Finitely supported supercommutative products and the transposed Poisson axiom suite.

A product table stores one value per unordered basis pair; the swapped order
resolves to the same entry with the supercommutativity sign (-1)^{|x||y|}.
The verifiers check, exactly and exhaustively over a window:

* grading and parity additivity of the stored entries (odd squares vanish);
* associativity, enumerated over support-adjacent indices plus the window
  (triples whose pairwise products miss the support are zero on both sides
  identically, so only support-touching triples need evaluation);
* the transposed Leibniz law  2 z.[x,y] = [z.x, y] + (-1)^{|x||z|} [x, z.y],
  evaluated for each z with a product partner only on the pairs (x, y)
  where x, y or x+y is one (every other pair has all three terms zero);
  `transposed_leibniz_by_enumeration` evaluates every pair, as an oracle;
* that every left multiplication is a half-(super)derivation.

The associativity and Leibniz reports count in `checked` every triple of
their cube, evaluated or not.  The zero product is admitted and called the
trivial structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (EVEN, MAX_REPORT_VIOLATIONS, ODD, AlgebraSpec, BasisIndex,
                      SparseVector, VerificationReport, Window, _ViolationLog,
                      bracket_basis, bracket_vec, index_from_json)
from .errors import NonHomogeneousMultiplication, WrongQ
from .halfder import GradedMap, MapDegree, check_map
from .scalars import (Scalar, format_scalar, from_fraction, parse_scalar,
                      scalar_one)

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
    name: str | None = None

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
                    "value": [[*idx.json(), format_scalar(c)]
                              for idx, c in v.items()],
                } for (x, y), v in sorted(self.entries.items())]}

    @classmethod
    def from_json(cls, data: dict, q: Fraction | None) -> "ProductTable":
        prod = cls(is_super=bool(data["super"]), q=q)
        for item in data["entries"]:
            x = index_from_json(item["x"])
            y = index_from_json(item["y"])
            vec = SparseVector()
            for *idx, text in item["value"]:
                vec.add_term(index_from_json(idx), parse_scalar(text, q))
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
        return ProductTable(is_super=is_super, q=q, name=name)
    if name == "block_thalg":
        if q is None or q.denominator != 1:
            raise WrongQ(f"block_thalg needs q in Z, got "
                         f"{'generic' if q is None else q}")
        qi = q.numerator
        prod = ProductTable(is_super=False, q=q, name=name)
        src = BasisIndex(EVEN, 0, -2 * qi)
        prod.put(src, src, SparseVector.basis(BasisIndex(EVEN, 0, -qi), scalar_one(q)))
        return prod
    if name in ("super_full", "super_even"):
        if q is None or q != 0:
            raise WrongQ(f"{name} needs q = 0, got {'generic' if q is None else q}")
        prod = ProductTable(is_super=True, q=q, name=name)
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
        bad = False
        for idx in v.entries:
            if idx.parity != want_parity:
                log.record((x, y), lambda: (v, f"images of parity {want_parity}"))
                bad = True
                break
        if bad:
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
    pairs: set[tuple[BasisIndex, BasisIndex]] = set()
    for x, y in prod.entries:
        pairs.add((x, y))
        pairs.add((y, x))
    log = _ViolationLog()

    def check(x: BasisIndex, y: BasisIndex, z: BasisIndex) -> None:
        lhs = prod.product_vec(prod.product(x, y), SparseVector.basis(z, scalar_one(prod.q)))
        rhs = prod.product_vec(SparseVector.basis(x, scalar_one(prod.q)), prod.product(y, z))
        if lhs != rhs:
            log.record((x, y, z), lambda: (lhs, rhs))

    for x, y in sorted(pairs):
        for z in universe:
            check(x, y, z)
    for y, z in sorted(pairs):
        for x in universe:
            if (x, y) in pairs:
                continue
            check(x, y, z)
    return log.report(len(universe) ** 3)


def _partner_pairs(basis: list[BasisIndex], partners: set[BasisIndex]):
    """Pairs (x, y) of basis, in window order, where x, y or x+y is a partner."""
    for x in basis:
        for y in basis:
            if (x in partners or y in partners
                    or BasisIndex((x.parity + y.parity) & 1, x.m + y.m, x.i + y.i)
                    in partners):
                yield x, y


def _all_pairs(basis: list[BasisIndex], partners: set[BasisIndex]):
    return ((x, y) for x in basis for y in basis)


def _leibniz(alg: AlgebraSpec, prod: ProductTable, w: Window, pairs) -> VerificationReport:
    if alg.is_super != prod.is_super:
        raise WrongQ("algebra and product disagree about the odd part")
    if prod.q is not None and alg.q != prod.q:
        raise WrongQ(f"product was built at q = {prod.q}, algebra runs at "
                     f"{'generic' if alg.q is None else alg.q}")
    basis = w.basis(alg.parities)
    partners: dict[BasisIndex, set[BasisIndex]] = {}
    for x, y in prod.entries:
        partners.setdefault(x, set()).add(y)
        partners.setdefault(y, set()).add(x)
    two = from_fraction(2, alg.q)
    one = scalar_one(alg.q)
    log = _ViolationLog()
    for z in basis:
        if z not in partners:
            continue
        for x, y in pairs(basis, partners[z]):
            br = bracket_basis(alg, x, y)
            lhs = prod.product_vec(SparseVector.basis(z, one), br).scale(two)
            rhs = bracket_vec(alg, prod.product(z, x), SparseVector.basis(y, one))
            zy = prod.product(z, y)
            if not zy.is_zero:
                sign = -1 if (x.parity and z.parity) else 1
                t = bracket_vec(alg, SparseVector.basis(x, one), zy)
                rhs = rhs + t.scale(from_fraction(sign, alg.q))
            if lhs != rhs:
                log.record((z, x, y), lambda: (lhs, rhs))
    return log.report(len(basis) ** 3)


def verify_transposed_leibniz(alg: AlgebraSpec, prod: ProductTable,
                              w: Window) -> VerificationReport:
    """2 z.[x,y] = [z.x, y] + (-1)^{|x||z|} [x, z.y] on all window triples (z,x,y).

    Every term vanishes unless z has a product partner among x, y and the
    index x+y of [x,y].  So only active z (a nonempty left-multiplication
    column) and, for each, only the pairs touching its partners are
    evaluated, in window order; `checked` counts every window triple.
    """
    return _leibniz(alg, prod, w, _partner_pairs)


def transposed_leibniz_by_enumeration(alg: AlgebraSpec, prod: ProductTable,
                                      w: Window) -> VerificationReport:
    """The same check, evaluated on every pair (x, y) for each active z."""
    return _leibniz(alg, prod, w, _all_pairs)


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
    """check_map for every left multiplication with support; per-z summaries."""
    details = []
    checked = 0
    violations: list[dict] = []
    total = 0
    for z in prod.factor_indices():
        lm = left_mult_map(prod, z, w)
        rep = check_map(alg, lm, w)
        checked += rep.checked
        total += rep.total_violations
        violations.extend(rep.violations[:max(0, MAX_REPORT_VIOLATIONS - len(violations))])
        details.append({"z": z.json(), "degree": str(lm.degree),
                        "pass": rep.passed})
    report = VerificationReport(checked=checked, passed=total == 0,
                                violations=violations, total_violations=total)
    return report, details
