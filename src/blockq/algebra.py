"""Graded basis indices, sparse vectors, structure-constant brackets and identity checks.

An algebra is one table of bracket rules, one per ordered parity pair, whose
coefficients are polynomials in the source indices (m, i, n, j) and the
parameter q.  Brackets are total on Z x Z indices; a `Window` only limits
which identities get enumerated, never the evaluation itself.

Every identity suite (antisymmetry, Jacobi, half-derivation, Hom-Lie,
transposed Leibniz and associativity) runs through one kernel,
`check_identity`: it evaluates a residual per case and logs each failing
case.  A residual is falsy where its identity holds and returns its own
sides where it fails, and a kept witness only lifts those values to exact
scalars, so each identity has one formula.  Except for associativity, which
has no bracket and compares exact product vectors, the residuals run on the
compiled layer (`CompiledAlgebra`).  It clears denominators once per algebra
and evaluates every structure constant with plain integer arithmetic: ints
in fixed-q mode, `scalars.Coeffs` of ints (q-coefficients, with ring
operators) in generic mode, so a residual is written with + - * and
truthiness in either mode.  Its rules
(`pair`) and its half-derivation row kernels (`row_kernel`, the three
constants of a row from one call) run the same generated rule sources.
`CompiledAlgebra.raw` clears a scalar table (a map, a product or a kernel
vector) onto the same layer and hands back the one common factor it
applied; `CompiledAlgebra.lift` divides a raw product of structure
constants by their scales and by that factor.

Antisymmetry and Jacobi first try a proof for all indices: their residuals
are polynomials in the free indices of bounded degree, so vanishing on the
small box `certifying_grid` returns proves them everywhere (Alon's
Combinatorial Nullstellensatz).  Brackets are total, so the box need not lie
in the window.  When the box shows a violation, every pair or triple of the
window is enumerated.  Either way a report's `checked` counts the pairs or
triples of the window it covers.  Antisymmetry is proved once per compiled
algebra (`CompiledAlgebra.antisymmetric`).  Where it holds, a permutation of
(x, y, z) changes the Jacobi residual and the Hom-Lie standard sum only by a
sign, so every triple walk takes one triple per multiset {x, y, z}
(`triple_orbits`): the box proofs, and the total of a failing check.  Where
it fails, a walk takes every triple.

The exact brackets (`bracket_coeff`, `bracket_basis`, `bracket_vec`) lift
single compiled constants back to `Fraction` or `RatFunc` values, so no rule
is evaluated twice.  No suite calls them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import lcm
from typing import Callable, Iterable, NamedTuple

from .errors import ModeMismatch, ParseError, UnknownParityPair
from .scalars import Coeffs, Poly, RatFunc, Scalar, poly_gcd

EVEN = 0
ODD = 1
Parity = int

_PARITY_NAMES = {EVEN: "even", ODD: "odd"}
_PARITY_VALUES = {"even": EVEN, "odd": ODD}
_BASIS_LETTER = {EVEN: "L", ODD: "G"}


def parity_name(p: Parity) -> str:
    return _PARITY_NAMES[p]


def parity_from_name(name: str) -> Parity:
    try:
        return _PARITY_VALUES[name]
    except KeyError:
        raise ValueError(f"parity must be 'even' or 'odd', got {name!r}") from None


class BasisIndex(NamedTuple):
    """One basis element: L[m,i] when even, G[m,i] when odd."""

    parity: Parity
    m: int
    i: int

    def __str__(self) -> str:
        return f"{_BASIS_LETTER[self.parity]}[{self.m},{self.i}]"

    def json(self) -> list:
        return [parity_name(self.parity), self.m, self.i]

    def plus(self, other: "BasisIndex") -> "BasisIndex":
        """The index of [self, other]: parities and coordinates add."""
        return BasisIndex(self.parity ^ other.parity, self.m + other.m, self.i + other.i)


def index_from_json(item: Iterable) -> BasisIndex:
    """The inverse of BasisIndex.json; ParseError unless item is [parity, m, i]."""
    if not (isinstance(item, list) and len(item) == 3 and item[0] in _PARITY_VALUES
            and all(type(v) is int for v in item[1:])):
        raise ParseError(f"a basis index is [\"even\" or \"odd\", m, i], got {item!r}")
    return BasisIndex(_PARITY_VALUES[item[0]], item[1], item[2])


class SparseVector:
    """Finitely supported vector over the basis; no zero coefficients stored."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[BasisIndex, Scalar] | None = None):
        if entries is None:
            self.entries = {}
        else:
            self.entries = {k: v for k, v in entries.items() if v}

    @classmethod
    def basis(cls, idx: BasisIndex, coeff: Scalar) -> "SparseVector":
        out = cls()
        if coeff:
            out.entries[idx] = coeff
        return out

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def items(self) -> list[tuple[BasisIndex, Scalar]]:
        """Entries in deterministic (parity, m, i) order."""
        return sorted(self.entries.items())

    def add_term(self, idx: BasisIndex, coeff: Scalar) -> None:
        cur = self.entries.get(idx)
        if cur is None:
            if coeff:
                self.entries[idx] = coeff
        else:
            new = cur + coeff
            if new:
                self.entries[idx] = new
            else:
                del self.entries[idx]

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = SparseVector(dict(self.entries))
        for k, v in other.entries.items():
            out.add_term(k, v)
        return out

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        out = SparseVector(dict(self.entries))
        for k, v in other.entries.items():
            out.add_term(k, -v)
        return out

    def scale(self, c: Scalar) -> "SparseVector":
        if not c:
            return SparseVector()
        return SparseVector({k: v * c for k, v in self.entries.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):
        return hash(tuple(self.items()))

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(f"({v})*{k}" for k, v in self.items())

    def __repr__(self) -> str:
        return f"SparseVector({self})"


@dataclass(frozen=True)
class Window:
    """Symmetric index box |m| <= m_max, |i| <= i_max used to truncate enumerations."""

    m_max: int
    i_max: int

    def __post_init__(self):
        if self.m_max < 1 or self.i_max < 1:
            raise ValueError("window bounds must be positive")

    def contains(self, m: int, i: int) -> bool:
        return -self.m_max <= m <= self.m_max and -self.i_max <= i <= self.i_max

    def points(self) -> list[tuple[int, int]]:
        return [(m, i)
                for m in range(-self.m_max, self.m_max + 1)
                for i in range(-self.i_max, self.i_max + 1)]

    def basis(self, parities: tuple[Parity, ...]) -> list[BasisIndex]:
        return [BasisIndex(p, m, i) for p in parities for m, i in self.points()]

    def __le__(self, other: "Window") -> bool:
        return self.m_max <= other.m_max and self.i_max <= other.i_max

    @classmethod
    def parse(cls, text: str) -> "Window":
        return cls(*parse_dims(text, "MxI", 1))

    def __str__(self) -> str:
        return f"{self.m_max}x{self.i_max}"


def parse_dims(text: str, form: str, least: int) -> tuple[int, int]:
    """The two integers of text written like `form` ('MxI', 'RxS'); ParseError
    unless both are at least `least`."""
    match = re.fullmatch(r"\s*([0-9]+)\s*[xX]\s*([0-9]+)\s*", text)
    if match and min(dims := (int(match[1]), int(match[2]))) >= least:
        return dims
    raise ParseError(f"malformed {form} {text!r}", expected=(f"{form} with integers >= {least}",))


# monomial key: exponents of (m, i, n, j, q)
Monomials = dict[tuple[int, int, int, int, int], Fraction]


@dataclass
class AlgebraSpec:
    """Bracket rules plus the bound coefficient mode (q = None means generic).

    `rules` maps each ordered parity pair (|x|, |y|) of the algebra to the
    expanded coefficient of [x, y].  A pair given in one order only gets its
    reverse here, and nowhere else, by graded skew-symmetry
    [y, x] = -(-1)^{|x||y|} [x, y]: the index-swapped monomials with that sign.
    Treated as immutable after construction; safe to share between threads.
    """

    name: str
    is_super: bool
    q: Fraction | None
    rules: dict[tuple[Parity, Parity], Monomials]
    _compiled: "CompiledAlgebra | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        rules = dict(self.rules)
        for (a, b), monos in self.rules.items():
            if (b, a) not in rules:
                sign = 1 if a & b else -1
                rules[(b, a)] = {(en, ej, em, ei, eq): sign * c
                                 for (em, ei, en, ej, eq), c in monos.items()}
        self.rules = rules

    @property
    def parities(self) -> tuple[Parity, ...]:
        return (EVEN, ODD) if self.is_super else (EVEN,)

    def compiled(self) -> "CompiledAlgebra":
        if self._compiled is None:
            self._compiled = CompiledAlgebra(self)
        return self._compiled


# --- compiled integer layer --------------------------------------------------

def _poly_src(monoms: dict[tuple[int, int, int, int], int]) -> str:
    terms = []
    for (em, ei, en, ej), c in sorted(monoms.items()):
        if c == 0:
            continue
        factors = []
        for var, e in (("m", em), ("i", ei), ("n", en), ("j", ej)):
            factors.extend([var] * e)
        terms.append("*".join([str(c)] + factors) if factors else str(c))
    return " + ".join(terms) if terms else "0"


class CompiledAlgebra:
    """Denominator-cleared structure constants for one algebra and one q mode.

    Every evaluated coefficient equals ``scale`` times the true value, where
    ``scale = den * b**D`` in fixed mode (q = a/b in lowest terms, D the
    maximal q-degree over all rules) and ``den`` alone in generic mode.  In
    fixed mode values are ints; in generic mode, `Coeffs` of ints holding the
    q-power coefficients, so both modes take the same operators.  `lift`
    divides a value by ``scale`` again, once per structure constant in it;
    `one` is the raw value 1, the entry of a unit row, and `zero` the raw
    value 0.
    """

    def __init__(self, spec: AlgebraSpec):
        self.q = spec.q
        self.generic = spec.q is None
        self.D = max((k[4] for monos in spec.rules.values() for k in monos), default=0)
        self.den = den = lcm(*(c.denominator for monos in spec.rules.values()
                               for c in monos.values()))
        if self.generic:
            self.qnum = self.qden = None
            self.scale = Fraction(den)
        else:
            self.qnum = spec.q.numerator
            self.qden = spec.q.denominator
            self.scale = Fraction(den * self.qden ** self.D)

        self.zero, self.one = (Coeffs(), Coeffs((1,))) if self.generic else (0, 1)

        self._src = {key: self._rule_src(monos) for key, monos in spec.rules.items()}
        self.pair: dict[tuple[Parity, Parity], Callable[[int, int, int, int], object]] = {
            key: eval("lambda m,i,n,j: " + src, {"__builtins__": {}, "Coeffs": Coeffs}, {})  # noqa: S307 - self-generated source
            for key, src in self._src.items()}
        self._kernels: dict[tuple[Parity, Parity, Parity], Callable] = {}
        self.antisymmetry_box = certifying_grid(spec, 1).basis(spec.parities)

    def _rule_src(self, monos: Monomials) -> str:
        """The expression in m, i, n, j of one rule's raw value: the one source
        generator of `pair` and `row_kernel`."""
        by_pow: list[dict[tuple[int, int, int, int], int]] = [dict() for _ in range(self.D + 1)]
        for (em, ei, en, ej, eq), c in monos.items():
            ic = c * self.den
            assert ic.denominator == 1
            by_pow[eq][(em, ei, en, ej)] = by_pow[eq].get((em, ei, en, ej), 0) + ic.numerator
        srcs = [_poly_src(p) for p in by_pow]
        if self.generic:
            body = "Coeffs((" + ", ".join(f"({s})" for s in srcs) + ("," if self.D == 0 else "") + "))"
        else:
            a, b = self.qnum, self.qden
            parts = []
            for k, s in enumerate(srcs):
                if s == "0":
                    continue
                w = a ** k * b ** (self.D - k)
                if w == 0:
                    continue
                parts.append(f"({s})" if w == 1 else f"({s})*{w}")
            body = " + ".join(parts) if parts else "0"
        return body

    def row_kernel(self, p1: Parity, p2: Parity, shift: Parity) -> Callable:
        """A factory (r, s) -> f(m1, i1, m2, i2) that returns the three raw
        constants of a half-derivation row of degree (shift, r, s) in one call:
        f_(p1,p2)(m1, i1, m2, i2), f_(p1^shift,p2)(m1+r, i1+s, m2, i2) and
        f_(p1,p2^shift)(m1, i1, m2+r, i2+s).  One generated function per
        (p1, p2, shift), cached; its three bodies are the `_rule_src` of
        `pair`, run on rebound locals."""
        key = (p1, p2, shift)
        if key not in self._kernels:
            out, x, y = (self._src[k] for k in ((p1, p2), (p1 ^ shift, p2), (p1, p2 ^ shift)))
            ns: dict = {}
            eval(compile(f"def kernel(r, s):\n"  # noqa: S307 - self-generated source
                         f" def row(m, i, n, j):\n"
                         f"  c_out = {out}\n"
                         f"  n, j = n + r, j + s\n"
                         f"  c_y = {y}\n"
                         f"  m, i, n, j = m + r, i + s, n - r, j - s\n"
                         f"  return c_out, {x}, c_y\n"
                         f" return row\n", "<row kernel>", "exec"), {"__builtins__": {}, "Coeffs": Coeffs}, ns)
            self._kernels[key] = ns["kernel"]
        return self._kernels[key]

    @cached_property
    def antisymmetric(self) -> bool:
        """Graded antisymmetry holds at every index: its residual vanishes on
        `antisymmetry_box`, the basis of `certifying_grid(spec, 1)`.  Brackets
        are total on Z x Z, so no window limits this proof."""
        residual = _antisymmetry_residual(self)
        return not any(residual(*pair)
                       for pair in combinations_with_replacement(self.antisymmetry_box, 2))

    def coeff(self, x: BasisIndex, y: BasisIndex):
        """The evaluated structure constant of [x, y]."""
        return self.pair[(x.parity, y.parity)](x.m, x.i, y.m, y.i)

    def lift(self, v, constants: int = 1, factor: Scalar | None = None) -> Scalar:
        """The true scalar of a raw product of `constants` structure constants
        and, when given, one value of a table `raw` cleared by `factor`: `v`
        divided by `scale` ** constants and by `factor`."""
        if self.generic:
            out = RatFunc(Poly(Fraction(c, self.den ** constants) for c in v))
        else:
            out = Fraction(v) / self.scale ** constants
        return out if factor is None else out / factor

    def lift_sides(self, sides: tuple[dict, dict], constants: int,
                   factor: Scalar | None = None) -> tuple[SparseVector, SparseVector]:
        """A witness: both raw sides of a failing case, each a dict from output
        index to raw value, lifted (see `lift`)."""
        return tuple(SparseVector({idx: self.lift(v, constants, factor)
                                   for idx, v in side.items()}) for side in sides)

    def raw(self, table: dict) -> tuple[dict, Scalar]:
        """(raw table, factor): a scalar table times the one common factor that
        clears every denominator, as ints or `Coeffs` of ints.  An
        identity linear in the table vanishes on the result exactly where it
        vanishes on the table; `lift` divides the factor out again."""
        if any(isinstance(v, RatFunc) != self.generic for v in table.values()):
            raise ModeMismatch("a scalar table's mode differs from the algebra's")
        if not self.generic:
            m = lcm(*(v.denominator for v in table.values()))
            return {k: (v * m).numerator for k, v in table.items()}, Fraction(m)
        den = Poly.const(1)
        for v in table.values():
            if not v.den.is_one:
                den = den * v.den.divmod(poly_gcd(den, v.den))[0]
        nums = {k: v.num * den.divmod(v.den)[0] for k, v in table.items()}
        m = lcm(*(c.denominator for poly in nums.values() for c in poly.coeffs))
        return ({k: Coeffs((c * m).numerator for c in poly.coeffs) for k, poly in nums.items()},
                RatFunc(den.scale(m)))

    def raw_vectors(self, vectors: dict) -> tuple[dict, Scalar]:
        """`raw` of every coefficient of a table of sparse vectors at once, as
        (index, raw coefficient) lists, and its factor; keys with a zero
        vector are dropped."""
        out: dict = {}
        table, factor = self.raw({(key, idx): c for key, v in vectors.items()
                                  for idx, c in v.entries.items()})
        for (key, idx), c in table.items():
            out.setdefault(key, []).append((idx, c))
        return out, factor


# --- scalar layer ------------------------------------------------------------

def bracket_coeff(alg: AlgebraSpec, x: BasisIndex, y: BasisIndex) -> Scalar:
    """Structure constant of [x, y] (the output index is (m+n, i+j)), lifted
    from the compiled layer."""
    comp = alg.compiled()
    rule = comp.pair.get((x.parity, y.parity))
    if rule is None:
        raise UnknownParityPair(
            f"algebra {alg.name!r} has no rule for parities "
            f"({parity_name(x.parity)}, {parity_name(y.parity)})")
    return comp.lift(rule(x.m, x.i, y.m, y.i))


def bracket_basis(alg: AlgebraSpec, x: BasisIndex, y: BasisIndex) -> SparseVector:
    """[x, y] as a sparse vector (a single term, or empty when the coefficient vanishes)."""
    return SparseVector.basis(x.plus(y), bracket_coeff(alg, x, y))


def bracket_vec(alg: AlgebraSpec, u: SparseVector, v: SparseVector) -> SparseVector:
    """Bilinear extension of bracket_basis."""
    out = SparseVector()
    for kx, cx in u.entries.items():
        for ky, cy in v.entries.items():
            val = bracket_coeff(alg, kx, ky) * cx * cy
            if val:
                out.add_term(kx.plus(ky), val)
    return out


# --- verification reports ----------------------------------------------------

MAX_REPORT_VIOLATIONS = 100


@dataclass
class VerificationReport:
    """Outcome of an exhaustive identity check over a window.

    Violations are data, not errors; at most MAX_REPORT_VIOLATIONS carry
    details, the rest are counted in total_violations.
    """

    checked: int
    passed: bool
    violations: list[dict]
    total_violations: int
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"checked": self.checked,
               "violations": self.violations,
               "pass": self.passed}
        if self.total_violations > len(self.violations):
            out["total_violations"] = self.total_violations
        out.update(self.notes)
        return out


class _ViolationLog:
    def __init__(self):
        self.items: list[dict] = []
        self.total = 0

    def record(self, indices: Iterable[BasisIndex],
               detail: Callable[[], tuple[object, object]]) -> None:
        """Count one violation; detail() -> (lhs, rhs) runs only while details are kept."""
        self.total += 1
        if len(self.items) < MAX_REPORT_VIOLATIONS:
            lhs, rhs = detail()
            self.items.append({"indices": [idx.json() for idx in indices],
                               "lhs": str(lhs), "rhs": str(rhs)})

    def report(self, checked: int) -> VerificationReport:
        return VerificationReport(checked=checked, passed=self.total == 0,
                                  violations=self.items, total_violations=self.total)


def check_identity(cases: Iterable[tuple[BasisIndex, ...]],
                   residual: Callable[..., object],
                   witness: Callable[[object], tuple[object, object]], checked: int,
                   proved: bool = False,
                   orbits: Iterable[tuple[tuple[BasisIndex, ...], int]] | None = None
                   ) -> VerificationReport:
    """The identity-check kernel of every suite.

    `residual(*case)` is falsy where the identity holds at a case (a tuple
    of basis indices) and otherwise returns what it found, its raw sides;
    `witness(found)` turns that into the scalar (lhs, rhs) of a witness,
    only while the report keeps witnesses.  `proved` is the caller's verdict
    that the identity holds on every case; the report then passes without a
    walk.  Otherwise `cases` are walked in order.  `checked` counts the
    cases covered.

    `orbits`, when given, yields one (case, weight) for each class of
    `cases` on which the residual vanishes or not together, where weight is
    the class's size (`triple_orbits` for triples).  Once the report keeps
    MAX_REPORT_VIOLATIONS witnesses the walk stops, and those classes count
    the total.
    """
    log = _ViolationLog()
    if not proved:
        for case in cases:
            if found := residual(*case):
                log.record(case, lambda: witness(found))
                if orbits is not None and len(log.items) == MAX_REPORT_VIOLATIONS:
                    log.total = sum(weight for rep, weight in orbits if residual(*rep))
                    break
    return log.report(checked)


def multiset_orbits(basis: list[BasisIndex]) -> Iterable[tuple[tuple[BasisIndex, ...], int]]:
    """(triple, size) for each orbit of the triples of `basis` under
    permuting (x, y, z), that is, each multiset {x, y, z}: size 6, 3 when
    two members are equal, 1 when all three are.

    Each orbit is met once, at its first member in window order: the
    positions a <= b <= c in the basis.
    """
    return (((x, y, z), 1 if x == z else 3 if x == y or y == z else 6)
            for x, y, z in combinations_with_replacement(basis, 3))


def triple_orbits(comp: "CompiledAlgebra", basis: list[BasisIndex]
                  ) -> Iterable[tuple[tuple[BasisIndex, ...], int]] | None:
    """The orbit rule of every walk over the triples of `basis` whose residual
    a permutation of (x, y, z) changes only by a sign once graded
    antisymmetry holds: the Jacobiator, and the Hom-Lie standard sum.

    When `comp.antisymmetric`, `multiset_orbits`: one (triple, size) per
    multiset {x, y, z}.  Otherwise None, and a walk takes every triple.
    """
    return multiset_orbits(basis) if comp.antisymmetric else None


def vanishes_on_triples(comp: "CompiledAlgebra", residual: Callable[..., object],
                        basis: list[BasisIndex]) -> bool:
    """Whether `residual` vanishes on every triple of `basis`, evaluated on
    the triples `triple_orbits` takes."""
    orbits = triple_orbits(comp, basis)
    triples = product(basis, repeat=3) if orbits is None else (t for t, _ in orbits)
    return not any(residual(*t) for t in triples)


def certifying_grid(alg: AlgebraSpec, factors: int) -> Window:
    """Smallest symmetric box on which a vanishing residual vanishes everywhere.

    A residual that is a sum of products of `factors` structure constants has
    degree at most d = factors * (largest exponent of one index variable in
    any rule) in each free index, whatever affine index sums the constants
    are evaluated at.  A polynomial of degree <= d in each variable that
    vanishes on a product grid with more than d points per variable is zero
    (Alon, Combinatorial Nullstellensatz, Lemma 2.1), so the box of bound
    ceil(d/2), with 2*ceil(d/2) + 1 > d points, proves the identity on all of
    Z x Z.  In generic mode every q-coefficient is such a polynomial, so the
    proof holds for every q.
    """
    deg = max((e for monos in alg.rules.values() for key in monos for e in key[:4]),
              default=0)
    bound = max(1, (factors * deg + 1) // 2)
    return Window(bound, bound)


def _antisymmetry_residual(comp: CompiledAlgebra) -> Callable[[BasisIndex, BasisIndex], object]:
    """None where [x,y] = -(-1)^{|x||y|} [y,x], else both sides, raw, at x+y."""
    def residual(x: BasisIndex, y: BasisIndex):
        cxy, cyx = comp.coeff(x, y), comp.coeff(y, x)
        cyx = cyx if x.parity & y.parity else -cyx
        return ({x.plus(y): cxy}, {x.plus(y): cyx}) if cxy - cyx else None
    return residual


def _jacobi_residual(comp: CompiledAlgebra) -> Callable[..., object]:
    """None where [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]], else both
    sides, raw, at x+y+z."""
    pair = comp.pair

    def residual(x: BasisIndex, y: BasisIndex, z: BasisIndex):
        (px, mx, ix), (py, my, iy), (pz, mz, iz) = x, y, z
        x_yz = pair[(py, pz)](my, iy, mz, iz) * pair[(px, py ^ pz)](mx, ix, my + mz, iy + iz)
        xy_z = pair[(px, py)](mx, ix, my, iy) * pair[(px ^ py, pz)](mx + my, ix + iy, mz, iz)
        y_xz = pair[(px, pz)](mx, ix, mz, iz) * pair[(py, px ^ pz)](my, iy, mx + mz, ix + iz)
        rhs = xy_z - y_xz if px & py else xy_z + y_xz
        if not x_yz - rhs:
            return None
        idx = BasisIndex(px ^ py ^ pz, mx + my + mz, ix + iy + iz)
        return {idx: x_yz}, {idx: rhs}
    return residual


def verify_antisymmetry(alg: AlgebraSpec, w: Window) -> VerificationReport:
    """Check [x,y] + (-1)^{|x||y|} [y,x] = 0 on all unordered basis pairs in w.

    Passes without a walk when `CompiledAlgebra.antisymmetric` proves it at
    every index; otherwise every pair of w is enumerated.
    """
    basis = w.basis(alg.parities)
    comp = alg.compiled()
    return check_identity(combinations_with_replacement(basis, 2), _antisymmetry_residual(comp),
                          lambda found: comp.lift_sides(found, 1),
                          len(basis) * (len(basis) + 1) // 2, comp.antisymmetric)


def jacobi_sides(comp: CompiledAlgebra, found: tuple[dict, dict]
                 ) -> tuple[SparseVector, SparseVector]:
    """The witness of a failing Jacobi triple, which perfbench's trace times by
    this name: the residual's raw [x,[y,z]] and [[x,y],z] + (-1)^{|x||y|}
    [y,[x,z]], two structure constants per product, lifted."""
    return comp.lift_sides(found, 2)


def verify_jacobi(alg: AlgebraSpec, w: Window) -> VerificationReport:
    """Check the graded Jacobi identity [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]]
    on all basis triples in w; symbolic in q when the algebra is generic.

    Passes without a walk when the residual vanishes on the certifying grid
    `certifying_grid(alg, 2)`, which proves it at every index, whatever the
    window.  Otherwise the triples of w are walked in window order until the
    report keeps its witnesses, and the total is counted by `triple_orbits`.
    The grid proof takes its triples from `triple_orbits` too.
    """
    comp = alg.compiled()
    residual = _jacobi_residual(comp)
    basis = w.basis(alg.parities)
    proved = vanishes_on_triples(comp, residual, certifying_grid(alg, 2).basis(alg.parities))
    return check_identity(
        product(basis, repeat=3), residual, lambda found: jacobi_sides(comp, found),
        len(basis) ** 3, proved, triple_orbits(comp, basis))
