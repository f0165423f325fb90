"""Linear systems over a row source, one exact solver, and window-stabilized classification.

A `ConstraintSystem` is a list of unknown labels and a stream of rows, each
row's `Entries` the raw (denominator-cleared, see CompiledAlgebra) values of
its nonzero coefficients; row scaling leaves the null space unchanged.  The
stream may be a function of the solver's forced flags (fresh per call), so a
lazy source can leave out rows with no live unknown.  `null_space` is the one
solver.  It reads the rows in order:

* each row is fed to zero propagation as it is read.  A row with one live
  unknown forces that unknown to zero, which holds in every solution of the
  rows seen so far and hence of the whole system.  The rows propagation
  keeps, forced columns dropped, also go in batches to an incremental
  row-echelon pass modulo a word-size prime (generic rows evaluated at a
  fixed q0 first).  Once every unknown is forced, or once that pass reaches
  rank equal to the number of live unknowns, the kernel is zero, proved
  (reducing mod p and specialising q can only lower rank), and the remaining
  rows are never read, so a lazy row source never builds them;
* otherwise the kernel is read off that same echelon, whenever a batch
  leaves its rank unchanged and once more after the last row: one vector
  per live non-pivot column, each residue lifted to Q by rational
  reconstruction (a q-free constant in generic mode).  The lift is
  certified on the rows read so far in three parts: their exact kernel has
  at most that many dimensions (the mod-p rank can only be lower), each
  vector is zero on the forced unknowns and satisfies every kept row in
  integer arithmetic, and the vectors are independent, each having its own
  free column.  So they span that kernel.  While a certified lift stands,
  a later row that vanishes on every vector lies in the row space of the
  rows already read and is dropped before propagation and the echelon; the
  first row that fails goes on as before.  If the last lift has a residue
  with no lift or a row fails, all kept rows, every row not dropped, are
  solved exactly instead.

The result is the exact space in canonical reduced echelon form, pivots at
the least labels.  `stabilize` takes a system per window and intersects the
kernels of nested windows, restricted to the unknowns of the smallest;
truncation artifacts at the window boundary die there.  On a nested ladder
each later kernel, so restricted, already is the intersection, and one rank
test per window certifies that.  Later windows are seeded with zeros off
the running intersection's support (see `stabilize`).

The systems classification solves are the half-(super)derivation ones.  A
homogeneous map of degree (parity shift, r, s) sends basis (p, m, i) to
d(p, m, i) times basis (p + shift, m + r, i + s).  Requiring

    2 phi([x, y]) = [phi(x), y] + (-1)^{|phi||x|} [x, phi(y)]

and projecting onto the single graded output index turns every basis pair
whose two points and sum lie in the window into one row in the
d-coefficients, a pair taken in one order when the spec is graded
antisymmetric and in both otherwise.  A row's three structure constants
come from one call of a generated row kernel (`CompiledAlgebra.row_kernel`).
`half_derivation_system` streams these rows shell by shell from the outside
in (shell k = max(|m1|, |i1|, |m2|, |i2|)), which reaches the early stop
soonest, and skips a pair before evaluating any rule when the solver has
forced its unknowns at x, y and x + y (its row has no live entry).
`build_constraints` lists every row in lexicographic pair order, the order
`check_map` keeps its witnesses in.

One echelon routine, `_insert_row` (leftmost pivot, mutually reduced rows),
does all exact elimination: the kernel, the reduced echelon form of a span,
the intersection's certificate and membership, both by rank.
One more, `_modp_pivot_rows`, does all elimination mod p: the early stop and
the lifted kernel.

`classify` solves the degrees (r, s) and (-r, s) once when `_reflection`
finds a sign sigma(p) per parity such that T: d(p, m, i) -> sigma(p) d(p, -m, i)
sends the row of each pair (x, y) of degree (r, s) to plus or minus the row of
(x', y') of degree (-r, s), where x' is x with m negated.  Each rule must be
even or odd in (m, n) (its sign tau, read off the monomials, so for every
index and q), and the signs of each row's three terms must agree under
sigma.  Every window is symmetric in m, and the pairs a system takes are
closed under the flip: in both orders as they stand, and once up to the
order, which then changes a row by a sign only.  So T maps each window's
kernel, the intersection and its dimensions onto those of the mirrored
degree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, product
from math import gcd, isqrt
from typing import Callable, Iterable, Sequence

from .algebra import (EVEN, ODD, AlgebraSpec, BasisIndex, CompiledAlgebra, Parity,
                      SparseVector, VerificationReport, Window, check_identity,
                      parity_name)
from .errors import (IntegralityViolation, OddMapOnNonSuper, UnknownMapName,
                     WrongQ)
from .scalars import Scalar, format_q, from_fraction, inv, scalar_one


@dataclass(frozen=True)
class MapDegree:
    """Homogeneous degree of a graded linear map."""

    parity_shift: Parity
    r: int
    s: int

    def __str__(self) -> str:
        return f"({parity_name(self.parity_shift)},{self.r},{self.s})"


@dataclass
class GradedMap:
    """A homogeneous map given by its coefficient table d(parity, m, i).

    The image of basis (p, m, i) is table[(p, m, i)] times basis
    (p + parity_shift, m + r, i + s); indices missing from the table map to
    zero.
    """

    degree: MapDegree
    table: dict[BasisIndex, Scalar]

    def __post_init__(self):
        self.table = {k: v for k, v in self.table.items() if v}

    def image_index(self, src: BasisIndex) -> BasisIndex:
        d = self.degree
        return BasisIndex((src.parity + d.parity_shift) & 1, src.m + d.r, src.i + d.s)

    @property
    def is_zero(self) -> bool:
        return not self.table


MapCombo = list[tuple[Scalar, GradedMap]]


def combo_apply(terms: MapCombo, x: BasisIndex) -> SparseVector:
    out = SparseVector()
    for weight, gm in terms:
        c = gm.table.get(x)
        if c:
            out.add_term(gm.image_index(x), weight * c)
    return out


# --- constraint assembly -------------------------------------------------------

Entries = tuple[tuple[int, object], ...]  # (unknown, raw coefficient) pairs


@dataclass
class ConstraintSystem:
    """A homogeneous linear system: unknown labels (hashable, ordered) and a stream of rows.

    Each row is a tuple whose first item is its Entries, unknown k standing
    for unknowns[k], each at most once and in no set order; provenance may
    follow.  Values are raw values of `algebra` (ints in fixed mode,
    `Coeffs` of ints in generic mode).  `rows` may be lazy: `null_space`
    reads it once, in order, and may stop early.  It may be a function of the
    solver's flags (`forced[k]` set once unknown k is proved zero) that
    leaves out rows with no live one.
    """

    algebra: CompiledAlgebra
    unknowns: list
    rows: Iterable[tuple] | Callable[[bytearray], Iterable[tuple]]


def _parity_pairs(alg: AlgebraSpec, deg: MapDegree) -> list[tuple[Parity, Parity]]:
    """Parity combinations (p1, p2) of the generating pairs: p1 <= p2 when
    the spec is graded antisymmetric, every order otherwise."""
    if deg.parity_shift == ODD and not alg.is_super:
        raise OddMapOnNonSuper(
            f"odd-shift maps need a superalgebra, {alg.name!r} has no odd part")
    once = alg.compiled().antisymmetric
    return [(p1, p2) for p1, p2 in product(alg.parities, repeat=2) if p1 <= p2 or not once]


Pair = tuple[Parity, Parity, int, int, int, int]


def _shell_pairs(alg: AlgebraSpec, deg: MapDegree, w: Window) -> Iterable[Pair]:
    """Every in-window pair (p1, p2, m1, i1, m2, i2) of `_parity_pairs`,
    shell by shell from the outside in.

    Both points and their sum lie in the window.  Under graded antisymmetry
    the two orders of a pair give the same row up to sign, so a pair is
    taken once, a same-parity one with (m1, i1) <= (m2, i2); otherwise in
    both orders.  Shell k holds the pairs with max(|m1|, |i1|, |m2|, |i2|)
    = k, so both points lie in the box |m|, |i| <= k and one coordinate is
    on its rim.
    """
    combos, once = _parity_pairs(alg, deg), alg.compiled().antisymmetric
    mm, ii = w.m_max, w.i_max
    for k in range(max(mm, ii), -1, -1):
        km, ki = min(k, mm), min(k, ii)
        for p1, p2 in combos:
            same = p1 == p2 and once
            for m1 in range(-km, km + 1):
                m2lo = max(-km, -mm - m1)
                m2hi = min(km, mm - m1)
                for i1 in range(-ki, ki + 1):
                    rim1 = abs(m1) == k or abs(i1) == k
                    i2lo = max(-ki, -ii - i1)
                    i2hi = min(ki, ii - i1)
                    for m2 in range(max(m2lo, m1) if same else m2lo, m2hi + 1):
                        lo = max(i2lo, i1) if same and m2 == m1 else i2lo
                        if rim1 or abs(m2) == k:
                            i2s = range(lo, i2hi + 1)
                        else:
                            i2s = [i2 for i2 in (-k, k) if lo <= i2 <= i2hi]
                        for i2 in i2s:
                            yield p1, p2, m1, i1, m2, i2


def _rows(alg: AlgebraSpec, deg: MapDegree, w: Window, pairs: Iterable[Pair],
          forced: bytearray | None = None) -> Iterable[tuple[Entries, Pair]]:
    """The row of each pair, as (entries, pair); pairs whose row is zero are skipped.

    Unknown k is w.basis(alg.parities)[k].  A pair whose unknowns at x, y and
    x + y are all `forced`, flags the reader sets as it reads, is skipped.
    Each other pair takes one call of its parity pair's row kernel
    (`CompiledAlgebra.row_kernel`), whose three constants give the entries
    2 c_out at x + y, -c_x at x and -/+ c_y at y.  Where two of those
    unknowns coincide (x = y, or x or y = L[0,0]) they are merged.
    """
    comp = alg.compiled()
    shift, r, s = deg.parity_shift, deg.r, deg.s
    mm, ii = w.m_max, w.i_max
    width = 2 * ii + 1
    npts = (2 * mm + 1) * width
    if forced is None:
        forced = bytes(len(alg.parities) * npts)

    # per parity pair: its row kernel, whether [x, phi(y)] flips sign, and
    # the offsets of the x, y and output unknowns
    setup = {(p1, p2): (comp.row_kernel(p1, p2, shift)(r, s), bool(shift and p1),
                        p1 * npts + mm * width + ii, p2 * npts + mm * width + ii,
                        (p1 ^ p2) * npts + mm * width + ii)
             for p1, p2 in _parity_pairs(alg, deg)}
    for pair in pairs:
        p1, p2, m1, i1, m2, i2 = pair
        kernel, flip_y, base1, base2, base_out = setup[p1, p2]
        u_x, u_y = base1 + m1 * width + i1, base2 + m2 * width + i2
        u_out = base_out + (m1 + m2) * width + i1 + i2
        if forced[u_out] and forced[u_x] and forced[u_y]:
            continue
        c_out, c_x, c_y = kernel(m1, i1, m2, i2)
        if u_x != u_y and u_out != u_x and u_out != u_y:
            entries = ((u_out, c_out + c_out),) if c_out else ()
            if c_x:
                entries += ((u_x, -c_x),)
            if c_y:
                entries += ((u_y, c_y if flip_y else -c_y),)
        else:
            d: dict[int, object] = {}
            if c_out:
                d[u_out] = c_out + c_out
            if c_x:
                d[u_x] = d[u_x] - c_x if u_x in d else -c_x
            if c_y:
                t = c_y if flip_y else -c_y
                d[u_y] = d[u_y] + t if u_y in d else t
            entries = tuple((u, v) for u, v in d.items() if v)
        if entries:
            yield entries, pair


def half_derivation_system(alg: AlgebraSpec,
                           deg: MapDegree) -> Callable[[Window], ConstraintSystem]:
    """The half-derivation system of each window, its rows built lazily, shell by shell."""
    return lambda w: ConstraintSystem(
        alg.compiled(), w.basis(alg.parities),
        lambda forced: _rows(alg, deg, w, _shell_pairs(alg, deg, w), forced))


def build_constraints(alg: AlgebraSpec, deg: MapDegree, w: Window) -> ConstraintSystem:
    """The half-derivation system of w, materialised, each row (entries, x, y).

    Rows come in lexicographic pair order (p1, p2, m1, i1, m2, i2);
    `check_map` keeps its first witnesses in this order.
    """
    rows = [(entries, BasisIndex(p1, m1, i1), BasisIndex(p2, m2, i2))
            for entries, (p1, p2, m1, i1, m2, i2) in _rows(
                alg, deg, w, sorted(_shell_pairs(alg, deg, w)))]
    return ConstraintSystem(alg.compiled(), w.basis(alg.parities), rows)


# --- exact linear algebra --------------------------------------------------------

def _insert_row(pivots: dict, row: dict) -> None:
    """Reduce `row` against the maintained reduced echelon set; insert if nonzero.

    The pivot is the leftmost column, which together with the mutual
    reduction yields the unique reduced echelon form of the span.  Entries
    of `row` must be nonzero.
    """
    for c in sorted(row):
        if c in row and c in pivots:
            f = row[c]
            for cc, vv in pivots[c].items():
                cur = row.get(cc)
                t = -(f * vv) if cur is None else cur - f * vv
                if t:
                    row[cc] = t
                else:
                    row.pop(cc, None)
    if not row:
        return
    p = min(row)
    f = inv(row[p])
    prow = {c: v * f for c, v in row.items()}
    for per in pivots.values():
        g = per.get(p)
        if g:
            for cc, vv in prow.items():
                cur = per.get(cc)
                t = -(g * vv) if cur is None else cur - g * vv
                if t:
                    per[cc] = t
                else:
                    per.pop(cc, None)
    pivots[p] = prow


def _rref_vectors(vectors: Iterable[dict]) -> list[dict]:
    """Canonical reduced echelon basis of the span, rows ordered by pivot."""
    pivots: dict = {}
    for vec in vectors:
        _insert_row(pivots, dict(vec))
    return [pivots[p] for p in sorted(pivots)]


def _kernel(rows: Iterable[dict], cols: Sequence, one: Scalar) -> list[dict]:
    """A null-space basis of the row system over the given columns, not echeloned."""
    pivots: dict = {}
    ncols = len(cols)
    for row in rows:
        _insert_row(pivots, dict(row))
        if len(pivots) == ncols:
            return []
    vecs = []
    for f in cols:
        if f in pivots:
            continue
        v = {f: one}
        for p, prow in pivots.items():
            c = prow.get(f)
            if c:
                v[p] = -c
        vecs.append(v)
    return vecs


class _ZeroPropagation:
    """Online zero propagation: rows arrive one at a time.

    A row with one live unknown forces it to zero, and every stored row
    that is left with one live unknown forces that one in turn.  A forced
    unknown is zero in every solution of the rows fed so far, which are rows
    of the system, so it is zero in every solution of the whole system.
    """

    def __init__(self, n: int):
        self.forced = bytearray(n)
        self.order: list[int] = []  # the forced unknowns, in the order forced
        self.left = n  # unknowns not yet forced
        self.rows: list[list[tuple[int, object]]] = []  # live entries on arrival
        self.counts: list[int] = []  # live entries now
        self.occ: list[list[int]] = [[] for _ in range(n)]

    def add(self, entries: Entries) -> bool:
        """Feed one row; True once every unknown is forced."""
        forced = self.forced
        live = [(u, v) for u, v in entries if not forced[u]]
        if len(live) == 1:
            self._force(live[0][0])
        elif live:
            rid = len(self.rows)
            self.rows.append(live)
            self.counts.append(len(live))
            for u, _v in live:
                self.occ[u].append(rid)
        return not self.left

    def _force(self, u: int) -> None:
        forced, counts, rows, occ = self.forced, self.counts, self.rows, self.occ
        forced[u] = 1
        self.order.append(u)
        self.left -= 1
        stack = [u]
        while stack:
            for rid in occ[stack.pop()]:
                counts[rid] -= 1
                if counts[rid] == 1:
                    for uu, _v in rows[rid]:
                        if not forced[uu]:
                            forced[uu] = 1
                            self.order.append(uu)
                            self.left -= 1
                            stack.append(uu)
                            break


# --- modular echelon ---------------------------------------------------------------

# Rows are reduced modulo _PRIME, generic rows after evaluation at
# q = _Q0.  _PRIME stays below 2**31, so a product of two residues stays
# below 2**62 and never grows into a multi-word int.
_PRIME = 2**31 - 1
_Q0 = 1_000_003


class _ModpEchelon:
    """A reduced row-echelon set mod _PRIME that rows join in batches.

    `pivots` maps each pivot column to its row (column -> residue), one at
    the pivot and zero at every other pivot column.  `users` maps each
    other column to the pivots whose row has an entry there, so a new pivot
    reduces only those rows.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        self.users: dict[int, set[int]] = {}


def _modp_pivot_rows(ech: _ModpEchelon, rows: Iterable[Sequence[tuple[int, object]]],
                     generic: bool, ncols: int) -> None:
    """Add rows to the echelon mod _PRIME; stop at ncols pivots (full column rank).

    The number r of pivots bounds the exact rank of the rows fed from below:
    an r x r minor that is nonzero mod _PRIME at q = _Q0 is nonzero over Q,
    and over Q(q).  So ncols - r, the non-pivot columns, bounds their exact
    kernel's dimension from above (`_lifted_kernel`).  A new row needs one
    pass over the pivot rows of its own columns, since pivot rows are
    mutually reduced.
    """
    p, q0 = _PRIME, _Q0
    pivots, users = ech.pivots, ech.users
    # the row subtractions are written out: a call per subtraction cost
    # about 7 % of classify at fixed q
    for entries in rows:
        row = {}
        for u, v in entries:
            if generic:
                acc = 0
                for c in reversed(v):
                    acc = (acc * q0 + c) % p
                v = acc
            else:
                v %= p
            if v:
                row[u] = v
        for u in [u for u in row if u in pivots]:
            f = row[u]
            for c, v in pivots[u].items():
                t = (row.get(c, 0) - f * v) % p
                if t:
                    row[c] = t
                else:
                    del row[c]
        if not row:
            continue
        piv = min(row)
        f = pow(row[piv], -1, p)
        new = {c: v * f % p for c, v in row.items()}
        for r in users.pop(piv, ()):
            prow = pivots[r]
            g = prow[piv]
            for c, v in new.items():
                t = (prow.get(c, 0) - g * v) % p
                if not t:
                    del prow[c]
                    if c != piv:
                        users[c].discard(r)
                else:
                    if c not in prow:
                        users.setdefault(c, set()).add(r)
                    prow[c] = t
        pivots[piv] = new
        for c in new:
            if c != piv:
                users.setdefault(c, set()).add(piv)
        if len(pivots) == ncols:
            break


def _reconstruct(u: int) -> Fraction | None:
    """The fraction a/b = u mod _PRIME with |a|, b <= isqrt(_PRIME // 2), or None.

    Wang's rational reconstruction: the extended Euclidean algorithm on
    (_PRIME, u), stopped at the first remainder within the bound, finds a/b
    whenever it exists (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 5).  For an odd prime two such fractions a/b and c/d have
    |ad - bc| < _PRIME, so at most one exists.
    """
    p = _PRIME
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u % p, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lifted_kernel(ech: _ModpEchelon, live: Sequence[int], forced: bytearray,
                   q: Fraction | None) -> list[dict] | None:
    """One vector per live non-pivot column f of the echelon: one at f and
    minus column f at each pivot, every residue lifted by `_reconstruct` (to
    a q-free constant in generic mode).  None when a residue has no lift or
    a vector has an entry at a forced column; the caller checks the rows.
    """
    p, pivots, users = _PRIME, ech.pivots, ech.users
    one = scalar_one(q)
    vecs = []
    for f in live:
        if f in pivots:
            continue
        vec = {f: one}
        for piv in users.get(f, ()):
            c = _reconstruct(-pivots[piv][f] % p)
            if c is None or forced[piv]:
                return None
            vec[piv] = from_fraction(c, q)
        vecs.append(vec)
    return vecs


def _row_violated(ivec: dict, comp: CompiledAlgebra) -> Callable[[Entries], bool]:
    """Whether a raw row's product with the raw vector is nonzero.

    A generic vector with no q in it, as every lifted kernel is, is checked
    by integer multiply-accumulate per power of q; the accumulator is sized
    from the row, whose values may carry more powers than `comp.D`.
    """
    if comp.generic and all(len(w) == 1 for w in ivec.values()):
        flat = {u: w[0] for u, w in ivec.items()}

        def violated_flat(entries: Entries) -> bool:
            acc = [0] * max((len(v) for _u, v in entries), default=0)
            for u, v in entries:
                w = flat.get(u)
                if w is not None:
                    for j, c in enumerate(v):
                        acc[j] += c * w
            return any(acc)
        return violated_flat

    def violated(entries: Entries) -> bool:
        acc = comp.zero
        for u, v in entries:
            if u in ivec:
                acc += v * ivec[u]
        return bool(acc)
    return violated


@dataclass
class NullSpaceBasis:
    """Exact solution space in canonical reduced echelon form.

    Vectors are tables over the unknown labels (BasisIndex, ordered
    (parity, m, i), for half-derivations); the pivot of each vector is its
    least label, with coefficient one and zeros at the pivots of the other
    vectors.
    """

    dimension: int
    vectors: list[dict[BasisIndex, Scalar]]

    def contains(self, table: dict[BasisIndex, Scalar]) -> bool:
        table = {k: v for k, v in table.items() if v}
        return len(_rref_vectors(self.vectors + [table])) == self.dimension

    def tables_json(self) -> list[list[dict]]:
        return [[{"parity": parity_name(k.parity), "m": k.m, "i": k.i,
                  "value": str(v)} for k, v in sorted(vec.items())]
                for vec in self.vectors]


# The early-stop echelon takes what propagation did at most every _BATCH
# streamed rows, so its set-up is paid once per batch and a stop comes at
# most _BATCH rows late.
_BATCH = 64


def null_space(cs: ConstraintSystem) -> NullSpaceBasis:
    """The exact null space of cs, in canonical reduced echelon form.

    Each row's Entries (row[0]) are zero-propagated as the row is read,
    until the kernel is proved zero or the rows run out.  Each batch gives
    the echelon `ech` mod _PRIME a unit row for each column forced since the
    last batch, then the rows propagation kept since then, forced columns
    dropped.  A unit row stands for the rows that forced its column, which
    propagation does not keep; the echelon's rank is the number of forced
    columns plus the rank of the kept rows on the live ones.  Rank n, that
    is rank `prop.left` on the live columns, proves the kernel zero: a
    forced unknown is zero in every solution, a kept row restricted to the
    live columns is a row of the system restricted to them, and reducing
    mod p or fixing q = _Q0 can only lower rank.

    A batch runs every _BATCH rows, but waits while some live unknown lies
    in no kept row, since the rank on the live columns cannot be full then.
    This delays no stop, and a system that propagation settles alone feeds
    the echelon much less.  After the last row one more batch runs, unless
    a certified lift stands or no kept row has a live entry left.

    The kernel is lifted from the echelon, one vector per live non-pivot
    column (`_lifted_kernel`), and certified in three parts (`certified`).
    Upper bound: as for the early stop, the exact kernel's dimension is at
    most the number of live non-pivot columns (a forced column the echelon
    has not seen would add a unit row).  Exact check: each vector is zero
    on the forced unknowns and every kept row vanishes on it, in integer
    arithmetic.  Independence: each vector has its own free column.  So the
    vectors span the kernel of the rows read so far.

    A batch that leaves the rank unchanged lifts too, and a certified lift
    starts check mode: each later row is checked against the vectors, and
    one that vanishes on all of them lies in the row space of the rows read
    so far, so it is dropped before propagation and the echelon.  The first
    row that fails goes on as before and ends check mode, until the next
    batch that leaves the rank unchanged.  After the last row the standing
    certified lift is the kernel; without one the lift is tried once more,
    and when a residue has no lift or a kept row fails (the kernel depends
    on q, an entry lies beyond the reconstruction bound, or the mod-p rank
    fell short), all kept rows, which are every row not dropped, are solved
    exactly instead.
    """
    comp, unknowns = cs.algebra, cs.unknowns
    n = len(unknowns)
    prop = _ZeroPropagation(n)
    forced, counts, occ = prop.forced, prop.counts, prop.occ
    ech = _ModpEchelon()
    units = kept = 0  # forced columns and kept rows the echelon has seen

    def batch() -> bool:
        """Feed `ech` what propagation did since the last batch; True at rank n."""
        nonlocal units, kept
        new_units = prop.order[units:]
        ids = [rid for rid in range(kept, len(counts)) if counts[rid] >= 2]
        units, kept = len(prop.order), len(counts)
        _modp_pivot_rows(
            ech, [[(u, comp.one)] for u in new_units]
            + [[(u, v) for u, v in prop.rows[rid] if not forced[u]] for rid in ids],
            comp.generic, n)
        return len(ech.pivots) == n

    def certified() -> tuple[list[dict], list[Callable[[Entries], bool]]] | None:
        """The kernel lifted from `ech` just after a batch and its row checks,
        if it holds on every row read so far; None otherwise."""
        vecs = _lifted_kernel(ech, [u for u in range(n) if not forced[u]], forced, comp.q)
        if vecs is None:
            return None
        checks = [_row_violated(comp.raw(vec)[0], comp) for vec in vecs]
        if any(count >= 2 and any(check(row) for check in checks)
               for row, count in zip(prop.rows, counts)):
            return None
        return vecs, checks

    zero = NullSpaceBasis(dimension=0, vectors=[])
    lifted = None  # check mode: the certified kernel and its row checks
    rows = cs.rows(forced) if callable(cs.rows) else cs.rows
    for k, row in enumerate(rows, 1):
        if lifted:
            if not any(check(row[0]) for check in lifted[1]):
                continue
            lifted = None
        if prop.add(row[0]):
            return zero
        if not k % _BATCH and all(occ[u] for u in range(n) if not forced[u]):
            rank = len(ech.pivots)
            if batch():
                return zero
            if len(ech.pivots) == rank:
                lifted = certified()
    if not lifted:
        residual = [prop.rows[rid] for rid, count in enumerate(counts) if count >= 2]
        if residual and batch():
            return zero
        lifted = certified()
    vecs = lifted[0] if lifted else _kernel(
        [{u: comp.lift(v) for u, v in row if not forced[u]} for row in residual],
        [u for u in range(n) if not forced[u]], scalar_one(comp.q))
    tables = _rref_vectors([{unknowns[u]: v for u, v in vec.items()} for vec in vecs])
    return NullSpaceBasis(dimension=len(tables), vectors=tables)


# --- window stabilization ---------------------------------------------------------

@dataclass
class StabilizeResult:
    """`window_dims` counts, after the first window, the seeded kernels."""

    stable_dim: int
    basis: NullSpaceBasis
    window_dims: list[int]
    intersection_dims: list[int]
    warning: bool


def _seeded(cs: ConstraintSystem, zeros: set) -> ConstraintSystem:
    """cs with a unit row in front of its rows for each unknown labelled in
    `zeros`.  On a nested ladder cs implies them (see `stabilize`); they let
    propagation force those unknowns at once and the lazy source skip pairs."""
    one = cs.algebra.one
    seeds = [(((u, one),),) for u, label in enumerate(cs.unknowns) if label in zeros]
    rows = cs.rows
    return ConstraintSystem(
        cs.algebra, cs.unknowns,
        (lambda forced: chain(seeds, rows(forced))) if callable(rows) else chain(seeds, rows))


def stabilize(system: Callable[[Window], ConstraintSystem],
              windows: Sequence[Window]) -> StabilizeResult:
    """Intersect the null spaces of system(w) over nested windows, restricted
    to the unknowns of system(windows[0]).

    Kills truncation-boundary solutions without guessing extension behavior;
    the warning flag is set when the last window still changed the answer.
    Each window must lie inside the next and differ from it: a repeated
    window changes nothing, so it could never flag an unstable degree.

    The ladder must be nested: every unknown and row of system(w) is one of
    the next window's, as a half-derivation row depends only on its pair
    and degree.  Each later kernel, restricted to the first window's
    unknowns, then lies in the running intersection `current`, and so is
    the next one.  Later windows are seeded with a unit row for each
    first-window unknown off the support of `current`, rows a nested ladder
    implies.  For any systems, a v in ker(w) whose restriction lies in
    span(current) is zero off its support and survives them, so one rank
    test per window (the restricted kernel lies in span(current)) makes
    each step exact; a ladder that fails it is not nested: ValueError.  The
    seeds are real rows, so `null_space`'s certificate and fallback hold.
    """
    if len(windows) < 2:
        raise ValueError("stabilize needs at least two nested windows")
    for a, b in zip(windows, windows[1:]):
        if not (a <= b and a != b):
            raise ValueError("windows must be strictly ascending")
    cs0 = system(windows[0])
    labels0 = set(cs0.unknowns)
    ns0 = null_space(cs0)
    window_dims = [ns0.dimension]
    current = ns0.vectors
    inter_dims = [len(current)]
    for w in windows[1:]:
        if not current:
            # intersections only shrink; an empty one is final
            inter_dims.append(0)
            continue
        support = {k for vec in current for k in vec}
        ns = null_space(_seeded(system(w), labels0 - support))
        window_dims.append(ns.dimension)
        restricted = _rref_vectors([{k: v for k, v in vec.items() if k in labels0}
                                    for vec in ns.vectors])
        if len(_rref_vectors(current + restricted)) != len(current):
            raise ValueError(f"the kernel of window {w}, restricted to the first window, "
                             "leaves the running intersection: the ladder is not nested")
        current = restricted
        inter_dims.append(len(current))
    warning = inter_dims[-1] != inter_dims[-2]
    basis = NullSpaceBasis(dimension=len(current), vectors=current)
    return StabilizeResult(stable_dim=len(current), basis=basis,
                           window_dims=window_dims, intersection_dims=inter_dims,
                           warning=warning)


# --- named maps -------------------------------------------------------------------

NAMED_MAPS = ("id", "alpha", "beta", "gamma", "delta", "epsilon")


def _require_super(alg: AlgebraSpec, name: str) -> None:
    if not alg.is_super:
        raise UnknownMapName(f"{name} is only defined on the superalgebra")


def builtin_map(name: str, alg: AlgebraSpec, w: Window) -> GradedMap:
    """Closed-form maps restricted to a window, at the algebra's q.

    id is multiplication by one; alpha hits L[0,-2q] (q in Z); beta hits
    G[0,0] (q = 0); gamma sends G[0,-3q/2] to L[0,-q] (q in 2Z); delta sends
    L[0,0] to G[0,0] and epsilon sends every L[m,i] to G[m,i] (both q = 0).
    """
    q = alg.q
    one = scalar_one(q)
    if name in ("id", "identity"):
        table = {idx: one for idx in w.basis(alg.parities)}
        return GradedMap(MapDegree(EVEN, 0, 0), table)
    if name == "alpha":
        if q is None or q.denominator != 1:
            raise IntegralityViolation(f"alpha needs q in Z, got {format_q(q)}")
        qi = q.numerator
        table = {}
        if w.contains(0, -2 * qi):
            table[BasisIndex(EVEN, 0, -2 * qi)] = one
        return GradedMap(MapDegree(EVEN, 0, qi), table)
    if name == "beta":
        _require_super(alg, "beta")
        if q is None or q != 0:
            raise WrongQ(f"beta needs q = 0, got {format_q(q)}")
        table = {BasisIndex(ODD, 0, 0): one} if w.contains(0, 0) else {}
        return GradedMap(MapDegree(EVEN, 0, 0), table)
    if name == "gamma":
        _require_super(alg, "gamma")
        if q is None or q.denominator != 1 or q.numerator % 2:
            raise IntegralityViolation(f"gamma needs q in 2Z, got {format_q(q)}")
        qi = q.numerator
        table = {}
        if w.contains(0, -3 * qi // 2):
            table[BasisIndex(ODD, 0, -3 * qi // 2)] = one
        return GradedMap(MapDegree(ODD, 0, qi // 2), table)
    if name == "delta":
        _require_super(alg, "delta")
        if q is None or q != 0:
            raise WrongQ(f"delta needs q = 0, got {format_q(q)}")
        table = {BasisIndex(EVEN, 0, 0): one} if w.contains(0, 0) else {}
        return GradedMap(MapDegree(ODD, 0, 0), table)
    if name == "epsilon":
        _require_super(alg, "epsilon")
        if q is None or q != 0:
            raise WrongQ(f"epsilon needs q = 0, got {format_q(q)}")
        table = {BasisIndex(EVEN, m, i): one for m, i in w.points()}
        return GradedMap(MapDegree(ODD, 0, 0), table)
    raise UnknownMapName(f"no built-in map named {name!r}")


def shift_map(alg: AlgebraSpec, w: Window) -> GradedMap:
    """Index shift L[m,i] -> L[m+1,i] (and G likewise); deliberately not a
    half-derivation, useful as a failing specimen."""
    one = scalar_one(alg.q)
    table = {idx: one for idx in w.basis(alg.parities)}
    return GradedMap(MapDegree(EVEN, 1, 0), table)


# --- membership and verification ---------------------------------------------------

def half_derivation_terms(comp: CompiledAlgebra,
                          images: Callable[[BasisIndex], Iterable[tuple[BasisIndex, object]]],
                          odd: Parity
                          ) -> Callable[[BasisIndex, BasisIndex], tuple[dict, dict] | None]:
    """The half-derivation identity of a map phi of parity `odd` on the
    compiled layer, phi given by its raw images: `images(u)` lists the
    (index, raw coefficient) terms of phi(u).

    At (x, y) it returns None where 2 phi([x,y]) = [phi(x),y] +
    (-1)^{odd |x|}[x,phi(y)], and otherwise those two sides, each a dict
    from output index to raw value.  [x,y] is a single term c (x+y),
    so 2 phi([x,y]) = 2c phi(x+y).  With phi the left multiplication
    u -> z.u and odd = |z|, this is the transposed Leibniz law at (z, x, y).
    """
    coeff, zero = comp.coeff, comp.zero

    def terms(x: BasisIndex, y: BasisIndex) -> tuple[dict, dict] | None:
        c = coeff(x, y)
        lhs = {t: a * (c + c) for t, a in images(x.plus(y))} if c else {}
        rhs = {t.plus(y): a * coeff(t, y) for t, a in images(x)}
        flip = odd and x.parity  # the sign (-1)^{odd |x|}
        for t, a in images(y):
            key, v = x.plus(t), a * coeff(x, t)
            rhs[key] = rhs.get(key, zero) + (-v if flip else v)
        differ = any(lhs.get(k, zero) - rhs.get(k, zero) for k in lhs.keys() | rhs.keys())
        return (lhs, rhs) if differ else None
    return terms


def half_derivation_sides(comp: CompiledAlgebra, found: tuple[dict, dict],
                          factor: Scalar) -> tuple[SparseVector, SparseVector]:
    """The witness of a failing pair, which perfbench's trace times by this
    name: the raw sides `half_derivation_terms` returned, each value a
    structure constant times an image cleared by `factor`, lifted."""
    return comp.lift_sides(found, 1, factor)


def check_map(alg: AlgebraSpec, gm: GradedMap, w: Window) -> VerificationReport:
    """Evaluate every generated constraint row at the map's table.

    A violated row's pair gets its witness from `half_derivation_terms`."""
    cs = build_constraints(alg, gm.degree, w)
    comp = cs.algebra
    raw, factor = comp.raw({idx: gm.table[idx] for idx in cs.unknowns if idx in gm.table})
    ivec = {u: raw[idx] for u, idx in enumerate(cs.unknowns) if idx in raw}
    terms = half_derivation_terms(
        comp, lambda u: ((gm.image_index(u), raw[u]),) if u in raw else (),
        gm.degree.parity_shift)
    rows = {(x, y): entries for entries, x, y in cs.rows}
    violated = _row_violated(ivec, comp)
    return check_identity(rows, lambda x, y: violated(rows[x, y]) and (x, y),
                          lambda pair: half_derivation_sides(comp, terms(*pair), factor),
                          len(cs.rows))


# --- classification ------------------------------------------------------------------

@dataclass
class DegreeResult:
    r: int
    s: int
    stable_dim: int
    matched_names: list[str]
    basis: NullSpaceBasis


@dataclass
class ClassificationReport:
    algebra: str
    q: Fraction | None
    parity_shift: Parity
    degrees: list[DegreeResult]
    total_dim: int
    warnings: list[str]
    bounds: tuple[int, int]
    windows: tuple[Window, ...]

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "q": format_q(self.q),
            "parity_shift": parity_name(self.parity_shift),
            "bounds": [self.bounds[0], self.bounds[1]],
            "windows": [str(w) for w in self.windows],
            "degrees": [{
                "r": d.r, "s": d.s, "stable_dim": d.stable_dim,
                "matched_names": d.matched_names,
                "basis_tables": d.basis.tables_json(),
            } for d in self.degrees],
            "total_dim": self.total_dim,
            "warnings": self.warnings,
        }


def named_candidates(alg: AlgebraSpec, w: Window) -> dict[MapDegree, list[tuple[str, GradedMap]]]:
    """Built-in maps constructible at this q, grouped by degree."""
    out: dict[MapDegree, list[tuple[str, GradedMap]]] = {}
    for name in NAMED_MAPS:
        try:
            gm = builtin_map(name, alg, w)
        except (IntegralityViolation, WrongQ, UnknownMapName):
            continue
        if gm.is_zero:
            continue
        out.setdefault(gm.degree, []).append((name, gm))
    return out


def _reflection(alg: AlgebraSpec, shift: Parity) -> tuple[int, ...] | None:
    """Signs sigma[p] = +-1 under which m -> -m maps degree (r, s) onto (-r, s), or None.

    tau(p1, p2) = (-1)^(e_m + e_n) must be one sign over the monomials of
    rule (p1, p2) (1 for a zero rule, which can only reject), and the row of
    each pair of parities (p1, p2) the system takes (`_parity_pairs`) then
    changes by tau(p1, p2) sigma(p1 + p2), tau(p1 + shift, p2) sigma(p1) and
    tau(p1, p2 + shift) sigma(p2) in its three terms, which must agree.
    """
    tau = {}
    for key, monos in alg.rules.items():
        signs = {(-1) ** (em + en) for em, _ei, en, _ej, _eq in monos}
        if len(signs) > 1:
            return None
        tau[key] = signs.pop() if signs else 1
    pairs = _parity_pairs(alg, MapDegree(shift, 0, 0))
    for sigma in product((1, -1), repeat=len(alg.parities)):
        if all(tau[p1, p2] * sigma[p1 ^ p2] == tau[p1 ^ shift, p2] * sigma[p1]
               == tau[p1, p2 ^ shift] * sigma[p2] for p1, p2 in pairs):
            return sigma
    return None


def _mirrored(st: StabilizeResult, sigma: tuple[int, ...]) -> StabilizeResult:
    """The result of degree (-r, s) from that of (r, s): its basis mapped by
    T and put back in canonical echelon form; every dimension is the same."""
    vectors = _rref_vectors([{BasisIndex(k.parity, -k.m, k.i): v if sigma[k.parity] > 0 else -v
                              for k, v in vec.items()} for vec in st.basis.vectors])
    return replace(st, basis=NullSpaceBasis(dimension=len(vectors), vectors=vectors))


def classify(alg: AlgebraSpec, parity_shift: Parity, bounds: tuple[int, int],
             windows: Sequence[Window]) -> ClassificationReport:
    """Stabilized null-space dimensions for every degree |r| <= R, |s| <= S.

    Every degree is solved by `stabilize`, except that when `_reflection`
    finds signs for the spec's rules only r >= 0 is, and each r < 0 degree
    is mirrored from (-r, s).
    """
    R, S = bounds
    candidates = named_candidates(alg, windows[0])
    sigma = _reflection(alg, parity_shift)
    solved = {(r, s): stabilize(half_derivation_system(alg, MapDegree(parity_shift, r, s)),
                                windows)
              for r in range(0 if sigma else -R, R + 1) for s in range(-S, S + 1)}
    degrees: list[DegreeResult] = []
    warnings: list[str] = []
    total = 0
    for r in range(-R, R + 1):
        for s in range(-S, S + 1):
            deg = MapDegree(parity_shift, r, s)
            st = solved[r, s] if (r, s) in solved else _mirrored(solved[-r, s], sigma)
            if st.warning:
                warnings.append(f"degree ({r},{s}) did not stabilize: "
                                f"intersection dims {st.intersection_dims}")
            if st.stable_dim:
                matched = [name for name, gm in candidates.get(deg, ())
                           if st.basis.contains(gm.table)]
                degrees.append(DegreeResult(r=r, s=s, stable_dim=st.stable_dim,
                                            matched_names=matched, basis=st.basis))
                total += st.stable_dim
    return ClassificationReport(algebra=alg.name, q=alg.q, parity_shift=parity_shift,
                                degrees=degrees, total_dim=total, warnings=warnings,
                                bounds=(R, S), windows=tuple(windows))
