"""The quadratic space over GF(2) carried by an even lattice mod 2.

Vectors of the rank-n reduction are bitmask ints (bit i = coordinate i
in the lattice basis). Everything derives from the polar matrix
B = Gram mod 2, the reduced bilinear form b(u, v) = u·Bv: the quadratic
form q(v) = (v, v)/2 mod 2 is tabulated over all 2^n vectors by the
recurrence q(w + e_i) = q(w) + q(e_i) + b(w, e_i). Matrices over GF(2)
are tuples of column bitmasks. All reduction mod 2 of the lattice side
lives here, the factoring of integer polynomials over GF(2) included.

Totally singular subspaces of half dimension are enumerated by orderly
generation: a subspace is held as its reduced-row-echelon row tuple
(descending pivots), the parent of a dimension-k member is the tuple
with its smallest-pivot row removed, and children are produced only
from their unique parent, so the full census needs no dedup set. Which
rows may follow a row depends on that row alone, so it is tabulated
once per vector as a 2^n-bit mask over the vector universe.
"""

from __future__ import annotations

from .errors import InvariantViolation
from . import lattice as lat
from .gf2m import field_make
from .unipoly import UniPoly, factor as gf2_factor


class Mod2QuadSpace:
    """q(v) = (half the even Gram norm) mod 2, tabulated; polar is the
    polar matrix B = Gram mod 2 as column bitmasks."""

    __slots__ = ("dim", "polar", "q")

    def __init__(self, gram):
        n = len(gram)
        if any(len(r) != n for r in gram):
            raise InvariantViolation("gram must be square")
        if any(gram[i][i] % 2 for i in range(n)):
            raise InvariantViolation(
                "gram is not even; no quadratic refinement")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            raise InvariantViolation("gram is not symmetric")
        self.dim = n
        self.polar = mat2_from_int(gram)
        q = [0] * (1 << n)
        for v in range(1, 1 << n):
            i = (v & -v).bit_length() - 1
            w = v ^ (1 << i)
            q[v] = q[w] ^ (gram[i][i] // 2) % 2 ^ (
                (w & self.polar[i]).bit_count() & 1)
        self.q = tuple(q)

    def bilinear(self, u: int, v: int) -> int:
        return self.q[u ^ v] ^ self.q[u] ^ self.q[v]

    def singular_nonzero_count(self) -> int:
        return sum(1 for v in range(1, 1 << self.dim) if self.q[v] == 0)

    def is_plus_type(self) -> bool:
        """Arf invariant 0: 2^(n-1) + 2^(n/2 - 1) - 1 nonzero singular."""
        n = self.dim
        if n % 2:
            return False
        return (self.singular_nonzero_count()
                == (1 << (n - 1)) + (1 << (n // 2 - 1)) - 1)


# ---------------------------------------------------------------------------
# GF(2) matrices as column bitmasks


def mat2_from_int(m) -> tuple:
    """Columns of an integer matrix reduced mod 2."""
    n = len(m)
    return tuple(sum(((m[i][j] % 2) & 1) << i for i in range(n))
                 for j in range(n))


def mat2_identity(n) -> tuple:
    return tuple(1 << j for j in range(n))


def mat2_apply(cols, v: int) -> int:
    r = 0
    j = 0
    while v:
        if v & 1:
            r ^= cols[j]
        v >>= 1
        j += 1
    return r


def mat2_mul(a, b) -> tuple:
    return tuple(mat2_apply(a, bj) for bj in b)


def mat2_add(a, b) -> tuple:
    return tuple(x ^ y for x, y in zip(a, b))


def mat2_order(cols) -> int:
    n = len(cols)
    ident = mat2_identity(n)
    cur = cols
    for k in range(1, (1 << (2 * n)) + 1):
        if cur == ident:
            return k
        cur = mat2_mul(cols, cur)
    raise InvariantViolation("matrix mod 2 is not invertible")


def mat2_poly_at(cols, coeffs) -> tuple:
    """p(M) over GF(2): coeffs low degree first, each taken mod 2."""
    n = len(cols)
    acc = (0,) * n
    pw = mat2_identity(n)
    for c in coeffs:
        if c % 2:
            acc = mat2_add(acc, pw)
        pw = mat2_mul(cols, pw)
    return acc


def _echelon(vectors) -> dict:
    """Forward elimination: {pivot: row}, independent rows with distinct
    pivots (leading bits) spanning the same space. Each vector is
    reduced on its leading bit only, until that bit is a new pivot."""
    red = {}
    for r in vectors:
        while r:
            p = r.bit_length() - 1
            if p not in red:
                red[p] = r
                break
            r ^= red[p]
    return red


def rref_rows(vectors) -> tuple:
    """Canonical RREF row tuple (descending pivots) of a span."""
    red = _echelon(vectors)
    done = []  # reduced rows: each is 0 at every other pivot
    for p in sorted(red):
        r = red[p]
        for s in done:
            if (r >> (s.bit_length() - 1)) & 1:
                r ^= s
        done.append(r)
    return tuple(reversed(done))


def mat2_kernel(cols) -> list:
    """Basis bitmasks of {v : M v = 0}."""
    n = len(cols)
    red = rref_rows(sum(((cols[j] >> i) & 1) << j for j in range(n))
                    for i in range(n))
    pivots = {r.bit_length() - 1 for r in red}
    ker = []
    for free in range(n):
        if free in pivots:
            continue
        v = 1 << free
        for r in red:
            if (r >> free) & 1:
                v ^= 1 << (r.bit_length() - 1)
        ker.append(v)
    return ker


def span_of(rows):
    s = {0}
    for v in rows:
        s |= {x ^ v for x in s}
    return s


def subspace_contains(rows, v: int) -> bool:
    for r in rows:
        if (v >> (r.bit_length() - 1)) & 1:
            v ^= r
    return v == 0


def intersection_dim(rows_a, rows_b) -> int:
    return len(rows_a) + len(rows_b) - len(_echelon((*rows_a, *rows_b)))


# ---------------------------------------------------------------------------
# action analysis


class KernelRecord:
    __slots__ = ("factor", "multiplicity", "dimension", "totally_singular",
                 "basis")

    def __init__(self, factor, multiplicity, dimension, totally_singular,
                 basis):
        self.factor = factor
        self.multiplicity = multiplicity
        self.dimension = dimension
        self.totally_singular = totally_singular
        self.basis = basis


class Mod2ActionReport:
    __slots__ = ("order", "preserves_form", "invariant_subspaces")

    def __init__(self, order, preserves_form, invariant_subspaces):
        self.order = order
        self.preserves_form = preserves_form
        self.invariant_subspaces = invariant_subspaces


def mod2_reduce_and_factor(p):
    """Irreducible factors over GF(2) of p mod 2, with multiplicities.

    Returns [(coeff bit list low degree first, multiplicity)], sorted.
    """
    gf2 = field_make(1, 0b11)
    f = UniPoly(gf2, [c % 2 for c in p])
    return [([c for c in irr.coeffs], mult) for irr, mult in gf2_factor(f)]


def mod2_action_analysis(m, ge, space, cp) -> Mod2ActionReport:
    """Order and irreducible-factor kernels of an isometry reduced mod 2.

    m: integer matrix on an even-sublattice basis with Gram matrix ge;
    must preserve ge (InvariantViolation otherwise). space is the
    quadratic space of ge and cp the characteristic polynomial of m.
    Kernels are of p_i(m mod 2) for each irreducible factor p_i of cp
    mod 2, each reported with its dimension and whether the quadratic
    form vanishes on all of it.
    """
    if not lat.is_isometry_of(m, ge):
        raise InvariantViolation(
            "matrix does not preserve the sublattice form")
    cols = mat2_from_int(m)
    order = mat2_order(cols)
    records = []
    for coeffs, mult in mod2_reduce_and_factor(cp):
        ker = mat2_kernel(mat2_poly_at(cols, coeffs))
        rows = rref_rows(ker)
        sing = all(space.q[v] == 0 for v in span_of(rows))
        records.append(KernelRecord(tuple(coeffs), mult, len(rows), sing,
                                    rows))
    return Mod2ActionReport(order, _preserves(space, cols), records)


def _preserves(space, cols) -> bool:
    return all(space.q[mat2_apply(cols, v)] == space.q[v]
               for v in range(1 << space.dim))


# ---------------------------------------------------------------------------
# the Lagrangian census


class LagrangianCensus:
    """All half-dimension totally singular subspaces, canonically sorted.

    members: RREF row tuples in ascending tuple order; reference: the
    first member; class_parity[i]: dim(members[i] meet reference) mod 2,
    flipped so 0 means the same class as the reference (intersection
    dimension congruent to half-dim mod 2).
    """

    __slots__ = ("space", "members", "reference", "class_parity")

    def __init__(self, space, members):
        self.space = space
        self.members = members
        self.reference = members[0]
        half = space.dim // 2
        self.class_parity = tuple(
            (intersection_dim(rows, self.reference) - half) % 2
            for rows in members)

    def class_sizes(self):
        ones = sum(self.class_parity)
        return (len(self.members) - ones, ones)

    def invariant_members(self, cols):
        """Members L with (M mod 2) L = L, for a GF(2) column matrix."""
        out = []
        for rows in self.members:
            if all(subspace_contains(rows, mat2_apply(cols, r))
                   for r in rows):
                out.append(rows)
        return out

    def index_of(self, rows) -> int:
        import bisect
        i = bisect.bisect_left(self.members, tuple(rows))
        if i == len(self.members) or self.members[i] != tuple(rows):
            raise KeyError("not a census member")
        return i


def enumerate_lagrangians(space: Mod2QuadSpace) -> LagrangianCensus:
    """Complete census for the 10-dimensional plus-type space.

    Each subspace is reached exactly once: rows are added in strictly
    decreasing pivot order, and a new row must be singular and lie in
    after[v] for every chosen row v. after[v] holds the rows orthogonal
    to v whose pivot is below v's pivot and is not a column where v has
    a 1. So a new row is reduced against the chosen pivots and leaves
    the chosen rows reduced. Removing the smallest-pivot row of any
    RREF tuple recovers its unique parent, so the depth-first walk is
    duplicate-free by construction. It takes candidates in ascending
    order, so it emits members in canonical (ascending tuple) order.
    """
    n = space.dim
    if n != 10:
        raise InvariantViolation(
            f"census is specified for dimension 10, got {n}")
    if not space.is_plus_type():
        raise InvariantViolation("census needs the plus-type form")
    half = n // 2
    universe = 1 << n

    singmask = sum(1 << v for v in range(1, universe) if space.q[v] == 0)
    odd = [0] * universe  # odd[u]: the v with b(u, v) = 1
    for i, f in enumerate(space.polar):
        odd[1 << i] = sum(1 << v for v in range(universe)
                          if (v & f).bit_count() & 1)
    pivots = [0] * universe  # pivots[u]: the v whose pivot is a 1 of u
    after = [0] * universe
    for u in range(1, universe):
        low = u & -u
        odd[u] = odd[u ^ low] ^ odd[low]
        pivots[u] = pivots[u ^ low] | (1 << 2 * low) - (1 << low)
        below = (1 << (1 << (u.bit_length() - 1))) - 2  # 0 < v < 2^pivot(u)
        after[u] = below & ~(odd[u] | pivots[u])

    out = []

    def descend(rows, cand):
        if len(rows) == half:
            out.append(rows)
            return
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            descend(rows + (v,), cand & after[v])

    descend((), singmask)
    return LagrangianCensus(space, out)
