"""The quadratic space over GF(2) carried by an even lattice mod 2.

Vectors of the rank-n reduction are bitmask ints (bit i = coordinate i
in the lattice basis). Everything derives from the polar matrix
B = Gram mod 2, the reduced bilinear form b(u, v) = u·Bv: the quadratic
form q(v) = (v, v)/2 mod 2 is tabulated over all 2^n vectors by the
recurrence q(w + e_i) = q(w) + q(e_i) + b(w, e_i). Matrices over GF(2)
are tuples of column bitmasks. All reduction mod 2 of the lattice side
lives here, the factoring of integer polynomials over GF(2) included.

Totally singular subspaces of half dimension are listed from a Witt
basis e_1..e_h, f_1..f_h (q(e_i) = q(f_i) = 0, b(e_i, f_j) = [i = j];
D. E. Taylor, The Geometry of the Classical Groups, 1992, ch. 11). A
Lagrangian L meets F = <f> in some W, projects onto the annihilator of
W in E = <e>, and is the graph over it of an alternating form; so each
pair (W, alternating form) is exactly one member and the census needs
no search and no dedup set.
"""

from __future__ import annotations

from itertools import combinations

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


def mat2_images(cols) -> list:
    """M v for every v in GF(2)^n, indexed by v: one XOR per vector,
    since M v = M (v - e_i) + M e_i for the lowest set bit e_i of v."""
    image = [0] * (1 << len(cols))
    for v in range(1, len(image)):
        low = v & -v
        image[v] = image[v ^ low] ^ cols[low.bit_length() - 1]
    return image


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


def mod2_action_analysis(m, ge, space, cp, images) -> Mod2ActionReport:
    """Order and irreducible-factor kernels of an isometry reduced mod 2.

    m: integer matrix on an even-sublattice basis with Gram matrix ge;
    must preserve ge (InvariantViolation otherwise). space is the
    quadratic space of ge, cp the characteristic polynomial of m and
    images = mat2_images(m mod 2), on which q is checked invariant.
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
    preserves = all(space.q[w] == q for w, q in zip(images, space.q))
    return Mod2ActionReport(order, preserves, records)


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

    def invariant_members(self, images):
        """Members L with M L = L, for images = mat2_images(M mod 2)."""
        return [rows for rows in self.members
                if all(subspace_contains(rows, images[r]) for r in rows)]

    def index_of(self, rows) -> int:
        import bisect
        i = bisect.bisect_left(self.members, tuple(rows))
        if i == len(self.members) or self.members[i] != tuple(rows):
            raise KeyError("not a census member")
        return i


def _witt_basis(space: Mod2QuadSpace) -> tuple:
    """Hyperbolic pairs (e_i, f_i) of the whole space, by a Gram-Schmidt
    step that keeps q: e is the smallest singular vector of the current
    complement, f a vector of it with b(e, f) = 1 made singular by
    adding q(f) e, and the complement moves on to <e, f>^perp through
    v -> v + b(v, f) e + b(v, e) f."""
    n = space.dim
    if n % 2:
        raise InvariantViolation(f"census needs an even dimension, got {n}")
    q, b = space.q, space.bilinear
    es, fs = [], []
    comp = rref_rows(1 << i for i in range(n))
    while comp:
        e = min((v for v in span_of(comp) if v and not q[v]), default=0)
        if not e:
            raise InvariantViolation("census needs the plus-type form")
        f = next((v for v in comp if b(e, v)), 0)
        if not f:
            raise InvariantViolation(
                "census needs a nondegenerate polar form")
        if q[f]:
            f ^= e
        es.append(e)
        fs.append(f)
        comp = rref_rows(v ^ (e if b(v, f) else 0) ^ (f if b(v, e) else 0)
                         for v in comp)
    return es, fs


def enumerate_lagrangians(space: Mod2QuadSpace) -> LagrangianCensus:
    """Complete census of a plus-type space of any even dimension 2h.

    With a Witt basis, a member L meets F = <f> in a subspace W, written
    as an RREF in f-coordinates: rows with pivot set P and free bits at
    non-pivot indices below each pivot. For a non-pivot index c,
    u_c = e_c + the e_p of the rows of W with bit c spans the
    annihilator of W in E, and L = W + <u_c + sum_d A[c][d] f_d> for a
    unique alternating matrix A on the non-pivot indices. So every pair
    (W, A) gives one member and no member twice: for h = 5 the counts
    over dim W = 0..5 are 1024 + 1984 + 1240 + 310 + 31 + 1 = 4590. A
    runs in Gray-code order, so each step flips one entry (c, d): row c
    gains f_d and row d gains f_c. Members are mapped to the lattice
    basis, reduced to RREF and sorted once (ascending tuple order).
    """
    es, fs = _witt_basis(space)
    h = len(es)
    out = []
    for j in range(h + 1):
        for piv in combinations(range(h), j):
            free = [c for c in range(h) if c not in piv]
            slots = [(r, c) for r, p in enumerate(piv) for c in free
                     if c < p]
            pairs = list(combinations(range(h - j), 2))
            for fill in range(1 << len(slots)):
                wrows = [1 << p for p in piv]
                for k, (r, c) in enumerate(slots):
                    if fill >> k & 1:
                        wrows[r] |= 1 << c
                base = [mat2_apply(fs, w) for w in wrows]
                rows = [mat2_apply(es, 1 << c | sum(
                    1 << p for p, w in zip(piv, wrows) if w >> c & 1))
                    for c in free]
                out.append(rref_rows(base + rows))
                for g in range(1, 1 << len(pairs)):
                    c, d = pairs[(g & -g).bit_length() - 1]
                    rows[c] ^= fs[free[d]]
                    rows[d] ^= fs[free[c]]
                    out.append(rref_rows(base + rows))
    out.sort()
    return LagrangianCensus(space, out)
