"""The quadratic space over GF(2) carried by an even lattice mod 2.

Vectors of the rank-n reduction are bitmask ints (bit i = coordinate i
in the lattice basis). Everything derives from the polar matrix
B = Gram mod 2, the reduced bilinear form b(u, v) = u·Bv: the quadratic
form q(v) = (v, v)/2 mod 2 is tabulated over all 2^n vectors by the
recurrence q(w + e_i) = q(w) + q(e_i) + b(w, e_i). A linear map over
GF(2) is given by its column bitmasks and applied only through the
table of its images of all 2^n vectors (mat2_images): its order, the
kernels of polynomials in it and the invariance of q and of each
Lagrangian are all read off that one table. The table of a list of
vectors is their span, and the census reads the Witt basis's tables.
All reduction mod 2 of the lattice side lives here, the factoring of
integer polynomials over GF(2) included.

Totally singular subspaces of half dimension are listed from a Witt
basis e_1..e_h, f_1..f_h (q(e_i) = q(f_i) = 0, b(e_i, f_j) = [i = j];
D. E. Taylor, The Geometry of the Classical Groups, 1992, ch. 11). A
Lagrangian L meets F = <f> in some W, projects onto the annihilator of
W in E = <e>, and is the graph over it of an alternating form; so each
pair (W, alternating form) is exactly one member and the census needs
no search and no dedup set. Members stay unreduced: their family is
read off dim W, and L = L^perp reduces invariance to the polar form.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from . import lattice as lat
from .errors import InvariantViolation
from .gf2m import field_make
from .unipoly import UniPoly, factor as gf2_factor


class Mod2QuadSpace:
    """q(v) = (half the even Gram norm) mod 2, tabulated over the
    2^dim vectors."""

    __slots__ = ("dim", "q")

    def __init__(self, gram):
        if not lat.e10_parity_check(gram):
            raise InvariantViolation(
                "gram is not even and symmetric; no quadratic refinement")
        n = self.dim = len(gram)
        polar = mat2_from_int(gram)
        q = [0] * (1 << n)
        for v in range(1, 1 << n):
            i = (v & -v).bit_length() - 1
            w = v ^ (1 << i)
            q[v] = q[w] ^ (gram[i][i] // 2) % 2 ^ (
                (w & polar[i]).bit_count() & 1)
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


def mat2_images(cols) -> list:
    """M v for every v in GF(2)^n, indexed by v: one XOR per vector,
    since M v = M (v - e_i) + M e_i for the lowest set bit e_i of v."""
    image = [0] * (1 << len(cols))
    for v in range(1, len(image)):
        low = v & -v
        image[v] = image[v ^ low] ^ cols[low.bit_length() - 1]
    return image


def rref_rows(vectors) -> tuple:
    """Canonical RREF row tuple (descending pivots) of a span.

    Forward elimination first: each vector is reduced on its leading
    bit only, until that bit is a new pivot."""
    red = {}
    for r in vectors:
        while r:
            p = r.bit_length() - 1
            if p not in red:
                red[p] = r
                break
            r ^= red[p]
    done = []  # reduced rows: each is 0 at every other pivot
    for p in sorted(red):
        r = red[p]
        for s in done:
            if (r >> (s.bit_length() - 1)) & 1:
                r ^= s
        done.append(r)
    return tuple(reversed(done))


# ---------------------------------------------------------------------------
# action analysis


class KernelRecord:
    """The kernel of p(M) for an irreducible factor p of cp mod 2: its
    RREF rows, and whether q vanishes on all of it."""

    __slots__ = ("factor", "multiplicity", "kernel", "totally_singular")

    def __init__(self, factor, multiplicity, kernel, totally_singular):
        self.factor = factor
        self.multiplicity = multiplicity
        self.kernel = kernel
        self.totally_singular = totally_singular


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


def mod2_action_analysis(space, cp, images) -> Mod2ActionReport:
    """Order and irreducible-factor kernels of a linear map M over GF(2).

    images = mat2_images(M), M the reduction mod 2 of an isometry of the
    even lattice whose quadratic space is space; cp is the isometry's
    characteristic polynomial. The order is the lcm of the orbit lengths
    of the basis vectors (InvariantViolation when one never returns, so
    M is not invertible). For each irreducible factor p_i of cp mod 2,
    the columns of p_i(M) are walked off the table, and the zero set of
    their own image table is the kernel: it is reported by its RREF rows
    and whether q vanishes on all of it. q is checked invariant on the
    table as well.
    """
    order = 1
    for j in range(space.dim):
        v, length = images[1 << j], 1
        while v != 1 << j:
            if length == len(images):
                raise InvariantViolation("matrix mod 2 is not invertible")
            v, length = images[v], length + 1
        order = lcm(order, length)
    records = []
    for coeffs, mult in mod2_reduce_and_factor(cp):
        cols = []
        for j in range(space.dim):
            v, col = 1 << j, 0
            for c in coeffs:  # col = p_i(M) e_j
                if c:
                    col ^= v
                v = images[v]
            cols.append(col)
        ker = [v for v, w in enumerate(mat2_images(cols)) if not w]
        records.append(KernelRecord(tuple(coeffs), mult, rref_rows(ker),
                                    all(space.q[v] == 0 for v in ker)))
    preserves = all(space.q[w] == q for w, q in zip(images, space.q))
    return Mod2ActionReport(order, preserves, records)


# ---------------------------------------------------------------------------
# the Lagrangian census


class LagrangianCensus:
    """All half-dimension totally singular subspaces of a plus-type space.

    members: one row list per member, as the Witt-basis walk generates
    it (spanning, not reduced). F = <f> is itself a member, and two
    members lie in one family exactly when their intersection dimension
    is congruent to the half dimension h mod 2; so a member meeting F
    in W has class (h - dim W) mod 2, and class 0 is F's family.
    members[:split] are class 0, the rest class 1.
    """

    __slots__ = ("members", "split", "q")

    def __init__(self, space, members, split):
        self.members = members
        self.split = split
        self.q = space.q

    def class_sizes(self):
        return (self.split, len(self.members) - self.split)

    def invariant_members(self, images):
        """(RREF rows, class) of each member L with M L = L, for images =
        mat2_images(M mod 2): L = L^perp, so that holds iff b(M r, s) = 0
        for all rows r, s of L, tested up to the first nonzero pairing."""
        q = self.q
        out = []
        for i, rows in enumerate(self.members):
            for r in rows:
                m = images[r]
                qm = q[m]
                for s in rows:
                    if q[m ^ s] ^ qm ^ q[s]:
                        break
                else:
                    continue
                break
            else:
                out.append((rref_rows(rows), int(i >= self.split)))
        return out


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
        e = min((v for v in mat2_images(comp) if v and not q[v]),
                default=0)
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
    gains f_d and row d gains f_c. Each member keeps the rows the walk
    made, in the lattice basis, unreduced; the members of F's family are
    listed first.
    """
    es, fs = _witt_basis(space)
    h = len(es)
    e_of, f_of = mat2_images(es), mat2_images(fs)
    out = ([], [])  # by class
    for j in range(h + 1):
        family = out[(h - j) % 2]
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
                base = [f_of[w] for w in wrows]
                rows = [e_of[1 << c | sum(
                    1 << p for p, w in zip(piv, wrows) if w >> c & 1)]
                    for c in free]
                family.append(base + rows)
                for g in range(1, 1 << len(pairs)):
                    c, d = pairs[(g & -g).bit_length() - 1]
                    rows[c] ^= fs[free[d]]
                    rows[d] ^= fs[free[c]]
                    family.append(base + rows)
    return LagrangianCensus(space, out[0] + out[1], len(out[0]))
