"""Dense univariate polynomials over GF(2^m), with factorization.

Coefficients are stored low degree first as raw bit-ints of the parent
FieldCtx (see gf2m); the zero polynomial is the empty tuple. Division
and evaluation run in the log domain of the field's tables, and
`square`, the one product the package takes, uses Frobenius: in
characteristic 2, (sum a_i x^i)^2 = sum a_i^2 x^(2i), which costs one
table lookup per coefficient; the repeated squarings of the
factorization go through it.
Factorization is one bounded distinct-degree search: for d = 1, 2, ...
up to the caller's limit it takes gcd(v, x^(q^d) - x) on the rest v of
the input, splits that product of degree-d irreducibles with GF(2)-trace
maps, and divides each irreducible out of v as often as it divides,
which gives its multiplicity. Equal-degree splitting sweeps a
GF(2)-basis (Berlekamp's trace algorithm) and draws nothing at random.

Root search (`uni_roots`) visits only irreducibles whose roots lie in an
extension of GF(2) of absolute degree at most the caller's bound, and
splits each in that extension, embedding coefficients via the fixed
embeddings of gf2m. A root is its raw bits in the field where it was
found, so `uni_roots` returns the field beside each root.
"""

from __future__ import annotations

from .errors import DomainError, InvariantViolation
from .gf2m import FieldCtx, embed, ext_context, format_elem


class UniPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        # coeffs: iterable of raw bit-ints, low degree first
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def _chk(self, other: "UniPoly"):
        if other.ctx is not self.ctx:
            raise InvariantViolation("UniPoly contexts differ")

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._chk(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return UniPoly(self.ctx, out)

    def square(self) -> "UniPoly":
        """self * self by Frobenius: in characteristic 2 the cross terms
        cancel, so a_i x^i goes to a_i^2 x^(2i)."""
        if not self.coeffs:
            return self
        exp, log = self.ctx._exp, self.ctx._log
        out = [0] * (2 * len(self.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[2 * i] = exp[2 * log[c]]
        return UniPoly(self.ctx, out)

    def scale_bits(self, s: int) -> "UniPoly":
        if s == 0:
            return UniPoly(self.ctx, [])
        exp, log = self.ctx._exp, self.ctx._log
        ls = log[s]
        return UniPoly(self.ctx, [exp[log[c] + ls] if c else 0
                                  for c in self.coeffs])

    def __divmod__(self, other: "UniPoly"):
        self._chk(other)
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        exp, log, order = self.ctx._exp, self.ctx._log, self.ctx.order
        r = list(self.coeffs)
        b = other.coeffs
        d = len(b) - 1
        lcinv = order - log[b[-1]]  # the log of 1 / lc, in 1..order
        logs_b = [(i, log[bc]) for i, bc in enumerate(b[:-1]) if bc]
        q = [0] * max(0, len(r) - d)
        while len(r) > d:  # r[-1] != 0, and the division cancels it
            k = len(r) - 1 - d
            lq = (log[r.pop()] + lcinv) % order
            q[k] = exp[lq]
            for i, lb in logs_b:
                r[k + i] ^= exp[lq + lb]
            while r and r[-1] == 0:
                r.pop()
        return UniPoly(self.ctx, q), UniPoly(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale_bits(self.ctx.inv_bits(self.coeffs[-1]))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval_bits(self, x: int) -> int:
        if not x:
            return self.coeffs[0] if self.coeffs else 0
        exp, log = self.ctx._exp, self.ctx._log
        lx = log[x]
        acc = 0
        for c in reversed(self.coeffs):
            acc = (exp[log[acc] + lx] if acc else 0) ^ c
        return acc

    def embed_to(self, sup: FieldCtx) -> "UniPoly":
        return UniPoly(sup, [embed(c, self.ctx, sup) for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{format_elem(self.ctx, c)}*x^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# factorization


def _trace_split(g: UniPoly, d: int) -> list[UniPoly]:
    """Split a monic product of degree-d irreducibles into irreducibles.

    The absolute trace maps GF(q)[x]/(g) onto GF(2) in each of its field
    factors. The elements t^j x^i (i >= 1, t^j the polynomial basis of
    GF(q)) and the constants, whose trace is the same in every factor,
    span it over GF(2); so when g is reducible, some t^j x^i has a trace
    that tells two factors apart, and its gcd with g splits g
    (Berlekamp 1970). Raises InvariantViolation when none does."""
    ctx = g.ctx
    if g.degree() == d:
        return [g]
    n = ctx.m * d  # absolute degree of the residue fields over GF(2)
    for i in range(1, g.degree()):
        for j in range(ctx.m):
            # absolute trace map: a + a^2 + a^4 + ... (n terms), mod g
            t = UniPoly(ctx, [0] * i + [1 << j])
            s = t
            for _ in range(n - 1):
                t = t.square() % g
                s = s + t
            h = g.gcd(s)
            if 0 < h.degree() < g.degree():
                return sorted(_trace_split(h, d)
                              + _trace_split((g // h).monic(), d),
                              key=lambda p: p.coeffs)
    raise InvariantViolation(
        f"no trace splits a degree-{g.degree()} product of degree-{d} "
        "irreducibles")


def _irreducible_factors(f: UniPoly, limit: int) -> list[tuple[UniPoly, int]]:
    """(p, multiplicity) for each monic irreducible p of degree <= limit
    dividing f.

    Distinct-degree search on the rest v of f: at step d every factor of
    degree below d has been divided out of v, so gcd(v, x^(q^d) - x) is
    the squarefree product of v's irreducibles of degree d. Each is
    divided out of v as often as it divides. Once 2d > deg v, v is
    irreducible, since all its factors have degree at least d.
    """
    ctx = f.ctx
    x = UniPoly(ctx, [0, 1])
    v, h = f.monic(), x
    out = []
    for d in range(1, limit + 1):
        if 2 * d > v.degree():
            if 0 < v.degree() <= limit:
                out.append((v, 1))
            break
        for _ in range(ctx.m):  # h -> h^q mod v, i.e. x^(q^d)
            h = h.square() % v
        g = v.gcd(h + x)
        if g.degree() <= 0:
            continue
        for p in _trace_split(g, d):
            mult = 0
            while True:
                q, r = divmod(v, p)
                if not r.is_zero():
                    break
                v, mult = q, mult + 1
            out.append((p, mult))
        h = h % v
    return out


def factor(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Complete factorization into monic irreducibles with multiplicities,
    sorted by degree and then coefficients: the search finds them degree
    by degree, and _trace_split sorts each degree's factors."""
    return _irreducible_factors(f, f.degree())


def uni_roots(f: UniPoly, degree_bound: int
              ) -> list[tuple[FieldCtx, int, int]]:
    """All roots in extensions of GF(2) of degree at most degree_bound;
    the singular search passes 2m over GF(2^m), for GF(q) and GF(q^2).

    Returns (field, root bits, multiplicity) triples, sorted by field
    degree and then bits; each root lives in the smallest constructed
    context the search visits (the base field for roots rational over
    it). Roots beyond the bound are silently absent; the caller can
    compare multiplicity totals against the degree.
    """
    if f.is_zero():
        raise DomainError("uni_roots of the zero polynomial")
    base = f.ctx
    out = []
    for p, mult in _irreducible_factors(f, degree_bound // base.m):
        d = p.degree()
        # embedding a linear factor into its own field is the identity
        sup = base if d == 1 else ext_context(base.m * d)
        for lin in _trace_split(p.embed_to(sup), 1):
            out.append((sup, lin.coeffs[0], mult))
    out.sort(key=lambda t: (t[0].m, t[1]))
    return out
