"""Dense univariate polynomials over GF(2^m), with factorization.

Coefficients are stored low degree first as raw bit-ints of the parent
FieldCtx (see gf2m); the zero polynomial is the empty tuple.
Factorization is one bounded distinct-degree search: for d = 1, 2, ...
up to the caller's limit it takes gcd(v, x^(q^d) - x) on the rest v of
the input, splits that product of degree-d irreducibles with GF(2)-trace
maps, and divides each irreducible out of v as often as it divides,
which gives its multiplicity. Equal-degree splitting draws from a
fixed-seed PRNG (CZ_SEED) so runs are reproducible.

Root search (`uni_roots`) visits only irreducibles whose roots lie in an
extension of GF(2) of absolute degree at most the caller's bound, and
splits each in that extension, embedding coefficients via the fixed
embeddings of gf2m.
"""

from __future__ import annotations

import random

from .errors import DomainError, InvariantViolation
from .gf2m import FieldCtx, FieldElement, embed, ext_context

CZ_SEED = 0x5A1E  # documented constant: equal-degree splitting randomness


class UniPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        # coeffs: iterable of raw bit-ints, low degree first
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def x(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, [0, 1])

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

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._chk(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return UniPoly(self.ctx, out)

    __sub__ = __add__

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._chk(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly(self.ctx, [])
        mul = self.ctx.mul_bits
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] ^= mul(ca, cb)
        return UniPoly(self.ctx, out)

    def scale_bits(self, s: int) -> "UniPoly":
        if s == 0:
            return UniPoly(self.ctx, [])
        mul = self.ctx.mul_bits
        return UniPoly(self.ctx, [mul(c, s) for c in self.coeffs])

    def __divmod__(self, other: "UniPoly"):
        self._chk(other)
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        mul, inv = self.ctx.mul_bits, self.ctx.inv_bits
        r = list(self.coeffs)
        d = other.degree()
        lcinv = inv(other.coeffs[-1])
        q = [0] * max(0, len(r) - d)
        while len(r) - 1 >= d and r:
            k = len(r) - 1 - d
            c = mul(r[-1], lcinv)
            q[k] = c
            for i, bc in enumerate(other.coeffs):
                r[k + i] ^= mul(bc, c)
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
        mul = self.ctx.mul_bits
        acc = 0
        for c in reversed(self.coeffs):
            acc = mul(acc, x) ^ c
        return acc

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.ctx is not self.ctx:
            raise InvariantViolation("evaluation point in a different field")
        return FieldElement(self.ctx, self.eval_bits(x.bits))

    def embed_to(self, sup: FieldCtx) -> "UniPoly":
        cs = [embed(FieldElement(self.ctx, c), self.ctx, sup).bits
              for c in self.coeffs]
        return UniPoly(sup, cs)

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{FieldElement(self.ctx, c)!r}*x^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# factorization


def _trace_split(g: UniPoly, d: int, rng: random.Random) -> list[UniPoly]:
    """Split a monic product of degree-d irreducibles into irreducibles."""
    ctx = g.ctx
    if g.degree() == d:
        return [g]
    n = ctx.m * d  # absolute degree of the residue fields over GF(2)
    while True:
        a = UniPoly(ctx, [rng.randrange(1 << ctx.m) for _ in range(g.degree())])
        if a.degree() < 1:
            continue
        # absolute trace map: a + a^2 + a^4 + ... (n terms), mod g
        t = a % g
        s = t
        for _ in range(n - 1):
            t = (t * t) % g
            s = s + t
        h = g.gcd(s)
        if 0 < h.degree() < g.degree():
            return sorted(
                _trace_split(h, d, rng) + _trace_split((g // h).monic(), d, rng),
                key=lambda p: p.coeffs)


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
    rng = random.Random(CZ_SEED)
    x = UniPoly.x(ctx)
    v, h = f.monic(), x
    out = []
    for d in range(1, limit + 1):
        if 2 * d > v.degree():
            if 0 < v.degree() <= limit:
                out.append((v, 1))
            break
        for _ in range(ctx.m):  # h -> h^q mod v, i.e. x^(q^d)
            h = (h * h) % v
        g = v.gcd(h + x)
        if g.degree() <= 0:
            continue
        for p in _trace_split(g, d, rng):
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
    """Complete factorization into monic irreducibles with multiplicities."""
    return sorted(_irreducible_factors(f, f.degree()),
                  key=lambda t: (t[0].degree(), t[0].coeffs))


def uni_roots(f: UniPoly, search_degree_bound: int = 10
              ) -> list[tuple[FieldElement, int]]:
    """All roots in extensions of GF(2) of degree at most the bound.

    Returns (root, multiplicity) pairs; each root lives in the smallest
    constructed context the search visits (the base field for roots
    rational over it). Roots beyond the bound are silently absent; the
    caller can compare multiplicity totals against the degree.
    """
    if f.is_zero():
        raise DomainError("uni_roots of the zero polynomial")
    base = f.ctx
    rng = random.Random(CZ_SEED)
    out = []
    for p, mult in _irreducible_factors(f, search_degree_bound // base.m):
        d = p.degree()
        # embedding a linear factor into its own field is the identity
        sup = base if d == 1 else ext_context(base.m * d)
        for lin in _trace_split(p.embed_to(sup), 1, rng):
            out.append((FieldElement(sup, lin.coeffs[0]), mult))
    out.sort(key=lambda t: (t[0].ctx.m, t[0].bits))
    return out
