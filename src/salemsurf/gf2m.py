"""Arithmetic in GF(2^m), polynomial basis over GF(2).

Elements are dense bit-vectors packed into Python ints: bit i is the
coefficient of t^i, where t is the class of the modulus variable.
Addition is xor. Multiplication and inversion go through exp/log tables
relative to a generator of the multiplicative group (a context refuses
m > MAX_M = 20, so the tables stay cheap); the generator is the class of t
itself whenever that class is primitive, which holds for every context
this package constructs.

The canonical GF(32) presentation has modulus t^5 + t^2 + 1; its
generator is the element the data files and reports call `g`.

Textual format: `g^k` for the k-th generator power, `0`, `1`, or a raw
bit-string `0b01001` written LOW DEGREE FIRST (so `0b01001` is t + t^4).
"""

from __future__ import annotations

from . import MAX_M
from .errors import DomainError, InvariantViolation, ParseError

# ---------------------------------------------------------------------------
# GF(2)[x] on ints: bit i = coefficient of x^i.


def poly2_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly2_mod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def poly2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly2_mod(a, b)
    return a


def poly2_powmod_x(e: int, f: int) -> int:
    """x^(2^e) mod f by repeated squaring of the residue."""
    r = poly2_mod(0b10, f)
    for _ in range(e):
        r = poly2_mod(poly2_mul(r, r), f)
    return r


def poly2_irreducible(f: int) -> bool:
    m = f.bit_length() - 1
    if m < 1 or not f & 1:
        return False
    if m == 1:
        return True
    # f irreducible iff x^(2^m) = x mod f and gcd(x^(2^(m/p)) - x, f) = 1
    # for every prime p dividing m.
    if poly2_powmod_x(m, f) != poly2_mod(0b10, f):
        return False
    mm, primes, d = m, [], 2
    while d * d <= mm:
        if mm % d == 0:
            primes.append(d)
            while mm % d == 0:
                mm //= d
        d += 1
    if mm > 1:
        primes.append(mm)
    for p in primes:
        h = poly2_powmod_x(m // p, f) ^ poly2_mod(0b10, f)
        if poly2_gcd(f, h) != 1:
            return False
    return True


# ---------------------------------------------------------------------------


class FieldCtx:
    """Immutable GF(2^m) context: modulus, exp/log tables, generator."""

    __slots__ = ("m", "modulus", "order", "generator_bits", "_exp", "_log",
                 "_embeddings")

    def __init__(self, m: int, modulus: int):
        if m > MAX_M:
            raise InvariantViolation(
                f"GF(2^{m}) is above the largest supported GF(2^{MAX_M})")
        if modulus.bit_length() - 1 != m:
            raise InvariantViolation(
                f"modulus degree {modulus.bit_length() - 1}, expected {m}")
        if not modulus & 1:
            raise InvariantViolation("modulus has zero constant term")
        if not poly2_irreducible(modulus):
            raise InvariantViolation(f"0b{modulus:b} factors over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = (1 << m) - 1
        gen = self._find_generator()
        self.generator_bits = gen
        exp = [1]
        for _ in range(self.order - 1):
            exp.append(poly2_mod(poly2_mul(exp[-1], gen), modulus))
        self._exp = exp
        self._log = {v: i for i, v in enumerate(exp)}
        if len(self._log) != self.order:
            raise InvariantViolation(
                "generator search produced a non-generator")
        self._embeddings = {}

    def _find_generator(self) -> int:
        t = poly2_mod(0b10, self.modulus)
        for cand in ([t] + [c for c in range(2, 1 << self.m) if c != t]):
            v, n = cand, 1
            while v != 1:
                v = poly2_mod(poly2_mul(v, cand), self.modulus)
                n += 1
                if n > self.order:
                    break
            if n == self.order:
                return cand
        # unreachable for a field
        raise InvariantViolation("no generator found")

    # raw-bits arithmetic, used by the polynomial engine's inner loops
    def mul_bits(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self.order]

    def inv_bits(self, a: int) -> int:
        if a == 0:
            raise DomainError("inverse of 0")
        return self._exp[(self.order - self._log[a]) % self.order]

    def pow_bits(self, a: int, n: int) -> int:
        if a == 0:
            if n <= 0:
                raise DomainError("0 to a nonpositive power")
            return 0
        return self._exp[(self._log[a] * n) % self.order]

    def sqrt_bits(self, a: int) -> int:
        # squaring is bijective; the inverse is the (2^(m-1))-th power
        return self.pow_bits(a, 1 << (self.m - 1)) if a else 0

    def dlog_bits(self, a: int) -> int:
        if a == 0:
            raise DomainError("dlog(0)")
        return self._log[a]

    # element constructors
    def elem(self, bits: int) -> "FieldElement":
        return FieldElement(self, bits)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def gen(self) -> "FieldElement":
        return FieldElement(self, self.generator_bits)

    def gen_pow(self, k: int) -> "FieldElement":
        return FieldElement(self, self._exp[k % self.order])

    def __repr__(self):
        return f"GF(2^{self.m}; 0b{self.modulus:b})"


class FieldElement:
    """Element of a FieldCtx; immutable, hashable, operator-complete."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx: FieldCtx, bits: int):
        if not 0 <= bits < (1 << ctx.m):
            raise InvariantViolation(
                f"bits 0b{bits:b} out of range for m={ctx.m}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _same(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise InvariantViolation(
                f"expected FieldElement, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise InvariantViolation(f"mixing {self.ctx} with {other.ctx}")
        return other

    def __add__(self, other):
        other = self._same(other)
        return FieldElement(self.ctx, self.bits ^ other.bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        other = self._same(other)
        return FieldElement(self.ctx, self.ctx.mul_bits(self.bits, other.bits))

    def __truediv__(self, other):
        other = self._same(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        return FieldElement(self.ctx, self.ctx.pow_bits(self.bits, n))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv_bits(self.bits))

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and other.ctx is self.ctx
                and other.bits == self.bits)

    def __hash__(self):
        return hash((id(self.ctx), self.bits))

    def __repr__(self):
        return format_elem(self)


# ---------------------------------------------------------------------------
# public operations


_CTX_REGISTRY: dict[tuple[int, int], FieldCtx] = {}


def field_make(m: int, modulus) -> FieldCtx:
    """Context for GF(2^m). modulus: int bitmask or low-first bit list.

    Contexts are interned by (m, modulus): parsing two files with the
    same field header yields the identical context object, so their
    elements interoperate.
    """
    if isinstance(modulus, (list, tuple)):
        bits = 0
        for i, c in enumerate(modulus):
            if c:
                bits |= 1 << i
        modulus = bits
    ctx = _CTX_REGISTRY.get((m, modulus))
    if ctx is None:
        ctx = FieldCtx(m, modulus)
        _CTX_REGISTRY[(m, modulus)] = ctx
    return ctx


_GF32 = None
_EXT_CACHE: dict[int, FieldCtx] = {}


def gf32() -> FieldCtx:
    """The canonical GF(32) context with modulus t^5 + t^2 + 1."""
    global _GF32
    if _GF32 is None:
        _GF32 = field_make(5, 0b100101)
    return _GF32


def ext_context(degree: int) -> FieldCtx:
    """GF(2^degree) with the lexicographically smallest irreducible modulus.

    Degree-5 requests return the canonical GF(32) context so embeddings
    into it are the identity presentation used everywhere else.
    """
    if degree == 5:
        return gf32()
    ctx = _EXT_CACHE.get(degree)
    if ctx is None:
        base = 1 << degree
        for f in range(base + 1, base << 1, 2):
            if poly2_irreducible(f):
                ctx = field_make(degree, f)
                break
        else:
            raise InvariantViolation(
                f"no irreducible modulus of degree {degree}")
        _EXT_CACHE[degree] = ctx
    return ctx


def _embedding_table(sub: FieldCtx, sup: FieldCtx) -> dict[int, int]:
    if sup.m % sub.m != 0:
        raise InvariantViolation(f"degree {sub.m} does not divide {sup.m}")
    key = id(sub)
    table = sup._embeddings.get(key)
    if table is not None:
        return table
    if sub is sup:
        table = {b: b for b in range(1 << sub.m)}
        sup._embeddings[key] = table
        return table
    # deterministic: smallest-bits root of sub's modulus inside sup
    root = None
    for cand in range(1 << sup.m):
        acc, p = 0, 1
        for i in range(sub.m + 1):
            if (sub.modulus >> i) & 1:
                acc ^= p
            p = sup.mul_bits(p, cand)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise InvariantViolation("modulus has no root in the target field")
    table = {}
    for bits in range(1 << sub.m):
        acc, p = 0, 1
        for i in range(sub.m):
            if (bits >> i) & 1:
                acc ^= p
            p = sup.mul_bits(p, root)
        table[bits] = acc
    sup._embeddings[key] = table
    return table


def embed(x: FieldElement, sub: FieldCtx, sup: FieldCtx) -> FieldElement:
    """Image of x under the fixed cached embedding sub -> sup."""
    if x.ctx is not sub:
        raise InvariantViolation(
            "element does not belong to the source context")
    return FieldElement(sup, _embedding_table(sub, sup)[x.bits])


def unembed(x: FieldElement, sub: FieldCtx) -> FieldElement:
    """Preimage in sub of an element lying in the embedded copy of sub."""
    table = _embedding_table(sub, x.ctx)
    for b, img in table.items():
        if img == x.bits:
            return FieldElement(sub, b)
    raise InvariantViolation("element is not in the embedded subfield")


# ---------------------------------------------------------------------------
# text format


def format_elem(x: FieldElement) -> str:
    if x.bits == 0:
        return "0"
    k = x.ctx.dlog_bits(x.bits)
    return "1" if k == 0 else ("g" if k == 1 else f"g^{k}")


def parse_elem(s: str, ctx: FieldCtx) -> FieldElement:
    s = s.strip()
    if s == "0":
        return ctx.zero()
    if s == "1":
        return ctx.one()
    if s == "g":
        return ctx.gen()
    if s.startswith("g^"):
        try:
            k = int(s[2:])
        except ValueError:
            raise ParseError(f"bad generator power {s!r}") from None
        return ctx.gen_pow(k)
    if s.startswith("0b"):
        body = s[2:]
        if not body or any(c not in "01" for c in body):
            raise ParseError(f"bad bit-string {s!r}")
        bits = 0
        for i, c in enumerate(body):  # low degree first
            if c == "1":
                bits |= 1 << i
        if bits >> ctx.m:
            raise ParseError(f"bit-string {s!r} too long for m={ctx.m}")
        return ctx.elem(bits)
    raise ParseError(f"cannot parse field element {s!r}")
