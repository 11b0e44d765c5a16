"""Arithmetic in GF(2^m), polynomial basis over GF(2).

An element is its raw bits, a Python int: bit i is the coefficient of
t^i, where t is the class of the modulus variable. No object wraps it,
so the element's FieldCtx travels beside it: ctx.mul_bits(a, b),
ctx.gen_pow(k), format_elem(ctx, a). Addition is xor. Multiplication
and inversion go through exp/log tables of the powers of t (a context
refuses m > MAX_M = 20, so the tables stay cheap). A context accepts
only a primitive modulus, one whose root t generates the multiplicative
group, so every nonzero element is a power of t. The data files and reports call t `g`.

The exp table holds two periods, so the product of two nonzero elements
is _exp[_log[a] + _log[b]] with no reduction. The inner loops of unipoly
and multipoly work in this log domain: they take each coefficient's log
once and add logs, leaving mul_bits and pow_bits for single elements.

The canonical GF(32) presentation has modulus t^5 + t^2 + 1.

Textual format: `0`, `1`, `g`, or `g^k` for the k-th power of g.
"""

from __future__ import annotations

from . import MAX_M
from .errors import DomainError, InvariantViolation, ParseError


class FieldCtx:
    """GF(2^m) context: modulus and the exp/log tables of t, fixed when
    built, and a cache of subfield embedding tables, filled on use."""

    __slots__ = ("m", "modulus", "order", "_exp", "_log", "_embeddings")

    def __init__(self, m: int, modulus: int):
        if m > MAX_M:
            raise InvariantViolation(
                f"GF(2^{m}) is above the largest supported GF(2^{MAX_M})")
        if modulus.bit_length() - 1 != m:
            raise InvariantViolation(
                f"modulus degree {modulus.bit_length() - 1}, expected {m}")
        if not modulus & 1:
            raise InvariantViolation("modulus has zero constant term")
        if m < 1:
            # GF(2)[t]/(1) is the zero ring, where t never returns to 1
            raise InvariantViolation(f"0b{modulus:b} factors over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = (1 << m) - 1
        # t is a unit (m >= 1, constant term 1), so its powers return to 1
        # within the at most 2^m - 1 units; after exactly 2^m - 1 steps
        # iff the modulus is primitive
        exp, x = [], 1
        while x != 1 or not exp:
            exp.append(x)
            x <<= 1
            if x >> m:
                x ^= modulus
        if len(exp) != self.order:
            raise InvariantViolation(
                f"0b{modulus:b} is not primitive: t has order {len(exp)}, "
                f"not {self.order}, so the modulus factors over GF(2) or "
                "t generates a proper subgroup")
        log = [None] * (1 << m)  # 0 has no log
        for i, v in enumerate(exp):
            log[v] = i
        self._log = log
        # doubled, so a product is _exp[la + lb] for logs below order
        self._exp = exp + exp
        self._embeddings = {}

    # raw-bits arithmetic on single elements; the polynomial loops add
    # logs on the tables themselves
    def mul_bits(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv_bits(self, a: int) -> int:
        if a == 0:
            raise DomainError("inverse of 0")
        return self._exp[self.order - self._log[a]]

    def pow_bits(self, a: int, n: int) -> int:
        # any integer n: a negative power is the power of the inverse
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

    def gen_pow(self, k: int) -> int:
        """g^k as raw bits, for any integer k."""
        return self._exp[k % self.order]

    def __repr__(self):
        return f"GF(2^{self.m}; 0b{self.modulus:b})"


# ---------------------------------------------------------------------------
# public operations


_CTX_REGISTRY: dict[tuple[int, int], FieldCtx] = {}


def field_make(m: int, modulus: int) -> FieldCtx:
    """Context for GF(2^m). modulus: the int bitmask of the modulus,
    bit i the coefficient of t^i.

    Contexts are interned by (m, modulus): parsing two files with the
    same field header yields the identical context object, so their
    elements interoperate.
    """
    ctx = _CTX_REGISTRY.get((m, modulus))
    if ctx is None:
        ctx = FieldCtx(m, modulus)
        _CTX_REGISTRY[(m, modulus)] = ctx
    return ctx


_EXT_CACHE: dict[int, FieldCtx] = {}


def gf32() -> FieldCtx:
    """The canonical GF(32) context with modulus t^5 + t^2 + 1."""
    return ext_context(5)


def ext_context(degree: int) -> FieldCtx:
    """GF(2^degree) under its smallest primitive modulus (the first one
    from t^degree + 1 upward that a context accepts)."""
    ctx = _EXT_CACHE.get(degree)
    if ctx is None:
        base = 1 << degree
        for f in range(base + 1, base << 1, 2):
            try:
                ctx = field_make(degree, f)
                break
            except InvariantViolation:
                if degree > MAX_M:
                    raise
        else:
            raise InvariantViolation(
                f"no primitive modulus of degree {degree}")
        _EXT_CACHE[degree] = ctx
    return ctx


def _embedding_table(sub: FieldCtx, sup: FieldCtx) -> list[int]:
    """Images in sup of sub's elements, indexed by bits. t goes to the
    smallest-bits root of sub's modulus in sup (t itself when sub is sup),
    so t^k goes to root^k. Every root lies in sup's copy of sub, the
    powers of zeta = g^((2^M - 1)/(2^m - 1)), so only those are tried."""
    if sup.m % sub.m != 0:
        raise InvariantViolation(f"degree {sub.m} does not divide {sup.m}")
    table = sup._embeddings.get(id(sub))
    if table is not None:
        return table
    roots, c = [], sup.order // sub.order
    for j in range(sub.order):
        cand = sup.gen_pow(j * c)
        acc, p = 0, 1
        for i in range(sub.m + 1):
            if (sub.modulus >> i) & 1:
                acc ^= p
            p = sup.mul_bits(p, cand)
        if acc == 0:
            roots.append(cand)
    root = min(roots)
    table = [0] * (1 << sub.m)
    for k in range(sub.order):
        table[sub._exp[k]] = sup.pow_bits(root, k)
    sup._embeddings[id(sub)] = table
    return table


def embed(x: int, sub: FieldCtx, sup: FieldCtx) -> int:
    """Image (raw bits) of the bits x of sub under the fixed cached
    embedding sub -> sup."""
    return _embedding_table(sub, sup)[x]


def unembed(x: int, sub: FieldCtx, sup: FieldCtx) -> int:
    """Preimage (raw bits) in sub of the bits x of sup, which lie in the
    embedded copy of sub."""
    if x == 0:
        return 0
    root = _embedding_table(sub, sup)[sub.gen_pow(1)]
    # root generates the units of the copy, the index-c subgroup of sup's
    # units: x = root^k iff dlog x = k * dlog root modulo sup.order
    c = sup.order // sub.order
    j, r = sup.dlog_bits(x), sup.dlog_bits(root)
    if j % c:
        raise InvariantViolation("element is not in the embedded subfield")
    return sub.gen_pow(j // c * pow(r // c, -1, sub.order))


# ---------------------------------------------------------------------------
# text format


def format_elem(ctx: FieldCtx, bits: int) -> str:
    """The text of the element bits of ctx: `0`, `1`, `g` or `g^k`."""
    if bits == 0:
        return "0"
    k = ctx.dlog_bits(bits)
    return "1" if k == 0 else ("g" if k == 1 else f"g^{k}")


def parse_elem(s: str, ctx: FieldCtx) -> int:
    """The raw bits of the element of ctx that the text s spells."""
    s = s.strip()
    if s == "0":
        return 0
    if s == "1":
        return 1
    if s == "g":
        return ctx.gen_pow(1)
    if s.startswith("g^"):
        try:
            k = int(s[2:])
        except ValueError:
            raise ParseError(f"bad generator power {s!r}") from None
        return ctx.gen_pow(k)
    raise ParseError(f"cannot parse field element {s!r}")
