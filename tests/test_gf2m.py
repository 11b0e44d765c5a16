import random
import re

import pytest

from salemsurf.errors import DomainError, InvariantViolation, ParseError
from salemsurf.gf2m import (FieldCtx, FieldElement, embed, ext_context,
                            field_make, format_elem, gf32, parse_elem,
                            unembed)
from salemsurf.multipoly import parse_field


def frobenius(x: FieldElement, k: int) -> FieldElement:
    """x^(2^k); k = 1 is the squaring Frobenius."""
    bits = x.bits
    for _ in range(k % x.ctx.m if x.bits else 0):
        bits = x.ctx.mul_bits(bits, bits)
    return FieldElement(x.ctx, bits)


def dlog(x: FieldElement) -> int:
    """k with generator^k = x; raises DomainError for x = 0."""
    return x.ctx.dlog_bits(x.bits)


def _min_subfield_degree(x: FieldElement) -> int:
    """Degree over GF(2) of the smallest subfield containing x."""
    d = 1
    y = frobenius(x, 1)
    while y != x:
        y = frobenius(y, 1)
        d += 1
    return d


def test_canonical_context_has_order_31_generator(ctx):
    assert ctx.m == 5
    x = ctx.one()
    seen = set()
    for _ in range(31):
        x = x * ctx.gen()
        seen.add(x.bits)
    assert x == ctx.one()
    assert len(seen) == 31


def test_defining_relation(ctx):
    # g^5 + g^2 = 1 in the canonical modulus
    assert ctx.gen_pow(5) + ctx.gen_pow(2) == ctx.one()
    assert ctx.gen_pow(5) + ctx.gen_pow(2) + ctx.one() == ctx.zero()


class _NoTable(int):
    """A modulus whose use in the power loop fails the test."""

    def __rxor__(self, other):
        raise AssertionError("a table was started")

    __xor__ = __rxor__


def test_field_above_the_table_limit_is_refused():
    # the power loop xors in the modulus, so a table start fails the test
    with pytest.raises(AssertionError, match="a table was started"):
        FieldCtx(3, _NoTable(0b1011))
    with pytest.raises(InvariantViolation, match="GF\\(2\\^20\\)"):
        field_make(21, _NoTable((1 << 21) | 0b101))  # x^21 + x^2 + 1


def test_prime_field():
    gf2 = field_make(1, 0b11)
    assert gf2.one() + gf2.one() == gf2.zero()
    assert gf2.mul_bits(1, 1) == 1


def test_reducible_modulus_rejected():
    # t^4 + t^2 + 1 = (t^2 + t + 1)^2
    with pytest.raises(InvariantViolation, match=r"factors over GF\(2\)"):
        field_make(4, 0b10101)


@pytest.mark.parametrize("spec", ["g^0=1+1", "g^0=g+g"])
def test_constant_modulus_rejected(spec):
    # the modulus 1 gives the zero ring, not a field
    with pytest.raises(InvariantViolation, match=r"0b1 factors over GF\(2\)"):
        parse_field(spec)


@pytest.mark.parametrize("spec,message", [
    ("g^21=g^3+1", "field degree 21 is above the largest supported, 20"),
    ("g^5=g^7+1", "modulus term 'g^7' is not below g^5"),
    ("g^5=g^5+1", "modulus term 'g^5' is not below g^5"),
])
def test_field_header_out_of_bounds_is_a_parse_error(spec, message):
    # refused before the modulus bit-mask is built
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_field(spec)


def test_irreducible_but_not_primitive_modulus_rejected():
    # t^8 + t^4 + t^3 + t + 1 is irreducible, but t has order 51, not 255
    with pytest.raises(InvariantViolation, match="0b100011011 is not prim"):
        parse_field("g^8=g^4+g^3+g+1")


def _mulmod(a: int, b: int, f: int) -> int:
    """a * b in GF(2)[t] / f by shift and xor, without the tables."""
    m, r = f.bit_length() - 1, 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= f
    return r


@pytest.mark.parametrize("d", range(1, 13))
def test_g_is_a_primitive_root_of_the_modulus(d):
    f = ext_context(d)
    g = f.gen().bits
    assert g == (0b10 if d > 1 else 1)  # the class of t
    acc = 0  # f(g) by Horner, from the leading coefficient down
    for i in range(d, -1, -1):
        acc = _mulmod(acc, g, f.modulus) ^ (f.modulus >> i & 1)
    assert acc == 0
    x, order = g, 1
    while x != 1:
        x, order = _mulmod(x, g, f.modulus), order + 1
    assert order == (1 << d) - 1
    rng = random.Random(d)
    for _ in range(50):
        a, b = rng.randrange(1 << d), rng.randrange(1 << d)
        assert f.mul_bits(a, b) == _mulmod(a, b, f.modulus)


@pytest.mark.parametrize("d,modulus", [
    (1, 0b11), (3, 0b1011), (5, 0b100101), (10, 0b10000001001),
    (15, 0b1000000000000011), (20, 0b100000000000000001001)])
def test_extension_moduli_are_pinned(d, modulus):
    assert ext_context(d).modulus == modulus


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 6), (5, 5), (5, 10)])
def test_unembed_inverts_embed(m, n):
    sub, sup = ext_context(m), ext_context(n)
    image = {embed(b, sub, sup) for b in range(1 << m)}
    assert len(image) == 1 << m
    for b in range(1 << m):
        assert unembed(embed(b, sub, sup), sub, sup) == b
    if m == n:
        return
    outside = next(b for b in range(1 << n) if b not in image)
    with pytest.raises(InvariantViolation, match="not in the embedded"):
        unembed(outside, sub, sup)


def test_self_addition_vanishes(ctx):
    for bits in range(32):
        x = ctx.elem(bits)
        assert (x + x).bits == 0


def test_exponent_arithmetic(ctx):
    assert ctx.gen_pow(16) * ctx.gen_pow(20) == ctx.gen_pow(5)
    assert ctx.gen_pow(31) == ctx.one()


@pytest.mark.parametrize("m", [5, 10])
def test_multiplicative_group_order(m):
    f = ext_context(m)
    for bits in range(1, 1 << m):
        assert f.pow_bits(bits, (1 << m) - 1) == 1


def test_dlog(ctx):
    assert dlog(ctx.one()) == 0
    assert dlog(ctx.elem(0b101)) == 5  # t^2 + 1 = g^5
    with pytest.raises(DomainError, match=r"dlog\(0\)"):
        dlog(ctx.zero())
    for k in range(31):
        assert dlog(ctx.gen_pow(k)) == k


def test_context_interning(ctx):
    assert field_make(5, 0b100101) is ctx
    assert ext_context(5) is ctx
    assert ext_context(10) is ext_context(10)


def test_context_mismatch_raises(ctx):
    other = ext_context(10)
    with pytest.raises(InvariantViolation, match="mixing"):
        ctx.gen() + other.gen()


def test_embedding_into_degree_10():
    sub, sup = gf32(), ext_context(10)
    assert embed(0, sub, sup) == 0
    im = sup.elem(embed(sub.gen().bits, sub, sup))
    assert im ** 5 + im ** 2 + sup.one() == sup.zero()
    assert im ** 31 == sup.one()
    assert _min_subfield_degree(im) == 5


def test_embedding_is_ring_homomorphism():
    sub, sup = gf32(), ext_context(10)
    rng = random.Random(101)
    for _ in range(40):
        a, b = rng.randrange(32), rng.randrange(32)
        ea, eb = embed(a, sub, sup), embed(b, sub, sup)
        assert embed(a ^ b, sub, sup) == ea ^ eb
        assert embed(sub.mul_bits(a, b), sub, sup) == sup.mul_bits(ea, eb)
        assert unembed(ea, sub, sup) == a


def test_frobenius(ctx):
    g = ctx.gen()
    assert frobenius(g, 5) == g
    assert frobenius(g, 1) == g * g
    rng = random.Random(102)
    for _ in range(40):
        a = ctx.elem(rng.randrange(32))
        b = ctx.elem(rng.randrange(32))
        assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)
        assert frobenius(a * b, 1) == frobenius(a, 1) * frobenius(b, 1)


def test_element_text_format(ctx):
    assert format_elem(ctx.zero()) == "0"
    assert format_elem(ctx.one()) == "1"
    assert format_elem(ctx.gen()) == "g"
    assert format_elem(ctx.gen_pow(5)) == "g^5"
    assert parse_elem("g^5", ctx) == ctx.gen_pow(5)
    # bit-strings are low degree first
    assert parse_elem("0b01001", ctx).bits == 0b10010
    for bits in range(32):
        x = ctx.elem(bits)
        assert parse_elem(format_elem(x), ctx) == x


@pytest.mark.parametrize("bad", ["", "g^", "g^x", "0b", "0b012", "zeta"])
def test_element_parse_errors(bad, ctx):
    with pytest.raises(ParseError):
        parse_elem(bad, ctx)


def test_division_and_inverse(ctx):
    for bits in range(1, 32):
        x = ctx.elem(bits)
        assert x * x.inverse() == ctx.one()
        assert (x / x) == ctx.one()
    assert ctx.gen_pow(7) ** -1 == ctx.gen_pow(24)


def test_sqrt_is_inverse_frobenius(ctx):
    for bits in range(32):
        x = ctx.elem(bits)
        root = ctx.elem(ctx.sqrt_bits(bits))
        assert root * root == x
