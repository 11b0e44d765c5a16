import functools
import operator
import random
import re

import pytest

from salemsurf.errors import DomainError, InvariantViolation, ParseError
from salemsurf.gf2m import (FieldCtx, embed, ext_context, field_make,
                            format_elem, gf32, parse_elem, unembed)
from salemsurf.multipoly import parse_field


def frobenius(ctx, x: int, k: int) -> int:
    """x^(2^k) in ctx; k = 1 is the squaring Frobenius."""
    for _ in range(k % ctx.m if x else 0):
        x = ctx.mul_bits(x, x)
    return x


def _min_subfield_degree(ctx, x: int) -> int:
    """Degree over GF(2) of the smallest subfield of ctx containing x."""
    d = 1
    y = frobenius(ctx, x, 1)
    while y != x:
        y = frobenius(ctx, y, 1)
        d += 1
    return d


def test_canonical_context_has_order_31_generator(ctx):
    assert ctx.m == 5
    x = 1
    seen = set()
    for _ in range(31):
        x = ctx.mul_bits(x, ctx.gen_pow(1))
        seen.add(x)
    assert x == 1
    assert len(seen) == 31


def test_defining_relation(ctx):
    # g^5 + g^2 = 1 in the canonical modulus
    assert ctx.gen_pow(5) ^ ctx.gen_pow(2) == 1
    assert ctx.gen_pow(5) ^ ctx.gen_pow(2) ^ 1 == 0


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
    assert gf2.gen_pow(1) == 1
    assert gf2.inv_bits(1) == 1
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
    g = f.gen_pow(1)
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
    # addition is xor, so 2x = (1 + 1) x = 0
    for x in range(32):
        assert x ^ x == 0
        assert ctx.mul_bits(1 ^ 1, x) == 0


def test_exponent_arithmetic(ctx):
    assert ctx.mul_bits(ctx.gen_pow(16), ctx.gen_pow(20)) == ctx.gen_pow(5)
    assert ctx.gen_pow(31) == 1
    assert ctx.gen_pow(-7) == ctx.gen_pow(24)


@pytest.mark.parametrize("m", [3, 5])
def test_pow_bits_against_repeated_products(m):
    # every element of GF(2^m), every k in [-2 order, 2 order]: a^k is
    # k products by a, or -k products by the inverse of a
    f = ext_context(m)
    span = 2 * f.order
    for a in range(1, 1 << m):
        up = down = 1
        assert f.pow_bits(a, 0) == 1
        for k in range(1, span + 1):
            up = f.mul_bits(up, a)
            down = f.mul_bits(down, f.inv_bits(a))
            assert f.pow_bits(a, k) == up
            assert f.pow_bits(a, -k) == down
    for k in range(1, span + 1):
        assert f.pow_bits(0, k) == 0
    for k in (0, -1):
        with pytest.raises(DomainError, match="0 to a nonpositive power"):
            f.pow_bits(0, k)


@pytest.mark.parametrize("m", [5, 10])
def test_multiplicative_group_order(m):
    f = ext_context(m)
    for bits in range(1, 1 << m):
        assert f.pow_bits(bits, (1 << m) - 1) == 1


def test_dlog(ctx):
    assert ctx.dlog_bits(1) == 0
    assert ctx.dlog_bits(0b101) == 5  # t^2 + 1 = g^5
    with pytest.raises(DomainError, match=r"dlog\(0\)"):
        ctx.dlog_bits(0)
    for k in range(31):
        assert ctx.dlog_bits(ctx.gen_pow(k)) == k


def test_context_interning(ctx):
    assert field_make(5, 0b100101) is ctx
    assert ext_context(5) is ctx
    assert ext_context(10) is ext_context(10)


def test_embedding_into_degree_10():
    sub, sup = gf32(), ext_context(10)
    assert embed(0, sub, sup) == 0
    im = embed(sub.gen_pow(1), sub, sup)
    assert sup.pow_bits(im, 5) ^ sup.pow_bits(im, 2) ^ 1 == 0
    assert sup.pow_bits(im, 31) == 1
    assert _min_subfield_degree(sup, im) == 5


@pytest.mark.parametrize("m,n", [(5, 10), (3, 6), (1, 5)])
def test_embedding_matches_a_search_of_the_whole_field(m, n):
    """t goes to the smallest-bits root of sub's modulus among all 2^n
    elements of sup, though only the copy of sub is searched."""
    sub, sup = ext_context(m), ext_context(n)

    def modulus_at(x):
        return [sup.pow_bits(x, i) for i in range(m + 1)
                if sub.modulus >> i & 1]

    root = next(x for x in range(1 << n)
                if x and not functools.reduce(operator.xor, modulus_at(x)))
    table = [0] * (1 << m)
    for k in range(sub.order):
        table[sub.gen_pow(k)] = sup.pow_bits(root, k)
    assert [embed(b, sub, sup) for b in range(1 << m)] == table


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
    g = ctx.gen_pow(1)
    assert frobenius(ctx, g, 5) == g
    assert frobenius(ctx, g, 1) == ctx.mul_bits(g, g)
    rng = random.Random(102)

    def fr(x):
        return frobenius(ctx, x, 1)
    for _ in range(40):
        a, b = rng.randrange(32), rng.randrange(32)
        assert fr(a ^ b) == fr(a) ^ fr(b)
        assert fr(ctx.mul_bits(a, b)) == ctx.mul_bits(fr(a), fr(b))


def test_element_text_format(ctx):
    assert format_elem(ctx, 0) == "0"
    assert format_elem(ctx, 1) == "1"
    assert format_elem(ctx, ctx.gen_pow(1)) == "g"
    assert format_elem(ctx, ctx.gen_pow(5)) == "g^5"
    assert parse_elem("g^5", ctx) == ctx.gen_pow(5)
    for x in range(32):
        assert parse_elem(format_elem(ctx, x), ctx) == x


@pytest.mark.parametrize("bad", ["", "g^", "g^x", "0b", "0b012", "0b01001",
                                 "zeta"])
def test_element_parse_errors(bad, ctx):
    with pytest.raises(ParseError):
        parse_elem(bad, ctx)


def test_division_and_inverse(ctx):
    for x in range(1, 32):
        assert ctx.mul_bits(x, ctx.inv_bits(x)) == 1
        assert ctx.pow_bits(x, -1) == ctx.inv_bits(x)
    assert ctx.pow_bits(ctx.gen_pow(7), -1) == ctx.gen_pow(24)
    with pytest.raises(DomainError, match="inverse of 0"):
        ctx.inv_bits(0)


def test_sqrt_is_inverse_frobenius(ctx):
    for x in range(32):
        root = ctx.sqrt_bits(x)
        assert ctx.mul_bits(root, root) == x
