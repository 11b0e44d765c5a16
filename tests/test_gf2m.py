import random

import pytest

from salemsurf.errors import DomainError, InvariantViolation, ParseError
from salemsurf.gf2m import (FieldCtx, FieldElement, embed, ext_context,
                            field_make, format_elem, gf32, parse_elem,
                            unembed)


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


def test_field_above_the_table_limit_is_refused(monkeypatch):
    def no_table(self):
        raise AssertionError("a table was started")

    monkeypatch.setattr(FieldCtx, "_find_generator", no_table)
    with pytest.raises(InvariantViolation, match="GF\\(2\\^20\\)"):
        field_make(21, (1 << 21) | 0b101)  # x^21 + x^2 + 1


def test_prime_field():
    gf2 = field_make(1, 0b11)
    assert gf2.one() + gf2.one() == gf2.zero()
    assert gf2.mul_bits(1, 1) == 1


def test_reducible_modulus_rejected():
    # t^4 + t^2 + 1 = (t^2 + t + 1)^2
    with pytest.raises(InvariantViolation, match=r"factors over GF\(2\)"):
        field_make(4, 0b10101)


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
    assert embed(sub.zero(), sub, sup) == sup.zero()
    im = embed(sub.gen(), sub, sup)
    assert im ** 5 + im ** 2 + sup.one() == sup.zero()
    assert im ** 31 == sup.one()
    assert _min_subfield_degree(im) == 5


def test_embedding_is_ring_homomorphism():
    sub, sup = gf32(), ext_context(10)
    rng = random.Random(101)
    for _ in range(40):
        a = sub.elem(rng.randrange(32))
        b = sub.elem(rng.randrange(32))
        assert embed(a + b, sub, sup) == embed(a, sub, sup) + embed(b, sub, sup)
        assert embed(a * b, sub, sup) == embed(a, sub, sup) * embed(b, sub, sup)
        assert unembed(embed(a, sub, sup), sub) == a


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
