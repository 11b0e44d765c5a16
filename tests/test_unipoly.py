import pytest

from salemsurf.errors import DomainError
from salemsurf.gf2m import ext_context, field_make, gf32
from salemsurf.lattice import lehmer_polynomial
from salemsurf.unipoly import UniPoly, factor, product_over_roots, uni_roots


def test_divmod_roundtrip(ctx):
    f = UniPoly(ctx, [ctx.gen_pow(k).bits for k in range(7)])
    g = UniPoly(ctx, [1, ctx.gen_pow(3).bits, 1])
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree() < g.degree()
    with pytest.raises(DomainError, match="zero polynomial"):
        divmod(f, UniPoly(ctx, []))


def test_evaluation(ctx):
    f = UniPoly(ctx, [1, 0, 1])  # x^2 + 1
    assert f(ctx.one()) == ctx.zero()
    assert f(ctx.gen()) == ctx.gen() ** 2 + ctx.one()


def test_modulus_polynomial_roots_are_frobenius_orbit(ctx):
    f = UniPoly(ctx, [1, 0, 1, 0, 0, 1])  # the context modulus, over itself
    roots = uni_roots(f, 5)
    assert {r.ctx for r, _ in roots} == {ctx}
    assert sorted((r.ctx.dlog_bits(r.bits)) for r, _ in roots) == [1, 2, 4, 8, 16]
    assert all(mult == 1 for _, mult in roots)


def test_double_root_over_prime_field():
    gf2 = field_make(1, 0b11)
    roots = uni_roots(UniPoly(gf2, [1, 0, 1]), 1)  # (x + 1)^2
    assert len(roots) == 1
    root, mult = roots[0]
    assert root.bits == 1 and mult == 2


def test_degree10_polynomial_mod2_roots(ctx):
    f = UniPoly(ctx, [c % 2 for c in lehmer_polynomial()])
    roots = uni_roots(f, 10)
    assert len(roots) == 10
    bits = {r.bits for r, _ in roots}
    assert len(bits) == 10
    for r, mult in roots:
        assert mult == 1
        assert r.ctx is ctx
        assert ctx.pow_bits(r.bits, 31) == 1 and r.bits != 1  # order 31


def test_bound_is_the_largest_degree_searched():
    gf2 = field_make(1, 0b11)
    f = UniPoly(gf2, [1, 1, 0, 1])  # x^3 + x + 1, irreducible over GF(2)
    roots = uni_roots(f, 4)
    assert len(roots) == 3
    assert all(r.ctx.m == 3 and mult == 1 for r, mult in roots)
    assert all(f.embed_to(r.ctx)(r) == r.ctx.zero() for r, _ in roots)
    assert uni_roots(f, 2) == []


def test_root_output_is_sorted(ctx):
    f = UniPoly(ctx, [c % 2 for c in lehmer_polynomial()])
    roots = uni_roots(f, 10)
    keys = [(r.ctx.m, r.bits) for r, _ in roots]
    assert keys == sorted(keys)


def _irreducible_quadratic(ctx):
    for cbits in range(1, 32):
        f = UniPoly(ctx, [cbits, 1, 1])
        if all(f(ctx.elem(b)).bits != 0 for b in range(32)):
            return f
    raise AssertionError("no irreducible quadratic found")


def test_bounded_search_reports_cofactor(ctx):
    """Roots beyond the extension bound are omitted, never invented."""
    lin = product_over_roots(ctx, [(ctx.gen(), 1), (ctx.gen_pow(2), 1)])
    quad = _irreducible_quadratic(ctx)
    f = lin * quad
    roots = uni_roots(f, 5)
    assert sorted(r.bits for r, _ in roots) == sorted(
        [ctx.gen().bits, ctx.gen_pow(2).bits])
    assert sum(m for _, m in roots) == 2 < f.degree()
    # reconstruction: split part times the cofactor is the input
    split = product_over_roots(ctx, roots)
    q, rem = divmod(f, split)
    assert rem.is_zero() and q * split == f
    # raising the bound picks up the quadratic's two conjugate roots
    deep = uni_roots(f, 10)
    assert sum(m for _, m in deep) == 4
    assert {r.ctx.m for r, _ in deep} == {5, 10}


def test_factor_mod2_degree10():
    gf2 = field_make(1, 0b11)
    f = UniPoly(gf2, [c % 2 for c in lehmer_polynomial()])
    facts = factor(f)
    assert [list(p.coeffs) for p, _ in facts] == [
        [1, 0, 1, 1, 1, 1], [1, 1, 1, 1, 0, 1]]
    assert all(m == 1 for _, m in facts)


def test_factor_char2_square():
    gf2 = field_make(1, 0b11)
    facts = factor(UniPoly(gf2, [1, 0, 1]))  # x^2 + 1 = (x + 1)^2
    assert len(facts) == 1
    p, mult = facts[0]
    assert list(p.coeffs) == [1, 1] and mult == 2


def test_factor_is_deterministic(ctx):
    # equal-degree splitting is seeded; two runs agree exactly
    f = product_over_roots(ctx, [(ctx.elem(b), 1) for b in range(1, 9)])
    a = factor(f)
    b = factor(f)
    assert [(p.coeffs, m) for p, m in a] == [(p.coeffs, m) for p, m in b]
    assert len(a) == 8


def test_factor_recomposes(ctx):
    quad = _irreducible_quadratic(ctx)
    f = quad * quad * product_over_roots(ctx, [(ctx.gen_pow(3), 1)])
    acc = UniPoly(ctx, [1])
    for p, mult in factor(f):
        for _ in range(mult):
            acc = acc * p
    assert acc == f
