import random

import pytest

from salemsurf.errors import DomainError
from salemsurf.gf2m import embed, ext_context, field_make, gf32
from salemsurf.lattice import lehmer_polynomial
from salemsurf.unipoly import UniPoly, factor, uni_roots


def _product_over_roots(ctx, roots) -> UniPoly:
    """prod (x - r)^mult as a UniPoly over ctx (roots must lie in ctx)."""
    acc = UniPoly(ctx, [1])
    for r, mult in roots:
        assert r.ctx is ctx
        lin = UniPoly(ctx, [r.bits, 1])
        for _ in range(mult):
            acc = acc * lin
    return acc


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
    lin = _product_over_roots(ctx, [(ctx.gen(), 1), (ctx.gen_pow(2), 1)])
    quad = _irreducible_quadratic(ctx)
    f = lin * quad
    roots = uni_roots(f, 5)
    assert sorted(r.bits for r, _ in roots) == sorted(
        [ctx.gen().bits, ctx.gen_pow(2).bits])
    assert sum(m for _, m in roots) == 2 < f.degree()
    # reconstruction: split part times the cofactor is the input
    split = _product_over_roots(ctx, roots)
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
    f = _product_over_roots(ctx, [(ctx.elem(b), 1) for b in range(1, 9)])
    a = factor(f)
    b = factor(f)
    assert [(p.coeffs, m) for p, m in a] == [(p.coeffs, m) for p, m in b]
    assert len(a) == 8


def test_factor_recomposes(ctx):
    quad = _irreducible_quadratic(ctx)
    f = quad * quad * _product_over_roots(ctx, [(ctx.gen_pow(3), 1)])
    acc = UniPoly(ctx, [1])
    for p, mult in factor(f):
        for _ in range(mult):
            acc = acc * p
    assert acc == f


def _root_free(ctx, rng, degree):
    """A random monic polynomial of degree 2 or 3 with no root in ctx,
    hence irreducible over ctx."""
    while True:
        f = UniPoly(ctx, [rng.randrange(32) for _ in range(degree)] + [1])
        if all(f.eval_bits(b) for b in range(32)):
            return f


def _power(f, k):
    acc = UniPoly(f.ctx, [1])
    for _ in range(k):
        acc = acc * f
    return acc


def _brute_roots(f, sup):
    """{root bits in sup: multiplicity} by evaluating f at every element
    of sup and dividing out each root as often as it divides."""
    g = f.embed_to(sup)
    out = {}
    for b in range(1 << sup.m):
        if g.eval_bits(b) == 0:
            lin, rest, mult = UniPoly(sup, [b, 1]), g, 0
            while True:
                q, r = divmod(rest, lin)
                if not r.is_zero():
                    break
                rest, mult = q, mult + 1
            out[b] = mult
    return out


def _seeded_product(ctx, seed):
    """Linear factors with multiplicities 1 to 3 (some roots repeated),
    times an irreducible quadratic and an irreducible cubic."""
    rng = random.Random(seed)
    f = UniPoly(ctx, [1])
    for _ in range(rng.randint(2, 4)):
        f = f * _power(UniPoly(ctx, [rng.randrange(32), 1]), rng.randint(1, 3))
    return f * _root_free(ctx, rng, 2) * _root_free(ctx, rng, 3)


@pytest.mark.parametrize("power", [1, 2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_roots_against_brute_force(ctx, seed, power):
    """Squares and fourth powers have f' = 0; the quadratic's roots lie in
    GF(2^10) and the cubic's in GF(2^15), beyond both bounds."""
    f = _power(_seeded_product(ctx, seed), power)
    sup = ext_context(10)
    brute = _brute_roots(f, sup)
    base = {embed(ctx.elem(b), ctx, sup).bits for b in range(32)}
    for bound in (5, 10):
        roots = uni_roots(f, bound)
        found = {}
        for r, mult in roots:
            assert r.ctx.m == (5 if embed(r, r.ctx, sup).bits in base else 10)
            found[embed(r, r.ctx, sup).bits] = mult
        assert len(found) == len(roots)
        want = {b: m for b, m in brute.items() if bound == 10 or b in base}
        assert found == want


def test_search_stops_at_the_bound(ctx, monkeypatch):
    """(x + g) times two irreducible cubics: with bound 10 the search
    squares 5 times for each of d = 1 and d = 2 and never reaches the
    cubics' degree 3."""
    rng = random.Random(7)
    c1 = _root_free(ctx, rng, 3)
    c2 = _root_free(ctx, rng, 3)
    assert c1 != c2
    f = UniPoly(ctx, [ctx.gen().bits, 1]) * c1 * c2
    squarings = 0
    mul = UniPoly.__mul__

    def counted(a, b):
        nonlocal squarings
        squarings += a is b
        return mul(a, b)

    monkeypatch.setattr(UniPoly, "__mul__", counted)
    roots = uni_roots(f, 10)
    assert [(r.bits, m) for r, m in roots] == [(ctx.gen().bits, 1)]
    assert squarings == (10 // 5) * 5
