import random

import pytest

from salemsurf import LEHMER
from salemsurf.errors import DomainError, InvariantViolation
from salemsurf.gf2m import embed, ext_context, field_make, gf32
from salemsurf.multipoly import MultiPoly
from salemsurf.unipoly import UniPoly, _trace_split, factor, uni_roots


def _mul(*factors) -> UniPoly:
    """The product of UniPolys over one field, schoolbook; the package
    takes no products of UniPolys but squares (`UniPoly.square`)."""
    ctx = factors[0].ctx
    acc = [1]
    for f in factors:
        out = [0] * (len(acc) + len(f.coeffs))
        for i, a in enumerate(acc):
            for j, b in enumerate(f.coeffs):
                out[i + j] ^= ctx.mul_bits(a, b)
        acc = out
    return UniPoly(ctx, acc)


def _product_over_roots(ctx, roots) -> UniPoly:
    """prod (x - r)^mult as a UniPoly over ctx, for (field, bits, mult)
    triples whose roots lie in ctx."""
    acc = UniPoly(ctx, [1])
    for k, r, mult in roots:
        assert k is ctx
        lin = UniPoly(ctx, [r, 1])
        for _ in range(mult):
            acc = _mul(acc, lin)
    return acc


def test_divmod_roundtrip(ctx):
    f = UniPoly(ctx, [ctx.gen_pow(k) for k in range(7)])
    g = UniPoly(ctx, [1, ctx.gen_pow(3), 1])
    q, r = divmod(f, g)
    assert _mul(q, g) + r == f
    assert r.degree() < g.degree()
    with pytest.raises(DomainError, match="zero polynomial"):
        divmod(f, UniPoly(ctx, []))


def test_evaluation(ctx):
    f = UniPoly(ctx, [1, 0, 1])  # x^2 + 1
    assert f.eval_bits(1) == 0
    assert f.eval_bits(ctx.gen_pow(1)) == ctx.gen_pow(2) ^ 1
    assert repr(f) == "UniPoly(1*x^0 + 1*x^2)"
    assert repr(UniPoly(ctx, [0, ctx.gen_pow(3)])) == "UniPoly(g^3*x^1)"


def test_modulus_polynomial_roots_are_frobenius_orbit(ctx):
    f = UniPoly(ctx, [1, 0, 1, 0, 0, 1])  # the context modulus, over itself
    roots = uni_roots(f, 5)
    assert {k for k, _, _ in roots} == {ctx}
    assert sorted(ctx.dlog_bits(r) for _, r, _ in roots) == [1, 2, 4, 8, 16]
    assert all(mult == 1 for _, _, mult in roots)


def test_double_root_over_prime_field():
    gf2 = field_make(1, 0b11)
    roots = uni_roots(UniPoly(gf2, [1, 0, 1]), 1)  # (x + 1)^2
    assert len(roots) == 1
    assert roots == [(gf2, 1, 2)]


def test_degree10_polynomial_mod2_roots(ctx):
    f = UniPoly(ctx, [c % 2 for c in list(LEHMER)])
    roots = uni_roots(f, 10)
    assert len(roots) == 10
    bits = {r for _, r, _ in roots}
    assert len(bits) == 10
    for k, r, mult in roots:
        assert mult == 1
        assert k is ctx
        assert ctx.pow_bits(r, 31) == 1 and r != 1  # order 31


def test_bound_is_the_largest_degree_searched():
    gf2 = field_make(1, 0b11)
    f = UniPoly(gf2, [1, 1, 0, 1])  # x^3 + x + 1, irreducible over GF(2)
    roots = uni_roots(f, 4)
    assert len(roots) == 3
    assert all(k.m == 3 and mult == 1 for k, _, mult in roots)
    assert all(f.embed_to(k).eval_bits(r) == 0 for k, r, _ in roots)
    assert uni_roots(f, 2) == []


def test_multipoly_embed_to_commutes_with_evaluation(ctx):
    """MultiPoly.embed_to embeds every coefficient, as UniPoly.embed_to
    does: from GF(32) to GF(2^10), evaluating and then embedding agrees
    with embedding and then evaluating at the embedded point, and the
    polynomial's own field gives it back unchanged."""
    sup = ext_context(10)
    rng = random.Random(32)
    p = MultiPoly(ctx, 3, {tuple(rng.randrange(4) for _ in range(3)):
                           rng.randrange(1, 32) for _ in range(8)})
    q = p.embed_to(sup)
    assert q.ctx is sup and q.terms.keys() == p.terms.keys()
    for _ in range(200):
        pt = tuple(rng.randrange(32) for _ in range(3))
        assert q.eval_bits([embed(b, ctx, sup) for b in pt]) \
            == embed(p.eval_bits(pt), ctx, sup)
    assert (p * p).embed_to(sup) == q * q
    assert p.embed_to(ctx) is p


def test_root_output_is_sorted(ctx):
    f = UniPoly(ctx, [c % 2 for c in list(LEHMER)])
    roots = uni_roots(f, 10)
    keys = [(k.m, r) for k, r, _ in roots]
    assert keys == sorted(keys)


def _irreducible_quadratic(ctx):
    for cbits in range(1, 32):
        f = UniPoly(ctx, [cbits, 1, 1])
        if all(f.eval_bits(b) != 0 for b in range(32)):
            return f
    raise AssertionError("no irreducible quadratic found")


def test_bounded_search_reports_cofactor(ctx):
    """Roots beyond the extension bound are omitted, never invented."""
    lin = _product_over_roots(ctx, [(ctx, ctx.gen_pow(1), 1),
                                    (ctx, ctx.gen_pow(2), 1)])
    quad = _irreducible_quadratic(ctx)
    f = _mul(lin, quad)
    roots = uni_roots(f, 5)
    assert sorted(r for _, r, _ in roots) == sorted(
        [ctx.gen_pow(1), ctx.gen_pow(2)])
    assert sum(m for _, _, m in roots) == 2 < f.degree()
    # reconstruction: split part times the cofactor is the input
    split = _product_over_roots(ctx, roots)
    q, rem = divmod(f, split)
    assert rem.is_zero() and _mul(q, split) == f
    # raising the bound picks up the quadratic's two conjugate roots
    deep = uni_roots(f, 10)
    assert sum(m for _, _, m in deep) == 4
    assert {k.m for k, _, _ in deep} == {5, 10}


def test_factor_mod2_degree10():
    gf2 = field_make(1, 0b11)
    f = UniPoly(gf2, [c % 2 for c in list(LEHMER)])
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
    f = _product_over_roots(ctx, [(ctx, b, 1) for b in range(1, 9)])
    a = factor(f)
    b = factor(f)
    assert [(p.coeffs, m) for p, m in a] == [(p.coeffs, m) for p, m in b]
    assert len(a) == 8


def test_factor_lists_by_degree_then_coefficients(ctx):
    """factor does not sort: the distinct-degree search finds the
    factors degree by degree and _trace_split sorts each degree's, so
    the list is ordered by (degree, coefficients) as found."""
    rng = random.Random(38)
    for field in (field_make(1, 0b11), field_make(2, 0b111), ctx):
        for _ in range(40):
            f = UniPoly(field, [rng.randrange(1 << field.m)
                                for _ in range(rng.randrange(2, 13))] + [1])
            keys = [(p.degree(), p.coeffs) for p, _ in factor(f)]
            assert keys == sorted(keys)


def test_factor_recomposes(ctx):
    quad = _irreducible_quadratic(ctx)
    f = _mul(quad, quad,
             _product_over_roots(ctx, [(ctx, ctx.gen_pow(3), 1)]))
    acc = UniPoly(ctx, [1])
    for p, mult in factor(f):
        for _ in range(mult):
            acc = _mul(acc, p)
    assert acc == f


def _root_free(ctx, rng, degree):
    """A random monic polynomial of degree 2 or 3 with no root in ctx,
    hence irreducible over ctx."""
    while True:
        f = UniPoly(ctx, [rng.randrange(32) for _ in range(degree)] + [1])
        if all(f.eval_bits(b) for b in range(32)):
            return f


def test_trace_split_refuses_what_it_cannot_split(ctx):
    """An irreducible quadratic is no product of linear factors: no
    trace of the basis sweep splits it, and the sweep ends in an error
    instead of searching forever."""
    quad = _root_free(ctx, random.Random(3), 2)
    with pytest.raises(InvariantViolation, match="no trace splits"):
        _trace_split(quad, 1)


def _power(f, k):
    acc = UniPoly(f.ctx, [1])
    for _ in range(k):
        acc = _mul(acc, f)
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
        f = _mul(f, _power(UniPoly(ctx, [rng.randrange(32), 1]),
                           rng.randint(1, 3)))
    return _mul(f, _root_free(ctx, rng, 2), _root_free(ctx, rng, 3))


@pytest.mark.parametrize("power", [1, 2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_roots_against_brute_force(ctx, seed, power):
    """Squares and fourth powers have f' = 0; the quadratic's roots lie in
    GF(2^10) and the cubic's in GF(2^15), beyond both bounds."""
    f = _power(_seeded_product(ctx, seed), power)
    sup = ext_context(10)
    brute = _brute_roots(f, sup)
    base = {embed(b, ctx, sup) for b in range(32)}
    for bound in (5, 10):
        roots = uni_roots(f, bound)
        found = {}
        for k, r, mult in roots:
            image = embed(r, k, sup)
            assert k.m == (5 if image in base else 10)
            found[image] = mult
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
    f = _mul(UniPoly(ctx, [ctx.gen_pow(1), 1]), c1, c2)
    squarings = 0
    square = UniPoly.square

    def counted(a):
        nonlocal squarings
        squarings += 1
        return square(a)

    monkeypatch.setattr(UniPoly, "square", counted)
    roots = uni_roots(f, 10)
    assert roots == [(ctx, ctx.gen_pow(1), 1)]
    assert squarings == (10 // 5) * 5
