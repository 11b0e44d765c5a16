"""Differential test of the log-domain polynomial kernels.

Each kernel of unipoly and multipoly is compared, on seeded random
inputs over GF(2), GF(32) and GF(2^10), with a schoolbook reference
written here from the scalar operations mul_bits, inv_bits and
pow_bits alone.
"""

import random

import pytest

from salemsurf.gf2m import ext_context, gf32
from salemsurf.multipoly import MultiPoly, local_expansion
from salemsurf.surface import _strict_transforms
from salemsurf.unipoly import UniPoly
from test_multipoly import _check_against_sylvester

FIELDS = {"GF(2)": lambda: ext_context(1), "GF(32)": gf32,
          "GF(2^10)": lambda: ext_context(10)}


@pytest.fixture(params=sorted(FIELDS), scope="module")
def field(request):
    return FIELDS[request.param]()


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _uni_mul(ctx, a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= ctx.mul_bits(x, y)
    return _trim(out)


def _uni_divmod(ctx, a, b):
    r, q = list(a), [0] * max(0, len(a) - len(b) + 1)
    lcinv = ctx.inv_bits(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = ctx.mul_bits(r[k + len(b) - 1], lcinv)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] ^= ctx.mul_bits(c, y)
    return _trim(q), _trim(r)


def _uni_gcd(ctx, a, b):
    while b:
        a, b = b, _uni_divmod(ctx, a, b)[1]
    s = ctx.inv_bits(a[-1])
    return [ctx.mul_bits(c, s) for c in a]


def _uni_eval(ctx, a, x):
    acc, p = 0, 1
    for c in a:
        acc ^= ctx.mul_bits(c, p)
        p = ctx.mul_bits(p, x)
    return acc


def _multi_mul(ctx, s, t):
    out = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) ^ ctx.mul_bits(c1, c2)
    return {e: c for e, c in out.items() if c}


def _multi_eval(ctx, s, point):
    acc = 0
    for e, c in s.items():
        for x, k in zip(point, e):
            c = ctx.mul_bits(c, ctx.pow_bits(x, k) if k else 1)
        acc ^= c
    return acc


def _multi_substitute(ctx, s, images):
    nvars = len(next(iter(images[0])))  # the length of an exponent
    acc = {}
    for e, c in s.items():
        t = {(0,) * nvars: c}
        for image, k in zip(images, e):
            for _ in range(k):
                t = _multi_mul(ctx, t, image)
        for te, tc in t.items():
            acc[te] = acc.get(te, 0) ^ tc
    return {e: c for e, c in acc.items() if c}


def _rand_uni(ctx, rng, degree):
    return [rng.randrange(1 << ctx.m) for _ in range(degree)] \
        + [rng.randrange(1, 1 << ctx.m)]


def _rand_multi(ctx, rng, nvars, nterms, maxdeg=3):
    return {tuple(rng.randrange(maxdeg + 1) for _ in range(nvars)):
            rng.randrange(1, 1 << ctx.m) for _ in range(nterms)}


def test_unipoly_kernels_match_schoolbook(field):
    ctx, rng = field, random.Random(17 + field.m)
    for _ in range(40):
        a = _rand_uni(ctx, rng, rng.randrange(13))
        b = _rand_uni(ctx, rng, rng.randrange(7))
        pa, pb = UniPoly(ctx, a), UniPoly(ctx, b)
        assert list(pa.square().coeffs) == _uni_mul(ctx, a, a)
        q, r = divmod(pa, pb)
        assert (list(q.coeffs), list(r.coeffs)) == _uni_divmod(ctx, a, b)
        assert list(pa.gcd(pb).coeffs) == _uni_gcd(ctx, a, b)
        for x in {0, 1, rng.randrange(1 << ctx.m)}:
            assert pa.eval_bits(x) == _uni_eval(ctx, a, x)


def _clean(p):
    """p, after checking what the constructors that take a term dict
    as it is rely on: no zero coefficient, every exponent a tuple of
    nvars entries."""
    for e, c in p.terms.items():
        assert c != 0
        assert type(e) is tuple and len(e) == p.nvars
    return p


def test_multipoly_kernels_match_schoolbook(field):
    ctx, rng = field, random.Random(29 + field.m)
    for _ in range(25):
        s = _rand_multi(ctx, rng, 3, 6)
        t = _rand_multi(ctx, rng, 3, 4)
        ps, pt = MultiPoly(ctx, 3, s), MultiPoly(ctx, 3, t)
        assert _clean(ps * pt).terms == _multi_mul(ctx, s, t)
        for point in ((0, 1, rng.randrange(1 << ctx.m)),
                      tuple(rng.randrange(1 << ctx.m) for _ in range(3))):
            assert ps.eval_bits(point) == _multi_eval(ctx, s, point)
        images = [_rand_multi(ctx, rng, 3, 3, 2) for _ in range(3)]
        got = ps.substitute([MultiPoly(ctx, 3, im) for im in images])
        assert _clean(got).terms == _multi_substitute(ctx, s, images)


def _univariate_at(ctx, s, var, point):
    """Coefficients, low degree first, of s in variable var with every
    other variable i set to point[i]."""
    out = [0] * (max((e[var] for e in s), default=-1) + 1)
    for e, c in s.items():
        for i, (x, k) in enumerate(zip(point, e)):
            if i != var:
                c = ctx.mul_bits(c, ctx.pow_bits(x, k) if k else 1)
        out[e[var]] ^= c
    return _trim(out)


def test_univariate_at_matches_schoolbook(field):
    ctx, rng = field, random.Random(61 + field.m)
    for nvars in (2, 3):
        for _ in range(15):
            s = _rand_multi(ctx, rng, nvars, rng.randrange(8), 4)
            p = MultiPoly(ctx, nvars, s)
            for var in range(nvars):
                for point in ((0,) * nvars, (1,) * nvars,
                              tuple(rng.randrange(1 << ctx.m) * (i % 2)
                                    for i in range(nvars)),
                              tuple(rng.randrange(1 << ctx.m)
                                    for _ in range(nvars))):
                    got = p.univariate_at(var, point)
                    assert list(got.coeffs) == \
                        _univariate_at(ctx, s, var, point)


def test_strict_transforms_match_substitution_and_division(field):
    """Both blow-up charts of a local polynomial of order >= 4, against
    substituting (u, u v) or (u v, v) and dividing by u^4 or v^4."""
    ctx, rng = field, random.Random(67 + field.m)
    u, v = MultiPoly.var(ctx, 2, 0), MultiPoly.var(ctx, 2, 1)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randrange(1, 8)):
            a = rng.randrange(7)
            terms[(a, rng.randrange(max(0, 4 - a), 7))] = \
                rng.randrange(1, 1 << ctx.m)
        sc = MultiPoly(ctx, 2, terms)
        main, comp = _strict_transforms(sc)
        assert main == sc.substitute([u, u * v]).divide_exact(u * u * u * u)
        assert comp == sc.substitute([u * v, v]).divide_exact(v * v * v * v)


def test_multipoly_results_hold_no_zero_coefficient(field):
    """Every MultiPoly operation that builds its result without the
    checking constructor, on inputs whose terms cancel."""
    ctx, rng = field, random.Random(53 + field.m)
    for _ in range(25):
        ps = MultiPoly(ctx, 3, _rand_multi(ctx, rng, 3, 6))
        pt = MultiPoly(ctx, 3, _rand_multi(ctx, rng, 3, 4))
        a = rng.randrange(1, 1 << ctx.m)
        near = ps + pt.scale_bits(a)  # shares some terms with ps
        assert _clean(near + ps) == _clean(pt.scale_bits(a))
        assert _clean(ps + ps).is_zero()
        assert _clean(ps * pt).divide_exact(pt) == _clean(ps)
        assert _clean((ps * pt).divide_exact(ps)) == pt
        assert _clean((ps * ps).poly_sqrt()) == ps
        point = [rng.randrange(1 << ctx.m) for _ in range(3)]
        shifted = _clean(ps.translate(point))
        assert _clean(shifted.translate(point)) == ps  # char 2: -a = a
        for i in range(3):
            _clean(ps.partial(i))
            # the canonical point of chart i: coordinate i is 1, later 0
            pt = (*point[:i], 1, *(0,) * (2 - i))
            local = _clean(local_expansion(ps, pt))
            assert local.nvars == 2
            assert local.eval_bits((0, 0)) == ps.eval_bits(pt)
        if not ps.is_zero():
            _clean(ps.initial_form())
        images = [MultiPoly(ctx, 3, _rand_multi(ctx, rng, 3, 3, 2))
                  for _ in range(3)]
        _clean(near.substitute(images))


def _monic_in(ctx, rng, degree, nterms):
    """A bivariate polynomial with y^degree as its only term of that
    degree in y, so no fibre loses its leading coefficient."""
    terms = {(rng.randrange(degree + 1), rng.randrange(degree)):
             rng.randrange(1, 1 << ctx.m) for _ in range(nterms)}
    terms[(0, degree)] = 1
    return MultiPoly(ctx, 2, terms)


def test_resultant_matches_sylvester_in_every_field(field):
    ctx, rng = field, random.Random(41 + field.m)
    for _ in range(3):
        p = _monic_in(ctx, rng, 3, 3)
        q = _monic_in(ctx, rng, rng.randrange(1, 4), 2)
        assert _check_against_sylvester(ctx, p, q) == 1 << ctx.m
