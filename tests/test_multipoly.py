import random

import pytest

import salemsurf.multipoly as mp
from salemsurf.cubic_checks import standard_cubic
from salemsurf.errors import DomainError, InvariantViolation, ParseError
from salemsurf.gf2m import field_make, gf32
from salemsurf.multipoly import (MultiPoly, canonical, format_point,
                                 format_poly, linear_solve, local_expansion,
                                 parse_poly, parse_poly_file, plane_zeros,
                                 resultant)

NAMES = ("x", "y", "z")


def format_field(ctx) -> str:
    """The `field:` header value of a data file, e.g. g^5=g^2+1."""
    rhs = []
    for k in range(ctx.m - 1, -1, -1):
        if (ctx.modulus >> k) & 1:
            rhs.append("1" if k == 0 else ("g" if k == 1 else f"g^{k}"))
    return f"g^{ctx.m}=" + "+".join(rhs)


def _format_poly_file(names, weights, ctx, polys: dict) -> str:
    head = (f"vars: {' '.join(names)}; "
            f"weights: {' '.join(str(w) for w in weights)}; "
            f"field: {format_field(ctx)}")
    lines = [head]
    for label, p in polys.items():
        lines.append(f"{label} = {format_poly(p, names)}")
    return "\n".join(lines) + "\n"


def _rand_poly(ctx, nvars, rng, maxdeg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randrange(maxdeg + 1) for _ in range(nvars))
        terms[exps] = rng.randrange(1, 32)
    return MultiPoly(ctx, nvars, terms)


def test_canonical_form_drops_zero_terms(ctx):
    p = MultiPoly(ctx, 2, {(1, 0): 3, (0, 1): 0})
    assert p.num_terms() == 1
    assert p == MultiPoly(ctx, 2, {(1, 0): 3})


def test_substitute_identity(ctx):
    rng = random.Random(7)
    ident = [MultiPoly.var(ctx, 3, i) for i in range(3)]
    for _ in range(10):
        p = _rand_poly(ctx, 3, rng)
        assert p.substitute(ident) == p


def test_substitute_swap_symmetry(ctx):
    x = MultiPoly.var(ctx, 2, 0)
    y = MultiPoly.var(ctx, 2, 1)
    assert (x + y).substitute([y, x]) == x + y


def test_substitute_is_ring_homomorphism(ctx):
    rng = random.Random(8)
    for _ in range(12):
        p = _rand_poly(ctx, 2, rng)
        q = _rand_poly(ctx, 2, rng)
        images = [_rand_poly(ctx, 2, rng, maxdeg=2, nterms=2)
                  for _ in range(2)]
        assert (p * q).substitute(images) == \
            p.substitute(images) * q.substitute(images)
        assert (p + q).substitute(images) == \
            p.substitute(images) + q.substitute(images)


def test_partial_even_exponents_vanish(ctx):
    p = MultiPoly(ctx, 2, {(2, 1): 1})  # x^2 y
    assert p.partial(0).is_zero()
    cube = MultiPoly(ctx, 1, {(3,): 1})
    assert cube.partial(0) == MultiPoly(ctx, 1, {(2,): 1})


def test_cubic_partials_vanish_at_singular_point(model):
    for i in range(3):
        assert model.g.partial(i).eval_bits(model.cusp) == 0


def test_multiplicity(ctx):
    p = MultiPoly(ctx, 2, {(2, 1): 1, (0, 4): 1})  # x^2 y + y^4
    assert p.order() == 3
    one = MultiPoly(ctx, 2, {(0, 0): 1, (1, 0): 1})
    assert one.order() == 0


def test_order_of_zero_is_a_domain_error(ctx):
    with pytest.raises(DomainError, match="order of the zero polynomial"):
        MultiPoly(ctx, 2, {}).order()


def test_model_chart_order_at_origin(model):
    chart = local_expansion(model.s, (0, 0, 1))
    assert chart.order() == 4  # p_1 is the chart origin


def test_multiplicity_is_additive(ctx):
    rng = random.Random(9)
    for _ in range(10):
        p = _rand_poly(ctx, 2, rng, maxdeg=2, nterms=3)
        q = _rand_poly(ctx, 2, rng, maxdeg=2, nterms=3)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).order() == p.order() + q.order()


def test_resultant_linear(ctx):
    # res_y(y + a, y + b) = a + b, for a and b in x
    y = MultiPoly.var(ctx, 2, 1)
    a = MultiPoly.var(ctx, 2, 0)
    b = a * a + MultiPoly(ctx, 2, {(0, 0): ctx.gen_pow(1)})
    assert resultant(y + a, y + b) == a + b


def test_resultant_shared_root(ctx):
    y = MultiPoly.var(ctx, 2, 1)
    one = MultiPoly(ctx, 2, {(0, 0): 1})
    assert resultant(y * y + one, y + one).is_zero()


def _sylvester_det(ctx, a, b):
    """det of the Sylvester matrix of a, b (coefficients low degree
    first, nonzero leading ones) by Gaussian elimination; row swaps
    carry no sign in characteristic 2."""
    da, db = len(a) - 1, len(b) - 1
    n = da + db
    rows = [[0] * k + a[::-1] + [0] * (n - da - 1 - k) for k in range(db)]
    rows += [[0] * k + b[::-1] + [0] * (n - db - 1 - k) for k in range(da)]
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return 0
        rows[c], rows[piv] = rows[piv], rows[c]
        det = ctx.mul_bits(det, rows[c][c])
        inv = ctx.inv_bits(rows[c][c])
        for r in range(c + 1, n):
            f = ctx.mul_bits(rows[r][c], inv)
            if f:
                rows[r] = [u ^ ctx.mul_bits(f, v)
                           for u, v in zip(rows[r], rows[c])]
    return det


def _fibre(p, x0):
    """Coefficients in y of p with x at x0."""
    out = [0] * (p.degree_in(1) + 1)
    for (ex, ey), c in p.terms.items():
        out[ey] ^= p.ctx.mul_bits(c, p.ctx.pow_bits(x0, ex) if ex else 1)
    return out


def _check_against_sylvester(ctx, p, q):
    res = resultant(p, q)
    assert res.degree_in(1) <= 0
    checked = 0
    for x0 in range(1 << ctx.m):
        a, b = _fibre(p, x0), _fibre(q, x0)
        if not (a[-1] and b[-1]):
            continue
        assert res.eval_bits((x0, 0)) == _sylvester_det(ctx, a, b)
        checked += 1
    return checked


def test_resultant_matches_sylvester_on_model(ctx, model):
    sx = local_expansion(model.s.partial(0), (0, 0, 1))
    sy = local_expansion(model.s.partial(1), (0, 0, 1))
    assert _check_against_sylvester(ctx, sx, sy) > 0


def test_resultant_matches_sylvester_on_random_bivariates(ctx):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda e: sum(e) <= 4)
    polys = st.dictionaries(exps, st.integers(1, 31), min_size=1,
                            max_size=6).map(lambda t: MultiPoly(ctx, 2, t))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(polys, polys)
    def check(p, q):
        hyp.assume(max(p.degree_in(1), q.degree_in(1)) > 0)
        _check_against_sylvester(ctx, p, q)

    check()


def test_resultant_vanishes_at_common_zeros(model):
    # eliminate y from the two partials in the z = 1 chart; the result
    # must vanish at the x-coordinate of every singular point there
    sx = local_expansion(model.s.partial(0), (0, 0, 1))
    sy = local_expansion(model.s.partial(1), (0, 0, 1))
    res = resultant(sx, sy)
    for x0, y0, z0 in model.points.values():
        if z0 != 1:
            continue
        assert sx.eval_bits((x0, y0)) == 0
        assert sy.eval_bits((x0, y0)) == 0
        assert res.eval_bits((x0, y0)) == 0


def test_resultant_takes_one_fibre_per_frobenius_orbit(monkeypatch, model):
    """On the bundled z-chart partials (Sylvester bound 100: 101 nodes
    and a check in GF(2^10)) the fibre resultant at a also gives the
    node at its conjugate a^32, so far fewer than 102 fibres are
    computed. The last one is the check, computed directly: a wrong
    value there is caught."""
    sx, sy = (local_expansion(model.s.partial(i), (0, 0, 1)) for i in (0, 1))
    euclid, calls = mp._euclid_resultant, []

    def counting(a, b):
        calls.append(euclid(a, b))
        return calls[-1]

    monkeypatch.setattr(mp, "_euclid_resultant", counting)
    assert resultant(sx, sy).degree_in(0) == 89
    assert len(calls) <= 60
    last, calls[:] = len(calls), []

    def corrupting(a, b):
        return counting(a, b) ^ (len(calls) == last)

    monkeypatch.setattr(mp, "_euclid_resultant", corrupting)
    with pytest.raises(InvariantViolation,
                       match="interpolation misses its check point"):
        resultant(sx, sy)
    assert len(calls) == last


def test_translate_matches_evaluation(ctx):
    rng = random.Random(10)
    for _ in range(10):
        p = _rand_poly(ctx, 2, rng)
        a, b = rng.randrange(32), rng.randrange(32)
        t = p.translate((a, b))
        for _ in range(5):
            u, v = rng.randrange(32), rng.randrange(32)
            assert t.eval_bits((u, v)) == \
                p.eval_bits((u ^ a, v ^ b))


def test_square_detection(ctx):
    x = MultiPoly.var(ctx, 2, 0)
    y = MultiPoly.var(ctx, 2, 1)
    sq = (x * y + x * x) * (x * y + x * x)
    assert sq.is_square()
    assert sq.poly_sqrt() == x * y + x * x
    assert not (x * y).is_square()


def test_initial_form(ctx):
    x = MultiPoly.var(ctx, 2, 0)
    y = MultiPoly.var(ctx, 2, 1)
    p = x * y + y * y * y
    assert p.initial_form() == x * y


def test_linear_solve_identity(ctx):
    assert linear_solve(ctx, [[1, 0], [0, 1]]) == []


def test_linear_solve_kernel(ctx):
    assert linear_solve(ctx, [[1, 1]]) == [[1, 1]]
    g4 = ctx.gen_pow(4)
    assert linear_solve(ctx, [[1, g4, 0]]) == [[g4, 1, 0], [0, 0, 1]]


def _dense_kernel(ctx, a):
    """Gauss-Jordan with whole-row updates, one field product per
    entry: the reference for linear_solve, with the same pivot order.
    Returns the kernel basis as bit vectors."""
    a = [list(row) for row in a]
    mul, inv = ctx.mul_bits, ctx.inv_bits
    m, ncols = len(a), len(a[0])
    piv_of_col = {}
    r = 0
    for c in range(ncols):
        sel = next((rr for rr in range(r, m) if a[rr][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        s = inv(a[r][c])
        a[r] = [mul(v, s) for v in a[r]]
        for rr in range(m):
            if rr != r and a[rr][c]:
                f = a[rr][c]
                a[rr] = [v ^ mul(f, w) for v, w in zip(a[rr], a[r])]
        piv_of_col[c] = r
        r += 1
    kernel = []
    for fc in (c for c in range(ncols) if c not in piv_of_col):
        v = [0] * ncols
        v[fc] = 1
        for c, rr in piv_of_col.items():
            v[c] = a[rr][fc]
        kernel.append(v)
    return kernel


def _apply(ctx, a, x):
    out = []
    for row in a:
        acc = 0
        for v, w in zip(row, x):
            acc ^= ctx.mul_bits(v, w)
        out.append(acc)
    return out


def test_linear_solve_against_dense_elimination(ctx):
    """Seeded square, tall and wide matrices of full and deficient
    rank: the kernel basis is the reference's, and A kills it."""
    rng = random.Random(29)
    dims = set()
    for m, n in ((6, 6), (9, 5), (5, 9), (12, 12)):
        for rank in (min(m, n), min(m, n) - 2, 1):
            for _ in range(4):
                left = [[rng.randrange(32) for _ in range(rank)]
                        for _ in range(m)]
                right = [[rng.randrange(32) for _ in range(n)]
                         for _ in range(rank)]
                cols = list(zip(*right))
                a = [_apply(ctx, cols, row) for row in left]
                kernel = linear_solve(ctx, a)
                assert kernel == _dense_kernel(ctx, a)
                assert all(_apply(ctx, a, k) == [0] * m for k in kernel)
                dims.add(len(kernel))
    assert 0 in dims and len(dims) > 2


def test_poly_text_roundtrip(ctx):
    rng = random.Random(11)
    for _ in range(10):
        p = _rand_poly(ctx, 3, rng)
        assert parse_poly(ctx, NAMES, format_poly(p, NAMES)) == p


def test_poly_file_roundtrip(ctx):
    rng = random.Random(12)
    polys = {"a": _rand_poly(ctx, 3, rng), "b": _rand_poly(ctx, 3, rng)}
    text = _format_poly_file(NAMES, (1, 1, 1), ctx, polys)
    names, fctx, parsed = parse_poly_file(text, "test.poly")
    assert tuple(names) == NAMES
    assert fctx is ctx
    assert parsed == polys


@pytest.mark.parametrize("names,weights", [
    (NAMES, (1, 1, 2)),
    (NAMES, (1, 1)),
    (("x", "y"), (1, 1)),
])
def test_poly_file_needs_three_weight_1_variables(ctx, names, weights):
    text = _format_poly_file(names, weights, ctx, {})
    with pytest.raises(ParseError,
                       match="^test.poly must declare 3 weight-1 variables$"):
        parse_poly_file(text, "test.poly")


def test_projective_normalization(ctx):
    p = (ctx.gen_pow(14), ctx.gen_pow(7), 1)
    lam = ctx.gen_pow(11)
    assert canonical(ctx, p) == p
    assert canonical(ctx, tuple(ctx.mul_bits(c, lam) for c in p)) == p
    assert canonical(ctx, (ctx.gen_pow(3), lam, 0)) \
        == (ctx.gen_pow(23), 1, 0)
    assert format_point(ctx, p) == "(g^14 : g^7 : 1)"
    assert format_point(ctx, (1, 0, 0)) == "(1 : 0 : 0)"
    with pytest.raises(DomainError, match="all-zero projective"):
        canonical(ctx, (0, 0, 0))


def test_univariate_reads_one_variable(ctx):
    p = MultiPoly(ctx, 3, {(0, 2, 0): 5, (0, 0, 0): 1})
    assert p.univariate_at(1, (0, 0, 0)).coeffs == (1, 0, 5)
    assert p.univariate_at(1, (7, 9, 3)).coeffs == (1, 0, 5)
    assert MultiPoly(ctx, 3, {}).univariate_at(2, (1, 1, 0)).is_zero()
    # z = g^3 turns y z into g^3 y; z = 0 drops it
    q = MultiPoly(ctx, 3, {(0, 2, 0): 5, (0, 1, 1): 1})
    assert q.univariate_at(1, (0, 0, ctx.gen_pow(3))).coeffs \
        == (0, ctx.gen_pow(3), 5)
    assert q.univariate_at(1, (0, 0, 0)).coeffs == (0, 0, 5)
    with pytest.raises(InvariantViolation, match="point arity"):
        MultiPoly(ctx, 2, {(1, 1): 1}).univariate_at(0, (1, 1, 1))


def _brute_plane_zeros(polys):
    """Every point of P^2 in canonical coordinates, (x : y : 1) by x then
    y, then (x : 1 : 0), then (1 : 0 : 0), kept where each poly vanishes."""
    field = range(1 << polys[0].ctx.m)
    points = [(x, y, 1) for x in field for y in field]
    points += [(x, 1, 0) for x in field] + [(1, 0, 0)]
    return [pt for pt in points if all(p.eval_bits(pt) == 0 for p in polys)]


def _rand_form(ctx, degree, rng):
    """A ternary form of the given degree with random coefficients, about
    half of them zero."""
    return MultiPoly(ctx, 3, {(a, b, degree - a - b):
                              rng.randrange(1 << ctx.m) * rng.randrange(2)
                              for a in range(degree + 1)
                              for b in range(degree + 1 - a)})


def test_plane_zeros_matches_a_scan_of_every_point(ctx, model):
    g = model.g
    cases = [[g], [standard_cubic(ctx)], *([c] for c in model.f),
             list(model.f), [g, *(g.partial(i) for i in range(3))],
             [MultiPoly(ctx, 3, {})]]
    for field in (ctx, field_make(3, 0b1011)):
        rng = random.Random(field.m)
        for _ in range(8):
            forms = [_rand_form(field, rng.randrange(1, 5), rng)
                     for _ in range(rng.randrange(1, 3))]
            cases.append(forms)
            # a line's worth of common zeros
            line = _rand_form(field, 1, rng)
            cases.append([line * forms[0], line * _rand_form(field, 2, rng)])
    sizes = []
    for polys in cases:
        zeros = plane_zeros(polys)
        assert zeros == _brute_plane_zeros(polys)
        sizes.append(len(zeros))
    assert sizes[:7] == [33, 33, 65, 65, 65, 3, 1]  # f: pairs of lines
    assert sizes[7] == 1057  # the zero polynomial vanishes everywhere
