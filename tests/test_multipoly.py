import random

import pytest

from salemsurf.errors import DomainError
from salemsurf.gf2m import gf32
from salemsurf.multipoly import (MultiPoly, ProjPoint, format_poly,
                                 linear_solve, parse_poly, parse_poly_file,
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
    cusp = model.cusp.coords
    for i in range(3):
        assert model.g.partial(i).eval_bits(cusp) == 0


def test_multiplicity(ctx):
    p = MultiPoly(ctx, 2, {(2, 1): 1, (0, 4): 1})  # x^2 y + y^4
    assert p.multiplicity_at((0, 0)) == 3
    one = MultiPoly(ctx, 2, {(0, 0): 1, (1, 0): 1})
    assert one.multiplicity_at((0, 0)) == 0


def test_model_chart_multiplicity_at_origin(model):
    chart = model.s.restrict(2, 1).drop_var(2)
    assert chart.multiplicity_at((0, 0)) == 4  # p_1 is the chart origin


def test_multiplicity_is_additive(ctx):
    rng = random.Random(9)
    for _ in range(10):
        p = _rand_poly(ctx, 2, rng, maxdeg=2, nterms=3)
        q = _rand_poly(ctx, 2, rng, maxdeg=2, nterms=3)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).multiplicity_at((0, 0)) == \
            p.multiplicity_at((0, 0)) + q.multiplicity_at((0, 0))


def test_resultant_linear(ctx):
    # res_x(x + a, x + b) = a + b, for a and b in y
    x = MultiPoly.var(ctx, 2, 0)
    a = MultiPoly.var(ctx, 2, 1)
    b = a * a + MultiPoly.const(ctx, 2, ctx.gen().bits)
    assert resultant(x + a, x + b, 0) == a + b


def test_resultant_shared_root(ctx):
    x = MultiPoly.var(ctx, 2, 0)
    one = MultiPoly.const(ctx, 2, 1)
    assert resultant(x * x + one, x + one, 0).is_zero()


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


def _fibre(p, i, x0):
    """Coefficients in variable i of p with the other variable at x0."""
    j = 1 - i
    out = [0] * (p.degree_in(i) + 1)
    for e, c in p.terms.items():
        out[e[i]] ^= p.ctx.mul_bits(c, p.ctx.pow_bits(x0, e[j])
                                    if e[j] else 1)
    return out


def _check_against_sylvester(ctx, p, q, i):
    res = resultant(p, q, i)
    assert res.degree_in(i) <= 0
    checked = 0
    for x0 in range(32):
        a, b = _fibre(p, i, x0), _fibre(q, i, x0)
        if not (a[-1] and b[-1]):
            continue
        point = (x0, 0) if i == 1 else (0, x0)
        assert res.eval_bits(point) == _sylvester_det(ctx, a, b)
        checked += 1
    return checked


def test_resultant_matches_sylvester_on_model(ctx, model):
    sx = model.s.partial(0).restrict(2, 1).drop_var(2)
    sy = model.s.partial(1).restrict(2, 1).drop_var(2)
    assert _check_against_sylvester(ctx, sx, sy, 1) > 0


def test_resultant_matches_sylvester_on_random_bivariates(ctx):
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda e: sum(e) <= 4)
    polys = st.dictionaries(exps, st.integers(1, 31), min_size=1,
                            max_size=6).map(lambda t: MultiPoly(ctx, 2, t))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(polys, polys, st.integers(0, 1))
    def check(p, q, i):
        hyp.assume(max(p.degree_in(i), q.degree_in(i)) > 0)
        _check_against_sylvester(ctx, p, q, i)

    check()


def test_resultant_vanishes_at_common_zeros(model):
    # eliminate y from the two partials in the z = 1 chart; the result
    # must vanish at the x-coordinate of every singular point there
    sx = model.s.partial(0).restrict(2, 1).drop_var(2)
    sy = model.s.partial(1).restrict(2, 1).drop_var(2)
    res = resultant(sx, sy, 1)
    for pt in model.points.values():
        if pt.coords[2] != 1:
            continue
        x0, y0 = pt.coords[0], pt.coords[1]
        assert sx.eval_bits((x0, y0)) == 0
        assert sy.eval_bits((x0, y0)) == 0
        assert res.eval_bits((x0, y0)) == 0


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


def test_divide_by_power(ctx):
    x = MultiPoly.var(ctx, 2, 0)
    y = MultiPoly.var(ctx, 2, 1)
    p = x * x * y + x * x * x
    assert p.divide_by_power(0, 2) == y + x
    with pytest.raises(DomainError, match="term has degree"):
        (p + y).divide_by_power(0, 1)


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
    rows = [[1, 0], [0, 1]]
    rhs = [ctx.gen_pow(4).bits, ctx.gen_pow(9).bits]
    res = linear_solve(ctx, rows, rhs)
    assert res.status == "unique"
    assert [e.bits for e in res.solution] == rhs


def test_linear_solve_inconsistent(ctx):
    res = linear_solve(ctx, [[1], [1]], [0, 1])
    assert res.status == "inconsistent"


def test_linear_solve_kernel(ctx):
    res = linear_solve(ctx, [[1, 1]], [0])
    assert res.status == "kernel"
    assert len(res.kernel) == 1


def _dense_solve(ctx, a, b):
    """Gauss-Jordan with whole-row updates, one field product per
    entry: the reference for linear_solve, with the same pivot order.
    Returns (status, solution bits, kernel bit vectors)."""
    a = [list(row) for row in a]
    b = list(b)
    mul, inv = ctx.mul_bits, ctx.inv_bits
    m, ncols = len(a), len(a[0])
    piv_of_col = {}
    r = 0
    for c in range(ncols):
        sel = next((rr for rr in range(r, m) if a[rr][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        b[r], b[sel] = b[sel], b[r]
        s = inv(a[r][c])
        a[r] = [mul(v, s) for v in a[r]]
        b[r] = mul(b[r], s)
        for rr in range(m):
            if rr != r and a[rr][c]:
                f = a[rr][c]
                a[rr] = [v ^ mul(f, w) for v, w in zip(a[rr], a[r])]
                b[rr] ^= mul(f, b[r])
        piv_of_col[c] = r
        r += 1
    if any(b[r:]):
        return "inconsistent", None, []
    sol = [0] * ncols
    for c, rr in piv_of_col.items():
        sol[c] = b[rr]
    kernel = []
    for fc in (c for c in range(ncols) if c not in piv_of_col):
        v = [0] * ncols
        v[fc] = 1
        for c, rr in piv_of_col.items():
            v[c] = a[rr][fc]
        kernel.append(v)
    return ("kernel" if kernel else "unique"), sol, kernel


def _apply(ctx, a, x):
    out = []
    for row in a:
        acc = 0
        for v, w in zip(row, x):
            acc ^= ctx.mul_bits(v, w)
        out.append(acc)
    return out


def test_linear_solve_against_dense_elimination(ctx):
    """Seeded square, tall and wide systems of full and deficient rank,
    with consistent and arbitrary right-hand sides."""
    rng = random.Random(29)
    seen = set()
    for m, n in ((6, 6), (9, 5), (5, 9), (12, 12)):
        for rank in (min(m, n), min(m, n) - 2, 1):
            for _ in range(4):
                left = [[rng.randrange(32) for _ in range(rank)]
                        for _ in range(m)]
                right = [[rng.randrange(32) for _ in range(n)]
                         for _ in range(rank)]
                cols = list(zip(*right))
                a = [_apply(ctx, cols, row) for row in left]
                x0 = [rng.randrange(32) for _ in range(n)]
                for b in (_apply(ctx, a, x0),
                          [rng.randrange(32) for _ in range(m)]):
                    res = linear_solve(ctx, a, b)
                    status, sol, kernel = _dense_solve(ctx, a, b)
                    seen.add(status)
                    assert res.status == status
                    if status == "inconsistent":
                        assert res.solution is None and res.kernel == []
                        continue
                    got = [e.bits for e in res.solution]
                    assert got == sol
                    assert _apply(ctx, a, got) == b
                    assert [[e.bits for e in k] for k in res.kernel] \
                        == kernel
                    for k in kernel:
                        assert not any(_apply(ctx, a, k))
    assert seen == {"unique", "kernel", "inconsistent"}


def test_poly_text_roundtrip(ctx):
    rng = random.Random(11)
    for _ in range(10):
        p = _rand_poly(ctx, 3, rng)
        assert parse_poly(ctx, NAMES, format_poly(p, NAMES)) == p


def test_poly_file_roundtrip(ctx):
    rng = random.Random(12)
    polys = {"a": _rand_poly(ctx, 3, rng), "b": _rand_poly(ctx, 3, rng)}
    text = _format_poly_file(NAMES, (1, 1, 1), ctx, polys)
    names, weights, fctx, parsed = parse_poly_file(text)
    assert names == list(NAMES) or tuple(names) == NAMES
    assert tuple(weights) == (1, 1, 1)
    assert fctx is ctx
    assert parsed == polys


def test_projective_normalization(ctx):
    p = ProjPoint(ctx, (ctx.gen_pow(14), ctx.gen_pow(7), ctx.one()))
    lam = ctx.gen_pow(11)
    q = ProjPoint(ctx, tuple(ctx.elem(c) * lam for c in p.coords))
    assert p == q
    assert repr(p) == "(g^14 : g^7 : 1)"
    with pytest.raises(DomainError, match="all-zero projective"):
        ProjPoint(ctx, (0, 0, 0))
