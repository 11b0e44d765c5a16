import pytest

from salemsurf.cubic import (AffineAction, all_point_set_matches,
                             beta_from_alpha, chord_third,
                             cusp_parametrization, equivariant_matches,
                             find_cusp, induced_affine_map,
                             lehmer_mod2_roots, orbit_points)
from salemsurf.cubic_checks import (_cubic_alpha_table, _cubic_orbits,
                                    collinear_det,
                                    second_param_expr1, second_param_expr2,
                                    standard_cubic)
from salemsurf.errors import InvariantViolation
from salemsurf.gf2m import field_make, gf32
from salemsurf.multipoly import MultiPoly, canonical, plane_zeros

ROOT_DLOGS = {3, 6, 7, 12, 14, 17, 19, 24, 25, 28}


def _inverse(f: AffineAction) -> AffineAction:
    ai = f.ctx.inv_bits(f.alpha)
    return AffineAction(f.ctx, ai, f.ctx.mul_bits(ai, f.beta))


def _chart(curve):
    points = plane_zeros([curve])
    return cusp_parametrization(curve, _find_cusp(curve, points), points)


def _point_of(chart):
    return {chart.param_of(p): p for p in chart.points}


GF8 = field_make(3, 0b1011)


def test_chart_parameter_of_the_closed_form(ctx):
    # the closed form [t : 1 : t^3] of the group law: the chart of the
    # standard cubic reads t back, and its points are exactly these
    for field in (GF8, ctx):
        point_of = _point_of(_chart(standard_cubic(field)))
        assert len(point_of) == 1 << field.m
        for t in range(1 << field.m):
            closed = (t, 1, field.pow_bits(t, 3))
            assert point_of[t] == canonical(field, closed)
        assert point_of[0] == (0, 1, 0)  # the flex


def test_chord_third_is_collinear(ctx):
    t1, t2 = ctx.gen_pow(4), ctx.gen_pow(21)
    t3 = chord_third(t1, t2)
    # collinearity is symmetric: each point is the chord third of the
    # other two, and a different third parameter is not
    assert chord_third(t2, t3) == t1 and chord_third(t3, t1) == t2
    assert chord_third(t2, t3 ^ 1) != t1


def _check_sum_rule(field, point_of) -> int:
    """The sum rule against the determinant on every ordered triple of
    distinct parameters; returns the number of triples."""
    elems = range(1 << field.m)
    triples = 0
    for a in elems:
        for b in elems:
            if b == a:
                continue
            for c in elems:
                if c == a or c == b:
                    continue
                det = collinear_det(field, point_of[a], point_of[b],
                                    point_of[c])
                assert (chord_third(a, b) == c) == (det == 0)
                triples += 1
    return triples


def test_collinearity_against_determinant():
    # exhaustive over the smallest field where both routes are nontrivial
    _check_sum_rule(GF8, _point_of(_chart(standard_cubic(GF8))))


@pytest.mark.parametrize("field", [GF8, gf32()], ids=["GF8", "GF32"])
def test_chart_with_tangent_line_x(field):
    """y^3 + x^2 z has its tangent line x = 0 at the cusp (0 : 0 : 1), so
    the chart takes l2 on the second kept coordinate: l1 = x, l2 = y. It
    is one to one on the 2^m smooth points, and the sum rule agrees with
    the determinant on every ordered triple of distinct points."""
    curve = MultiPoly(field, 3, {(0, 3, 0): 1, (2, 0, 1): 1})
    chart = _chart(curve)
    assert chart.cusp == (0, 0, 1)
    assert (chart.l1, chart.l2) == ([1, 0, 0], [0, 1, 0])
    point_of = _point_of(chart)
    q = 1 << field.m
    assert sorted(point_of) == list(range(q))
    assert _check_sum_rule(field, point_of) == q * (q - 1) * (q - 2)


def test_affine_action_algebra(ctx):
    f = AffineAction(ctx, ctx.gen_pow(3), ctx.gen_pow(11))
    g = AffineAction(ctx, ctx.gen_pow(7), 1)
    t = ctx.gen_pow(20)
    assert f.compose(g)(t) == f(g(t))
    assert _inverse(f).compose(f)(t) == t
    assert f(f.fixed_point()) == f.fixed_point()
    assert repr(f) == "t -> g^3*t + g^11"
    with pytest.raises(InvariantViolation, match="needs alpha != 0"):
        AffineAction(ctx, 0, 1)
    with pytest.raises(InvariantViolation, match="no fixed point"):
        AffineAction(ctx, 1, 1).fixed_point()


def test_mod2_root_set(ctx):
    roots = lehmer_mod2_roots(ctx)
    assert len(roots) == 10
    assert {ctx.dlog_bits(r) for r in roots} == ROOT_DLOGS
    for r in roots:
        assert ctx.mul_bits(r, r) in roots   # Frobenius closure
        assert ctx.inv_bits(r) in roots      # reciprocal closure


def test_beta_rejections(ctx):
    with pytest.raises(InvariantViolation, match="not a mod-2 root"):
        beta_from_alpha(ctx, 1)
    with pytest.raises(InvariantViolation, match="g\\^16 is not a mod-2 root"):
        beta_from_alpha(ctx, ctx.gen_pow(16))
    with pytest.raises(InvariantViolation, match="not a mod-2 root"):
        beta_from_alpha(ctx, 0)


def test_beta_frobenius_equivariance(ctx):
    for a in lehmer_mod2_roots(ctx):
        b = beta_from_alpha(ctx, a)
        assert beta_from_alpha(ctx, ctx.mul_bits(a, a)) == ctx.mul_bits(b, b)


def test_second_param_routes_agree_only_at_beta(ctx):
    for a in lehmer_mod2_roots(ctx):
        b = beta_from_alpha(ctx, a)
        assert second_param_expr1(ctx, a, b) == second_param_expr2(ctx, a, b)
        wrong = b ^ 1
        assert second_param_expr1(ctx, a, wrong) \
            != second_param_expr2(ctx, a, wrong)


def test_orbit_parameters_for_bundled_scalar(ctx):
    a = ctx.gen_pow(19)
    b = beta_from_alpha(ctx, a)
    assert b == ctx.gen_pow(5)
    params = orbit_points(ctx, a, b)
    assert [ctx.dlog_bits(t) for t in params] == [0, 19, 7, 26, 21, 15, 8,
                                                  12, 2, 14]
    # the closed form by repeated products, without negative powers
    m, ai = ctx.mul_bits, ctx.inv_bits(a)
    assert params[9] == m(ai, 1 ^ b)
    acc, ak = 1, 1
    for i in range(0, 7):
        acc ^= m(ak, b)
        ak = m(ak, a)
    for _ in range(7):
        acc = m(ai, acc)
    assert params[3] == acc


def test_constraints_hold_at_beta_and_break_nearby(ctx):
    point_of = _point_of(_chart(standard_cubic(ctx)))
    for a in lehmer_mod2_roots(ctx):
        b = beta_from_alpha(ctx, a)
        params = orbit_points(ctx, a, b)
        assert _cubic_orbits(ctx, [(a, b, params)], point_of)[0].ok()
        try:
            bad = orbit_points(ctx, a, b ^ 1)
        except InvariantViolation:  # the ten parameters collide
            continue
        assert not _cubic_orbits(ctx, [(a, b ^ 1, bad)], point_of)[0].ok()


def _find_cusp(curve, points=None):
    """find_cusp over the curve's own partials and, unless given, its
    points."""
    if points is None:
        points = plane_zeros([curve])
    return find_cusp([curve.partial(i) for i in range(3)], points)


def test_find_cusp(ctx, model):
    assert _find_cusp(standard_cubic(ctx)) == (0, 0, 1)
    assert _find_cusp(model.g) == model.cusp
    lines = MultiPoly(ctx, 3, {(1, 1, 1): 1})  # xyz: three singular points
    with pytest.raises(InvariantViolation, match="expected 1"):
        _find_cusp(lines)


def test_cusp_chart_samples_the_smooth_points(ctx, model):
    for curve in (standard_cubic(ctx), model.g):
        chart = _chart(curve)
        on_curve = {canonical(ctx, (x, y, z))
                    for x in range(32) for y in range(32) for z in (0, 1)
                    if any((x, y, z)) and curve.eval_bits((x, y, z)) == 0}
        assert set(chart.points) == on_curve - {chart.cusp}
        assert len(chart.points) == 32
        params = {chart.param_of(p) for p in chart.points}
        assert params == set(range(32))
        with pytest.raises(InvariantViolation, match="tangent cone line"):
            chart.param_of(chart.cusp)


def test_cusp_chart_refuses_a_conic_with_its_tangent(ctx):
    # y (x^2 + y z): the one singular point (0 : 0 : 1) has a double
    # tangent line, but the curve is reducible with 64 smooth points
    curve = MultiPoly(ctx, 3, {(2, 1, 0): 1, (0, 2, 1): 1})
    assert _find_cusp(curve) == (0, 0, 1)
    with pytest.raises(InvariantViolation, match="64 smooth points"):
        _chart(curve)


def test_induced_map_identity(ctx):
    comps = [MultiPoly.var(ctx, 3, i) for i in range(3)]
    curve = standard_cubic(ctx)
    action = induced_affine_map(_chart(curve), comps,
                                curve.substitute(comps))
    assert action == AffineAction(ctx, 1, 0)


def test_induced_map_rejects_non_preserving(ctx):
    x = MultiPoly.var(ctx, 3, 0)
    y = MultiPoly.var(ctx, 3, 1)
    z = MultiPoly.var(ctx, 3, 2)
    with pytest.raises(InvariantViolation,
                       match="does not preserve the curve"):
        curve = standard_cubic(ctx)
        induced_affine_map(_chart(curve), [y, x, z],
                           curve.substitute([y, x, z]))


@pytest.mark.parametrize("field,image,message", [
    # over GF(2) the identity has only 2 smooth points to sample
    (field_make(1, 0b11), lambda v: v, "only 2 usable samples"),
    # Frobenius keeps the curve but acts on the chart as t -> t^2
    (gf32(), lambda v: v * v, "induced parameter map failed validation")])
def test_induced_map_refuses_an_action_it_cannot_fit(field, image, message):
    comps = [image(MultiPoly.var(field, 3, i)) for i in range(3)]
    curve = standard_cubic(field)
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        induced_affine_map(_chart(curve), comps, curve.substitute(comps))


def test_induced_map_of_bundled_model(ctx, model):
    chart = _chart(model.g)
    action = induced_affine_map(chart, list(model.f),
                                model.g.substitute(list(model.f)))
    assert action.alpha == ctx.gen_pow(19)
    assert action.alpha != ctx.gen_pow(16)
    assert action.beta == ctx.gen_pow(5)
    assert action.fixed_point() == chart.param_of(model.points[0])
    assert action.fixed_point() == ctx.gen_pow(25)


def _brute_matches(ctx, aa, bb):
    bset = set(bb)
    out = []
    for a in range(1, 1 << ctx.m):
        for b in range(1 << ctx.m):
            if {ctx.mul_bits(a, x) ^ b for x in aa} == bset:
                out.append((a, b))
    return sorted(out)


def test_point_set_matching_vs_brute_force(ctx, model):
    g = ctx.gen_pow(1)
    aa = [1, g, ctx.gen_pow(2)]
    bb = [1, g, ctx.gen_pow(3)]
    # the bundled ten marked points against the abstract orbit
    chart = _chart(model.g)
    concrete = [chart.param_of(model.points[i]) for i in range(1, 11)]
    alpha = ctx.gen_pow(19)
    abstract = orbit_points(ctx, alpha, beta_from_alpha(ctx, alpha))
    for source, target in ((aa, aa), (aa, bb), (concrete, abstract)):
        got = [(m.alpha, m.beta)
               for m in all_point_set_matches(ctx, source, target)]
        assert got == _brute_matches(ctx, source, target)
    assert len(all_point_set_matches(ctx, concrete, abstract)) == 2
    assert any(m.alpha == 1 and not m.beta
               for m in all_point_set_matches(ctx, aa, aa))
    assert all_point_set_matches(ctx, [1], [1]) == []
    assert all_point_set_matches(ctx, aa, bb[:2]) == []
    assert all_point_set_matches(ctx, [1, 1, g], bb) == []


def test_equivariant_matching(ctx):
    a = ctx.gen_pow(19)
    b = beta_from_alpha(ctx, a)
    params = orbit_points(ctx, a, b)
    act = AffineAction(ctx, a, b)
    phi = AffineAction(ctx, ctx.gen_pow(9), ctx.gen_pow(2))
    image = [phi(t) for t in params]
    conj = phi.compose(act).compose(_inverse(phi))
    found = equivariant_matches(all_point_set_matches(ctx, params, image),
                                act, conj)
    assert phi in found
    for m in found:
        assert m.compose(act) == conj.compose(m)


def test_alpha_table_matches_bundled_file(ctx):
    roots = lehmer_mod2_roots(ctx)
    betas = [beta_from_alpha(ctx, a) for a in roots]
    rows = [(a, b, orbit_points(ctx, a, b)) for a, b in zip(roots, betas)]
    assert _cubic_alpha_table(None, ctx, lambda: rows).ok()
