import pytest

from salemsurf.cubic import (AffineAction, all_point_set_matches,
                             alpha_table_text, beta_from_alpha, chord_third,
                             collinear, collinear_det, cusp_parametrization,
                             equivariant_matches, find_cusp,
                             induced_affine_map, lehmer_mod2_roots,
                             orbit_points, psi, psi_inv,
                             second_param_expr1, second_param_expr2,
                             standard_cubic, verify_coxeter_constraints)
from salemsurf.errors import InvariantViolation
from salemsurf.gf2m import FieldElement, field_make, gf32
from salemsurf.multipoly import MultiPoly, ProjPoint

ROOT_DLOGS = {3, 6, 7, 12, 14, 17, 19, 24, 25, 28}


def dlog(x: FieldElement) -> int:
    return x.ctx.dlog_bits(x.bits)


def _inverse(f: AffineAction) -> AffineAction:
    ai = f.alpha.inverse()
    return AffineAction(ai, ai * f.beta)


def _chart(curve):
    return cusp_parametrization(curve, find_cusp(curve))


def _all_elems(ctx):
    return [FieldElement(ctx, b) for b in range(1 << ctx.m)]


def test_psi_special_values(ctx):
    assert psi(ctx.zero()).coords == (0, 1, 0)
    assert psi(ctx.one()).coords == (1, 1, 1)


def test_psi_roundtrip(ctx):
    curve = standard_cubic(ctx)
    for t in _all_elems(ctx):
        p = psi(t)
        assert curve.eval_bits(p.coords) == 0
        assert psi_inv(p) == t


def test_psi_inv_rejections(ctx):
    with pytest.raises(InvariantViolation, match="no finite parameter"):
        psi_inv(ProjPoint(ctx, (0, 0, 1)))
    with pytest.raises(InvariantViolation, match="does not satisfy"):
        psi_inv(ProjPoint(ctx, (1, 1, 0)))


def test_chord_third_is_collinear(ctx):
    t1, t2 = ctx.gen_pow(4), ctx.gen_pow(21)
    t3 = chord_third(t1, t2)
    assert collinear(t1, t2, t3)
    assert not collinear(t1, t2, t3 + ctx.one())


def test_collinearity_against_determinant():
    # exhaustive over the smallest field where both routes are nontrivial
    ctx8 = field_make(3, 0b1011)
    elems = _all_elems(ctx8)
    for a in elems:
        for b in elems:
            if b == a:
                continue
            for c in elems:
                if c == a or c == b:
                    continue
                assert collinear(a, b, c) == (not collinear_det(a, b, c))


def test_affine_action_algebra(ctx):
    f = AffineAction(ctx.gen_pow(3), ctx.gen_pow(11))
    g = AffineAction(ctx.gen_pow(7), ctx.one())
    t = ctx.gen_pow(20)
    assert f.compose(g)(t) == f(g(t))
    assert _inverse(f).compose(f)(t) == t
    assert f(f.fixed_point()) == f.fixed_point()
    with pytest.raises(InvariantViolation, match="needs alpha != 0"):
        AffineAction(ctx.zero(), ctx.one())
    with pytest.raises(InvariantViolation, match="no fixed point"):
        AffineAction(ctx.one(), ctx.one()).fixed_point()


def test_mod2_root_set(ctx):
    roots = lehmer_mod2_roots(ctx)
    assert len(roots) == 10
    assert {dlog(r) for r in roots} == ROOT_DLOGS
    bits = {r.bits for r in roots}
    for r in roots:
        assert (r * r).bits in bits       # Frobenius closure
        assert r.inverse().bits in bits   # reciprocal closure


def test_beta_rejections(ctx):
    with pytest.raises(InvariantViolation, match="not a mod-2 root"):
        beta_from_alpha(ctx.one())
    with pytest.raises(InvariantViolation, match="not a mod-2 root"):
        beta_from_alpha(ctx.gen_pow(16))
    with pytest.raises(InvariantViolation, match="not a mod-2 root"):
        beta_from_alpha(ctx.zero())


def test_beta_frobenius_equivariance(ctx):
    for a in lehmer_mod2_roots(ctx):
        b = beta_from_alpha(a)
        assert beta_from_alpha(a * a) == b * b


def test_second_param_routes_agree_only_at_beta(ctx):
    for a in lehmer_mod2_roots(ctx):
        b = beta_from_alpha(a)
        assert second_param_expr1(a, b) == second_param_expr2(a, b)
        wrong = b + ctx.one()
        assert second_param_expr1(a, wrong) != second_param_expr2(a, wrong)


def test_orbit_parameters_for_bundled_scalar(ctx):
    a = ctx.gen_pow(19)
    b = beta_from_alpha(a)
    assert b == ctx.gen_pow(5)
    params = orbit_points(a, b)
    assert [dlog(t) for t in params] == [0, 19, 7, 26, 21, 15, 8, 12, 2, 14]
    ai = a.inverse()
    assert params[9] == ai * (ctx.one() + b)
    acc = ctx.one()
    for i in range(0, 7):
        acc = acc + (a ** i) * b
    assert params[3] == ai ** 7 * acc


def test_constraints_hold_at_beta_and_break_nearby(ctx):
    one = ctx.one()
    for a in lehmer_mod2_roots(ctx):
        b = beta_from_alpha(a)
        params = orbit_points(a, b)
        assert verify_coxeter_constraints(params, AffineAction(a, b)).ok()
        try:
            bad = orbit_points(a, b + one)
        except InvariantViolation:  # the ten parameters collide
            continue
        assert not verify_coxeter_constraints(bad,
                                              AffineAction(a, b + one)).ok()


def test_find_cusp(ctx, model):
    assert find_cusp(standard_cubic(ctx)).coords == (0, 0, 1)
    assert find_cusp(model.g) == model.cusp
    lines = MultiPoly(ctx, 3, {(1, 1, 1): 1})  # xyz: three singular points
    with pytest.raises(InvariantViolation, match="expected 1"):
        find_cusp(lines)


def test_cusp_parametrization_roundtrip(ctx, model):
    for curve in (standard_cubic(ctx), model.g):
        chart = _chart(curve)
        for t in _all_elems(ctx):
            p = chart.point_at(t)
            assert curve.eval_bits(p.coords) == 0
            assert chart.param_of(p) == t
        with pytest.raises(InvariantViolation, match="tangent cone line"):
            chart.param_of(chart.cusp)


def test_chart_parameter_is_affine_in_psi(ctx):
    # both parametrizations of the standard cubic differ by t -> at + b
    chart = _chart(standard_cubic(ctx))
    pairs = [(t, chart.param_of(psi(t))) for t in _all_elems(ctx)]
    (t1, u1), (t2, u2) = pairs[0], pairs[1]
    a = (u1 + u2) / (t1 + t2)
    b = u1 + a * t1
    assert all(a * t + b == u for t, u in pairs)


def test_induced_map_identity(ctx):
    comps = [MultiPoly.var(ctx, 3, i) for i in range(3)]
    action = induced_affine_map(_chart(standard_cubic(ctx)),
                                comps)
    assert action == AffineAction(ctx.one(), ctx.zero())


def test_induced_map_rejects_non_preserving(ctx):
    x = MultiPoly.var(ctx, 3, 0)
    y = MultiPoly.var(ctx, 3, 1)
    z = MultiPoly.var(ctx, 3, 2)
    with pytest.raises(InvariantViolation,
                       match="does not preserve the curve"):
        induced_affine_map(_chart(standard_cubic(ctx)),
                           [y, x, z])


def test_induced_map_of_bundled_model(ctx, model):
    chart = _chart(model.g)
    action = induced_affine_map(chart, list(model.f))
    assert action.alpha == ctx.gen_pow(19)
    assert action.alpha != ctx.gen_pow(16)
    assert action.beta == ctx.gen_pow(28)
    assert action.fixed_point() == chart.param_of(model.points[0])
    assert action.fixed_point() == ctx.gen_pow(17)


def _brute_matches(ctx, aa, bb):
    bset = {e.bits for e in bb}
    out = []
    for abits in range(1, 1 << ctx.m):
        for bbits in range(1 << ctx.m):
            a, b = FieldElement(ctx, abits), FieldElement(ctx, bbits)
            if {(a * x + b).bits for x in aa} == bset:
                out.append((abits, bbits))
    return sorted(out)


def test_point_set_matching_vs_brute_force(ctx, model):
    aa = [ctx.one(), ctx.gen(), ctx.gen_pow(2)]
    bb = [ctx.one(), ctx.gen(), ctx.gen_pow(3)]
    # the bundled ten marked points against the abstract orbit
    chart = _chart(model.g)
    concrete = [chart.param_of(model.points[i]) for i in range(1, 11)]
    alpha = ctx.gen_pow(19)
    abstract = orbit_points(alpha, beta_from_alpha(alpha))
    for source, target in ((aa, aa), (aa, bb), (concrete, abstract)):
        got = [(m.alpha.bits, m.beta.bits)
               for m in all_point_set_matches(source, target)]
        assert got == _brute_matches(ctx, source, target)
    assert len(all_point_set_matches(concrete, abstract)) == 2
    assert any(m.alpha == ctx.one() and not m.beta
               for m in all_point_set_matches(aa, aa))
    one = ctx.one()
    assert all_point_set_matches([one], [one]) == []
    assert all_point_set_matches(aa, bb[:2]) == []
    assert all_point_set_matches([one, one, ctx.gen()], bb) == []


def test_equivariant_matching(ctx):
    a = ctx.gen_pow(19)
    b = beta_from_alpha(a)
    params = orbit_points(a, b)
    act = AffineAction(a, b)
    phi = AffineAction(ctx.gen_pow(9), ctx.gen_pow(2))
    image = [phi(t) for t in params]
    conj = phi.compose(act).compose(_inverse(phi))
    found = equivariant_matches(all_point_set_matches(params, image), act,
                                conj)
    assert phi in found
    for m in found:
        assert m.compose(act) == conj.compose(m)


def test_alpha_table_matches_bundled_file(ctx):
    from salemsurf.surface import _read_data
    assert alpha_table_text(ctx).strip() == \
        _read_data(None, "alpha_table.dat").strip()
