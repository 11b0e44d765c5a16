import random
import shutil
from pathlib import Path

import pytest

import salemsurf.surface as sf
from salemsurf.errors import (DomainError, InvariantViolation, NoSolution,
                              ParseError)
from salemsurf.gf2m import gf32
from salemsurf.multipoly import MultiPoly, ProjPoint


def test_load_model_shape(ctx, model):
    assert model.ctx is gf32()
    assert model.s.num_terms() == 42
    assert model.eta.num_terms() == 18
    assert model.c.num_terms() == 1
    assert model.g.num_terms() == 6
    assert [p.num_terms() for p in model.f] == [2, 2, 1]
    assert sorted(model.points) == list(range(11))
    assert repr(model.cusp) == "(g^15 : g^28 : 1)"
    assert repr(model.points[0]) == "(g^14 : g^7 : 1)"


def test_apply_map_examples(ctx, model):
    pt = ProjPoint(ctx, (ctx.gen_pow(29).bits, ctx.gen_pow(6).bits, 1))
    assert pt == model.points[4]
    assert sf.apply_map(model, pt) == model.points[5]
    other = ProjPoint(ctx, (ctx.gen_pow(23).bits, ctx.gen_pow(29).bits, 1))
    assert sf.apply_map(model, other) == model.points[1]
    assert sf.apply_map(model, model.points[0]) == model.points[0]
    for i in (1, 2, 3):
        assert sf.apply_map(model, model.points[i]) is None


def test_orbit_cubic_equivariance_reports(model):
    assert sf.verify_orbit(model).ok()
    assert sf.verify_cubic(model, model.cusp).ok()
    assert sf.verify_equivariance(model).ok()


def test_inverse_structure(ctx, model, sigma_inv):
    si = sigma_inv
    assert si.w_scalar == ctx.gen_pow(15).bits
    assert si.eta_prime.num_terms() == 40
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    u = x + z.scale_bits(model.f[0].terms[(1, 0, 1)])   # x + g^29 z
    v = y + z.scale_bits(model.f[1].terms[(1, 0, 1)])   # y + g^6 z
    assert list(si.components) == [u * z, u * v, v * z]
    assert si.alpha_w == u * u * v * v * z * z
    assert si.lambda_factor == u * v * z


def test_inverse_composes_to_scalar(ctx, model, sigma_inv):
    si = sigma_inv
    lam = si.lambda_factor
    inv = list(si.components)
    for i in range(3):
        assert model.f[i].substitute(inv) == \
            lam * MultiPoly.var(ctx, 3, i)
    c_inv = model.c.substitute(inv)
    assert c_inv * si.alpha_w.scale_bits(si.w_scalar) == lam ** 6
    assert model.eta.substitute(inv) == c_inv * si.eta_prime


def test_conjugation_scalar(ctx, conj_scalar):
    assert conj_scalar == ctx.gen_pow(8)


def test_derivation_report(model, sigma_inv, conj_scalar):
    assert sf.verify_derivation(model, sigma_inv, conj_scalar).ok()
    failed = sf.verify_derivation(model, sigma_inv, NoSolution("no scalar"))
    assert failed.status == "error"
    assert [c.witness for c in failed.children if c.status == "error"] \
        == ["NoSolution: no scalar"]


def test_cubic_multiplier_direct(ctx, model):
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    lhs = model.g.substitute(list(model.f))
    assert lhs == (x * y * z * model.g).scale_bits(ctx.gen_pow(12).bits)


def test_ratfunc_derivation_rules(ctx, model):
    rel = sf._lift3(model.s)
    x, y, z, w = (MultiPoly.var(ctx, 4, i) for i in range(4))
    one = MultiPoly.const(ctx, 4, 1)
    assert sf.RatFunc(rel, w, one).d_dw() == sf.RatFunc(rel, one, one)
    assert sf.RatFunc(rel, x, z).d_dw().is_zero()
    fr = sf.RatFunc(rel, x * w + z * z, z)
    gr = sf.RatFunc(rel, y * w + x * x, x)
    assert (fr * gr).d_dw() == fr.d_dw() * gr + fr * gr.d_dw()
    with pytest.raises(DomainError, match="zero denominator"):
        sf.RatFunc(rel, x, MultiPoly.zero(ctx, 4))


def test_ratfunc_pullback(ctx, model):
    rel = sf._lift3(model.s)
    x, z, w = (MultiPoly.var(ctx, 4, i) for i in (0, 2, 3))
    images = [sf._lift3(p) for p in model.f]
    images.append(sf._lift3(model.c) * w + sf._lift3(model.eta))
    pulled = sf.RatFunc(rel, x, z).pullback(images)
    assert pulled == sf.RatFunc(rel, sf._lift3(model.f[0]),
                                sf._lift3(model.f[2]))


def _singular_points(rep):
    return next(c.witness for c in rep.children
                if c.name == "singular.matches_marked_points")


def test_singular_locus(model):
    ten = sf.singular_locus(model, 10)
    assert ten.ok()
    assert len(_singular_points(ten)) == 11
    # the bound is the largest extension degree searched, and every
    # singular point is rational over GF(32)
    for bound in (9, 12):
        rep = sf.singular_locus(model, bound)
        assert rep.ok(), bound
        assert _singular_points(rep) == _singular_points(ten), bound
    rep = sf.singular_locus(model, 1)  # too small to account for the roots
    assert not rep.ok()


def test_multiplicity_adjustment(ctx, model):
    cases = {0: (0, 2), 1: (4, 4), 4: (2, 4)}
    for i, (raw, adj) in cases.items():
        local = sf._local_branch(model, model.points[i])
        assert local.multiplicity_at([0, 0]) == raw
        mult, init = sf.absorbed_square_multiplicity(local)
        assert mult == adj
        assert not init.is_square()
    u, v = MultiPoly.var(ctx, 2, 0), MultiPoly.var(ctx, 2, 1)
    full = (u + v * v) * (u + v * v)
    mult, init = sf.absorbed_square_multiplicity(full)
    assert mult is None and init.is_zero()
    assert sf.verify_multiplicities(model).ok()


def test_chart_smoothness(model):
    assert sf.verify_chart_smoothness(model).ok()
    chart = sf._chart(model.s, 2)
    u, v = (MultiPoly.var(model.ctx, 2, i) for i in range(2))
    main = chart.substitute([u, u * v])
    main.divide_by_power(0, 4)  # exactness is the blow-up requirement


def test_alpha_consistency(ctx, model, conj_scalar):
    alpha = ctx.gen_pow(19)
    assert sf.verify_alpha_consistency(model, conj_scalar, alpha).ok()
    assert not sf.verify_alpha_consistency(model, ctx.gen_pow(9),
                                           alpha).ok()
    assert not sf.verify_alpha_consistency(model, conj_scalar,
                                           ctx.gen_pow(16)).ok()


def _flip_one_term(rng, poly):
    exps = rng.choice(sorted(poly.terms))
    delta = rng.randrange(1, 32)
    terms = dict(poly.terms)
    terms[exps] = terms[exps] ^ delta
    return MultiPoly(poly.ctx, poly.nvars, terms)


def test_single_coefficient_mutations_are_caught(ctx, model):
    rng = random.Random(2026)
    for _ in range(50):
        which = rng.randrange(5)
        s, f, eta = model.s, list(model.f), model.eta
        if which == 0:
            s = _flip_one_term(rng, s)
        elif which == 4:
            eta = _flip_one_term(rng, eta)
        else:
            f[which - 1] = _flip_one_term(rng, f[which - 1])
        mut = sf.SurfaceModel(ctx, model.names, s, tuple(f), model.c,
                              eta, model.g, model.points, model.cusp)
        if sf.verify_equivariance(mut).ok():
            assert not (sf.verify_orbit(mut).ok()
                        and sf.verify_cubic(mut, mut.cusp).ok())


def _moved(model, images, move):
    """The model with s pulled back along the linear map `images`; the
    inverse map `move` carries each marked point to its new place."""
    ctx = model.ctx
    points = {i: ProjPoint(ctx, move(p.coords))
              for i, p in model.points.items()}
    return sf.SurfaceModel(ctx, model.names, model.s.substitute(images),
                           model.f, model.c, model.eta, model.g, points,
                           model.cusp)


def test_singular_locus_after_change_of_coordinates(ctx, model):
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    mul = ctx.mul_bits
    g = ctx.gen().bits
    # x -> x + g y: (0 : 1 : 0) moves to (g : 1 : 0), off x = 0
    sheared = _moved(model, [x + y.scale_bits(g), y, z],
                     lambda co: (co[0] ^ mul(g, co[1]), co[1], co[2]))
    # z -> z + x / g: (g : g^19 : 1) moves onto z = 0
    h = ctx.inv_bits(g)
    lifted = _moved(model, [x, y, z + x.scale_bits(h)],
                    lambda co: (co[0], co[1], co[2] ^ mul(h, co[0])))
    assert ProjPoint(ctx, (g, 1, 0)) in sheared.points.values()
    assert ProjPoint(ctx, (g, ctx.gen_pow(19).bits, 0)) \
        in lifted.points.values()
    for moved in (sheared, lifted):
        assert sf.singular_locus(moved).ok()


def _brute_singular(s):
    """Common zeros of s_x, s_y, s_z over P^2(GF(32)), scanning every
    (x, y, z) with z in {0, 1}."""
    grad = [s.partial(i) for i in range(3)]
    out = set()
    for x in range(32):
        for y in range(32):
            for z in (0, 1):
                if any((x, y, z)) and not any(d.eval_bits((x, y, z))
                                              for d in grad):
                    out.add(ProjPoint(s.ctx, (x, y, z)))
    return sorted(repr(p) for p in out)


def test_singular_locus_matches_brute_force_on_mutants(ctx, model):
    rng = random.Random(11)
    for _ in range(4):
        s = _flip_one_term(rng, model.s)
        mut = sf.SurfaceModel(ctx, model.names, s, model.f, model.c,
                              model.eta, model.g, model.points, model.cusp)
        assert _singular_points(sf.singular_locus(mut)) \
            == _brute_singular(s)


def test_singular_locus_reports_a_zero_eliminant(ctx, model):
    # s = (x + y)^2 t: s_x = (x + y)^2 t_x and s_y = (x + y)^2 t_y share
    # a curve, so the z = 1 eliminant is the zero polynomial
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    t = x ** 3 * y ** 7 + (x ** 7 * y * z ** 2).scale_bits(ctx.gen().bits) \
        + y ** 5 * z ** 5 + x * z ** 9
    mut = sf.SurfaceModel(ctx, model.names, (x + y) ** 2 * t, model.f,
                          model.c, model.eta, model.g, model.points,
                          model.cusp)
    rep = sf.singular_locus(mut)
    assert [c.status for c in rep.children
            if c.name == "singular.chart_z.eliminant_nonzero"] == ["fail"]
    assert all(c.status != "error" for c in rep.children)


@pytest.fixture()
def data_copy(tmp_path):
    src = Path(sf.__file__).parent / "data"
    dst = tmp_path / "data"
    shutil.copytree(src, dst)
    return dst


def test_load_model_rejects_bad_cubic(data_copy):
    f = data_copy / "cubic.poly"
    f.write_text(f.read_text().replace("g^2*x^2*z", "g^3*x^2*z"))
    with pytest.raises(InvariantViolation):
        sf.load_model(data_copy)


def test_load_model_rejects_moved_point(data_copy):
    f = data_copy / "points.dat"
    f.write_text(f.read_text().replace("(g^14 : g^7 : 1)",
                                       "(g^13 : g^7 : 1)"))
    with pytest.raises(InvariantViolation):
        sf.load_model(data_copy)


def test_load_model_rejects_empty_file(data_copy):
    (data_copy / "surface.poly").write_text("")
    with pytest.raises(ParseError):
        sf.load_model(data_copy)


def test_load_model_rejects_missing_file(data_copy):
    (data_copy / "points.dat").unlink()
    with pytest.raises(ParseError):
        sf.load_model(data_copy)
