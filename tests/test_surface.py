import random
import re
import shutil
from pathlib import Path

import pytest

import salemsurf.cubic as cu
import salemsurf.report as rp
import salemsurf.surface as sf
from salemsurf.cubic import lehmer_mod2_roots
from salemsurf.errors import InvariantViolation, NoSolution, ParseError
from salemsurf.gf2m import (embed, ext_context, field_make, format_elem,
                            gf32, parse_elem)
from salemsurf.multipoly import (MultiPoly, canonical, format_point,
                                 format_poly, linear_solve, local_expansion,
                                 plane_zeros)
from salemsurf.suites import run_suite
from salemsurf.unipoly import UniPoly
from test_unipoly import _mul


def _objects(m, **objects):
    """need(key) of a surface run over the objects given, an exception
    standing for a failed build; the partials of g and the marked cusp
    of the model m unless given."""
    objects = {"partials": [m.g.partial(i) for i in range(3)],
               "cusp": m.cusp, **objects}

    def need(key):
        if isinstance(objects[key], Exception):
            raise objects[key]
        return objects[key]
    return need


def test_load_model_shape(ctx, model):
    assert model.ctx is gf32()
    assert model.s.num_terms() == 42
    assert model.eta.num_terms() == 18
    assert model.c.num_terms() == 1
    assert model.g.num_terms() == 6
    assert [p.num_terms() for p in model.f] == [2, 2, 1]
    assert sorted(model.points) == list(range(11))
    assert format_point(ctx, model.cusp) == "(g^15 : g^28 : 1)"
    assert format_point(ctx, model.points[0]) == "(g^14 : g^7 : 1)"


def test_apply_map_examples(ctx, model):
    pt = (ctx.gen_pow(29), ctx.gen_pow(6), 1)
    assert pt == model.points[4]
    assert sf.apply_map(model, pt) == model.points[5]
    other = (ctx.gen_pow(23), ctx.gen_pow(29), 1)
    assert sf.apply_map(model, other) == model.points[1]
    assert sf.apply_map(model, model.points[0]) == model.points[0]
    for i in (1, 2, 3):
        assert sf.apply_map(model, model.points[i]) is None


def test_orbit_cubic_equivariance_reports(model):
    assert sf.verify_orbit(model).ok()
    assert sf.verify_cubic(model, _objects(model)).ok()
    assert sf.verify_equivariance(model).ok()


def test_inverse_structure(ctx, model, sigma_inv):
    si = sigma_inv
    assert si.w_scalar == ctx.gen_pow(15)
    assert si.eta_prime.num_terms() == 40
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    u = x + z.scale_bits(model.f[0].terms[(1, 0, 1)])   # x + g^29 z
    v = y + z.scale_bits(model.f[1].terms[(1, 0, 1)])   # y + g^6 z
    assert list(si.components) == [u * z, u * v, v * z]
    assert si.lambda_factor == u * v * z


def test_inverse_composes_to_scalar(ctx, model, sigma_inv):
    si = sigma_inv
    lam = si.lambda_factor
    inv = list(si.components)
    for i in range(3):
        assert model.f[i].substitute(inv) == \
            lam * MultiPoly.var(ctx, 3, i)
    c_inv = model.c.substitute(inv)
    lam2 = lam * lam
    assert c_inv * lam2.scale_bits(si.w_scalar) == lam2 * lam2 * lam2
    assert model.eta.substitute(inv) == c_inv * si.eta_prime


def test_conjugation_scalar(ctx, conj_scalar):
    assert conj_scalar == ctx.gen_pow(8)


def test_conjugation_scalar_without_a_cubic_multiplier(ctx, model,
                                                       sigma_inv):
    """g + x^3 in place of g: g o f is no longer a scalar multiple of
    xyz g, so there is no k_f and no scalar conjugates D = g^2 d/dw."""
    g = model.g + MultiPoly(ctx, 3, {(3, 0, 0): 1})
    mut = sf.SurfaceModel(ctx, model.names, model.s, model.f, model.c,
                          model.eta, g, model.points, model.cusp)
    kf, _km = sf.cubic_multipliers(mut, sigma_inv,
                                   g.substitute(list(mut.f)))
    assert kf is None
    with pytest.raises(NoSolution, match="conjugated derivation is not a "
                       "scalar multiple of g\\^2 d/dw"):
        sf._conjugation_scalar(ctx, sigma_inv.w_scalar, kf)


def test_derivation_report(ctx, model, sigma_inv, multipliers,
                           conj_scalar):
    alpha = ctx.gen_pow(19)  # the bundled model's match multiplier

    def derivation(**given):
        return sf.verify_derivation(model, _objects(
            model, **{"inverse": sigma_inv, "gamma": sf.c_scalar(model),
                      "multipliers": multipliers, "scalar": conj_scalar,
                      "action": cu.AffineAction(ctx, alpha, 0), **given}))
    assert derivation().ok()
    failed = derivation(scalar=NoSolution("no scalar"))
    assert failed.status == "error"
    assert [c.witness for c in failed.children if c.status == "error"] \
        == ["NoSolution: no scalar"]
    # another multiplier breaks both cubic multiplier relations
    wrong = derivation(action=cu.AffineAction(ctx, ctx.gen_pow(7), 0))
    assert [c.name for c in wrong.children if c.status == "fail"] \
        == ["derivation.cubic_multiplier",
            "derivation.inverse_cubic_multiplier"]
    # a missing action is an error on both, a missing k_f included
    missing = derivation(action=NoSolution("no action"),
                         multipliers=(None, multipliers[1]))
    assert {c.name: c.witness for c in missing.children
            if c.status == "error"} == {
        "derivation.cubic_multiplier": "NoSolution: no action",
        "derivation.inverse_cubic_multiplier": "NoSolution: no action"}
    # without the inverse the whole node is the check's error
    with pytest.raises(NoSolution, match="no inverse"):
        derivation(inverse=NoSolution("no inverse"))


def test_cubic_multiplier_direct(ctx, model):
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    lhs = model.g.substitute(list(model.f))
    assert lhs == (x * y * z * model.g).scale_bits(ctx.gen_pow(12))


def _twisted(tmp_path, i):
    """A copy of the model data with Frobenius applied i times to every
    coefficient: each g^k, and a bare g, becomes g^(2^i k)."""
    def power(mt):
        return f"g^{int(mt.group(1) or 1) * 2 ** i % 31}"

    src = Path(sf.__file__).parent / "data"
    dst = tmp_path / f"twist{i}"
    shutil.copytree(src, dst)
    for name in ("surface.poly", "automorphism.poly", "cubic.poly",
                 "points.dat"):
        lines = []
        for ln in (src / name).read_text().splitlines():
            if not ln.startswith(("#", "vars:", "field:")):
                label, eq, rhs = ln.partition("=")
                ln = label + eq + re.sub(r"\bg(?:\^(\d+))?", power, rhs)
            lines.append(ln)
        (dst / name).write_text("\n".join(lines) + "\n")
    return dst


@pytest.mark.parametrize("i", range(5))
def test_conjugation_scalar_relation(ctx, tmp_path, i):
    """K = w_scalar * cubic_multiplier^2, since lambda^2(f) = (xyz)^4,
    g(f) = k_f xyz g and siz(f) = xyz z; on the bundled model (i = 0)
    g^8 = g^15 g^24, and on its i-th Frobenius twist K is the 2^i-th
    power of that."""
    m = sf.load_model(_twisted(tmp_path, i))
    si = sf.derive_sigma_inverse(m, sf.c_scalar(m))
    xyz = MultiPoly(ctx, 3, {(1, 1, 1): 1})
    g_of_f = m.g.substitute(list(m.f))
    kf = sf._scalar_ratio(g_of_f, xyz * m.g)
    assert sf.cubic_multipliers(m, si, g_of_f)[0] == kf
    mul = ctx.mul_bits
    assert sf._conjugation_scalar(ctx, si.w_scalar, kf) \
        == mul(si.w_scalar, mul(kf, kf)) == ctx.gen_pow(8 * 2 ** i)


def _pulled_back_omega_is_xyz_omega(f):
    """f*(x dy dz + y dz dx + z dx dy) = xyz (x dy dz + y dz dx + z dx dy):
    the coefficient of dx_j dx_k in the pullback, for (j, k) = (y, z),
    (z, x) and (x, y), against xyz times x, y and z."""
    ctx = f[0].ctx
    xyz = MultiPoly(ctx, 3, {(1, 1, 1): 1})
    for (j, k), i in (((1, 2), 0), ((2, 0), 1), ((0, 1), 2)):
        pulled = MultiPoly.zero(ctx, 3)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            pulled = pulled + f[a] * (f[b].partial(j) * f[c].partial(k)
                                      + f[b].partial(k) * f[c].partial(j))
        if pulled != xyz * MultiPoly.var(ctx, 3, i):
            return False
    return True


@pytest.mark.parametrize("i", range(2))
def test_steps_of_the_scalar_relations_at_the_cusp(ctx, tmp_path, i):
    """The steps by which docs/report-schema.md derives k_f alpha = 1 and
    K^2 = gamma, on the bundled model and its first Frobenius twist:
    f*Omega = xyz Omega; f fixes the cusp C with f(C) = rho C and
    tau = xyz(C) / rho^3 = alpha^-5; ds vanishes on the tangent of g at
    each point of g; ds(C) is a left eigenvector of Df(C) / rho for
    c(C)^2 / rho^12 = alpha^-2."""
    m = sf.load_model(_twisted(tmp_path, i))
    mul, inv = ctx.mul_bits, ctx.inv_bits
    assert _pulled_back_omega_is_xyz_omega(list(m.f))
    points = plane_zeros([m.g])
    chart = cu.cusp_parametrization(
        m.g, cu.find_cusp([m.g.partial(j) for j in range(3)], points),
        points)
    alpha = cu.induced_affine_map(chart, list(m.f),
                                  m.g.substitute(list(m.f))).alpha
    cusp = chart.cusp
    rho = m.f[2].eval_bits(cusp)  # the cusp has z = 1
    assert [p.eval_bits(cusp) for p in m.f] == [mul(rho, v) for v in cusp]
    tau = mul(MultiPoly(ctx, 3, {(1, 1, 1): 1}).eval_bits(cusp),
              inv(ctx.pow_bits(rho, 3)))
    assert tau == ctx.pow_bits(alpha, -5)

    def det(rows):
        (a, b, c), (d, e, f), (g, h, k) = rows
        return (mul(a, mul(e, k) ^ mul(f, h)) ^ mul(b, mul(d, k) ^ mul(f, g))
                ^ mul(c, mul(d, h) ^ mul(e, g)))
    ds = [m.s.partial(j) for j in range(3)]
    dg = [m.g.partial(j) for j in range(3)]
    assert all(det([[d.eval_bits(p) for d in ds],
                    [d.eval_bits(p) for d in dg], p]) == 0 for p in points)
    ds_c = [d.eval_bits(cusp) for d in ds]
    jac = [[p.partial(j).eval_bits(cusp) for j in range(3)] for p in m.f]
    eigen = mul(ctx.pow_bits(m.c.eval_bits(cusp), 2),
                inv(ctx.pow_bits(rho, 12)))
    assert eigen == ctx.pow_bits(alpha, -2)
    for j in range(3):
        image = 0
        for r in range(3):
            image ^= mul(ds_c[r], jac[r][j])
        assert image == mul(mul(eigen, rho), ds_c[j])


@pytest.mark.parametrize("i", range(5))
def test_inverse_identities_that_hold_by_construction(ctx, tmp_path, i):
    """derive_sigma_inverse checks inverse . forward = xyz * identity and
    takes the tail as an exact quotient; these three identities then
    follow, on the bundled model (i = 0) and its Frobenius twists."""
    m = sf.load_model(_twisted(tmp_path, i))
    si = sf.derive_sigma_inverse(m, sf.c_scalar(m))
    k, lam2 = si.w_scalar, si.lambda_factor * si.lambda_factor
    lam2_f = lam2.substitute(list(m.f))
    assert lam2_f == MultiPoly(ctx, 3, {(4, 4, 4): 1})
    assert (m.c.substitute(list(si.components)) * lam2).scale_bits(k) \
        == lam2 * lam2 * lam2
    assert si.eta_prime.substitute(list(m.f)) \
        == (lam2_f * m.eta).scale_bits(k)


@pytest.mark.parametrize("i", range(1, 5))
def test_inverse_tail_of_a_frobenius_twist(ctx, tmp_path, sigma_inv, i):
    """Frobenius is a field automorphism, so the i-th twist's tail
    eta(SI) / c(SI) is the bundled tail with every coefficient raised
    to the 2^i-th power."""
    m = sf.load_model(_twisted(tmp_path, i))
    si = sf.derive_sigma_inverse(m, sf.c_scalar(m))
    assert si.eta_prime.terms == {
        e: ctx.pow_bits(c, 2 ** i)
        for e, c in sigma_inv.eta_prime.terms.items()}


def test_forbidden_value_is_the_square_of_the_derived_scalar(tmp_path):
    """On the first Frobenius twist the conjugation scalar is g^16, so
    the value that must not be a mod-2 root is its square g, not the
    bundled model's g^16."""
    report = run_suite("surface", _twisted(tmp_path, 1))
    alpha = next(c for c in report.children if c.name == "alpha")
    leaf = next(c for c in alpha.children
                if c.name == "alpha.forbidden_value_not_root")
    assert (leaf.status, leaf.witness) == ("pass", "g")


def _leaves(report):
    if not report.children:
        yield report
    for c in report.children:
        yield from _leaves(c)


@pytest.mark.parametrize("i", range(1, 5))
def test_every_frobenius_twist_passes_the_surface_suite(ctx, tmp_path, i):
    """Frobenius is a field automorphism, so the i-th twist is the same
    model in other coordinates on GF(32): every surface leaf passes,
    and the leaves that state relations between derived scalars show
    the 2^i-th powers of the bundled witnesses g^15, g^12, g^19, g^8
    and g^8."""
    report = run_suite("surface", _twisted(tmp_path, i))
    assert [leaf.name for leaf in _leaves(report) if not leaf.ok()] == []
    witnesses = {leaf.name: leaf.witness for leaf in _leaves(report)}
    bundled = {"derivation.w_scalar": 15, "derivation.cubic_multiplier": 12,
               "derivation.inverse_cubic_multiplier": 19,
               "derivation.conjugation_scalar": 8, "alpha.lambda1_value": 8}
    assert {name: witnesses[name] for name in bundled} == {
        name: format_elem(ctx, ctx.gen_pow(k * 2 ** i))
        for name, k in bundled.items()}


def _normal_form_files(ctx, a, b, gamma):
    """The four model data files of f = (xy + a xz, b xz + yz, xz) and
    c = gamma (xyz)^2, built from (a, b, gamma) alone.

    s: in characteristic 2, s o f + c^2 s is a square exactly when its
    odd-exponent coefficients vanish, and squares can be absorbed into
    eta, so s is the kernel vector over the 63 degree-12 monomials with
    an odd exponent; eta = sqrt(s o f + c^2 s). The points are the
    common zeros of the partials of s: p0 is fixed, p1, p2, p3 are the
    base points (0 : 0 : 1), (1 : 0 : 0), (0 : 1 : 0), p4 is no other
    point's image, and p(i+1) = f(pi). g is the cubic through p1..p10
    with leading coefficient 1, and the cusp is where its partials
    vanish."""
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    f = [x * y + (x * z).scale_bits(a), (x * z).scale_bits(b) + y * z, x * z]
    c = MultiPoly(ctx, 3, {(2, 2, 2): gamma})
    odd = [(i, j, 12 - i - j) for i in range(13) for j in range(13 - i)
           if i % 2 or j % 2]
    images = [MultiPoly(ctx, 3, {e: 1}).substitute(f)
              + c * c * MultiPoly(ctx, 3, {e: 1}) for e in odd]
    conds = sorted({e for im in images for e in im.terms
                    if any(k % 2 for k in e)})
    (kv,) = linear_solve(ctx, [[im.terms.get(e, 0) for im in images]
                               for e in conds])
    s = MultiPoly(ctx, 3, dict(zip(odd, kv)))
    eta = (s.substitute(f) + c * c * s).poly_sqrt()

    def image(p):
        img = [comp.eval_bits(p) for comp in f]
        return canonical(ctx, img) if any(img) else None

    zeros = plane_zeros([s.partial(i) for i in range(3)])
    base = [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
    (p0,) = [p for p in zeros if image(p) == p]
    rest = [p for p in zeros if p != p0 and p not in base]
    (p4,) = set(rest) - {image(p) for p in rest}
    points = [p0, *base, p4]
    while len(points) < 11:
        points.append(image(points[-1]))
    mons = sf.cubic_monomials()
    (kv,) = linear_solve(ctx, [[MultiPoly(ctx, 3, {e: 1}).eval_bits(p)
                                for e in mons] for p in points[1:]])
    g = MultiPoly(ctx, 3, dict(zip(mons, kv)))
    g = g.scale_bits(ctx.inv_bits(g.leading()[1]))
    cusp = cu.find_cusp([g.partial(i) for i in range(3)], plane_zeros([g]))

    def poly_file(**polys):
        return "\n".join(
            ["vars: x y z; weights: 1 1 1; field: g^5=g^2+1"]
            + [f"{label} = {format_poly(p, 'xyz')}"
               for label, p in polys.items()]) + "\n"
    return {
        "surface.poly": poly_file(s=s),
        "automorphism.poly": poly_file(fx=f[0], fy=f[1], fz=f[2], c=c,
                                       eta=eta),
        "cubic.poly": poly_file(g=g),
        "points.dat": "\n".join(
            ["field: g^5=g^2+1"]
            + [f"p{i} = {format_point(ctx, p)}" for i, p in enumerate(points)]
            + [f"cusp = {format_point(ctx, cusp)}"]) + "\n",
    }


def test_every_root_is_realized_by_a_model_this_verifier_accepts(
        ctx, tmp_path):
    """The ten models of the normal form, built from (a, b, gamma)
    alone, pass every surface leaf, and their cubic multipliers are ten
    distinct roots of Lehmer's polynomial mod 2, so every root is
    realized. The first is the bundled model: it rebuilds points.dat and
    cubic.poly, comment lines aside."""
    params = [(29, 6, 16), (27, 12, 1), (23, 24, 2), (15, 17, 4),
              (30, 3, 8), (6, 29, 15), (12, 27, 30), (24, 23, 29),
              (17, 15, 27), (3, 30, 23)]
    multipliers, built = [], []
    for i, abc in enumerate(params):
        files = _normal_form_files(ctx, *map(ctx.gen_pow, abc))
        built.append(files)
        model_dir = tmp_path / f"model{i}"
        model_dir.mkdir()
        for name, text in files.items():
            (model_dir / name).write_text(text)
        report = run_suite("surface", model_dir)
        assert [leaf.name for leaf in _leaves(report) if not leaf.ok()] == []
        (witness,) = [leaf.witness for leaf in _leaves(report)
                      if leaf.name == "match.multiplier_is_root"]
        multipliers.append(witness)
    assert multipliers == [f"g^{k}" for k in
                           (19, 7, 14, 28, 25, 12, 24, 17, 3, 6)]
    assert set(multipliers) == {format_elem(ctx, r)
                                for r in lehmer_mod2_roots(ctx)}
    bundled = Path(sf.__file__).parent / "data"
    for name in ("points.dat", "cubic.poly"):
        lines = [ln for ln in (bundled / name).read_text().splitlines()
                 if not ln.startswith("#")]
        assert built[0][name].splitlines() == lines


def _singular_points(rep):
    return next(c.witness for c in rep.children
                if c.name == "singular.matches_marked_points")


def test_singular_locus(model):
    rep = sf.singular_locus(model)
    assert rep.ok()
    assert len(_singular_points(rep)) == 11


def test_fiber_with_roots_outside_the_search_field_fails(ctx):
    """A fiber whose gcd is an irreducible cubic over GF(32) has its
    roots in GF(2^15), outside the GF(32) and GF(2^10) that the search
    covers: no root is returned and the fiber's leaf fails."""
    # x^3 + x + 1 is irreducible over GF(2), and over GF(32) too as 3
    # and 5 are coprime; a cubic without a root is irreducible
    cubic = UniPoly(ctx, [1, 1, 0, 1])
    assert all(cubic.eval_bits(t) for t in range(32))
    g = ctx.gen_pow(1)
    uu = _mul(cubic, UniPoly(ctx, [1, 1]))
    vv = _mul(cubic, UniPoly(ctx, [g, 1]))
    leaves, roots = sf._common_roots(uu, vv, 2 * ctx.m, "singular.chart_z",
                                     "g^3")
    assert roots == []
    assert [(c.name, c.status, c.witness) for c in leaves] == [
        ("singular.chart_z.roots_within_bound.g^3", "fail",
         "common factor degree 3, 0 roots within extension degree 10")]


def test_multiplicity_adjustment(ctx, model):
    cases = {0: (0, 2), 1: (4, 4), 4: (2, 4)}
    for i, (raw, adj) in cases.items():
        local = local_expansion(model.s, model.points[i])
        assert local.order() == raw
        mult, init = sf.absorbed_square_multiplicity(local)
        assert mult == adj
        assert not init.is_square()
    u, v = MultiPoly.var(ctx, 2, 0), MultiPoly.var(ctx, 2, 1)
    full = (u + v * v) * (u + v * v)
    mult, init = sf.absorbed_square_multiplicity(full)
    assert mult is None and init.is_zero()
    assert sf.verify_multiplicities(sf.s_expansions(model)).ok()


def test_chart_smoothness(model):
    local = sf.s_expansions(model)
    assert sf.verify_chart_smoothness(local).ok()
    # the strict transforms at the base points, against substituting
    # the blow-up charts and dividing exactly by u^4 or v^4
    u, v = (MultiPoly.var(model.ctx, 2, i) for i in range(2))
    for i in (1, 2, 3):
        main, comp = sf._strict_transforms(local[i])
        assert main == local[i].substitute([u, u * v]).divide_exact(
            u * u * u * u)
        assert comp == local[i].substitute([u * v, v]).divide_exact(
            v * v * v * v)


def test_chart_order_below_four_is_a_failing_leaf(tmp_path):
    """A degree-12 monomial z^12 added to s makes s nonzero at the base
    point (0 : 0 : 1): its chart leaf fails and names the order."""
    copy = tmp_path / "data"
    shutil.copytree(Path(sf.__file__).parent / "data", copy)
    text = (copy / "surface.poly").read_text()
    assert "\ns = " in text
    (copy / "surface.poly").write_text(
        text.replace("\ns = ", "\ns = g^0*x^0*y^0*z^12 + ", 1))
    leaves = {c.name: c for c in sf.verify_chart_smoothness(
        sf.s_expansions(sf.load_model(copy))).children}
    assert leaves["charts.p1"].status == "fail"
    assert leaves["charts.p1"].witness == "order 0 < 4 at the base point"
    assert leaves["charts.p2_main"].status == "pass"


def test_chart_smoothness_at_a_base_point_off_the_axes(ctx, model):
    """(x, y, z) -> (x + z, y, z), its own inverse in characteristic 2,
    moves p1 from (0 : 0 : 1) to (1 : 0 : 1); the blow-up is read in the
    chart of the point, so the charts still pass."""
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    moved = _moved(model, [x + z, y, z],
                   lambda co: (co[0] ^ co[2], co[1], co[2]))
    assert moved.points[1] == (1, 0, 1)
    assert sf.verify_chart_smoothness(sf.s_expansions(moved)).ok()


def test_alpha_consistency(ctx, model, conj_scalar):
    def alpha_node(scalar=conj_scalar, alpha=ctx.gen_pow(19)):
        return sf.verify_alpha_consistency(model, _objects(
            model, scalar=scalar, action=cu.AffineAction(ctx, alpha, 0),
            gamma=sf.c_scalar(model), roots=lehmer_mod2_roots(ctx)))
    assert alpha_node().ok()
    assert not alpha_node(scalar=ctx.gen_pow(9)).ok()
    assert not alpha_node(alpha=ctx.gen_pow(16)).ok()


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
                        and sf.verify_cubic(mut, _objects(mut)).ok())


def _moved(model, images, move):
    """The model with s and g pulled back along the linear map `images`;
    the inverse map `move` carries each marked point and the cusp to
    its new place. f, c and eta stay as they are."""
    ctx = model.ctx
    points = {i: canonical(ctx, move(p)) for i, p in model.points.items()}
    return sf.SurfaceModel(ctx, model.names, model.s.substitute(images),
                           model.f, model.c, model.eta,
                           model.g.substitute(images), points,
                           canonical(ctx, move(model.cusp)))


def test_singular_locus_after_change_of_coordinates(ctx, model):
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    mul = ctx.mul_bits
    g = ctx.gen_pow(1)
    # x -> x + g y: (0 : 1 : 0) moves to (g : 1 : 0), off x = 0
    sheared = _moved(model, [x + y.scale_bits(g), y, z],
                     lambda co: (co[0] ^ mul(g, co[1]), co[1], co[2]))
    # z -> z + x / g: (g : g^19 : 1) moves onto z = 0
    h = ctx.inv_bits(g)
    lifted = _moved(model, [x, y, z + x.scale_bits(h)],
                    lambda co: (co[0], co[1], co[2] ^ mul(h, co[0])))
    assert (g, 1, 0) in sheared.points.values()
    assert canonical(ctx, (g, ctx.gen_pow(19), 0)) \
        in lifted.points.values()
    for moved in (sheared, lifted):
        assert sf.singular_locus(moved).ok()


def test_local_expansion_uses_the_chart_of_the_point(ctx):
    # three lines through (g^3 : 1 : 0), read in the chart y = 1
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    u = x + y.scale_bits(ctx.gen_pow(3))
    pt = (ctx.gen_pow(3), 1, 0)
    assert local_expansion(u * z * (u + z), pt).order() == 3


def test_multiplicities_at_a_point_of_z_0_off_the_axes(ctx, model):
    # x -> x + g y moves p3 = (0 : 1 : 0) to (g : 1 : 0), where the
    # chart is y = 1, not x = 1
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    g = ctx.gen_pow(1)
    sheared = _moved(model, [x + y.scale_bits(g), y, z],
                     lambda co: (co[0] ^ ctx.mul_bits(g, co[1]), co[1],
                                 co[2]))
    assert sheared.points[3] == (g, 1, 0)
    assert sf.verify_multiplicities(sf.s_expansions(sheared)).ok()


def test_cubic_at_a_cusp_on_z_0(ctx, model):
    # z -> z + g^16 x moves the cusp (g^15 : g^28 : 1) onto z = 0, where
    # its tangent cone is read in the chart y = 1
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    h = ctx.gen_pow(16)
    lifted = _moved(model, [x, y, z + x.scale_bits(h)],
                    lambda co: (co[0], co[1], co[2] ^ ctx.mul_bits(h, co[0])))
    assert lifted.cusp[2] == 0
    assert sf.verify_cubic(lifted, _objects(lifted)).ok()


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
                    out.add(canonical(s.ctx, (x, y, z)))
    return sorted(format_point(s.ctx, p) for p in out)


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
    t = MultiPoly(ctx, 3, {(3, 7, 0): 1, (7, 1, 2): ctx.gen_pow(1),
                           (0, 5, 5): 1, (1, 0, 9): 1})
    xy = MultiPoly(ctx, 3, {(1, 0, 0): 1, (0, 1, 0): 1})
    mut = sf.SurfaceModel(ctx, model.names, xy * xy * t, model.f,
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


@pytest.mark.parametrize("name,label", [("points.dat", "p7"),
                                        ("surface.poly", "s")])
def test_load_model_rejects_a_missing_label(data_copy, name, label):
    f = data_copy / name
    text = f.read_text()
    assert f"\n{label} = " in text
    f.write_text(text.replace(f"\n{label} = ", f"\n{label}x = ", 1))
    with pytest.raises(ParseError, match=f"^{name} does not define "
                                         f"'{label}'$"):
        sf.load_model(data_copy)


def _singular_leaves(ctx, s, points=None):
    """{name: (status, witness)} of the singular search on w^2 = s."""
    m = sf.SurfaceModel(ctx, ["x", "y", "z"], s, None, None, None, None,
                        points or {}, None)
    return {c.name: (c.status, c.witness)
            for c in sf.singular_locus(m).children}


def test_singular_locus_names_the_model_field():
    """The passing rational_over_base witness names the model's own
    field: GF(16) for s = x y z^10 + x^3 y^9 + x^9 z^3 over GF(16), whose
    search completes with the three coordinate points."""
    gf16 = field_make(4, 0b10011)
    s = MultiPoly(gf16, 3, {(1, 1, 10): 1, (3, 9, 0): 1, (9, 0, 3): 1})
    leaves = _singular_leaves(gf16, s)
    assert leaves["singular.count"] == ("fail", "3 points")
    assert leaves["singular.rational_over_base"] == (
        "pass", "all coordinates in GF(16)")


def test_singular_summaries_fail_when_the_search_is_incomplete(
        monkeypatch, model):
    """count, matches_marked_points and rational_over_base fail when a
    chart leaf failed or errored, and rational_over_base names those
    leaves. Over GF(2), GF(4) and GF(8) the chart z eliminant of s =
    x^11 y + y^11 z + z^11 x has degree 111 and only 3 roots in GF(q)
    and GF(q^2): the search runs to the end, with no error leaf, and
    finds every singular point of P^2(GF(q^2)). On the bundled model
    with s a perfect square every chart partial vanishes."""
    stratum_points = sf._stratum_points
    found = []

    def recording(grad, label):
        leaves, pts = stratum_points(grad, label)
        found.extend(pts)
        return leaves, pts

    monkeypatch.setattr(sf, "_stratum_points", recording)
    for m, modulus in [(1, 0b11), (2, 0b111), (3, 0b1011)]:
        base, big = field_make(m, modulus), ext_context(2 * m)
        s = MultiPoly(base, 3, {(11, 1, 0): 1, (0, 11, 1): 1,
                                (1, 0, 11): 1})
        found.clear()
        leaves = _singular_leaves(base, s)
        assert [n for n, (st, _) in leaves.items() if st == "error"] == []
        assert leaves["singular.chart_z.roots_within_bound"] == (
            "fail", "eliminant degree 111, only 3 accounted for within "
                    f"extension degree {2 * m}")
        brute = plane_zeros([s.partial(i).embed_to(big) for i in range(3)])
        assert {tuple(embed(c, k, big) for c in co)
                for co, k in found} == set(brute)
        assert leaves["singular.rational_over_base"] == (
            "fail", "search incomplete: singular.chart_z.roots_within_bound")

    ctx = model.ctx
    root = MultiPoly(ctx, 3, {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1,
                              (2, 2, 2): 1})
    leaves = _singular_leaves(ctx, root * root, model.points)
    names = [f"singular.chart_{c}.partials_nonzero" for c in "zyx"]
    assert all(leaves[n][0] == "fail" for n in names)
    assert leaves["singular.count"][0] == "fail"
    assert leaves["singular.matches_marked_points"][0] == "fail"
    assert leaves["singular.rational_over_base"] == (
        "fail", "search incomplete: " + ", ".join(names))


def test_singular_summaries_need_every_chart_leaf(monkeypatch, model):
    """A failing chart leaf fails count and matches_marked_points even
    when the points found are the eleven marked ones."""
    stratum_points = sf._stratum_points

    def with_failure(grad, label):
        leaves, pts = stratum_points(grad, label)
        if label == "x":
            leaves = leaves + [rp.leaf("singular.chart_x.forced", False)]
        return leaves, pts

    monkeypatch.setattr(sf, "_stratum_points", with_failure)
    leaves = _singular_leaves(model.ctx, model.s, model.points)
    assert leaves["singular.count"] == ("fail", "11 points")
    status, found = leaves["singular.matches_marked_points"]
    assert status == "fail"
    assert found == sorted(format_point(model.ctx, p)
                           for p in model.points.values())
    assert leaves["singular.rational_over_base"] == (
        "fail", "search incomplete: singular.chart_x.forced")


def test_kernel_dim_witness_is_the_dimension(data_copy):
    """With p5 := p4 and p7 := p6 the ten points impose eight conditions,
    so two independent cubics pass through them; the model still loads,
    since every point lies on g, and cubic.kernel_dim fails with the
    dimension alone as its witness."""
    f = data_copy / "points.dat"
    text = f.read_text()
    for old, new in (("p5 = (g^18 : g^11 : 1)", "p5 = (g^29 : g^6 : 1)"),
                     ("p7 = (g^14 : g^14 : 1)", "p7 = (g^12 : g^7 : 1)")):
        assert old in text
        text = text.replace(old, new)
    f.write_text(text)
    (cubic,) = [c for c in run_suite("surface", data_copy).children
                if c.name == "cubic"]
    (leaf,) = [c for c in cubic.children if c.name == "cubic.kernel_dim"]
    assert (leaf.status, leaf.witness) == ("fail", "dim=2")


@pytest.mark.parametrize("a,b", [("g^3", "0"), ("1", "g^7"),
                                 ("g^11", "g^2")])
def test_match_verdicts_do_not_depend_on_the_chart_normalization(
        monkeypatch, ctx, a, b):
    """Projection from the cusp fixes the chart only up to t -> a t + b:
    with param_of renormalized so, the induced action's witness changes
    and no leaf status does."""
    def statuses():
        leaves = list(_leaves(run_suite("surface")))
        return ([(leaf.name, leaf.status) for leaf in leaves],
                [leaf.witness for leaf in leaves
                 if leaf.name == "match.induced_action_affine"])

    before, (action,) = statuses()
    param_of = cu.CuspChart.param_of
    scale, shift = parse_elem(a, ctx), parse_elem(b, ctx)

    def renormalized(chart, coords):
        return ctx.mul_bits(scale, param_of(chart, coords)) ^ shift

    monkeypatch.setattr(cu.CuspChart, "param_of", renormalized)
    after, (moved,) = statuses()
    assert after == before
    assert moved != action
