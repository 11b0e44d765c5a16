"""End-to-end verifier for the weighted double-plane model.

The model lives in P(1,1,1,6): a surface w^2 = s(x,y,z) with s of
degree 12, a quadratic Cremona self-map f = (f_x, f_y, f_z) lifted to
an automorphism by w -> c w + eta, a distinguished cuspidal cubic g,
and eleven marked points. Every check here is an exact identity over
GF(32); there are no tolerances. The derivation chain computes in the
plane ring k[x, y, z]: its leaves read scalars that the surface run
derives once each (`_surface_objects`), g o f among them, so w^2 = s is
never rewritten.
The singular search and the blow-up charts read plane polynomials
along lines with `MultiPoly.univariate_at`. `suites` runs the surface
suite through `_surface_reports`.
"""

from __future__ import annotations

from . import _read_data, cubic as cu
from .errors import DomainError, InvariantViolation, NoSolution, ParseError
from .gf2m import FieldCtx, embed, format_elem
from .multipoly import (
    MultiPoly,
    canonical,
    format_point,
    format_poly,
    linear_solve,
    local_expansion,
    parse_point_file,
    parse_poly_file,
    plane_zeros,
    resultant,
)
from .suites import _guarded, _run_checks, _run_objects
from .unipoly import UniPoly, uni_roots
from . import report as rp


# ---------------------------------------------------------------------------
# model loading


class SurfaceModel:
    """Parsed and invariant-checked model data.

    s: the degree-12 branch polynomial; f: three quadric components of
    the self-map; c, eta: weight-6 scalar part and degree-12 tail of
    the w-component; g: the marked cubic; points: p_0..p_10; cusp: the
    singular point of g.
    """

    __slots__ = ("ctx", "names", "s", "f", "c", "eta", "g", "points", "cusp")

    def __init__(self, ctx, names, s, f, c, eta, g, points, cusp):
        self.ctx = ctx
        self.names = names
        self.s = s
        self.f = f
        self.c = c
        self.eta = eta
        self.g = g
        self.points = points
        self.cusp = cusp


def _need(polys: dict, fname: str, *labels):
    for label in labels:
        if label not in polys:
            raise ParseError(f"{fname} does not define {label!r}")
    return [polys[label] for label in labels]


def load_model(data_dir=None) -> SurfaceModel:
    """Parse the four data files and check the model invariants.

    Raises ParseError for malformed or incomplete files and
    InvariantViolation (naming the failed invariant) for well-formed
    data that does not satisfy the declared degrees and incidences.
    """
    (names, ctx, sp), (an, actx, ap), (cn, cctx, cp) = (
        parse_poly_file(_read_data(data_dir, fname), fname)
        for fname in ("surface.poly", "automorphism.poly", "cubic.poly"))
    (s,) = _need(sp, "surface.poly", "s")
    pctx, pts = parse_point_file(_read_data(data_dir, "points.dat"),
                                 "points.dat")
    if not (actx is ctx and cctx is ctx and pctx is ctx):
        raise ParseError("data files disagree on the coefficient field")
    if an != names or cn != names:
        raise ParseError("data files disagree on variable names")
    fx, fy, fz, c, eta = _need(ap, "automorphism.poly",
                               "fx", "fy", "fz", "c", "eta")
    (g,) = _need(cp, "cubic.poly", "g")
    *marked, cusp = _need(pts, "points.dat",
                          *(f"p{i}" for i in range(11)), "cusp")
    points = dict(enumerate(marked))

    for label, poly, deg in (("s", s, 12), ("fx", fx, 2), ("fy", fy, 2),
                             ("fz", fz, 2), ("c", c, 6), ("eta", eta, 12),
                             ("g", g, 3)):
        if poly.is_zero():
            raise InvariantViolation(f"{label} is the zero polynomial")
        if not poly.is_homogeneous():
            raise InvariantViolation(f"{label} is not homogeneous")
        if poly.total_degree() != deg:
            raise InvariantViolation(
                f"{label} has degree {poly.total_degree()}, "
                f"expected {deg}")
    for i in range(11):
        if g.eval_bits(points[i]) != 0:
            raise InvariantViolation(f"g(p{i}) != 0")
    return SurfaceModel(ctx, names, s, (fx, fy, fz), c, eta, g,
                        points, cusp)


# ---------------------------------------------------------------------------
# small helpers shared by the checks


def _scalar_ratio(p: MultiPoly, q: MultiPoly):
    """Raw bits k with p == k * q; None when no such scalar exists."""
    if p.is_zero() or q.is_zero() or p.terms.keys() != q.terms.keys():
        return None
    ctx = p.ctx
    ks = {ctx.mul_bits(v, ctx.inv_bits(q.terms[e]))
          for e, v in p.terms.items()}
    return ks.pop() if len(ks) == 1 else None


def c_scalar(m: SurfaceModel):
    """Raw bits gamma with c = gamma (xyz)^2, the shape that
    derive_sigma_inverse requires; None for any other c."""
    return _scalar_ratio(m.c, MultiPoly(m.ctx, 3, {(2, 2, 2): 1}))


# ---------------------------------------------------------------------------
# orbit of the marked points under f


def apply_map(m: SurfaceModel, pt: tuple):
    """Image of a plane point under f, or None on the base locus."""
    img = [comp.eval_bits(pt) for comp in m.f]
    return canonical(m.ctx, img) if any(img) else None


def verify_orbit(m: SurfaceModel) -> rp.Report:
    """f(p_i) = p_{i+1} for i = 4..10 (indices mod 10 back to p_1),
    f(p_0) = p_0, and base locus exactly {p_1, p_2, p_3}."""
    checks = []
    pairs = [(i, 1 if i == 10 else i + 1) for i in range(4, 11)] + [(0, 0)]
    for i, j in pairs:
        img = apply_map(m, m.points[i])
        name = f"orbit.p{i}_to_p{j}" if i else "orbit.p0_fixed"
        checks.append(rp.leaf(name, img == m.points[j],
                              format_point(m.ctx, img) if img else "None"))
    base = set(plane_zeros(m.f))
    expected = {m.points[1], m.points[2], m.points[3]}
    checks.append(rp.leaf("orbit.base_locus", base == expected,
                          sorted(format_point(m.ctx, b) for b in base)))
    return rp.node("orbit", checks)


# ---------------------------------------------------------------------------
# the cubic through the orbit


def cubic_monomials():
    return [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


def verify_cubic(m: SurfaceModel, need) -> rp.Report:
    """Uniqueness of the cubic through p_1..p_10 and its local shape:
    kernel of the incidence system is one-dimensional and spanned by g;
    g has a cusp (double point, double-line tangent cone) at the marked
    cusp and is smooth at p_0. The gradients read the run's partials of
    g; cusp_location compares the marked cusp with the run's cusp, the
    one found among the points of g (cubic.find_cusp)."""
    ctx = m.ctx
    mons = cubic_monomials()
    monpolys = [MultiPoly(ctx, 3, {mon: 1}) for mon in mons]
    rows = [[mp.eval_bits(m.points[i]) for mp in monpolys]
            for i in range(1, 11)]
    kernel = linear_solve(ctx, rows)
    checks = [rp.leaf("cubic.kernel_dim", len(kernel) == 1,
                      f"dim={len(kernel)}")]
    spans = False
    if len(kernel) == 1:
        kv = MultiPoly(ctx, 3, dict(zip(mons, kernel[0])))
        spans = _scalar_ratio(kv, m.g) is not None
    checks.append(rp.leaf("cubic.kernel_spans_g", spans,
                          format_poly(m.g, m.names)))
    checks.append(rp.leaf(
        "cubic.vanishes_on_points",
        all(m.g.eval_bits(m.points[i]) == 0 for i in range(11)),
        "g(p_0) = ... = g(p_10) = 0"))
    checks.append(_leaf_of("cubic.cusp_location", lambda: (
        need("cusp") == m.cusp, format_point(ctx, need("cusp")))))
    partials = need("partials")
    grads = [p.eval_bits(m.cusp) for p in partials]
    checks.append(rp.leaf(
        "cubic.cusp_partials",
        m.g.eval_bits(m.cusp) == 0 and not any(grads),
        [format_elem(ctx, v) for v in grads]))
    local = local_expansion(m.g, m.cusp)
    init = local.initial_form()
    checks.append(rp.leaf(
        "cubic.cusp_tangent_cone",
        local.order() == 2 and init.is_square(),
        format_poly(init, ["u", "v"])))
    grad0 = [p.eval_bits(m.points[0]) for p in partials]
    checks.append(rp.leaf(
        "cubic.smooth_fixed_point",
        m.g.eval_bits(m.points[0]) == 0 and any(grad0),
        [format_elem(ctx, v) for v in grad0]))
    return rp.node("cubic", checks)


# ---------------------------------------------------------------------------
# equivariance of the lifted automorphism


def verify_equivariance(m: SurfaceModel) -> rp.Report:
    """Exact identity s(f_x, f_y, f_z) = c^2 s + eta^2, which is the
    statement that w -> c w + eta maps w^2 = s to itself."""
    lhs = m.s.substitute(list(m.f))
    rhs = m.c * m.c * m.s + m.eta * m.eta
    nl, nr, nd = (p.num_terms() for p in (lhs, rhs, lhs + rhs))
    checks = [
        rp.leaf("equivariance.identity", lhs == rhs,
                f"{nl} terms on the left, {nr} on the right, {nd} differ"
                if nd else f"{nl} terms on each side"),
        rp.leaf("equivariance.degree",
                lhs.is_homogeneous() and lhs.total_degree() == 24
                and rhs.is_homogeneous() and rhs.total_degree() == 24,
                f"degree {lhs.total_degree()}"),
    ]
    return rp.node("equivariance", checks)


# ---------------------------------------------------------------------------
# the inverse automorphism


class SigmaInverse:
    """Derived inverse data: three plane components, the w-component
    scalar k and tail eta_prime (w -> k lambda^2 w + eta_prime), and the
    common projective factor lambda of the forward composition."""

    __slots__ = ("components", "w_scalar", "eta_prime", "lambda_factor")

    def __init__(self, components, w_scalar, eta_prime, lambda_factor):
        self.components = components
        self.w_scalar = w_scalar
        self.eta_prime = eta_prime
        self.lambda_factor = lambda_factor


def derive_sigma_inverse(m: SurfaceModel,
                         gamma: int | None) -> SigmaInverse:
    """Reconstruct the inverse automorphism from m and c_scalar(m).

    The plane components SI are (x+az)z, (x+az)(y+bz), (y+bz)z where a,
    b are the two off-diagonal constants of f. The w-component of
    forward . inverse, c(SI) (k lambda^2 w + eta_prime) + eta(SI), must
    be lambda^6 w, so the tail is the exact quotient eta(SI) / c(SI).
    Once inverse . forward is xyz * identity, the rest holds by
    construction. forward . inverse is lambda * identity: lambda^2 =
    six siy siz pulls back to (xyz)^4, so lambda(f) = (xyz)^2, as
    squaring is one to one on polynomials in characteristic 2; then
    (f(SI))(f) = f(xyz * id) = (xyz)^2 f = lambda(f) f, and f is
    dominant because SI(f) is, so f(SI) = lambda * id. k c = (xyz)^2
    makes c(SI) k lambda^2 = lambda^6, and eta_prime(f) = k lambda^2(f)
    eta follows for eta homogeneous of degree 12, as load_model
    requires. NoSolution reports a model inconsistency.
    """
    ctx = m.ctx
    fx, fy, fz = m.f
    a = fx.terms.get((1, 0, 1), 0)
    b = fy.terms.get((1, 0, 1), 0)
    if not a or not b:
        raise NoSolution("f does not have the expected component shape")
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    xa = x + z.scale_bits(a)
    yb = y + z.scale_bits(b)
    six, siy, siz = xa * z, xa * yb, yb * z
    xyz = x * y * z
    # composition (inverse . forward) must be xyz * identity on the plane
    for comp, var in ((six, x), (siy, y), (siz, z)):
        if comp.substitute(list(m.f)) != xyz * var:
            raise NoSolution("inverse . forward is not xyz * identity")
    # lambda^2 = six siy siz, so lambda^2(f) = (xyz)^4 by the check
    # above and k lambda^2(f) c = (xyz)^6 needs no substitution
    lam = xa * yb * z
    if gamma is None:
        raise NoSolution("no scalar matches the w-component weight")
    k = ctx.inv_bits(gamma)
    c_si = m.c.substitute([six, siy, siz])
    try:
        etap = m.eta.substitute([six, siy, siz]).divide_exact(c_si)
    except DomainError as ex:
        raise NoSolution("tail: c(SI) does not divide eta(SI)") from ex
    return SigmaInverse((six, siy, siz), k, etap, lam)


# ---------------------------------------------------------------------------
# the conjugated derivation


def cubic_multipliers(m: SurfaceModel, si: SigmaInverse, g_of_f: MultiPoly):
    """(k_f, k_m), the raw bits with g o f = k_f xyz g and g o SI =
    k_m lambda g, given g_of_f = g o f; None for one that does not
    exist."""
    xyz = MultiPoly(m.ctx, 3, {(1, 1, 1): 1})
    return (_scalar_ratio(g_of_f, xyz * m.g),
            _scalar_ratio(m.g.substitute(list(si.components)),
                          si.lambda_factor * m.g))


def verify_derivation(m: SurfaceModel, need) -> rp.Report:
    """The derivation-conjugation chain in the chart z != 0 as the
    relations of docs/report-schema.md between the run's scalars: k =
    1/gamma, k_f = 1/alpha and k_m = alpha for the multiplier alpha of
    the induced action (None for a missing multiplier), D kills the
    w-free subfield and K^2 = gamma for the conjugation scalar K."""
    ctx, mul = m.ctx, m.ctx.mul_bits
    si, gamma = need("inverse"), need("gamma")
    kf, km = need("multipliers")

    def elem(k):
        return None if k is None else format_elem(ctx, k)
    # each leaf reads the action or K before testing, so a missing one is
    # an error even where k_f or k_m is None (read as 0 in the product)
    return rp.node("derivation", [
        rp.leaf("derivation.w_scalar", mul(si.w_scalar, gamma) == 1,
                format_elem(ctx, si.w_scalar)),
        rp.leaf("derivation.inverse_tail", not si.eta_prime.is_zero(),
                f"{si.eta_prime.num_terms()} terms"),
        _leaf_of("derivation.cubic_multiplier", lambda: (
            mul(need("action").alpha, kf or 0) == 1, elem(kf))),
        _leaf_of("derivation.inverse_cubic_multiplier", lambda: (
            need("action").alpha == km, elem(km))),
        # holds by construction: x/z has no w term (docs/report-schema.md)
        rp.leaf("derivation.kills_base_functions", True, "d/dw (x/z) = 0"),
        _leaf_of("derivation.conjugation_scalar", lambda: (
            mul(need("scalar"), need("scalar")) == gamma,
            format_elem(ctx, need("scalar"))))])


# ---------------------------------------------------------------------------
# singular locus


def singular_locus(m: SurfaceModel) -> rp.Report:
    """Find the singular points of the cover, each plane point once.

    The cover w^2 = s is singular exactly over the common zeros of s_x,
    s_y and s_z (w is absent from the Jacobian in characteristic 2).
    By Euler's identity x s_x + y s_y + z s_z = 12 s = 0, two partials
    suffice wherever the third coordinate is nonzero, so each of the
    disjoint strata z = 1, (x : 1 : 0) and (1 : 0 : 0) of P^2 solves
    the two partials of its chart (_stratum_points) and every point
    found is re-checked against all three partials in its own field.
    The search covers the model's field GF(q) and GF(q^2): roots outside
    them and degenerate fibers are failing leaves, never dropped;
    singular.chart_<c> counts the points with c != 0. count,
    matches_marked_points and rational_over_base sum up the whole
    search, so each passes only when no chart leaf failed or errored.
    """
    ctx = m.ctx
    grad = [m.s.partial(i) for i in range(3)]
    checks, pts = [], []

    def stratum(label):
        leaves, got = _stratum_points(grad, label)
        checks.extend(leaves)
        pts.extend((label, co, k) for co, k in got)
        # later strata lie on this coordinate's zero line
        n = sum(1 for _, co, _k in pts if co["xyz".index(label)])
        return rp.leaf(f"singular.chart_{label}", True, f"{n} affine points")
    for label in "zyx":
        checks.append(_guarded(f"singular.chart_{label}",
                               lambda: stratum(label)))
    incomplete = [c.name for c in checks if not c.ok()]
    found = {co for _, co, k in pts if k is ctx}
    irrational = [f"chart {label}: degree-{k.m} point "
                  + format_point(k, co)
                  for label, co, k in pts if k is not ctx]
    expected = set(m.points.values())
    checks.append(rp.leaf("singular.count",
                          not incomplete and len(found) == 11,
                          f"{len(found)} points"))
    checks.append(rp.leaf("singular.matches_marked_points",
                          not incomplete and found == expected,
                          sorted(format_point(ctx, p) for p in found)))
    checks.append(rp.leaf(
        "singular.rational_over_base", not incomplete and not irrational,
        f"search incomplete: {', '.join(incomplete)}" if incomplete
        else irrational or f"all coordinates in GF({1 << ctx.m})"))
    return rp.node("singular", checks)


def _stratum_points(grad, label: str):
    """-> (failing leaves, [(coords, field)]) on the stratum where the
    coordinate `label` is the last nonzero one, scaled to 1.

    z = 1: the eliminant in y of the chart partials (in a field sized to
    it, one fiber per Frobenius orbit), its roots in GF(q) and GF(q^2)
    for the model's field GF(q), then each fiber's common roots there.
    (x : 1 : 0): the common roots of the chart partials at z = 0, the
    fiber named 0. (1 : 0 : 0): the two partials evaluated there.
    """
    bound = 2 * grad[0].ctx.m  # absolute degree of GF(q^2)
    c = "xyz".index(label)
    p, q = (grad[i] for i in range(3) if i != c)
    prefix = f"singular.chart_{label}"
    if p.is_zero() or q.is_zero():
        return [rp.leaf(f"{prefix}.partials_nonzero", False,
                        "a chart partial vanishes identically")], []
    leaves, cands = [], []
    if label == "x":
        if not (p.eval_bits((1, 0, 0)) or q.eval_bits((1, 0, 0))):
            cands.append(((1, 0, 0), p.ctx))
    elif label == "y":
        uu, vv = (r.univariate_at(0, (0, 1, 0)) for r in (p, q))
        leaves, roots = _common_roots(uu, vv, bound, prefix, "0")
        cands = [((x0, 1, 0), k) for k, x0 in roots]
    else:
        su, sv = (local_expansion(r, (0, 0, 1)) for r in (p, q))
        r2 = resultant(su, sv)
        if r2.is_zero():
            return [rp.leaf(f"{prefix}.eliminant_nonzero", False,
                            "partials share a one-dimensional component")], []
        ru = r2.univariate_at(0, (0, 0))
        roots = uni_roots(ru, bound)
        covered = sum(mult for _, _, mult in roots)
        if covered < ru.degree():
            leaves.append(rp.leaf(
                f"{prefix}.roots_within_bound", False,
                f"eliminant degree {ru.degree()}, only {covered} accounted "
                f"for within extension degree {bound}"))
        for ku, u0, _mult in roots:
            uu, vv = (r.embed_to(ku).univariate_at(1, (u0, 0))
                      for r in (su, sv))
            more, vroots = _common_roots(uu, vv, bound, prefix,
                                         format_elem(ku, u0))
            leaves += more
            # the fiber's roots lie in ku or an extension k of it
            for k, v0 in vroots:
                ub = u0 if k is ku else embed(u0, ku, k)
                cands.append(((ub, v0, 1), k))
    pts = []
    for co, k in cands:
        if any(r.embed_to(k).eval_bits(co) for r in grad):
            leaves.append(rp.leaf(
                f"{prefix}.back_substitution", False,
                f"{format_point(k, co)} fails re-evaluation"))
        else:
            pts.append((co, k))
    return leaves, pts


def _common_roots(uu: UniPoly, vv: UniPoly, bound: int, prefix: str,
                  at: str):
    """-> (failing leaves, [(field, bits)]) of the common roots of uu and
    vv in extensions of GF(2) of degree at most bound; `at` names the
    fiber in the leaf names."""
    if uu.is_zero() and vv.is_zero():
        return [rp.leaf(f"{prefix}.fiber_{at}", False,
                        "both partials vanish identically on the fiber")], []
    w = uu.gcd(vv)
    if w.degree() == 0:
        return [], []  # none; on z = 1 a spurious eliminant root
    roots = uni_roots(w, bound)
    covered = sum(mult for _, _, mult in roots)
    leaves = []
    if covered < w.degree():
        leaves.append(rp.leaf(
            f"{prefix}.roots_within_bound.{at}", False,
            f"common factor degree {w.degree()}, {covered} roots within "
            f"extension degree {bound}"))
    return leaves, [(k, r) for k, r, _ in roots]


# ---------------------------------------------------------------------------
# multiplicities at the marked points


def absorbed_square_multiplicity(local: MultiPoly):
    """(multiplicity, initial form) after absorbing square initial forms.

    A perfect-square initial form q^2 is killed by the fiber change
    w -> w + q, so it does not contribute to the singularity of the
    cover; absorption repeats until the initial form is not a square.
    Returns (None, zero) when the whole local branch is absorbed.
    """
    t = local
    while not t.is_zero():
        init = t.initial_form()
        if not init.is_square():
            return init.total_degree(), init
        q = init.poly_sqrt()
        t = t + q * q
    return None, MultiPoly(local.ctx, local.nvars, {})


def s_expansions(m: SurfaceModel) -> list[MultiPoly]:
    """s at p_0, ..., p_10, each read by local_expansion."""
    return [local_expansion(m.s, m.points[i]) for i in range(11)]


def verify_multiplicities(local: list[MultiPoly]) -> rp.Report:
    """Adjusted multiplicity 4 at p_1..p_10; at p_0 the constant term
    is absorbed and the residue is an ordinary double point (quadratic
    initial form that is not a perfect square). local is
    s_expansions(m)."""
    checks = []
    for i in range(1, 11):
        raw = local[i].order()
        mult, _init = absorbed_square_multiplicity(local[i])
        checks.append(rp.leaf(f"multiplicity.p{i}", mult == 4,
                              f"raw {raw}, adjusted {mult}"))
    local0 = local[0]
    value = local0.terms.get((0, 0), 0)
    checks.append(rp.leaf("multiplicity.p0_branch_value", value != 0,
                          format_elem(local0.ctx, value)))
    mult0, init0 = absorbed_square_multiplicity(local0)
    checks.append(rp.leaf("multiplicity.p0_adjusted", mult0 == 2,
                          f"adjusted {mult0}"))
    checks.append(rp.leaf("multiplicity.p0_nondegenerate",
                          mult0 == 2 and not init0.is_square(),
                          format_poly(init0, ["u", "v"])))
    return rp.node("multiplicities", checks)


# ---------------------------------------------------------------------------
# blow-up chart smoothness at the three base points


def _strict_transforms(sc: MultiPoly):
    """(s(u, u v) / u^4, s(u v, v) / v^4) for s in the local chart sc
    of order 4 or more: u^a v^b goes to u^(a+b-4) v^b and to
    u^a v^(a+b-4), so no two terms meet."""
    t = sc.terms.items()
    return (MultiPoly(sc.ctx, 2, {(a + b - 4, b): c for (a, b), c in t}),
            MultiPoly(sc.ctx, 2, {(a, a + b - 4): c for (a, b), c in t}))


def verify_chart_smoothness(local: list[MultiPoly]) -> rp.Report:
    """Blow up each base point p_1, p_2, p_3 and look for singular
    points over the exceptional line.

    local is s_expansions(m): s in the local chart of each point, where
    it must vanish to order 4 or more at the origin. Main chart: the
    strict transform s(u, u v) / u^4, whose two partials restricted to
    u = 0 must share no root (constant gcd). The one point the main
    chart misses is the origin of the complementary chart, where the
    strict transform s(u v, v) / v^4 needs a nonvanishing partial.
    """
    ctx = local[0].ctx
    checks = []
    for idx in (1, 2, 3):
        order = local[idx].order()
        if order < 4:
            checks.append(rp.leaf(f"charts.p{idx}", False,
                                  f"order {order} < 4 at the base point"))
            continue
        main, comp = _strict_transforms(local[idx])
        r_u = main.partial(0).univariate_at(1, (0, 0))
        r_v = main.partial(1).univariate_at(1, (0, 0))
        gdeg = r_u.gcd(r_v).degree()  # -1 when both vanish
        checks.append(rp.leaf(f"charts.p{idx}_main", gdeg == 0,
                              f"gcd degree {gdeg}"))
        w1 = comp.partial(0).eval_bits([0, 0])
        w2 = comp.partial(1).eval_bits([0, 0])
        checks.append(rp.leaf(
            f"charts.p{idx}_complementary", (w1, w2) != (0, 0),
            f"({format_elem(ctx, w1)}, {format_elem(ctx, w2)})"))
    return rp.node("charts", checks)


# ---------------------------------------------------------------------------
# the distinguished scalar


def verify_alpha_consistency(m: SurfaceModel, need) -> rp.Report:
    """Cross-checks between the derivation scalar and the parameter
    action: lambda1^2 = gamma for the conjugation scalar lambda1 = K (c
    = gamma (xyz)^2), the induced action's multiplier alpha is one of
    roots (the degree-10 integer polynomial's mod-2 roots in m's field),
    alpha != lambda1^2 (so the two quadric eigenvalues stay distinct),
    and lambda1^2 is not such a root."""
    ctx = m.ctx
    lambda1, alpha = need("scalar"), need("action").alpha
    gamma, roots = need("gamma"), need("roots")
    forbidden = ctx.mul_bits(lambda1, lambda1)
    checks = [
        rp.leaf("alpha.lambda1_value", forbidden == gamma,
                format_elem(ctx, lambda1)),
        rp.leaf("alpha.root_count", len(roots) == 10,
                f"{len(roots)} roots"),
        rp.leaf("alpha.is_root", alpha in roots, format_elem(ctx, alpha)),
        rp.leaf("alpha.forbidden_value_not_root", forbidden not in roots,
                format_elem(ctx, forbidden)),
    ]
    lam2 = ctx.mul_bits(alpha, ctx.inv_bits(lambda1))
    checks.append(rp.leaf("alpha.eigenvalues_distinct", lam2 != lambda1,
                          format_elem(ctx, lam2)))
    return rp.node("alpha", checks)


# ---------------------------------------------------------------------------
# the surface suite: one run-object table and the checks in order


def _surface_objects(data_dir):
    """need(key) for one surface run: the model, the derived scalars of
    docs/report-schema.md with g o f, which k_f and the induced action
    read, the expansions of s at the marked points, the points of the
    marked cubic as `plane_zeros` finds them, g's partials, its cusp and
    cusp chart, the induced affine action and Lehmer's mod-2 roots."""
    return _run_objects({
        "model": lambda need: load_model(data_dir),
        "gamma": lambda need: c_scalar(need("model")),
        "inverse": lambda need: derive_sigma_inverse(need("model"),
                                                     need("gamma")),
        "g_of_f": lambda need: need("model").g.substitute(
            list(need("model").f)),
        "multipliers": lambda need: cubic_multipliers(
            need("model"), need("inverse"), need("g_of_f")),
        "scalar": lambda need: _conjugation_scalar(
            need("model").ctx, need("inverse").w_scalar,
            need("multipliers")[0]),
        "local": lambda need: s_expansions(need("model")),
        "points": lambda need: plane_zeros([need("model").g]),
        "partials": lambda need: [need("model").g.partial(i)
                                  for i in range(3)],
        "cusp": lambda need: cu.find_cusp(need("partials"), need("points")),
        "chart": lambda need: cu.cusp_parametrization(
            need("model").g, need("cusp"), need("points")),
        "action": lambda need: cu.induced_affine_map(
            need("chart"), list(need("model").f), need("g_of_f")),
        "roots": lambda need: cu.lehmer_mod2_roots(need("model").ctx),
    })


def _conjugation_scalar(ctx: FieldCtx, k: int, kf) -> int:
    """K = k k_f^2 (docs/report-schema.md); NoSolution without a k_f,
    as then no scalar conjugates D = g^2 d/dw."""
    if kf is None:
        raise NoSolution("conjugated derivation is not a scalar "
                         "multiple of g^2 d/dw")
    return ctx.mul_bits(k, ctx.mul_bits(kf, kf))


def _leaf_of(name: str, test) -> rp.Report:
    """The leaf `name` of test() -> (ok, witness), run in the suites'
    guard: what test() raises, the failure of a run object it reads,
    becomes the error leaf `name`."""
    return _guarded(name, lambda: rp.leaf(name, *test()))


def _model_leaf(m: SurfaceModel) -> rp.Report:
    return rp.leaf("model", True, {
        "surface_terms": m.s.num_terms(),
        "translation_terms": m.eta.num_terms(),
        "cubic_terms": m.g.num_terms(),
        "marked_points": len(m.points),
    })


def _inverse_leaf(m: SurfaceModel, si: SigmaInverse) -> rp.Report:
    return rp.leaf("inverse", True, {
        "w_scalar": format_elem(m.ctx, si.w_scalar),
        "tail_terms": si.eta_prime.num_terms(),
    })


def _surface_match(m: SurfaceModel, chart: cu.CuspChart,
                   action: cu.AffineAction, roots) -> rp.Report:
    """Report node for the concrete-to-abstract parameter match: chart
    is the cusp chart of m.g, action the map m.f induces on it and
    roots Lehmer's mod-2 roots in m's field."""
    ctx = action.ctx
    checks = [rp.leaf("match.induced_action_affine", True, repr(action)),
              rp.leaf("match.multiplier_is_root", action.alpha in roots,
                      format_elem(ctx, action.alpha))]

    def transport():
        fixed = action.fixed_point()
        t0 = chart.param_of(m.points[0])
        checks.append(rp.leaf("match.fixed_parameter", fixed == t0,
                              format_elem(ctx, fixed)))
        concrete = [chart.param_of(m.points[i]) for i in range(1, 11)]
        beta = cu.beta_from_alpha(ctx, action.alpha)
        abstract = cu.orbit_points(ctx, action.alpha, beta)
        abstract_action = cu.AffineAction(ctx, action.alpha, beta)
        matches = cu.all_point_set_matches(ctx, concrete, abstract)
        checks.append(rp.leaf("match.point_sets_affinely_equivalent",
                              len(matches) >= 1,
                              [repr(phi) for phi in matches]))
        equiv = cu.equivariant_matches(matches, action, abstract_action)
        checks.append(rp.leaf("match.equivariant_match_unique",
                              len(equiv) == 1,
                              [repr(phi) for phi in equiv]))
        labels_ok = bool(equiv) and all(
            equiv[0](concrete[i]) == abstract[i] for i in range(10))
        return rp.leaf("match.marking_preserved", labels_ok)
    checks.append(_guarded("match.parameter_transport", transport))
    return rp.node("match", checks)


def _surface_reports(data_dir) -> list:
    """The surface reports in order. Nothing runs after a failed model
    load: the lone model leaf says why. A check that reads a failed run
    object is an error leaf with that object's witness."""
    need = _surface_objects(data_dir)
    head = _run_checks([("model", lambda: _model_leaf(need("model")))])
    if head[0].status == "error":
        return head
    m = need("model")
    return head + _run_checks([
        ("orbit", lambda: verify_orbit(m)),
        ("cubic", lambda: verify_cubic(m, need)),
        ("equivariance", lambda: verify_equivariance(m)),
        ("inverse", lambda: _inverse_leaf(m, need("inverse"))),
        ("derivation", lambda: verify_derivation(m, need)),
        ("singular", lambda: singular_locus(m)),
        ("multiplicities", lambda: verify_multiplicities(need("local"))),
        ("charts", lambda: verify_chart_smoothness(need("local"))),
        ("match", lambda: _surface_match(m, need("chart"), need("action"),
                                         need("roots"))),
        ("alpha", lambda: verify_alpha_consistency(m, need))])
