"""End-to-end verifier for the weighted double-plane model.

The model lives in P(1,1,1,6): a surface w^2 = s(x,y,z) with s of
degree 12, a quadratic Cremona self-map f = (f_x, f_y, f_z) lifted to
an automorphism by w -> c w + eta, a distinguished cuspidal cubic g,
and eleven marked points. Every check here is an exact identity over
GF(32); there are no tolerances.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .errors import (DomainError, InvariantViolation, NoSolution,
                     ParseError)
from .gf2m import FieldCtx, FieldElement, embed, field_make, format_elem
from .multipoly import (
    MultiPoly,
    ProjPoint,
    format_poly,
    linear_solve,
    parse_point_file,
    parse_poly_file,
    plane_points,
    resultant,
)
from .unipoly import UniPoly, uni_roots
from .lattice import lehmer_polynomial
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


def _read_data(data_dir, name: str) -> str:
    if data_dir is not None:
        p = Path(data_dir) / name
        if not p.exists():
            raise ParseError(f"missing data file {p}")
        return p.read_text()
    return resources.files(__package__).joinpath("data", name).read_text()


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
    names, weights, ctx, sp = parse_poly_file(_read_data(data_dir,
                                                         "surface.poly"))
    if weights != (1, 1, 1) or len(names) != 3:
        raise ParseError("surface.poly must declare 3 weight-1 variables")
    (s,) = _need(sp, "surface.poly", "s")
    an, aw, actx, ap = parse_poly_file(_read_data(data_dir,
                                                  "automorphism.poly"))
    cn, cw, cctx, cp = parse_poly_file(_read_data(data_dir, "cubic.poly"))
    pctx, pts = parse_point_file(_read_data(data_dir, "points.dat"))
    if not (actx is ctx and cctx is ctx and pctx is ctx):
        raise ParseError("data files disagree on the coefficient field")
    if an != names or cn != names:
        raise ParseError("data files disagree on variable names")
    fx, fy, fz, c, eta = _need(ap, "automorphism.poly",
                               "fx", "fy", "fz", "c", "eta")
    (g,) = _need(cp, "cubic.poly", "g")
    for label in [f"p{i}" for i in range(11)] + ["cusp"]:
        if label not in pts:
            raise ParseError(f"points.dat does not define {label!r}")
    points = {i: pts[f"p{i}"] for i in range(11)}
    cusp = pts["cusp"]

    w1 = (1, 1, 1)
    for label, poly, deg in (("s", s, 12), ("fx", fx, 2), ("fy", fy, 2),
                             ("fz", fz, 2), ("c", c, 6), ("eta", eta, 12),
                             ("g", g, 3)):
        if poly.is_zero():
            raise InvariantViolation(f"{label} is the zero polynomial")
        if not poly.is_weighted_homogeneous(w1):
            raise InvariantViolation(f"{label} is not homogeneous")
        if poly.weighted_degree(w1) != deg:
            raise InvariantViolation(
                f"{label} has degree {poly.weighted_degree(w1)}, "
                f"expected {deg}")
    for i in range(11):
        if g.eval_bits(points[i].coords) != 0:
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


def _chart(p: MultiPoly, drop: int) -> MultiPoly:
    return p.restrict(drop, 1).drop_var(drop)


def _uni_from(p: MultiPoly, var: int) -> UniPoly:
    """2-variable poly involving only `var` -> dense univariate."""
    if p.is_zero():
        return UniPoly(p.ctx, [])
    coeffs = [0] * (p.degree_in(var) + 1)
    for e, v in p.terms.items():
        if e[1 - var]:
            raise InvariantViolation(f"variable {1 - var} still occurs")
        coeffs[e[var]] = v
    return UniPoly(p.ctx, coeffs)


def _fmt(ctx: FieldCtx, bits: int) -> str:
    return format_elem(FieldElement(ctx, bits))


# ---------------------------------------------------------------------------
# orbit of the marked points under f


def apply_map(m: SurfaceModel, pt: ProjPoint):
    """Image of a plane point under f, or None on the base locus."""
    img = tuple(comp.eval_bits(pt.coords) for comp in m.f)
    if not any(img):
        return None
    return ProjPoint(m.ctx, img)


def verify_orbit(m: SurfaceModel) -> rp.Report:
    """f(p_i) = p_{i+1} for i = 4..10 (indices mod 10 back to p_1),
    f(p_0) = p_0, and base locus exactly {p_1, p_2, p_3}."""
    checks = []
    for i in range(4, 11):
        j = 1 if i == 10 else i + 1
        img = apply_map(m, m.points[i])
        checks.append(rp.leaf(f"orbit.p{i}_to_p{j}",
                              img == m.points[j], repr(img)))
    img0 = apply_map(m, m.points[0])
    checks.append(rp.leaf("orbit.p0_fixed", img0 == m.points[0], repr(img0)))
    base = {ProjPoint(m.ctx, pt) for pt in plane_points(m.ctx)
            if not any(comp.eval_bits(pt) for comp in m.f)}
    expected = {m.points[1], m.points[2], m.points[3]}
    checks.append(rp.leaf("orbit.base_locus", base == expected,
                          sorted(repr(b) for b in base)))
    return rp.node("orbit", checks)


# ---------------------------------------------------------------------------
# the cubic through the orbit


def cubic_monomials():
    return [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


def verify_cubic(m: SurfaceModel, located: ProjPoint) -> rp.Report:
    """Uniqueness of the cubic through p_1..p_10 and its local shape:
    kernel of the incidence system is one-dimensional and spanned by g;
    g has a cusp (double point, double-line tangent cone) at the marked
    cusp and is smooth at p_0. located is the cusp of g as found by
    scanning the plane (cubic.find_cusp)."""
    ctx = m.ctx
    mons = cubic_monomials()
    monpolys = [MultiPoly(ctx, 3, {mon: 1}) for mon in mons]
    rows = [[mp.eval_bits(m.points[i].coords) for mp in monpolys]
            for i in range(1, 11)]
    res = linear_solve(ctx, rows, [0] * 10)
    checks = [rp.leaf("cubic.kernel_dim",
                      res.status == "kernel" and len(res.kernel) == 1,
                      f"status={res.status}, dim={len(res.kernel)}")]
    spans = False
    if len(res.kernel) == 1:
        kv = MultiPoly(ctx, 3, {mon: k.bits
                                for mon, k in zip(mons, res.kernel[0])})
        spans = _scalar_ratio(kv, m.g) is not None
    checks.append(rp.leaf("cubic.kernel_spans_g", spans,
                          format_poly(m.g, m.names)))
    checks.append(rp.leaf(
        "cubic.vanishes_on_points",
        all(m.g.eval_bits(m.points[i].coords) == 0 for i in range(11)),
        "g(p_0) = ... = g(p_10) = 0"))
    checks.append(rp.leaf("cubic.cusp_location", located == m.cusp,
                          repr(located)))
    grads = [m.g.partial(i).eval_bits(m.cusp.coords) for i in range(3)]
    checks.append(rp.leaf(
        "cubic.cusp_partials",
        m.g.eval_bits(m.cusp.coords) == 0 and not any(grads),
        [_fmt(ctx, v) for v in grads]))
    # tangent cone at the cusp, chart z = 1
    local = _chart(m.g, 2).translate([m.cusp.coords[0], m.cusp.coords[1]])
    init = local.initial_form()
    checks.append(rp.leaf(
        "cubic.cusp_tangent_cone",
        local.multiplicity_at([0, 0]) == 2 and init.is_square(),
        format_poly(init, ["u", "v"])))
    grad0 = [m.g.partial(i).eval_bits(m.points[0].coords) for i in range(3)]
    checks.append(rp.leaf(
        "cubic.smooth_fixed_point",
        m.g.eval_bits(m.points[0].coords) == 0 and any(grad0),
        [_fmt(ctx, v) for v in grad0]))
    return rp.node("cubic", checks)


# ---------------------------------------------------------------------------
# equivariance of the lifted automorphism


def verify_equivariance(m: SurfaceModel) -> rp.Report:
    """Exact identity s(f_x, f_y, f_z) = c^2 s + eta^2, which is the
    statement that w -> c w + eta maps w^2 = s to itself."""
    lhs = m.s.substitute(list(m.f))
    rhs = m.c * m.c * m.s + m.eta * m.eta
    w1 = (1, 1, 1)
    checks = [
        rp.leaf("equivariance.identity", lhs == rhs,
                f"{lhs.num_terms()} terms on each side"),
        rp.leaf("equivariance.degree",
                lhs.is_weighted_homogeneous(w1)
                and lhs.weighted_degree(w1) == 24
                and rhs.is_weighted_homogeneous(w1)
                and rhs.weighted_degree(w1) == 24,
                f"degree {lhs.weighted_degree(w1)}"),
    ]
    return rp.node("equivariance", checks)


# ---------------------------------------------------------------------------
# the inverse automorphism


class SigmaInverse:
    """Derived inverse data: three plane components, the w-component
    scalar k and quartic factor alpha_w (w -> k alpha_w w + eta_prime),
    and the common projective factor of the forward composition."""

    __slots__ = ("components", "w_scalar", "alpha_w", "eta_prime",
                 "lambda_factor")

    def __init__(self, components, w_scalar, alpha_w, eta_prime,
                 lambda_factor):
        self.components = components
        self.w_scalar = w_scalar
        self.alpha_w = alpha_w
        self.eta_prime = eta_prime
        self.lambda_factor = lambda_factor


def derive_sigma_inverse(m: SurfaceModel) -> SigmaInverse:
    """Reconstruct the inverse automorphism from the model.

    The plane components are (x+az)z, (x+az)(y+bz), (y+bz)z where a, b
    are the two off-diagonal constants of f; the w-component tail is
    the unique degree-12 solution of the composition identity, found
    by exact linear solve. NoSolution reports a model inconsistency.
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
    lam = xa * yb * z
    for comp, var in zip(m.f, (x, y, z)):
        if comp.substitute([six, siy, siz]) != lam * var:
            raise NoSolution("forward . inverse is not "
                             "(x+az)(y+bz)z * identity")
    alpha_w = xa * xa * yb * yb * z * z
    alpha_f = alpha_w.substitute(list(m.f))
    if alpha_f != MultiPoly(ctx, 3, {(4, 4, 4): 1}):
        raise NoSolution("alpha_w(f) != (xyz)^4 / unexpected shape")
    k = _scalar_ratio(xyz ** 6, alpha_f * m.c)
    if k is None:
        raise NoSolution("no scalar matches the w-component weight")
    # tail: eta_prime(f) = k alpha_w(f) eta, a linear system in the
    # 91 degree-12 monomial coefficients
    m12 = sorted((i, j, 12 - i - j) for i in range(13) for j in range(13 - i))
    powers = [[MultiPoly.const(ctx, 3, 1)] for _ in m.f]
    for fi, pw in zip(m.f, powers):
        for _ in range(12):
            pw.append(pw[-1] * fi)
    cols = [powers[0][i] * powers[1][j] * powers[2][k] for i, j, k in m12]
    rhs_poly = (alpha_f * m.eta).scale_bits(k)
    support = sorted(set().union(*(set(cp.terms) for cp in cols),
                                 set(rhs_poly.terms)))
    rows = [[cp.terms.get(mon, 0) for cp in cols] for mon in support]
    rhs = [rhs_poly.terms.get(mon, 0) for mon in support]
    res = linear_solve(ctx, rows, rhs)
    if res.status == "inconsistent":
        raise NoSolution("tail system is inconsistent")
    if res.status != "unique":
        raise NoSolution(f"tail kernel has dimension "
                         f"{len(res.kernel)}")
    etap = MultiPoly(ctx, 3, {mon: v.bits
                              for mon, v in zip(m12, res.solution)})
    if etap.substitute(list(m.f)) != rhs_poly:
        raise NoSolution("tail solution fails re-substitution")
    # w-component of (forward . inverse): k c(SI) alpha_w = lam^6 and
    # c(SI) eta_prime = eta(SI)
    c_si = m.c.substitute([six, siy, siz])
    if (c_si * alpha_w).scale_bits(k) != lam ** 6:
        raise NoSolution("w-scalar fails on the reverse composition")
    if c_si * etap != m.eta.substitute([six, siy, siz]):
        raise NoSolution("tail fails on the reverse composition")
    return SigmaInverse((six, siy, siz), k, alpha_w, etap, lam)


# ---------------------------------------------------------------------------
# rational functions on the double cover


def _lift3(p: MultiPoly) -> MultiPoly:
    """x,y,z-polynomial viewed in the 4-variable ring with w last."""
    return MultiPoly(p.ctx, 4, {e + (0,): c for e, c in p.terms.items()})


def _w_reduce(p: MultiPoly, rel: MultiPoly) -> MultiPoly:
    """Rewrite w^2 -> rel until the w-degree is at most 1."""
    while True:
        hi = {e: c for e, c in p.terms.items() if e[3] >= 2}
        if not hi:
            return p
        acc = MultiPoly(p.ctx, 4,
                        {e: c for e, c in p.terms.items() if e[3] < 2})
        for e, c in hi.items():
            mono = MultiPoly(p.ctx, 4, {(e[0], e[1], e[2], e[3] - 2): c})
            acc = acc + mono * rel
        p = acc


def _w_coeff(p: MultiPoly) -> MultiPoly:
    # input must be w-reduced
    return MultiPoly(p.ctx, 4, {e[:3] + (0,): c
                                for e, c in p.terms.items() if e[3] == 1})


class RatFunc:
    """Quotient of 4-variable polynomials modulo w^2 = rel.

    Numerator and denominator are kept w-reduced; equality and the
    quotient rule cross-multiply, which is valid because the relation
    ring is a domain (rel is not a square).
    """

    __slots__ = ("rel", "num", "den")

    def __init__(self, rel, num, den):
        if den.is_zero():
            raise DomainError("rational function with zero denominator")
        self.rel = rel
        self.num = _w_reduce(num, rel)
        self.den = _w_reduce(den, rel)

    def __mul__(self, other):
        return RatFunc(self.rel, self.num * other.num, self.den * other.den)

    def __add__(self, other):
        return RatFunc(self.rel,
                       self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        diff = self.num * other.den + other.num * self.den
        return _w_reduce(diff, self.rel).is_zero()

    def is_zero(self):
        return self.num.is_zero()

    def d_dw(self) -> "RatFunc":
        """Partial derivative in w of the normal form (quotient rule)."""
        du, dv = _w_coeff(self.num), _w_coeff(self.den)
        return RatFunc(self.rel, du * self.den + self.num * dv,
                       self.den * self.den)

    def pullback(self, images) -> "RatFunc":
        """Substitute four images for (x, y, z, w).

        Well defined on the cover because the images are required to
        satisfy image(w)^2 = rel(image(x,y,z)) there; the relation is
        re-applied after substitution.
        """
        return RatFunc(self.rel, self.num.substitute(images),
                       self.den.substitute(images))


def conjugation_scalar(m: SurfaceModel, si: SigmaInverse) -> FieldElement:
    """Scalar K with (forward . D . inverse)(w/z^6) = K g^2 / z^6,
    where D = g^2 d/dw.

    Raises NoSolution when the conjugated derivation is not that
    multiple, which would break the descent argument downstream.
    """
    ctx = m.ctx
    rel = _lift3(m.s)
    w = MultiPoly.var(ctx, 4, 3)
    z4 = MultiPoly.var(ctx, 4, 2)
    g4 = _lift3(m.g)
    h = RatFunc(rel, w, z4 ** 6)
    inv_images = [_lift3(p) for p in si.components]
    inv_images.append(_lift3(si.alpha_w).scale_bits(si.w_scalar) * w
                      + _lift3(si.eta_prime))
    h1 = h.pullback(inv_images)
    one4 = MultiPoly.const(ctx, 4, 1)
    h2 = h1.d_dw() * RatFunc(rel, g4 * g4, one4)
    fwd_images = [_lift3(p) for p in m.f]
    fwd_images.append(_lift3(m.c) * w + _lift3(m.eta))
    h3 = h2.pullback(fwd_images)
    lhs = h3.num * z4 ** 6
    rhs = g4 * g4 * h3.den
    k = _scalar_ratio(lhs, rhs)
    if k is None:
        raise NoSolution("conjugated derivation is not a scalar "
                         "multiple of g^2 d/dw")
    return FieldElement(ctx, k)


def verify_derivation(m: SurfaceModel, si: SigmaInverse,
                      scalar: FieldElement | NoSolution) -> rp.Report:
    """The derivation-conjugation chain in the chart z != 0.

    Checks the forward multiplier of g, the inverse-side multiplier,
    the w-component scalars of both compositions, that D kills the
    w-free subfield, and that conjugating D = g^2 d/dw by the
    automorphism scales it by g^8. scalar is conjugation_scalar(m, si),
    or the NoSolution it raised.
    """
    ctx = m.ctx
    x, y, z = (MultiPoly.var(ctx, 3, i) for i in range(3))
    xyz = x * y * z
    checks = []
    checks.append(rp.leaf("derivation.w_scalar",
                          si.w_scalar == ctx.gen_pow(15).bits,
                          _fmt(ctx, si.w_scalar)))
    checks.append(rp.leaf("derivation.inverse_tail",
                          not si.eta_prime.is_zero(),
                          f"{si.eta_prime.num_terms()} terms"))
    g_f = m.g.substitute(list(m.f))
    kf = _scalar_ratio(g_f, xyz * m.g)
    checks.append(rp.leaf("derivation.cubic_multiplier",
                          kf == ctx.gen_pow(12).bits,
                          None if kf is None else _fmt(ctx, kf)))
    g_si = m.g.substitute(list(si.components))
    km = _scalar_ratio(g_si, si.lambda_factor * m.g)
    checks.append(rp.leaf("derivation.inverse_cubic_multiplier",
                          km == ctx.gen_pow(19).bits,
                          None if km is None else _fmt(ctx, km)))
    rel = _lift3(m.s)
    x4 = MultiPoly.var(ctx, 4, 0)
    z4 = MultiPoly.var(ctx, 4, 2)
    killed = RatFunc(rel, x4, z4).d_dw()
    checks.append(rp.leaf("derivation.kills_base_functions",
                          killed.is_zero(), "d/dw (x/z) = 0"))
    if isinstance(scalar, NoSolution):
        checks.append(rp.error_leaf("derivation.conjugation_scalar", scalar))
    else:
        checks.append(rp.leaf("derivation.conjugation_scalar",
                              scalar == ctx.gen_pow(8), format_elem(scalar)))
    return rp.node("derivation", checks)


# ---------------------------------------------------------------------------
# singular locus


def singular_locus(m: SurfaceModel, ext_bound: int = 10) -> rp.Report:
    """Find the singular points of the cover, each plane point once.

    The cover w^2 = s is singular exactly over the common zeros of s_x,
    s_y and s_z (w is absent from the Jacobian in characteristic 2).
    By Euler's identity x s_x + y s_y + z s_z = 12 s = 0, two partials
    suffice wherever the third coordinate is nonzero, so each of the
    disjoint strata z = 1, (x : 1 : 0) and (1 : 0 : 0) of P^2 solves
    the two partials of its chart (_stratum_points) and every point
    found is re-checked against all three partials in its own field.
    Roots beyond ext_bound and degenerate fibers are failing leaves,
    never dropped; singular.chart_<c> counts the points with c != 0.
    """
    ctx = m.ctx
    grad = [m.s.partial(i) for i in range(3)]
    checks, pts = [], []
    for label in "zyx":
        try:
            leaves, got = _stratum_points(grad, label, ext_bound)
        except Exception as ex:  # noqa: BLE001 - verifier boundary
            checks.append(rp.error_leaf(f"singular.chart_{label}", ex))
            continue
        checks += leaves
        pts += [(label, co, k) for co, k in got]
        # later strata lie on this coordinate's zero line
        n = sum(1 for _, co, _k in pts if co["xyz".index(label)])
        checks.append(rp.leaf(f"singular.chart_{label}", True,
                              f"{n} affine points"))
    found = {ProjPoint(ctx, co) for _, co, k in pts if k is ctx}
    irrational = [f"chart {label}: degree-{k.m} point "
                  + str(_chart_coords(k, co, label))
                  for label, co, k in pts if k is not ctx]
    expected = set(m.points.values())
    checks.append(rp.leaf("singular.count", len(found) == 11,
                          f"{len(found)} points"))
    checks.append(rp.leaf("singular.matches_marked_points",
                          found == expected,
                          sorted(repr(p) for p in found)))
    checks.append(rp.leaf("singular.rational_over_base", not irrational,
                          irrational or "all coordinates in GF(32)"))
    return rp.node("singular", checks)


def _stratum_points(grad, label: str, ext_bound: int):
    """-> (failing leaves, [(coords, field)]) on the stratum where the
    coordinate `label` is the last nonzero one, scaled to 1.

    z = 1: the eliminant in y of the chart partials, its roots within
    the bound, then the common roots of each fiber. (x : 1 : 0): the
    common roots of the chart partials restricted to z = 0, the fiber
    named 0. (1 : 0 : 0): the two partials evaluated there.
    """
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
        uu, vv = (_uni_from(_chart(r, 1).restrict(1, 0), 0) for r in (p, q))
        leaves, roots = _common_roots(uu, vv, ext_bound, prefix, "0")
        cands = [((x0.bits, 1, 0), x0.ctx) for x0 in roots]
    else:
        su, sv = _chart(p, 2), _chart(q, 2)
        r2 = resultant(su, sv, 1)
        if r2.is_zero():
            return [rp.leaf(f"{prefix}.eliminant_nonzero", False,
                            "partials share a one-dimensional component")], []
        ru = _uni_from(r2, 0)
        roots = uni_roots(ru, ext_bound)
        covered = sum(mult for _, mult in roots)
        if covered < ru.degree():
            leaves.append(rp.leaf(
                f"{prefix}.roots_within_bound", False,
                f"eliminant degree {ru.degree()}, only {covered} accounted "
                f"for within extension degree {ext_bound}"))
        for u0, _mult in roots:
            uu, vv = (_uni_from(_over(r, u0.ctx).restrict(0, u0.bits), 1)
                      for r in (su, sv))
            more, vroots = _common_roots(uu, vv, ext_bound, prefix,
                                         _fmt(u0.ctx, u0.bits))
            leaves += more
            for v0 in vroots:
                k = v0.ctx if v0.ctx.m >= u0.ctx.m else u0.ctx
                ub, vb = (e if e.ctx is k else embed(e, e.ctx, k)
                          for e in (u0, v0))
                cands.append(((ub.bits, vb.bits, 1), k))
    pts = []
    for co, k in cands:
        if any(_over(r, k).eval_bits(co) for r in grad):
            leaves.append(rp.leaf(
                f"{prefix}.back_substitution", False,
                f"({', '.join(_chart_coords(k, co, label))}) fails "
                "re-evaluation"))
        else:
            pts.append((co, k))
    return leaves, pts


def _common_roots(uu: UniPoly, vv: UniPoly, ext_bound: int, prefix: str,
                  at: str):
    """-> (failing leaves, roots) of the common roots of uu and vv within
    extension degree ext_bound; `at` names the fiber in the leaf names."""
    if uu.is_zero() and vv.is_zero():
        return [rp.leaf(f"{prefix}.fiber_{at}", False,
                        "both partials vanish identically on the fiber")], []
    w = uu.gcd(vv)
    if w.degree() == 0:
        return [], []  # none; on z = 1 a spurious eliminant root
    roots = uni_roots(w, ext_bound)
    covered = sum(mult for _, mult in roots)
    leaves = []
    if covered < w.degree():
        leaves.append(rp.leaf(
            f"{prefix}.roots_within_bound.{at}", False,
            f"common factor degree {w.degree()}, {covered} roots within "
            f"extension degree {ext_bound}"))
    return leaves, [r for r, _ in roots]


def _over(p: MultiPoly, k: FieldCtx) -> MultiPoly:
    """p with its coefficients embedded in the extension k of its field."""
    if k is p.ctx:
        return p
    return p.change_ctx(k, lambda b: embed(FieldElement(p.ctx, b),
                                           p.ctx, k).bits)


def _chart_coords(k: FieldCtx, co, label: str) -> tuple:
    """The two coordinates of a stratum point other than `label`."""
    return tuple(_fmt(k, v) for v, name in zip(co, "xyz") if name != label)


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
    return None, MultiPoly.zero(local.ctx, local.nvars)


def _local_branch(m: SurfaceModel, pt: ProjPoint) -> MultiPoly:
    coords = pt.coords
    drop = 2 if coords[2] else (0 if coords[0] else 1)
    keep = [i for i in range(3) if i != drop]
    sc = _chart(m.s, drop)
    return sc.translate([coords[keep[0]], coords[keep[1]]])


def verify_multiplicities(m: SurfaceModel) -> rp.Report:
    """Adjusted multiplicity 4 at p_1..p_10; at p_0 the constant term
    is absorbed and the residue is an ordinary double point (quadratic
    initial form that is not a perfect square)."""
    checks = []
    for i in range(1, 11):
        local = _local_branch(m, m.points[i])
        raw = local.multiplicity_at([0, 0])
        mult, _init = absorbed_square_multiplicity(local)
        checks.append(rp.leaf(f"multiplicity.p{i}", mult == 4,
                              f"raw {raw}, adjusted {mult}"))
    local0 = _local_branch(m, m.points[0])
    value = local0.terms.get((0, 0), 0)
    checks.append(rp.leaf("multiplicity.p0_branch_value", value != 0,
                          _fmt(m.ctx, value)))
    mult0, init0 = absorbed_square_multiplicity(local0)
    checks.append(rp.leaf("multiplicity.p0_adjusted", mult0 == 2,
                          f"adjusted {mult0}"))
    checks.append(rp.leaf("multiplicity.p0_nondegenerate",
                          mult0 == 2 and not init0.is_square(),
                          format_poly(init0, ["u", "v"])))
    return rp.node("multiplicities", checks)


# ---------------------------------------------------------------------------
# blow-up chart smoothness at the three base points


_BLOWUPS = ((1, 2), (2, 0), (3, 1))  # (point index, chart to drop)


def verify_chart_smoothness(m: SurfaceModel) -> rp.Report:
    """Blow up each base point and look for singular points over the
    exceptional line.

    Main chart: substitute v = a u, divide by u^4 exactly, and check
    the two partials restricted to u = 0 share no root (constant gcd).
    The one point the main chart misses is the origin of the
    complementary chart, where a nonvanishing partial suffices.
    """
    ctx = m.ctx
    checks = []
    for idx, drop in _BLOWUPS:
        pt = m.points[idx].coords
        if pt[drop] != 1 or sum(map(bool, pt)) != 1:
            checks.append(rp.leaf(f"charts.p{idx}", False,
                                  "marked point is not the chart origin"))
            continue
        try:
            sc = _chart(m.s, drop)
            u, v = MultiPoly.var(ctx, 2, 0), MultiPoly.var(ctx, 2, 1)
            main = sc.substitute([u, u * v]).divide_by_power(0, 4)
            r_u = _uni_from(main.partial(0).restrict(0, 0), 1)
            r_v = _uni_from(main.partial(1).restrict(0, 0), 1)
            gdeg = r_u.gcd(r_v).degree()  # -1 when both vanish
            checks.append(rp.leaf(f"charts.p{idx}_main", gdeg == 0,
                                  f"gcd degree {gdeg}"))
            comp = sc.substitute([u * v, v]).divide_by_power(1, 4)
            w1 = comp.partial(0).eval_bits([0, 0])
            w2 = comp.partial(1).eval_bits([0, 0])
            checks.append(rp.leaf(
                f"charts.p{idx}_complementary", (w1, w2) != (0, 0),
                f"({_fmt(ctx, w1)}, {_fmt(ctx, w2)})"))
        except Exception as ex:  # noqa: BLE001 - verifier boundary
            checks.append(rp.error_leaf(f"charts.p{idx}", ex))
    return rp.node("charts", checks)


# ---------------------------------------------------------------------------
# the distinguished scalar


def verify_alpha_consistency(m: SurfaceModel, lambda1: FieldElement,
                             alpha: FieldElement) -> rp.Report:
    """Cross-checks between the derivation scalar and the parameter
    action: lambda1 = g^8, alpha is a root of the degree-10 integer
    polynomial reduced mod 2, alpha != lambda1^2 (so the two quadric
    eigenvalues stay distinct), and g^16 itself is not such a root."""
    ctx = m.ctx
    gf2 = field_make(1, 0b11)
    p10 = UniPoly(gf2, [c % 2 for c in lehmer_polynomial()])
    roots = uni_roots(p10, 10)
    root_bits = {r.bits for r, _ in roots}
    same_field = all(r.ctx is ctx for r, _ in roots)
    checks = [
        rp.leaf("alpha.lambda1_value", lambda1 == ctx.gen_pow(8),
                format_elem(lambda1)),
        rp.leaf("alpha.root_count", same_field and len(root_bits) == 10,
                f"{len(root_bits)} roots"),
        rp.leaf("alpha.is_root", alpha.bits in root_bits,
                format_elem(alpha)),
        rp.leaf("alpha.forbidden_value_not_root",
                ctx.gen_pow(16).bits not in root_bits,
                format_elem(ctx.gen_pow(16))),
    ]
    lam2 = alpha / lambda1
    checks.append(rp.leaf("alpha.eigenvalues_distinct", lam2 != lambda1,
                          format_elem(lam2)))
    return rp.node("alpha", checks)
