"""Group law on the smooth locus of a cuspidal plane cubic, the scalar
-> translation solver, orbit regeneration, and extraction of the affine
parameter action induced by a quadratic Cremona map.

The standard cubic is y^2 z + x^3 = 0 (characteristic 2) with cusp
[0:0:1]; its smooth locus is parametrized additively by psi(t) =
[t : 1 : t^3], the cusp sitting at parameter infinity. Three smooth
points are collinear iff their parameters sum to zero.

For an arbitrary cuspidal cubic the parameter used is projection from
the cusp, the ratio of two fixed linear forms; this is affine-
equivalent to the group parameter, which is all the linear-coefficient
extraction needs (conjugating an affine map by an affine map keeps the
linear coefficient).
"""

from __future__ import annotations

from .errors import DomainError, InvariantViolation
from .gf2m import FieldCtx, FieldElement, format_elem
from .lattice import lehmer_polynomial
from .multipoly import MultiPoly, ProjPoint, plane_points
from .unipoly import UniPoly
from . import report as rp


# ---------------------------------------------------------------------------
# the standard cubic and its group law


def standard_cubic(ctx: FieldCtx) -> MultiPoly:
    """y^2 z + x^3 in variables (x, y, z)."""
    return MultiPoly(ctx, 3, {(3, 0, 0): 1, (0, 2, 1): 1})


def psi(t: FieldElement) -> ProjPoint:
    """[t : 1 : t^3]; psi(0) is the flex [0:1:0]."""
    ctx = t.ctx
    return ProjPoint(ctx, [t.bits, 1, ctx.pow_bits(t.bits, 3)])


def psi_inv(p: ProjPoint) -> FieldElement:
    """Parameter of a smooth point of the standard cubic."""
    ctx = p.ctx
    x, y, z = p.coords
    curve = ctx.mul_bits(ctx.mul_bits(y, y), z) ^ ctx.pow_bits(x, 3)
    if curve != 0:
        raise InvariantViolation("point does not satisfy y^2 z = x^3")
    if y == 0:
        raise InvariantViolation("the cusp [0:0:1] has no finite parameter")
    return FieldElement(ctx, ctx.mul_bits(x, ctx.inv_bits(y)))


def collinear(t1: FieldElement, t2: FieldElement, t3: FieldElement) -> bool:
    return (t1 + t2 + t3).bits == 0


def chord_third(t1: FieldElement, t2: FieldElement) -> FieldElement:
    """Parameter of the third intersection of the chord through
    psi(t1), psi(t2) with the cubic."""
    return t1 + t2


def collinear_det(t1: FieldElement, t2: FieldElement,
                  t3: FieldElement) -> FieldElement:
    """3x3 determinant of the coordinate matrix of the three points;
    the independent route for the collinearity test."""
    ctx = t1.ctx
    rows = [(t.bits, 1, ctx.pow_bits(t.bits, 3)) for t in (t1, t2, t3)]
    (a, b, c), (d, e, f), (g, h, i) = rows
    m = ctx.mul_bits
    det = (m(a, m(e, i)) ^ m(a, m(f, h)) ^ m(b, m(d, i))
           ^ m(b, m(f, g)) ^ m(c, m(d, h)) ^ m(c, m(e, g)))
    return FieldElement(ctx, det)


# ---------------------------------------------------------------------------
# scalar -> translation solver and the ten-point orbit


class AffineAction:
    """t -> alpha t + beta on the parameter line; alpha nonzero."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: FieldElement, beta: FieldElement):
        if not alpha:
            raise InvariantViolation("affine action needs alpha != 0")
        self.alpha = alpha
        self.beta = beta

    def __call__(self, t: FieldElement) -> FieldElement:
        return self.alpha * t + self.beta

    def compose(self, other: "AffineAction") -> "AffineAction":
        # self after other
        return AffineAction(self.alpha * other.alpha,
                            self.alpha * other.beta + self.beta)

    def fixed_point(self) -> FieldElement:
        one = self.alpha.ctx.one()
        if self.alpha == one:
            raise InvariantViolation("translation has no fixed point")
        return self.beta / (self.alpha + one)

    def __eq__(self, other):
        return (isinstance(other, AffineAction) and other.alpha == self.alpha
                and other.beta == self.beta)

    def __repr__(self):
        return (f"t -> {format_elem(self.alpha)}*t"
                f" + {format_elem(self.beta)}")


def lehmer_mod2_roots(ctx: FieldCtx) -> list[FieldElement]:
    """Roots in ctx of the fixed degree-10 polynomial reduced mod 2."""
    p = UniPoly(ctx, [c % 2 for c in lehmer_polynomial()])
    out = [FieldElement(ctx, bits) for bits in range(1, 1 << ctx.m)
           if p.eval_bits(bits) == 0]
    out.sort(key=lambda e: ctx.dlog_bits(e.bits))
    return out


def _is_lehmer_root(alpha: FieldElement) -> bool:
    p = UniPoly(alpha.ctx, [c % 2 for c in lehmer_polynomial()])
    return p.eval_bits(alpha.bits) == 0


def beta_from_alpha(alpha: FieldElement) -> FieldElement:
    """The unique translation part compatible with scalar alpha.

    The two expressions for the second orbit parameter agree for exactly
    one beta; the linear coefficient is
    c(a) = a^-5 + a^-4 + a^-3 + a^-2 + a^-1 + a^2 and the solution is
    beta = (a + a^3 + a^-5) / c(a).
    """
    if not alpha or not _is_lehmer_root(alpha):
        raise InvariantViolation(f"{alpha!r} is not a mod-2 root of the "
                                 "degree-10 polynomial")
    a = alpha
    ai = alpha.inverse()
    c = ai ** 5 + ai ** 4 + ai ** 3 + ai ** 2 + ai + a ** 2
    if not c:
        raise InvariantViolation("beta coefficient c(alpha) = 0")
    num = a + a ** 3 + ai ** 5
    return num / c


def second_param_expr1(a: FieldElement, b: FieldElement) -> FieldElement:
    """First route to the second orbit parameter:
    a + a^2 + a^-6 + a^-7 + (a + 1 + a^-7) b."""
    ai = a.inverse()
    one = a.ctx.one()
    return a + a ** 2 + ai ** 6 + ai ** 7 + (a + one + ai ** 7) * b


def second_param_expr2(a: FieldElement, b: FieldElement) -> FieldElement:
    """Second route: a^2 + a^3 + a^-5 + a^-6 + a^-7
    + (a^-7 + sum_{i=-5}^{2} a^i) b."""
    ai = a.inverse()
    coeff = ai ** 7
    for i in range(-5, 3):
        coeff = coeff + (a ** i if i >= 0 else ai ** (-i))
    const = a ** 2 + a ** 3 + ai ** 5 + ai ** 6 + ai ** 7
    return const + coeff * b


def orbit_points(alpha: FieldElement, beta: FieldElement) -> list[FieldElement]:
    """Parameters [t_1, ..., t_10] of the ten-point orbit.

    t_1 = 1; t_n = alpha^(n-11) (1 + sum_{i=0}^{10-n} alpha^i beta) for
    n = 4..10; t_3 closes the chord through tau(t_1) and t_4; t_2 the
    chord through tau(t_3) and t_3. InvariantViolation when any two of
    the ten coincide.
    """
    ctx = alpha.ctx
    one = ctx.one()
    ai = alpha.inverse()
    t = {1: one}
    for n in range(4, 11):
        acc = one
        for i in range(0, 10 - n + 1):
            acc = acc + (alpha ** i) * beta
        t[n] = (ai ** (11 - n)) * acc
    tau = AffineAction(alpha, beta)
    t[3] = chord_third(tau(t[1]), t[4])
    t[2] = chord_third(tau(t[3]), t[3])
    params = [t[n] for n in range(1, 11)]
    if len({p.bits for p in params}) != 10:
        raise InvariantViolation("orbit parameters are not pairwise distinct")
    return params


def verify_coxeter_constraints(params: list[FieldElement],
                               action: AffineAction) -> rp.Report:
    """Check the collinearity and orbit constraints of the marking.

    {tau(t1), t3, t4}, {tau(t2), t2, t4}, {tau(t3), t2, t3} collinear;
    tau(t_n) = t_{n+1} for 4 <= n <= 9 and tau(t_10) = t_1.
    """
    t = {n: params[n - 1] for n in range(1, 11)}
    tau = action
    checks = []
    for label, trip in (("chord.t1_t3_t4", (tau(t[1]), t[3], t[4])),
                        ("chord.t2_t2_t4", (tau(t[2]), t[2], t[4])),
                        ("chord.t3_t2_t3", (tau(t[3]), t[2], t[3]))):
        ok = collinear(*trip) and not collinear_det(*trip)
        checks.append(rp.leaf(label, ok,
                              [format_elem(v) for v in trip]))
    for n in range(4, 10):
        checks.append(rp.leaf(f"orbit.t{n}_to_t{n + 1}",
                              tau(t[n]) == t[n + 1],
                              format_elem(tau(t[n]))))
    checks.append(rp.leaf("orbit.t10_to_t1", tau(t[10]) == t[1],
                          format_elem(tau(t[10]))))
    return rp.node("coxeter_constraints", checks)


# ---------------------------------------------------------------------------
# induced affine action of a Cremona map on a cuspidal cubic


def find_cusp(curve: MultiPoly) -> ProjPoint:
    """The unique singular point of an irreducible cuspidal cubic,
    located by scanning every point of the plane once."""
    ctx = curve.ctx
    parts = [curve.partial(i) for i in range(3)]
    found = [pt for pt in plane_points(ctx)
             if curve.eval_bits(pt) == 0
             and all(p.eval_bits(pt) == 0 for p in parts)]
    if len(found) != 1:
        raise InvariantViolation(f"{len(found)} singular points, expected 1")
    return ProjPoint(ctx, found[0])


def _lin(ctx: FieldCtx, l, coords) -> int:
    """The linear form with coefficients l at coords (raw bits)."""
    acc = 0
    for a, b in zip(l, coords):
        acc ^= ctx.mul_bits(a, b)
    return acc


class CuspChart:
    """Projection-from-the-cusp parameter for a cuspidal cubic.

    l1 vanishes on the tangent cone line at the cusp (the parameter's
    infinity); l2 is an independent line through the cusp, scaled so
    that the parameter of a smooth point p is t(p) = l2(p) / l1(p).
    param_curve(t) evaluates the inverse parametrization.
    """

    __slots__ = ("curve", "cusp", "l1", "l2", "coeff_lists")

    def __init__(self, curve, cusp, l1, l2, coeff_lists):
        self.curve = curve
        self.cusp = cusp
        self.l1 = l1
        self.l2 = l2
        self.coeff_lists = coeff_lists

    def param_of(self, p: ProjPoint) -> FieldElement:
        ctx = self.curve.ctx
        denom = _lin(ctx, self.l1, p.coords)
        if denom == 0:
            raise InvariantViolation("point lies on the tangent cone line")
        return FieldElement(
            ctx, ctx.mul_bits(_lin(ctx, self.l2, p.coords),
                              ctx.inv_bits(denom)))

    def point_at(self, t: FieldElement) -> ProjPoint:
        ctx = self.curve.ctx
        return ProjPoint(ctx, [UniPoly(ctx, coeffs).eval_bits(t.bits)
                               for coeffs in self.coeff_lists])


def cusp_parametrization(curve: MultiPoly, cusp: ProjPoint) -> CuspChart:
    """Build the cusp-projection chart of an irreducible cuspidal cubic.

    Lines through the cusp q0 hit the curve in one further point; the
    pencil is coordinatized by two linear forms l1 (the tangent cone
    line) and l2, and expanding curve(lambda q0 + mu (r1 + t r2)) in
    (lambda, mu) gives the residual intersection P(t) in closed form.
    cusp is find_cusp(curve), as located by the caller.
    """
    ctx = curve.ctx
    if curve.total_degree() != 3:
        raise InvariantViolation("parametrization needs a cubic")
    q0 = cusp.coords
    j = max(i for i in range(3) if q0[i])
    keep = [i for i in range(3) if i != j]
    # dehomogenize to the chart x_j = 1 and translate the cusp to 0
    local = curve.restrict(j, 1).drop_var(j).translate(
        [q0[keep[0]], q0[keep[1]]])
    if local.multiplicity_at([0, 0]) != 2:
        raise InvariantViolation("singular point is not a double point")
    init = local.initial_form()
    if init.terms.get((1, 1), 0) != 0:
        raise InvariantViolation("tangent cone is not a double line (node)")
    sa = ctx.sqrt_bits(init.terms.get((2, 0), 0))
    sc = ctx.sqrt_bits(init.terms.get((0, 2), 0))
    l1 = [0, 0, 0]
    l1[keep[0]] = sa
    l1[keep[1]] = sc
    l1[j] = ctx.mul_bits(sa, q0[keep[0]]) ^ ctx.mul_bits(sc, q0[keep[1]])
    l2 = [0, 0, 0]
    if sc != 0:
        l2[keep[0]] = 1
        l2[j] = q0[keep[0]]
    else:
        l2[keep[1]] = 1
        l2[j] = q0[keep[1]]

    def line_points(l):
        piv = max(i for i in range(3) if l[i])
        pts = []
        for free in range(3):
            if free == piv:
                continue
            p = [0, 0, 0]
            p[free] = 1
            p[piv] = ctx.mul_bits(l[free], ctx.inv_bits(l[piv]))
            pts.append(tuple(p))
        return pts + [tuple(a ^ b for a, b in zip(pts[0], pts[1]))]

    def proportional(p, q):
        for i in range(3):
            if p[i] and q[i]:
                r = ctx.mul_bits(p[i], ctx.inv_bits(q[i]))
                return all(p[k] == ctx.mul_bits(r, q[k]) for k in range(3))
            if bool(p[i]) != bool(q[i]):
                return False
        return True

    r2 = next(p for p in line_points(l1) if not proportional(p, q0))
    r1 = next(p for p in line_points(l2) if _lin(ctx, l1, p) != 0)
    scale = ctx.mul_bits(_lin(ctx, l1, r1), ctx.inv_bits(_lin(ctx, l2, r2)))
    l2 = [ctx.mul_bits(scale, c) for c in l2]
    # expand curve(lambda q0 + mu (r1 + t r2)) in variables (lam, mu, t)
    lam = MultiPoly.var(ctx, 3, 0)
    mu = MultiPoly.var(ctx, 3, 1)
    tt = MultiPoly.var(ctx, 3, 2)
    images = []
    for i in range(3):
        images.append(lam.scale_bits(q0[i]) + mu.scale_bits(r1[i])
                      + (mu * tt).scale_bits(r2[i]))
    expd = curve.substitute(images)
    cs: dict[int, dict[int, int]] = {0: {}, 1: {}, 2: {}, 3: {}}
    for (el, em, et), c in expd.terms.items():
        if el + em != 3:
            raise InvariantViolation(
                "expansion is not homogeneous of degree 3")
        cs[em][et] = cs[em].get(et, 0) ^ c
    c2 = {k: v for k, v in cs[2].items() if v}
    c3 = {k: v for k, v in cs[3].items() if v}
    if any(cs[0].values()) or any(cs[1].values()):
        raise InvariantViolation("pencil expansion has low-order terms")
    if list(c2) != [0]:
        raise InvariantViolation("residual coefficient c2 is not constant")
    if not c3 or max(c3) != 3:
        raise InvariantViolation("residual coefficient c3 is not cubic")
    c2const = c2[0]
    coeff_lists = []
    for i in range(3):
        coeffs = [0, 0, 0, 0]
        for k, v in c3.items():
            coeffs[k] ^= ctx.mul_bits(v, q0[i])
        coeffs[0] ^= ctx.mul_bits(c2const, r1[i])
        coeffs[1] ^= ctx.mul_bits(c2const, r2[i])
        coeff_lists.append(coeffs)
    return CuspChart(curve, ProjPoint(ctx, q0), l1, l2, coeff_lists)


def induced_affine_map(chart: CuspChart,
                       components: list[MultiPoly]) -> AffineAction:
    """The affine parameter action a Cremona map induces on the cubic of
    a cusp chart.

    The map must send the curve into itself up to a polynomial factor
    (checked by exact division of the pullback); base points (all three
    components vanish) and points mapping onto the tangent cone line
    are skipped when sampling. The affine fit uses the first two usable
    parameter pairs and must validate on every other sample.
    """
    curve = chart.curve
    ctx = curve.ctx
    pulled = curve.substitute(list(components))
    if not pulled.is_zero():
        try:
            pulled.divide_exact(curve)
        except DomainError as ex:
            raise InvariantViolation("map does not preserve the curve") from ex
    pairs = []
    for bits in range(1 << ctx.m):
        t = FieldElement(ctx, bits)
        pt = chart.point_at(t)
        img = tuple(comp.eval_bits(pt.coords) for comp in components)
        if not any(img):
            continue  # base point of the map
        denom = _lin(ctx, chart.l1, img)
        if denom == 0:
            continue  # image is the cusp direction
        tp = ctx.mul_bits(_lin(ctx, chart.l2, img), ctx.inv_bits(denom))
        pairs.append((t, FieldElement(ctx, tp)))
    if len(pairs) < 4:
        raise InvariantViolation(f"only {len(pairs)} usable samples")
    (t1, u1), (t2, u2) = pairs[0], pairs[1]
    alpha = (u1 + u2) / (t1 + t2)
    beta = u1 + alpha * t1
    action = AffineAction(alpha, beta)
    for t, u in pairs[2:]:
        if action(t) != u:
            raise InvariantViolation("induced parameter map failed validation")
    return action


# ---------------------------------------------------------------------------
# unordered point-set matching


def all_point_set_matches(params_a, params_b) -> list[AffineAction]:
    """Every affine map t -> a t + b with {a t + b : t in A} = B.

    A match sends the two smallest elements x1, x2 of A to an ordered
    pair of distinct elements of B, and that pair fixes (a, b); so the
    scan over the n(n-1) target pairs is complete and meets each match
    once. Empty for fewer than two points, unequal sizes or repeated
    elements of A; sorted by (a, b) as raw bits.
    """
    aa = sorted(params_a, key=lambda e: e.bits)
    bb = sorted(params_b, key=lambda e: e.bits)
    if (len(aa) < 2 or len(aa) != len(bb)
            or len({e.bits for e in aa}) != len(aa)):
        return []
    x1, x2 = aa[0], aa[1]
    bset = {e.bits for e in bb}
    out = []
    for y1 in bb:
        for y2 in bb:
            if y1 == y2:
                continue
            a = (y1 + y2) / (x1 + x2)
            b = y1 + a * x1
            if {(a * x + b).bits for x in aa} == bset:
                out.append(AffineAction(a, b))
    out.sort(key=lambda m: (m.alpha.bits, m.beta.bits))
    return out


def equivariant_matches(matches, action_a: AffineAction,
                        action_b: AffineAction) -> list[AffineAction]:
    """The matches phi, as all_point_set_matches returns them, with
    phi(action_a(t)) = action_b(phi(t)) for all t.

    For affine maps this is one coefficient identity:
    alpha_a = alpha_b and beta_b = a * beta_a + (alpha_a + 1) b.
    """
    out = []
    for phi in matches:
        if phi.compose(action_a) == action_b.compose(phi):
            out.append(phi)
    return out


def alpha_table_text(ctx: FieldCtx) -> str:
    """Deterministic table of all valid scalars with their data.

    One line per root: alpha, beta, the ten orbit parameters. The test
    suite regenerates this text and diffs it against the bundled file.
    """
    lines = ["# alpha | beta | t1..t10 (all as generator powers)"]
    for alpha in lehmer_mod2_roots(ctx):
        beta = beta_from_alpha(alpha)
        params = orbit_points(alpha, beta)
        lines.append(
            f"alpha = {format_elem(alpha)}; beta = {format_elem(beta)}; "
            "params = " + " ".join(format_elem(t) for t in params))
    return "\n".join(lines) + "\n"
