"""Group law on the smooth locus of a cuspidal plane cubic, the scalar
-> translation solver, orbit regeneration, and extraction of the affine
parameter action induced by a quadratic Cremona map: the cubic code the
surface suite runs. The cubic suite's own checks live in cubic_checks.

Every cuspidal cubic is read through one chart (`CuspChart`):
projection from the cusp, the ratio of two fixed linear forms. The
cusp is found among the curve's points as `multipoly.plane_zeros`
lists them (`find_cusp`), and the chart keeps the smooth ones, so a
parameter's point is looked up among them rather than computed.

Parameters, multipliers and translation parts are raw bits of the
curve's field, passed beside its FieldCtx (see gf2m). On the standard
cubic y^2 z + x^3 = 0 (characteristic 2, cusp [0:0:1]) the chart
parameter is x / y, the additive group parameter: three smooth points
are collinear iff their parameters sum to zero, that is xor to 0, so
the chord through two points meets the cubic again at the xor of their
parameters (`chord_third`). On any other cuspidal cubic the chart
parameter is affine-equivalent to the group parameter, which is all
the linear-coefficient extraction needs (conjugating an affine map by
an affine map keeps the linear coefficient).
"""

from __future__ import annotations

from . import LEHMER
from .errors import DomainError, InvariantViolation
from .gf2m import FieldCtx, format_elem
from .multipoly import MultiPoly, local_expansion
from .unipoly import UniPoly


# ---------------------------------------------------------------------------
# scalar -> translation solver and the ten-point orbit


def chord_third(t1: int, t2: int) -> int:
    """Group parameter of the third intersection of the cubic with the
    chord through the points of parameters t1 and t2."""
    return t1 ^ t2


class AffineAction:
    """t -> alpha t + beta on the parameter line of ctx; alpha nonzero."""

    __slots__ = ("ctx", "alpha", "beta")

    def __init__(self, ctx: FieldCtx, alpha: int, beta: int):
        if not alpha:
            raise InvariantViolation("affine action needs alpha != 0")
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta

    def __call__(self, t: int) -> int:
        return self.ctx.mul_bits(self.alpha, t) ^ self.beta

    def compose(self, other: "AffineAction") -> "AffineAction":
        # self after other
        alpha = self.ctx.mul_bits(self.alpha, other.alpha)
        return AffineAction(self.ctx, alpha, self(other.beta))

    def fixed_point(self) -> int:
        if self.alpha == 1:
            raise InvariantViolation("translation has no fixed point")
        return self.ctx.mul_bits(self.beta, self.ctx.inv_bits(self.alpha ^ 1))

    def __eq__(self, other):
        return (isinstance(other, AffineAction) and other.ctx is self.ctx
                and other.alpha == self.alpha and other.beta == self.beta)

    def __repr__(self):
        return (f"t -> {format_elem(self.ctx, self.alpha)}*t"
                f" + {format_elem(self.ctx, self.beta)}")


def lehmer_mod2_roots(ctx: FieldCtx) -> list[int]:
    """Roots in ctx of the fixed degree-10 polynomial reduced mod 2,
    in increasing order of their exponent of g."""
    powers = (ctx.gen_pow(k) for k in range(ctx.order))
    return [a for a in powers if _is_lehmer_root(ctx, a)]


def _is_lehmer_root(ctx: FieldCtx, alpha: int) -> bool:
    return UniPoly(ctx, [c % 2 for c in LEHMER]).eval_bits(alpha) == 0


def power_sum(ctx: FieldCtx, a: int, *exponents: int) -> int:
    """The sum of a^k over the exponents k (any integers, a nonzero)."""
    acc = 0
    for k in exponents:
        acc ^= ctx.pow_bits(a, k)
    return acc


def beta_from_alpha(ctx: FieldCtx, alpha: int) -> int:
    """The unique translation part compatible with scalar alpha.

    The two expressions for the second orbit parameter agree for exactly
    one beta; the linear coefficient is
    c(a) = a^-5 + a^-4 + a^-3 + a^-2 + a^-1 + a^2 and the solution is
    beta = (a + a^3 + a^-5) / c(a).
    """
    if not alpha or not _is_lehmer_root(ctx, alpha):
        raise InvariantViolation(f"{format_elem(ctx, alpha)} is not a mod-2 "
                                 "root of the degree-10 polynomial")
    c = power_sum(ctx, alpha, -5, -4, -3, -2, -1, 2)
    if not c:
        raise InvariantViolation("beta coefficient c(alpha) = 0")
    return ctx.mul_bits(power_sum(ctx, alpha, 1, 3, -5), ctx.inv_bits(c))


def orbit_points(ctx: FieldCtx, alpha: int, beta: int) -> list[int]:
    """Parameters [t_1, ..., t_10] of the ten-point orbit.

    t_1 = 1; t_n = alpha^(n-11) (1 + sum_{i=0}^{10-n} alpha^i beta) for
    n = 4..10; t_3 closes the chord through tau(t_1) and t_4; t_2 the
    chord through tau(t_3) and t_3. InvariantViolation when any two of
    the ten coincide.
    """
    tau = AffineAction(ctx, alpha, beta)
    t = {1: 1}
    for n in range(4, 11):
        acc = 1 ^ ctx.mul_bits(power_sum(ctx, alpha, *range(11 - n)), beta)
        t[n] = ctx.mul_bits(ctx.pow_bits(alpha, n - 11), acc)
    t[3] = chord_third(tau(t[1]), t[4])
    t[2] = chord_third(tau(t[3]), t[3])
    params = [t[n] for n in range(1, 11)]
    if len(set(params)) != 10:
        raise InvariantViolation("orbit parameters are not pairwise distinct")
    return params


# ---------------------------------------------------------------------------
# induced affine action of a Cremona map on a cuspidal cubic


def find_cusp(partials, points) -> tuple:
    """The unique singular point of an irreducible cuspidal cubic among
    its points, as multipoly.plane_zeros([curve]) lists them, given the
    curve's three partials."""
    found = [pt for pt in points
             if all(p.eval_bits(pt) == 0 for p in partials)]
    if len(found) != 1:
        raise InvariantViolation(f"{len(found)} singular points, expected 1")
    return found[0]


def _lin(ctx: FieldCtx, l, coords) -> int:
    """The linear form with coefficients l at coords (raw bits)."""
    acc = 0
    for a, b in zip(l, coords):
        acc ^= ctx.mul_bits(a, b)
    return acc


class CuspChart:
    """Projection-from-the-cusp parameter for a cuspidal cubic.

    l1 vanishes on the tangent cone line at the cusp (the parameter's
    infinity) and l2 on another line through the cusp; the parameter of
    a smooth point p is t(p) = l2(p) / l1(p). Projection from the cusp
    fixes t only up to t -> a t + b, and nothing here normalizes a or b;
    on the standard cubic l1 = y, l2 = x and t = x / y. points are the
    curve's smooth points, as the canonical coordinate tuples that
    `plane_zeros` lists.
    """

    __slots__ = ("curve", "cusp", "l1", "l2", "points")

    def __init__(self, curve, cusp, l1, l2, points):
        self.curve = curve
        self.cusp = cusp
        self.l1 = l1
        self.l2 = l2
        self.points = points

    def param_of(self, coords) -> int:
        """The parameter of the point with these coordinates (raw bits,
        any representative)."""
        ctx = self.curve.ctx
        denom = _lin(ctx, self.l1, coords)
        if denom == 0:
            raise InvariantViolation("point lies on the tangent cone line")
        return ctx.mul_bits(_lin(ctx, self.l2, coords), ctx.inv_bits(denom))


def cusp_parametrization(curve: MultiPoly, cusp: tuple,
                         points) -> CuspChart:
    """Build the cusp-projection chart of an irreducible cuspidal cubic.

    Every line through the cusp but the tangent cone line l1 = 0
    meets the curve in one further point, so t = l2 / l1 maps the
    smooth points one to one onto the field. l2 is a coordinate line
    through the cusp independent of l1, not rescaled: the chart is the
    projection from the cusp, fixed only up to t -> a t + b, and x / y
    on the standard cubic. cusp is find_cusp(partials,
    points) and points is multipoly.plane_zeros([curve]), as the caller
    found them; the chart keeps the smooth ones, which must number q.
    """
    ctx = curve.ctx
    if curve.total_degree() != 3:
        raise InvariantViolation("parametrization needs a cubic")
    j = max(i for i in range(3) if cusp[i])
    keep = [i for i in range(3) if i != j]
    local = local_expansion(curve, cusp)
    if local.order() != 2:
        raise InvariantViolation("singular point is not a double point")
    init = local.initial_form()
    if not init.is_square():
        raise InvariantViolation("tangent cone is not a double line (node)")
    sa = ctx.sqrt_bits(init.terms.get((2, 0), 0))
    sc = ctx.sqrt_bits(init.terms.get((0, 2), 0))
    l1 = [0, 0, 0]
    l1[keep[0]] = sa
    l1[keep[1]] = sc
    l1[j] = ctx.mul_bits(sa, cusp[keep[0]]) ^ ctx.mul_bits(sc, cusp[keep[1]])
    l2 = [0, 0, 0]
    if sc != 0:
        l2[keep[0]] = 1
        l2[j] = cusp[keep[0]]
    else:
        l2[keep[1]] = 1
        l2[j] = cusp[keep[1]]
    smooth = [pt for pt in points if pt != cusp]
    if len(smooth) != 1 << ctx.m:
        raise InvariantViolation(f"{len(smooth)} smooth points, expected "
                                 f"{1 << ctx.m}")
    return CuspChart(curve, cusp, l1, l2, smooth)


def induced_affine_map(chart: CuspChart, components: list[MultiPoly],
                       pulled: MultiPoly) -> AffineAction:
    """The affine parameter action a Cremona map induces on the cubic of
    a cusp chart.

    The map must send the curve into itself up to a polynomial factor,
    checked by exact division of pulled, the caller's substitution of
    the components into the curve; base points (all three components
    vanish) and points mapping onto the tangent cone line are skipped
    when sampling the chart's smooth points. The affine fit uses the
    first two usable samples, in the order of chart.points, and must
    validate on every other sample.
    """
    curve = chart.curve
    ctx = curve.ctx
    if not pulled.is_zero():
        try:
            pulled.divide_exact(curve)
        except DomainError as ex:
            raise InvariantViolation("map does not preserve the curve") from ex
    pairs = []
    for pt in chart.points:
        img = tuple(comp.eval_bits(pt) for comp in components)
        if not any(img):
            continue  # base point of the map
        if _lin(ctx, chart.l1, img) == 0:
            continue  # image is the cusp direction
        pairs.append((chart.param_of(pt), chart.param_of(img)))
    if len(pairs) < 4:
        raise InvariantViolation(f"only {len(pairs)} usable samples")
    action = _through(ctx, *pairs[0], *pairs[1])
    for t, u in pairs[2:]:
        if action(t) != u:
            raise InvariantViolation("induced parameter map failed validation")
    return action


# ---------------------------------------------------------------------------
# unordered point-set matching


def _through(ctx: FieldCtx, x1: int, y1: int, x2: int,
             y2: int) -> AffineAction:
    """The affine map sending x1 to y1 and x2 to y2, for x1 != x2;
    InvariantViolation when y1 = y2, which would make it constant."""
    a = ctx.mul_bits(y1 ^ y2, ctx.inv_bits(x1 ^ x2))
    return AffineAction(ctx, a, y1 ^ ctx.mul_bits(a, x1))


def all_point_set_matches(ctx: FieldCtx, params_a,
                          params_b) -> list[AffineAction]:
    """Every affine map t -> a t + b with {a t + b : t in A} = B.

    A match sends the two smallest elements x1, x2 of A to an ordered
    pair of distinct elements of B, and that pair fixes (a, b); so the
    scan over the n(n-1) target pairs is complete and meets each match
    once. Empty for fewer than two points, unequal sizes or repeated
    elements of A; sorted by (a, b) as raw bits.
    """
    aa, bb = sorted(params_a), sorted(params_b)
    if len(aa) < 2 or len(aa) != len(bb) or len(set(aa)) != len(aa):
        return []
    x1, x2 = aa[0], aa[1]
    bset = set(bb)
    out = []
    for y1 in bb:
        for y2 in bb:
            if y1 == y2:
                continue
            phi = _through(ctx, x1, y1, x2, y2)
            if set(map(phi, aa)) == bset:
                out.append(phi)
    out.sort(key=lambda m: (m.alpha, m.beta))
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
