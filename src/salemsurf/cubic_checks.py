"""The checks of the cubic suite: the group law of the cuspidal cubic,
read through its cusp chart over GF(32) and GF(8), the parameter
solver at Lehmer's mod-2 roots and the orbit of each root.

The suite builds the cusp chart of the standard cubic y^2 z + x^3
over GF(32) and GF(8) and tests the sum rule, `cubic.chord_third`,
against the determinant of the points. The determinant, the two
routes to the second orbit parameter, the orbit constraints and the
alpha table are here, not in `cubic`, so a `verify surface` run
compiles none of them.

Imported by `suites` only when the cubic suite runs; `suites` says
when the field and cubic modules execute.
"""

from __future__ import annotations

from itertools import permutations

from . import _read_data, cubic as cu, gf2m as gf, report as rp
from .multipoly import MultiPoly, format_point, plane_zeros
from .suites import _run_objects


def standard_cubic(ctx) -> MultiPoly:
    """y^2 z + x^3 in variables (x, y, z)."""
    return MultiPoly(ctx, 3, {(3, 0, 0): 1, (0, 2, 1): 1})


def collinear_det(ctx, p1, p2, p3) -> int:
    """Determinant (raw bits) of the coordinate matrix of three plane
    points, zero exactly when they are collinear; the independent route
    for the collinearity test."""
    (a, b, c), (d, e, f), (g, h, i) = p1, p2, p3
    m = ctx.mul_bits
    return (m(a, m(e, i)) ^ m(a, m(f, h)) ^ m(b, m(d, i))
            ^ m(b, m(f, g)) ^ m(c, m(d, h)) ^ m(c, m(e, g)))


def second_param_expr1(ctx, a: int, b: int) -> int:
    """First route to the second orbit parameter:
    a + a^2 + a^-6 + a^-7 + (a + 1 + a^-7) b."""
    return (cu.power_sum(ctx, a, 1, 2, -6, -7)
            ^ ctx.mul_bits(cu.power_sum(ctx, a, 1, 0, -7), b))


def second_param_expr2(ctx, a: int, b: int) -> int:
    """Second route: a^2 + a^3 + a^-5 + a^-6 + a^-7
    + (a^-7 + sum_{i=-5}^{2} a^i) b."""
    return (cu.power_sum(ctx, a, 2, 3, -5, -6, -7)
            ^ ctx.mul_bits(cu.power_sum(ctx, a, -7, *range(-5, 3)), b))


def _standard_chart(ctx) -> cu.CuspChart:
    """The cusp chart of the standard cubic over ctx, built as the
    surface suite builds the model cubic's."""
    curve = standard_cubic(ctx)
    points = plane_zeros([curve])
    cusp = cu.find_cusp([curve.partial(i) for i in range(3)], points)
    return cu.cusp_parametrization(curve, cusp, points)


def _point_of(chart: cu.CuspChart) -> dict:
    """{parameter: coordinates} over the chart's smooth points."""
    return {chart.param_of(p): p for p in chart.points}


def _cubic_group_law(chart: cu.CuspChart, point_of: dict) -> list:
    on_curve = sum(chart.curve.eval_bits(p) == 0 for p in point_of.values())
    checks = [rp.leaf("group_law.parametrization",
                      on_curve == 32 and len(point_of) == 32,
                      f"{on_curve}/32 on curve, {len(point_of)} distinct")]
    checks.append(rp.leaf("group_law.cusp_location",
                          chart.cusp == (0, 0, 1),
                          format_point(chart.curve.ctx, chart.cusp)))
    # dual collinearity routes, exhaustively over the cubic over GF(8)
    gf8 = gf.field_make(3, 0b1011)
    point8 = _point_of(_standard_chart(gf8))

    def det(*ts):
        return collinear_det(gf8, *(point8[t] for t in ts))
    triples = list(permutations(point8, 3))
    agree = sum((cu.chord_third(a, b) == c) == (det(a, b, c) == 0)
                for a, b, c in triples)
    checks.append(rp.leaf("group_law.sum_rule_vs_determinant",
                          agree == len(triples),
                          f"{agree}/{len(triples)} triples agree"))
    closed = all(det(t1, t2, cu.chord_third(t1, t2)) == 0
                 for t1, t2 in permutations(point8, 2))
    checks.append(rp.leaf("group_law.chord_closure", closed))
    return checks


def _cubic_beta_solver(ctx, roots, betas) -> list:
    checks = [rp.leaf("beta_solver.root_count", len(roots) == 10,
                      [gf.format_elem(ctx, a) for a in roots])]
    dual = unique = 0
    for a, b in zip(roots, betas):
        if second_param_expr1(ctx, a, b) == second_param_expr2(ctx, a, b):
            dual += 1
        if second_param_expr1(ctx, a, b ^ 1) \
                != second_param_expr2(ctx, a, b ^ 1):
            unique += 1
    checks.append(rp.leaf("beta_solver.solvable_at_every_root",
                          len(betas) == 10, f"{len(betas)}/10"))
    checks.append(rp.leaf("beta_solver.expressions_agree",
                          dual == 10, f"{dual}/10"))
    checks.append(rp.leaf("beta_solver.solution_unique",
                          unique == 10, f"{unique}/10 break at beta+1"))
    rset = set(roots)
    sq_closed = all(ctx.mul_bits(b, b) in rset for b in rset)
    inv_closed = all(ctx.inv_bits(b) in rset for b in rset)
    checks.append(rp.leaf("beta_solver.closed_under_squaring", sq_closed))
    checks.append(rp.leaf("beta_solver.closed_under_inversion", inv_closed))
    a0 = roots[0]
    orbit = {ctx.pow_bits(a0, s * 2 ** i)
             for i in range(ctx.m) for s in (1, -1)}
    checks.append(rp.leaf("beta_solver.single_power_orbit", orbit == rset,
                          f"{len(orbit)} elements from "
                          f"{gf.format_elem(ctx, a0)}"))
    return checks


def _cubic_orbits(ctx, rows, point_of: dict) -> list:
    """One node per row (alpha, beta, params): the ten parameters are
    distinct; {tau(t1), t3, t4}, {tau(t2), t2, t4}, {tau(t3), t2, t3}
    are collinear, both by the sum rule and by the determinant of their
    points on the standard cubic (point_of maps each group parameter to
    its point's coordinates); tau(t_n) = t_{n+1} for 4 <= n <= 9 and
    tau(t_10) = t_1."""
    fmt = gf.format_elem
    subs = []
    for a, b, params in rows:
        tau = cu.AffineAction(ctx, a, b)
        t = dict(enumerate(params, 1))
        checks = []
        for label, trip in (("chord.t1_t3_t4", (tau(t[1]), t[3], t[4])),
                            ("chord.t2_t2_t4", (tau(t[2]), t[2], t[4])),
                            ("chord.t3_t2_t3", (tau(t[3]), t[2], t[3]))):
            ok = (cu.chord_third(*trip[:2]) == trip[2]
                  and not collinear_det(ctx, *(point_of[u] for u in trip)))
            checks.append(rp.leaf(label, ok, [fmt(ctx, v) for v in trip]))
        for n in range(4, 11):
            nxt = n % 10 + 1
            checks.append(rp.leaf(f"orbit.t{n}_to_t{nxt}",
                                  tau(t[n]) == t[nxt], fmt(ctx, tau(t[n]))))
        distinct = rp.leaf("params_distinct", len(set(params)) == 10,
                           [fmt(ctx, u) for u in params])
        subs.append(rp.node(f"orbit[{fmt(ctx, a)}]",
                            [distinct, rp.node("coxeter_constraints", checks)],
                            witness=repr(tau)))
    return subs


def _cubic_alpha_table(data_dir, ctx, rows) -> rp.Report:
    """The bundled alpha table against the one regenerated from rows()
    (alpha, beta, orbit parameters), one line per valid scalar, every
    element as a generator power."""
    fmt = gf.format_elem
    lines = ["# alpha | beta | t1..t10 (all as generator powers)"]
    for alpha, beta, params in rows():
        lines.append(f"alpha = {fmt(ctx, alpha)}; beta = {fmt(ctx, beta)}; "
                     "params = " + " ".join(fmt(ctx, t) for t in params))
    bundled = _read_data(data_dir, "alpha_table.dat")
    return rp.leaf("cubic.alpha_table_fresh",
                   bundled.strip() == "\n".join(lines),
                   f"{len(lines)} lines")


def _cubic_checks(data_dir) -> list:
    """The cubic checks in report order over one run-object table: the
    cusp chart of the standard cubic over GF(32) and its {parameter:
    point} table, Lehmer's mod-2 roots in GF(32), the translation part
    beta of each and its orbit."""
    ctx = gf.gf32()
    need = _run_objects({
        "chart": lambda need: _standard_chart(ctx),
        "point_of": lambda need: _point_of(need("chart")),
        "roots": lambda need: cu.lehmer_mod2_roots(ctx),
        "betas": lambda need: [cu.beta_from_alpha(ctx, a)
                               for a in need("roots")],
        "orbits": lambda need: [cu.orbit_points(ctx, a, b)
                                for a, b in zip(need("roots"),
                                                need("betas"))],
    })

    def rows():
        return zip(need("roots"), need("betas"), need("orbits"))
    return [("cubic.group_law", lambda: _cubic_group_law(
                need("chart"), need("point_of"))),
            ("cubic.beta_solver", lambda: _cubic_beta_solver(
                ctx, need("roots"), need("betas"))),
            ("cubic.orbits", lambda: _cubic_orbits(ctx, rows(),
                                                   need("point_of"))),
            ("cubic.alpha_table_fresh",
             lambda: _cubic_alpha_table(data_dir, ctx, rows))]
