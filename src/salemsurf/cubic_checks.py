"""The checks of the cubic suite: the group law of the cuspidal cubic,
read through its cusp chart over GF(32) and GF(8), the parameter
solver at Lehmer's mod-2 roots and the orbit of each root.

Imported by `suites` only when the cubic suite runs; the field and
cubic modules are bound as the placeholders that `suites` registered.
"""

from __future__ import annotations

from itertools import permutations

from . import _read_data, cubic as cu, gf2m as gf, report as rp
from .multipoly import format_point, plane_zeros
from .suites import _run_objects


def _standard_chart(ctx) -> cu.CuspChart:
    """The cusp chart of the standard cubic over ctx, built as the
    surface suite builds the model cubic's."""
    curve = cu.standard_cubic(ctx)
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
        return cu.collinear_det(gf8, *(point8[t] for t in ts))
    triples = list(permutations(point8, 3))
    agree = sum(cu.collinear(*ts) == (det(*ts) == 0) for ts in triples)
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
        if cu.second_param_expr1(ctx, a, b) \
                == cu.second_param_expr2(ctx, a, b):
            dual += 1
        if cu.second_param_expr1(ctx, a, b ^ 1) \
                != cu.second_param_expr2(ctx, a, b ^ 1):
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
    subs = []
    for a, b, params in rows:
        action = cu.AffineAction(ctx, a, b)
        distinct = rp.leaf("params_distinct", len(set(params)) == 10,
                           [gf.format_elem(ctx, t) for t in params])
        constraints = cu.verify_coxeter_constraints(params, action,
                                                     point_of)
        subs.append(rp.node(f"orbit[{gf.format_elem(ctx, a)}]",
                            [distinct, constraints],
                            witness=repr(action)))
    return subs


def _cubic_alpha_table(data_dir, ctx, rows) -> rp.Report:
    bundled = _read_data(data_dir, "alpha_table.dat")
    regen = cu.alpha_table_text(ctx, rows())
    return rp.leaf("cubic.alpha_table_fresh",
                   bundled.strip() == regen.strip(),
                   f"{len(regen.splitlines())} lines")


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
