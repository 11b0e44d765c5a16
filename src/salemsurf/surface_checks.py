"""The checks of the surface suite: the model, its orbit, cubic,
equivariance, inverse and derivation, the singular locus, the
multiplicities and charts, the match with the abstract cubic orbit
and the alpha consistency.

Imported by `suites` only when the surface suite runs; the field,
cubic and surface modules are bound as the placeholders that `suites`
registered, so a surface run executes no lattice code.
"""

from __future__ import annotations

from . import cubic as cu, gf2m as gf, report as rp, surface as sf
from .errors import NoSolution
from .multipoly import plane_zeros
from .suites import _run_checks, _run_objects


def _surface_objects(data_dir):
    """need(key) for one surface run: the model, the derived scalars of
    docs/report-schema.md with g o f, which k_f and the induced action
    read, the expansions of s at the marked points, the points of the
    marked cubic as `plane_zeros` finds them, its cusp and cusp chart,
    the induced affine action and Lehmer's mod-2 roots."""
    return _run_objects({
        "model": lambda need: sf.load_model(data_dir),
        "gamma": lambda need: sf.c_scalar(need("model")),
        "inverse": lambda need: sf.derive_sigma_inverse(need("model"),
                                                        need("gamma")),
        "g_of_f": lambda need: need("model").g.substitute(
            list(need("model").f)),
        "multipliers": lambda need: sf.cubic_multipliers(
            need("model"), need("inverse"), need("g_of_f")),
        "scalar": lambda need: _conjugation_scalar(
            need("model").ctx, need("inverse").w_scalar,
            need("multipliers")[0]),
        "local": lambda need: sf.s_expansions(need("model")),
        "points": lambda need: plane_zeros([need("model").g]),
        "cusp": lambda need: cu.find_cusp(need("model").g, need("points")),
        "chart": lambda need: cu.cusp_parametrization(
            need("model").g, need("cusp"), need("points")),
        "action": lambda need: cu.induced_affine_map(
            need("chart"), list(need("model").f), need("g_of_f")),
        "roots": lambda need: cu.lehmer_mod2_roots(need("model").ctx),
    })


def _conjugation_scalar(ctx: gf.FieldCtx, k: int, kf) -> int:
    """K = k k_f^2 (docs/report-schema.md); NoSolution without a k_f,
    as then no scalar conjugates D = g^2 d/dw."""
    if kf is None:
        raise NoSolution("conjugated derivation is not a scalar "
                         "multiple of g^2 d/dw")
    return ctx.mul_bits(k, ctx.mul_bits(kf, kf))


def _model_leaf(m: sf.SurfaceModel) -> rp.Report:
    return rp.leaf("model", True, {
        "surface_terms": m.s.num_terms(),
        "translation_terms": m.eta.num_terms(),
        "cubic_terms": m.g.num_terms(),
        "marked_points": len(m.points),
    })


def _inverse_leaf(m: sf.SurfaceModel, si: sf.SigmaInverse) -> rp.Report:
    return rp.leaf("inverse", True, {
        "w_scalar": gf.format_elem(m.ctx, si.w_scalar),
        "tail_terms": si.eta_prime.num_terms(),
    })


def _surface_derivation(m: sf.SurfaceModel, need) -> rp.Report | None:
    """The derivation node over the run's scalars, K and alpha being a
    NoSolution when missing; no node without the inverse, whose own
    leaf says why."""
    try:
        si = need("inverse")
    except Exception:  # noqa: BLE001 - reported by the inverse leaf
        return None
    try:
        scalar = need("scalar")
    except NoSolution as ex:
        scalar = ex
    try:
        alpha = need("action").alpha
    except Exception as ex:  # noqa: BLE001 - the match node reports it
        alpha = NoSolution(f"no induced parameter action: "
                           f"{type(ex).__name__}: {ex}")
    return sf.verify_derivation(m.ctx, si, need("gamma"),
                                *need("multipliers"), scalar, alpha)


def _surface_match(m: sf.SurfaceModel, chart: cu.CuspChart,
                   action: cu.AffineAction, roots) -> rp.Report:
    """Report node for the concrete-to-abstract parameter match: chart
    is the cusp chart of m.g, action the map m.f induces on it and
    roots Lehmer's mod-2 roots in m's field."""
    ctx = action.ctx
    checks = [rp.leaf("match.induced_action_affine", True, repr(action)),
              rp.leaf("match.multiplier_is_root", action.alpha in roots,
                      gf.format_elem(ctx, action.alpha))]
    try:
        fixed = action.fixed_point()
        t0 = chart.param_of(m.points[0])
        checks.append(rp.leaf("match.fixed_parameter", fixed == t0,
                              gf.format_elem(ctx, fixed)))
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
        checks.append(rp.leaf("match.marking_preserved", labels_ok))
    except Exception as ex:  # noqa: BLE001
        checks.append(rp.error_leaf("match.parameter_transport", ex))
    return rp.node("match", checks)


def _surface_alpha(m: sf.SurfaceModel, need) -> rp.Report:
    try:
        scalar, action = need("scalar"), need("action")
    except Exception:  # noqa: BLE001 - the earlier leaves say why
        raise NoSolution("conjugation scalar or induced multiplier "
                         "unavailable; see earlier leaves") from None
    return sf.verify_alpha_consistency(m.ctx, need("gamma"), scalar,
                                       action.alpha, need("roots"))


def _surface_reports(data_dir) -> list:
    """The surface reports in order. Nothing runs after a failed model
    load: the lone model leaf says why."""
    need = _surface_objects(data_dir)
    head = _run_checks([("model", lambda: _model_leaf(need("model")))])
    if head[0].status == "error":
        return head
    m = need("model")
    return head + _run_checks([
        ("orbit", lambda: sf.verify_orbit(m)),
        ("cubic", lambda: sf.verify_cubic(m, lambda: need("cusp"))),
        ("equivariance", lambda: sf.verify_equivariance(m)),
        ("inverse", lambda: _inverse_leaf(m, need("inverse"))),
        ("derivation", lambda: _surface_derivation(m, need)),
        ("singular", lambda: sf.singular_locus(m)),
        ("multiplicities", lambda: sf.verify_multiplicities(need("local"))),
        ("charts", lambda: sf.verify_chart_smoothness(need("local"))),
        ("match", lambda: _surface_match(m, need("chart"), need("action"),
                                         need("roots"))),
        ("alpha", lambda: _surface_alpha(m, need))])
