"""Named verification suites and the report trees they produce.

run_suite is the single entry point behind the CLI. Every suite is a
deterministic function of the bundled (or supplied) data and the config
knobs, so two runs on the same inputs emit byte-identical JSON. The
node names `lattice.coxeter`, `lattice.salem`, `lattice.mod2` and
`lattice.lagrangians` are part of the external interface; everything
else follows the library layout.

A suite is a list of (node name, check) pairs, each run in its own
guard, over one table of run objects (`_run_objects`), so every shared
object is built at most once per run, a failed build included. The
`salem` and `lagrangians` suites run one check of the lattice list.

Only report and errors are imported here. The lattice, finite-field,
polynomial-ring, census, cubic and surface modules are bound through
`_lazy`: each is in sys.modules from the start but executes on the
first attribute access, so a suite runs only the modules it uses. The
data reader and Lehmer's coefficients live in the package root, so the
cubic and surface suites execute no lattice code, and `fractions` is
imported only with lattice.
"""

from __future__ import annotations

import sys
import time
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import _read_data
from . import report as rp
from .errors import NoSolution


def _lazy(name: str):
    """The package module `name`, registered in sys.modules and on the
    package now and executed by importlib's LazyLoader on its first
    attribute access. A module already imported is returned as is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = find_spec(full)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# unipoly and multipoly are registered though no suite names them:
# bench/traced.py finds every layer in sys.modules after importing cli
lat = _lazy("lattice")
gf = _lazy("gf2m")
_lazy("unipoly")
_lazy("multipoly")
m2 = _lazy("mod2space")
cu = _lazy("cubic")
sf = _lazy("surface")

SUITE_NAMES = ("all", "lattice", "cubic", "surface", "salem", "lagrangians")


class SuiteConfig:
    """Execution knobs; the defaults are also the CLI defaults. A
    precision of None stands for lattice.DEFAULT_PRECISION."""

    __slots__ = ("data_dir", "_precision", "ext_bound")

    def __init__(self, data_dir=None, precision=None, ext_bound: int = 10):
        self.data_dir = data_dir
        self._precision = precision
        self.ext_bound = int(ext_bound)

    @property
    def precision(self):
        """The interval width as a Fraction. Only the salem check reads
        it, so only that check executes lattice for the default."""
        if self._precision is None:
            return lat.DEFAULT_PRECISION
        from fractions import Fraction  # imported with lattice anyway
        return Fraction(self._precision)


def _guarded(name: str, build) -> rp.Report | None:
    """Run one check and time it. build() returns either the check's
    report, which gets the measured time, a list of child reports,
    which become a node called `name`, or None for no node. Any escape
    becomes an error leaf called `name`, so a suite always reports."""
    t0 = time.perf_counter()
    try:
        out = build()
    except Exception as ex:  # noqa: BLE001 - suites report, never raise
        return rp.error_leaf(name, ex, (time.perf_counter() - t0) * 1000.0)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if isinstance(out, rp.Report):
        out.elapsed_ms = elapsed_ms
        return out
    return None if out is None else rp.node(name, out, elapsed_ms=elapsed_ms)


def _run_checks(checks) -> list:
    """The reports of (node name, check) pairs, each check run in its
    own guard, in order."""
    reps = [_guarded(name, check) for name, check in checks]
    return [rep for rep in reps if rep is not None]


def _run_objects(builders: dict):
    """need(key) for one run. builders[key](need) builds the object on
    first use, inside the guard of the check that asks, and the object
    is kept for the rest of the run. A build that raises is kept too:
    later calls re-raise its exception without building again, so every
    check that needs the object reports the cause in its own leaf."""
    got = {}
    failed = {}

    def need(key):
        if key in failed:
            raise failed[key]
        if key not in got:
            try:
                got[key] = builders[key](need)
            except Exception as ex:  # noqa: BLE001 - kept for later needs
                failed[key] = ex
                raise
        return got[key]
    return need


# ---------------------------------------------------------------------------
# lattice suite


def _lattice_coxeter(ge, me, pe) -> list:
    cox = lat.coxeter_matrix()
    p10 = lat.lehmer_polynomial()
    kc = lat.canonical_class()
    checks = [
        rp.leaf("coxeter.isometry",
                lat.is_isometry_of(cox, lat.ambient_gram())),
        rp.leaf("coxeter.fixes_canonical_class",
                tuple(lat.mat_vec(cox, kc)) == tuple(kc), list(kc)),
    ]
    full = lat.char_poly(cox)
    checks.append(rp.leaf("coxeter.charpoly_full",
                          full == lat.ip_mul([-1, 1], p10), list(full)))
    checks.append(rp.leaf("coxeter.charpoly_e10", pe == p10, list(pe)))
    checks.append(rp.leaf("coxeter.gram_even", lat.e10_parity_check(ge)))
    u = lat.reference_interior_vector()
    img = lat.mat_vec(me, u)
    pairing = sum(img[i] * ge[i][j] * u[j]
                  for i in range(10) for j in range(10))
    checks.append(rp.leaf("coxeter.halfcone_preserved", pairing > 0,
                          f"pairing {pairing}"))
    return checks


def _lattice_salem(precision) -> list:
    p10 = lat.lehmer_polynomial()
    checks = [rp.leaf("salem.reciprocal", lat.is_reciprocal(p10), list(p10))]
    r10 = lat.trace_polynomial(p10)
    checks.append(rp.leaf("salem.trace_identity",
                          lat.trace_reexpand(r10) == lat.ip_trim(p10),
                          list(r10)))
    cert = lat.salem_certify(p10, precision)
    checks.append(rp.leaf("salem.real_trace_roots",
                          len(cert.trace_intervals) == 5,
                          f"{len(cert.trace_intervals)} isolated real roots"))
    above = [iv for iv in cert.trace_intervals if iv[0] > 2]
    checks.append(rp.leaf("salem.one_trace_root_above_two",
                          len(above) == 1,
                          rp.interval_witness(above[0]) if above else None))
    pos = sum(1 for s in cert.interior_signs if s > 0)
    checks.append(rp.leaf("salem.two_positive_interior_signs",
                          pos == 2 and len(cert.interior_signs) == 4,
                          list(cert.interior_signs)))
    target = lat.sign_vector_target(cert)
    checks.append(rp.leaf("salem.target_sign_vector",
                          target == (-1, -1, 1, 1)
                          and sum(1 for s in target if s < 0) == pos,
                          list(target)))
    lam = lat.dynamical_degree(lat.coxeter_matrix(), precision)
    checks.append(rp.leaf("salem.lambda10_interval",
                          lam[1] - lam[0] <= precision and lam[0] > 1,
                          rp.interval_witness(lam)))
    ci = cert.lambda_interval
    checks.append(rp.leaf("salem.routes_agree",
                          lam[0] <= ci[1] and ci[0] <= lam[1],
                          rp.interval_witness(ci)))
    checks.append(rp.leaf("salem.matches_largest_p10_root",
                          lam[0] <= ci[1] and ci[0] <= lam[1],
                          rp.interval_witness(ci)))
    return checks


# low degree first; each quintic is the reversal of the other
_MOD2_QUINTICS = ([1, 1, 1, 1, 0, 1], [1, 0, 1, 1, 1, 1])


def _lattice_mod2(ge, me, pe, space, images) -> list:
    rep = m2.mod2_action_analysis(me, ge, space, pe, images)
    checks = [
        rp.leaf("mod2.preserves_quadratic_form", rep.preserves_form),
        rp.leaf("mod2.order", rep.order == 31, f"order {rep.order}"),
    ]
    facts = [(r.factor, r.multiplicity) for r in rep.invariant_subspaces]
    got = sorted(tuple(f) for f, _ in facts)
    want = sorted(tuple(q) for q in _MOD2_QUINTICS)
    checks.append(rp.leaf("mod2.quintic_factors",
                          got == want and all(m == 1 for _, m in facts),
                          [list(f) for f, _ in facts]))
    checks.append(rp.leaf("mod2.factors_mutually_reversed",
                          len(facts) == 2
                          and list(facts[0][0]) == list(facts[1][0])[::-1]))
    dims = [(r.dimension, r.totally_singular)
            for r in rep.invariant_subspaces]
    checks.append(rp.leaf("mod2.kernels_totally_isotropic",
                          dims == [(5, True), (5, True)],
                          [list(d) for d in dims]))
    checks.append(rp.leaf("mod2.outside_weyl2_kernel",
                          not lat.weyl2_membership(me, ge)))
    return checks


def _lattice_lagrangians(images, space) -> list:
    census = m2.enumerate_lagrangians(space)
    checks = [rp.leaf("lagrangians.count", len(census.members) == 4590,
                      f"{len(census.members)} members")]
    sizes = census.class_sizes()
    checks.append(rp.leaf("lagrangians.class_sizes",
                          sizes == (2295, 2295), list(sizes)))
    inv = census.invariant_members(images)
    checks.append(rp.leaf("lagrangians.invariant_count", len(inv) == 2,
                          f"{len(inv)} invariant members"))
    pars = sorted(census.class_parity[census.index_of(rows)]
                  for rows in inv)
    checks.append(rp.leaf("lagrangians.one_invariant_per_class",
                          pars == [0, 1], pars))
    return checks


def _lattice_checks(config: SuiteConfig) -> list:
    """The lattice checks in report order over one run-object table:
    the E10 basis, its Gram matrix, the Coxeter restriction, that
    restriction's char poly, the mod-2 space and the table of images
    of all 2^10 vectors under the restriction mod 2."""
    need = _run_objects({
        "basis": lambda need: lat.e10_basis(
            _read_data(config.data_dir, "e10_basis.dat")),
        "gram": lambda need: lat.gram_of(need("basis")),
        "restriction": lambda need: lat.restrict_to_basis(
            lat.coxeter_matrix(), need("basis")),
        "char_poly": lambda need: lat.char_poly(need("restriction")),
        "space": lambda need: m2.Mod2QuadSpace(need("gram")),
        "images": lambda need: m2.mat2_images(
            m2.mat2_from_int(need("restriction"))),
    })
    return [("lattice.coxeter", lambda: _lattice_coxeter(
                need("gram"), need("restriction"), need("char_poly"))),
            ("lattice.salem", lambda: _lattice_salem(config.precision)),
            ("lattice.mod2", lambda: _lattice_mod2(
                need("gram"), need("restriction"), need("char_poly"),
                need("space"), need("images"))),
            ("lattice.lagrangians", lambda: _lattice_lagrangians(
                need("images"), need("space")))]


def lattice_suite(config: SuiteConfig) -> list:
    return _run_checks(_lattice_checks(config))


# ---------------------------------------------------------------------------
# cubic suite


def _cubic_group_law() -> list:
    ctx = gf.gf32()
    curve = cu.standard_cubic(ctx)
    on_curve = 0
    images = set()
    for bits in range(1 << ctx.m):
        t = gf.FieldElement(ctx, bits)
        p = cu.psi(t)
        if curve.eval_bits(p.coords) == 0 and cu.psi_inv(p) == t:
            on_curve += 1
        images.add(p.coords)
    checks = [rp.leaf("group_law.parametrization",
                      on_curve == 32 and len(images) == 32,
                      f"{on_curve}/32 on curve, {len(images)} distinct")]
    cusp = cu.find_cusp(curve)
    checks.append(rp.leaf("group_law.cusp_location",
                          cusp.coords == (0, 0, 1), repr(cusp)))
    # dual collinearity routes, exhaustively over the cubic over GF(8)
    gf8 = gf.field_make(3, 0b1011)
    agree = total = 0
    for b1 in range(8):
        for b2 in range(8):
            for b3 in range(8):
                if b1 == b2 or b2 == b3 or b1 == b3:
                    continue
                t1, t2, t3 = (gf.FieldElement(gf8, b)
                              for b in (b1, b2, b3))
                total += 1
                if cu.collinear(t1, t2, t3) == \
                        (cu.collinear_det(t1, t2, t3).bits == 0):
                    agree += 1
    checks.append(rp.leaf("group_law.sum_rule_vs_determinant",
                          agree == total, f"{agree}/{total} triples agree"))
    closed = all(cu.collinear_det(gf.FieldElement(gf8, b1),
                                  gf.FieldElement(gf8, b2),
                                  cu.chord_third(gf.FieldElement(gf8, b1),
                                                 gf.FieldElement(gf8, b2))
                                  ).bits == 0
                 for b1 in range(8) for b2 in range(8) if b1 != b2)
    checks.append(rp.leaf("group_law.chord_closure", closed))
    return checks


def _cubic_beta_solver(roots, betas) -> list:
    ctx = gf.gf32()
    checks = [rp.leaf("beta_solver.root_count", len(roots) == 10,
                      [gf.format_elem(a) for a in roots])]
    one = gf.FieldElement(ctx, 1)
    dual = unique = 0
    for a, b in zip(roots, betas):
        if cu.second_param_expr1(a, b) == cu.second_param_expr2(a, b):
            dual += 1
        if cu.second_param_expr1(a, b + one) \
                != cu.second_param_expr2(a, b + one):
            unique += 1
    checks.append(rp.leaf("beta_solver.solvable_at_every_root",
                          len(betas) == 10, f"{len(betas)}/10"))
    checks.append(rp.leaf("beta_solver.expressions_agree",
                          dual == 10, f"{dual}/10"))
    checks.append(rp.leaf("beta_solver.solution_unique",
                          unique == 10, f"{unique}/10 break at beta+1"))
    bits = {a.bits for a in roots}
    sq_closed = all(ctx.mul_bits(b, b) in bits for b in bits)
    inv_closed = all(ctx.inv_bits(b) in bits for b in bits)
    checks.append(rp.leaf("beta_solver.closed_under_squaring", sq_closed))
    checks.append(rp.leaf("beta_solver.closed_under_inversion", inv_closed))
    a0 = roots[0]
    orbit = {(a0 ** (2 ** i)).bits for i in range(ctx.m)} \
        | {(a0 ** -(2 ** i)).bits for i in range(ctx.m)}
    checks.append(rp.leaf("beta_solver.single_power_orbit", orbit == bits,
                          f"{len(orbit)} elements from "
                          f"{gf.format_elem(a0)}"))
    return checks


def _cubic_orbits(rows) -> list:
    subs = []
    for a, b, params in rows:
        action = cu.AffineAction(a, b)
        distinct = rp.leaf("params_distinct",
                           len({t.bits for t in params}) == 10,
                           [gf.format_elem(t) for t in params])
        constraints = cu.verify_coxeter_constraints(params, action)
        subs.append(rp.node(f"orbit[{gf.format_elem(a)}]",
                            [distinct, constraints],
                            witness=repr(action)))
    return subs


def _cubic_alpha_table(data_dir, rows) -> rp.Report:
    bundled = _read_data(data_dir, "alpha_table.dat")
    regen = cu.alpha_table_text(rows())
    return rp.leaf("cubic.alpha_table_fresh",
                   bundled.strip() == regen.strip(),
                   f"{len(regen.splitlines())} lines")


def cubic_suite(config: SuiteConfig) -> list:
    """The cubic checks over one run-object table: Lehmer's mod-2 roots
    in GF(32), the translation part beta of each and its orbit."""
    need = _run_objects({
        "roots": lambda need: cu.lehmer_mod2_roots(gf.gf32()),
        "betas": lambda need: list(map(cu.beta_from_alpha, need("roots"))),
        "orbits": lambda need: list(map(cu.orbit_points, need("roots"),
                                        need("betas"))),
    })

    def rows():
        return zip(need("roots"), need("betas"), need("orbits"))
    return _run_checks([
        ("cubic.group_law", _cubic_group_law),
        ("cubic.beta_solver", lambda: _cubic_beta_solver(
            need("roots"), need("betas"))),
        ("cubic.orbits", lambda: _cubic_orbits(rows())),
        ("cubic.alpha_table_fresh",
         lambda: _cubic_alpha_table(config.data_dir, rows))])


# ---------------------------------------------------------------------------
# surface suite


def _surface_objects(data_dir):
    """need(key) for one surface run: the model, the inverse of its
    automorphism, the conjugation scalar, the cusp of the marked cubic
    as located by scanning the plane, its cusp chart, the affine action
    the automorphism induces there and Lehmer's mod-2 roots in the
    model's field."""
    return _run_objects({
        "model": lambda need: sf.load_model(data_dir),
        "inverse": lambda need: sf.derive_sigma_inverse(need("model")),
        "scalar": lambda need: sf.conjugation_scalar(need("model"),
                                                     need("inverse")),
        "cusp": lambda need: cu.find_cusp(need("model").g),
        "chart": lambda need: cu.cusp_parametrization(need("model").g,
                                                      need("cusp")),
        "action": lambda need: cu.induced_affine_map(
            need("chart"), list(need("model").f)),
        "roots": lambda need: cu.lehmer_mod2_roots(need("model").ctx),
    })


def _model_leaf(m: sf.SurfaceModel) -> rp.Report:
    return rp.leaf("model", True, {
        "surface_terms": m.s.num_terms(),
        "translation_terms": m.eta.num_terms(),
        "cubic_terms": m.g.num_terms(),
        "marked_points": len(m.points),
    })


def _inverse_leaf(m: sf.SurfaceModel, si: sf.SigmaInverse) -> rp.Report:
    return rp.leaf("inverse", True, {
        "w_scalar": sf._fmt(m.ctx, si.w_scalar),
        "tail_terms": si.eta_prime.num_terms(),
    })


def _surface_derivation(m: sf.SurfaceModel, need) -> rp.Report | None:
    """The derivation node over the run's inverse and conjugation scalar
    (or the NoSolution its build raised); no node without the inverse,
    whose own leaf says why."""
    try:
        si = need("inverse")
    except Exception:  # noqa: BLE001 - reported by the inverse leaf
        return None
    try:
        scalar = need("scalar")
    except NoSolution as ex:
        scalar = ex
    return sf.verify_derivation(m, si, scalar)


def _surface_match(m: sf.SurfaceModel, chart: cu.CuspChart,
                   action: cu.AffineAction, roots) -> rp.Report:
    """Report node for the concrete-to-abstract parameter match: chart
    is the cusp chart of m.g, action the map m.f induces on it and
    roots Lehmer's mod-2 roots in m's field."""
    checks = [rp.leaf("match.induced_action_affine", True, repr(action)),
              rp.leaf("match.multiplier_is_root", action.alpha in roots,
                      gf.format_elem(action.alpha))]
    try:
        fixed = action.fixed_point()
        t0 = chart.param_of(m.points[0])
        checks.append(rp.leaf("match.fixed_parameter", fixed == t0,
                              gf.format_elem(fixed)))
        concrete = [chart.param_of(m.points[i]) for i in range(1, 11)]
        beta = cu.beta_from_alpha(action.alpha)
        abstract = cu.orbit_points(action.alpha, beta)
        abstract_action = cu.AffineAction(action.alpha, beta)
        matches = cu.all_point_set_matches(concrete, abstract)
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
    return sf.verify_alpha_consistency(m, scalar, action.alpha, need("roots"))


def surface_suite(config: SuiteConfig) -> list:
    """The surface checks in report order. Nothing runs after a failed
    model load: the lone model leaf says why."""
    need = _surface_objects(config.data_dir)
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
        ("singular", lambda: sf.singular_locus(m, config.ext_bound)),
        ("multiplicities", lambda: sf.verify_multiplicities(m)),
        ("charts", lambda: sf.verify_chart_smoothness(m)),
        ("match", lambda: _surface_match(m, need("chart"), need("action"),
                                         need("roots"))),
        ("alpha", lambda: _surface_alpha(m, need))])


# ---------------------------------------------------------------------------
# dispatch


def run_suite(name: str, config: SuiteConfig | None = None) -> rp.Report:
    """Execute one named suite and return its report tree.

    `all` chains the three primary suites; `salem` and `lagrangians`
    run the matching check of the lattice list. The root and each
    top-level suite node carry their measured wall time.
    """
    if config is None:
        config = SuiteConfig()
    if name not in SUITE_NAMES:
        raise ValueError(f"no suite named {name!r}; "
                         f"choose one of {', '.join(SUITE_NAMES)}")
    primary = {"lattice": lattice_suite, "cubic": cubic_suite,
               "surface": surface_suite}
    if name in primary:
        return _guarded(name, lambda: primary[name](config))
    if name == "all":
        return _guarded("all", lambda: [
            _guarded(suite, lambda: primary[suite](config))
            for suite in ("lattice", "cubic", "surface")])
    return _guarded(name, lambda: _run_checks(
        [check for check in _lattice_checks(config)
         if check[0] == f"lattice.{name}"]))
