"""One test per acceptance criterion, each printing a pass/fail line.

Every criterion recomputes its own inputs inside the timed region so the
printed duration covers the full computation, not a cached fixture.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import salemsurf.cubic as cu
import salemsurf.lattice as lat
import salemsurf.mod2space as m2
import salemsurf.surface as sf
from salemsurf.gf2m import gf32
from salemsurf.multipoly import MultiPoly, ProjPoint

WIDTH = Fraction(1, 10 ** 9)


def _report(num, desc, budget_s, fn):
    t0 = time.perf_counter()
    ok = False
    try:
        ok = bool(fn())
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"acceptance {num:02d} {status} {desc} ({dt:.2f}s)")
    assert ok, f"criterion {num}: {desc}"
    assert dt < budget_s, f"criterion {num} took {dt:.2f}s (budget {budget_s}s)"


def test_criterion_01_characteristic_polynomials(e10_basis):
    def run():
        p10 = lat.lehmer_polynomial()
        full = lat.char_poly(lat.coxeter_matrix())
        restr = lat.restrict_to_basis(lat.coxeter_matrix(), e10_basis)
        return (lat.char_poly(restr) == p10
                and full == lat.ip_mul([-1, 1], p10))
    _report(1, "characteristic polynomials (full and restricted)", 1, run)


def test_criterion_02_dynamical_degree_interval():
    def run():
        lo, hi = lat.dynamical_degree(lat.coxeter_matrix(), WIDTH)
        mid = float((lo + hi) / 2)
        largest = lat.real_roots(lat.lehmer_polynomial(), WIDTH)[-1]
        overlap = lo <= largest[1] and largest[0] <= hi
        return (hi - lo <= WIDTH
                and abs(mid - 1.17628) <= 1e-5
                and overlap
                and abs(math.log(mid) - 0.16236) <= 1e-4)
    _report(2, "spectral radius interval and its logarithm", 1, run)


def test_criterion_03_mod2_spectrum(e10_basis):
    def run():
        facs = m2.mod2_reduce_and_factor(lat.lehmer_polynomial())
        if facs != [([1, 0, 1, 1, 1, 1], 1), ([1, 1, 1, 1, 0, 1], 1)]:
            return False
        restr = lat.restrict_to_basis(lat.coxeter_matrix(), e10_basis)
        ge = lat.gram_of(e10_basis)
        rep = m2.mod2_action_analysis(
            restr, ge, m2.Mod2QuadSpace(ge), lat.char_poly(restr),
            m2.mat2_images(m2.mat2_from_int(restr)))
        return (rep.order == 31 and rep.preserves_form
                and len(rep.invariant_subspaces) == 2
                and all(r.dimension == 5 and r.totally_singular
                        for r in rep.invariant_subspaces))
    _report(3, "mod-2 factorization, order 31, isotropic kernels", 1, run)


def test_criterion_04_lagrangian_census(e10_basis):
    def run():
        space = m2.Mod2QuadSpace(lat.gram_of(e10_basis))
        census = m2.enumerate_lagrangians(space)
        if len(census.members) != 4590:
            return False
        if census.class_sizes() != (2295, 2295):
            return False
        restr = lat.restrict_to_basis(lat.coxeter_matrix(), e10_basis)
        inv = census.invariant_members(
            m2.mat2_images(m2.mat2_from_int(restr)))
        parities = sorted(census.class_parity[census.index_of(rows)]
                          for rows in inv)
        return len(inv) == 2 and parities == [0, 1]
    _report(4, "4590 Lagrangians, 2295 + 2295, two invariant", 1, run)


def test_criterion_05_salem_certification():
    def run():
        p10 = lat.lehmer_polynomial()
        r10 = lat.trace_polynomial(p10)
        if lat.trace_reexpand(r10) != p10:
            return False
        cert = lat.salem_certify(p10, WIDTH)
        above = [iv for iv in cert.trace_intervals if iv[0] > 2]
        below = [iv for iv in cert.trace_intervals if iv[1] < 2]
        pos = sum(1 for s in cert.interior_signs if s > 0)
        return (len(cert.trace_intervals) == 5
                and len(above) == 1 and len(below) == 4
                and pos == 2
                and lat.sign_vector_target(
                    lat.salem_certify(lat.lehmer_polynomial()))
                == (-1, -1, 1, 1))
    _report(5, "trace identity and interior derivative signs", 1, run)


def test_criterion_06_parity(e10_basis):
    _report(6, "stored Gram matrix is even", 1,
            lambda: lat.e10_parity_check(lat.gram_of(e10_basis)))


def test_criterion_07_beta_solver():
    def run():
        ctx = gf32()
        roots = cu.lehmer_mod2_roots(ctx)
        if len(roots) != 10:
            return False
        bits = {r.bits for r in roots}
        for a in roots:
            params = cu.orbit_points(a, cu.beta_from_alpha(a))
            if len({t.bits for t in params}) != 10:
                return False
            action = cu.AffineAction(a, cu.beta_from_alpha(a))
            if not cu.verify_coxeter_constraints(params, action).ok():
                return False
            if (a * a).bits not in bits or a.inverse().bits not in bits:
                return False
        a0 = roots[0]
        powers = set()
        for i in range(5):
            powers.add((a0 ** (2 ** i)).bits)
            powers.add((a0 ** -(2 ** i)).bits)
        return powers == bits
    _report(7, "translation solver and Frobenius closure of scalars", 1, run)


def test_criterion_08_orbit_and_cubic():
    def run():
        ctx = gf32()
        m = sf.load_model()
        cusp = ProjPoint(ctx, (ctx.gen_pow(15).bits, ctx.gen_pow(28).bits, 1))
        return (sf.verify_orbit(m).ok()
                and sf.verify_cubic(m, cu.find_cusp(m.g)).ok()
                and m.cusp == cusp)
    _report(8, "marked orbit, unique cubic, cusp and smooth point", 1, run)


def test_criterion_09_equivariance():
    def run():
        return sf.verify_equivariance(sf.load_model()).ok()
    _report(9, "equivariance identity on the branch polynomial", 10, run)


def test_criterion_10_inverse_and_derivation():
    def run():
        ctx = gf32()
        m = sf.load_model()
        si = sf.derive_sigma_inverse(m)
        lam = si.lambda_factor
        xyz = MultiPoly(ctx, 3, {(1, 1, 1): 1})
        for i in range(3):
            var = MultiPoly.var(ctx, 3, i)
            if m.f[i].substitute(list(si.components)) != lam * var:
                return False
            if si.components[i].substitute(list(m.f)) != xyz * var:
                return False
        pulled_g = m.g.substitute(list(m.f))
        if pulled_g != (xyz * m.g).scale_bits(ctx.gen_pow(12).bits):
            return False
        scalar = sf.conjugation_scalar(m, si)
        if scalar != ctx.gen_pow(8):
            return False
        return sf.verify_derivation(m, si, scalar).ok()
    _report(10, "inverse reconstruction and derivation scalar", 30, run)


def test_criterion_11_singular_locus():
    def run():
        return sf.singular_locus(sf.load_model(), 10).ok()
    _report(11, "eleven rational singular points and no others", 10, run)


def test_criterion_12_multiplicities_and_charts():
    def run():
        m = sf.load_model()
        return (sf.verify_multiplicities(m).ok()
                and sf.verify_chart_smoothness(m).ok())
    _report(12, "multiplicities, double point, blow-up charts", 30, run)


def test_criterion_13_cross_model_consistency():
    def run():
        ctx = gf32()
        m = sf.load_model()
        chart = cu.cusp_parametrization(m.g, cu.find_cusp(m.g))
        action = cu.induced_affine_map(chart, list(m.f))
        alpha = action.alpha
        roots = {r.bits for r in cu.lehmer_mod2_roots(ctx)}
        if alpha.bits not in roots or alpha == ctx.gen_pow(16):
            return False
        si = sf.derive_sigma_inverse(m)
        lam1 = sf.conjugation_scalar(m, si)
        lam2 = alpha / lam1
        if lam1 != ctx.gen_pow(8) or lam2 == lam1:
            return False
        concrete = [chart.param_of(m.points[i]) for i in range(1, 11)]
        abstract = cu.orbit_points(alpha, cu.beta_from_alpha(alpha))
        return bool(cu.all_point_set_matches(concrete, abstract))
    _report(13, "induced scalar, eigenvalues, point-set match", 10, run)


def test_criterion_14_determinism():
    def run():
        cmd = [sys.executable, "-m", "salemsurf.cli", "all",
               "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, timeout=300)
        second = subprocess.run(cmd, capture_output=True, timeout=300)
        return (first.returncode == 0 and second.returncode == 0
                and first.stdout == second.stdout
                and len(first.stdout) > 0)
    _report(14, "byte-identical consecutive full runs", 600, run)
