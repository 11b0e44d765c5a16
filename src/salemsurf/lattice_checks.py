"""The checks of the lattice suite, which `salem` and `lagrangians`
also run one node of.

Imported by `suites` only when one of those suites runs; `suites`
says when the lattice and census modules execute. The witness of a
rational interval (its ends as [num, den] pairs, its midpoint and width
in decimal) is built here, since only the Salem checks attach one.
"""

from __future__ import annotations

from fractions import Fraction  # lattice imports it anyway

from . import LEHMER, _read_data, lattice as lat, mod2space as m2, report as rp
from .suites import _run_objects


def interval_witness(iv) -> dict:
    """A rational interval (lo, hi) as [num, den] pairs, with its
    midpoint in decimal and its width to three significant digits."""
    lo, hi = iv
    return {
        "lo": [lo.numerator, lo.denominator],
        "hi": [hi.numerator, hi.denominator],
        "midpoint_decimal": _decimal_str((lo + hi) / 2),
        "width_decimal": _significant_str(hi - lo),
    }


def _significant_str(fr) -> str:
    """fr >= 0 truncated to three significant digits, as d.dde<exponent>
    ("9.31e-10"), computed on the exact Fraction; "0" for zero."""
    if not fr:
        return "0"
    n, d = fr.numerator, fr.denominator
    e = len(str(n)) - len(str(d)) - 1  # fr / 10^e lies in (1, 100)
    digits = n * 10 ** (2 - e) // d if e <= 2 else n // (d * 10 ** (e - 2))
    if digits >= 1000:
        e, digits = e + 1, digits // 10
    return f"{digits // 100}.{digits % 100:02d}e{e}"


def _decimal_str(fr) -> str:
    """fr truncated to 15 decimal places, its sign in front."""
    q = abs(fr.numerator) * 10 ** 15 // fr.denominator
    return f"{'-' if fr < 0 else ''}{q // 10 ** 15}.{q % 10 ** 15:015d}"


def _lattice_coxeter(cox, ge, pe, full, pairing) -> list:
    p10 = list(LEHMER)
    kc = lat.canonical_class()
    checks = [
        rp.leaf("coxeter.isometry",
                lat.is_isometry_of(cox, lat.ambient_gram())),
        rp.leaf("coxeter.fixes_canonical_class",
                tuple(lat.mat_vec(cox, kc)) == tuple(kc), list(kc)),
    ]
    checks.append(rp.leaf("coxeter.charpoly_full",
                          full == lat.ip_mul([-1, 1], p10), list(full)))
    checks.append(rp.leaf("coxeter.charpoly_e10", pe == p10, list(pe)))
    checks.append(rp.leaf("coxeter.gram_even", lat.e10_parity_check(ge)))
    checks.append(rp.leaf("coxeter.halfcone_preserved", pairing > 0,
                          f"pairing {pairing}"))
    return checks


def _lattice_salem(precision, full) -> list:
    precision = lat.DEFAULT_PRECISION if precision is None \
        else Fraction(precision)
    p10 = list(LEHMER)
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
                          interval_witness(above[0]) if above else None))
    pos = sum(1 for s in cert.interior_signs if s > 0)
    checks.append(rp.leaf("salem.two_positive_interior_signs",
                          pos == 2 and len(cert.interior_signs) == 4,
                          list(cert.interior_signs)))
    target = lat.sign_vector_target(cert)
    checks.append(rp.leaf("salem.target_sign_vector",
                          target == (-1, -1, 1, 1)
                          and sum(1 for s in target if s < 0) == pos,
                          list(target)))
    ci = cert.lambda_interval
    checks.append(rp.leaf("salem.lambda10_interval",
                          ci[1] - ci[0] <= precision and ci[0] > 1,
                          interval_witness(ci)))
    # route 2: the Coxeter polynomial deflates to p10, certified above,
    # or its remainder is certified on its own. full comes from the roots
    # in lattice.coxeter_matrix, never from model data, so no CLI run
    # reaches dynamical_degree: only a caller replacing M does
    rest = lat.deflate(full)
    checks.append(rp.leaf("salem.routes_agree", rest == p10,
                          interval_witness(ci)))
    lam = ci if rest == p10 else lat.dynamical_degree(full, precision)
    # route 2's enclosure holds a root of p10 above 1: p10 changes sign
    # across it (or vanishes at an exact end)
    checks.append(rp.leaf("salem.matches_largest_p10_root",
                          lam[0] > 1 and lat._sign_at(p10, lam[0])
                          * lat._sign_at(p10, lam[1]) <= 0,
                          interval_witness(lam)))
    return checks


# low degree first; each quintic is the reversal of the other
_MOD2_QUINTICS = ([1, 1, 1, 1, 0, 1], [1, 0, 1, 1, 1, 1])


def _lattice_mod2(ge, me, pe, space, images, pairing) -> list:
    # raises first when me does not preserve ge
    in_weyl2_kernel = lat.weyl2_membership(me, ge, pairing)
    rep = m2.mod2_action_analysis(space, pe, images)
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
    dims = [(len(r.kernel), r.totally_singular)
            for r in rep.invariant_subspaces]
    checks.append(rp.leaf("mod2.kernels_totally_isotropic",
                          dims == [(5, True), (5, True)],
                          [list(d) for d in dims]))
    checks.append(rp.leaf("mod2.outside_weyl2_kernel", not in_weyl2_kernel))
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
    pars = sorted(cls for _, cls in inv)
    checks.append(rp.leaf("lagrangians.one_invariant_per_class",
                          pars == [0, 1], pars))
    return checks


def _lattice_checks(data_dir, precision) -> list:
    """The lattice checks in report order over one run-object table:
    the E10 basis, its Gram matrix, the Coxeter matrix M, its
    restriction, M's char poly, the restriction's char poly, the
    restriction's half-cone pairing, the mod-2 space and the table of
    images of all 2^10 vectors under the restriction mod 2.

    M fixes the canonical class K, a unit vector, so char(M) = (x - 1)
    char(M|E10) and the restriction's char poly is the quotient of M's
    by x - 1; as 1 is the only rational root of (x - 1) p10, that holds
    on every basis the restriction accepts (docs/report-schema.md)."""
    need = _run_objects({
        "basis": lambda need: lat.e10_basis(
            _read_data(data_dir, "e10_basis.dat")),
        "gram": lambda need: lat.gram_of(need("basis")),
        "cox": lambda need: lat.coxeter_matrix(),
        "restriction": lambda need: lat.restrict_to_basis(
            need("cox"), need("basis"), need("gram")),
        "cox_poly": lambda need: lat.char_poly(need("cox")),
        "char_poly": lambda need: lat.divide_root(need("cox_poly"), 1),
        "pairing": lambda need: lat.halfcone_pairing(
            need("restriction"), need("basis"), need("gram")),
        "space": lambda need: m2.Mod2QuadSpace(need("gram")),
        "images": lambda need: m2.mat2_images(
            m2.mat2_from_int(need("restriction"))),
    })
    return [("lattice.coxeter", lambda: _lattice_coxeter(
                need("cox"), need("gram"), need("char_poly"),
                need("cox_poly"), need("pairing"))),
            ("lattice.salem", lambda: _lattice_salem(precision,
                                                     need("cox_poly"))),
            ("lattice.mod2", lambda: _lattice_mod2(
                need("gram"), need("restriction"), need("char_poly"),
                need("space"), need("images"), need("pairing"))),
            ("lattice.lagrangians", lambda: _lattice_lagrangians(
                need("images"), need("space")))]
