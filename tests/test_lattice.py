import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import salemsurf.lattice as lat
from salemsurf.errors import InvariantViolation, NoSolution
from salemsurf.lattice import (ambient_gram, canonical_class, char_poly,
                               coxeter_matrix, dynamical_degree,
                               e10_parity_check, gram_of, ip_add, ip_divmod,
                               ip_gcd, ip_mul, is_isometry_of,
                               is_reciprocal, lehmer_polynomial,
                               mat_add, mat_identity, mat_mul, mat_scale,
                               mat_vec, real_roots, reference_interior_vector,
                               salem_certify, sign_vector_target,
                               trace_polynomial, trace_reexpand,
                               weyl2_membership)
from salemsurf.mod2space import mod2_reduce_and_factor

P10 = lehmer_polynomial()


def _mid(iv):
    return float((iv[0] + iv[1]) / 2)


def test_integer_poly_helpers():
    p = [1, 2, 3]
    q = [4, 5]
    assert ip_add(p, q) == [5, 7, 3]
    prod = ip_mul(p, q)
    quo, rem = ip_divmod([Fraction(c) for c in prod],
                         [Fraction(c) for c in q])
    assert quo == [1, 2, 3] and not rem
    assert ip_gcd(prod, q) == [Fraction(4, 5), Fraction(1)] or \
        ip_gcd(prod, q)[-1] != 0  # monic up to normalisation, nonzero


def test_coxeter_shape_and_action():
    w = coxeter_matrix()
    assert len(w) == 11 and all(len(r) == 11 for r in w)
    e4 = [1 if i == 5 else 0 for i in range(11)]  # exceptional e4 slot
    e5 = [1 if i == 6 else 0 for i in range(11)]
    assert list(mat_vec(w, e4)) == e5
    k = canonical_class()
    assert tuple(mat_vec(w, k)) == tuple(k)
    assert is_isometry_of(w, ambient_gram())


def test_char_poly_identity():
    assert char_poly(mat_identity(3)) == [-1, 3, -3, 1]


def test_cayley_hamilton():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randrange(2, 5)
        m = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        p = char_poly(m)
        acc = [[0] * n for _ in range(n)]
        for c in reversed(p):
            acc = mat_add(mat_mul(acc, m), mat_scale(mat_identity(n), c))
        assert all(v == 0 for row in acc for v in row)


def test_char_poly_of_coxeter_is_lehmer_times_unit(e10_restriction):
    full = char_poly(coxeter_matrix())
    assert ip_mul([-1, 1], P10) == full
    _, restr = e10_restriction
    assert char_poly(restr) == P10


def test_char_poly_against_sympy(e10_restriction):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(41)
    mats = [coxeter_matrix(), e10_restriction[1]]
    for n in (1, 2, 3, 4, 6, 8, 11):
        mats.append([[rng.randint(-9, 9) for _ in range(n)]
                     for _ in range(n)])
    for m in mats:
        want = sympy.Matrix(m).charpoly(x).all_coeffs()[::-1]
        assert char_poly(m) == [int(c) for c in want]


def test_lattice_loads_no_finite_field_code():
    """The lattice layer is integer and rational only; a fresh
    interpreter that imports it loads no GF(2^m) or polynomial-ring
    module."""
    code = ("import sys, salemsurf.lattice; "
            "print(' '.join(sorted(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(lat.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "salemsurf.lattice" in out
    for name in ("gf2m", "unipoly", "multipoly"):
        assert f"salemsurf.{name}" not in out


def test_lehmer_polynomial_shape():
    assert len(P10) == 11
    assert P10[0] == P10[-1] == 1
    assert is_reciprocal(P10)
    assert not is_reciprocal([1, 2, 3])


def test_real_roots_quadratics():
    ivs = real_roots([-2, 0, 1], Fraction(1, 10 ** 7))
    assert len(ivs) == 2
    assert abs(_mid(ivs[0]) + math.sqrt(2)) < 1e-6
    assert abs(_mid(ivs[1]) - math.sqrt(2)) < 1e-6
    assert real_roots([1, 0, 1]) == []
    with pytest.raises(InvariantViolation, match="shares a factor"):
        real_roots([1, -2, 1])


def test_real_roots_of_degree10():
    ivs = real_roots(P10, Fraction(1, 10 ** 9))
    assert len(ivs) == 2
    lam = _mid(ivs[1])
    assert abs(lam - 1.17628081841) < 1e-9
    assert abs(_mid(ivs[0]) * lam - 1.0) < 1e-8  # reciprocal pair


def test_real_roots_against_sympy_intervals():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(20251121)
    polys = [P10, trace_polynomial(P10),
             ip_mul([-3, 2], [-2, 0, 1]),   # a rational root at 3/2
             ip_mul([-1, 3], [-2, 0, 1])]   # 1/3 near sqrt(2)
    while len(polys) < 9:
        p = [rng.randint(-20, 20) for _ in range(rng.randint(3, 9))]
        if p[-1] and sympy.Poly(p[::-1], x).is_sqf:
            polys.append(p)
    widths = [Fraction(5), Fraction(1), Fraction(1, 2), Fraction(1, 10 ** 12)]
    for p, width in itertools.product(polys, widths):
        sp = sympy.Poly(p[::-1], x)
        ivs = real_roots(p, width)
        assert len(ivs) == sp.count_roots()
        for lo, hi in ivs:
            assert hi - lo <= width
            a = sympy.Rational(lo.numerator, lo.denominator)
            b = sympy.Rational(hi.numerator, hi.denominator)
            # (lo, hi] is half-open; a rational root r comes as (r, r)
            inside = sp.count_roots(a, b) - (lo < hi and sp.eval(a) == 0)
            assert inside == 1, (p, width, lo, hi)
        for (_, hi), (lo, hi2) in zip(ivs, ivs[1:]):
            assert hi < lo or (hi == lo < hi2), (p, width, ivs)


def test_salem_signs_do_not_depend_on_width():
    with_unit_factor = [ip_mul([1, -1, -1, -1, 1], [1, 0, 1]),
                        ip_mul(P10, [1, -1, 1])]
    for p in with_unit_factor:
        seen = set()
        for width in (Fraction(5), Fraction(1), Fraction(1, 2),
                      Fraction(1, 10 ** 9)):
            signs = salem_certify(p, width).interior_signs
            assert all(a == -b for a, b in zip(signs, signs[1:])), signs
            seen.add(signs)
        assert len(seen) == 1, (p, seen)


def test_trace_polynomial_small():
    assert trace_polynomial([1, 0, 1]) == [0, 1]
    assert trace_polynomial([1, -2, 1]) == [-2, 1]
    with pytest.raises(NoSolution, match="not palindromic"):
        trace_polynomial([1, 2, 3])
    with pytest.raises(NoSolution, match="needs even degree"):
        trace_polynomial([0, 1])


def test_trace_polynomial_degree10():
    r = trace_polynomial(P10)
    assert r == [3, 4, -5, -5, 1, 1]
    assert trace_reexpand(r) == P10


def test_salem_certificate():
    cert = salem_certify(P10)
    assert len(cert.trace_intervals) == 5
    t0 = cert.trace_intervals[-1]
    assert abs(_mid(t0) - 2.02642) < 1e-4
    assert len(cert.interior_signs) == 4
    assert sum(1 for s in cert.interior_signs if s > 0) == 2
    lam = _mid(cert.lambda_interval)
    assert abs(lam - 1.17628081841) < 1e-8
    with pytest.raises(NoSolution, match="do not split"):
        salem_certify([1, 1, 1])  # both roots on the unit circle


def test_sign_vector_target():
    assert sign_vector_target(salem_certify(lehmer_polynomial())) \
        == (-1, -1, 1, 1)


def test_dynamical_degree_small_cases():
    assert dynamical_degree(mat_identity(3)) == (1, 1)
    assert dynamical_degree([[2, 0], [0, 1]]) == (2, 2)
    assert dynamical_degree([[3, 0], [0, -5]]) == (5, 5)
    with pytest.raises(NoSolution,
                       match="neither totally real nor Salem"):
        dynamical_degree([[0, -1], [1, 0]])  # rotation, radius not real


def test_dynamical_degree_of_coxeter():
    lo, hi = dynamical_degree(coxeter_matrix())
    assert hi - lo <= Fraction(1, 10 ** 9)
    assert abs(float((lo + hi) / 2) - 1.176280818413943) < 2e-9


def test_mod2_factorisation():
    assert mod2_reduce_and_factor([-1, 0, 1]) == [([1, 1], 2)]
    assert mod2_reduce_and_factor([-1, 1]) == [([1, 1], 1)]
    facs = mod2_reduce_and_factor(P10)
    assert facs == [([1, 0, 1, 1, 1, 1], 1), ([1, 1, 1, 1, 0, 1], 1)]
    a, b = facs[0][0], facs[1][0]
    assert a == b[::-1]


def test_mod2_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(43)
    polys = [P10, ip_mul([-1, 1], P10)]
    for _ in range(40):
        polys.append([rng.randint(-5, 5) for _ in range(rng.randint(1, 14))]
                     + [rng.choice((-3, -1, 1, 5))])
    squares = [ip_mul(p, p) for p in polys[:8]]  # f' = 0 mod 2
    polys += squares + [ip_mul(p, p) for p in squares[:4]]
    for p in polys:
        expr = sum(c * x ** i for i, c in enumerate(p))
        _, facs = sympy.Poly(expr, x, modulus=2).factor_list()
        want = sorted(([int(c) % 2 for c in f.all_coeffs()[::-1]], k)
                      for f, k in facs)
        assert sorted(mod2_reduce_and_factor(p)) == want


def test_parity_check(e10_basis):
    assert e10_parity_check(gram_of(e10_basis))
    assert not e10_parity_check(ambient_gram())
    # Cartan matrix of E8: even diagonal, so doubled norms lie in 4Z
    e8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)):
        e8[i][j] = e8[j][i] = -1
    assert e10_parity_check(e8)


def test_weyl2_membership(e10_restriction):
    basis, restr = e10_restriction
    ge = gram_of(basis)
    assert weyl2_membership(mat_identity(10), ge)
    assert not weyl2_membership(restr, ge)
    assert ge[0][0] == -2
    # reflection in the first basis vector v: x -> x + (x . v) v
    refl = [[int(i == j) + (ge[0][j] if i == 0 else 0) for j in range(10)]
            for i in range(10)]
    assert is_isometry_of(refl, ge)
    assert not weyl2_membership(refl, ge)
    with pytest.raises(InvariantViolation,
                       match="does not preserve the sublattice form"):
        weyl2_membership([[2 if i == j else 0 for j in range(10)]
                          for i in range(10)], ge)


def test_reference_vector_is_interior(e10_basis):
    ge = gram_of(e10_basis)
    u = reference_interior_vector()
    norm = sum(u[i] * ge[i][j] * u[j]
               for i in range(10) for j in range(10))
    assert norm == 10
