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
from salemsurf import LEHMER
from salemsurf.errors import DomainError, InvariantViolation, NoSolution
from salemsurf.lattice import (ambient_gram, canonical_class, char_poly,
                               coxeter_matrix, deflate, divide_root,
                               dynamical_degree,
                               e10_parity_check, gram_of, halfcone_pairing,
                               ip_add, ip_mul, is_isometry_of,
                               is_reciprocal, mat_mul, mat_vec, real_roots,
                               salem_certify, sign_vector_target,
                               trace_polynomial, trace_reexpand,
                               weyl2_membership)
from salemsurf.mod2space import mod2_reduce_and_factor

P10 = list(LEHMER)


def _mid(iv):
    return float((iv[0] + iv[1]) / 2)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_integer_poly_helpers():
    p = [1, 2, 3]
    q = [4, 5]
    assert ip_add(p, q) == [5, 7, 3]
    assert ip_mul(p, q) == [4, 13, 22, 15]


def test_coxeter_shape_and_action():
    w = coxeter_matrix()
    assert len(w) == 11 and all(len(r) == 11 for r in w)
    e4 = [1 if i == 5 else 0 for i in range(11)]  # exceptional e4 slot
    e5 = [1 if i == 6 else 0 for i in range(11)]
    assert list(mat_vec(w, e4)) == e5
    k = canonical_class()
    assert tuple(mat_vec(w, k)) == tuple(k)
    assert is_isometry_of(w, ambient_gram())


def test_coxeter_matrix_is_the_product_of_its_reflections():
    """M = s_{e1-e2} s_{e2-e3} s_{e3-e4} s_{h-e1-e2-e3} s_{e4-e5} ...
    s_{e9-e10}, here as a product of 11x11 reflection matrices
    I + r (G r)^T, equals the isometry written out column by column:
    h -> 2h - e2 - e3 - e4, e1 -> h - e3 - e4, e2 -> h - e2 - e4,
    e3 -> h - e2 - e3, e_n -> e_{n+1} for 4 <= n <= 9, e10 -> e1."""
    def vec(*terms):
        v = [0] * 11
        for i, c in terms:
            v[i] += c
        return v

    cols = [vec((0, 2), (2, -1), (3, -1), (4, -1)),
            vec((0, 1), (3, -1), (4, -1)), vec((0, 1), (2, -1), (4, -1)),
            vec((0, 1), (2, -1), (3, -1)),
            *(vec((n + 1, 1)) for n in range(4, 10)), vec((1, 1))]
    written = tuple(zip(*cols))
    roots = [vec((1, 1), (2, -1)), vec((2, 1), (3, -1)),
             vec((3, 1), (4, -1)), vec((0, 1), (1, -1), (2, -1), (3, -1)),
             *(vec((n, 1), (n + 1, -1)) for n in range(4, 10))]
    product = _identity(11)
    for r in roots:
        dual = mat_vec(ambient_gram(), r)
        product = mat_mul(product, [[int(i == j) + r[i] * dual[j]
                                     for j in range(11)] for i in range(11)])
    assert coxeter_matrix() == written == product


def test_char_poly_identity():
    assert char_poly(_identity(3)) == [-1, 3, -3, 1]


def test_cayley_hamilton():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randrange(2, 5)
        m = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        p = char_poly(m)
        acc = [[0] * n for _ in range(n)]
        for c in reversed(p):  # Horner: acc <- acc M + c I
            acc = [[x + c * (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(mat_mul(acc, m))]
        assert all(v == 0 for row in acc for v in row)


def test_char_poly_of_coxeter_is_lehmer_times_unit(e10_restriction):
    full = char_poly(coxeter_matrix())
    assert ip_mul([-1, 1], P10) == full
    _, restr = e10_restriction
    assert char_poly(restr) == P10


def test_divide_root_is_exact_or_raises():
    """p / (x - r) times x - r is p back; a non-root, and a constant
    with no root at all, raise. deflate divides with the same helper."""
    full = char_poly(coxeter_matrix())
    assert divide_root(full, 1) == P10
    rng = random.Random(3)
    for _ in range(20):
        q = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))] + [1]
        r = rng.randrange(-3, 4)
        assert divide_root(ip_mul([-r, 1], q), r) == q
    for p, r in ((P10, 1), (P10, -1), ([5], 1), ([0, 1], 2)):
        with pytest.raises(DomainError, match=f"{r} is not a root"):
            divide_root(p, r)
    assert deflate(ip_mul(ip_mul([-1, 1], [1, 1]), ip_mul([1, 1], P10))) \
        == P10


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
    assert len(LEHMER) == 11
    assert LEHMER[0] == LEHMER[-1] == 1
    assert is_reciprocal(LEHMER)
    assert not is_reciprocal([1, 2, 3])


def test_real_roots_quadratics():
    ivs = real_roots([-2, 0, 1], Fraction(1, 10 ** 7))
    assert len(ivs) == 2
    assert abs(_mid(ivs[0]) + math.sqrt(2)) < 1e-6
    assert abs(_mid(ivs[1]) - math.sqrt(2)) < 1e-6
    assert real_roots([1, 0, 1], Fraction(1)) == []
    with pytest.raises(InvariantViolation, match="shares a factor"):
        real_roots([1, -2, 1], Fraction(1))


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
            # (lo, hi] is half-open; a root that bisection meets, at an
            # isolating right end or a halving point, comes as (r, r)
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


def test_trace_polynomial_reexpands_to_its_input():
    """x^d R(x + 1/x) is palindromic for every R, and the triangular
    solve matches the top half of p, so any palindromic even-degree p
    comes back from its trace polynomial unchanged."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # p_0 .. p_d with p_0 = p_2d nonzero; the rest mirrors them
    halves = st.lists(st.integers(-50, 50), min_size=1, max_size=9).filter(
        lambda h: h[0] != 0)

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(halves)
    def check(h):
        p = h + h[-2::-1]
        assert trace_reexpand(trace_polynomial(p)) == p

    check()


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


@pytest.mark.parametrize("p,message", [
    # x^4 + 3x^2 + 1: trace polynomial t^2 + 1
    ([1, 0, 3, 0, 1], r"^trace polynomial has 0 real roots, needs 2$"),
    # (x - 1)^2: trace polynomial t - 2
    ([1, -2, 1], r"^trace root at \+/-2 \(cyclotomic boundary\)$")])
def test_salem_certify_refuses_a_trace_polynomial_off_the_interval(
        p, message):
    with pytest.raises(NoSolution, match=message):
        salem_certify(p)


def test_sign_vector_target():
    assert sign_vector_target(salem_certify(list(LEHMER))) \
        == (-1, -1, 1, 1)


def test_dynamical_degree_small_cases():
    width = Fraction(1, 10 ** 9)
    for p in (char_poly(_identity(3)), [1, 2, 1], [-1, 0, 1]):
        assert dynamical_degree(p, width) == (1, 1)
    # x^2 - 3x + 1: the quadratic Salem number (3 + sqrt 5) / 2
    lo, hi = dynamical_degree(char_poly([[2, 1], [1, 1]]), width)
    assert 3 / 2 < lo and hi - lo <= width
    assert (2 * lo - 3) ** 2 <= 5 <= (2 * hi - 3) ** 2
    # a factor x^2 + 1 off the real line: an interval of the same width
    # around the same root (Sturm isolation starts from another bound)
    lam = real_roots(P10, width)[-1]
    assert dynamical_degree(P10, width) == lam
    lo, hi = dynamical_degree(ip_mul(P10, [1, 0, 1]), width)
    assert hi - lo <= width and lo <= lam[1] and lam[0] <= hi
    # refused: diag(2, 1), no isometry of a hyperbolic lattice, and the
    # rotation, whose roots are roots of unity other than +-1
    for m in ([[2, 0], [0, 1]], [[0, -1], [1, 0]]):
        with pytest.raises(NoSolution):
            dynamical_degree(char_poly(m), width)
    # so is a repeated root other than +-1
    with pytest.raises(NoSolution):
        dynamical_degree(ip_mul(P10, P10), width)


def test_dynamical_degree_of_coxeter():
    lo, hi = dynamical_degree(char_poly(coxeter_matrix()))
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

    def member(m):
        return weyl2_membership(m, ge, halfcone_pairing(m, basis, ge))

    one = _identity(10)
    assert halfcone_pairing(one, basis, ge) == 10  # the norm of u
    assert member(one)
    assert halfcone_pairing(restr, basis, ge) > 0
    assert not member(restr)
    # -1 is an isometry and the identity mod 2, but swaps the half-cones;
    # the verdict reads the pairing it is given
    minus = [[-x for x in row] for row in one]
    assert halfcone_pairing(minus, basis, ge) == -10
    assert not member(minus)
    assert not weyl2_membership(one, ge, -10)
    # 10h - 3(e1+...+e10) has coordinate 7 on the second bundled basis
    # vector, so it leaves the index-2 sublattice where that one doubles
    half = [list(b) for b in basis]
    half[1] = [2 * x for x in half[1]]
    with pytest.raises(InvariantViolation, match="not in the span"):
        halfcone_pairing(one, half, gram_of(half))
    assert ge[0][0] == -2
    # reflection in the first basis vector v: x -> x + (x . v) v
    refl = [[int(i == j) + (ge[0][j] if i == 0 else 0) for j in range(10)]
            for i in range(10)]
    assert is_isometry_of(refl, ge)
    assert not member(refl)
    with pytest.raises(InvariantViolation,
                       match="does not preserve the sublattice form"):
        member([[2 if i == j else 0 for j in range(10)] for i in range(10)])


def _frac_restriction(m, basis):
    """Oracle: the coordinates of each image's projection to the span of
    basis, by Gauss-Jordan over Fraction on the normal equations; None
    when the basis Gram matrix is singular."""
    gram = ambient_gram()

    def pair(u, v):
        return sum(u[k] * gram[k][t] * v[t]
                   for k in range(11) for t in range(11))

    images = [mat_vec(m, b) for b in basis]
    n = len(basis)
    rows = [[Fraction(pair(u, v)) for v in (*basis, *images)] for u in basis]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [r[n:] for r in rows], images


def test_restriction_against_fraction_solve(e10_basis):
    """The fraction-free restriction returns the Fraction solution when
    that solution is integral and the image lies in the span, and
    otherwise raises the message for the reason."""
    rng = random.Random(43)
    cases = [e10_basis]
    for _ in range(5):  # unimodular changes of basis: the same span
        basis = [list(r) for r in e10_basis]
        for _ in range(10):
            i, j = rng.sample(range(10), 2)
            k = rng.choice((-2, -1, 1, 2))
            basis[i] = [x + k * y for x, y in zip(basis[i], basis[j])]
        cases.append([tuple(r) for r in basis])
    for _ in range(30):
        basis = [list(r) for r in e10_basis]
        for _ in range(rng.randrange(1, 3)):
            basis[rng.randrange(10)][rng.randrange(11)] += rng.choice(
                (-2, -1, 1, 2))
        cases.append([tuple(r) for r in basis])
    seen = []
    for basis in cases:
        want = _frac_restriction(coxeter_matrix(), basis)
        if want is None:
            reason = "the basis Gram matrix is singular"
        else:
            x, images = want
            integral = all(v.denominator == 1 for r in x for v in r)
            exact = integral and all(
                sum(basis[i][k] * x[i][j] for i in range(10)) == images[j][k]
                for j in range(10) for k in range(11))
            reason = None if exact else "image leaves the sublattice"
        seen.append(reason)
        if reason is None:
            got = lat.restrict_to_basis(coxeter_matrix(), basis,
                                        gram_of(basis))
            assert [list(r) for r in got] == x
        else:
            with pytest.raises(InvariantViolation, match=reason):
                lat.restrict_to_basis(coxeter_matrix(), basis,
                                      gram_of(basis))
    assert seen[:6] == [None] * 6
    assert set(seen[6:]) == {"the basis Gram matrix is singular",
                             "image leaves the sublattice"}
