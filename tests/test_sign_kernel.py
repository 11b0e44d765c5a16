"""Property tests of the exact integer kernel behind the Sturm isolation,
against plain Fraction arithmetic."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from salemsurf.lattice import (_sign_at, _sturm_chain, ip_deriv,  # noqa: E402
                               ip_divmod, ip_eval, ip_gcd, ip_mul, ip_trim)

coeffs = st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=14)
rationals = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                      st.integers(1, 10 ** 9))
# small coefficients with many zeros make remainders that drop degree by
# more than one, where a wrongly signed pseudo-division would show
sparse = st.lists(st.integers(-3, 3), min_size=2, max_size=9).map(
    ip_trim).filter(lambda p: len(p) >= 2)


@given(coeffs, rationals)
@example([0, 0, 1], Fraction(0))
@example([5, -3], Fraction(0))
@example([-2, 0, 1], Fraction(-3, 2))
@example([], Fraction(7, 3))
def test_sign_at_matches_fraction_evaluation(p, x):
    v = ip_eval(p, Fraction(x))
    assert _sign_at(p, x) == (v > 0) - (v < 0)


def _rational_sturm_chain(p):
    chain = [[Fraction(c) for c in p]]
    if ip_deriv(p):
        chain.append([Fraction(c) for c in ip_deriv(p)])
    while len(chain[-1]) > 1:
        _, r = ip_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


@given(sparse)
@example([1, 0, 0, -1, 0, -2])
def test_sturm_chain_is_a_positive_rescaling(p):
    ints = _sturm_chain(p)
    rats = _rational_sturm_chain(p)
    assert len(ints) == len(rats)
    for a, b in zip(ints, rats):
        assert len(a) == len(b)
        scale = a[-1] / b[-1]
        assert scale > 0
        assert all(x == scale * y for x, y in zip(a, b))


def _divides(d, p):
    return not ip_divmod([Fraction(c) for c in p], d)[1]


@given(sparse, sparse, sparse)
def test_gcd_is_a_common_divisor_taking_in_the_shared_factor(a, b, c):
    f, g = ip_mul(a, c), ip_mul(b, c)
    d = ip_gcd(f, g)
    assert d[-1] > 0
    assert _divides(d, f) and _divides(d, g) and _divides(c, d)
