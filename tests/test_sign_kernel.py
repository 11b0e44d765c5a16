"""Property tests of the exact integer kernel behind the Sturm isolation,
against plain Fraction arithmetic."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from salemsurf import LEHMER  # noqa: E402
from salemsurf.lattice import (_bisect, _sign_at, _sturm_chain,  # noqa: E402
                               ip_deriv, ip_eval, ip_mul, ip_trim,
                               real_roots)

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


def _fraction_rem(p, q):
    """The remainder of p by q over Q, in plain Fraction long division;
    q has a nonzero leading coefficient."""
    r = [Fraction(c) for c in p]
    while len(r) >= len(q):
        c = r[-1] / q[-1]
        k = len(r) - len(q)
        for i, b in enumerate(q):
            r[k + i] -= c * b
        r = ip_trim(r)
    return r


def _rational_sturm_chain(p):
    chain = [[Fraction(c) for c in p]]
    if ip_deriv(p):
        chain.append([Fraction(c) for c in ip_deriv(p)])
    while len(chain[-1]) > 1:
        r = _fraction_rem(chain[-2], chain[-1])
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


def _fraction_bisect(p, lo, hi, precision):
    """lattice._bisect on plain Fractions: a Fraction midpoint at every
    halving, decided by the exact value of p there against its sign at
    hi; a midpoint where p vanishes is returned as (mid, mid)."""
    def sign(x):
        v = ip_eval(p, x)
        return (v > 0) - (v < 0)

    s_hi = sign(hi)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if sign(mid) == 0:
            return mid, mid
        if sign(mid) == -s_hi:
            lo = mid
        else:
            hi = mid
    return lo, hi


WIDTHS = [Fraction("1e-9"), Fraction("1e-30"), Fraction(5), Fraction(1)]
# (x^2 - 2)(3x - 1): two irrational roots and the rational root 1/3,
# which no dyadic subdivision of (-3, 3] or halving point meets
MIXED = ip_mul([-2, 0, 1], [-1, 3])


@pytest.mark.parametrize("p, count", [(list(LEHMER), 2), (MIXED, 3)],
                         ids=["p10", "mixed"])
@pytest.mark.parametrize("width", WIDTHS, ids=str)
def test_bisect_matches_fraction_bisection(p, count, width):
    """From every isolating interval of p, as real_roots finds it before
    any halving, the integer bisection ends where the Fraction one does,
    at each width."""
    intervals = real_roots(p, Fraction(10 ** 6))
    assert len(intervals) == count
    assert all(lo < hi for lo, hi in intervals)
    for lo, hi in intervals:
        assert _bisect(p, lo, hi, width) == _fraction_bisect(p, lo, hi,
                                                             width)


@given(coeffs, rationals, rationals.filter(lambda x: x > 0),
       st.sampled_from(WIDTHS))
def test_bisect_matches_fraction_bisection_on_any_interval(p, lo, span,
                                                           width):
    """The halving rule alone fixes both ends, whether or not (lo, hi]
    isolates a root, so the two bisections agree on any interval."""
    hi = lo + span
    assert _bisect(p, lo, hi, width) == _fraction_bisect(p, lo, hi, width)


def test_real_roots_finds_roots_by_bisection_alone():
    """A rational root comes back exact only where bisection meets it.
    (2x - 3)(3x - 1) has B = 17/6, and neither 3/2 nor 1/3 is a point
    of the grid (17/6) k / 2^j, so both come back as intervals of the
    requested width with no root at their right ends. In (2x + 1)(3x - 1)
    (B = 2) the second halving of (-2, 0] is -1/2; in x(x^2 - 2) the
    subdivision isolates 0 as (-3/2, 0]: both come back exact."""
    width = Fraction(1, 10 ** 6)
    p = ip_mul([-3, 2], [-1, 3])
    ivs = real_roots(p, width)
    for (lo, hi), r in zip(ivs, (Fraction(1, 3), Fraction(3, 2))):
        assert lo < r < hi and hi - lo <= width
    # a halving point that is the root ends the bisection there
    assert _bisect(p, Fraction(1), Fraction(2), width) == (Fraction(3, 2),) * 2
    half = Fraction(-1, 2)
    assert real_roots(ip_mul([1, 2], [-1, 3]), width)[0] == (half, half)
    assert real_roots([0, -2, 0, 1], width)[1] == (0, 0)
