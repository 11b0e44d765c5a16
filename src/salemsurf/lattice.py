"""Exact lattice arithmetic over the integers and rationals (reduction
mod 2 lives in mod2space): the rank-11 hyperbolic lattice, a fixed
Coxeter-type isometry, characteristic polynomials, Sturm real-root
isolation by exact integer sign evaluation, Salem certification through
the trace polynomial, and spectral-radius enclosures.

Integer polynomials are plain lists of ints, low degree first; matrices
are tuples of row tuples acting on column vectors. The ambient bilinear
form is diag(1, -1, ..., -1) on the ordered basis (h, e1, ..., e10);
the even sublattice orthogonal to the canonical class uses the basis
stored in data/e10_basis.dat (rows are ambient coordinates).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from . import content_lines
from .errors import DomainError, InvariantViolation, NoSolution, ParseError

# interval width for real-root isolation when no precision is given: the
# `verify --precision` default
DEFAULT_PRECISION = Fraction(1, 10 ** 9)

# ---------------------------------------------------------------------------
# integer polynomials, low degree first


def ip_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def ip_add(p, q):
    n = max(len(p), len(q))
    return ip_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                    for i in range(n)])


def ip_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return ip_trim(out)


def ip_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ip_deriv(p):
    return ip_trim([i * c for i, c in enumerate(p)][1:])


def _primitive_part(p):
    """p divided by the gcd of its coefficients; signs are kept."""
    g = 0
    for c in p:
        g = gcd(g, c)
    return [c // g for c in p] if g > 1 else p


def _pos_rem(a, b):
    """A positive multiple of the remainder of a by b over Q.

    Pseudo-division that scales by |lc(b)| rather than lc(b), so every
    step multiplies by a positive integer and signs are kept.
    """
    r = list(a)
    lb = b[-1]
    mag, sgn = abs(lb), (1 if lb > 0 else -1)
    while len(r) >= len(b):
        k = len(r) - len(b)
        lr = r[-1] * sgn
        r = [mag * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= lr * c
        r = ip_trim(r)
    return _primitive_part(r)


def is_reciprocal(p):
    p = ip_trim(p)
    return bool(p) and p == p[::-1]


# ---------------------------------------------------------------------------
# integer matrices (tuples of rows)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise InvariantViolation("matrix product shapes")
    bt = list(zip(*b))
    return tuple(tuple(sum(ra[t] * cb[t] for t in range(k)) for cb in bt)
                 for ra in a)


def mat_vec(a, v):
    if len(a[0]) != len(v):
        raise InvariantViolation("matrix-vector shapes")
    return tuple(sum(r[i] * v[i] for i in range(len(v))) for r in a)


def mat_transpose(a):
    return tuple(zip(*a))


def char_poly(m):
    """Exact characteristic polynomial, low degree first, monic.

    Faddeev-LeVerrier; every division by k is exact over the integers.
    Each step N <- M (N + c I) = M N + c M sums over the nonzero entries
    of M's rows only, kept as (column, value) pairs.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise InvariantViolation("char_poly needs a square matrix")
    sparse = [[(t, v) for t, v in enumerate(r) if v] for r in m]
    nmat = m
    cs = []
    for k in range(1, n + 1):
        ck = -sum(nmat[i][i] for i in range(n))
        if ck % k:
            raise DomainError("Faddeev-LeVerrier division not exact")
        ck //= k
        cs.append(ck)
        if k < n:
            nmat = [[ck * x + sum(v * nmat[t][j] for t, v in row)
                     for j, x in enumerate(r)] for r, row in zip(m, sparse)]
    desc = [1] + cs  # descending: x^n, x^(n-1), ..., const
    return desc[::-1]


def is_isometry_of(m, gram):
    mt = mat_transpose(m)
    return mat_mul(mat_mul(mt, gram), m) == gram


# ---------------------------------------------------------------------------
# the hyperbolic lattice and its fixed isometry


def ambient_gram():
    """diag(1, -1, ..., -1) on (h, e1, ..., e10)."""
    return tuple(tuple((1 if i == 0 else -1) if i == j else 0
                       for j in range(11)) for i in range(11))


def coxeter_matrix():
    """The order-infinite isometry used throughout, as an 11x11 matrix.

    The product of the reflections s_r(v) = v + (v.r) r in the roots
    e1-e2, e2-e3, e3-e4, h-e1-e2-e3, e4-e5, ..., e9-e10, in that order,
    applied right to left to each of h, e1, ..., e10 for its column:
    h -> 2h - e2 - e3 - e4, e1 -> h - e3 - e4, e2 -> h - e2 - e4,
    e3 -> h - e2 - e3, e_n -> e_{n+1} for 4 <= n <= 9, e10 -> e1.
    """
    roots = [tuple(1 if j == a else -1 if j in b else 0 for j in range(11))
             for a, b in [(1, {2}), (2, {3}), (3, {4}), (0, {1, 2, 3}),
                          *((n, {n + 1}) for n in range(4, 10))]]
    cols = []
    for i in range(11):
        v = tuple(int(j == i) for j in range(11))
        for r in reversed(roots):
            d = v[0] * r[0] - sum(a * b for a, b in zip(v[1:], r[1:]))
            v = tuple(a + d * b for a, b in zip(v, r))
        cols.append(v)
    return tuple(zip(*cols))


def canonical_class():
    """-3h + e1 + ... + e10, fixed by the isometry."""
    return tuple([-3] + [1] * 10)


def e10_basis(text):
    """Basis of the even rank-10 sublattice orthogonal to the fixed class.

    Rows of the text of an e10_basis.dat file, ambient coordinates. The
    file is part of the model data so reports can show exactly which
    basis was used.
    """
    rows = []
    for ln in content_lines(text):
        row = []
        for x in ln.split():
            try:
                row.append(int(x))
            except ValueError:
                raise ParseError(
                    f"non-integer basis entry {x!r} in row {ln!r}") from None
        rows.append(tuple(row))
    if len(rows) != 10 or any(len(r) != 11 for r in rows):
        raise InvariantViolation("basis file must hold 10 rows of 11 entries")
    return rows


def gram_of(vectors):
    return _pairings(vectors, vectors, ambient_gram())


def _pairings(us, vs, gram):
    """The pairings (u, v) under gram, one row per u."""
    duals = [mat_vec(gram, v) for v in vs]
    return tuple(tuple(sum(x * y for x, y in zip(u, d)) for d in duals)
                 for u in us)


def _basis_coordinates(basis, ge, vectors, outside):
    """The coordinates in `basis` of each ambient vector in `vectors`,
    one column per vector; InvariantViolation(outside) when a vector is
    not an integer combination of the basis.

    The vectors are paired against the basis and solved with its Gram
    matrix ge by fraction-free Gauss-Jordan (Bareiss): each division is
    exact and leaves d times the solution, d = +-det ge. The solution
    is the projection of each vector to the span, so it must be
    integral and its basis combination equal the vector.
    """
    n = len(basis)
    rows = [[*g, *p]
            for g, p in zip(ge, _pairings(basis, vectors, ambient_gram()))]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            raise InvariantViolation("the basis Gram matrix is singular")
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        d = top[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(d * x - f * y) // prev
                           for x, y in zip(rows[i], top)]
        prev = d
    out = tuple(tuple(x // prev for x in r[n:]) for r in rows)
    # the basis is independent (its Gram matrix is not singular), so an
    # integer combination equal to the vector is the projection itself
    if any(x % prev for r in rows for x in r[n:]) or mat_mul(
            mat_transpose(basis), out) != mat_transpose(vectors):
        raise InvariantViolation(outside)
    return out


def restrict_to_basis(m, basis, ge):
    """Matrix of m on the span of `basis`, whose Gram matrix is ge,
    integer entries enforced: column j holds the coordinates of the
    image of basis[j]."""
    return _basis_coordinates(basis, ge, [mat_vec(m, b) for b in basis],
                              "image leaves the sublattice")


def halfcone_pairing(m, basis, ge):
    """(m u, u) under ge, u the coordinates in `basis` of the norm-10
    vector 10h - 3(e1+...+e10), interior to the chosen half-cone:
    positive when m maps the half-cone that u lies in to itself."""
    u = [r[0] for r in _basis_coordinates(
        basis, ge, [(10,) + (-3,) * 10],
        "10h - 3(e1+...+e10) is not in the span of the basis")]
    return _pairings([mat_vec(m, u)], [u], ge)[0][0]


# ---------------------------------------------------------------------------
# Sturm sequences on integer polynomials


def _sign_num(p, n, d):
    """Sign of the integer polynomial p at the rational n/d, d > 0.

    Integer Horner on sum c_i n^i d^(deg - i) = d^deg p(n/d), which has
    the sign of p(n/d) because d^deg > 0; no Fraction is built.
    """
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _sign_at(p, x):
    """Sign of the integer polynomial p at the rational (or int) x."""
    return _sign_num(p, x.numerator, x.denominator)


def _sturm_chain(p):
    """Sturm sequence of p; each entry is a primitive integer list that
    differs from the rational Sturm remainder by a positive factor."""
    chain = [_primitive_part(ip_trim(p))]
    d = ip_deriv(p)
    if d:
        chain.append(_primitive_part(d))
    while len(chain[-1]) > 1:
        r = _pos_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _variations(chain, x):
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_bound(p):
    lead = abs(p[-1])
    return Fraction(1) + max(abs(Fraction(c, lead)) for c in p)


def _count_roots(chain, a, b):
    """Number of distinct real roots in (a, b] of the squarefree first
    chain entry. Zero signs are dropped, so an end may be a root: the
    variation count falls at a root itself, not just past it."""
    return _variations(chain, a) - _variations(chain, b)


def _bisect(p, lo, hi, precision):
    """Halve (lo, hi] until its width is at most precision, keeping the
    half that holds the root. (lo, hi] must hold exactly one root of p,
    a simple one, and hi must not be a root. Each halving is decided by
    the sign at hi: lo moves up only when p(mid) has the opposite sign,
    so lo may be a root of p outside the interval. A midpoint that is
    the root is returned as (mid, mid); otherwise the result has width
    at most precision and its right end is not a root. The ends are
    kept as integer numerators a, b over one denominator d that doubles
    at each halving, and become Fractions only on return."""
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    pn, pd = precision.numerator, precision.denominator
    s_hi = _sign_num(p, b, d)
    while (b - a) * pd > pn * d:
        mid, d = a + b, 2 * d  # (a + b) / 2d is the midpoint
        s_mid = _sign_num(p, mid, d)
        if s_mid == 0:
            return Fraction(mid, d), Fraction(mid, d)
        if s_mid == -s_hi:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return Fraction(a, d), Fraction(b, d)


def _positive(precision):
    """precision as a Fraction; DomainError unless it is positive, since
    bisection down to a width of zero or less never ends."""
    precision = Fraction(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    return precision


def real_roots(p, precision):
    """Isolating rational intervals for all real roots of a squarefree p.

    One Sturm chain on p itself does all the work: it tests that p is
    squarefree, and its counts subdivide (-B, B] until each half-open
    interval (lo, hi] holds one root. Bisection is the only way a root
    is found: an isolating (lo, hi] with p(hi) = 0 is returned as
    (hi, hi), and so is a root that a halving point of _bisect hits.
    Every other root, rational or not, comes back as an interval of
    width at most precision whose right end is not a root. The
    intervals are pairwise disjoint and sorted by position.
    """
    precision = _positive(precision)
    p = ip_trim(p)
    if len(p) <= 1:
        return []
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        raise InvariantViolation("input shares a factor with its derivative")
    intervals = []
    bound = _root_bound(p)
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = _count_roots(chain, lo, hi)
        if n == 1:
            intervals.append((hi, hi) if _sign_at(p, hi) == 0
                             else _bisect(p, lo, hi, precision))
        elif n > 1:
            mid = (lo + hi) / 2
            stack.append((lo, mid))
            stack.append((mid, hi))
    intervals.sort(key=lambda iv: iv[0] + iv[1])
    return intervals


# ---------------------------------------------------------------------------
# trace polynomial and Salem certification


def trace_polynomial(p):
    """The unique R with x^d R(x + 1/x) = p(x), for reciprocal even p.

    Expanding x^d (x + 1/x)^k = sum_j C(k, j) x^(d-k+2j) makes the
    coefficient identities triangular; solve from the top degree down.
    """
    p = ip_trim(p)
    n = len(p) - 1
    if n < 0 or n % 2:
        raise NoSolution("trace polynomial needs even degree")
    if not is_reciprocal(p):
        raise NoSolution("input is not palindromic")
    d = n // 2
    r = [0] * (d + 1)
    # coefficient of x^(d+t) in x^d (x+1/x)^k is C(k, (k+t)/2) when parity fits
    for t in range(d, -1, -1):
        acc = p[d + t]
        for k in range(t + 1, d + 1):
            if (k + t) % 2 == 0:
                acc -= r[k] * comb(k, (k + t) // 2)
        r[t] = acc  # C(t, t) = 1
    return r


def trace_reexpand(r):
    """x^d R(x + 1/x) as an integer polynomial, d = deg R."""
    d = len(r) - 1
    acc = []
    for k, c in enumerate(r):
        if c == 0:
            continue
        # x^(d-k) (x^2+1)^k
        term = [0] * (d - k) + [1]
        sq = [1, 0, 1]
        for _ in range(k):
            term = ip_mul(term, sq)
        acc = ip_add(acc, [c * v for v in term])
    return acc


class SalemCertificate:
    """Outcome of the Salem test on a reciprocal polynomial.

    trace_intervals: isolating rational intervals for the (all real)
    roots of the half-degree trace polynomial R in ascending order;
    interior_signs: sign of R' at each root inside (-2, 2), ascending;
    lambda_interval: enclosure of the root of the input that exceeds 1.
    """

    __slots__ = ("trace_intervals", "interior_signs", "lambda_interval")

    def __init__(self, trace_intervals, interior_signs, lambda_interval):
        self.trace_intervals = trace_intervals
        self.interior_signs = interior_signs
        self.lambda_interval = lambda_interval


def salem_certify(p, precision=DEFAULT_PRECISION):
    """Certify that a reciprocal even-degree p is a Salem polynomial.

    All roots of the trace polynomial R must be real, exactly one above
    2, the rest strictly inside (-2, 2); then the roots of p off the
    real line have modulus exactly 1 and the real ones are lambda > 1
    and its reciprocal. The trace intervals come from real_roots, and
    the sign of R' at each interior root is read off its interval, so
    no second chain is built. lambda is then the only root of p in
    (1, B], B the root bound, and is bisected there on p alone: no
    other root of p is isolated. Its interval has width at most
    precision and lies above 1, or is (lambda, lambda) when a halving
    point hits it. Raises NoSolution when a condition fails and
    DomainError for a precision that is not positive; returns a
    SalemCertificate on success.
    """
    p = ip_trim(p)
    precision = _positive(precision)
    r = trace_polynomial(p)
    d = len(r) - 1
    try:
        ivs = real_roots(r, precision)
    except InvariantViolation as ex:
        raise NoSolution(f"trace polynomial not squarefree: {ex}") from ex
    if len(ivs) != d:
        raise NoSolution(f"trace polynomial has {len(ivs)} real roots, "
                         f"needs {d}")
    if _sign_at(r, 2) == 0 or _sign_at(r, -2) == 0:
        raise NoSolution("trace root at +/-2 (cyclotomic boundary)")
    for k, (lo, hi) in enumerate(ivs):
        # +-2 are not roots, so halving a straddling interval clears them
        while lo < 2 < hi or lo < -2 < hi:
            lo, hi = _bisect(r, lo, hi, (hi - lo) / 2)
        ivs[k] = (lo, hi)
    above = [iv for iv in ivs if iv[0] >= 2]
    below = [iv for iv in ivs if iv[1] <= -2]
    inside = [iv for iv in ivs if -2 <= iv[0] and iv[1] <= 2]
    if len(above) != 1 or below or len(inside) != d - 1:
        raise NoSolution("trace roots do not split as one above 2 "
                         "plus the rest inside (-2, 2)")
    # R' at a simple root has the sign R takes just right of it: at hi,
    # since (lo, hi] holds no other root, or by R' at an exact root
    dr = ip_deriv(r)
    signs = tuple(_sign_at(dr, lo) if lo == hi else _sign_at(r, hi)
                  for lo, hi in inside)
    # The trace root above 2 makes lambda the only root of p in (1, B],
    # and p(1) = R(2) != 0, so bisecting (1, B] isolates it; halving
    # lifts lo above 1 at any requested width, and an exact hit has it.
    lo, hi = _bisect(p, Fraction(1), _root_bound(p), precision)
    while lo <= 1:
        lo, hi = _bisect(p, lo, hi, (hi - lo) / 2)
    return SalemCertificate(ivs, signs, (lo, hi))


def sign_vector_target(cert):
    """The interior trace-root derivative signs of a Salem certificate,
    sorted: (-1, -1, +1, +1) for Lehmer's degree-10 polynomial."""
    return tuple(sorted(cert.interior_signs))


# ---------------------------------------------------------------------------
# spectral radius


def divide_root(p, root):
    """The exact quotient p / (x - root) of a nonconstant integer
    polynomial, by synthetic division; DomainError when root is not a
    root of p."""
    p = ip_trim(p)
    acc, quo = 0, []
    for c in reversed(p[1:]):
        acc = acc * root + c
        quo.append(acc)
    if not quo or acc * root + p[0]:
        raise DomainError(f"{root} is not a root")
    return quo[::-1]


def deflate(charpoly):
    """charpoly with the roots 1 and -1 divided out, multiplicities
    included, by exact synthetic division; a constant if nothing is left."""
    p = ip_trim(charpoly)
    for root in (1, -1):
        while len(p) > 1 and ip_eval(p, root) == 0:
            p = divide_root(p, root)
    return p


def dynamical_degree(charpoly, precision=DEFAULT_PRECISION):
    """Certified rational enclosure of the spectral radius of an
    isometry of a hyperbolic lattice, from its characteristic polynomial.

    For the isometry a surface automorphism induces, that radius is the
    dynamical degree: 1 or a Salem number, quadratic ones included. The
    roots 1 and -1 are divided out (`deflate`); a constant remainder
    gives (1, 1), and any other remainder must pass salem_certify, whose
    lambda_interval is returned. Raises NoSolution otherwise: for a
    repeated root other than +-1, for a remainder whose roots are all
    roots of unity (radius 1, which is then not certified), and for any
    polynomial outside the domain, such as (x - 2)(x - 1).
    """
    p = deflate(charpoly)
    if len(p) <= 1:
        return (Fraction(1), Fraction(1))
    return salem_certify(p, precision).lambda_interval


# ---------------------------------------------------------------------------
# parity checks


def e10_parity_check(gram):
    """True iff the Gram matrix is even, so doubled norms are 0 mod 4.

    Evenness on a basis forces all norms even (the off-diagonal terms
    appear twice), and rescaling the form by 2 puts every norm in 4Z;
    in particular no vector of the rescaled lattice has norm -2.
    """
    n = len(gram)
    if any(len(r) != n for r in gram):
        raise InvariantViolation("gram must be square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        return False
    return all(gram[i][i] % 2 == 0 for i in range(n))


def weyl2_membership(m, ge, pairing):
    """True iff m is in the kernel of reduction mod 2 and keeps the cone.

    m acts on the stored basis of the even sublattice, whose Gram matrix
    is ge; it must preserve ge (else InvariantViolation), reduce to the
    identity mod 2, and keep the half-cone: pairing is
    halfcone_pairing(m, basis, ge), which must be positive.
    """
    if not is_isometry_of(m, ge):
        raise InvariantViolation(
            "matrix does not preserve the sublattice form")
    return pairing > 0 and all((x - (i == j)) % 2 == 0
                               for i, r in enumerate(m)
                               for j, x in enumerate(r))
