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

from .errors import DomainError, InvariantViolation, NoSolution, ParseError

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


def ip_divmod(p, q):
    """Division over the rationals; returns Fraction-coefficient lists."""
    r = [Fraction(c) for c in p]
    qq = [Fraction(c) for c in q]
    while qq and qq[-1] == 0:
        qq.pop()
    if not qq:
        raise ZeroDivisionError("polynomial division by zero")
    out = [Fraction(0)] * max(0, len(r) - len(qq) + 1)
    while len(r) >= len(qq) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(qq):
            break
        k = len(r) - len(qq)
        c = r[-1] / qq[-1]
        out[k] = c
        for i, b in enumerate(qq):
            r[k + i] -= c * b
    while r and r[-1] == 0:
        r.pop()
    return out, r


def _primitive_part(p):
    """p divided by the gcd of its coefficients; signs are kept."""
    from math import gcd
    g = 0
    for c in p:
        g = gcd(g, c)
    return [c // g for c in p] if g > 1 else p


def ip_primitive(p):
    """Clear denominators and content; make the leading term positive."""
    from math import lcm
    den = lcm(*(c.denominator for c in p if isinstance(c, Fraction)))
    ints = _primitive_part([int(c * den) for c in p])
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


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


def ip_gcd(p, q):
    """Primitive integer gcd via the Euclidean algorithm on integer
    pseudo-remainders."""
    a, b = ip_trim(p), ip_trim(q)
    while b:
        a, b = b, _pos_rem(a, b)
    return ip_primitive(a)


def is_reciprocal(p):
    p = ip_trim(p)
    return bool(p) and p == p[::-1]


def lehmer_polynomial():
    """The degree-10 Salem polynomial with minimal known Mahler measure."""
    return [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


# ---------------------------------------------------------------------------
# integer matrices (tuples of rows)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, s):
    return tuple(tuple(x * s for x in r) for r in a)


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_eq_mod2(a, b):
    return all((x - y) % 2 == 0 for ra, rb in zip(a, b)
               for x, y in zip(ra, rb))


def char_poly(m):
    """Exact characteristic polynomial, low degree first, monic.

    Faddeev-LeVerrier; every division by k is exact over the integers.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise InvariantViolation("char_poly needs a square matrix")
    coeffs = [0] * (n + 1)  # x^n + c1 x^(n-1) + ... + cn
    coeffs[0] = 1
    nmat = m
    cs = []
    for k in range(1, n + 1):
        ck = -mat_trace(nmat)
        if ck % k:
            raise DomainError("Faddeev-LeVerrier division not exact")
        ck //= k
        cs.append(ck)
        if k < n:
            nmat = mat_mul(m, mat_add(nmat, mat_scale(mat_identity(n), ck)))
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

    Columns are the images of h, e1, ..., e10 in ambient coordinates:
    h -> 2h - e2 - e3 - e4, e1 -> h - e3 - e4, e2 -> h - e2 - e4,
    e3 -> h - e2 - e3, e_n -> e_{n+1} for 4 <= n <= 9, e10 -> e1.
    """
    def basis(i):
        return [1 if j == i else 0 for j in range(11)]

    cols = []
    cols.append([2, 0, -1, -1, -1, 0, 0, 0, 0, 0, 0])        # image of h
    cols.append([1, 0, 0, -1, -1, 0, 0, 0, 0, 0, 0])         # image of e1
    cols.append([1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 0])         # image of e2
    cols.append([1, 0, -1, -1, 0, 0, 0, 0, 0, 0, 0])         # image of e3
    for n in range(4, 10):                                   # e_n -> e_{n+1}
        cols.append(basis(n + 1))
    cols.append(basis(1))                                    # image of e10
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
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
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
    gram = ambient_gram()
    return tuple(tuple(_pair(u, v, gram) for v in vectors) for u in vectors)


def _pair(u, v, gram):
    return sum(u[i] * gram[i][j] * v[j]
               for i in range(len(u)) for j in range(len(v)))


def restrict_to_basis(m, basis):
    """Matrix of m on the span of `basis`, integer entries enforced.

    Coordinates are recovered by pairing against the basis and solving
    with the basis Gram matrix; that gives the projection of each image
    to the span, so the integer basis combination is then checked to
    equal the image exactly.
    """
    gram = ambient_gram()
    images = [mat_vec(m, b) for b in basis]
    x = _frac_solve(gram_of(basis),
                    [[_pair(a, img, gram) for img in images] for a in basis])
    out = tuple(tuple(int(c) for c in row) for row in x)
    # the basis is independent (its Gram matrix is not singular), so an
    # integer combination equal to the image is the projection itself
    if mat_mul(mat_transpose(basis), out) != mat_transpose(images):
        raise InvariantViolation("image leaves the sublattice")
    return out


def _frac_solve(a, b):
    """X with a·X = b, by Gauss–Jordan over Fraction; a is the basis
    Gram matrix and b holds the rows of all right-hand sides at once."""
    n = len(a)
    rows = [[Fraction(v) for v in (*ra, *rb)] for ra, rb in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise InvariantViolation("the basis Gram matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def reference_interior_vector():
    """Coordinates (in the stored basis) of 10h - 3(e1+...+e10).

    A fixed norm-10 vector interior to the chosen half-cone; membership
    tests orient the cone by pairing images against it.
    """
    return (10, 7, 14, 21, 18, 15, 12, 9, 6, 3)


# ---------------------------------------------------------------------------
# Sturm sequences on integer polynomials


def _sign_at(p, x):
    """Sign of the integer polynomial p at the rational x = n/d, d > 0.

    Integer Horner on sum c_i n^i d^(deg - i) = d^deg p(x), which has the
    sign of p(x) because d^deg > 0; no Fraction is built.
    """
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


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
    so a midpoint that is the root becomes hi, and lo may be a root of
    p outside the interval."""
    s_hi = _sign_at(p, hi)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if _sign_at(p, mid) == -s_hi:
            lo = mid
        else:
            hi = mid
    return lo, hi


def real_roots(p, precision=Fraction(1, 10 ** 6)):
    """Isolating rational intervals for all real roots of a squarefree p.

    One Sturm chain on p itself does all the work: it tests that p is
    squarefree, and its counts subdivide (-B, B] until each half-open
    interval (lo, hi] holds one root. A rational root of p is returned
    as the degenerate interval (r, r); every other root is bisected on
    p below the requested width. The intervals are pairwise disjoint
    and sorted by position.
    """
    p = ip_trim(p)
    if len(p) <= 1:
        return []
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        raise InvariantViolation("input shares a factor with its derivative")
    precision = Fraction(precision)
    # rational roots: 0, and n/d with n | constant term, d | leading term
    exact = [Fraction(0)] if p[0] == 0 else []
    exact += [r for r in _rational_roots(p[1:] if exact else p)
              if _sign_at(p, r) == 0]
    intervals = []
    bound = _root_bound(p)
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = _count_roots(chain, lo, hi)
        if n == 1:
            hit = [r for r in exact if lo < r <= hi]
            # without a rational root inside, the root is irrational, so
            # neither hi nor any midpoint is a root
            intervals.append((hit[0], hit[0]) if hit
                             else _bisect(p, lo, hi, precision))
        elif n > 1:
            mid = (lo + hi) / 2
            stack.append((lo, mid))
            stack.append((mid, hi))
    intervals.sort(key=lambda iv: iv[0] + iv[1])
    return intervals


def _rational_roots(p):
    """Candidate rational roots of an integer polynomial (may overshoot)."""
    if not p or len(p) == 1:
        return []
    a0, an = abs(p[0]), abs(p[-1])
    if a0 == 0:
        return [Fraction(0)]
    if a0 > 10 ** 9 or an > 10 ** 9:
        return []  # candidate enumeration would be unreasonable
    out = set()
    for num in _divisors(a0):
        for den in _divisors(an):
            out.add(Fraction(num, den))
            out.add(Fraction(-num, den))
    return sorted(out)


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


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
    from math import comb
    r = [0] * (d + 1)
    # coefficient of x^(d+t) in x^d (x+1/x)^k is C(k, (k+t)/2) when parity fits
    for t in range(d, -1, -1):
        acc = p[d + t]
        for k in range(t + 1, d + 1):
            if (k + t) % 2 == 0:
                acc -= r[k] * comb(k, (k + t) // 2)
        r[t] = acc  # C(t, t) = 1
    # exact re-expansion check
    if trace_reexpand(r) != p:
        raise NoSolution("re-expansion mismatch")
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

    trace_poly: the half-degree polynomial R; trace_intervals: isolating
    rational intervals for its (all real) roots in ascending order;
    interior_signs: sign of R' at each root inside (-2, 2), ascending;
    lambda_interval: enclosure of the root of the input that exceeds 1.
    """

    __slots__ = ("trace_poly", "trace_intervals", "interior_signs",
                 "lambda_interval")

    def __init__(self, trace_poly, trace_intervals, interior_signs,
                 lambda_interval):
        self.trace_poly = trace_poly
        self.trace_intervals = trace_intervals
        self.interior_signs = interior_signs
        self.lambda_interval = lambda_interval


def salem_certify(p, precision=Fraction(1, 10 ** 9)):
    """Certify that a reciprocal even-degree p is a Salem polynomial.

    All roots of the trace polynomial R must be real, exactly one above
    2, the rest strictly inside (-2, 2); then the roots of p off the
    real line have modulus exactly 1 and the real ones are lambda > 1
    and its reciprocal. The trace intervals come from real_roots, and
    the sign of R' at each interior root is read off its interval, so
    no second chain is built. Raises NoSolution when a condition fails;
    returns a SalemCertificate on success.
    """
    p = ip_trim(p)
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
    # The trace root above 2 makes the largest root lambda > 1 and the
    # only real root of p there, so halving its isolating interval lifts
    # lo above 1 at any requested width; an exact lambda already has it.
    lo, hi = real_roots(p, precision)[-1]
    while lo <= 1:
        lo, hi = _bisect(p, lo, hi, (hi - lo) / 2)
    return SalemCertificate(r, ivs, signs, (lo, hi))


def sign_vector_target(cert):
    """The interior trace-root derivative signs of a Salem certificate,
    sorted: (-1, -1, +1, +1) for Lehmer's degree-10 polynomial."""
    return tuple(sorted(cert.interior_signs))


# ---------------------------------------------------------------------------
# spectral radius


def dynamical_degree(m, precision=Fraction(1, 10 ** 9)):
    """Certified rational enclosure of the spectral radius of m.

    The radius is certified to be a real eigenvalue in two situations:
    every root of the characteristic polynomial is real (Sturm count
    equals the degree of the squarefree part), or, after stripping the
    rational roots 0 and +-1, the remaining factor is a Salem
    polynomial, whose non-real roots all have modulus exactly 1. Raises
    NoSolution otherwise.
    """
    precision = Fraction(precision)
    p = ip_trim(char_poly(m))
    saw_unit = False
    while p[0] == 0:
        p = p[1:]
    for root in (1, -1):
        while ip_eval(p, root) == 0:
            q, rem = ip_divmod(p, [-root, 1])
            assert not rem
            p = ip_primitive(q)
            saw_unit = True
    floor = Fraction(1) if saw_unit else Fraction(0)
    if len(p) <= 1:
        return (floor, floor)
    sqf = ip_primitive(ip_divmod(p, ip_gcd(p, ip_deriv(p)))[0])
    ivs = real_roots(sqf, precision)
    if len(ivs) == len(sqf) - 1:
        # all eigenvalues real: enclose max |root| by the componentwise
        # maxima of the per-root absolute intervals
        blo, bhi = floor, floor
        for lo, hi in ivs:
            alo, ahi = min(abs(lo), abs(hi)), max(abs(lo), abs(hi))
            if lo <= 0 <= hi:
                alo = Fraction(0)
            blo, bhi = max(blo, alo), max(bhi, ahi)
        return (blo, bhi)
    try:
        cert = salem_certify(sqf, precision)
    except NoSolution as ex:
        raise NoSolution(
            "characteristic polynomial is neither totally real nor Salem "
            f"after removing unit rational roots: {ex}") from ex
    lo, hi = cert.lambda_interval
    return (max(lo, floor), max(hi, floor))


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


def weyl2_membership(m, ge):
    """True iff m is in the kernel of reduction mod 2 and keeps the cone.

    m acts on the stored basis of the even sublattice, whose Gram matrix
    is ge; it must preserve ge (else InvariantViolation), reduce to the
    identity mod 2, and pair the image of the reference interior vector
    positively against that vector (half-cone preservation).
    """
    if not is_isometry_of(m, ge):
        raise InvariantViolation(
            "matrix does not preserve the sublattice form")
    u = reference_interior_vector()
    if _pair(mat_vec(m, u), u, ge) <= 0:
        return False
    return mat_eq_mod2(m, mat_identity(len(m)))
