"""Sparse multivariate polynomials over GF(2^m), and plane points.

Terms live in a dict mapping exponent tuples to raw coefficient bits;
zero coefficients are never stored. Every operation xors its terms
into a plain dict and hands it to the one constructor, `MultiPoly(ctx,
nvars, terms)`, which drops the zeros. Canonical order (for printing,
leading terms and exact division) is graded lexicographic: higher total
degree first, ties broken by the exponent tuple, left variable most
significant. Addition is coefficient xor; all inner loops work on raw
bits through the shared FieldCtx tables, and products, evaluation and
substitution add logs (`_mul_terms`). `univariate_at` reads a
polynomial along a line, every variable but one set to a field element,
as a univariate polynomial in one such pass. `resultant` eliminates y
from two bivariate polynomials by interpolation in a field sized to the
eliminant, one fibre per Frobenius orbit; `surface` seeks its roots in
GF(2^m) and GF(2^2m). `plane_zeros` finds where ternary forms vanish on
P^2, reading each line x = x0 of the chart z = 1 as univariate
polynomials in y.

The text format round-trips through `format_poly` / `parse_poly_file`,
whose header declares three weight-1 variables:

    vars: x y z; weights: 1 1 1; field: g^5=g^2+1
    s = g^16*x^8*y^3*z + ...

Points are written `p4 = (g^29 : g^6 : 1)`. A plane point is the tuple
of its raw-bit coordinates whose last nonzero entry is 1, as
`canonical` scales it.
"""

from __future__ import annotations

from operator import add

from . import MAX_M, content_lines
from .errors import DomainError, InvariantViolation, ParseError
from .gf2m import (FieldCtx, embed, ext_context, field_make, format_elem,
                   parse_elem, unembed)
from .unipoly import UniPoly


def _grlex_key(exps):
    return (sum(exps), exps)


def _mul_terms(ctx: FieldCtx, t1: dict, t2: dict) -> dict:
    """The terms of the product of two term dicts, in the log domain:
    each coefficient's log is taken once and a product is one lookup
    of the doubled exp table."""
    exp, log = ctx._exp, ctx._log
    logs2 = [(e2, log[c2]) for e2, c2 in t2.items()]
    out = {}
    for e1, c1 in t1.items():
        l1 = log[c1]
        for e2, l2 in logs2:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) ^ exp[l1 + l2]
    # filtered here too: substitute multiplies results again, and the
    # log of 0 is None
    return {e: c for e, c in out.items() if c}


class MultiPoly:
    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldCtx, nvars: int, terms: dict):
        """terms maps exponent tuples to coefficient bits. The only
        constructor, and the one place a polynomial drops its zero
        coefficients: callers may pass a dict with zeros in it."""
        for e in terms:
            if len(e) != nvars:
                raise InvariantViolation("exponent tuple length != nvars")
        self.ctx = ctx
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def var(cls, ctx, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(ctx, nvars, {tuple(e): 1})

    # -- basics --------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _chk(self, other):
        if other.ctx is not self.ctx:
            raise InvariantViolation("MultiPoly contexts differ")
        if other.nvars != self.nvars:
            raise InvariantViolation("MultiPoly arities differ")

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and other.ctx is self.ctx
                and other.nvars == self.nvars and other.terms == self.terms)

    def __add__(self, other):
        self._chk(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) ^ c
        return MultiPoly(self.ctx, self.nvars, t)

    def __mul__(self, other):
        self._chk(other)
        return MultiPoly(self.ctx, self.nvars,
                         _mul_terms(self.ctx, self.terms, other.terms))

    def scale_bits(self, s):
        mul = self.ctx.mul_bits
        return MultiPoly(self.ctx, self.nvars,
                         {e: mul(c, s) for e, c in self.terms.items()})

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        return len({sum(e) for e in self.terms}) <= 1

    def num_terms(self):
        return len(self.terms)

    def leading(self):
        """(exponents, coeff bits) of the graded-lex leading term."""
        if not self.terms:
            raise DomainError("leading term of 0")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    # -- evaluation / substitution -------------------------------------------

    def eval_bits(self, point):
        if len(point) != self.nvars:
            raise InvariantViolation("point arity != nvars")
        exp, log, order = self.ctx._exp, self.ctx._log, self.ctx.order
        logs = [log[x] for x in point]  # None at a zero coordinate
        acc = 0
        for e, c in self.terms.items():
            s = log[c]
            for lx, k in zip(logs, e):
                if k:
                    if lx is None:
                        break
                    s += lx * k
            else:
                acc ^= exp[s % order]
        return acc

    def univariate_at(self, var: int, point) -> UniPoly:
        """The polynomial in variable `var` left when every other
        variable i is set to the raw bits point[i]; point[var] is not
        read. One pass in the log domain, as eval_bits."""
        if len(point) != self.nvars:
            raise InvariantViolation("point arity != nvars")
        exp, log, order = self.ctx._exp, self.ctx._log, self.ctx.order
        logs = [log[x] for x in point]  # None at a zero coordinate
        logs[var] = 0  # variable var counts as 1, its exponent kept
        coeffs = [0] * (self.degree_in(var) + 1)
        for e, c in self.terms.items():
            s = log[c]
            for lx, k in zip(logs, e):
                if k:
                    if lx is None:
                        break
                    s += lx * k
            else:
                coeffs[e[var]] ^= exp[s % order]
        return UniPoly(self.ctx, coeffs)

    def embed_to(self, sup: FieldCtx) -> "MultiPoly":
        """The same polynomial over the extension sup of its field."""
        if sup is self.ctx:
            return self
        return MultiPoly(sup, self.nvars, {e: embed(c, self.ctx, sup)
                                           for e, c in self.terms.items()})

    def substitute(self, images: list["MultiPoly"]) -> "MultiPoly":
        """Ring morphism sending variable i to images[i] (shared ctx/arity)."""
        if len(images) != self.nvars:
            raise InvariantViolation("need one image per variable")
        for im in images:
            images[0]._chk(im)
        octx, onv = images[0].ctx, images[0].nvars
        if octx is not self.ctx:
            raise InvariantViolation("images live in a different field")
        # terms of images[i] ** k for k >= 1, by repeated squaring
        pow_cache: list[dict[int, dict]] = [{1: im.terms} for im in images]

        def power(i, k):
            cache = pow_cache[i]
            if k not in cache:
                half = power(i, k // 2)
                v = _mul_terms(octx, half, half)
                cache[k] = _mul_terms(octx, v, cache[1]) if k % 2 else v
            return cache[k]

        acc: dict[tuple, int] = {}
        for e, c in self.terms.items():
            t = {(0,) * onv: c}
            for i, k in enumerate(e):
                if k:
                    t = _mul_terms(octx, t, power(i, k))
            for te, tc in t.items():
                acc[te] = acc.get(te, 0) ^ tc
        return MultiPoly(octx, onv, acc)

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative; even exponents die (char 2)."""
        if not 0 <= i < self.nvars:
            raise InvariantViolation(f"no variable index {i}")
        t = {}
        for e, c in self.terms.items():
            if e[i] % 2 == 1:
                ne = list(e)
                ne[i] -= 1
                t[tuple(ne)] = c  # no two odd e[i] give one ne
        return MultiPoly(self.ctx, self.nvars, t)

    def translate(self, point) -> "MultiPoly":
        """p(x_0 + a_0, ..., x_{n-1} + a_{n-1}), the a_i raw bits.

        Binomials reduce mod 2 by Lucas: C(e, j) is odd iff j is a
        submask of e, so each (x+a)^e expands over submasks only.
        """
        if len(point) != self.nvars:
            raise InvariantViolation("point arity != nvars")
        mul, pw = self.ctx.mul_bits, self.ctx.pow_bits
        cur = self.terms
        for i, a in enumerate(point):
            if not a:
                continue
            nxt: dict[tuple, int] = {}
            for e, c in cur.items():
                ei = e[i]
                j = ei
                while True:  # all submasks of ei, descending
                    coef = mul(c, pw(a, ei - j)) if ei != j else c
                    ne = e[:i] + (j,) + e[i + 1:]
                    nxt[ne] = nxt.get(ne, 0) ^ coef
                    if j == 0:
                        break
                    j = (j - 1) & ei
            cur = nxt
        return MultiPoly(self.ctx, self.nvars, cur)

    def order(self) -> int:
        """The least total degree of a term: the vanishing order at the
        origin (0 when nonvanishing)."""
        if self.is_zero():
            raise DomainError("order of the zero polynomial")
        return min(sum(e) for e in self.terms)

    def initial_form(self) -> "MultiPoly":
        """Sum of the minimal-total-degree terms."""
        d = self.order()
        return MultiPoly(self.ctx, self.nvars,
                         {e: c for e, c in self.terms.items() if sum(e) == d})

    def is_square(self) -> bool:
        return all(all(k % 2 == 0 for k in e) for e in self.terms)

    def poly_sqrt(self) -> "MultiPoly":
        if not self.is_square():
            raise DomainError("polynomial is not a perfect square")
        sq = self.ctx.sqrt_bits
        return MultiPoly(self.ctx, self.nvars,
                         {tuple(k // 2 for k in e): sq(c)
                          for e, c in self.terms.items()})

    def divide_exact(self, d: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / d; DomainError when it is not."""
        self._chk(d)
        if d.is_zero():
            raise DomainError("division by the zero polynomial")
        mul, inv = self.ctx.mul_bits, self.ctx.inv_bits
        de, dc = d.leading()
        dcinv = inv(dc)
        rem = dict(self.terms)
        q: dict[tuple, int] = {}
        while rem:
            e = max(rem, key=_grlex_key)
            c = rem[e]
            qe = tuple(a - b for a, b in zip(e, de))
            if any(k < 0 for k in qe):
                raise DomainError("leading term not divisible")
            qc = mul(c, dcinv)
            q[qe] = qc  # leading terms fall strictly: qe is new
            for e2, c2 in d.terms.items():
                ne = tuple(a + b for a, b in zip(qe, e2))
                n = rem.get(ne, 0) ^ mul(qc, c2)
                if n:
                    rem[ne] = n
                else:  # deleted at once: max reads the leading term
                    rem.pop(ne, None)
        return MultiPoly(self.ctx, self.nvars, q)

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return f"MultiPoly({format_poly(self, names)})"


# ---------------------------------------------------------------------------
# resultants (Collins: evaluate, univariate Euclid, interpolate)


def _euclid_resultant(a: UniPoly, b: UniPoly) -> int:
    """Res(a, b) = lc(b)^(deg a - deg r) Res(b, r) with r = a mod b."""
    mul, pw = a.ctx.mul_bits, a.ctx.pow_bits
    acc = 1
    while b.degree() > 0:
        r = a % b
        if r.is_zero():
            return 0
        acc = mul(acc, pw(b.coeffs[-1], a.degree() - r.degree()))
        a, b = b, r
    return mul(acc, pw(b.coeffs[0], a.degree()))


def resultant(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Res of bivariate p, q w.r.t. the second variable y, a polynomial
    in x alone (exponent 0 in y).

    Its degree in x is at most the Sylvester bound
    D = deg_y(q) deg_x(p) + deg_y(p) deg_x(q). Newton interpolation
    through D + 1 nodes gives it and one more, computed directly, checks
    it, in a field sized to Res: the smallest GF(2^km) with 2^km >= D +
    2 + deg_x(p) + deg_x(q), off the zeros of both leading coefficients
    in y. As Res lies over GF(2^m), Res(a^(2^m)) = Res(a)^(2^m): one
    fibre per Frobenius orbit gives the nodes; the singular search seeks
    roots in GF(2^m) and GF(2^2m). InvariantViolation when y is absent,
    the check fails, a coefficient is outside GF(2^m) or km > MAX_M.
    """
    p._chk(q)
    if p.nvars != 2:
        raise InvariantViolation("resultant takes bivariate arguments")
    dp, dq = p.degree_in(1), q.degree_in(1)
    if dp < 0 or dq < 0:
        raise DomainError("resultant with the zero polynomial")
    if max(dp, dq) == 0:
        raise InvariantViolation("y absent from both arguments")
    ctx = p.ctx
    n = dq * p.degree_in(0) + dp * q.degree_in(0) + 1  # points to fit
    deg = ctx.m  # km: room for n + 1 points off both leading coefficients
    while 1 << deg < n + 1 + p.degree_in(0) + q.degree_in(0):
        deg += ctx.m
    big = ext_context(deg)
    pe, qe = p.embed_to(big), q.embed_to(big)
    nodes = {}  # node -> Res there, in the order found
    for a in range(1 << big.m):
        if a in nodes:
            continue
        fp, fq = (r.univariate_at(1, (a, 0)) for r in (pe, qe))
        if fp.degree() != dp or fq.degree() != dq:
            continue
        v = _euclid_resultant(fp, fq)
        if len(nodes) == n:
            break  # a, not a conjugate of a node, is the check
        while a not in nodes and len(nodes) < n:  # a's orbit
            nodes[a] = v
            a, v = (big.pow_bits(e, 1 << ctx.m) for e in (a, v))
    xs, dd = list(nodes), list(nodes.values())  # dd: divided differences
    exp, log, order = big._exp, big._log, big.order
    for k in range(1, n):
        for t in range(n - 1, k - 1, -1):
            diff = dd[t] ^ dd[t - 1]
            dd[t] = exp[log[diff] + order - log[xs[t] ^ xs[t - k]]] \
                if diff else 0
    # Newton form to coefficients (low degree first) by Horner in place:
    # cs <- cs * (x + xs[t]) + dd[t] inserts dd[t] below the old
    # coefficients, which multiplies them by x, then adds xs[t] times
    # each old coefficient to the one below it
    cs = [dd[-1]]
    for t in range(n - 2, -1, -1):
        cs.insert(0, dd[t])
        la = log[xs[t]]
        if la is not None:
            for k in range(len(cs) - 1):
                if cs[k + 1]:
                    cs[k] ^= exp[log[cs[k + 1]] + la]
    res = UniPoly(big, cs)
    if res.eval_bits(a) != v:
        raise InvariantViolation("interpolation misses its check point")
    return MultiPoly(ctx, 2, {(k, 0): unembed(c, ctx, big)
                              for k, c in enumerate(res.coeffs)})


# ---------------------------------------------------------------------------
# exact linear algebra over the coefficient field


def linear_solve(ctx: FieldCtx, rows) -> list[list[int]]:
    """A basis of the kernel of the matrix `rows` (raw bits) over the
    field, as raw-bit vectors: Gauss-Jordan elimination, then one
    vector per free column, 1 there and 0 at the other free columns.
    Empty when the kernel is zero."""
    a = [list(row) for row in rows]
    ncols = len(a[0]) if a else 0
    for row in a:
        if len(row) != ncols:
            raise InvariantViolation("ragged matrix")
    mul, inv = ctx.mul_bits, ctx.inv_bits
    exp, log, order = ctx._exp, ctx._log, ctx.order
    m = len(a)
    piv_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        sel = None
        for rr in range(r, m):
            if a[rr][c]:
                sel = rr
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        # the pivot row is zero left of c: each earlier column is a
        # cleared pivot column or has no nonzero entry in rows r..m-1
        piv = a[r]
        s = inv(piv[c])
        piv[c:] = [mul(v, s) for v in piv[c:]]
        nz = [(k, log[piv[k]]) for k in range(c, ncols) if piv[k]]
        for rr in range(m):
            f = a[rr][c]
            if rr != r and f:
                row, lf = a[rr], log[f]
                for k, lv in nz:
                    row[k] ^= exp[(lf + lv) % order]
        piv_of_col[c] = r
        r += 1
    free = [c for c in range(ncols) if c not in piv_of_col]
    kernel = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for c, rr in piv_of_col.items():
            v[c] = a[rr][fc]
        kernel.append(v)
    return kernel


# ---------------------------------------------------------------------------
# plane points


def canonical(ctx: FieldCtx, coords) -> tuple:
    """The representative of the plane point with these raw-bit
    coordinates whose last nonzero coordinate is 1; DomainError when
    they are all zero."""
    last = next((c for c in reversed(coords) if c), 0)
    if not last:
        raise DomainError("all-zero projective coordinates")
    s = ctx.inv_bits(last)
    return tuple(ctx.mul_bits(c, s) for c in coords)


def plane_zeros(polys) -> list[tuple]:
    """The canonical coordinates where all the ternary forms `polys`
    vanish in P^2 over their field, in the order (x : y : 1) by x then
    y, (x : 1 : 0) by x, (1 : 0 : 0). Each line x = x0 of the chart
    z = 1 is read as univariate polynomials in y."""
    field = range(1 << polys[0].ctx.m)
    zeros = []
    for x in field:
        ys = field
        for p in polys:  # read only where the earlier forms all vanish
            if ys:
                u = p.univariate_at(1, (x, 0, 1))
                ys = [y for y in ys if not u.eval_bits(y)]
        zeros += [(x, y, 1) for y in ys]
    return zeros + [pt for pt in [(x, 1, 0) for x in field] + [(1, 0, 0)]
                    if not any(p.eval_bits(pt) for p in polys)]


def local_expansion(p: MultiPoly, pt: tuple) -> MultiPoly:
    """p at the canonical point pt in two variables: the chart of pt's
    last nonzero coordinate, which is 1, translated so that pt is the
    origin."""
    j = max(i for i, c in enumerate(pt) if c)
    chart: dict[tuple, int] = {}
    for e, c in p.terms.items():
        ne = e[:j] + e[j + 1:]
        chart[ne] = chart.get(ne, 0) ^ c
    return MultiPoly(p.ctx, p.nvars - 1, chart).translate(
        [c for i, c in enumerate(pt) if i != j])


# ---------------------------------------------------------------------------
# text format


def _parse_natural(token: str, message: str) -> int:
    """A non-negative integer token (an exponent, a degree or a weight)."""
    try:
        value = int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise ParseError(message)
    return value


def parse_field(text: str) -> FieldCtx:
    """The context of a `g^m=...` header. m is at most MAX_M and every
    modulus term a power of g below g^m, both checked before the
    modulus bit-mask is built."""
    left, _, right = text.partition("=")
    left = left.strip()
    if not left.startswith("g^"):
        raise ParseError(f"bad field spec {text!r}")
    m = _parse_natural(left[2:], f"bad field degree in {text!r}")
    if m > MAX_M:
        raise ParseError(f"field degree {m} is above the largest "
                         f"supported, {MAX_M}: {text!r}")
    if m == 0:
        # no term lies below g^0, and the modulus 1 gives the zero
        # ring, which field_make refuses
        return field_make(0, 1)
    bits = 1 << m
    for term in right.replace(" ", "").split("+"):
        if term == "1":
            k = 0
        elif term == "g":
            k = 1
        elif term.startswith("g^"):
            k = _parse_natural(term[2:], f"bad modulus term {term!r}")
        else:
            raise ParseError(f"bad modulus term {term!r}")
        if k >= m:
            raise ParseError(f"modulus term {term!r} is not below g^{m}")
        bits ^= 1 << k
    return field_make(m, bits)


def format_term(ctx, names, exps, cbits) -> str:
    parts = []
    coeff = format_elem(ctx, cbits)
    if coeff != "1" or not any(exps):
        parts.append(coeff)
    for n, k in zip(names, exps):
        if k == 1:
            parts.append(n)
        elif k > 1:
            parts.append(f"{n}^{k}")
    return "*".join(parts)


def format_poly(p: MultiPoly, names) -> str:
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda item: _grlex_key(item[0]),
                   reverse=True)
    return " + ".join(format_term(p.ctx, names, e, c) for e, c in items)


def parse_poly(ctx: FieldCtx, names, text: str) -> MultiPoly:
    nvars = len(names)
    index = {n: i for i, n in enumerate(names)}
    terms: dict[tuple, int] = {}
    for raw in text.split("+"):  # '+' never occurs inside a term
        raw = raw.strip()
        factors = [f.strip() for f in raw.split("*")]
        cbits = 1
        exps = [0] * nvars
        for j, f in enumerate(factors):
            name, _, pw = f.partition("^")
            if name in index:
                exps[index[name]] += (
                    _parse_natural(pw, f"bad exponent in {f!r}") if pw else 1)
            elif j == 0:
                cbits = ctx.mul_bits(cbits, parse_elem(f, ctx))
            else:
                raise ParseError(f"unknown factor {f!r}")
        e = tuple(exps)
        terms[e] = terms.get(e, 0) ^ cbits
    return MultiPoly(ctx, nvars, terms)


def parse_poly_file(text: str, source: str):
    """-> (names, ctx, {name: MultiPoly}) for a polynomial file whose
    header `vars: x y z; weights: 1 1 1; field: ...` declares three
    weight-1 variables; source names the file when the header declares
    others or a label is defined twice."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty polynomial file")
    fields = {}
    for chunk in lines[0].split(";"):
        key, _, val = chunk.partition(":")
        fields[key.strip()] = val.strip()
    if not {"vars", "weights", "field"} <= set(fields):
        raise ParseError(f"incomplete header {lines[0]!r}")
    names = fields["vars"].split()
    weights = [_parse_natural(w, f"bad weight {w!r}")
               for w in fields["weights"].split()]
    ctx = parse_field(fields["field"])
    if weights != [1, 1, 1] or len(names) != 3:
        raise ParseError(f"{source} must declare 3 weight-1 variables")
    polys = {}
    for ln in lines[1:]:
        label, _, body = ln.partition("=")
        if not _:
            raise ParseError(f"expected `name = terms`: {ln!r}")
        label = label.strip()
        if label in polys:
            raise ParseError(f"{source} defines {label!r} twice")
        polys[label] = parse_poly(ctx, names, body)
    return names, ctx, polys


def format_point(ctx: FieldCtx, coords) -> str:
    """A plane point as the text format writes it, `(g^29 : g^6 : 1)`."""
    return "(" + " : ".join(format_elem(ctx, c) for c in coords) + ")"


def parse_point_file(text: str, source: str):
    """-> (ctx, {label: canonical coordinates}) for a labeled file of
    plane points; source names the file in the errors of a label."""
    lines = content_lines(text)
    if not lines or not lines[0].startswith("field:"):
        raise ParseError("point file must start with a field: header")
    ctx = parse_field(lines[0].partition(":")[2])
    points = {}
    for ln in lines[1:]:
        label, _, body = ln.partition("=")
        body = body.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ParseError(f"expected `label = (a : b : c)`: {ln!r}")
        label = label.strip()
        if label in points:
            raise ParseError(f"{source} defines {label!r} twice")
        coords = [parse_elem(part, ctx) for part in body[1:-1].split(":")]
        if len(coords) != 3:
            raise ParseError(f"{source}: point {label!r} has {len(coords)} "
                             "coordinates, expected 3")
        if not any(coords):
            raise ParseError(f"{source}: point {label!r} has all-zero "
                             "coordinates")
        points[label] = canonical(ctx, coords)
    return ctx, points
