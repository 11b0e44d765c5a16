"""Sparse multivariate polynomials over GF(2^m), and projective points.

Terms live in a dict mapping exponent tuples to raw coefficient bits;
zero coefficients are never stored. Canonical order (for printing,
leading terms and exact division) is graded lexicographic: higher total
degree first, ties broken by the exponent tuple, left variable most
significant. Addition is coefficient xor; all inner loops work on raw
bits through the shared FieldCtx tables. `resultant` eliminates one
variable of two bivariate polynomials by evaluation and interpolation.

The text format round-trips through `format_poly` / `parse_poly_file`:

    vars: x y z; weights: 1 1 1; field: g^5=g^2+1
    s = g^16*x^8*y^3*z + ...

Points are written `p4 = (g^29 : g^6 : 1)`. Projective normalization
scales by the last nonzero coordinate of weight 1 (coordinates of
weight k pick up the k-th power of the scale).
"""

from __future__ import annotations

from .errors import DomainError, InvariantViolation, ParseError
from .gf2m import (FieldCtx, FieldElement, embed, ext_context, field_make,
                   format_elem, parse_elem, unembed)
from .unipoly import UniPoly


def _grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldCtx, nvars: int, terms=None):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    e = tuple(e)
                    if len(e) != nvars:
                        raise InvariantViolation(
                            "exponent tuple length != nvars")
                    clean[e] = clean.get(e, 0) ^ c
                    if not clean[e]:
                        del clean[e]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable; build a new one")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx, nvars):
        return cls(ctx, nvars, None)

    @classmethod
    def const(cls, ctx, nvars, bits):
        return cls(ctx, nvars, {(0,) * nvars: bits})

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

    def __hash__(self):
        return hash((id(self.ctx), self.nvars,
                     tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        self._chk(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            n = t.get(e, 0) ^ c
            if n:
                t[e] = n
            else:
                t.pop(e, None)
        return MultiPoly(self.ctx, self.nvars, t)

    __sub__ = __add__

    def __mul__(self, other):
        self._chk(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.ctx, self.nvars)
        mul = self.ctx.mul_bits
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                n = t.get(e, 0) ^ mul(c1, c2)
                if n:
                    t[e] = n
                else:
                    del t[e]
        return MultiPoly(self.ctx, self.nvars, t)

    def scale_bits(self, s):
        if not s:
            return MultiPoly.zero(self.ctx, self.nvars)
        mul = self.ctx.mul_bits
        return MultiPoly(self.ctx, self.nvars,
                         {e: mul(c, s) for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        r = MultiPoly.const(self.ctx, self.nvars, 1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def weighted_degree(self, weights):
        if not self.terms:
            return -1
        return max(sum(x * w for x, w in zip(e, weights)) for e in self.terms)

    def is_weighted_homogeneous(self, weights):
        degs = {sum(x * w for x, w in zip(e, weights)) for e in self.terms}
        return len(degs) <= 1

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
        mul, pw = self.ctx.mul_bits, self.ctx.pow_bits
        acc = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = mul(v, pw(x, k))
                    if not v:
                        break
            acc ^= v
        return acc

    def change_ctx(self, sup: FieldCtx, lift):
        """New context with coefficients mapped through `lift` (bits->bits)."""
        return MultiPoly(sup, self.nvars,
                         {e: lift(c) for e, c in self.terms.items()})

    def substitute(self, images: list["MultiPoly"]) -> "MultiPoly":
        """Ring morphism sending variable i to images[i] (shared ctx/arity)."""
        if len(images) != self.nvars:
            raise InvariantViolation("need one image per variable")
        for im in images:
            images[0]._chk(im)
        octx, onv = images[0].ctx, images[0].nvars
        if octx is not self.ctx:
            raise InvariantViolation("images live in a different field")
        pow_cache: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.const(octx, onv, 1), 1: im} for im in images]

        def power(i, k):
            cache = pow_cache[i]
            if k in cache:
                return cache[k]
            half = power(i, k // 2)
            v = half * half
            if k % 2:
                v = v * pow_cache[i][1]
            cache[k] = v
            return v

        acc = MultiPoly.zero(octx, onv)
        for e, c in sorted(self.terms.items(),
                           key=lambda item: _grlex_key(item[0])):
            t = MultiPoly.const(octx, onv, c)
            for i, k in enumerate(e):
                if k:
                    t = t * power(i, k)
            acc = acc + t
        return acc

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative; even exponents die (char 2)."""
        if not 0 <= i < self.nvars:
            raise InvariantViolation(f"no variable index {i}")
        t = {}
        for e, c in self.terms.items():
            if e[i] % 2 == 1:
                ne = list(e)
                ne[i] -= 1
                ne = tuple(ne)
                t[ne] = t.get(ne, 0) ^ c
        return MultiPoly(self.ctx, self.nvars, t)

    def translate(self, point) -> "MultiPoly":
        """p(x_0 + a_0, ..., x_{n-1} + a_{n-1}).

        Binomials reduce mod 2 by Lucas: C(e, j) is odd iff j is a
        submask of e, so each (x+a)^e expands over submasks only.
        """
        bits = [p.bits if isinstance(p, FieldElement) else int(p)
                for p in point]
        if len(bits) != self.nvars:
            raise InvariantViolation("point arity != nvars")
        mul, pw = self.ctx.mul_bits, self.ctx.pow_bits
        cur = self.terms
        for i, a in enumerate(bits):
            if not a:
                continue
            nxt: dict[tuple, int] = {}
            for e, c in cur.items():
                ei = e[i]
                j = ei
                while True:  # all submasks of ei, descending
                    coef = mul(c, pw(a, ei - j)) if ei != j else c
                    ne = e[:i] + (j,) + e[i + 1:]
                    n = nxt.get(ne, 0) ^ coef
                    if n:
                        nxt[ne] = n
                    else:
                        nxt.pop(ne, None)
                    if j == 0:
                        break
                    j = (j - 1) & ei
            cur = nxt
        return MultiPoly(self.ctx, self.nvars, cur)

    def multiplicity_at(self, point) -> int:
        """Vanishing order at an affine point (0 when nonvanishing)."""
        if self.is_zero():
            raise DomainError("multiplicity of the zero polynomial")
        sh = self.translate(point)
        return min(sum(e) for e in sh.terms)

    def initial_form(self) -> "MultiPoly":
        """Sum of the minimal-total-degree terms."""
        if self.is_zero():
            raise DomainError("initial form of 0")
        d = min(sum(e) for e in self.terms)
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
            q[qe] = q.get(qe, 0) ^ qc
            for e2, c2 in d.terms.items():
                ne = tuple(a + b for a, b in zip(qe, e2))
                n = rem.get(ne, 0) ^ mul(qc, c2)
                if n:
                    rem[ne] = n
                else:
                    rem.pop(ne, None)
        return MultiPoly(self.ctx, self.nvars, q)

    def divide_by_power(self, i: int, k: int) -> "MultiPoly":
        """Exact quotient by variable i to the k-th power."""
        t = {}
        for e, c in self.terms.items():
            if e[i] < k:
                raise DomainError(
                    f"term has degree {e[i]} < {k} in variable {i}")
            t[e[:i] + (e[i] - k,) + e[i + 1:]] = c
        return MultiPoly(self.ctx, self.nvars, t)

    def restrict(self, i: int, bits: int) -> "MultiPoly":
        """Set variable i to a constant (arity preserved, exponent 0)."""
        pw, mul = self.ctx.pow_bits, self.ctx.mul_bits
        t: dict[tuple, int] = {}
        for e, c in self.terms.items():
            ne = e[:i] + (0,) + e[i + 1:]
            v = mul(c, pw(bits, e[i])) if e[i] else c
            n = t.get(ne, 0) ^ v
            if n:
                t[ne] = n
            else:
                t.pop(ne, None)
        return MultiPoly(self.ctx, self.nvars, t)

    def drop_var(self, i: int) -> "MultiPoly":
        """Remove a variable that no term uses."""
        t = {}
        for e, c in self.terms.items():
            if e[i]:
                raise InvariantViolation(f"variable {i} still occurs")
            t[e[:i] + e[i + 1:]] = c
        return MultiPoly(self.ctx, self.nvars - 1, t)

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


def resultant(p: MultiPoly, q: MultiPoly, i: int) -> MultiPoly:
    """Res of bivariate p, q w.r.t. variable i (exponent 0 there).

    Its degree in the other variable x is at most the Sylvester bound
    D = deg_i(q) deg_x(p) + deg_i(p) deg_x(q). Newton interpolation
    through D + 1 fibre resultants over GF(2^2m), taken where neither
    leading coefficient in variable i vanishes, gives it; one more
    point checks it. InvariantViolation when the variable is absent,
    the check fails or a coefficient lies outside GF(2^m).
    """
    p._chk(q)
    if p.nvars != 2 or i not in (0, 1):
        raise InvariantViolation("resultant takes bivariate arguments")
    dp, dq = p.degree_in(i), q.degree_in(i)
    if dp < 0 or dq < 0:
        raise DomainError("resultant with the zero polynomial")
    if max(dp, dq) == 0:
        raise InvariantViolation(f"variable {i} absent from both arguments")
    j, ctx = 1 - i, p.ctx
    big = ext_context(2 * ctx.m)
    n = dq * p.degree_in(j) + dp * q.degree_in(j) + 1  # points to fit
    rows = []  # per argument, its coefficients in variable i over GF(2^2m)
    for r in (p, q):
        cs = [[0] * (r.degree_in(j) + 1) for _ in range(r.degree_in(i) + 1)]
        for e, c in r.terms.items():
            cs[e[i]][e[j]] = embed(FieldElement(ctx, c), ctx, big).bits
        rows.append([UniPoly(big, row) for row in cs])
    xs, vals = [], []
    for a in range(1 << big.m):
        fp, fq = (UniPoly(big, [c.eval_bits(a) for c in r]) for r in rows)
        if fp.degree() == dp and fq.degree() == dq:
            xs.append(a)
            vals.append(_euclid_resultant(fp, fq))
            if len(xs) > n:
                break
    else:
        raise InvariantViolation(f"too few points for degree bound {n - 1}")
    mul, inv = big.mul_bits, big.inv_bits
    dd = vals[:n]  # Newton divided differences, in place
    for k in range(1, n):
        for t in range(n - 1, k - 1, -1):
            dd[t] = mul(dd[t] ^ dd[t - 1], inv(xs[t] ^ xs[t - k]))
    res = UniPoly(big, [dd[-1]])
    for t in range(n - 2, -1, -1):
        res = res * UniPoly(big, [xs[t], 1]) + UniPoly(big, [dd[t]])
    if res.eval_bits(xs[-1]) != vals[-1]:
        raise InvariantViolation("interpolation misses its check point")
    return MultiPoly(ctx, 2, {(k, 0) if j == 0 else (0, k):
                              unembed(FieldElement(big, c), ctx).bits
                              for k, c in enumerate(res.coeffs)})


# ---------------------------------------------------------------------------
# exact linear algebra over the coefficient field


class LinearSolveResult:
    """status: 'unique' | 'kernel' | 'inconsistent'.

    `solution` is one solution (None when inconsistent); `kernel` is a
    basis of the homogeneous solution space (empty when unique).
    """

    __slots__ = ("status", "solution", "kernel")

    def __init__(self, status, solution, kernel):
        self.status = status
        self.solution = solution
        self.kernel = kernel


def linear_solve(ctx: FieldCtx, rows, rhs) -> LinearSolveResult:
    """Solve A x = b exactly over the field; rows of raw bits or elements."""

    def bit(v):
        return v.bits if isinstance(v, FieldElement) else int(v)

    a = [[bit(v) for v in row] for row in rows]
    b = [bit(v) for v in rhs]
    if len(a) != len(b):
        raise InvariantViolation("rows vs rhs length")
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
        b[r], b[sel] = b[sel], b[r]
        # the pivot row is zero left of c: each earlier column is a
        # cleared pivot column or has no nonzero entry in rows r..m-1
        piv = a[r]
        s = inv(piv[c])
        piv[c:] = [mul(v, s) for v in piv[c:]]
        b[r] = mul(b[r], s)
        nz = [(k, log[piv[k]]) for k in range(c, ncols) if piv[k]]
        for rr in range(m):
            f = a[rr][c]
            if rr != r and f:
                row, lf = a[rr], log[f]
                for k, lv in nz:
                    row[k] ^= exp[(lf + lv) % order]
                b[rr] ^= mul(f, b[r])
        piv_of_col[c] = r
        r += 1
    for rr in range(r, m):
        if b[rr]:
            return LinearSolveResult("inconsistent", None, [])
    sol = [0] * ncols
    for c, rr in piv_of_col.items():
        sol[c] = b[rr]
    free = [c for c in range(ncols) if c not in piv_of_col]
    kernel = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for c, rr in piv_of_col.items():
            v[c] = a[rr][fc]
        kernel.append([FieldElement(ctx, x) for x in v])
    solution = [FieldElement(ctx, x) for x in sol]
    status = "unique" if not free else "kernel"
    return LinearSolveResult(status, solution, kernel)


# ---------------------------------------------------------------------------
# projective points


class ProjPoint:
    """Projective point; equality via a canonical representative, the
    one whose last nonzero coordinate is 1."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: FieldCtx, coords):
        cb = [c.bits if isinstance(c, FieldElement) else int(c)
              for c in coords]
        if not any(cb):
            raise DomainError("all-zero projective coordinates")
        s = ctx.inv_bits(next(c for c in reversed(cb) if c))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coords",
                           tuple(ctx.mul_bits(c, s) for c in cb))

    def __setattr__(self, *a):
        raise AttributeError("ProjPoint is immutable")

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and other.ctx is self.ctx
                and other.coords == self.coords)

    def __hash__(self):
        return hash((id(self.ctx), self.coords))

    def __repr__(self):
        inner = " : ".join(format_elem(FieldElement(self.ctx, c))
                           for c in self.coords)
        return f"({inner})"


def plane_points(ctx: FieldCtx):
    """The canonical coordinate tuples of P^2(ctx), one per point, in the
    three strata (x : y : 1), (x : 1 : 0) and (1 : 0 : 0)."""
    field = range(1 << ctx.m)
    for x in field:
        for y in field:
            yield (x, y, 1)
    for x in field:
        yield (x, 1, 0)
    yield (1, 0, 0)


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
    left, _, right = text.partition("=")
    left = left.strip()
    if not left.startswith("g^"):
        raise ParseError(f"bad field spec {text!r}")
    m = _parse_natural(left[2:], f"bad field degree in {text!r}")
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
        bits ^= 1 << k
    return field_make(m, bits)


def format_term(ctx, names, exps, cbits) -> str:
    parts = []
    coeff = format_elem(FieldElement(ctx, cbits))
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
    text = text.strip()
    if text == "0":
        return MultiPoly.zero(ctx, nvars)
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
                cbits = ctx.mul_bits(cbits, parse_elem(f, ctx).bits)
            else:
                raise ParseError(f"unknown factor {f!r}")
        e = tuple(exps)
        n = terms.get(e, 0) ^ cbits
        if n:
            terms[e] = n
        else:
            terms.pop(e, None)
    return MultiPoly(ctx, nvars, terms)


def parse_header(line: str):
    """-> (names, weights, ctx) from a `vars: ...; weights: ...; field: ...` line."""
    fields = {}
    for chunk in line.split(";"):
        key, _, val = chunk.partition(":")
        fields[key.strip()] = val.strip()
    if not {"vars", "weights", "field"} <= set(fields):
        raise ParseError(f"incomplete header {line!r}")
    names = fields["vars"].split()
    weights = tuple(_parse_natural(w, f"bad weight {w!r}")
                    for w in fields["weights"].split())
    if len(weights) != len(names):
        raise ParseError("weights count != vars count")
    return names, weights, parse_field(fields["field"])


def parse_poly_file(text: str):
    """-> (names, weights, ctx, {name: MultiPoly}) for a polynomial file."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty polynomial file")
    names, weights, ctx = parse_header(lines[0])
    polys = {}
    for ln in lines[1:]:
        label, _, body = ln.partition("=")
        if not _:
            raise ParseError(f"expected `name = terms`: {ln!r}")
        polys[label.strip()] = parse_poly(ctx, names, body)
    return names, weights, ctx, polys


def parse_point_file(text: str):
    """-> (ctx, {label: ProjPoint}) for a labeled point file."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("field:"):
        raise ParseError("point file must start with a field: header")
    ctx = parse_field(lines[0].partition(":")[2])
    points = {}
    for ln in lines[1:]:
        label, _, body = ln.partition("=")
        body = body.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ParseError(f"expected `label = (a : b : c)`: {ln!r}")
        coords = [parse_elem(part.strip(), ctx)
                  for part in body[1:-1].split(":")]
        points[label.strip()] = ProjPoint(ctx, coords)
    return ctx, points
