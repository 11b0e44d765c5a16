import random
from collections import Counter
from itertools import combinations

import pytest

from salemsurf import lattice as lat
from salemsurf.errors import InvariantViolation
from salemsurf.mod2space import (Mod2QuadSpace, enumerate_lagrangians,
                                 mat2_from_int, mat2_images,
                                 mod2_action_analysis,
                                 mod2_reduce_and_factor, rref_rows)

QUINTIC_A = (1, 0, 1, 1, 1, 1)
QUINTIC_B = (1, 1, 1, 1, 0, 1)


# Oracles: GF(2) matrices as tuples of column bitmasks, multiplied out.


def mat2_apply(cols, v: int) -> int:
    """M v, one column per set bit of v."""
    r = 0
    j = 0
    while v:
        if v & 1:
            r ^= cols[j]
        v >>= 1
        j += 1
    return r


def span_of(rows) -> set:
    """Every sum of a subset of rows."""
    s = {0}
    for v in rows:
        s |= {x ^ v for x in s}
    return s


def mat2_identity(n) -> tuple:
    return tuple(1 << j for j in range(n))


def mat2_mul(a, b) -> tuple:
    return tuple(mat2_apply(a, bj) for bj in b)


def mat2_add(a, b) -> tuple:
    return tuple(x ^ y for x, y in zip(a, b))


def mat2_order(cols) -> int:
    n = len(cols)
    ident = mat2_identity(n)
    cur = cols
    for k in range(1, (1 << (2 * n)) + 1):
        if cur == ident:
            return k
        cur = mat2_mul(cols, cur)
    raise InvariantViolation("matrix mod 2 is not invertible")


def mat2_poly_at(cols, coeffs) -> tuple:
    """p(M) over GF(2): coeffs low degree first, each taken mod 2."""
    n = len(cols)
    acc = (0,) * n
    pw = mat2_identity(n)
    for c in coeffs:
        if c % 2:
            acc = mat2_add(acc, pw)
        pw = mat2_mul(cols, pw)
    return acc


def mat2_kernel(cols) -> list:
    """Basis bitmasks of {v : M v = 0}, by row reduction."""
    n = len(cols)
    red = rref_rows(sum(((cols[j] >> i) & 1) << j for j in range(n))
                    for i in range(n))
    pivots = {r.bit_length() - 1 for r in red}
    ker = []
    for free in range(n):
        if free in pivots:
            continue
        v = 1 << free
        for r in red:
            if (r >> free) & 1:
                v ^= 1 << (r.bit_length() - 1)
        ker.append(v)
    return ker


def _lift(cols):
    """The 0/1 integer matrix with the columns cols; its characteristic
    polynomial reduces mod 2 to that of cols over GF(2)."""
    n = len(cols)
    return [[(cols[j] >> i) & 1 for j in range(n)] for i in range(n)]


def subspace_contains(rows, v: int) -> bool:
    """Oracle: v lies in the span of the RREF rows."""
    for r in rows:
        if (v >> (r.bit_length() - 1)) & 1:
            v ^= r
    return v == 0


def intersection_dim(rows_a, rows_b) -> int:
    """Oracle: dim(A meet B) = dim A + dim B - dim(A + B)."""
    return len(rows_a) + len(rows_b) - len(rref_rows((*rows_a, *rows_b)))


def _canonical(census):
    """Each member as its RREF row tuple, in member order."""
    return [rref_rows(rows) for rows in census.members]


def _classes(census):
    """The class of each member, in member order."""
    return [int(i >= census.split) for i in range(len(census.members))]


def test_quadratic_form_axioms(e10_basis):
    sp = Mod2QuadSpace(lat.gram_of(e10_basis))
    rng = random.Random(13)
    assert sp.q[0] == 0
    for _ in range(200):
        u = rng.randrange(1 << sp.dim)
        v = rng.randrange(1 << sp.dim)
        w = rng.randrange(1 << sp.dim)
        assert sp.bilinear(u, u) == 0
        assert sp.bilinear(u, v) == sp.bilinear(v, u)
        assert sp.bilinear(u ^ v, w) == sp.bilinear(u, w) ^ sp.bilinear(v, w)
        assert sp.q[u ^ v] == sp.q[u] ^ sp.q[v] ^ sp.bilinear(u, v)


def _hyperbolic_sum(k):
    """U^k: k orthogonal copies of the hyperbolic plane [[0, 1], [1, 0]]."""
    n = 2 * k
    return [[1 if i // 2 == j // 2 and i != j else 0 for j in range(n)]
            for i in range(n)]


def _unimodular(n, seed):
    """A seeded unimodular integer matrix (a product of row operations)."""
    rng = random.Random(seed)
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(40):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    return a


def _changed_basis(gram, seed):
    """A^T G A for the seeded unimodular A of _unimodular."""
    n = len(gram)
    a = _unimodular(n, seed)
    return [[sum(a[r][i] * gram[r][s] * a[s][j]
                 for r in range(n) for s in range(n)) for j in range(n)]
            for i in range(n)]


@pytest.fixture(scope="module")
def grams(e10_basis):
    bundled = lat.gram_of(e10_basis)
    return {"bundled": bundled, "hyperbolic": _hyperbolic_sum(5),
            "changed_basis": _changed_basis(bundled, 17)}


def test_changed_basis_gram_has_negative_and_large_entries(grams):
    entries = [x for row in grams["changed_basis"] for x in row]
    assert min(entries) < 0
    assert max(abs(x) for x in entries) > 1000


@pytest.mark.parametrize("name", ["bundled", "changed_basis", "hyperbolic"])
def test_q_matches_definition(grams, name):
    gram = grams[name]
    sp = Mod2QuadSpace(gram)
    n = len(gram)
    for v in range(1 << n):
        x = [(v >> i) & 1 for i in range(n)]
        norm = sum(x[i] * gram[i][j] * x[j]
                   for i in range(n) for j in range(n))
        assert sp.q[v] == (norm // 2) % 2


@pytest.mark.parametrize("name", ["hyperbolic", "changed_basis"])
def test_census_on_other_grams(grams, name):
    sp = Mod2QuadSpace(grams[name])
    census = enumerate_lagrangians(sp)
    members = _canonical(census)
    assert len(members) == 4590 == len(set(members))
    assert all(len(rows) == 5 for rows in members)
    assert all(sp.q[v] == 0 for rows in members for v in span_of(rows))
    assert census.class_sizes() == (2295, 2295)


def test_standard_space_is_plus_type(e10_basis):
    """Arf invariant 0: a plus-type space of dimension 2h has
    2^(2h-1) + 2^(h-1) - 1 nonzero singular vectors."""
    sp = Mod2QuadSpace(lat.gram_of(e10_basis))
    assert sp.dim == 10
    singular = sum(1 for v in range(1, 1 << sp.dim) if sp.q[v] == 0)
    assert singular == (1 << 9) + (1 << 4) - 1


@pytest.mark.parametrize("k,count", [(1, 2), (2, 6), (3, 30)])
def test_census_against_brute_force(k, count):
    """Every k-dimensional subspace of U^k spanned by some k vectors,
    kept when q vanishes on all of it, against the census."""
    sp = Mod2QuadSpace(_hyperbolic_sum(k))
    spans = {frozenset(span_of(vs))
             for vs in combinations(range(1, 1 << sp.dim), k)}
    lagrangians = {s for s in spans
                   if len(s) == 1 << k and all(sp.q[v] == 0 for v in s)}
    census = enumerate_lagrangians(sp)
    assert len(lagrangians) == count == len(census.members)
    assert {frozenset(span_of(rows)) for rows in census.members} \
        == lagrangians
    assert all(len(rows) == k for rows in _canonical(census))
    assert census.class_sizes() == (count // 2, count // 2)


def _orthogonal_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at:at + len(row)] = row
        at += len(g)
    return out


@pytest.mark.parametrize("gram,message", [
    # A2 + U^4: Arf invariant 1, no Lagrangian at all
    (_orthogonal_sum([[2, 1], [1, 2]], _hyperbolic_sum(4)), "plus-type"),
    (_orthogonal_sum(_hyperbolic_sum(1), [[2]]), "even dimension"),
    (_orthogonal_sum(_hyperbolic_sum(2), [[0, 0], [0, 2]]),
     "nondegenerate polar form"),
    (_orthogonal_sum([[2, 0], [0, 2]], _hyperbolic_sum(1)),
     "nondegenerate polar form"),
])
def test_census_rejects_other_spaces(gram, message):
    with pytest.raises(InvariantViolation, match=message):
        enumerate_lagrangians(Mod2QuadSpace(gram))


def test_census_follows_a_change_of_basis(census, e10_basis):
    """The census of A^T G A, mapped through A mod 2 (new coordinates to
    old), is the census of G."""
    gram = lat.gram_of(e10_basis)
    moved = enumerate_lagrangians(Mod2QuadSpace(_changed_basis(gram, 17)))
    cols = mat2_from_int(_unimodular(len(gram), 17))
    assert sorted(rref_rows(mat2_apply(cols, r) for r in rows)
                  for rows in moved.members) == sorted(_canonical(census))


REJECTED = "gram is not even and symmetric; no quadratic refinement"


def test_odd_gram_rejected():
    with pytest.raises(InvariantViolation, match=REJECTED):
        Mod2QuadSpace([[1]])


def test_asymmetric_gram_rejected():
    with pytest.raises(InvariantViolation, match=REJECTED):
        Mod2QuadSpace([[0, 1], [0, 0]])
    with pytest.raises(InvariantViolation, match=REJECTED):
        Mod2QuadSpace([[0, 1], [3, 0]])


def test_non_square_gram_rejected():
    with pytest.raises(InvariantViolation, match="gram must be square"):
        Mod2QuadSpace([[0, 1]])


def test_mat2_ops():
    ident = mat2_identity(4)
    assert mat2_from_int([[1 if i == j else 0 for j in range(4)]
                          for i in range(4)]) == ident
    assert mat2_order(ident) == 1
    rng = random.Random(14)
    cols = tuple(rng.randrange(16) for _ in range(4))
    for _ in range(20):
        u, v = rng.randrange(16), rng.randrange(16)
        assert mat2_apply(cols, u ^ v) == \
            mat2_apply(cols, u) ^ mat2_apply(cols, v)
    a = tuple(rng.randrange(16) for _ in range(4))
    for _ in range(20):
        v = rng.randrange(16)
        assert mat2_apply(mat2_mul(a, cols), v) == \
            mat2_apply(a, mat2_apply(cols, v))
    assert mat2_images(cols) == [mat2_apply(cols, v) for v in range(16)]
    assert len(mat2_kernel((0, 0, 0, 0))) == 4


def test_subspace_helpers():
    rows = rref_rows([0b011, 0b110, 0b101])
    assert len(rows) == 2
    assert subspace_contains(rows, 0b101)
    assert not subspace_contains(rows, 0b001)
    assert len(list(span_of(rows))) == 4
    assert intersection_dim(rows, rref_rows([0b011])) == 1
    assert intersection_dim(rows, rref_rows([0b001])) == 0


def _analysis(m, ge):
    return mod2_action_analysis(Mod2QuadSpace(ge), lat.char_poly(m),
                                mat2_images(mat2_from_int(m)))


def _random_vectors(rng, n):
    """n vectors of GF(2)^10, drawn from a random subspace of random
    dimension so that dependent sets are common."""
    gens = [rng.randrange(1 << 10) for _ in range(rng.randrange(11))]
    out = []
    for _ in range(n):
        v = 0
        for g in gens:
            if rng.randrange(2):
                v ^= g
        out.append(v)
    return out


def test_rref_and_intersection_against_spans():
    rng = random.Random(37)
    for _ in range(300):
        a = _random_vectors(rng, rng.randrange(13))
        b = _random_vectors(rng, rng.randrange(13))
        ra, rb = rref_rows(a), rref_rows(b)
        span_a, span_b = span_of(a), span_of(b)
        assert span_of(ra) == span_a and len(span_a) == 1 << len(ra)
        pivots = [r.bit_length() - 1 for r in ra]
        assert pivots == sorted(set(pivots), reverse=True)
        assert all((r >> p) & 1 == (r == s) for r in ra
                   for s, p in zip(ra, pivots))
        shuffled = a + [u ^ v for u, v in zip(a, a[1:])]
        rng.shuffle(shuffled)
        assert rref_rows(shuffled) == ra
        common = len(span_a & span_b).bit_length() - 1
        assert intersection_dim(ra, rb) == common


def test_action_analysis_of_restriction(e10_restriction):
    basis, restr = e10_restriction
    rep = _analysis(restr, lat.gram_of(basis))
    assert rep.order == 31
    assert rep.preserves_form
    assert len(rep.invariant_subspaces) == 2
    facs = sorted(tuple(r.factor) for r in rep.invariant_subspaces)
    assert facs == sorted([QUINTIC_A, QUINTIC_B])
    for rec in rep.invariant_subspaces:
        assert rec.multiplicity == 1
        assert len(rec.kernel) == 5
        assert rec.totally_singular


def test_action_analysis_of_identity(e10_restriction):
    basis, _ = e10_restriction
    ident = [[1 if i == j else 0 for j in range(10)] for i in range(10)]
    ge = lat.gram_of(basis)
    rep = _analysis(ident, ge)
    assert rep.order == 1
    assert rep.preserves_form
    assert len(rep.invariant_subspaces) == 1
    rec = rep.invariant_subspaces[0]
    assert tuple(rec.factor) == (1, 1)
    assert rec.multiplicity == 10
    assert len(rec.kernel) == 10
    assert not rec.totally_singular


def test_census_counts(census):
    assert len(census.members) == 4590
    assert census.class_sizes() == (2295, 2295) == (census.split, 2295)


def test_census_members_are_lagrangian(census, e10_basis):
    sp = Mod2QuadSpace(lat.gram_of(e10_basis))
    for rows in census.members:
        assert len(rows) == 5
        assert len(rref_rows(rows)) == 5
        assert all(sp.q[v] == 0 for v in span_of(rows))


def test_census_members_are_distinct(census):
    assert len(set(_canonical(census))) == len(census.members) == 4590


@pytest.mark.parametrize("name", ["bundled", "hyperbolic", "changed_basis"])
def test_census_classes_match_intersection_parity(grams, name):
    """The class read off dim W is the two-family class of the
    intersection parity with a fixed member L0, up to one global flip
    (which family gets called 0)."""
    census = enumerate_lagrangians(Mod2QuadSpace(grams[name]))
    members = _canonical(census)
    h = len(members[0])
    old = [(intersection_dim(rows, members[0]) - h) % 2 for rows in members]
    new = _classes(census)
    flip = old[0] ^ new[0]
    assert [c ^ flip for c in old] == new


def _transvections(sp, seed, count):
    """Columns of a seeded product of orthogonal transvections
    x -> x + b(x, v) v with q(v) = 1, each of which preserves q."""
    rng = random.Random(seed)
    anisotropic = [v for v in range(1, 1 << sp.dim) if sp.q[v]]
    cols = mat2_identity(sp.dim)
    for _ in range(count):
        v = rng.choice(anisotropic)
        t = tuple((1 << j) ^ (v if sp.bilinear(1 << j, v) else 0)
                  for j in range(sp.dim))
        cols = mat2_mul(t, cols)
    return cols


def test_invariance_by_polar_form_matches_containment(census, e10_basis,
                                                      e10_restriction):
    """invariant_members, which tests b(M r, s) = 0 on the rows, agrees
    with row-by-row containment M r in L for the E10 restriction, the
    identity and seeded products of orthogonal transvections."""
    sp = Mod2QuadSpace(lat.gram_of(e10_basis))
    cases = [mat2_from_int(e10_restriction[1]), mat2_identity(10),
             *(_transvections(sp, seed, count)
               for seed, count in ((3, 1), (4, 2), (7, 4)))]
    counts = []
    for cols in cases:
        images = mat2_images(cols)
        assert all(sp.q[w] == q for w, q in zip(images, sp.q))
        want = []
        for rows, cls in zip(census.members, _classes(census)):
            red = rref_rows(rows)
            if all(subspace_contains(red, images[r]) for r in rows):
                want.append((red, cls))
        assert census.invariant_members(images) == want
        counts.append(len(want))
    # one transvection exchanges the two families, so it fixes no member
    assert counts == [2, 4590, 0, 270, 30]


def test_action_analysis_against_matrix_products(e10_basis,
                                                 e10_restriction):
    """The image-table reading agrees with the matrix products: the
    order, and each factor's kernel rows (so its dimension) and singular
    flag, on the E10 restriction, the identity and seeded transvection
    products."""
    sp = Mod2QuadSpace(lat.gram_of(e10_basis))
    cases = [mat2_from_int(e10_restriction[1]), mat2_identity(10),
             *(_transvections(sp, seed, count)
               for seed, count in ((3, 1), (4, 2), (7, 4)))]
    orders, dims = [], []
    for cols in cases:
        cp = lat.char_poly(_lift(cols))
        rep = mod2_action_analysis(sp, cp, mat2_images(cols))
        assert rep.order == mat2_order(cols)
        assert rep.preserves_form
        want = []
        for coeffs, mult in mod2_reduce_and_factor(cp):
            ker = mat2_kernel(mat2_poly_at(cols, coeffs))
            want.append((tuple(coeffs), mult, rref_rows(ker),
                         all(sp.q[v] == 0 for v in span_of(ker))))
        assert [(r.factor, r.multiplicity, r.kernel, r.totally_singular)
                for r in rep.invariant_subspaces] == want
        orders.append(rep.order)
        dims.append([len(r.kernel) for r in rep.invariant_subspaces])
    assert orders[:3] == [31, 1, 2]
    assert dims[:3] == [[5, 5], [10], [9]]


@pytest.mark.parametrize("cols", [(0,) * 10, (*(1 << j for j in range(9)), 0)])
def test_action_analysis_rejects_a_singular_map(e10_basis, cols):
    """The zero map, and a map that kills e_9 only, are not invertible."""
    sp = Mod2QuadSpace(lat.gram_of(e10_basis))
    with pytest.raises(InvariantViolation,
                       match="matrix mod 2 is not invertible"):
        mod2_action_analysis(sp, lat.char_poly(_lift(cols)),
                             mat2_images(cols))


def test_action_analysis_reads_the_form_off_the_table(e10_basis):
    """The transvection x -> x + b(x, v) v in a singular v != 0 is its
    own inverse and changes q wherever b(x, v) = 1."""
    sp = Mod2QuadSpace(lat.gram_of(e10_basis))
    v = next(v for v in range(1, 1 << sp.dim) if not sp.q[v])
    cols = tuple((1 << j) ^ (v if sp.bilinear(1 << j, v) else 0)
                 for j in range(sp.dim))
    rep = mod2_action_analysis(sp, lat.char_poly(_lift(cols)),
                               mat2_images(cols))
    assert rep.order == 2
    assert not rep.preserves_form


def test_invariant_members(census, e10_restriction):
    _, restr = e10_restriction
    inv = census.invariant_members(mat2_images(mat2_from_int(restr)))
    assert len(inv) == 2
    assert sorted(cls for _, cls in inv) == [0, 1]


def test_invariant_members_are_the_factor_kernels(census, e10_restriction):
    """The only M-invariant subspaces are 0, ker f1(M), ker f2(M) and V
    for the two distinct irreducible quintics, so the invariant members
    are exactly the two kernels."""
    basis, restr = e10_restriction
    rep = _analysis(restr, lat.gram_of(basis))
    cols = mat2_from_int(restr)
    kernels = sorted(rref_rows(mat2_kernel(mat2_poly_at(cols, r.factor)))
                     for r in rep.invariant_subspaces)
    inv = census.invariant_members(mat2_images(cols))
    assert sorted(rows for rows, _ in inv) == kernels


def test_coxeter_orbits_on_the_census(census, e10_restriction):
    """<M mod 2> has order 31 and two fixed members, so it splits the
    other 4,588 members into 148 free orbits."""
    cols = mat2_from_int(e10_restriction[1])
    index = {rows: i for i, rows in enumerate(_canonical(census))}
    image = [index[rref_rows(mat2_apply(cols, r) for r in rows)]
             for rows in census.members]
    seen = [False] * len(image)
    sizes = Counter()
    for start in range(len(image)):
        if seen[start]:
            continue
        size, i = 0, start
        while not seen[i]:
            seen[i] = True
            size += 1
            i = image[i]
        assert i == start  # the walk closes a cycle: M permutes members
        sizes[size] += 1
    assert sizes == {1: 2, 31: 148}
