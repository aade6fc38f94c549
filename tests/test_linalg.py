import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from weylfan import linalg


def hnf_with_transform(m):
    """(heads, u) from the Hermite form of (m | I): u * m = heads, and u is
    unimodular, so the nonzero heads span the row lattice of m."""
    n = len(m[0]) if m else 0
    h = linalg.hermite_normal_form(tuple(tuple(row) + e
                                         for row, e in zip(m, linalg.identity_matrix(len(m)))))
    return tuple(row[:n] for row in h), tuple(row[n:] for row in h)


def test_hnf_example():
    m = ((2, 4), (1, 3))
    # Canonical reduced form: entry above the pivot 2 lies in [0, 2).
    assert linalg.hermite_normal_form(m) == ((1, 1), (0, 2))
    heads, u = hnf_with_transform(m)
    assert heads == ((1, 1), (0, 2))
    assert linalg.matmul(u, m) == heads
    assert abs(bareiss_det(u)) == 1


def test_hnf_identity_and_zero():
    ident = linalg.identity_matrix(3)
    assert linalg.hermite_normal_form(ident) == ident
    assert hnf_with_transform(ident) == (ident, ident)
    assert linalg.hermite_normal_form(((0, 0),)) == ()
    assert hnf_with_transform(((0, 0),)) == (((0, 0),), ((1,),))
    # no rows, and rows with no columns
    for m in ((), ((),), ((), ())):
        assert linalg.hermite_normal_form(m) == ()
        assert linalg.rank(m) == 0
        assert linalg.kernel_basis(m) == linalg.identity_matrix(len(m))


def test_hnf_idempotent_and_unimodular_random():
    """Echelon shape, positive pivots, entries above each pivot in
    [0, pivot), idempotence, and the row lattice of m."""
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = tuple(tuple(rng.randrange(-9, 10) for _ in range(cols)) for _ in range(rows))
        h = linalg.hermite_normal_form(m)
        pivots = [next(j for j, x in enumerate(row) if x) for row in h]
        assert pivots == sorted(set(pivots))
        for i, j in enumerate(pivots):
            assert h[i][j] > 0
            assert all(0 <= h[k][j] < h[i][j] for k in range(i))
        assert linalg.hermite_normal_form(h) == h
        heads, u = hnf_with_transform(m)
        assert linalg.matmul(u, m) == heads
        assert abs(bareiss_det(u)) == 1
        assert tuple(row for row in heads if any(row)) == h


def test_kernel_examples():
    assert linalg.kernel_basis(((1,), (1,))) == ((1, -1),)
    # A2 positive roots alpha, beta, gamma=alpha+beta in root-lattice coords.
    mu = ((1, 0), (0, 1), (1, 1))
    assert linalg.kernel_basis(mu) == ((1, 1, -1),)
    assert linalg.kernel_basis(linalg.identity_matrix(3)) == ()


def test_kernel_property_random():
    rng = random.Random(5)
    for _ in range(120):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 5)
        m = tuple(tuple(rng.randrange(-5, 6) for _ in range(cols)) for _ in range(rows))
        kern = linalg.kernel_basis(m)
        for x in kern:
            assert linalg.vec_is_zero(linalg.vec_matmul(x, m))
        assert len(kern) == rows - linalg.rank(m)


def test_kernel_spans_every_small_relation():
    """Every x in [-2, 2]^rows with x * m = 0 is an integer combination of
    the ``kernel_basis`` rows: adding x leaves their Hermite form as it is."""
    rng = random.Random(17)
    seen = 0
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 4)
        m = tuple(tuple(rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(cols)) for _ in range(rows))
        kern = linalg.kernel_basis(m)
        for x in product(range(-2, 3), repeat=rows):
            if not linalg.vec_is_zero(linalg.vec_matmul(x, m)):
                continue
            assert linalg.hermite_normal_form(kern + (x,)) == kern, (m, x)
            seen += x not in kern and any(x)
    assert seen > 100, seen


def test_kernel_basis_runs_one_elimination(monkeypatch):
    calls = []
    hermite_normal_form = linalg.hermite_normal_form
    monkeypatch.setattr(linalg, "hermite_normal_form",
                        lambda m: calls.append(m) or hermite_normal_form(m))
    m = ((1, 0), (0, 1), (1, 1), (2, 2))
    assert linalg.kernel_basis(m) == ((1, 1, 1, -1), (0, 0, 2, -1))
    assert calls == [tuple(row + e for row, e in zip(m, linalg.identity_matrix(4)))]


def test_lattices_equal():
    assert linalg.lattices_equal(((1, 1, -1),), ((-1, -1, 1),))
    assert not linalg.lattices_equal(((1, 0),), ((2, 0),))
    assert linalg.lattices_equal(((1, 0), (0, 1)), ((1, 1), (0, 1)))


def test_lattices_equal_is_equivalence():
    rng = random.Random(23)
    for _ in range(60):
        m = tuple(tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(3))
        assert linalg.lattices_equal(m, m)
        # a unimodular transform preserves the lattice
        u = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        assert linalg.lattices_equal(m, linalg.matmul(u, m))


def int_inverse(b):
    """Exact inverse of a square unimodular integer matrix: the u with
    u * b = h = identity from the Hermite form of (b | I).  Raises ValueError
    when b is not square or |det b| != 1.  The oracle for the expansions in
    a chart (``roots.chart_walk``, ``test_roots``) and for the dual bases of
    cones (``test_fans``, ``test_typea``)."""
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("matrix is not square")
    h, u = hnf_with_transform(b)
    if h != linalg.identity_matrix(n):
        raise ValueError(f"determinant {bareiss_det(b)} is not ±1")
    return u


def dual_basis(b):
    """For a square unimodular b, the matrix d with b * d^T = identity: the
    dual basis of the rows of b.  Raises ValueError otherwise."""
    return linalg.transpose(int_inverse(b))


def test_dual_basis():
    ident = linalg.identity_matrix(4)
    assert dual_basis(ident) == ident
    with pytest.raises(ValueError, match="determinant 2"):
        dual_basis(((2,),))
    for non_square in (((1, 0), (0, 1), (1, 1)), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="not square"):
            int_inverse(non_square)
        with pytest.raises(ValueError, match="not square"):
            dual_basis(non_square)
    # A2 simple roots in root-lattice coordinates are the identity already;
    # a sheared unimodular basis round-trips through the pairing.
    b = ((1, 1), (0, 1))
    d = dual_basis(b)
    assert linalg.matmul(b, linalg.transpose(d)) == linalg.identity_matrix(2)
    assert dual_basis(d) == b


def test_dual_basis_involution_random():
    rng = random.Random(3)
    for _ in range(80):
        # random unimodular matrix: product of elementary shears and swaps
        n = rng.randrange(1, 5)
        b = [list(row) for row in linalg.identity_matrix(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randrange(-3, 4)
                b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        b = tuple(map(tuple, b))
        d = dual_basis(b)
        assert linalg.matmul(b, linalg.transpose(d)) == linalg.identity_matrix(n)
        assert dual_basis(d) == b


def in_rational_span(basis, v):
    """True iff v lies in the Q-span of the rows of basis: the rank oracle of
    ``test_gauss_jordan_oracle`` and of ``test_fans``' subsystem roots."""
    return linalg.rank(tuple(basis) + (tuple(v),)) == linalg.rank(basis)


def gauss_jordan_solve(basis, target):
    """The unique x over Q with x * basis = target, or None; ValueError for
    dependent rows.  Fraction Gauss-Jordan, the oracle for the mcoords of the
    listed roots (``test_roots``)."""
    k = len(basis)
    ncols = len(target)
    aug = [[Fraction(basis[i][j]) for i in range(k)] + [Fraction(target[j])]
           for j in range(ncols)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, ncols) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pr = aug[r][c]
        aug[r] = [x / pr for x in aug[r]]
        for i in range(ncols):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if len(pivots) != k:
        raise ValueError("basis rows are linearly dependent")
    if any(aug[i][k] != 0 for i in range(r, ncols)):
        return None
    x = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        x[c] = aug[i][k]
    return tuple(x)


def test_gauss_jordan_oracle():
    """The oracle of ``test_roots``: integer combinations come back exactly,
    half-integer ones as Fractions, a target is solved iff it lies in the
    rational span, and a dependent basis raises ValueError."""
    rng = random.Random(9)
    checked = {"integer": 0, "half": 0, "outside": 0, "dependent": 0}
    for _ in range(400):
        dim = rng.randrange(1, 7)
        k = rng.randrange(0, min(5, dim) + 1)
        basis = tuple(tuple(rng.randrange(-3, 4) for _ in range(dim)) for _ in range(k))
        if k and rng.random() < 0.2:
            # last row a combination of the others (the zero row when k = 1)
            c = tuple(rng.randrange(-2, 3) for _ in range(k - 1))
            basis = basis[:-1] + (linalg.vec_matmul(c, basis[:-1]) if c else (0,) * dim,)
        if linalg.rank(basis) < k:
            with pytest.raises(ValueError):
                gauss_jordan_solve(basis, (0,) * dim)
            checked["dependent"] += 1
            continue
        ys = [tuple(rng.randrange(-5, 6) for _ in range(k)) for _ in range(4)]
        for y in ys:
            assert gauss_jordan_solve(basis, linalg.vec_matmul(y, basis) if k else (0,) * dim) == y
        for t in (tuple(rng.randrange(-4, 5) for _ in range(dim)) for _ in range(4)):
            q = gauss_jordan_solve(basis, t)
            assert (q is not None) == in_rational_span(basis, t)
            if q is None:
                checked["outside"] += 1
            else:
                assert tuple(sum(x * b[j] for x, b in zip(q, basis)) for j in range(dim)) == t
        if k:
            # over the basis with its first row doubled, y = (y0 / 2, y1, ...)
            doubled = (linalg.vec_scale(2, basis[0]),) + basis[1:]
            for y in (y for y in ys if y[0] % 2):
                t = linalg.vec_matmul(y, basis)
                assert gauss_jordan_solve(doubled, t) == (Fraction(y[0], 2),) + y[1:]
                checked["half"] += 1
        checked["integer"] += 4
    with pytest.raises(ValueError):
        gauss_jordan_solve(((1, 2, 3), (0, 1, 1), (1, 3, 4)), (0, 0, 0))
    assert gauss_jordan_solve((), (0, 0, 1, 0)) is None
    assert min(checked.values()) > 20, checked


def bareiss_det(m):
    """Determinant of a square integer matrix (Bareiss, exact): the oracle
    for the determinants of cones and bases in the tests.

    Step k replaces a[i][j] by (a[i][j] * p - a[i][k] * a[k][j]) / prev, p
    the pivot a[k][k] and prev the pivot before it; the division is exact.
    A row with a[i][k] = 0 is only rescaled by p / prev, and left alone when
    p == prev, as in the sparse ray matrices of chamber fans.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            if c:
                for j in range(k + 1, n):
                    row[j] = (row[j] * p - c * pivot_row[j]) // prev
            elif p != prev:
                for j in range(k + 1, n):
                    row[j] = row[j] * p // prev
        prev = p
    return sign * a[n - 1][n - 1]


def gauss_det(m):
    """Determinant by Gaussian elimination over Fraction, with a row swap
    for each zero pivot: the oracle for ``bareiss_det``."""
    a = [[Fraction(x) for x in row] for row in m]
    d = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return d


def test_det_matches_gauss():
    """Sparse matrices with negative entries, so that pivots are often zero
    (a row swap) and rows often have a zero multiplier (only rescaled, or
    skipped when the pivot repeats); a fifth made singular on purpose."""
    rng = random.Random(13)
    entries = (0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -5, 7)
    checked = {"singular": 0, "swap": 0, "big": 0}
    for _ in range(400):
        n = rng.randrange(1, 7)
        m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            # row i a multiple of row j, the zero row included
            i, j = rng.sample(range(n), 2)
            m[i] = [rng.randrange(-2, 3) * x for x in m[j]]
        m = tuple(map(tuple, m))
        d = bareiss_det(m)
        assert type(d) is int and d == gauss_det(m), m
        checked["singular"] += d == 0
        checked["swap"] += m[0][0] == 0 and d != 0
        checked["big"] += abs(d) > 50
    assert bareiss_det(()) == 1 == gauss_det(())
    assert min(checked.values()) > 20, checked


def test_extreme_rays_examples():
    """A cone with a line (a half-space, rows of a plane, no rows) gives None;
    the orthant and the cone over a square give their rays and the bitmasks
    of the rows each ray is tight on."""
    assert linalg.extreme_rays([(1, 0, 0)]) is None
    assert linalg.extreme_rays([(1, 0, 0), (0, 1, 0), (-1, -1, 0)]) is None
    assert linalg.extreme_rays([]) is None
    assert sorted(linalg.extreme_rays(linalg.identity_matrix(3))) == [
        ((0, 0, 1), 0b011), ((0, 1, 0), 0b101), ((1, 0, 0), 0b110)]
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    assert sorted(linalg.extreme_rays(square)) == [
        ((-1, -1, 1), 0b0011), ((-1, 1, 1), 0b1001), ((1, -1, 1), 0b0110), ((1, 1, 1), 0b1100)]
    # a repeated row, a multiple of a row and a redundant row change nothing
    # but the zero sets
    more = square + [(0, 1, 1), (2, 0, 2), (0, 0, 1)]
    assert sorted(linalg.extreme_rays(more)) == [
        ((-1, -1, 1), 0b0110011), ((-1, 1, 1), 0b0101001), ((1, -1, 1), 0b0010110),
        ((1, 1, 1), 0b0001100)]


def extreme_rays_by_subsets(rows, k):
    """Oracle: each set of k - 1 rows whose common kernel is a line gives
    its two primitive directions; the extreme rays are those that satisfy
    every row."""
    found = set()
    for sub in combinations(rows, k - 1):
        kern = linalg.kernel_basis(linalg.transpose(sub)) if sub else linalg.identity_matrix(k)
        if len(kern) != 1:
            continue
        for y in (kern[0], linalg.vec_neg(kern[0])):
            y = linalg.vec_primitive(y)
            if all(linalg.vec_dot(a, y) >= 0 for a in rows):
                found.add(y)
    return found


def test_extreme_rays_equal_the_subset_search_random():
    """Random rows with small entries, repeats and rows of a subspace
    included: None iff the rows do not span; otherwise each ray satisfies
    every row, its bitmask is exactly the rows it is tight on, and the rays
    are the oracle's."""
    rng = random.Random(29)
    seen = {"none": 0, "rays": 0, "degenerate": 0}
    for _ in range(300):
        k = rng.randrange(1, 5)
        rows = [tuple(rng.randrange(-2, 3) for _ in range(k)) for _ in range(rng.randrange(1, 8))]
        if rng.random() < 0.2:
            rows.append(rows[0])
        got = linalg.extreme_rays(rows)
        if linalg.rank(tuple(rows)) < k:
            assert got is None, rows
            seen["none"] += 1
            continue
        for y, zeros in got:
            assert linalg.vec_primitive(y) == y and not linalg.vec_is_zero(y)
            dots = [linalg.vec_dot(a, y) for a in rows]
            assert min(dots) >= 0
            assert zeros == sum(1 << i for i, x in enumerate(dots) if x == 0)
            seen["degenerate"] += zeros.bit_count() > k - 1
        rays = [y for y, _ in got]
        assert len(set(rays)) == len(rays)
        assert set(rays) == extreme_rays_by_subsets(rows, k), rows
        seen["rays"] += len(rays) > k
    assert min(seen.values()) > 10, seen
