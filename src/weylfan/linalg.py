"""Exact integer linear algebra on row vectors.

Vectors are tuples of Python ints, matrices are tuples of row vectors.
Everything is arbitrary precision and immutable; no floats appear anywhere
in this package, and Fractions only pass through the ``vec_*`` helpers.

There is one elimination and one double description.
``hermite_normal_form`` serves the lattices, and the kernels, read off the
Hermite form of (m | I) with no transform carried: the relations among the
characters and the facet normals of a fan.  ``extreme_rays`` gives the
facets of a cone from its rays, and the vertices of the root polytope's
polar from the roots, with the rows tight on each.

Conventions:

* lattices are row spans: the lattice generated by a matrix is the set of
  integer combinations of its rows;
* ``hermite_normal_form`` is row-style: echelon shape, positive pivots,
  entries above each pivot reduced into [0, pivot).  It returns only the
  nonzero rows, a canonical basis of the row span, so lattice equality is a
  direct comparison, and a canonical kernel needs no second elimination.
"""

from math import gcd


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b, strict=True))


def vec_is_zero(a):
    return all(x == 0 for x in a)


def vec_primitive(a):
    """Divide out the gcd of the entries; sign is preserved. Zero stays zero."""
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def matmul(a, b):
    """Product of row matrices: (a @ b)[i][j] = sum_k a[i][k] b[k][j]."""
    bt = transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def vec_matmul(v, m):
    """Row vector times matrix."""
    return tuple(vec_dot(v, col) for col in transpose(m))


def hermite_normal_form(m):
    """The nonzero rows of the row Hermite normal form of m: a canonical
    basis of its row span, in echelon shape, with positive pivots and the
    entries above each pivot reduced into [0, pivot).
    """
    h = [list(row) for row in m]
    k = len(h)
    ncols = len(h[0]) if k else 0
    row = 0
    for col in range(ncols):
        if row == k:
            break
        piv = next((i for i in range(row, k) if h[i][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            h[row], h[piv] = h[piv], h[row]
        for i in range(row + 1, k):
            # Euclid on (h[row][col], h[i][col]) by alternating row subtractions.
            while h[i][col] != 0:
                q = h[row][col] // h[i][col]
                h[row] = [x - q * y for x, y in zip(h[row], h[i])]
                h[row], h[i] = h[i], h[row]
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
        p = h[row][col]
        for i in range(row):
            q = h[i][col] // p
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[row])]
        row += 1
    return tuple(map(tuple, h[:row]))


def kernel_basis(m):
    """Canonical Z-basis of the left integer kernel {x : x*m = 0}: the tails
    of the rows of the Hermite form of (m | I) whose heads are zero.

    The rows with a pivot in the head are independent there, so the zero-head
    rows span every x with x*m = 0, and they are already in Hermite form.
    Empty tuple iff the kernel is trivial.
    """
    n = len(m[0]) if m else 0
    h = hermite_normal_form(tuple(tuple(row) + e for row, e in zip(m, identity_matrix(len(m)))))
    return tuple(row[n:] for row in h if not any(row[:n]))


def lattices_equal(a, b):
    """True iff the row spans of a and b coincide as lattices."""
    return hermite_normal_form(a) == hermite_normal_form(b)


def rank(m):
    return len(hermite_normal_form(m))


def _into_hyperplane(a, p, v):
    """The primitive multiple of <a, p> v - <a, v> p, which lies on a = 0."""
    return vec_primitive(vec_sub(vec_scale(vec_dot(a, p), v), vec_scale(vec_dot(a, v), p)))


def extreme_rays(rows):
    """Extreme rays of the cone {y in Q^k : <a, y> >= 0 for a in rows}, each
    a primitive integer vector y with the bitmask z of the rows it is tight
    on (row i is bit i); None when the rows do not span Q^k (the cone has a
    lineality space), and for no rows.

    Double description, one row at a time (Motzkin et al.; Fukuda-Prodon).
    While the cone has a lineality space, a row that is nonzero on it turns
    one lineality vector p, with <a, p> > 0, into a ray and moves the other
    generators into the hyperplane along p; the other rows wait.  On the
    pointed cone a row keeps the rays on its nonnegative side, plus one ray
    on its hyperplane for each adjacent pair it separates: two rays are
    adjacent iff no third ray is tight on every row tight on both, a test
    that stays exact where more than k - 1 rows are tight on a ray.
    """
    if not rows:
        return None
    k = len(rows[0])
    lineality = list(identity_matrix(k))
    rays, added, waiting = [], 0, []   # rays are (y, z) pairs
    for i, a in enumerate(rows):
        j = next((j for j, p in enumerate(lineality) if vec_dot(a, p)), None)
        if j is None:
            waiting.append(i)
            continue
        p = lineality.pop(j)
        if vec_dot(a, p) < 0:
            p = vec_neg(p)
        lineality = [_into_hyperplane(a, p, v) for v in lineality]
        rays = [(_into_hyperplane(a, p, v), z | 1 << i) for v, z in rays]
        rays.append((p, added))
        added |= 1 << i
    if lineality:
        return None
    for i in waiting:
        a = rows[i]
        side = [vec_dot(a, v) for v, _ in rays]
        new = [(v, z | 1 << i if s == 0 else z) for (v, z), s in zip(rays, side) if s >= 0]
        for x in (x for x, s in enumerate(side) if s > 0):
            for y in (y for y, s in enumerate(side) if s < 0):
                common = rays[x][1] & rays[y][1]
                if common.bit_count() >= k - 2 and not any(
                        common & z == common
                        for u, (_, z) in enumerate(rays) if u != x and u != y):
                    new.append((_into_hyperplane(a, rays[x][0], rays[y][0]), common | 1 << i))
        rays = new
    return rays
