"""Reference answers computed without importing ``weylfan``.

Everything here is written from the definitions (root systems in ambient
coordinates, Weyl group order formulas, Eulerian numbers, the pairwise nef
criterion, pointed chains) so that a wrong answer from the library cannot
also be the expected answer.  Arithmetic is exact: ints and Fractions only.
"""

from fractions import Fraction
from math import comb, factorial


# -- root systems -----------------------------------------------------------

def family_roots(family, rank):
    """(ambient dimension, roots, base simple roots) of one classical factor."""
    if family == "A":
        dim = rank + 1
        unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
        roots = [_sub(unit[i], unit[j]) for i in range(dim) for j in range(dim) if i != j]
        base = [_sub(unit[i], unit[i + 1]) for i in range(rank)]
        return dim, roots, base
    if family in ("B", "C", "D"):
        dim = rank
        unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
        roots = []
        for i in range(dim):
            for j in range(i + 1, dim):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(_add(_scale(si, unit[i]), _scale(sj, unit[j])))
        long_short = {"B": 1, "C": 2, "D": 0}[family]
        if long_short:
            roots += [_scale(s * long_short, unit[i]) for i in range(dim) for s in (1, -1)]
        base = [_sub(unit[i], unit[i + 1]) for i in range(rank - 1)]
        if family == "D":
            base.append(_add(unit[rank - 2], unit[rank - 1]))
        else:
            base.append(_scale(long_short, unit[rank - 1]))
        return dim, roots, base
    if family == "G":
        short = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
        long = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        roots = short + long + [_scale(-1, v) for v in short + long]
        return 3, roots, [(1, -1, 0), (-1, 2, -1)]
    raise ValueError(f"unknown family {family!r}")


class RootData:
    """A product of classical factors: roots, base, positive roots."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        blocks = [family_roots(f, r) for f, r in self.factors]
        self.dim = sum(b[0] for b in blocks)
        roots, base, off = [], [], 0
        for bdim, broots, bbase in blocks:
            pad = lambda v: (0,) * off + tuple(v) + (0,) * (self.dim - off - bdim)
            roots += [pad(v) for v in broots]
            base += [pad(v) for v in bbase]
            off += bdim
        self.roots = sorted(set(roots))
        self.base = base
        inv = gram_inverse(base)
        self.positive = [v for v in self.roots if all(c >= 0 for c in coefficients(v, base, inv))]
        self.triples = additive_triples(self.roots)

    def random_chart(self, rng, length):
        """The image of the base under a random word of simple reflections."""
        chart = list(self.base)
        for _ in range(length):
            alpha = self.base[rng.randrange(len(self.base))]
            chart = [reflect(alpha, v) for v in chart]
        return chart


def weyl_order(factors):
    total = 1
    for fam, n in factors:
        total *= {"A": factorial(n + 1), "B": 2 ** n * factorial(n),
                  "C": 2 ** n * factorial(n), "D": 2 ** (n - 1) * factorial(n),
                  "G": 12}[fam]
    return total


def ray_count(factors):
    """Rays of the chamber fan: W-orbits of the fundamental coweights.

    The orbit of the coweight of node k has |W| / |W_k| elements, W_k the
    parabolic subgroup of the diagram without node k.
    """
    total = 0
    for fam, n in factors:
        if fam == "A":
            total += 2 ** (n + 1) - 2
        elif fam in ("B", "C"):
            total += 3 ** n - 1
        elif fam == "D":
            total += sum(comb(n, k) * 2 ** k for k in range(1, n - 1)) + 2 ** n
        elif fam == "G":
            total += 12
    return total


def weyl_order_of_roots(roots):
    """|W| of a crystallographic root set, from its irreducible components.

    An irreducible system is determined up to its Weyl group by (rank,
    number of roots): A_n has n(n+1) roots, B_n/C_n 2n^2, D_n 2n(n-1) and
    G_2 twelve; where two types share both numbers they share |W| too.
    """
    total = 1
    for comp in components(roots):
        n, count = rank(comp), len(comp)
        if count == n * (n + 1):
            total *= factorial(n + 1)
        elif count == 2 * n * n:
            total *= 2 ** n * factorial(n)
        elif count == 2 * n * (n - 1):
            total *= 2 ** (n - 1) * factorial(n)
        elif (n, count) == (2, 12):
            total *= 12
        else:
            raise ValueError(f"no irreducible type with rank {n} and {count} roots")
    return total


def components(roots):
    """Classes of the roots under 'not orthogonal', as sorted lists."""
    left = set(roots)
    out = []
    while left:
        seed = min(left)
        comp, frontier = {seed}, [seed]
        while frontier:
            a = frontier.pop()
            for b in [b for b in left - comp if _dot(a, b)]:
                comp.add(b)
                frontier.append(b)
        left -= comp
        out.append(sorted(comp))
    return out


def reflect(alpha, v):
    return _sub(v, _scale(2 * _dot(v, alpha) // _dot(alpha, alpha), alpha))


def additive_triples(roots):
    """{(frozenset {a, b}, a + b)} over unordered pairs whose sum is a root."""
    rootset = set(roots)
    out = set()
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            c = _add(a, b)
            if c in rootset:
                out.add((frozenset((a, b)), c))
    return out


# -- exact linear algebra -----------------------------------------------------

def rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def gram_inverse(rows):
    return inverse([[_dot(a, b) for b in rows] for a in rows])


def coefficients(v, rows, gram_inv):
    """x with x * rows = v, for v in the span of the independent ``rows``."""
    pairings = [_dot(v, r) for r in rows]
    return [sum(p * g for p, g in zip(pairings, col)) for col in zip(*gram_inv)]


# -- ratio data -----------------------------------------------------------------

def universal_ratios(rd, chart, coords):
    """{positive root: (num, den)} of the tautological ratios at a chart point.

    A positive root a is a nonnegative or nonpositive combination c of the
    chart's simple roots; its ratio is (prod x^c : 1) or (1 : prod x^-c).
    """
    inv = gram_inverse(chart)
    out = {}
    for a in rd.positive:
        c = coefficients(a, chart, inv)
        sign = 1 if all(x >= 0 for x in c) else -1
        value = Fraction(1)
        for e, x in zip(c, coords):
            value *= Fraction(x) ** int(sign * e)
        out[a] = (value, Fraction(1)) if sign > 0 else (Fraction(1), value)
    return out


def same_ratio(p, q):
    return p[0] * q[1] == p[1] * q[0] and (p[0], p[1]) != (0, 0)


def ratio_of(ratios, v):
    """Ratio of any root from a table keyed by positive roots."""
    if v in ratios:
        return ratios[v]
    num, den = ratios[_scale(-1, v)]
    return den, num


def violated_triples(rd, ratios):
    """Additive triples whose identity t_a t_b t_-c = t_-a t_-b t_c fails."""
    bad = set()
    for pair, c in rd.triples:
        a, b = sorted(pair)
        ta, tb, tc = ratio_of(ratios, a), ratio_of(ratios, b), ratio_of(ratios, c)
        if ta[0] * tb[0] * tc[1] != ta[1] * tb[1] * tc[0]:
            bad.add((pair, c))
    return bad


# -- pointed chains ---------------------------------------------------------------

def chain_pair_ratios(blocks, coords):
    """{(i, j): (num, den)} for i < j, from the definition of chain data."""
    where = {i: k for k, b in enumerate(blocks) for i in b}
    labels = sorted(where)
    out = {}
    for x, i in enumerate(labels):
        for j in labels[x + 1:]:
            if where[i] != where[j]:
                out[(i, j)] = (1, 0) if where[i] < where[j] else (0, 1)
            else:
                (pn, pd), (qn, qd) = coords[i], coords[j]
                out[(i, j)] = (pn * qd, pd * qn)
    return out


def chains_equivalent(blocks1, coords1, blocks2, coords2):
    """Same blocks, and every mark at the same place relative to its block's
    first mark (each component is rescaled independently)."""
    if [sorted(b) for b in blocks1] != [sorted(b) for b in blocks2]:
        return False
    for b in blocks1:
        a = min(b)
        for i in b:
            (pn, pd), (an, ad) = coords1[i], coords1[a]
            (qn, qd), (bn, bd) = coords2[i], coords2[a]
            if pn * ad * qd * bn != pd * an * qn * bd:
                return False
    return True


# -- type A cohomology and divisors --------------------------------------------------

def eulerian_row(m):
    """Permutations of m letters counted by descents, k = 0..m-1."""
    return [sum((-1) ** j * comb(m + 1, j) * (k + 1 - j) ** m for j in range(k + 2))
            for k in range(m)]


def primitive_collection_count(n):
    """Incomparable pairs of proper nonempty subsets of an (n+1)-set:
    all pairs minus the strictly nested ones."""
    m = n + 1
    return comb(2 ** m - 2, 2) - (3 ** m - 3 * 2 ** m + 3)


def pairwise_nef(coeffs, n, strict=False):
    """a_A + a_B >= a_(A&B) + a_(A|B) on incomparable pairs, a = 0 on the
    empty and the full set; strict for ampleness."""
    full = (1 << (n + 1)) - 1
    a = lambda m: 0 if m in (0, full) else coeffs.get(m, 0)
    for x in range(1, full):
        for y in range(x + 1, full):
            if x & ~y and y & ~x:
                lhs, rhs = a(x) + a(y), a(x & y) + a(x | y)
                if lhs < rhs or (strict and lhs == rhs):
                    return False
    return True


def polytope_expectations(n):
    """Root polytope of A_n: its vertices are the n(n+1) roots, the lattice
    points are the roots and the origin (the only interior point), and the
    polar's vertices are the 2^(n+1)-2 facet normals."""
    return {"vertices": n * (n + 1), "lattice_points": n * (n + 1) + 1,
            "interior_points": [(0,) * n], "is_reflexive": True,
            "polar_vertices": 2 ** (n + 1) - 2}


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _scale(c, a):
    return tuple(c * x for x in a)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))
