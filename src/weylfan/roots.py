"""Classical root systems with exact integer realizations.

Roots are stored in ambient coordinates: A_n as the vectors u_i - u_j in
Z^{n+1}, B_n/C_n/D_n in Z^n, G_2 in the sum-zero sublattice of Z^3.  Products
are block-diagonal.  Each system carries a fixed base set of simple roots;
its rows are the basis of the root lattice M(R), and every root's coordinates
in that basis ("mcoords") are precomputed.  A root is *positive* when its
mcoords are componentwise >= 0.

Sets of simple roots are identified with Weyl chambers.  ``chamber_orbit``
walks W once, reaching each element from its prefix before the first
descent, so that every chamber is built once, and carries each chamber's
rays across the walls: crossing the wall of a in S replaces the ray w_a by
w_a - a^vee and keeps the others (the contragredient action of W on N,
Humphreys section 1.12).  ``fans`` reads the chamber fan off this walk, with
no walk over all of W or matrix inverse of its own.  Finding one chamber
with a property never needs the whole orbit: ``descend`` walks from the
base chamber, reflecting in a simple root on the wrong side, in at most
|Phi+| steps.  It finds the chart of a point (``rdata``) and the face
containing a vector (``fans``).  ``RootSystemSpec`` and ``RootSystem`` are
NamedTuples: immutable, and equal to any tuple with the same fields.
"""

from functools import lru_cache
from typing import NamedTuple

from . import linalg
from .errors import NotInSpan, UnsupportedFamily, internal_check

FAMILIES = ("A", "B", "C", "D", "G")


class RootSystemSpec(NamedTuple):
    """A product of classical factors, e.g. (("A", 2), ("B", 3))."""

    factors: tuple

    @staticmethod
    def parse(factors):
        out = []
        for f in factors:
            if isinstance(f, dict):
                fam, rk = f["family"], f["rank"]
            else:
                fam, rk = f
            fam = str(fam).upper()
            if fam in ("E", "F"):
                raise UnsupportedFamily(f"family {fam} is not supported")
            if fam not in FAMILIES:
                raise UnsupportedFamily(f"unknown family {fam!r}")
            if type(rk) is not int:  # int() would read 2.9 as 2 and true as 1
                raise ValueError(f"{fam}: the rank must be an integer, not {rk!r}")
            if fam in ("A", "B", "C") and rk < 1:
                raise ValueError(f"{fam}_{rk}: rank must be >= 1")
            if fam == "D" and rk < 2:
                raise ValueError(f"D_{rk}: rank must be >= 2")
            if fam == "G" and rk != 2:
                raise ValueError(f"G_{rk}: only G_2 exists")
            out.append((fam, rk))
        if not out:
            raise ValueError("empty factor list")
        return RootSystemSpec(tuple(out))

    def to_json(self):
        return {"factors": [{"family": f, "rank": r} for f, r in self.factors]}


class RootSystem(NamedTuple):
    spec: object                 # RootSystemSpec or None for derived systems
    ambient_dim: int
    roots: tuple                 # ambient integer vectors, lex sorted
    base_simple_set: tuple       # indices into roots, in basis order
    root_lattice_basis: tuple    # ambient vectors, rows aligned with base_simple_set
    mcoords: tuple               # per root: coords in root_lattice_basis
    neg: tuple                   # per root: index of its negative
    positive: tuple              # sorted indices of base-positive roots

    @property
    def rank(self):
        return len(self.base_simple_set)

    def root_index(self, vec):
        vec = tuple(vec)
        if not all(type(x) is int for x in vec):  # 1.0 == True == 1 would match
            raise ValueError(f"the entries of {vec} are not all integers")
        try:
            return self.roots.index(vec)
        except ValueError:
            raise NotInSpan(f"{vec} is not a root") from None


def _family_roots(family, rk):
    """Roots and base simple roots of one irreducible factor, ambient coords."""
    if family == "A":
        dim = rk + 1
        roots = []
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = [0] * dim
                    v[i], v[j] = 1, -1
                    roots.append(tuple(v))
        base = []
        for i in range(rk):
            v = [0] * dim
            v[i], v[i + 1] = 1, -1
            base.append(tuple(v))
        return dim, roots, base
    if family in ("B", "C", "D"):
        dim = rk
        roots = []
        for i in range(dim):
            for j in range(i + 1, dim):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * dim
                        v[i], v[j] = si, sj
                        roots.append(tuple(v))
        if family == "B":
            for i in range(dim):
                for s in (1, -1):
                    v = [0] * dim
                    v[i] = s
                    roots.append(tuple(v))
        if family == "C":
            for i in range(dim):
                for s in (2, -2):
                    v = [0] * dim
                    v[i] = s
                    roots.append(tuple(v))
        base = []
        for i in range(rk - 1):
            v = [0] * dim
            v[i], v[i + 1] = 1, -1
            base.append(tuple(v))
        last = [0] * dim
        if family == "B":
            last[rk - 1] = 1
        elif family == "C":
            last[rk - 1] = 2
        else:  # D
            last[rk - 2], last[rk - 1] = 1, 1
        base.append(tuple(last))
        return dim, roots, base
    if family == "G":
        short = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
        long = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        roots = []
        for v in short + long:
            roots.append(v)
            roots.append(tuple(-x for x in v))
        base = [(1, -1, 0), (-1, 2, -1)]
        return 3, roots, base
    raise UnsupportedFamily(f"unknown family {family!r}")


def build_root_system(spec):
    """Construct the standard realization of a (product) root system."""
    if not isinstance(spec, RootSystemSpec):
        spec = RootSystemSpec.parse(spec)
    blocks = [_family_roots(f, r) for f, r in spec.factors]
    dim = sum(b[0] for b in blocks)
    roots, base = [], []
    off = 0
    for bdim, broots, bbase in blocks:
        pad = lambda v: (0,) * off + tuple(v) + (0,) * (dim - off - bdim)
        roots.extend(pad(v) for v in broots)
        base.extend(pad(v) for v in bbase)
        off += bdim
    return _finish(spec, dim, roots, base)


def root_system_from_roots(roots, ambient_dim, base=None):
    """Build a root system from an explicit set of ambient root vectors.

    When ``base`` is None, a base is chosen as the indecomposable positive
    roots for a deterministic generic linear functional.
    """
    roots = sorted({tuple(v) for v in roots})
    if any(linalg.vec_is_zero(v) for v in roots):
        # no functional is nonzero on it, so _generic_base would never end
        raise ValueError("the zero vector is not a root")
    if base is None:
        base = _generic_base(roots, ambient_dim)
    return _finish(None, ambient_dim, roots, [tuple(v) for v in base])


def _generic_base(roots, dim):
    if not roots:
        return []
    t = 2
    while True:
        g = tuple(t ** k for k in range(dim))
        vals = {v: linalg.vec_dot(v, g) for v in roots}
        if all(val != 0 for val in vals.values()):
            break
        t += 1
    pos = [v for v in roots if vals[v] > 0]
    pos_set = set(pos)
    return sorted(v for v in pos
                  if not any(linalg.vec_sub(v, w) in pos_set for w in pos if w != v))


def _finish(spec, dim, roots, base):
    roots = tuple(sorted({tuple(v) for v in roots}))
    base_idx = []
    for b in base:
        if b not in roots:
            raise NotInSpan(f"base root {b} is not in the root set")
        base_idx.append(roots.index(b))
    basis = tuple(tuple(b) for b in base)
    mcoords = linalg.solve_left(basis, roots)
    for v, x in zip(roots, mcoords):
        if x is None:
            raise NotInSpan(f"root {v} is not an integer combination of the base")
    neg = tuple(roots.index(linalg.vec_neg(v)) for v in roots)
    positive = tuple(i for i, c in enumerate(mcoords) if all(x >= 0 for x in c))
    for i, c in enumerate(mcoords):
        if not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
            raise NotInSpan(f"root {roots[i]} has mixed signs in the base expansion")
    return RootSystem(
        spec=spec,
        ambient_dim=dim,
        roots=roots,
        base_simple_set=tuple(base_idx),
        root_lattice_basis=basis,
        mcoords=tuple(mcoords),
        neg=neg,
        positive=positive,
    )


def cartan_pairing(r, beta_idx, alpha_idx):
    """<beta, alpha^vee> = 2 (beta, alpha) / (alpha, alpha), always an integer."""
    a = r.roots[alpha_idx]
    b = r.roots[beta_idx]
    num = 2 * linalg.vec_dot(b, a)
    den = linalg.vec_dot(a, a)
    q, rem = divmod(num, den)
    if rem:
        raise NotInSpan(f"non-crystallographic pairing for {b}, {a}")
    return q


@lru_cache(maxsize=None)
def reflection_table(r):
    """table[a][b] = index of s_{root a}(root b); built once per system."""
    idx = {v: i for i, v in enumerate(r.roots)}
    table = []
    for a, va in enumerate(r.roots):
        row = []
        for b, vb in enumerate(r.roots):
            w = linalg.vec_sub(vb, linalg.vec_scale(cartan_pairing(r, b, a), va))
            if w not in idx:
                raise NotInSpan(f"reflection of {vb} in {va} left the root set")
            row.append(idx[w])
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def chamber_orbit(r):
    """Every set S of simple roots with the rays of its chamber, sorted by S.

    Each entry is (S, rays): S a sorted root-index tuple and rays[k] the ray
    w of the chamber {v : <alpha, v> >= 0 for alpha in S} with <S[k], w> = 1
    and <b, w> = 0 for the other b in S; the entries are sorted by S.  There
    is one entry per element w of W, the chamber of w having the simple set
    w(Delta).  While walking, S is kept in label order, S[j] = w(alpha_j) for
    the j-th base simple root alpha_j, so crossing the wall of label k (to
    w s_k) maps S to s_a(S) entry by entry, a = S[k].  W acts on N
    contragrediently (Humphreys, *Reflection Groups and Coxeter Groups*,
    section 1.12), so the rays cross with it: each keeps its label, and the
    ray of label k becomes w_k - a^vee, the ray of -a.  The base chamber's
    rays are the unit vectors of N.

    Each w != 1 is reached exactly once, from w s_k for the first descent k
    of w, the smallest label with w(alpha_k) < 0 (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, section 3.4; Humphreys section 1.7).
    In terms of the parent's S: S[k] is positive and s_a(S[j]) is positive
    for every j < k.  So no chamber is built twice and no set is looked up.
    """
    table = reflection_table(r)
    positive = [False] * len(r.roots)
    for i in r.positive:
        positive[i] = True
    # a^vee in N-coordinates: (<beta_j, a^vee>)_j over the base simple roots
    coroots = [tuple(cartan_pairing(r, b, a) for b in r.base_simple_set)
               for a in range(len(r.roots))]
    unit = linalg.identity_matrix(r.rank)
    orbit = [(r.base_simple_set, unit)]
    shared = {v: v for v in unit}   # equal rays share one tuple, to save memory
    for s, rays in orbit:
        for k, a in enumerate(s):
            image = table[a]
            if positive[a] and all(positive[image[b]] for b in s[:k]):
                crossed = linalg.vec_sub(rays[k], coroots[a])
                orbit.append((tuple(image[b] for b in s),
                              rays[:k] + (shared.setdefault(crossed, crossed),) + rays[k + 1:]))
    for i, (s, rays) in enumerate(orbit):
        pairs = sorted(zip(s, rays))
        orbit[i] = (tuple(a for a, _ in pairs), tuple(w for _, w in pairs))
    orbit.sort(key=lambda entry: entry[0])
    internal_check(all(x[0] != y[0] for x, y in zip(orbit, orbit[1:])),
                   "the first-descent walk reached a chamber twice")
    return tuple(orbit)


@lru_cache(maxsize=None)
def enumerate_simple_root_sets(r):
    """All sets of simple roots, as sorted index tuples in canonical order:
    the sets of ``chamber_orbit``, the one walk over W."""
    return tuple(s for s, _ in chamber_orbit(r))


def descend(r, wrong):
    """Walk from the sorted base simple set S to one with no ``wrong`` member.

    While some a in S is ``wrong``, S becomes s_a(S) for the smallest such a.
    If ``wrong(a)`` excludes ``wrong(-a)``, each step removes one wrong root
    from the positive roots of S (s_a permutes the others), so the walk ends
    within |Phi+| steps.  Returns (S, steps), or None after |Phi+| steps.
    """
    table = reflection_table(r)
    s = tuple(sorted(r.base_simple_set))
    for steps in range(len(r.positive) + 1):
        a = next((a for a in s if wrong(a)), None)
        if a is None:
            return s, steps
        s = tuple(sorted(table[a][b] for b in s))
    return None


@lru_cache(maxsize=None)
def simple_set_expansions(r, s):
    """Expansion table of every root in the simple set ``s``.

    Returns a tuple of integer coefficient vectors, one per root, in the
    order of ``s``.  Raises NotUnimodular/NotInSpan on corrupted input.
    """
    basis = tuple(r.mcoords[i] for i in s)
    inv = linalg.int_inverse(basis)
    out = []
    for c in r.mcoords:
        x = linalg.vec_matmul(c, inv)
        if not (all(v >= 0 for v in x) or all(v <= 0 for v in x)):
            raise NotInSpan(f"mixed-sign expansion in chart {s}")
        out.append(x)
    return tuple(out)


@lru_cache(maxsize=None)
def additive_triples(r):
    """All triples (i, j, k) of root indices with root_k = root_i + root_j.

    Each unordered pair {i, j} appears once (i < j).
    """
    idx = {v: i for i, v in enumerate(r.roots)}
    out = []
    for i, vi in enumerate(r.roots):
        for j in range(i + 1, len(r.roots)):
            k = idx.get(linalg.vec_add(vi, r.roots[j]))
            if k is not None:
                out.append((i, j, k))
    return tuple(out)


def dynkin_components(r, s):
    """Partition of the simple set ``s`` into Dynkin-diagram components.

    Adjacency is a nonzero ambient inner product.
    """
    s = list(s)
    comps = []
    unassigned = set(s)
    while unassigned:
        seed = min(unassigned)
        comp = {seed}
        frontier = [seed]
        while frontier:
            a = frontier.pop()
            for b in list(unassigned - comp):
                if linalg.vec_dot(r.roots[a], r.roots[b]) != 0:
                    comp.add(b)
                    frontier.append(b)
        comps.append(tuple(sorted(comp)))
        unassigned -= comp
    return tuple(sorted(comps))


def weyl_order(spec):
    """Order of the Weyl group from the family formulas (product over factors)."""
    from math import factorial

    total = 1
    for fam, rk in spec.factors:
        if fam == "A":
            total *= factorial(rk + 1)
        elif fam in ("B", "C"):
            total *= 2 ** rk * factorial(rk)
        elif fam == "D":
            total *= 2 ** (rk - 1) * factorial(rk)
        elif fam == "G":
            total *= 12
    return total


def mcoords_of_vectors(r, vs):
    """Coordinates of ambient lattice vectors in the root lattice basis."""
    vs = [tuple(v) for v in vs]
    xs = linalg.solve_left(r.root_lattice_basis, vs)
    for v, x in zip(vs, xs):
        if x is None:
            raise NotInSpan(f"{v} is not in the root lattice")
    return tuple(xs)


def pairing_with_ray(r, root_index, ray):
    """<root, ray> where the ray is in the N(R)-coordinates dual to the base."""
    return linalg.vec_dot(r.mcoords[root_index], ray)


def root_system_to_json(r):
    out = {}
    if r.spec is not None:
        out["factors"] = r.spec.to_json()["factors"]
    out["ambient_dim"] = r.ambient_dim
    out["roots"] = [list(v) for v in r.roots]
    out["base_simple_set"] = [list(r.roots[i]) for i in r.base_simple_set]
    return out
