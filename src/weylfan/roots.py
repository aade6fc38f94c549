"""Root systems with exact integer realizations, each built from its base.

Roots are ambient integer vectors: A_n in Z^{n+1}, B_n/C_n/D_n in Z^n, G_2
in the sum-zero sublattice of Z^3, products block-diagonal.  A reduced
crystallographic system is fixed by its base: every root is w(a) for a
simple root a and a product w of simple reflections (Humphreys, *Reflection
Groups and Coxeter Groups*, section 1.5).  So the roots are the closure of
the base under the simple reflections, and the same closure gives each
root's coordinates ("mcoords") in the base, the basis of the root lattice
M(R).  A root is *positive* when its mcoords are componentwise >= 0.

W acts on root indices: ``reflection_table`` reads the simple rows off the
Cartan matrix <alpha_j, alpha_k^vee> and the mcoords, with no vector
reflected, and conjugates, s_{w(a)} = w s_a w^{-1} (Humphreys section 1.2).
Sets of simple roots are identified with Weyl chambers.  Their rays, the
W-orbits of the fundamental coweights, are numbered first (``_rays``).
``chamber_orbit`` walks W once, reaching each element from its prefix before
the first descent, found by an AND of two bitmasks over root ids, and carries
the ids of each chamber's rays across the walls: crossing the wall of a in S
replaces the ray w_a by w_a - a^vee, read off the reflection table, and
keeps the others (the contragredient action of W on N, Humphreys section
1.12); each crossed id is looked up once per (ray id, wall) pair, and
``fans`` sorts only the cones.
Finding one chamber with a property never needs the whole orbit:
``descend`` walks from a simple set in label order, reflecting in its
first member on the wrong side, in at most |Phi+| steps, and returns the
roots crossed.  It finds the chart of a point (``rdata``) and, from a
chart, the u in W with u(chart) = Delta, the product of the reflections
crossed (``chart_walk``): u(beta)'s mcoords are beta's coefficients in the
chart; ``fans`` finds the face of a vector by the Cartan matrix instead.
Each positive root of height > 1 is a positive root plus a simple root
(``positive_steps``), and a sum of two roots is looked up by an integer key
of its mcoords (``additive_triples``).  A root multiple a * alpha has a
times alpha's mcoords (``mcoords_of_vectors``), with no elimination.
``RootSystemSpec`` and ``RootSystem`` are NamedTuples: immutable, and equal
to any tuple with the same fields.
"""

from functools import cached_property, lru_cache
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


class _RootSystemFields(NamedTuple):
    spec: object                 # RootSystemSpec or None for derived systems
    ambient_dim: int
    roots: tuple                 # ambient integer vectors, lex sorted
    base_simple_set: tuple       # indices into roots, in basis order
    root_lattice_basis: tuple    # ambient vectors, rows aligned with base_simple_set
    mcoords: tuple               # per root: coords in root_lattice_basis
    neg: tuple                   # per root: index of its negative
    positive: tuple              # sorted indices of base-positive roots


class RootSystem(_RootSystemFields):  # no __slots__: the hash is cached in __dict__
    _hash = cached_property(tuple.__hash__)  # so every cache keyed on it hashes it once

    def __hash__(self):
        return self._hash

    def __getstate__(self):  # a pickle keeps no hash: str hashes differ between processes
        return None

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


def _family_base(family, rk):
    """Ambient dimension and simple roots of one irreducible factor."""
    if family == "G":
        return 3, [(1, -1, 0), (-1, 2, -1)]
    if family not in ("A", "B", "C", "D"):
        raise UnsupportedFamily(f"unknown family {family!r}")
    dim = rk + 1 if family == "A" else rk
    unit = linalg.identity_matrix(dim)
    base = [linalg.vec_sub(unit[t], unit[t + 1]) for t in range(dim - 1)]
    if family == "B":
        base.append(unit[-1])
    elif family == "C":
        base.append(linalg.vec_scale(2, unit[-1]))
    elif family == "D":
        base.append(linalg.vec_add(unit[-2], unit[-1]))
    return dim, base


def build_root_system(spec):
    """The standard realization of the (product) root system of a ``RootSystemSpec``."""
    blocks = [_family_base(f, r) for f, r in spec.factors]
    dim = sum(bdim for bdim, _ in blocks)
    base, off = [], 0
    for bdim, bbase in blocks:
        base.extend((0,) * off + v + (0,) * (dim - off - bdim) for v in bbase)
        off += bdim
    return _finish(spec, dim, base)


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
    return _finish(None, ambient_dim, base, within=set(roots))


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


def _finish(spec, dim, base, within=None):
    """The root system with simple roots ``base``: its roots are the closure
    of the base under the simple reflections s_a(v) = v - <v, a^vee> a, as
    every root is w(a) for a simple root a and a product w of simple
    reflections (Humphreys section 1.5).  Reflecting in the k-th simple root
    subtracts <v, a^vee> from coordinate k, so each root carries its
    mcoords.  With ``within``, a set of roots, the closure must stay inside
    it and reach all of it.
    """
    base = [tuple(b) for b in base]
    if within is not None and not within.issuperset(base):
        raise NotInSpan(f"base root {min(set(base) - within)} is not in the root set")
    columns = _cartan_columns(base)
    todo = list(zip(linalg.identity_matrix(len(base)), base))
    reached = {c for c, _ in todo}  # mcoords, looked up before a vector is built
    found = {}  # root -> its mcoords
    for c, v in todo:
        if found.setdefault(v, c) != c:
            raise ValueError(f"the base is linearly dependent: {v} is {found[v]} and {c}")
        for k, a in enumerate(base):
            p = sum(c[j] * x for j, x in columns[k])
            if p and (d := c[:k] + (c[k] - p,) + c[k + 1:]) not in reached:
                w = linalg.vec_sub(v, linalg.vec_scale(p, a))
                if within is not None and w not in within:
                    raise NotInSpan(f"reflection of {v} in {a} left the root set")
                reached.add(d)
                todo.append((d, w))
    if within is not None and len(found) != len(within):
        raise NotInSpan(f"root {min(within - found.keys())} is not reached from the base")
    roots = tuple(sorted(found))
    index = {v: i for i, v in enumerate(roots)}
    mcoords = tuple(found[v] for v in roots)
    for v, c in zip(roots, mcoords):
        if min(c) < 0 < max(c):
            raise NotInSpan(f"root {v} has mixed signs in the base expansion")
    return RootSystem(spec, dim, roots, tuple(index[b] for b in base), tuple(base), mcoords,
                      tuple(index[linalg.vec_neg(v)] for v in roots),
                      tuple(i for i, c in enumerate(mcoords) if min(c) >= 0))


def _cartan_columns(base):
    """The Cartan matrix of the simple roots ``base``, by sparse columns:
    column k holds the nonzero (j, <alpha_j, alpha_k^vee>)."""
    return [[(j, x) for j, b in enumerate(base) if (x := _pairing(b, a))] for a in base]


def _pairing(b, a):
    """<b, a^vee> = 2 (b, a) / (a, a) of ambient vectors; an integer on roots."""
    return _quotient(2 * linalg.vec_dot(b, a), linalg.vec_dot(a, a), b, a)


def _quotient(num, den, b, a):
    """num / den, the integer <b, a^vee>: a remainder raises, it is not rounded."""
    q, rem = divmod(num, den)
    if rem:
        raise NotInSpan(f"non-crystallographic pairing for {b}, {a}")
    return q


@lru_cache(maxsize=None)
def reflection_table(r):
    """table[a][b] = index of s_{root a}(root b); built once per system.

    The n simple rows come from the Cartan matrix: s_k lowers coordinate k of
    the mcoords c by sum_j c_j <alpha_j, alpha_k^vee>.  The others follow by
    conjugation, s_{w(a)} = w s_a w^{-1} (Humphreys section 1.2), as
    table[s_k(a)][b] = sigma_k[table[a][sigma_k[b]]] for sigma_k the k-th
    simple row, in a walk from the base that reaches every root: n^2
    pairings, and no vector is reflected.
    """
    index = {c: i for i, c in enumerate(r.mcoords)}
    table = [None] * len(r.roots)
    columns = _cartan_columns(r.root_lattice_basis)
    for k, (a, va, column) in enumerate(zip(r.base_simple_set, r.root_lattice_basis, columns)):
        table[a] = tuple([index.get(c[:k] + (c[k] - sum([c[j] * x for j, x in column]),)
                                    + c[k + 1:]) for c in r.mcoords])
        if None in table[a]:
            vb = r.roots[table[a].index(None)]
            raise NotInSpan(f"reflection of {vb} in {va} left the root set")
    simple = [table[a] for a in r.base_simple_set]
    todo = list(r.base_simple_set)
    for a in todo:
        row = table[a]
        for sigma in simple:
            c = sigma[a]
            if table[c] is None:
                table[c] = tuple([sigma[row[x]] for x in sigma])
                todo.append(c)
    internal_check(len(todo) == len(table), "the conjugation walk missed a root")
    return tuple(table)


def chamber_orbit(r):
    """(rays, chambers): the walk over W as it runs, one chamber (S, ids) per
    w in W in walk order, and the lex-sorted rays of ``_rays``.  S is in label
    order, S[j] = w(alpha_j) for the j-th base simple root, and rays[ids[j]]
    is the ray w_j of the chamber {v : <alpha, v> >= 0 for alpha in S}, with
    <S[k], w_j> = 1 if k = j, else 0.  The walk starts at the base chamber,
    whose rays are the unit vectors of N.  Crossing the wall of label k (to
    w s_k) maps S to s_a(S) entry by entry, a = S[k].  W acts on N
    contragrediently, so each ray keeps its label, and the ray of label k
    becomes w_k - a^vee (``_coroots``), the ray of -a, whose id is looked up.
    It depends on (w_k, a) alone and an id names one vector, so a table keyed
    by (ray id, a) gives the new id exactly: w_k - a^vee is built only on a
    miss (321 pairs for the 5,039 crossings of A_6).  The ids are the fan's.

    Each w != 1 is reached exactly once, from w s_k for the first descent k
    of w, the smallest label with w(alpha_k) < 0 (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, section 3.4; Humphreys section 1.7).
    In terms of the parent's S: S[k] is positive and s_a(S[j]) is positive
    for every j < k, that is, the bitmask of the root ids S[:k] misses
    ``turns_neg[a]``, the bitmask of the roots b with s_a(b) negative.
    So no chamber is built twice and no set is looked up.
    """
    table = reflection_table(r)
    is_pos = [min(c) >= 0 for c in r.mcoords]
    # turns_neg[a]: the bitmask of the roots b with s_a(b) negative
    turns_neg = [sum(1 << b for b, c in enumerate(row) if not is_pos[c]) for row in table]
    coroots, size, (rays, ray_id) = _coroots(r), len(r.roots), _rays(r)
    crossed_id = {}  # ray id * size + a -> the id of that ray across the wall of a
    orbit = [(r.base_simple_set, tuple(map(ray_id.__getitem__, linalg.identity_matrix(r.rank))))]
    for s, ids in orbit:
        prefix = 0  # the bitmask of s[:k]
        for k, a in enumerate(s):
            if is_pos[a] and not prefix & turns_neg[a]:
                if (i := crossed_id.get(key := ids[k] * size + a)) is None:
                    crossed = tuple([x - y for x, y in zip(rays[ids[k]], coroots[a])])
                    i = crossed_id[key] = ray_id.get(crossed)
                    internal_check(i is not None, "a crossed ray is not in the coweight orbits")
                image = table[a]
                orbit.append((tuple([image[b] for b in s]), ids[:k] + (i,) + ids[k + 1:]))
            prefix |= 1 << a
    return rays, tuple(orbit)


@lru_cache(maxsize=None)
def _rays(r):
    """(rays, ray_id): the rays of the chamber fan, lex-sorted, and the index
    of each.  The rays of w(C) are the w(omega_k^vee), so they are the W-orbits
    of the unit vectors e_k of N.  s_k sends v to v - v_k alpha_k^vee, and from
    e_k the steps with v_k > 0 reach the whole orbit with no chamber walked
    (the numbers game, Bjorner-Brenti, *Combinatorics of Coxeter Groups*, ch. 4)."""
    columns = [_coroots(r)[a] for a in r.base_simple_set]
    todo = list(linalg.identity_matrix(r.rank))
    seen = set(todo)
    for v in todo:
        for x, column in zip(v, columns):
            if x > 0 and (w := tuple([y - x * c for y, c in zip(v, column)])) not in seen:
                seen.add(w)
                todo.append(w)
    rays = tuple(sorted(seen))
    return rays, {v: i for i, v in enumerate(rays)}


@lru_cache(maxsize=None)
def _coroots(r):
    """a^vee in N-coordinates for each root a, (<beta_j, a^vee>)_j over the
    base, read off the reflection table: heights are additive and s_a(beta_j) =
    beta_j - <beta_j, a^vee> a, so <beta_j, a^vee> = (1 - ht s_a(beta_j)) / ht a."""
    height = [sum(c) for c in r.mcoords]
    return [tuple(_quotient(1 - height[row[b]], height[a], r.roots[b], r.roots[a])
                  for b in r.base_simple_set) for a, row in enumerate(reflection_table(r))]


def descend(r, wrong, s=None):
    """Walk from the simple set s (the base by default) to one with no
    ``wrong`` member, keeping S in label order, S[k] = w(s[k]).

    While some a in S is ``wrong``, S becomes s_a(S) entry by entry, for the
    first wrong a in label order.  If ``wrong(a)`` excludes ``wrong(-a)``,
    each step removes one wrong root from the positive roots of S (s_a
    permutes the others), so the walk ends within |Phi+| steps.  Returns (S,
    crossed), the roots crossed in order, or None after |Phi+| steps.
    """
    table = reflection_table(r)
    s, crossed = r.base_simple_set if s is None else s, []
    for _ in range(len(r.positive) + 1):
        if (a := next(filter(wrong, s), None)) is None:
            return s, tuple(crossed)
        crossed.append(a)
        row = table[a]
        s = tuple([row[b] for b in s])
    return None


@lru_cache(maxsize=None)
def chart_walk(r, s):
    """(u, labels): the u in W with u(s) = Delta, as u[b] = index of u(root b),
    and the base label of each u(s[j]).  So beta = sum_j c_j s[j] has c_j =
    mcoords of u(beta) at labels[j], and no matrix is inverted.

    ``descend`` from s across its negative members reaches the base set
    within |Phi+| steps when s is a simple set w(Delta), and u is the product
    of the reflections in the roots it crossed.  Any other set of roots
    (mixed-sign, singular or repeated) does not, and raises NotInSpan.
    """
    negative = frozenset(r.neg[a] for a in r.positive)
    walk = descend(r, negative.__contains__, s)
    if walk is None or sorted(walk[0]) != sorted(r.base_simple_set):
        raise NotInSpan(f"the roots {[list(r.roots[a]) for a in s]} are not a simple set")
    table, u = reflection_table(r), range(len(r.roots))
    for a in walk[1]:
        row = table[a]
        u = [row[b] for b in u]
    return tuple(u), tuple(r.base_simple_set.index(a) for a in walk[0])


@lru_cache(maxsize=None)
def positive_steps(r):
    """(beta, parent, k) per positive root beta, by height: beta = parent +
    alpha_k for the smallest such k, or parent None when beta = alpha_k.
    Such a parent exists (Humphreys, *Introduction to Lie Algebras*, 10.2)."""
    index = {r.mcoords[i]: i for i in r.positive}
    out = []
    for i in sorted(r.positive, key=lambda i: (sum(r.mcoords[i]), i)):
        c = r.mcoords[i]
        below = ((k, c[:k] + (c[k] - 1,) + c[k + 1:]) for k in range(len(c)) if c[k])
        k, d = next((k, d) for k, d in below if d in index or not any(d))
        out.append((i, index.get(d), k))
    return tuple(out)


@lru_cache(maxsize=None)
def additive_triples(r):
    """All triples (i, j, k) of root indices with root_k = root_i + root_j.

    Each unordered pair {i, j} appears once (i < j).  A root is looked up by
    the additive key sum_k c_k R^k of its mcoords c, with R = 4m + 1 for m =
    max |c_k|: the entries of a sum of two roots lie in [-2m, 2m], so they
    are its balanced digits, and only a root has a root's key.
    """
    radix = 4 * max((abs(x) for c in r.mcoords for x in c), default=0) + 1
    keys = [sum(x * radix ** k for k, x in enumerate(c)) for c in r.mcoords]
    index = {key: i for i, key in enumerate(keys)}.get
    return tuple((i, j, k) for i, ki in enumerate(keys) for j in range(i + 1, len(keys))
                 if (k := index(ki + keys[j])) is not None)


def dynkin_components(r, s):
    """Partition of the simple set ``s`` into Dynkin-diagram components.

    Adjacency is a nonzero ambient inner product; each root merges the
    components it is adjacent to.
    """
    comps = []
    for a in s:
        near = [c for c in comps if any(linalg.vec_dot(r.roots[a], r.roots[b]) for b in c)]
        comps = [c for c in comps if c not in near] + [tuple(sorted({a}.union(*near)))]
    return tuple(sorted(comps))


def mcoords_of_vectors(r, vs):
    """Coordinates in the root lattice basis of vectors a * alpha, alpha a
    root and a an integer (zero included): a times the mcoords of alpha.  A
    reduced system has at most one root on each ray from the origin, so the
    primitive vector of v names alpha.  Any other vector raises NotInSpan."""
    on_ray = {linalg.vec_primitive(v): (v, c) for v, c in zip(r.roots, r.mcoords)}
    out = []
    for v in map(tuple, vs):
        if linalg.vec_is_zero(v):
            out.append((0,) * r.rank)
            continue
        alpha, c = on_ray.get(linalg.vec_primitive(v), (v, None))
        a = next(x // y for x, y in zip(v, alpha) if y)
        if c is None or linalg.vec_scale(a, alpha) != v:
            raise NotInSpan(f"{v} is not an integer multiple of a root")
        out.append(linalg.vec_scale(a, c))
    return tuple(out)


def root_system_to_json(r):
    out = {}
    if r.spec is not None:
        out["factors"] = r.spec.to_json()["factors"]
    out["ambient_dim"] = r.ambient_dim
    out["roots"] = [list(v) for v in r.roots]
    out["base_simple_set"] = [list(r.roots[i]) for i in r.base_simple_set]
    return out
