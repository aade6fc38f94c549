"""Fans of Weyl chambers and the induced toric morphisms.

A Fan lives in the lattice N(R) dual to the root lattice, in coordinates
dual to the base simple set of the root system: the pairing of a root with a
ray is the dot product of the root's base-coordinates with the ray vector.

The Weyl chambers are the simple sets S of ``roots.chamber_orbit``, the one
walk over W that the package makes, one step per chamber.  The walk carries
the ids of each chamber's rays, the sorted coweight orbits of ``roots._rays``,
across the walls by the contragredient action of W on N (Humphreys, section
1.12), so no chamber's root matrix is inverted and only the cones are sorted.
The face containing a vector is found by walking its coweight coordinates to
the dominant chamber by the Cartan matrix, carrying each ray across the walls
of its label (``chamber_face``), and named by those ids with no fan built.
The fan morphisms are built from it, and a cone is checked as the face of
its ray sum (``_cone_point``), from where ``orbit_closure`` walks its star
by the parabolic subgroup fixing that sum.  Completeness and smoothness
are read off the hyperplanes of the facets (``_walls``): a chamber fan's
walls lie on the |Phi+| root hyperplanes, each found by one kernel, and a
simplicial cone pairs each facet's primitive normal with the ray off it,
which gives the cone's side of the facet (the bitmask of its ray ids) and
its unimodularity, with no determinant; other cones read their facets off
their dual cones (``linalg.extreme_rays``).

Cones are sorted tuples of ray indices; the empty tuple is the zero cone.
Every fan is built in ray order: its rays are numbered in lex order first,
then each cone sorts its ids and the max cones are sorted, so equal fans
compare equal structurally.  The records (``Fan``, ``FanMorphism`` and the
results of the operations) are NamedTuples: immutable, and equal to any
tuple with the same fields.
"""

from functools import lru_cache
from operator import lt, mul
from typing import NamedTuple

from . import linalg, roots as rootsmod
from .errors import NotInSpan, NotRootSpan, NotSurjective, internal_check


class Fan(NamedTuple):
    lattice_rank: int
    rays: tuple        # primitive integer vectors, lex sorted, distinct
    max_cones: tuple   # sorted tuples of ray indices, lex sorted

    def ray_index(self, vec):
        try:
            return self.rays.index(tuple(vec))
        except ValueError:
            raise NotInSpan(f"{tuple(vec)} is not a ray of the fan") from None


def fan_to_json(f):
    return {
        "rank": f.lattice_rank,
        "rays": [list(v) for v in f.rays],
        "max_cones": [list(c) for c in f.max_cones],
    }


@lru_cache(maxsize=None)
def weyl_chamber_fan(r):
    """The complete smooth fan whose maximal cones are the Weyl chambers.
    ``roots.chamber_orbit`` walks the chambers with the ids of the sorted
    rays, so only the cones are sorted; W is simply transitive on the
    chambers, so the sorted cones, one per chamber, strictly increase."""
    rays, chambers = rootsmod.chamber_orbit(r)
    cones = sorted([tuple(sorted(ids)) for _, ids in chambers])
    internal_check(all(map(lt, cones, cones[1:])),
                   "the first-descent walk reached a chamber twice")
    return Fan(r.rank, rays, tuple(cones))


def chamber_face(r, v):
    """The cone of ``weyl_chamber_fan(r)`` with v (rational entries allowed)
    in its relative interior, as sorted ray ids of ``roots._rays`` (no fan).

    N is written dual to the base, so v_k = <alpha_k, v>; for S = w(Delta),
    <S[k], v> = u_k with u = w^{-1} v.  If no u_k < 0, then v = sum u_k w_k
    over the rays w_k of S, and the face is spanned by the w_k with u_k > 0."""
    return _chamber_and_face(r, v)[1]


def _chamber_and_face(r, v):
    """(S, face, u): S = w(Delta) in label order for the chamber nearest the
    base one that contains v, ``chamber_face(r, v)``, and u = w^{-1} v >= 0.
    From u = v, S = Delta and the unit vectors as rays, the walk crosses the
    wall of the smallest label k with u_k < 0, a = S[k] (Humphreys 1.12; the
    numbers game, Bjorner-Brenti ch. 4): u_j -= <alpha_j, alpha_k^vee> u_k,
    one Cartan column; S becomes s_a(S), one reflection table row; the ray of
    label k becomes w_k - a^vee, as in ``roots.chamber_orbit``.  Each wall
    crossed separates v from the base chamber: one step per positive root
    negative on v, ending at the minimal coset representative's chamber."""
    base, coroots, table = r.base_simple_set, rootsmod._coroots(r), rootsmod.reflection_table(r)
    s, u, rays = base, list(v), list(linalg.identity_matrix(r.rank))
    for _ in range(len(r.positive) + 1):
        if (k := next((k for k, x in enumerate(u) if x < 0), None)) is None:
            break
        a, x = s[k], u[k]
        u = [y - c * x for y, c in zip(u, coroots[base[k]])]
        rays[k] = tuple([y - z for y, z in zip(rays[k], coroots[a])])
        s = tuple(map(table[a].__getitem__, s))
    internal_check(k is None, f"the walk for {tuple(v)} did not end")
    ray_id = rootsmod._rays(r)[1]
    return s, tuple(sorted(ray_id[w] for w, x in zip(rays, u) if x > 0)), u


def _cone_facets(f, cone):
    """(facet, side) for each facet of a max cone; None if the cone is not
    full-dimensional.  A facet is the bitmask of the ids of the cone's rays on
    it.  Each extreme ray y of the dual cone (``linalg.extreme_rays`` on the
    cone's rays) is the inward normal of the facet on the rays of its zero
    set, and the side is the sign of y's first nonzero entry: two cones
    through a facet lie on opposite sides of it iff their sides differ."""
    dual = linalg.extreme_rays([f.rays[i] for i in cone])
    if dual is None:
        return None
    return [(sum(1 << i for k, i in enumerate(cone) if zeros >> k & 1),
             1 if next(x for x in y if x) > 0 else -1) for y, zeros in dual]


@lru_cache(maxsize=None)
def _walls(f):
    """(complete, smooth), read off the hyperplanes of the facets.

    The facet F_k of a simplicial max cone on the rays x_1..x_n, without x_k,
    lies on a hyperplane with a primitive normal nu, first nonzero entry > 0.
    The cone is full-dimensional iff no <nu, x_k> is 0: then <nu_i, x_j> is
    diagonal and invertible, and otherwise some x_k is in the span of F_k.
    It is then unimodular iff every |<nu, x_k>| is 1 (the rows of a dual
    basis are primitive normals), and its side at F_k is the sign of
    <nu, x_k>: the sign of the inward normal's first nonzero entry, as
    ``_cone_facets`` reads it for a cone that is not simplicial.  Each ray
    keeps a bitmask of the known hyperplanes through it; F_k's hyperplane is
    the AND of its rays' masks (prefix and suffix ANDs, O(n) per cone).  A
    facet on none finds its normal by one ``linalg.kernel_basis`` and pairs
    it with every ray; the pairings +-1 of a smooth fan are tested first.  A
    chamber fan's facets lie on its |Phi+| root hyperplanes, so C cones on R
    rays cost O(C n + |Phi+| R n); a fan with H distinct facet hyperplanes
    pays H R dot products.  The fan is complete iff it has a max cone and the
    sorted facets on the + side equal those on the - side, with no repeat:
    each facet has one cone per side.
    """
    n, rays = f.lattice_rank, f.rays
    sides = []                 # per hyperplane: <nu, v> for every ray v
    through = [0] * len(rays)  # per ray: bitmask of the hyperplanes through it
    bit = [1 << i for i in range(len(rays))]
    up, down, smooth = [], [], True
    for cone in f.max_cones:
        if len(cone) != n:
            if (facets := _cone_facets(f, cone)) is None:
                return False, False
            smooth = False
            for facet, side in facets:
                (up if side > 0 else down).append(facet)
            continue
        acc = (1 << len(sides)) - 1
        mask, prefix, suffix = 0, [], acc   # ANDs of the masks before and after x_k
        for i in cone:
            prefix.append(acc)
            acc &= through[i]
            mask |= bit[i]
        for k in range(n - 1, -1, -1):
            x, on = cone[k], prefix[k] & suffix
            suffix &= through[x]   # it has no bit of a hyperplane found in this cone
            if not on:
                nu = linalg.kernel_basis(tuple(tuple(rays[i][j] for i in cone if i != x)
                                               for j in range(n)))[0]
                on, row = 1 << len(sides), [sum(map(mul, nu, v)) for v in rays]
                sides.append(row)
                for i, d in enumerate(row):
                    if not d:
                        through[i] |= on
            d = sides[on.bit_length() - 1][x]
            if d == 1:
                up.append(mask ^ bit[x])
            elif d == -1:
                down.append(mask ^ bit[x])
            elif not d:
                return False, False
            else:
                smooth = False
                (up if d > 0 else down).append(mask ^ bit[x])
    up.sort()
    down.sort()
    return bool(f.max_cones) and up == down and all(map(lt, up, up[1:])), smooth


def check_complete(f):
    """Every max cone full-dimensional, and every facet shared by exactly two
    max cones that lie on opposite sides of it (``_walls``).  A fan with no
    max cones, not even the zero cone, covers nothing and is not complete.

    The check is local: a fan that winds around twice passes, such as the
    rank-2 fan on the rays (1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3) with
    consecutive pairs as its cones.
    """
    return _walls(f)[0]


def check_smooth(f):
    """Each max cone's rays form a Z-basis of N: every primitive facet
    normal pairs to +-1 with the ray off its facet (``_walls``)."""
    return _walls(f)[1]


class FanMorphism(NamedTuple):
    source: Fan
    target: Fan
    lattice_map: tuple   # matrix L: source N-coords v map to v * L
    cone_image: tuple    # pairs (source max cone, target cone)


def _morphism_from_lattice_inclusion(r, rprime):
    """Fan morphism Sigma(r) -> Sigma(rprime) for M(rprime) inside M(r).

    Both systems live in the same ambient space; the dual surjection
    N(r) -> N(rprime) is computed in base coordinates.  The image of a
    chamber is the ``chamber_face`` of the image of its interior point.
    """
    f = weyl_chamber_fan(r)
    fp = weyl_chamber_fan(rprime)
    # Rows: each base simple root of rprime in the base coordinates of r.
    p = rootsmod.mcoords_of_vectors(r, [rprime.roots[i] for i in rprime.base_simple_set])
    lattice_map = linalg.transpose(p)  # v -> v * P^T
    # every ray of a source cone must land inside the recorded image cone
    ray_faces = [set(chamber_face(rprime, linalg.vec_matmul(v, lattice_map)))
                 for v in f.rays]
    images = []
    for cone in f.max_cones:
        interior = tuple(sum(col) for col in zip(*(f.rays[i] for i in cone)))
        target = chamber_face(rprime, linalg.vec_matmul(interior, lattice_map))
        for i in cone:
            if not ray_faces[i] <= set(target):
                raise NotInSpan(f"ray {f.rays[i]} escapes the image cone")
        images.append((cone, target))
    return FanMorphism(f, fp, lattice_map, tuple(images))


def subsystem_morphism(r, subspace_basis):
    """Restrict to the root subsystem cut out by a subspace.

    Returns (rprime, morphism) where rprime = R intersect span(subspace_basis)
    and the morphism is the induced surjection of chamber fans.
    Raises NotRootSpan if the intersection does not span the subspace.
    A root is in the span iff it is orthogonal to ``perp``, the kernel of
    the matrix whose columns are the basis vectors: one kernel for all roots,
    and by rank-nullity the basis has rank ambient_dim - len(perp).
    """
    basis = tuple(tuple(v) for v in subspace_basis)
    perp = linalg.kernel_basis(tuple(tuple(v[i] for v in basis) for i in range(r.ambient_dim)))
    sub = [v for v in r.roots if not any(linalg.vec_dot(x, v) for x in perp)]
    if linalg.rank(tuple(sub)) != r.ambient_dim - len(perp):
        raise NotRootSpan("subspace is not spanned by the roots it contains")
    if len(sub) == len(r.roots):
        f = weyl_chamber_fan(r)
        ident = linalg.identity_matrix(r.rank)
        images = tuple((c, c) for c in f.max_cones)
        return r, FanMorphism(f, f, ident, images)
    rprime = rootsmod.root_system_from_roots(sub, r.ambient_dim)
    return rprime, _morphism_from_lattice_inclusion(r, rprime)


class EmbeddingEquations(NamedTuple):
    kernel_mcoords: tuple   # Z-basis of ker(mu) in M(R')-coordinates
    per_chart: tuple        # (simple set S', tuple of (pos roots, neg roots))


def projection_embedding_equations(r, rprime, mu):
    """Equations of the embedding induced by a projection of root systems.

    ``mu`` maps the ambient space of rprime onto the ambient space of r (rows
    are images of the standard basis vectors), carrying every root of rprime
    to an integer multiple of a root of r and M(rprime) onto M(r).  Returns
    the kernel lattice and, per sorted simple set S' of rprime, binomial
    equations prod x^{alpha_i} = prod x^{beta_j} with alpha_i, beta_j in S'.
    A kernel vector x expands in S' with coefficients <x, w> over the rays w
    of the chamber of S' (``roots.chamber_orbit``), which invert the rows of S'.
    """
    mu = tuple(tuple(row) for row in mu)
    coords = []   # mu of each root of rprime, in the base coordinates of r
    for v in rprime.roots:
        img = linalg.vec_matmul(v, mu)
        try:
            coords += rootsmod.mcoords_of_vectors(r, [img])
        except NotInSpan:
            raise NotInSpan(f"mu sends {v} to {img}, not a root multiple") from None
    # mu on root lattices, in base coordinates: M(R') -> M(R).
    p = tuple(coords[i] for i in rprime.base_simple_set)
    if not linalg.lattices_equal(p, linalg.identity_matrix(r.rank)):
        raise NotSurjective("mu does not map M(R') onto M(R)")
    kern = linalg.kernel_basis(p)
    rays, chambers = rootsmod.chamber_orbit(rprime)
    pairings = [[linalg.vec_dot(x, w) for w in rays] for x in kern]
    charts = []
    for s, ids in chambers:
        pairs = sorted(zip(s, ids))
        eqs = tuple((tuple(a for a, i in pairs for _ in range(row[i])),
                     tuple(a for a, i in pairs for _ in range(-row[i]))) for row in pairings)
        charts.append((tuple(a for a, _ in pairs), eqs))
    return EmbeddingEquations(kern, tuple(sorted(charts)))


class OrbitClosure(NamedTuple):
    subsystem: object        # RootSystem on the roots orthogonal to the cone
    subsystem_root_indices: tuple   # indices into r.roots
    charts: tuple            # (S, S', S \ S') as root-index tuples of r
    factors: tuple           # Dynkin components of the first chart's S'


def _cone_point(r, tau):
    """(tau, v, S, J): tau's sorted ray ids, the sum v of its rays (``_rays``),
    and the S and the labels J = {k : u_k = 0} of ``_chamber_and_face(r, v)``.
    v is in tau's relative interior, so tau is a cone iff it is v's face."""
    tau, rays = tuple(sorted(set(tau))), rootsmod._rays(r)[0]
    v = tuple(sum(rays[i][k] for i in tau) for k in range(r.rank))
    s, face, u = _chamber_and_face(r, v)
    if face != tau:
        raise NotInSpan(f"the cone spanned by {[list(rays[i]) for i in tau]} "
                        "is not a cone of the fan")
    return tau, v, s, tuple(k for k, x in enumerate(u) if x == 0)


def orbit_closure(r, f, tau):
    """The torus-orbit closure for a cone of the chamber fan.

    Returns the root subsystem orthogonal to tau, the chart restrictions
    (for every chamber containing tau: its simple set S, the surviving part
    S' = S orthogonal to tau, and the vanishing set S minus S'), and the
    Dynkin components of S'.

    Only the star of tau is visited.  The sum v of tau's rays lies in the
    relative interior of tau, so a chamber contains tau iff it contains v.
    ``_cone_point`` finds one, S0 = w(Delta), and the labels J with u_k = 0,
    u = w^{-1} v.  Crossing only the walls of labels in J (w -> w s_k fixes
    u) walks the star, the orbit of S0 under the stabilizer w W_J w^{-1} of
    v, with S kept in label order.  A root has one sign on a whole cone, so
    it is orthogonal to tau iff <a, v> = 0, as S[k] is iff k is in J.
    ``f`` must be ``weyl_chamber_fan(r)``.
    """
    if f != weyl_chamber_fan(r):
        raise ValueError("orbit_closure needs the chamber fan of r")
    tau, v, start, labels = _cone_point(r, tau)
    table = rootsmod.reflection_table(r)
    star, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for k in labels:
            if (t := tuple(map(table[s[k]].__getitem__, s))) not in star:
                star.add(t)
                todo.append(t)
    others = [k for k in range(r.rank) if k not in labels]
    charts = tuple(sorted((tuple(sorted(s)), tuple(sorted(s[k] for k in labels)),
                           tuple(sorted(s[k] for k in others))) for s in star))
    sub_idx = tuple(i for i, c in enumerate(r.mcoords) if not linalg.vec_dot(c, v))
    sub = rootsmod.root_system_from_roots([r.roots[i] for i in sub_idx], r.ambient_dim,
                                          base=[r.roots[i] for i in charts[0][1]]) if tau else r
    return OrbitClosure(sub, sub_idx, charts, rootsmod.dynkin_components(r, charts[0][1]))


class SectionPair(NamedTuple):
    plus_cone: tuple
    minus_cone: tuple
    plus_vanishing: tuple    # root indices with <root, v> > 0, v interior of tau
    minus_vanishing: tuple


def opposite_sections(r, tau):
    """tau and -tau as cones of the chamber fan, with the root sets whose
    characters vanish on the corresponding orbit closures.  tau is a cone iff
    it is the ``chamber_face`` of the sum v of its rays (``_cone_point``).
    -C is the chamber of the simple set -Delta, so -tau is always a cone, the
    face of -v; a missing one is an internal fault.  No fan is built."""
    rays, ray_id = rootsmod._rays(r)
    tau, v, _, _ = _cone_point(r, tau)
    minus = tuple(sorted(ray_id[linalg.vec_neg(rays[i])] for i in tau))
    internal_check(_chamber_and_face(r, linalg.vec_neg(v))[1] == minus,
                   f"the opposite of the cone {list(tau)} is not a cone of the fan")
    plus_vanish = tuple(i for i, c in enumerate(r.mcoords) if linalg.vec_dot(c, v) > 0)
    minus_vanish = tuple(sorted(r.neg[i] for i in plus_vanish))
    return SectionPair(tau, minus, plus_vanish, minus_vanish)
