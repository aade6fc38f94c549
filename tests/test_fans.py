import random
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations
from math import comb

import pytest

from test_linalg import bareiss_det, dual_basis, in_rational_span, int_inverse
from test_roots import ORACLE_FACTORS, refuse_the_fan, simple_sets, sorted_orbit, weyl_order
from weylfan import fans, linalg, roots, typea
from weylfan.errors import InternalCheckFailed, NotInSpan, NotRootSpan, NotSurjective


def sys(*factors):
    return roots.build_root_system(roots.RootSystemSpec.parse(factors))


def make_fan(rank, rays, cones):
    """Canonicalize rays and cones into a Fan; each cone names distinct rays.
    The builder of the tests' hand-made fans, and the oracle for ``typea``'s
    subset fans, which the library builds in ray order."""
    rays = [tuple(v) for v in rays]
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    for v in rays:
        if linalg.vec_is_zero(v) or linalg.vec_primitive(v) != v:
            raise ValueError(f"ray {v} is not primitive")
    order = sorted(range(len(rays)), key=rays.__getitem__)
    remap = dict(zip(order, range(len(rays))))  # the inverse of order; -1 names no ray
    try:
        new_cones = sorted({tuple(sorted(map(remap.__getitem__, cone))) for cone in cones})
    except KeyError as e:
        raise ValueError(f"the cone id {e.args[0]!r} names no ray") from None
    if any(len(set(cone)) < len(cone) for cone in new_cones):
        raise ValueError("a cone repeats a ray")
    return fans.Fan(rank, tuple(rays[i] for i in order), tuple(new_cones))


def test_a1_fan():
    f = fans.weyl_chamber_fan(sys(("A", 1)))
    assert f.rays == ((-1,), (1,))
    assert f.max_cones == ((0,), (1,))


def test_a2_fan_counts_and_rays():
    f = fans.weyl_chamber_fan(sys(("A", 2)))
    assert len(f.rays) == 6
    assert len(f.max_cones) == 6
    # v1, v2, v3 and their pairwise sums, in coordinates dual to the base
    expect = {(1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (-1, 0)}
    assert set(f.rays) == expect


@pytest.mark.parametrize("n,nrays,ncones", [(1, 2, 2), (2, 6, 6), (3, 14, 24), (4, 30, 120)])
def test_an_fan_counts(n, nrays, ncones):
    f = fans.weyl_chamber_fan(sys(("A", n)))
    assert len(f.rays) == 2 ** (n + 1) - 2 == nrays
    assert len(f.max_cones) == ncones
    assert fans.check_complete(f)
    assert fans.check_smooth(f)


def test_bcdg_fans_complete_smooth():
    for factors in [(("B", 2),), (("B", 3),), (("C", 3),), (("D", 4),), (("G", 2),)]:
        r = sys(*factors)
        f = fans.weyl_chamber_fan(r)
        assert len(f.max_cones) == weyl_order(r.spec)
        assert fans.check_complete(f)
        assert fans.check_smooth(f)


UP_TO_RANK_5 = ([(("A", n),) for n in range(1, 6)] + [(("B", n),) for n in range(2, 6)]
                + [(("C", n),) for n in range(2, 6)] + [(("D", n),) for n in range(2, 6)]
                + [(("G", 2),), (("A", 2), ("B", 2))])


@pytest.mark.parametrize("factors", UP_TO_RANK_5,
                         ids=lambda fs: "x".join(f"{f}{n}" for f, n in fs))
def test_h_vector_is_descent_distribution(factors):
    """h-vector of the chamber fan = distribution of descents over W.

    The h-vector comes from the face counts f_k of the fan, h(t) =
    sum_k f_k (t-1)^{n-k}.  The descents of a chamber are the base-negative
    roots in its simple set (the Betti numbers of X(R): Dolgachev-Lunts,
    Stembridge).
    """
    r = sys(*factors)
    n = r.rank
    f = fans.weyl_chamber_fan(r)
    faces = {face for cone in f.max_cones for k in range(n + 1)
             for face in combinations(cone, k)}
    h = [0] * (n + 1)
    for face in faces:
        e = n - len(face)
        for j in range(e + 1):
            h[j] += comb(e, j) * (-1) ** (e - j)
    descents = [0] * (n + 1)
    for s in simple_sets(r):
        descents[sum(i not in r.positive for i in s)] += 1
    assert h == descents
    assert sum(h) == weyl_order(r.spec) and h == h[::-1]
    assert fans.check_complete(f) and fans.check_smooth(f)


def breadth_first_orbit(r):
    """The chamber orbit by a breadth-first walk that crosses every wall of
    every chamber and keeps a set of the simple sets seen, with the ray
    vectors of each chamber aligned to its sorted S: the oracle for the
    first-descent walk of ``roots.chamber_orbit``."""
    table = roots.reflection_table(r)
    coroots = [tuple(roots._pairing(r.roots[b], va) for b in r.base_simple_set)
               for va in r.roots]
    unit = linalg.identity_matrix(r.rank)
    base = tuple(sorted(r.base_simple_set))
    orbit = [(base, tuple(unit[r.base_simple_set.index(b)] for b in base))]
    seen = {base}
    for s, rays in orbit:
        for a, wa in zip(s, rays):
            image = table[a]
            t = tuple(sorted(image[b] for b in s))
            if t in seen:
                continue
            seen.add(t)
            moved = dict(zip((image[b] for b in s), rays))
            moved[image[a]] = linalg.vec_sub(wa, coroots[a])
            orbit.append((t, tuple(moved[b] for b in t)))
    return tuple(sorted(orbit))


def label(factors):
    return "x".join(f"{f}{n}" for f, n in factors)


def derived(*factors):
    """The system rebuilt from its list of roots: no spec, and the base that
    a generic functional picks, not the standard one."""
    r = sys(*factors)
    return roots.root_system_from_roots(r.roots, r.ambient_dim)


# Rebuilt systems whose positive roots are not the standard ones, so the
# first-descent walk's bitmasks over root ids have other bits set.
DERIVED = [(("B", 3),), (("G", 2),), (("A", 2), ("B", 2))]


@pytest.mark.parametrize("factors,rebuilt",
                         [pytest.param(fs, False, id=label(fs))
                          for fs in UP_TO_RANK_5 + [(("A", 6),)]]
                         + [pytest.param(fs, True, id="derived-" + label(fs)) for fs in DERIVED])
def test_wall_crossed_rays_are_dual_bases(factors, rebuilt):
    """The walk returns the rays of the chamber fan, lex-sorted, and starts at
    the base chamber with the ids of the unit vectors in them.  Sorted, its
    chambers are the breadth-first orbit, the ray ids of each chamber name
    the dual basis of its simple set, and the rays are the lex-sorted union
    of those bases."""
    r = derived(*factors) if rebuilt else sys(*factors)
    assert (r.positive != sys(*factors).positive) == rebuilt
    walk_rays, walk = roots.chamber_orbit(r)
    assert walk_rays == fans.weyl_chamber_fan(r).rays
    assert walk[0] == (r.base_simple_set,
                       tuple(map(walk_rays.index, linalg.identity_matrix(r.rank))))
    rays, chambers = sorted_orbit(r)
    assert len(chambers) == len(walk) == weyl_order(roots.RootSystemSpec(factors))
    assert rays == fans.weyl_chamber_fan(r).rays
    as_vectors = tuple((s, tuple(rays[i] for i in ids)) for s, ids in chambers)
    assert as_vectors == breadth_first_orbit(r)
    assert rays == tuple(sorted({w for _, ws in as_vectors for w in ws}))
    for s, ws in as_vectors:
        assert ws == dual_basis(tuple(r.mcoords[i] for i in s)), s


class CountingList(list):
    """A list that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


# Coroots read by the walk, one per distinct (ray id, wall) pair it crosses.
CROSSED_PAIRS = {"A6": 321, "B5": 599, "D5": 504}


@pytest.mark.parametrize("factors,rebuilt",
                         [pytest.param(fs, False, id=label(fs))
                          for fs in [(("A", 6),), (("B", 5),), (("D", 5),)]]
                         + [pytest.param(fs, True, id="derived-" + label(fs)) for fs in DERIVED])
def test_the_walk_builds_each_crossed_ray_once_per_ray_and_wall(factors, rebuilt, monkeypatch):
    """Crossing the wall of a sends the ray w to w - a^vee, so the walk reads
    a coroot only for a (ray id, wall) pair it has not crossed before.  Each
    chamber but the base one is entered across the wall of its first descent
    k, the first negative label: its pair (ids[k], S[k]) is the entering
    crossing seen from the other side, (w - a^vee, -a) for the parent's (w,
    a), so the distinct pairs count the crossings the walk builds.  The walk
    is the same with the counting coroots as without."""
    r = derived(*factors) if rebuilt else sys(*factors)
    walk = roots.chamber_orbit(r)
    negative = set(range(len(r.roots))) - set(r.positive)
    pairs = {next((ids[k], a) for k, a in enumerate(s) if a in negative)
             for s, ids in walk[1][1:]}
    coroots = CountingList(roots._coroots(r))
    monkeypatch.setattr(roots, "_coroots", lambda r: coroots)
    assert roots.chamber_orbit(r) == walk
    assert coroots.reads == len(pairs) <= len(walk[1]) - 1   # derived G_2: 11 of 11
    if not rebuilt:
        assert coroots.reads == CROSSED_PAIRS[label(factors)] < len(walk[1]) - 1


def test_a_chamber_walked_twice_is_caught(monkeypatch):
    """The fan has one max cone per chamber of the walk: a walk that yields
    one chamber twice makes ``weyl_chamber_fan`` raise, not return a fan."""
    r = sys(("B", 3))
    rays, chambers = roots.chamber_orbit(r)
    monkeypatch.setattr(roots, "chamber_orbit", lambda r: (rays, chambers + chambers[5:6]))
    fans.weyl_chamber_fan.cache_clear()  # so that the patched walk is read
    with pytest.raises(InternalCheckFailed, match="reached a chamber twice"):
        fans.weyl_chamber_fan(r)


def test_a_crossed_ray_missing_from_the_rays_is_caught(monkeypatch):
    """The walk looks each crossed ray up in ``roots._rays``: rays with one
    vector (not a unit vector) left out make ``weyl_chamber_fan`` raise a
    named internal check, not a bare KeyError."""
    r = sys(("B", 3))
    rays = roots._rays(r)[0]
    missing = next(v for v in rays if v not in linalg.identity_matrix(r.rank))
    kept = tuple(v for v in rays if v != missing)
    monkeypatch.setattr(roots, "_rays", lambda r: (kept, {v: i for i, v in enumerate(kept)}))
    fans.weyl_chamber_fan.cache_clear()  # so that the patched rays are read
    with pytest.raises(InternalCheckFailed, match="not in the coweight orbits"):
        fans.weyl_chamber_fan(r)


def ray_count(factors):
    """Oracle: the number of rays of the chamber fan, the sum over the
    fundamental coweights of |W| / |W_{Delta - {i}}|, in closed form per
    family; a product adds its factors."""
    per_factor = {"A": lambda n: 2 ** (n + 1) - 2, "B": lambda n: 3 ** n - 1,
                  "C": lambda n: 3 ** n - 1, "G": lambda n: 12,
                  "D": lambda n: sum(comb(n, k) * 2 ** k for k in range(1, n - 1)) + 2 ** n}
    return sum(per_factor[f](n) for f, n in factors)


@pytest.mark.parametrize("factors,rebuilt",
                         [pytest.param(fs, False, id=label(fs)) for fs in ORACLE_FACTORS]
                         + [pytest.param(fs, True, id="derived-" + label(fs)) for fs in DERIVED])
def test_rays_without_chambers(factors, rebuilt, monkeypatch):
    """The orbits of the unit vectors by the numbers game are the rays of the
    chamber fan, lex-sorted, with their ids, where the fan is small enough
    to build; with the walk refused, their number is the closed form, up to
    rank 7 (B_7 and C_7: 2,186 rays, 645,120 chambers)."""
    r = derived(*factors) if rebuilt else sys(*factors)
    rays, ray_id = roots._rays(r)
    assert ray_id == {v: i for i, v in enumerate(rays)} and list(rays) == sorted(set(rays))
    if weyl_order(roots.RootSystemSpec(factors)) <= 5040:
        assert rays == fans.weyl_chamber_fan(r).rays
    roots._rays.cache_clear()
    monkeypatch.setattr(roots, "chamber_orbit", lambda r: pytest.fail("the walk was called"))
    assert len(roots._rays(r)[0]) == ray_count(factors)


def test_check_complete_rejects_a_degenerate_cone():
    """Three plane cones whose facets (rays) all pair up; the cone spanned by
    (1, 0) and (-1, 0) has determinant 0, so the fan is not complete."""
    f = make_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2), (2, 0)])
    assert len(f.max_cones) == 3
    assert not fans.check_complete(f)
    square = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                      [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert fans.check_complete(square) and fans.check_smooth(square)


def test_check_complete_needs_a_max_cone():
    """A fan with no max cones covers nothing, with or without rays; the
    rank-0 fan of the zero cone alone is complete."""
    assert not fans.check_complete(make_fan(2, [], []))
    assert not fans.check_complete(make_fan(2, [(1, 0), (0, 1)], []))
    assert fans.check_complete(make_fan(0, [], [()]))


def test_check_complete_rejects_overlapping_cones():
    """Three unimodular cones in the first quadrant, each ray a facet of two
    of them: the two cones on the ray (1, 0) both lie above it."""
    f = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (2, 0)])
    assert fans.check_smooth(f)
    assert not fans.check_complete(f)


def test_check_complete_sides_of_a_non_simplicial_cone():
    """The first quadrant as one cone on three rays, with simplicial
    neighbours: the side of a facet is the same whichever kind of cone
    reports it, so the complete fan passes and the overlapping one fails."""
    quadrant = [(1, 0), (1, 1), (0, 1)]
    complete = make_fan(2, quadrant + [(-1, 0), (0, -1)],
                        [(0, 1, 2), (2, 3), (3, 4), (4, 0)])
    overlapping = make_fan(2, quadrant + [(2, 1)], [(0, 1, 2), (2, 3), (3, 0)])
    assert fans.check_complete(complete)
    assert not fans.check_complete(overlapping)


def test_check_complete_is_local():
    """A plane fan that winds twice around the origin: every ray has one cone
    on each side, so the check, which looks at one facet at a time, passes."""
    rays = [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)]
    f = make_fan(2, rays, [(k, (k + 1) % 5) for k in range(5)])
    assert fans.check_complete(f)


def test_make_fan_refuses_cone_ids_that_name_no_ray():
    """A negative id would wrap to the last ray, an id past the rays has no
    ray, and a repeated id would keep a cone on fewer rays than it lists;
    like a repeated ray, each is refused."""
    with pytest.raises(ValueError, match="the cone id -1 names no ray"):
        make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, -1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="the cone id 5 names no ray"):
        make_fan(2, [(1, 0), (0, 1)], [(0, 5)])
    with pytest.raises(ValueError, match="a cone repeats a ray"):
        make_fan(2, [(1, 0), (0, 1)], [(0, 0)])
    with pytest.raises(ValueError, match="duplicate rays"):
        make_fan(2, [(1, 0), (1, 0)], [(0, 1)])
    assert make_fan(2, [(0, 1), (1, 0)], [(1, 0)]).max_cones == ((0, 1),)


def test_check_smooth_rejects_a_determinant_two_cone():
    """A complete plane fan with one cone of determinant 2: complete, not
    smooth.  Moving the ray (1, 2) to (1, 1) makes it smooth."""
    for v, smooth in [((1, 2), False), ((1, 1), True)]:
        f = make_fan(2, [(1, 0), v, (0, 1), (-1, 0), (0, -1)],
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        dets = [abs(bareiss_det(tuple(f.rays[i] for i in c))) for c in f.max_cones]
        assert sorted(dets) == [1, 1, 1, 1, 1 if smooth else 2]
        assert fans.check_complete(f)
        assert fans.check_smooth(f) == smooth


def test_walls_of_a_facet_with_determinant_two_on_both_sides():
    """The plane fan on (1, 0), (1, 2), (-1, 0), (-1, -2), with consecutive
    pairs as its cones, is complete and every cone has determinant 2.  The
    normal (2, -1) of the facet (1, 2) pairs to 2 with (1, 0) and to -2 with
    (-1, 0): the two cones through it lie on opposite sides although neither
    pairing is +-1."""
    rays = [(1, 0), (1, 2), (-1, 0), (-1, -2)]
    f = make_fan(2, rays, [(k, (k + 1) % 4) for k in range(4)])
    assert [abs(bareiss_det(tuple(f.rays[i] for i in c))) for c in f.max_cones] == [2] * 4
    (nu,) = linalg.kernel_basis(linalg.transpose(((1, 2),)))
    assert nu == (2, -1) and [linalg.vec_dot(nu, v) for v in rays[::2]] == [2, -2]
    assert fans._walls(f) == complete_and_smooth_by_dets(f) == (True, False)


def test_fan_negation_symmetric():
    for factors in [(("A", 3),), (("B", 2),), (("G", 2),)]:
        f = fans.weyl_chamber_fan(sys(*factors))
        rays = set(f.rays)
        assert {linalg.vec_neg(v) for v in rays} == rays


def test_reflections_permute_chambers_freely():
    r = sys(("A", 3))
    table = roots.reflection_table(r)
    sets = simple_sets(r)
    for a in r.base_simple_set:
        image = [tuple(sorted(table[a][b] for b in s)) for s in sets]
        assert sorted(image) == list(sets)          # permutation
        assert all(x != s for x, s in zip(image, sets))  # no fixed chamber


def test_deleting_a_chamber_breaks_completeness():
    """Deleting any one of the first three max cones.  Also for the fans of
    the root polytopes of A_3 and A_5, whose max cones have 4 rays in rank 3
    and 16 rays in rank 5: their facets come from the dual cones."""
    for f in [fans.weyl_chamber_fan(sys(("A", 2))), typea.sigma_delta_fan(3),
              typea.sigma_delta_fan(5)]:
        assert fans.check_complete(f)
        for k in range(3):
            broken = fans.Fan(f.lattice_rank, f.rays, f.max_cones[:k] + f.max_cones[k + 1:])
            assert not fans.check_complete(broken)


def test_check_complete_rejects_broken_b5_fans():
    """The B_5 chamber fan has 242 rays, so its facet keys have bits past 63.
    Dropping a max cone, or putting a second copy of a cone in place of its
    neighbour across a facet (both then on one side of it), breaks it."""
    f = fans.weyl_chamber_fan(sys(("B", 5)))
    assert len(f.rays) == 242 and fans.check_complete(f)
    k = next(k for k, cone in enumerate(f.max_cones) if cone[0] > 63)
    cone = f.max_cones[k]
    j = next(j for j, other in enumerate(f.max_cones) if len(set(cone) & set(other)) == 4)
    without = f.max_cones[:k] + f.max_cones[k + 1:]
    doubled = f.max_cones[:j] + (cone,) + f.max_cones[j + 1:]
    for cones in (without, doubled):
        assert not fans.check_complete(fans.Fan(5, f.rays, cones))


# Oracle for the facets of a non-simplicial cone: the search over every
# (n-1)-subset of its rays, with one kernel per subset.
def facets_by_subsets(f, cone):
    """{facet: side} of a full-dimensional cone.  A subset of n-1 rays with a
    one-dimensional orthogonal complement, all rays on one side of it, gives
    the facet of the rays on that hyperplane, if they span it; the side is
    the sign of the first nonzero entry of the inward kernel vector."""
    n = f.lattice_rank
    rays = [f.rays[i] for i in cone]
    facets = {}
    for sub in combinations(range(len(cone)), n - 1):
        mat = tuple(rays[i] for i in sub)
        kern = linalg.kernel_basis(linalg.transpose(mat))
        if len(kern) != 1:
            continue
        vals = [linalg.vec_dot(ray, kern[0]) for ray in rays]
        if all(x >= 0 for x in vals) or all(x <= 0 for x in vals):
            on = tuple(cone[i] for i, x in enumerate(vals) if x == 0)
            if on not in facets and linalg.rank(tuple(f.rays[i] for i in on)) == n - 1:
                inward = kern[0] if max(vals) > 0 else linalg.vec_neg(kern[0])
                facets[on] = 1 if next(x for x in inward if x) > 0 else -1
    return facets


# A cone over a square: four rays in rank 3 over the square at height 1.
PYRAMID = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)]


def pyramid_fan(apex):
    """The pyramid cone and the four simplicial cones on its facets and
    ``apex``: complete for an apex below the square, and the pyramid
    subdivided, lying twice over itself, for an apex inside it."""
    sides = [(k, (k + 1) % 4, 4) for k in range(4)]
    return make_fan(3, PYRAMID + [apex], [(0, 1, 2, 3)] + sides)


def ray_ids(mask):
    """The sorted ray ids of a facet bitmask from ``fans._cone_facets``."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def normal_side(f, on, x):
    """The sign of <nu, x>, nu the primitive normal of the hyperplane spanned
    by the rays ``on`` with its first nonzero entry positive."""
    (nu,) = linalg.kernel_basis(linalg.transpose(tuple(f.rays[i] for i in on)))
    assert next(c for c in nu if c) > 0 and linalg.vec_primitive(nu) == nu
    return 1 if linalg.vec_dot(nu, f.rays[x]) > 0 else -1


def test_pyramid_shares_its_facets_with_simplicial_cones():
    """A facet of n - 1 rays gets the same side from the dual extreme ray of
    the pyramid as from the normal of its hyperplane paired with the ray off
    it in a simplicial cone, which is the side that ``fans._walls`` reads."""
    complete, doubled = pyramid_fan((0, 0, -1)), pyramid_fan((0, 0, 1))
    assert fans.check_complete(complete)
    assert not fans.check_complete(doubled)
    for f in (complete, doubled):
        sides = {}
        for cone in f.max_cones:
            for facet, side in fans._cone_facets(f, cone):
                on = ray_ids(facet)
                if len(cone) == 3:
                    assert side == normal_side(f, on, *set(cone) - set(on))
                sides.setdefault(on, []).append(side)
        assert sorted(map(len, sides.values())) == [2] * 8
        assert all(len(facet) == 2 for facet in sides)
        opposite = [facet for facet, (a, b) in sides.items() if a + b == 0]
        assert len(opposite) == (8 if f is complete else 4)


def test_coplanar_rays_are_not_a_full_dimensional_cone():
    """Four rays of one plane in rank 3, as one max cone: its dual cone holds
    a line, so the fan is not complete."""
    f = make_fan(3, [(1, 0, 0), (1, 1, 0), (0, 1, 0), (-1, 1, 0)], [(0, 1, 2, 3)])
    assert fans._cone_facets(f, f.max_cones[0]) is None
    assert not fans.check_complete(f)


@pytest.mark.parametrize("n", [3, 4])
def test_cone_facets_equal_the_subset_search(n):
    """On every max cone of sigma_delta_fan(n) and of the pyramid fans: the
    same facets and the same sides as the oracle (at n = 4 each facet has
    four rays)."""
    fs = [typea.sigma_delta_fan(n)] + ([pyramid_fan((0, 0, -1)), pyramid_fan((0, 0, 1))]
                                        if n == 3 else [])
    sides_checked = 0
    for f in fs:
        for cone in f.max_cones:
            pairs = [(ray_ids(mask), side) for mask, side in fans._cone_facets(f, cone)]
            got = dict(pairs)
            assert len(pairs) == len(got) and got == facets_by_subsets(f, cone), cone
            sides_checked += len(got)
    assert sides_checked == (48 + 2 * 16 if n == 3 else 120)


def complete_and_smooth_by_dets(f):
    """(complete, smooth) by one Bareiss determinant per simplicial max cone
    and a dict of facet sides: the oracle for ``fans._walls``.  The facet of
    a simplicial cone without its ray at position k has the side sign
    det(F, x) = sign(d) (-1)^(n-1-k), d the cone's determinant.  Other cones
    read their facets off the extreme rays y of their dual cones, with the
    side sign det(F, y) on a facet F of n - 1 rays and the sign of y's first
    nonzero entry on a larger one.  Complete iff every cone is
    full-dimensional and every facet has one cone on each side; smooth iff
    every determinant is +-1."""
    n = f.lattice_rank
    dets = [bareiss_det(tuple(f.rays[i] for i in cone)) if len(cone) == n else None
            for cone in f.max_cones]

    def complete():
        sides = {}  # facet -> side of its first cone, 0 once a cone on the other side is met
        for cone, d in zip(f.max_cones, dets):
            if d is not None:
                if d == 0:
                    return False
                mask, first = sum(1 << i for i in cone), 1 if (d > 0) == (n % 2 == 1) else -1
                facets = [(mask ^ (1 << i), -first if k % 2 else first)
                          for k, i in enumerate(cone)]
            elif (dual := linalg.extreme_rays([f.rays[i] for i in cone])) is None:
                return False
            else:
                facets = []
                for y, zeros in dual:
                    on = [i for k, i in enumerate(cone) if zeros >> k & 1]
                    side = bareiss_det(tuple(f.rays[i] for i in on) + (y,)) \
                        if len(on) == n - 1 else next(x for x in y if x)
                    facets.append((sum(1 << i for i in on), 1 if side > 0 else -1))
            for facet, side in facets:
                seen = sides.get(facet)
                if seen is not None and seen + side:   # the same side twice, or a third cone
                    return False
                sides[facet] = side if seen is None else 0
        return bool(f.max_cones) and not any(sides.values())

    return complete(), all(d in (1, -1) for d in dets)


def broken_fans(f):
    """{name: fan} for four ways to break a complete smooth fan ``f`` at its
    middle max cone sigma: deleted; copied over its neighbour across a facet,
    so that both copies lie on one side of it; one ray a of sigma moved to
    2a + b, b the next ray, so that sigma has determinant +-2; and the last
    ray of sigma replaced by the negative of its first, which leaves a
    degenerate cone (not for rank 1, where every ray spans the line)."""
    n, cones = f.lattice_rank, f.max_cones
    k = len(cones) // 2
    sigma = cones[k]
    j = next(j for j, other in enumerate(cones)
             if other != sigma and len(set(sigma) & set(other)) == n - 1)
    a, *rest = sigma
    moved = linalg.vec_add(linalg.vec_scale(2, f.rays[a]), f.rays[rest[0]] if rest else (0,))
    out = {
        "deleted": fans.Fan(n, f.rays, cones[:k] + cones[k + 1:]),
        "copied": fans.Fan(n, f.rays, cones[:j] + (sigma,) + cones[j + 1:]),
        "det2": fans.Fan(n, f.rays + (moved,),
                         cones[:k] + (tuple(rest) + (len(f.rays),),) + cones[k + 1:]),
    }
    if n > 1:
        degenerate = tuple(sorted(sigma[:-1] + (f.ray_index(linalg.vec_neg(f.rays[a])),)))
        out["degenerate"] = fans.Fan(n, f.rays, cones[:k] + (degenerate,) + cones[k + 1:])
    return out


# The oracle systems up to the 5,040 chambers of A_6, and A_2 x B_2: every
# rung of the ``chambers`` benchmark ladder is among them.
WALL_SYSTEMS = [fs for fs in ORACLE_FACTORS
                if weyl_order(roots.RootSystemSpec(fs)) <= 5040] + [(("A", 2), ("B", 2))]


@pytest.mark.parametrize("factors", WALL_SYSTEMS, ids=label)
def test_walls_equal_the_determinant_oracle(factors):
    """The chamber fan is complete and smooth by both checks, and each of the
    four broken fans gets the oracle's verdicts: not complete (but for the
    moved ray of rank 1, which keeps its side of the origin), and smooth only
    when the cones left are all unimodular."""
    f = fans.weyl_chamber_fan(sys(*factors))
    assert fans._walls(f) == complete_and_smooth_by_dets(f) == (True, True)
    for name, broken in broken_fans(f).items():
        want = complete_and_smooth_by_dets(broken)
        assert fans._walls(broken) == want, name
        assert want[0] == (name == "det2" and f.lattice_rank == 1), name   # no facet to miss
        assert want[1] == (name in ("deleted", "copied")), name
        assert (fans.check_complete(broken), fans.check_smooth(broken)) == want


def test_chamber_fans_find_one_kernel_per_positive_root(monkeypatch):
    """The walls of the chambers lie on the root hyperplanes, one per
    positive root: ``fans._walls`` finds each by one ``kernel_basis`` call."""
    built = [(r, fans.weyl_chamber_fan(r)) for r in (sys(*fs) for fs in WALL_SYSTEMS)]
    calls = []
    kernel_basis = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m))
    for r, f in built:
        fans._walls.cache_clear()   # A_1, B_1 and C_1 have equal fans
        calls.clear()
        assert fans._walls(f) == (True, True)
        assert len(calls) == len(r.positive), r.spec


def test_walls_is_a_pair_of_bools():
    """Only the two verdicts are cached, not the facet lists."""
    for f in (fans.weyl_chamber_fan(sys(("B", 3),)), typea.sigma_delta_fan(3),
              make_fan(2, [], []), make_fan(0, [], [()])):
        walls = fans._walls(f)
        assert type(walls) is tuple and [type(x) for x in walls] == [bool, bool]


def test_walls_of_small_and_mixed_fans():
    """Rank 0 and rank 1, the root polytope fans sigma_delta_fan(3..5), the
    pyramid fans and the plane fans of the tests above."""
    line = [(-1,), (1,), (2,), (-3,)]
    plane = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, 2)]
    cases = {
        "rank0": make_fan(0, [], [()]), "rank0-empty": make_fan(0, [], []),
        "rank1": fans.Fan(1, ((-1,), (1,)), ((0,), (1,))),
        "rank1-one-side": fans.Fan(1, ((-1,), (1,)), ((1,),)),
        "rank1-twice": fans.Fan(1, ((-1,), (1,)), ((0,), (1,), (1,))),
        "rank1-det2": fans.Fan(1, ((-1,), (2,)), ((0,), (1,))),
        "rank1-line": fans.Fan(1, ((-1,), (1,)), ((0, 1),)),
        "rank1-both": fans.Fan(1, tuple(line), ((0,), (1,), (2,), (3,))),
        "pyramid": pyramid_fan((0, 0, -1)), "pyramid-doubled": pyramid_fan((0, 0, 1)),
        "square": fans.Fan(2, tuple(plane[:4]), ((0, 1), (1, 2), (2, 3), (0, 3))),
        "det2": fans.Fan(2, tuple(plane[:4]) + ((1, 2),), ((0, 4), (1, 4), (1, 2), (2, 3), (0, 3))),
        "quadrant": fans.Fan(2, tuple(plane[:5]), ((0, 1, 4), (1, 2), (2, 3), (0, 3))),
        "overlap": fans.Fan(2, tuple(plane[:2]) + ((1, 1),), ((0, 1), (1, 2), (0, 2))),
        "segment": fans.Fan(2, tuple(plane[:4]), ((0, 2), (1, 2), (0, 1))),
        "too-few": fans.Fan(2, tuple(plane[:4]), ((0,), (1, 2), (2, 3), (0, 3))),
    }
    cases.update({f"sigma-delta-{n}": typea.sigma_delta_fan(n) for n in range(3, 6)})
    verdicts = {}
    for name, f in cases.items():
        verdicts[name] = complete_and_smooth_by_dets(f)
        assert fans._walls(f) == verdicts[name], name
    assert verdicts["rank0"] == verdicts["rank1"] == verdicts["square"] == (True, True)
    assert verdicts["rank0-empty"] == (False, True)
    assert verdicts["rank1-det2"] == verdicts["det2"] == (True, False)
    assert verdicts["sigma-delta-3"] == verdicts["pyramid"] == verdicts["quadrant"] == (True, False)
    assert verdicts["overlap"] == verdicts["rank1-twice"] == (False, True)
    assert verdicts["segment"] == verdicts["too-few"] == (False, False)
    assert verdicts["rank1-line"] == (True, False)   # one cone, the whole line


def angle_order(rays):
    """Plane vectors sorted by their angle in [0, 2 pi), exactly."""
    half = lambda v: 0 if v[1] > 0 or v[1] == 0 and v[0] > 0 else 1
    cross = lambda v, w: v[0] * w[1] - v[1] * w[0]
    return sorted(rays, key=cmp_to_key(lambda v, w: half(v) - half(w) or -cross(v, w)))


def random_fan(rng):
    """(fan, winds): a seeded random fan of rank 2 or 3, often complete before its
    mutations: a plane fan on angle-sorted rays, some cones merged into
    three-ray cones and some fans winding twice; or a rank-3 chamber fan, a
    root polytope fan or a pyramid fan.  Then up to two mutations: a cone
    deleted, copied over another, merged with a neighbour, given an extra
    ray, or replaced by rays drawn at random (often degenerate).  ``winds``
    tells a plane fan made to wind twice."""
    if rng.random() < 0.5:
        pool = {tuple(linalg.vec_primitive(v)) for v in
                ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 11)))}
        rays = angle_order(pool - {(0, 0)})
        if len(rays) < 2:
            return fans.Fan(2, tuple(rays), ((0,),) if rays else ()), False
        step = 1
        if len(rays) > 4 and rng.random() < 0.4:   # wind twice, on an odd number of rays
            rays, step = rays[:len(rays) - 1 + len(rays) % 2], 2
        order = [(step * k) % len(rays) for k in range(len(rays))]
        cones = [tuple(sorted((order[k], order[(k + 1) % len(rays)]))) for k in range(len(rays))]
        if len(cones) > 3 and rng.random() < 0.5:
            k = rng.randrange(len(cones))
            merged = tuple(sorted(set(cones[k]) | set(cones[k - 1])))
            cones = [c for i, c in enumerate(cones) if i not in (k, (k - 1) % len(cones))] + [merged]
        f = fans.Fan(2, tuple(rays), tuple(cones))
    else:
        step, f = 1, rng.choice([fans.weyl_chamber_fan(sys(*fs)) for fs in
                                 [(("A", 3),), (("B", 3),), (("C", 3),), (("A", 1), ("A", 2))]]
                                + [typea.sigma_delta_fan(3), pyramid_fan((0, 0, -1)),
                                   pyramid_fan((0, 0, 1))])
    cones = list(f.max_cones)
    for _ in range(rng.randint(0, 2)):
        if not cones:
            break
        k, kind = rng.randrange(len(cones)), rng.randrange(5)
        if kind == 0:
            del cones[k]
        elif kind == 1:
            cones[rng.randrange(len(cones))] = cones[k]
        elif kind == 2:
            other = next((c for c in cones if len(set(c) & set(cones[k])) == f.lattice_rank - 1
                          and c != cones[k]), cones[k])
            cones[k] = tuple(sorted(set(cones[k]) | set(other)))
        elif kind == 3:
            cones[k] = tuple(sorted(set(cones[k]) | {rng.randrange(len(f.rays))}))
        else:
            size = rng.choice([f.lattice_rank] * 3 + [f.lattice_rank + 1])
            cones[k] = tuple(sorted(rng.sample(range(len(f.rays)), min(size, len(f.rays)))))
    return fans.Fan(f.lattice_rank, f.rays, tuple(cones)), step == 2


def test_walls_equal_the_oracle_on_random_fans():
    """200 seeded random fans of rank 2 and 3, with cones that are not
    simplicial, fans that wind twice and degenerate cones among them."""
    rng = random.Random(29)
    seen = {"complete": 0, "smooth": 0, "incomplete": 0, "not simplicial": 0, "degenerate": 0,
            "winding": 0}
    for _ in range(200):
        f, winds = random_fan(rng)
        want = complete_and_smooth_by_dets(f)
        assert fans._walls(f) == want, f
        seen["complete"] += want[0]
        seen["smooth"] += want[1]
        seen["incomplete"] += not want[0]
        seen["not simplicial"] += any(len(c) != f.lattice_rank for c in f.max_cones)
        seen["degenerate"] += any(len(c) == f.lattice_rank
                                  and bareiss_det(tuple(f.rays[i] for i in c)) == 0
                                  for c in f.max_cones)
        seen["winding"] += want[0] and winds
    assert min(seen.values()) >= 5, seen


# Oracle for chamber_face: a scan of every max cone of a complete simplicial
# unimodular fan.
@lru_cache(maxsize=None)
def _cone_inverses(f):
    """Integer inverse of each max cone's ray matrix (None if not square)."""
    out = []
    for cone in f.max_cones:
        mat = tuple(f.rays[i] for i in cone)
        if len(mat) != f.lattice_rank or abs(bareiss_det(mat)) != 1:
            out.append(None)
        else:
            out.append(int_inverse(mat))
    return tuple(out)


def minimal_containing_cone(f, v):
    """The unique cone containing v in its relative interior, by a scan."""
    v = tuple(Fraction(x) for x in v)
    for cone, inv in zip(f.max_cones, _cone_inverses(f)):
        if inv is None:
            raise ValueError("fan has a non-unimodular max cone")
        coeffs = linalg.vec_matmul(v, inv)
        if all(c >= 0 for c in coeffs):
            return tuple(sorted(i for i, c in zip(cone, coeffs) if c > 0))
    raise ValueError(f"{v} is not covered; fan is not complete")


def cone_contains(f, cone, v):
    """Membership of v in the closed cone (for simplicial unimodular fans)."""
    return set(minimal_containing_cone(f, v)) <= set(cone)


def test_minimal_containing_cone():
    r = sys(("A", 2))
    f = fans.weyl_chamber_fan(r)
    assert fans.chamber_face(r, (0, 0)) == ()
    v1 = f.ray_index((1, 0))
    assert fans.chamber_face(r, (1, 0)) == (v1,)
    # 2 v1 + v2 = (1, 1) lies inside the chamber spanned by v1, v1+v2
    cone = fans.chamber_face(r, (1, 1))
    assert cone == tuple(sorted((v1, f.ray_index((0, 1)))))
    # rational points too
    cone2 = fans.chamber_face(r, (Fraction(3, 2), Fraction(1, 2)))
    assert cone2 == cone


def test_minimal_cone_face_property():
    r = sys(("B", 2))
    f = fans.weyl_chamber_fan(r)
    for v in [(2, 1), (1, 0), (0, 3), (-1, -1), (5, -2)]:
        cone = fans.chamber_face(r, v)
        assert any(set(cone) <= set(c) for c in f.max_cones)
        assert cone_contains(f, cone, v)


FACE_SYSTEMS = ([(("A", n),) for n in range(1, 5)] + [(("B", n),) for n in range(2, 5)]
                + [(("C", 3),), (("D", 4),), (("G", 2),), (("A", 2), ("B", 2))])


@pytest.mark.parametrize("factors,rebuilt",
                         [pytest.param(fs, False, id=label(fs)) for fs in FACE_SYSTEMS]
                         + [pytest.param(fs, True, id="derived-" + label(fs)) for fs in DERIVED])
def test_chamber_face_equals_scan(factors, rebuilt):
    """The walk on coweight coordinates and the scan over every chamber find
    the same face, for integer vectors with small entries (often on walls),
    sums of a few rays (on faces of every dimension) and rational vectors.
    The rebuilt systems have a generic base, so the Cartan columns and the
    coroots that carry the rays are not the standard ones."""
    r = derived(*factors) if rebuilt else sys(*factors)
    f = fans.weyl_chamber_fan(r)
    rng = random.Random("x".join(f"{fam}{n}" for fam, n in factors))
    vectors = [tuple(rng.randint(-2, 2) for _ in range(r.rank)) for _ in range(25)]
    for _ in range(25):
        rays = rng.sample(f.rays, rng.randint(1, r.rank))
        vectors.append(tuple(sum(rng.randint(0, 3) * w[k] for w in rays)
                             for k in range(r.rank)))
    vectors += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(r.rank))
                for _ in range(25)]
    for v in vectors:
        assert fans.chamber_face(r, v) == minimal_containing_cone(f, v), v


@lru_cache(maxsize=None)
def chamber_map(r):
    """{sorted simple set S: its ray ids in the chamber fan, aligned to S}:
    the walk of ``roots.chamber_orbit`` with each chamber sorted."""
    return dict(sorted_orbit(r)[1])


def chamber_face_by_pairings(r, v):
    """(S, steps, face): the descent by pairings, the oracle for
    ``fans._chamber_and_face``.  ``roots.descend`` crosses the root a of S of
    smallest index with <a, v> < 0, a dot product of its mcoords with v, and
    the face is the set of rays of S's chamber (the dual basis of the mcoords
    of S) whose roots of S are positive on v."""
    pairing = lambda a: linalg.vec_dot(r.mcoords[a], v)
    s, crossed = roots.descend(r, lambda a: pairing(a) < 0)
    rays = dual_basis(tuple(r.mcoords[a] for a in s))
    return s, len(crossed), {w for a, w in zip(s, rays) if pairing(a) > 0}


class RowsRead(tuple):
    """A reflection table that records the rows read: one per wall that
    ``fans._chamber_and_face`` crosses."""

    def __getitem__(self, a):
        self.read.append(a)
        return tuple.__getitem__(self, a)


def check_face_walk(r, vectors, ray_of, monkeypatch):
    """For each v: the walk on coweight coordinates reaches the S of the
    descent by pairings, with u_k = <S[k], v> >= 0, in one step per positive
    root negative on v, and its face (ray ids, named by ``ray_of``) is the
    oracle's face.  Both walks cross only walls that strictly separate v from
    the base chamber, so both end at the minimal coset representative."""
    table = RowsRead(roots.reflection_table(r))
    monkeypatch.setattr(roots, "reflection_table", lambda r: table)
    for v in vectors:
        table.read = []
        s, face, u = fans._chamber_and_face(r, v)
        steps = len(table.read)
        negative = sum(linalg.vec_dot(r.mcoords[a], v) < 0 for a in r.positive)
        assert (s, steps, {ray_of(i) for i in face}) == chamber_face_by_pairings(r, v), v
        assert steps == negative <= len(r.positive), v
        assert list(u) == [linalg.vec_dot(r.mcoords[a], v) for a in s] and min(u) >= 0, v


@pytest.mark.parametrize("factors", UP_TO_RANK_5, ids=label)
def test_chamber_face_by_position_equals_the_pairings(factors, monkeypatch):
    """On every ray, the ray sum of every max cone, a seeded sum of rays of
    each of 50 max cones and 50 seeded rational vectors: the face read off
    the rays carried along the walk is the face found by pairings."""
    r = sys(*factors)
    f = fans.weyl_chamber_fan(r)
    rng = random.Random(label(factors))
    vectors = list(f.rays) + [tuple(map(sum, zip(*(f.rays[i] for i in cone))))
                              for cone in f.max_cones]
    for cone in rng.sample(f.max_cones, min(50, len(f.max_cones))):
        coeffs = [rng.randint(0, 2) for _ in cone]
        vectors.append(tuple(sum(c * f.rays[i][k] for c, i in zip(coeffs, cone))
                             for k in range(r.rank)))
    vectors += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(r.rank))
                for _ in range(50)]
    check_face_walk(r, vectors, f.rays.__getitem__, monkeypatch)


@pytest.mark.parametrize("factors,rebuilt",
                         [pytest.param(fs, False, id=label(fs)) for fs in ORACLE_FACTORS]
                         + [pytest.param(fs, True, id="derived-" + label(fs)) for fs in DERIVED])
def test_chamber_face_walk_equals_the_descent_by_pairings(factors, rebuilt, monkeypatch):
    """On seeded integer vectors (often on walls), seeded sums of the rays of
    seeded chambers (on faces of every dimension) and seeded rational
    vectors, up to rank 7.  The rebuilt systems have a generic base, so their
    Cartan columns are not the standard ones.  No face walks the chambers or
    builds the fan, which is too large to build at rank 7: the ray ids are
    those of ``roots._rays``."""
    r = derived(*factors) if rebuilt else sys(*factors)
    refuse_the_fan(monkeypatch)
    table, rng = roots.reflection_table(r), random.Random(f"face:{label(factors)}:{rebuilt}")
    vectors = [tuple(rng.randint(-2, 2) for _ in range(r.rank)) for _ in range(20)]
    for _ in range(20):
        s = r.base_simple_set
        for _ in range(rng.randint(0, 2 * len(r.positive))):
            row = table[rng.choice(s)]
            s = tuple(row[b] for b in s)
        rays = dual_basis(tuple(r.mcoords[a] for a in s))
        vectors.append(tuple(map(sum, zip(*(linalg.vec_scale(rng.randint(0, 2), w)
                                              for w in rays)))))
    vectors += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(r.rank))
                for _ in range(20)]
    check_face_walk(r, vectors, roots._rays(r)[0].__getitem__, monkeypatch)


@pytest.mark.parametrize("factors", [(("B", 7),), (("D", 7),)], ids=label)
def test_opposite_sections_build_no_fan(factors, monkeypatch):
    """For each ray e_k of the base chamber of B_7 (645,120 chambers) and D_7:
    the minus cone is the ray -e_k, and the vanishing sets are the roots
    positive and negative on e_k, those whose k-th mcoord is > 0 and < 0,
    with no chamber walked and no fan built."""
    r = sys(*factors)
    refuse_the_fan(monkeypatch)
    rays = roots._rays(r)[0]
    for e in linalg.identity_matrix(r.rank):
        sec = fans.opposite_sections(r, (rays.index(e),))
        pairings = [linalg.vec_dot(c, e) for c in r.mcoords]
        assert sec == ((rays.index(e),), (rays.index(linalg.vec_neg(e)),),
                       tuple(i for i, x in enumerate(pairings) if x > 0),
                       tuple(i for i, x in enumerate(pairings) if x < 0)), e


def test_subsystem_morphism_a2_to_a1():
    r = sys(("A", 2))
    alpha = (1, -1, 0)
    rp, mor = fans.subsystem_morphism(r, (alpha,))
    assert set(rp.roots) == {(1, -1, 0), (-1, 1, 0)}
    assert len(mor.target.rays) == 2
    # strict ray preimages: two source rays over each target ray, two to zero
    buckets = {(-1,): 0, (1,): 0, (0,): 0}
    for v in mor.source.rays:
        img = linalg.vec_matmul(v, mor.lattice_map)
        key = tuple(1 if x > 0 else -1 if x < 0 else 0 for x in img)
        buckets[key] += 1
    assert buckets == {(1,): 2, (-1,): 2, (0,): 2}
    # three chambers over each target chamber
    over = {}
    for src, dst in mor.cone_image:
        over[dst] = over.get(dst, 0) + 1
    assert sorted(over.values()) == [3, 3]


def test_subsystem_morphism_identity():
    r = sys(("B", 2))
    rp, mor = fans.subsystem_morphism(r, r.root_lattice_basis)
    assert rp is r
    assert mor.lattice_map == linalg.identity_matrix(2)
    assert all(src == dst for src, dst in mor.cone_image)


def test_subsystem_morphism_a3_to_a2():
    r = sys(("A", 3))
    span = ((1, -1, 0, 0), (0, 1, -1, 0))
    rp, mor = fans.subsystem_morphism(r, span)
    assert len(rp.roots) == 6
    counts = {}
    for src, dst in mor.cone_image:
        counts[dst] = counts.get(dst, 0) + 1
    # fibers: four chambers of Sigma(A_3) over each chamber of Sigma(A_2)
    full = [c for c in counts if len(c) == 2]
    assert len(full) == 6
    assert all(counts[c] == 4 for c in full)


def test_subsystem_not_root_span():
    r = sys(("A", 2))
    with pytest.raises(NotRootSpan):
        fans.subsystem_morphism(r, ((1, 0, 0),))


def subsystem_bases(r, rng):
    """An empty basis, a dependent one (a, b, a + b) for two simple roots, the
    whole ambient space, the span of the roots, and two random pairs: of
    roots, and of small vectors."""
    simple = r.root_lattice_basis
    a, b = simple[0], simple[-1]
    return [(), (a, b, linalg.vec_add(a, b)), linalg.identity_matrix(r.ambient_dim), simple,
            (rng.choice(r.roots), rng.choice(r.roots)),
            tuple(tuple(rng.randrange(-1, 2) for _ in range(r.ambient_dim)) for _ in range(2))]


@pytest.mark.parametrize("factors", ORACLE_FACTORS,
                         ids=["x".join(f"{f}{k}" for f, k in fs) for fs in ORACLE_FACTORS])
def test_subsystem_roots_equal_the_rank_oracle(factors, monkeypatch):
    """The roots that ``subsystem_morphism`` finds in the span of each basis
    are those of the rank oracle, and NotRootSpan is raised iff they span
    less than the basis.  The chamber fans, too large to build for the rank-7
    systems, are stubbed: only the root set is under test."""
    r = sys(*factors)
    monkeypatch.setattr(fans, "weyl_chamber_fan", lambda r: fans.Fan(r.rank, (), ()))
    monkeypatch.setattr(fans, "_morphism_from_lattice_inclusion", lambda r, rp: None)
    for basis in subsystem_bases(r, random.Random(f"subsystem:{factors}")):
        expected = {v for v in r.roots if in_rational_span(basis, v)}
        if linalg.rank(tuple(expected)) != linalg.rank(basis):
            with pytest.raises(NotRootSpan):
                fans.subsystem_morphism(r, basis)
        else:
            assert set(fans.subsystem_morphism(r, basis)[0].roots) == expected


def test_projection_embedding_a2_into_a1_cubed():
    r = sys(("A", 2))
    rp = sys(("A", 1), ("A", 1), ("A", 1))
    # factor roots map to alpha, beta, gamma = alpha + beta
    mu = (
        (1, -1, 0), (0, 0, 0),
        (0, 1, -1), (0, 0, 0),
        (1, 0, -1), (0, 0, 0),
    )
    eq = fans.projection_embedding_equations(r, rp, mu)
    assert eq.kernel_mcoords == ((1, 1, -1),)
    assert len(eq.per_chart) == 8
    for s, eqs in eq.per_chart:
        assert len(eqs) == 1
        pos, neg = eqs[0]
        assert len(pos) + len(neg) == 3


def test_projection_embedding_identity():
    r = sys(("A", 2))
    mu = linalg.identity_matrix(3)
    eq = fans.projection_embedding_equations(r, r, mu)
    assert eq.kernel_mcoords == ()
    assert all(not eqs for _, eqs in eq.per_chart)


def test_projection_embedding_refusals():
    # mu from the plane of A_1 onto that of C_2: e_1 - e_2 goes to e_1, half
    # the long root 2 e_1; doubled, it is that root, which spans a sublattice
    c2, a1 = sys(("C", 2)), sys(("A", 1))
    with pytest.raises(NotInSpan, match=r"^mu sends \(-1, 1\) to \(-1, 0\), not a root multiple$"):
        fans.projection_embedding_equations(c2, a1, ((1, 0), (0, 0)))
    with pytest.raises(NotSurjective, match="does not map M"):
        fans.projection_embedding_equations(c2, a1, ((2, 0), (0, 0)))


def test_projection_embedding_a3_rank():
    r = sys(("A", 3))
    rp = sys(*[("A", 1)] * 6)
    pos = [r.roots[i] for i in r.positive]
    mu = []
    for root in pos:
        mu.append(root)
        mu.append((0,) * 4)
    eq = fans.projection_embedding_equations(r, rp, mu)
    assert len(eq.kernel_mcoords) == 3


def test_orbit_closure_examples():
    r = sys(("A", 2))
    f = fans.weyl_chamber_fan(r)
    # zero cone: the whole system
    orb = fans.orbit_closure(r, f, ())
    assert orb.subsystem is r
    # ray v1: orthogonal roots are ±(u2 - u3)
    v1 = f.ray_index((1, 0))
    orb = fans.orbit_closure(r, f, (v1,))
    assert set(orb.subsystem.roots) == {(0, 1, -1), (0, -1, 1)}
    assert len(orb.factors) == 1
    for s, s_prime, vanish in orb.charts:
        assert set(s) == set(s_prime) | set(vanish)
        assert len(s_prime) == 1 and len(vanish) == 1
    # a maximal cone: torus fixed point, empty system
    orb = fans.orbit_closure(r, f, f.max_cones[0])
    assert orb.subsystem.roots == ()


def test_orbit_closure_of_a_non_cone():
    r = sys(("A", 2))
    f = fans.weyl_chamber_fan(r)
    opposite = (f.ray_index((1, 0)), f.ray_index((-1, 0)))
    with pytest.raises(NotInSpan):
        fans.orbit_closure(r, f, opposite)
    with pytest.raises(NotInSpan):
        fans.opposite_sections(r, opposite)


def test_orbit_closure_a3_ray_types():
    r = sys(("A", 3))
    f = fans.weyl_chamber_fan(r)
    # the ray v_{1,2}: coordinates dual to base, v_{{1,2}} = (0,1,0)
    i = f.ray_index((0, 1, 0))
    orb = fans.orbit_closure(r, f, (i,))
    # X(A_1) x X(A_1): four roots, two Dynkin components
    assert len(orb.subsystem.roots) == 4
    assert len(orb.factors) == 2
    # a plain ray v_{1}: X(A_2) x X(A_0) -> six roots, one component
    j = f.ray_index((1, 0, 0))
    orb = fans.orbit_closure(r, f, (j,))
    assert len(orb.subsystem.roots) == 6
    assert len(orb.factors) == 1


# The systems whose orbit closures the `chambers` benchmark computes.
ORBIT_SYSTEMS = [(("B", 3),), (("A", 2), ("B", 2)), (("D", 4),), (("A", 5),)]


def orbit_charts_by_scan(r, tau):
    """The charts of ``fans.orbit_closure`` by a scan of every chamber: the
    oracle for its walk over the star of tau.  Empty when tau is no cone."""
    fan = fans.weyl_chamber_fan(r)
    rays = [fan.rays[i] for i in tau]
    orth = lambda i: all(linalg.vec_dot(r.mcoords[i], w) == 0 for w in rays)
    return tuple(sorted((s, tuple(i for i in s if orth(i)), tuple(i for i in s if not orth(i)))
                        for s, cone in chamber_map(r).items() if set(tau) <= set(cone)))


def opposite_cone_by_scan(f, tau):
    """-tau as a sorted tuple of ray indices when tau and -tau are both cones
    of ``f``, else None, by a scan of every maximal cone: the oracle for the
    ``chamber_face`` test of ``fans.opposite_sections``."""
    minus = tuple(sorted(f.ray_index(linalg.vec_neg(f.rays[i])) for i in tau))
    if all(any(set(c) <= set(cone) for cone in f.max_cones) for c in (tau, minus)):
        return minus
    return None


@pytest.mark.parametrize("factors,rebuilt",
                         [pytest.param(fs, False, id=label(fs))
                          for fs in ORBIT_SYSTEMS + [(("G", 2),)]]
                         + [pytest.param(fs, True, id="derived-" + label(fs)) for fs in DERIVED])
def test_orbit_closure_walk_equals_scan(factors, rebuilt):
    """Every cone of size <= 2, and pairs of rays that span no cone, for
    ``orbit_closure`` and ``opposite_sections`` alike.  G_2 has a Cartan entry
    of -3, and the rebuilt systems have a generic base, so the star walk
    over W_J crosses walls of non-standard Cartan columns."""
    r = derived(*factors) if rebuilt else sys(*factors)
    f = fans.weyl_chamber_fan(r)
    cones = {()} | {c for cone in f.max_cones for k in (1, 2) for c in combinations(cone, k)}
    for tau in sorted(cones):
        assert fans.orbit_closure(r, f, tau).charts == orbit_charts_by_scan(r, tau), tau
        sec = fans.opposite_sections(r, tau)
        assert (sec.plus_cone, sec.minus_cone) == (tau, opposite_cone_by_scan(f, tau)), tau
    rng = random.Random(len(f.rays))
    pairs = [tuple(sorted(rng.sample(range(len(f.rays)), 2))) for _ in range(40)]
    non_cones = [p for p in pairs if p not in cones]
    assert non_cones
    for tau in non_cones:
        assert orbit_charts_by_scan(r, tau) == () and opposite_cone_by_scan(f, tau) is None
        with pytest.raises(NotInSpan):
            fans.orbit_closure(r, f, tau)
        with pytest.raises(NotInSpan, match="is not a cone of the fan"):
            fans.opposite_sections(r, tau)


def test_orbit_closure_refuses_a_foreign_fan():
    """``orbit_closure(r, f, tau)`` reads its rays from the chamber fan of r,
    so any other f is refused rather than ignored; an equal copy is that fan."""
    r = sys(("A", 2))
    f = fans.weyl_chamber_fan(r)
    ray = (f.ray_index((1, 0)),)
    copy = make_fan(2, f.rays, f.max_cones)
    assert copy is not f
    assert fans.orbit_closure(r, copy, ray).charts == orbit_charts_by_scan(r, ray)
    for other in [make_fan(2, f.rays, f.max_cones[1:]),
                  fans.weyl_chamber_fan(sys(("B", 2))), fans.weyl_chamber_fan(sys(("G", 2)))]:
        with pytest.raises(ValueError, match="chamber fan"):
            fans.orbit_closure(r, other, ray)


def test_orbit_closure_negation_invariant():
    r = sys(("A", 3))
    f = fans.weyl_chamber_fan(r)
    for tau in [(f.ray_index((0, 1, 0)),), (f.ray_index((1, 0, 0)),)]:
        sec = fans.opposite_sections(r, tau)
        a = fans.orbit_closure(r, f, sec.plus_cone)
        b = fans.orbit_closure(r, f, sec.minus_cone)
        assert a.subsystem.roots == b.subsystem.roots


def test_a_missing_opposite_cone_is_an_internal_fault(monkeypatch):
    """-C is the chamber of the simple set -Delta, so -tau is always a cone:
    a face of -v other than -tau is a fault of the library, not of tau."""
    r = sys(("A", 2))
    tau = (fans.weyl_chamber_fan(r).ray_index((1, 0)),)
    real, calls = fans._chamber_and_face, []

    def wrong_after_the_first(r, v):
        calls.append(v)
        s, face, u = real(r, v)
        return s, face if len(calls) == 1 else (), u

    monkeypatch.setattr(fans, "_chamber_and_face", wrong_after_the_first)
    with pytest.raises(InternalCheckFailed, match="opposite"):
        fans.opposite_sections(r, tau)
    assert len(calls) == 2


def test_opposite_sections():
    r = sys(("A", 2))
    f = fans.weyl_chamber_fan(r)
    v1 = f.ray_index((1, 0))
    sec = fans.opposite_sections(r, (v1,))
    assert sec.minus_cone == (f.ray_index((-1, 0)),)
    # vanishing sets: roots positive/negative against v1
    plus = {r.roots[i] for i in sec.plus_vanishing}
    assert plus == {(1, -1, 0), (1, 0, -1)}
    minus = {r.roots[i] for i in sec.minus_vanishing}
    assert minus == {(-1, 1, 0), (-1, 0, 1)}
    zero = fans.opposite_sections(r, ())
    assert zero.plus_cone == zero.minus_cone == ()
    assert zero.plus_vanishing == zero.minus_vanishing == ()


def test_opposite_sections_vanishing_sets_by_definition():
    """The vanishing sets are the roots positive (negative) on the sum of
    the rays of tau, as sorted index tuples."""
    r = sys(("B", 3))
    f = fans.weyl_chamber_fan(r)
    for tau in [(i,) for i in range(len(f.rays))] + [c[:2] for c in f.max_cones[:6]]:
        sec = fans.opposite_sections(r, tau)
        v = tuple(sum(f.rays[i][k] for i in tau) for k in range(r.rank))
        signs = [linalg.vec_dot(r.mcoords[i], v) for i in range(len(r.roots))]
        assert sec.plus_vanishing == tuple(i for i, x in enumerate(signs) if x > 0)
        assert sec.minus_vanishing == tuple(i for i, x in enumerate(signs) if x < 0)


def test_fan_morphism_rays_land_in_image_cones():
    r = sys(("A", 3))
    rp, mor = fans.subsystem_morphism(r, ((1, -1, 0, 0), (0, 1, -1, 0)))
    for src, dst in mor.cone_image:
        for i in src:
            img = linalg.vec_matmul(mor.source.rays[i], mor.lattice_map)
            assert cone_contains(mor.target, dst, img)

