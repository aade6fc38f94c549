"""The chamber fan of type A and its cohomology, divisors, and polytope.

Proper nonempty subsets A of {1, ..., n+1} are stored as bitmasks (member k
is bit k-1).  The ray of a subset, in the N-coordinates dual to the base
simple roots, is v_A[j] = [j in A] - [j+1 in A]; the maximal cones of the
chamber fan are the maximal strictly nested chains of subsets.

Homology is presented by monomials l_A indexed by nested chains ("chain
monomials"): the unit is the empty chain, and a chain of length m spans the
codimension-m part.  The straightening relations rewrite any chain monomial
into the basis indexed by permutation descent sets; the rewriting strictly
increases a lexicographic sequence order, which forces termination.  The
normal form is a linear map, memoized per chain: each chain is rewritten,
and its rewrite checked to increase the order, once per n.

The chambers are the permutations pi of {1, ..., n+1}: the chamber of pi is
spanned by the rays of its prefix sets {pi_1, ..., pi_t}, and a wall swaps
two neighbours of pi.  As v_A is linear in the indicator of A, convexity of
a divisor's support function across a wall is one inequality on a square
of subsets B, B+i, B+j, B+i+j: no chamber is walked.  The root polytope is
reflexive, with the v_A as the vertices of its polar; both vertex sets are
enumerated by exact integer double description, not by solving subsystems.
``PrimitiveRelationRecord`` and ``PolytopeInfo`` are NamedTuples: immutable,
and equal to any tuple with the same fields.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from typing import NamedTuple

from . import linalg
from .errors import internal_check

MAX_MEMBERS = 63  # bitmask width cap; checked, never silently truncated


def _check_n(n):
    if not (1 <= n + 1 <= MAX_MEMBERS):
        raise ValueError(f"n must satisfy 1 <= n+1 <= {MAX_MEMBERS}")


def full_mask(n):
    return (1 << (n + 1)) - 1


def members(mask):
    out = []
    k = 1
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


def mask_of(member_list):
    m = 0
    for k in member_list:
        m |= 1 << (k - 1)
    return m


def checked_mask(member_list, n):
    """``mask_of`` for labels read from input: n and each label (a JSON
    integer in 1..n+1) are checked before any shift can build a huge integer."""
    _check_n(n)
    if not all(type(k) is int and 1 <= k <= n + 1 for k in member_list):
        raise ValueError(f"labels {member_list} are not all integers in 1..{n + 1}")
    return mask_of(member_list)


def _json_int(x, key):
    """``x`` if it is a JSON integer: int() would read 1.5 as 1 and true as 1."""
    if type(x) is not int:
        raise ValueError(f"{key!r} must be an integer, not {x!r}")
    return x


def subset_ray(mask, n):
    """v_A in the coordinates dual to the base simple roots."""
    return tuple(
        ((mask >> (j - 1)) & 1) - ((mask >> j) & 1) for j in range(1, n + 1)
    )


def _submasks_strictly_between(lower, upper):
    """All masks B with lower < B < upper in the subset order."""
    gap = upper & ~lower
    sub = (gap - 1) & gap
    while sub:
        yield lower | sub
        sub = (sub - 1) & gap


def _prefix_masks(labels, acc=0):
    """The masks acc + {l_1}, acc + {l_1, l_2}, ..., one per prefix of labels."""
    out = []
    for k in labels:
        acc |= 1 << (k - 1)
        out.append(acc)
    return out


def _subset_rays(n):
    """v_A for every proper nonempty subset A; mask a is at index a - 1."""
    return [subset_ray(a, n) for a in range(1, full_mask(n))]


def _subset_fan(n, mask_cones):
    """The fan on the rays v_A, with cones given as iterables of masks."""
    from .fans import make_fan
    return make_fan(n, _subset_rays(n), (tuple(a - 1 for a in cone) for cone in mask_cones))


def surjection_count(m, t):
    """Number of surjections from an m-set onto a t-set."""
    return sum((-1) ** j * comb(t, j) * (t - j) ** m for j in range(t + 1))


def cone_counts(n):
    """Number of k-dimensional cones of the chamber fan, k = 0..n.

    A k-chain of proper nonempty subsets is an ordered partition of the
    member set into k+1 blocks.
    """
    return tuple(surjection_count(n + 1, k + 1) for k in range(n + 1))


def eulerian_numbers(m):
    """Row m of the Eulerian triangle: counts of permutations by descents."""
    row = [1]
    for size in range(2, m + 1):
        prev = row
        row = [0] * size
        for k in range(size):
            row[k] = (k + 1) * (prev[k] if k < len(prev) else 0)
            row[k] += (size - k) * (prev[k - 1] if k >= 1 else 0)
    return tuple(row[:m])


def betti_numbers(n):
    """Even Betti numbers b_0, b_2, ..., b_2n via the h-vector transform.

    Internally cross-checked against the Eulerian recurrence; the total rank
    is (n+1)!.
    """
    _check_n(n)
    f = cone_counts(n)
    # h(t) = sum_k f_k (t-1)^{n-k}
    h = [0] * (n + 1)
    for k in range(n + 1):
        e = n - k
        for j in range(e + 1):
            h[j] += f[k] * comb(e, j) * (-1) ** (e - j)
    h = tuple(h)
    internal_check(h == eulerian_numbers(n + 1),
                   "h-vector disagrees with the Eulerian recurrence")
    internal_check(sum(h) == factorial(n + 1), "h-vector does not sum to (n+1)!")
    return h


# -- chain monomials and the descent basis ---------------------------------

def is_chain(masks):
    return all((a & ~b) == 0 and a != b for a, b in zip(masks, masks[1:]))


def partition_blocks(chain, n):
    """The ordered partition P_1, ..., P_{m+1} attached to a chain monomial."""
    blocks = []
    prev = 0
    for a in chain:
        blocks.append(a & ~prev)
        prev = a
    blocks.append(full_mask(n) & ~prev)
    return blocks


def sequence_key(chain, n):
    """The tie-breaking sequence: blocks read last to first, each ascending."""
    blocks = partition_blocks(chain, n)
    seq = []
    for b in reversed(blocks):
        seq.extend(members(b))
    return tuple(seq)


def descent_basis(n):
    """One chain monomial per permutation: prefixes at non-descent positions."""
    _check_n(n)
    out = []
    for perm in permutations(range(1, n + 2)):
        acc = 0
        chain = []
        for k in range(n):
            acc |= 1 << (perm[k] - 1)
            if perm[k] < perm[k + 1]:
                chain.append(acc)
        out.append(tuple(chain))
    return tuple(out)


def _straightening_terms(lower, upper, old, i_bit, j_bit):
    """The (B, sign) of the straightening relation that replaces ``old``
    between ``lower`` and ``upper``: old = sum(sign * B) over the B strictly
    between them, other than old, that contain exactly one of the witnesses;
    the sign is -1 when B contains i, +1 when it contains j."""
    for b in _submasks_strictly_between(lower, upper):
        if b != old and bool(b & i_bit) != bool(b & j_bit):
            yield b, 1 if b & j_bit else -1


def _rewrite_step(chain, t, n):
    """One straightening step at bad position t (0-based gap of the chain).

    Returns {new_chain: sign} with the convention old = sum(sign * new).
    The witnesses are forced: i = min P_{t+1} and j = max P_{t+2}; any other
    choice admits a replacement with an equal sequence key (insert the set
    P_{t+1} plus the maximum of the next block), breaking the strict
    order increase that guarantees termination.
    """
    blocks = partition_blocks(chain, n)
    bk, bk1 = blocks[t], blocks[t + 1]
    i_bit = bk & -bk
    j_bit = 1 << (bk1.bit_length() - 1)
    lower = chain[t - 1] if t >= 1 else 0
    upper = chain[t + 1] if t + 1 < len(chain) else full_mask(n)
    return {chain[:t] + (b,) + chain[t + 1:]: sign
            for b, sign in _straightening_terms(lower, upper, chain[t], i_bit, j_bit)}


def _bad_positions(chain, n):
    blocks = partition_blocks(chain, n)
    return [
        t
        for t in range(len(blocks) - 1)
        if blocks[t] and blocks[t + 1]
        and (blocks[t] & -blocks[t]) > blocks[t + 1]
    ]


@lru_cache(maxsize=None)
def _normal_forms(n):
    """{chain: NF(chain)} for one n, filled by ``_normal_form``.

    The memo keeps every chain it meets for the life of the process (16,057
    after (-K)^6); ``_normal_forms.cache_clear()`` is the point that frees it.
    """
    return {}


def _normal_form(chain, n):
    """NF(chain) as a tuple of (basis chain, coeff) pairs, memoized per n.

    NF is linear: NF(chain) = sum(sign * NF(new)) over the rewrite at the
    smallest bad position.  Each chain is rewritten, and the rewrite checked
    to increase the sequence order, once, when first met.  The walk is in
    post-order on an explicit stack, not recursive: for a full chain at
    n = 62 the stack reaches 1,027 chains, past Python's recursion limit.
    """
    memo = _normal_forms(n)
    stack = [(chain, None)]
    while stack:
        top, rewrite = stack[-1]
        if top in memo:
            stack.pop()
        elif rewrite is None:
            bad = _bad_positions(top, n)
            if not bad:
                memo[top] = ((top, 1),)
                continue
            rewrite = _rewrite_step(top, bad[0], n)
            key = sequence_key(top, n)
            internal_check(all(sequence_key(c, n) > key for c in rewrite),
                           "rewrite must increase the order")
            stack[-1] = (top, rewrite)
            stack.extend((c, None) for c in rewrite if c not in memo)
        else:
            out = {}
            for new_chain, sign in rewrite.items():
                for b, c in memo[new_chain]:
                    out[b] = out.get(b, 0) + sign * c
            memo[top] = tuple((b, c) for b, c in out.items() if c)
    return memo[chain]


def reduce_to_basis(terms, n):
    """Rewrite a combination of chain monomials into the descent basis: the
    sum of coeff * NF(chain) over the terms (``_normal_form``).  Every choice
    of bad position reaches the same NF (the tests check this against a
    random-position worklist), as the witnesses are forced (_rewrite_step).
    """
    _check_n(n)
    out = {}
    for chain, coeff in terms.items():
        if coeff:
            for b, c in _normal_form(tuple(chain), n):
                out[b] = out.get(b, 0) + coeff * c
    return {b: c for b, c in out.items() if c}


def _comparable(a, b):
    return (a & ~b) == 0 or (b & ~a) == 0


def _size_sorted(masks):
    """The masks sorted by size, then value: a multiset of subsets is a
    chain (with repeats) iff each one contains the one before it."""
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def _expand_squares(mult, n):
    """Express a multiset of pairwise comparable subsets (multiplicity <= 2)
    as a combination of squarefree chain monomials, eliminating duplicates
    through straightening relations.  Returns {chain: coeff}."""
    dup = next((a for a, b in zip(mult, mult[1:]) if a == b), None)
    if dup is None:
        return {mult: 1}
    distinct = _size_sorted(set(mult))
    pos = distinct.index(dup)
    lower = distinct[pos - 1] if pos else 0
    upper = distinct[pos + 1] if pos + 1 < len(distinct) else full_mask(n)
    i_bit = (dup & ~lower) & -(dup & ~lower)
    j_gap = upper & ~dup
    j_bit = j_gap & -j_gap
    remainder = list(mult)
    remainder.remove(dup)
    out = {}
    for b, sign in _straightening_terms(lower, upper, dup, i_bit, j_bit):
        if any(not _comparable(b, x) for x in remainder):
            continue
        new_mult = _size_sorted(remainder + [b])
        for c, s in _expand_squares(new_mult, n).items():
            v = out.get(c, 0) + sign * s
            if v:
                out[c] = v
            elif c in out:
                del out[c]
    return out


def multiply(a, b, n):
    """Product of two chain monomials, reduced to the descent basis.

    Zero when the merged factors are not a chain: most products fail on a
    pair x in a, y in b before any sort, the rest on two neighbours sorted
    by size.  Squares are straightened away before the final reduction.
    """
    _check_n(n)
    if any(x & ~y and y & ~x for x in a for y in b):
        return {}
    mult = _size_sorted(tuple(a) + tuple(b))
    if any(x & ~y for x, y in zip(mult, mult[1:])):
        return {}
    return reduce_to_basis(_expand_squares(mult, n), n)


# -- primitive collections, nef and ample divisors -------------------------

class PrimitiveRelationRecord(NamedTuple):
    pair: tuple     # (A, A') masks, incomparable, A < A'
    kind: str       # opposite | union | intersection | both
    rhs: tuple      # masks on the right-hand side of v_A + v_A' = sum rhs


@lru_cache(maxsize=None)
def _incomparable_pairs(n):
    """All pairs (A, A') of proper nonempty subsets, A < A' as masks, with
    neither contained in the other."""
    _check_n(n)
    full = full_mask(n)
    return tuple((a, b) for a in range(1, full) for b in range(a + 1, full)
                 if not _comparable(a, b))


def primitive_collections(n):
    """All primitive collections of the chamber fan with their relations.

    They are exactly the incomparable pairs of subsets; the relation type is
    decided by whether the union is everything and the intersection empty.
    """
    pairs = _incomparable_pairs(n)
    full = full_mask(n)
    out = []
    for a, b in pairs:
        inter, union = a & b, a | b
        if inter == 0 and union == full:
            kind, rhs = "opposite", ()
        elif inter == 0:
            kind, rhs = "union", (union,)
        elif union == full:
            kind, rhs = "intersection", (inter,)
        else:
            kind, rhs = "both", (inter, union)
        out.append(PrimitiveRelationRecord((a, b), kind, rhs))
    return tuple(out)


def _coeff(coeffs, mask, n):
    if mask == 0 or mask == full_mask(n):
        return 0
    return coeffs.get(mask, 0)


def _pairwise_margins(coeffs, n):
    """a_A + a_A' - a_{A∩A'} - a_{A∪A'} over every incomparable pair (with
    a of the empty and full set equal to 0), lazily."""
    a = lambda mask: _coeff(coeffs, mask, n)
    return (a(x) + a(y) - a(x & y) - a(x | y) for x, y in _incomparable_pairs(n))


def is_nef(coeffs, n):
    """Pairwise criterion: a_A + a_A' >= a_{A∩A'} + a_{A∪A'} on every
    incomparable pair."""
    return all(m >= 0 for m in _pairwise_margins(coeffs, n))


def is_ample(coeffs, n):
    """Strict version of the pairwise criterion."""
    return all(m > 0 for m in _pairwise_margins(coeffs, n))


def nef_oracle(coeffs, n):
    """Wall-convexity of the support function, one square at a time.

    The support function takes -a_A at v_A and is linear on each chamber;
    it is convex across a wall when the functional m of a chamber takes at
    least -a at the opposite ray of the neighbouring chamber.  The chamber of
    pi is spanned by the rays of the prefix sets A_t = {pi_1, ..., pi_t}, and
    swapping pi_t and pi_{t+1} replaces A_t alone.  With B = A_{t-1},
    i = pi_t and j = pi_{t+1}, the opposite ray is v_{B+j}; since v_A is
    linear in the indicator of A, v_{B+j} = v_B + v_{B+i+j} - v_{B+i}, where
    v of the empty and the full set is 0.  So <m, v_{B+j}> = a_{B+i} - a_B
    - a_{B+i+j}, and the wall test is a_{B+i} + a_{B+j} >= a_B + a_{B+i+j}:
    it depends on the square (B, i, j) alone, and every square is a wall of
    the chamber of a permutation that starts with B, then i, j.  That is
    C(n+1, 2) 2^(n-1) inequalities, one per square.
    """
    _check_n(n)
    a = lambda mask: _coeff(coeffs, mask, n)
    bits = [1 << k for k in range(n + 1)]
    return all(a(b | i) + a(b | j) >= a(b) + a(b | i | j)
               for b in range(full_mask(n))
               for i, j in combinations([k for k in bits if not b & k], 2))


# -- the reflexive polytope of the roots and its fans -----------------------

class PolytopeInfo(NamedTuple):
    n: int
    vertices: tuple        # root coordinates in the base simple basis
    lattice_points: tuple
    interior_points: tuple
    is_reflexive: bool
    polar_vertices: tuple  # vertices of the polar, in N-coordinates


def _root_mcoords(n):
    """Coordinates of the roots in the base simple basis: consecutive sums."""
    out = []
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if i == j:
                continue
            v = [0] * n
            lo, hi, s = (i, j, 1) if i < j else (j, i, -1)
            for t in range(lo, hi):
                v[t - 1] = s
            out.append(tuple(v))
    return tuple(sorted(set(out)))


def _into_hyperplane(a, p, v):
    """The primitive multiple of <a, p> v - <a, v> p, which lies on a = 0."""
    dot = linalg.vec_dot
    return linalg.vec_primitive(linalg.vec_sub(linalg.vec_scale(dot(a, p), v),
                                               linalg.vec_scale(dot(a, v), p)))


def _h_polytope_vertices(normals):
    """Vertices of {x : <x, w> >= -1 for w in normals}, by double description.

    The polyhedron is the slice t = 1 of the cone {(x, t) : <x, w> + t >= 0,
    t >= 0}, and its vertices are the extreme rays with t > 0.  The rows are
    added one at a time (Motzkin-Raiffa-Thompson-Thrall; Fukuda-Prodon).  A
    ray is a primitive integer vector with its zero set, the bitmask of the
    added rows it is tight on.  While the cone has a lineality space, a row
    that is nonzero on it turns one lineality vector p (with <a, p> > 0) into
    a ray and moves the other generators into the hyperplane along p; the
    other rows wait.  Once the cone is pointed, a row keeps the rays on its
    nonnegative side and adds one ray on its hyperplane for each adjacent
    pair it separates.  Two rays are adjacent iff no third ray is tight on
    every row tight on both; this combinatorial test stays exact at
    degenerate vertices, where more than k rows are tight.  No vertices are
    returned when the normals do not span.
    """
    from fractions import Fraction
    k = len(normals[0])
    rows = [tuple(w) + (1,) for w in normals] + [(0,) * k + (1,)]
    dot = linalg.vec_dot
    lineality = list(linalg.identity_matrix(k + 1))
    rays = []   # (ray, zero set)
    added = 0
    waiting = []
    for i, a in enumerate(rows):
        j = next((j for j, p in enumerate(lineality) if dot(a, p)), None)
        if j is None:
            waiting.append(i)
            continue
        p = lineality.pop(j)
        if dot(a, p) < 0:
            p = linalg.vec_neg(p)
        lineality = [_into_hyperplane(a, p, v) for v in lineality]
        rays = [(_into_hyperplane(a, p, v), z | 1 << i) for v, z in rays]
        rays.append((p, added))
        added |= 1 << i
    if lineality:
        return set()
    for i in waiting:
        a = rows[i]
        side = [dot(a, v) for v, _ in rays]
        new = [(v, z | 1 << i if s == 0 else z) for (v, z), s in zip(rays, side) if s >= 0]
        for x in (x for x, s in enumerate(side) if s > 0):
            for y in (y for y, s in enumerate(side) if s < 0):
                common = rays[x][1] & rays[y][1]
                if common.bit_count() >= k - 1 and not any(
                        common & z == common
                        for u, (_, z) in enumerate(rays) if u != x and u != y):
                    new.append((_into_hyperplane(a, rays[x][0], rays[y][0]), common | 1 << i))
        rays = new
    return {tuple(Fraction(c, v[-1]) for c in v[:-1]) for v, _ in rays if v[-1] > 0}


@lru_cache(maxsize=None)
def delta_polytope(n):
    """The convex hull of the roots: vertices, lattice points, reflexivity.

    The polytope is {x : <x, v_A> >= -1 for all A}.  Both vertex sets, of
    the polytope and of its polar {y : <r, y> >= -1 for all roots r}, are
    enumerated exactly from these facet descriptions by double description,
    and the polytope's vertices are checked to be the roots; reflexivity
    holds iff the polar has only lattice vertices.  Coordinates are in the
    base simple basis (polytope side) and its dual (polar side).
    """
    from fractions import Fraction
    _check_n(n)
    if n < 1:
        raise ValueError("the root polytope needs n >= 1")
    root_pts = _root_mcoords(n)
    normals = _subset_rays(n)
    verts = _h_polytope_vertices(normals)
    internal_check(verts == {tuple(map(Fraction, p)) for p in root_pts},
                   "facet description disagrees with the hull of the roots")

    # lattice points: the polytope sits inside the unit box of these coords
    lattice, interior = [], []
    def scan(prefix):
        if len(prefix) == n:
            vals = [linalg.vec_dot(prefix, w) for w in normals]
            if all(v >= -1 for v in vals):
                lattice.append(tuple(prefix))
                if all(v > -1 for v in vals):
                    interior.append(tuple(prefix))
            return
        for c in (-1, 0, 1):
            scan(prefix + [c])
    scan([])

    polar_verts = _h_polytope_vertices(root_pts)
    is_reflexive = all(all(x.denominator == 1 for x in v) for v in polar_verts)
    polar = tuple(sorted(tuple(int(x) for x in v) for v in polar_verts)) \
        if is_reflexive else tuple(sorted(polar_verts))
    return PolytopeInfo(
        n=n,
        vertices=tuple(sorted(root_pts)),
        lattice_points=tuple(sorted(lattice)),
        interior_points=tuple(sorted(interior)),
        is_reflexive=is_reflexive,
        polar_vertices=polar,
    )


def subdivide_cone(b1, b2, n):
    """Chains subdividing the cone of all subsets between b1 and b2, one per
    permutation of the gap members."""
    return tuple((b1, *_prefix_masks(perm, b1)) for perm in permutations(members(b2 & ~b1)))


def _singleton_cosingletons(n):
    """The pairs ({i}, complement of {j}), i != j, that bound the cones of
    the root-polytope fan."""
    full = full_mask(n)
    return [(1 << (i - 1), full & ~(1 << (j - 1)))
            for i in range(1, n + 2) for j in range(1, n + 2) if i != j]


@lru_cache(maxsize=None)
def sigma_delta_fan(n):
    """The normal fan of the root polytope: cones of all subsets nested
    between a singleton and a co-singleton."""
    _check_n(n)
    return _subset_fan(n, ({b1, b2, *_submasks_strictly_between(b1, b2)}
                           for b1, b2 in _singleton_cosingletons(n)))


@lru_cache(maxsize=None)
def crepant_subdivision(n):
    """Subdivide each cone of the root-polytope fan along permutation chains;
    the result is the chamber fan again."""
    _check_n(n)
    return _subset_fan(n, (chain for b1, b2 in _singleton_cosingletons(n)
                           for chain in subdivide_cone(b1, b2, n)))


# -- JSON -------------------------------------------------------------------

def cohom_class_to_json(terms, n):
    items = sorted(terms.items())
    return {
        "n": n,
        "terms": [
            {"chain": [list(members(a)) for a in chain], "coeff": coeff}
            for chain, coeff in items
        ],
    }


def cohom_class_from_json(obj):
    n = _json_int(obj["n"], "n")
    _check_n(n)
    terms = {}
    for entry in obj["terms"]:
        chain = tuple(checked_mask(part, n) for part in entry["chain"])
        if not all(0 < a < full_mask(n) for a in chain) or not is_chain(chain):
            raise ValueError(f"not a nested chain of proper subsets: {entry['chain']}")
        terms[chain] = terms.get(chain, 0) + _json_int(entry["coeff"], "coeff")
    return {c: v for c, v in terms.items() if v}, n


def divisor_from_json(obj, n):
    out = {}
    for entry in obj["coeffs"]:
        a = checked_mask(entry["subset"], n)
        if not 0 < a < full_mask(n):
            raise ValueError(f"subset out of range: {entry['subset']}")
        out[a] = out.get(a, 0) + _json_int(entry["a"], "a")
    return out
