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
and its rewrite checked to increase the order, once per n.  A product of
two chain monomials is zero unless the factors form a chain; a squarefree
product is its own chain monomial, and a square is first expanded over the
subsets that survive next to the other copy.

The chambers are the permutations pi of {1, ..., n+1}: the chamber of pi is
spanned by the rays of its prefix sets {pi_1, ..., pi_t}, and a wall swaps
two neighbours of pi.  As v_A is linear in the indicator of A, convexity of
a divisor's support function across a wall is one inequality on a square
of subsets B, B+i, B+j, B+i+j: no chamber is walked.  The Betti numbers
are the h-vector, the Eulerian numbers.  The root polytope is reflexive,
with the v_A as the vertices of its polar; one exact integer double
description (``linalg.extreme_rays``) of the polar, on the roots, gives
those vertices, the polytope's facets and the check that the roots are its
vertices.
``PrimitiveRelationRecord`` and ``PolytopeInfo`` are NamedTuples: immutable,
and equal to any tuple with the same fields.
"""

from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial
from operator import lt
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
    while mask:
        out.append((mask & -mask).bit_length())
        mask &= mask - 1
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


def _submasks(gap):
    """Every submask of gap, from gap itself down to 0."""
    sub = gap
    while sub:
        yield sub
        sub = (sub - 1) & gap
    yield 0


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
    """The fan on the rays v_A, with cones given as iterables of distinct
    masks, built in ray order as ``fans.weyl_chamber_fan`` is.  The v_A are
    distinct and primitive (entries in {-1, 0, 1}, and v_A fixes A), so the
    one check is that the sorted cones strictly increase.  At n = 0 there is
    no proper nonempty subset, and the fan is the zero cone."""
    from .fans import Fan
    rays = _subset_rays(n)
    order = sorted(range(len(rays)), key=rays.__getitem__)
    ray_id = [0] * full_mask(n)
    for i, k in enumerate(order):
        ray_id[k + 1] = i
    cones = sorted([tuple(sorted(map(ray_id.__getitem__, c))) for c in mask_cones]) if n else [()]
    internal_check(all(map(lt, cones, cones[1:])), "a max cone of the subset fan is listed twice")
    return Fan(n, tuple(map(rays.__getitem__, order)), tuple(cones))


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
    """Even Betti numbers b_0, b_2, ..., b_2n: the h-vector of the chamber
    fan, which counts the chambers (permutations) by descents, so it is the
    Eulerian row n+1 (``eulerian_numbers``); the total rank is (n+1)!.
    """
    _check_n(n)
    h = eulerian_numbers(n + 1)
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


def _gap_key(lower, mid, upper):
    """members(upper & ~mid) + members(mid & ~lower): the part of the
    sequence key (the blocks read last to first, each ascending) that
    replacing ``mid`` between ``lower`` and ``upper`` can change.  Only the
    two blocks around ``mid`` change, and their union stays upper & ~lower,
    so one chain's key exceeds the other's iff this part does."""
    return members(upper & ~mid) + members(mid & ~lower)


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
    between ``lower`` and ``upper``: old = sum(sign * B) over the B between
    them, other than old, that contain exactly one of the witnesses (so not
    lower or upper); the sign is -1 when B contains i, +1 when it contains j."""
    for s in _submasks(upper & ~lower):
        b = lower | s
        if b != old and bool(b & i_bit) != bool(b & j_bit):
            yield b, 1 if b & j_bit else -1


def _rewrite_step(chain, blocks, t):
    """One straightening step at bad position t (0-based gap of the chain),
    with ``blocks`` the chain's ``partition_blocks``.

    Returns {new_chain: sign} with the convention old = sum(sign * new),
    checked to increase the sequence order (``_gap_key``).  The witnesses
    are forced: i = min P_{t+1} and j = max P_{t+2}; any other choice admits
    a replacement with an equal sequence key (insert the set P_{t+1} plus the
    maximum of the next block), breaking the strict order increase that
    guarantees termination.
    """
    bk, bk1, old = blocks[t], blocks[t + 1], chain[t]
    lower = chain[t - 1] if t >= 1 else 0
    upper = lower | bk | bk1
    rewrite = {chain[:t] + (b,) + chain[t + 1:]: sign for b, sign in _straightening_terms(
        lower, upper, old, bk & -bk, 1 << (bk1.bit_length() - 1))}
    key = _gap_key(lower, old, upper)
    internal_check(all(_gap_key(lower, c[t], upper) > key for c in rewrite),
                   "rewrite must increase the order")
    return rewrite


def _bad_positions(blocks):
    """The gaps t with min P_{t+1} > max P_{t+2}, from the ``partition_blocks``."""
    return [t for t in range(len(blocks) - 1)
            if blocks[t] and blocks[t + 1] and (blocks[t] & -blocks[t]) > blocks[t + 1]]


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
    to increase the sequence order (``_rewrite_step``), once, when first
    met.  The walk is in post-order on an explicit stack, not recursive: for
    a full chain at n = 62 the stack reaches 1,027 chains, past Python's
    recursion limit.
    """
    memo = _normal_forms(n)
    stack = [(chain, None)]
    while stack:
        top, rewrite = stack[-1]
        if top in memo:
            stack.pop()
        elif rewrite is None:
            blocks = partition_blocks(top, n)
            bad = _bad_positions(blocks)
            if not bad:
                memo[top] = ((top, 1),)
                continue
            rewrite = _rewrite_step(top, blocks, bad[0])
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


def _expand_squares(mult, n):
    """Express a size-sorted multiset of pairwise comparable subsets, each
    at most twice, as a combination of squarefree chains: {chain: coeff}.

    The first repeat A, with neighbours L < A < U (the empty and the full set
    at the ends), is straightened with the witnesses i = min(A - L) and
    j = min(U - A) (``_straightening_terms``).  Only the terms B comparable
    with the other copy of A survive, each with sign -1 and new to the chain:
    B = L+i+s for s a proper subset of A-L-i, and B = A+s for s a nonempty
    subset of U-A-j.  So each recursion removes one square.
    """
    dup = next((a for a, b in zip(mult, mult[1:]) if a == b), None)
    if dup is None:
        return {mult: 1}
    pos = mult.index(dup)
    head, tail = mult[:pos], mult[pos + 2:]
    low = dup & ~(head[-1] if head else 0)
    high = (tail[0] if tail else full_mask(n)) & ~dup
    low, high = low & (low - 1), high & (high - 1)   # A-L-i and U-A-j
    terms = [head + ((dup ^ low) | s, dup) + tail for s in _submasks(low) if s != low]
    terms += [head + (dup, dup | s) + tail for s in _submasks(high) if s]
    out = {}
    for new_mult in terms:
        for c, v in _expand_squares(new_mult, n).items():
            out[c] = out.get(c, 0) - v
    return {c: v for c, v in out.items() if v}


def multiply(a, b, n):
    """Product of two chain monomials, reduced to the descent basis.

    Zero when the merged factors are not a chain: most products fail on a
    pair x in a, y in b, the rest on two neighbours sorted by size (sizes
    strictly increase along a chain).  A squarefree product is a chain and
    the answer is its normal form; squares are first straightened away.
    """
    _check_n(n)
    for x in a:
        for y in b:
            if x & ~y and y & ~x:
                return {}
    mult = tuple(sorted((*a, *b), key=int.bit_count))
    if any(x & ~y for x, y in zip(mult, mult[1:])):
        return {}
    if len(set(mult)) == len(mult):
        return dict(_normal_form(mult, n))
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
                 if a & ~b and b & ~a)


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


def _coeff_list(coeffs, n):
    """a_A for every mask A, once n is checked (2^(n+1) entries): a of the
    empty and the full set is 0, and the keys outside 1..full-1 are ignored."""
    _check_n(n)
    return [0, *(coeffs.get(m, 0) for m in range(1, full_mask(n))), 0]


def _pairwise_margins(coeffs, n):
    """a_A + a_A' - a_{A∩A'} - a_{A∪A'} over every incomparable pair, lazily."""
    a = _coeff_list(coeffs, n)
    return (a[x] + a[y] - a[x & y] - a[x | y] for x, y in _incomparable_pairs(n))


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
    a = _coeff_list(coeffs, n)
    bits = [1 << k for k in range(n + 1)]
    return all(a[b | i] + a[b | j] >= a[b] + a[b | i | j]
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
    """Coordinates of the roots in the base simple basis: u_i - u_j, i < j,
    is the sum of the base simple roots u_t - u_{t+1} for i <= t < j."""
    pos = [tuple(int(i <= t < j) for t in range(n)) for i in range(n) for j in range(i + 1, n + 1)]
    return tuple(sorted(pos + [linalg.vec_neg(v) for v in pos]))


def delta_polytope(n):
    """The convex hull of the roots: vertices, lattice points, reflexivity.

    One double description (``linalg.extreme_rays``) gives the polar
    {y : <r, y> >= -1 for all roots r} as the cone of the (y, t) with
    <r, y> + t >= 0: as -r is a root with r, each ray has t > 0 and is the
    vertex y / t, a lattice point iff t = 1 (reflexivity).  Each ray is an
    integer facet row <(p, 1), (y, t)> >= 0 of the polytope; the rows cut
    the lattice and then the interior points out of the box {-1, 0, 1}^n.
    A root is a vertex iff the set of rays tight on it lies in no other
    root's set, and this is checked.  Coordinates are in the base simple
    basis (polytope side) and its dual (polar side).
    """
    from fractions import Fraction
    _check_n(n)
    if n < 1:
        raise ValueError("the root polytope needs n >= 1")
    root_pts = _root_mcoords(n)
    rays = linalg.extreme_rays([p + (1,) for p in root_pts])
    tight = [sum(1 << k for k, (_, z) in enumerate(rays) if z >> i & 1)
             for i in range(len(root_pts))]
    internal_check(not any(a & b == a for i, a in enumerate(tight)
                           for j, b in enumerate(tight) if i != j),
                   "a root is not a vertex of the hull of the roots")

    lattice = [p for p in product((-1, 0, 1), repeat=n)
               if all(linalg.vec_dot(p, v[:-1]) + v[-1] >= 0 for v, _ in rays)]
    interior = [p for p in lattice
                if all(linalg.vec_dot(p, v[:-1]) + v[-1] > 0 for v, _ in rays)]
    is_reflexive = all(v[-1] == 1 for v, _ in rays)
    polar = sorted(v[:-1] if is_reflexive else tuple(Fraction(c, v[-1]) for c in v[:-1])
                   for v, _ in rays)
    return PolytopeInfo(
        n=n,
        vertices=root_pts,
        lattice_points=tuple(lattice),
        interior_points=tuple(interior),
        is_reflexive=is_reflexive,
        polar_vertices=tuple(polar),
    )


def subdivide_cone(b1, b2):
    """Chains subdividing the cone of all subsets between b1 and b2, one per
    permutation of the gap members."""
    return tuple((b1, *_prefix_masks(perm, b1)) for perm in permutations(members(b2 & ~b1)))


def _singleton_cosingletons(n):
    """The pairs ({i}, complement of {j}), i != j, that bound the cones of
    the root-polytope fan."""
    full = full_mask(n)
    return [(1 << (i - 1), full & ~(1 << (j - 1)))
            for i in range(1, n + 2) for j in range(1, n + 2) if i != j]


def sigma_delta_fan(n):
    """The normal fan of the root polytope: cones of all subsets nested
    between a singleton and a co-singleton."""
    _check_n(n)
    return _subset_fan(n, ({b1 | s for s in _submasks(b2 & ~b1)}
                           for b1, b2 in _singleton_cosingletons(n)))


def crepant_subdivision(n):
    """Subdivide each cone of the root-polytope fan along permutation chains;
    the result is the chamber fan again."""
    _check_n(n)
    return _subset_fan(n, (chain for b1, b2 in _singleton_cosingletons(n)
                           for chain in subdivide_cone(b1, b2)))


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
