import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from test_fans import make_fan
from test_linalg import bareiss_det, int_inverse
from weylfan import fans, linalg, roots, typea
from weylfan.errors import InternalCheckFailed


def d_statistic(chain, n):
    """Number of adjacent block pairs with min P_k > max P_{k+1}."""
    blocks = [typea.members(b) for b in typea.partition_blocks(chain, n)]
    return sum(1 for p, q in zip(blocks, blocks[1:]) if p and q and min(p) > max(q))


def sequence_key(chain, n):
    """The tie-breaking sequence: blocks read last to first, each ascending.
    The oracle for the order check of ``typea._normal_form``, which compares
    only the two blocks that a rewrite changes (``typea._gap_key``)."""
    seq = []
    for b in reversed(typea.partition_blocks(chain, n)):
        seq.extend(typea.members(b))
    return tuple(seq)


def eulerian_by_enumeration(m):
    """Independent oracle: count permutations of {1..m} by descent number."""
    counts = [0] * m
    for perm in permutations(range(1, m + 1)):
        d = sum(1 for k in range(m - 1) if perm[k] > perm[k + 1])
        counts[d] += 1
    return tuple(c for c in counts if True)[: m]


def all_chains(n):
    """Every nested chain of proper nonempty subsets, including the empty one."""
    full = typea.full_mask(n)
    out = [()]

    def extend(chain, last):
        out.append(chain)
        for b in range(1, full):
            if b != last and (last & ~b) == 0:
                extend(chain + (b,), b)

    for b in range(1, full):
        extend((b,), b)
    return sorted(set(out), key=lambda c: (len(c), c))


@lru_cache(maxsize=None)
def chain_fan(n):
    """The chamber fan of type A from the nested-subset description: the cone
    of a permutation is spanned by its prefix sets.  It walks all (n+1)!
    permutations; the oracle for ``fans.weyl_chamber_fan`` of A_n."""
    return typea._subset_fan(n, (typea._prefix_masks(perm[:-1])
                                 for perm in permutations(range(1, n + 2))))


@lru_cache(maxsize=None)
def ray_masks(n):
    """Map ray index of chain_fan(n) -> subset mask, and back."""
    by_vec = {typea.subset_ray(a, n): a for a in range(1, typea.full_mask(n))}
    to_mask = tuple(by_vec[v] for v in chain_fan(n).rays)
    return to_mask, {a: i for i, a in enumerate(to_mask)}


def test_chain_fan_counts():
    for n, nrays, ncones in [(1, 2, 2), (2, 6, 6), (3, 14, 24)]:
        f = chain_fan(n)
        assert len(f.rays) == nrays
        assert len(f.max_cones) == ncones


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_fan_equals_weyl_fan(n):
    r = roots.build_root_system(roots.RootSystemSpec.parse([("A", n)]))
    assert chain_fan(n) == fans.weyl_chamber_fan(r)


@pytest.mark.parametrize("n,expected", [
    (1, (1, 1)),
    (2, (1, 4, 1)),
    (3, (1, 11, 11, 1)),
])
def test_betti_examples(n, expected):
    assert typea.betti_numbers(n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_betti_against_enumeration(n):
    b = typea.betti_numbers(n)
    assert b == eulerian_by_enumeration(n + 1)
    assert sum(b) == factorial(n + 1)
    assert b == typea.eulerian_numbers(n + 1)


def surjection_count(m, t):
    """Number of surjections from an m-set onto a t-set."""
    return sum((-1) ** j * comb(t, j) * (t - j) ** m for j in range(t + 1))


def cone_counts(n):
    """Closed form: the k-dimensional cones of the chamber fan of A_n, k =
    0..n, are the k-chains of proper nonempty subsets, that is, the ordered
    partitions of the n+1 members into k+1 blocks."""
    return tuple(surjection_count(n + 1, k + 1) for k in range(n + 1))


def face_counts(f):
    """Number of k-dimensional cones of a simplicial fan, k = 0..rank: the
    distinct sets of rays of the faces of its maximal cones, by size."""
    faces = {sub for cone in f.max_cones for k in range(len(cone) + 1)
             for sub in combinations(cone, k)}
    counts = [0] * (f.lattice_rank + 1)
    for face in faces:
        counts[len(face)] += 1
    return tuple(counts)


def h_vector(f):
    """h_0..h_n from the face counts f_0..f_n of a complete simplicial fan:
    sum_j h_j t^j = sum_k f_k (t - 1)^(n - k)."""
    n = len(f) - 1
    h = [0] * (n + 1)
    for k, fk in enumerate(f):
        e = n - k
        for j in range(e + 1):
            h[j] += fk * comb(e, j) * (-1) ** (e - j)
    return tuple(h)


def test_cone_counts_against_fan():
    for n in (1, 2, 3):
        assert face_counts(chain_fan(n)) == cone_counts(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_betti_is_the_h_vector_of_the_built_fan(n):
    r = roots.build_root_system(roots.RootSystemSpec.parse([("A", n)]))
    assert typea.betti_numbers(n) == h_vector(face_counts(fans.weyl_chamber_fan(r)))


def test_betti_is_the_h_vector_of_the_surjection_counts():
    """Up to the label cap n = 62, against the closed form of the face counts."""
    for n in range(typea.MAX_MEMBERS):
        assert typea.betti_numbers(n) == h_vector(cone_counts(n))


def test_descent_basis_small():
    assert set(typea.descent_basis(1)) == {(), (typea.mask_of([1]),)}
    expect = {
        (),
        (typea.mask_of([1]),),
        (typea.mask_of([2]),),
        (typea.mask_of([1, 2]),),
        (typea.mask_of([1, 3]),),
        (typea.mask_of([1]), typea.mask_of([1, 2])),
    }
    assert set(typea.descent_basis(2)) == expect
    for n in (1, 2, 3, 4):
        basis = typea.descent_basis(n)
        assert len(basis) == factorial(n + 1)
        assert len(set(basis)) == len(basis)
        assert all(d_statistic(c, n) == 0 for c in basis)


def test_d_statistic_examples():
    assert d_statistic((), 2) == 0
    assert d_statistic((typea.mask_of([2]),), 1) == 1
    assert d_statistic((typea.mask_of([1, 3]),), 2) == 0
    # the straightening rewrites exactly at the d_statistic bad positions
    n = 3
    proper = sorted(range(1, typea.full_mask(n)), key=lambda m: (bin(m).count("1"), m))
    for size in range(n + 1):
        for chain in combinations(proper, size):
            if typea.is_chain(chain):
                bad = typea._bad_positions(typea.partition_blocks(chain, n))
                assert len(bad) == d_statistic(chain, n)


def test_reduce_examples():
    # n=1: l_{2} -> l_{1}
    out = typea.reduce_to_basis({(typea.mask_of([2]),): 1}, 1)
    assert out == {(typea.mask_of([1]),): 1}
    # n=2: l_{3} -> l_{2} + l_{12} - l_{13}
    out = typea.reduce_to_basis({(typea.mask_of([3]),): 1}, 2)
    assert out == {
        (typea.mask_of([2]),): 1,
        (typea.mask_of([1, 2]),): 1,
        (typea.mask_of([1, 3]),): -1,
    }
    # descent monomials are fixed points
    for c in typea.descent_basis(2):
        assert typea.reduce_to_basis({c: 1}, 2) == {c: 1}


def random_position_reduce(terms, n, rng):
    """Confluence oracle: a worklist that rewrites each chain at a random bad
    position (the witnesses i, j are forced at every position) and checks
    that every rewrite increases the sequence order; no memo."""
    out, work = {}, {}
    for chain, coeff in terms.items():
        work[chain] = work.get(chain, 0) + coeff
    while work:
        chain, coeff = work.popitem()
        if coeff == 0:
            continue
        blocks = typea.partition_blocks(chain, n)
        bad = typea._bad_positions(blocks)
        if not bad:
            out[chain] = out.get(chain, 0) + coeff
            continue
        key = sequence_key(chain, n)
        for new_chain, sign in typea._rewrite_step(chain, blocks, rng.choice(bad)).items():
            assert sequence_key(new_chain, n) > key
            work[new_chain] = work.get(new_chain, 0) + sign * coeff
    return {c: v for c, v in out.items() if v}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduce_lands_in_basis_and_confluence(n):
    basis = set(typea.descent_basis(n))
    rng = random.Random(100 + n)
    for chain in all_chains(n):
        canonical = typea.reduce_to_basis({chain: 1}, n)
        assert set(canonical) <= basis
        for _ in range(3):
            randomized = random_position_reduce({chain: 1}, n, rng)
            assert randomized == canonical


def comparable(a, b):
    return (a & ~b) == 0 or (b & ~a) == 0


def size_sorted(masks):
    """Sorted by size, then value: a multiset of subsets is a chain (with
    repeats) iff each one contains the one before it."""
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def expand_squares_by_filter(mult, n):
    """Oracle for ``typea._expand_squares``: straighten the first repeat over
    every B strictly between its distinct neighbours, then drop each B that
    is not comparable with the rest of the multiset."""
    dup = next((a for a, b in zip(mult, mult[1:]) if a == b), None)
    if dup is None:
        return {mult: 1}
    distinct = size_sorted(set(mult))
    pos = distinct.index(dup)
    lower = distinct[pos - 1] if pos else 0
    upper = distinct[pos + 1] if pos + 1 < len(distinct) else typea.full_mask(n)
    i_bit = (dup & ~lower) & -(dup & ~lower)
    j_bit = (upper & ~dup) & -(upper & ~dup)
    remainder = list(mult)
    remainder.remove(dup)
    out = {}
    for b, sign in typea._straightening_terms(lower, upper, dup, i_bit, j_bit):
        if all(comparable(b, x) for x in remainder):
            for c, s in expand_squares_by_filter(size_sorted(remainder + [b]), n).items():
                out[c] = out.get(c, 0) + sign * s
    return {c: v for c, v in out.items() if v}


def boundary_divisors(n):
    return [(d,) for d in range(1, typea.full_mask(n))]


@pytest.mark.parametrize("n,factors", [
    *(pytest.param(n, "basis", id=str(n)) for n in (1, 2, 3)),
    *(pytest.param(n, "divisors", id=f"divisors-{n}") for n in (1, 2, 3, 4, 5)),
])
def test_products_of_basis_monomials_match_the_oracle(n, factors):
    """multiply against the random-position worklist on every product of a
    descent monomial with a second factor, with chain-ness tested pairwise,
    and the expansion of every square against the filter.  The second
    factor is a descent monomial (two squares and more for n >= 2) or a
    boundary divisor, the traffic of (-K)^n: there each of the
    n (n+1)! / 2 squares is one subset of a descent chain taken twice."""
    rng = random.Random(200 + n)
    basis = typea.descent_basis(n)
    squares = 0
    for a, b in product(basis, basis if factors == "basis" else boundary_divisors(n)):
        mult = size_sorted(a + b)
        if all(comparable(x, y) for x, y in combinations(set(mult), 2)):
            expanded = expand_squares_by_filter(mult, n)
            squares += len(set(mult)) < len(mult)
            assert typea._expand_squares(mult, n) == expanded
            expected = random_position_reduce(expanded, n, rng)
        else:
            expected = {}
        assert typea.multiply(a, b, n) == expected
    if factors == "divisors":
        assert squares == n * factorial(n + 1) // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_anticanonical_top_power(n):
    """(-K)^n = C(2n, n), the normalized volume of the root polytope, with
    -K the sum of all boundary divisors, by repeated products."""
    anti = [((a,), 1) for a in range(1, typea.full_mask(n))]
    power = {(): 1}
    for _ in range(n):
        prod = {}
        for c1, v1 in power.items():
            for c2, v2 in anti:
                for c3, v3 in typea.multiply(c1, c2, n).items():
                    prod[c3] = prod.get(c3, 0) + v1 * v2 * v3
        power = {c: v for c, v in prod.items() if v}
    top = tuple(typea.mask_of(range(1, t + 1)) for t in range(1, n + 1))
    assert power == {top: comb(2 * n, n)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gap_key_orders_chains_as_the_sequence_key(n):
    """Replacing the t-th set of a chain by any set B strictly between its
    neighbours: the gap keys compare as the full sequence keys, on every
    chain, every position and every such B, so also on every rewrite that
    reducing all chains meets (each of which increases the key)."""
    rewrites = 0
    for chain in all_chains(n):
        blocks = typea.partition_blocks(chain, n)
        for t, old in enumerate(chain):
            lower = chain[t - 1] if t else 0
            upper = chain[t + 1] if t + 1 < len(chain) else typea.full_mask(n)
            key, gap = sequence_key(chain, n), typea._gap_key(lower, old, upper)
            for s in typea._submasks(upper & ~lower):
                b = lower | s
                if b in (lower, upper, old):
                    continue
                new = chain[:t] + (b,) + chain[t + 1:]
                assert (typea._gap_key(lower, b, upper) > gap) == (sequence_key(new, n) > key)
            if t in typea._bad_positions(blocks):
                for new in typea._rewrite_step(chain, blocks, t):
                    assert typea._gap_key(lower, new[t], upper) > gap
                    assert sequence_key(new, n) > key
                    rewrites += 1
    assert rewrites > 0


def test_reduce_checks_that_each_rewrite_increases_the_order(monkeypatch):
    """With a sequence order that a rewrite does not increase, the memoized
    normal form must refuse, not return."""
    n = 3
    chain = (typea.mask_of([4]),)
    assert typea._bad_positions(typea.partition_blocks(chain, n))
    monkeypatch.setattr(typea, "_gap_key", lambda lower, mid, upper: ())
    typea._normal_forms.cache_clear()
    try:
        with pytest.raises(InternalCheckFailed):
            typea.reduce_to_basis({chain: 1}, n)
    finally:
        typea._normal_forms.cache_clear()


class FractionSpan:
    """Row space over Q with incremental insertion (echelon form)."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = {}  # pivot column -> reduced row

    def _reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for c, row in self.rows.items():
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        """Insert; True if the vector was new (increases the rank)."""
        v = self._reduce(vec)
        piv = next((c for c, x in enumerate(v) if x), None)
        if piv is None:
            return False
        f = v[piv]
        v = [x / f for x in v]
        for c, row in self.rows.items():
            if row[piv]:
                g = row[piv]
                self.rows[c] = [a - g * b for a, b in zip(row, v)]
        self.rows[piv] = v
        return True

    def contains(self, vec):
        return next((x for x in self._reduce(vec) if x), None) is None

    @property
    def rank(self):
        return len(self.rows)


def relation_generators(n):
    """All straightening generators as vectors over the chain monomials."""
    chains = all_chains(n)
    index = {c: i for i, c in enumerate(chains)}
    full = typea.full_mask(n)
    gens = []
    for chain in chains:
        m = len(chain)
        for g in range(m + 1):
            lower = chain[g - 1] if g >= 1 else 0
            upper = chain[g] if g < m else full
            gapset = typea.members(upper & ~lower)
            for ai in range(len(gapset)):
                for aj in range(ai + 1, len(gapset)):
                    i_bit = 1 << (gapset[ai] - 1)
                    j_bit = 1 << (gapset[aj] - 1)
                    vec = [0] * len(chains)
                    touched = False
                    for b in (lower | s for s in typea._submasks(upper & ~lower)):
                        has_i, has_j = bool(b & i_bit), bool(b & j_bit)
                        if has_i == has_j:
                            continue
                        new_chain = chain[:g] + (b,) + chain[g:]
                        vec[index[new_chain]] += 1 if has_i else -1
                        touched = True
                    if touched and any(vec):
                        gens.append(vec)
    return chains, index, gens


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_identity(n):
    chains, index, gens = relation_generators(n)
    span = FractionSpan(len(chains))
    for g in gens:
        span.add(g)
    assert len(chains) - span.rank == factorial(n + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_form_soundness(n):
    chains, index, gens = relation_generators(n)
    span = FractionSpan(len(chains))
    for g in gens:
        span.add(g)
    for chain in chains:
        reduced = typea.reduce_to_basis({chain: 1}, n)
        vec = [0] * len(chains)
        vec[index[chain]] -= 1
        for c, coeff in reduced.items():
            vec[index[c]] += coeff
        assert span.contains(vec), f"reduction of {chain} left the relation span"


def test_multiply_examples():
    n = 2
    a1, a2, a12, a13 = (typea.mask_of(x) for x in ([1], [2], [1, 2], [1, 3]))
    assert typea.multiply((a1,), (a2,), n) == {}
    assert typea.multiply((a1,), (a12,), n) == {(a1, a12): 1}
    m = (a1, a12)
    assert typea.multiply((), m, n) == {m: 1}
    # commutativity on a sample
    assert typea.multiply((a1,), (a13,), n) == typea.multiply((a13,), (a1,), n)


def test_multiply_squares_vanish_top_degree():
    # on the surface (n=2) any product of three divisor classes is zero
    n = 2
    a1 = typea.mask_of([1])
    sq = typea.multiply((a1,), (a1,), n)
    for chain, coeff in sq.items():
        assert len(chain) == 2
    cube = {}
    for chain, coeff in sq.items():
        for c2, s2 in typea.multiply(chain, (a1,), n).items():
            cube[c2] = cube.get(c2, 0) + coeff * s2
    assert all(v == 0 for v in cube.values())


def test_multiply_degree_additive():
    n = 3
    rng = random.Random(7)
    basis = typea.descent_basis(n)
    for _ in range(25):
        a = rng.choice(basis)
        b = rng.choice(basis)
        prod = typea.multiply(a, b, n)
        for chain in prod:
            assert len(chain) == len(a) + len(b)


def test_primitive_collections_examples():
    recs = {r.pair: r for r in typea.primitive_collections(1)}
    a, b = typea.mask_of([1]), typea.mask_of([2])
    assert recs[(a, b)].kind == "opposite" and recs[(a, b)].rhs == ()

    recs = {r.pair: r for r in typea.primitive_collections(2)}
    r = recs[(typea.mask_of([1]), typea.mask_of([2]))]
    assert r.kind == "union" and r.rhs == (typea.mask_of([1, 2]),)

    recs = {r.pair: r for r in typea.primitive_collections(3)}
    pair = tuple(sorted((typea.mask_of([1, 2]), typea.mask_of([2, 3]))))
    r = recs[pair]
    assert r.kind == "both"
    assert set(r.rhs) == {typea.mask_of([2]), typea.mask_of([1, 2, 3])}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_primitive_collections_against_fan(n):
    f = chain_fan(n)
    to_mask, to_ray = ray_masks(n)
    cone_sets = [set(c) for c in f.max_cones]
    pairs = {r.pair for r in typea.primitive_collections(n)}
    full = typea.full_mask(n)
    for a in range(1, full):
        for b in range(a + 1, full):
            ra, rb = to_ray[a], to_ray[b]
            spans_cone = any({ra, rb} <= s for s in cone_sets)
            assert spans_cone != ((a, b) in pairs)
    # numeric primitive relations: v_A + v_A' = sum of rhs rays
    for rec in typea.primitive_collections(n):
        a, b = rec.pair
        lhs = linalg.vec_add(typea.subset_ray(a, n), typea.subset_ray(b, n))
        rhs = (0,) * n
        for m in rec.rhs:
            rhs = linalg.vec_add(rhs, typea.subset_ray(m, n))
        assert lhs == rhs


def anticanonical(n):
    return {a: 1 for a in range(1, typea.full_mask(n))}


def test_nef_ample_examples():
    assert typea.is_ample(anticanonical(1), 1)
    assert typea.is_ample(anticanonical(2), 2)
    assert typea.is_nef(anticanonical(3), 3) and not typea.is_ample(anticanonical(3), 3)
    assert typea.is_nef(anticanonical(4), 4) and not typea.is_ample(anticanonical(4), 4)
    assert typea.is_nef({}, 2) and not typea.is_ample({}, 2)
    bad = {typea.mask_of([1]): -1}
    assert not typea.is_nef(bad, 2)
    assert not typea.nef_oracle(bad, 2)


def test_divisor_checks_ignore_keys_outside_the_proper_subsets():
    """a of the empty and the full set is 0, whatever coeffs holds there, and
    keys above full or negative are ignored (a negative key must not wrap
    round a list index): adding any of them changes no answer."""
    n = 2
    full = typea.full_mask(n)
    checks = (typea.is_nef, typea.is_ample, typea.nef_oracle)
    for coeffs in (anticanonical(n), {typea.mask_of([1]): -1}, {}):
        want = [check(coeffs, n) for check in checks]
        for extra in ({0: 9}, {0: -9}, {full: 9}, {full: -9}, {full + 1: -9},
                      {2 * full: 9}, {-1: -9}, {-full: 9}, {0: 5, full: 5, -1: 5}):
            assert [check({**coeffs, **extra}, n) for check in checks] == want, extra


def test_divisor_checks_refuse_n_out_of_range_before_any_work():
    """The coefficient list has 2^(n+1) entries, so n is checked before it is
    built, also for an empty divisor, which has no key to check n by."""
    for n in (typea.MAX_MEMBERS, 100, -2):
        for check in (typea.is_nef, typea.is_ample, typea.nef_oracle):
            with pytest.raises(ValueError):
                check({}, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_nef_matches_oracle_random(n):
    rng = random.Random(40 + n)
    full = typea.full_mask(n)
    for _ in range(60):
        coeffs = {a: rng.randint(-5, 5) for a in range(1, full)}
        assert typea.is_nef(coeffs, n) == typea.nef_oracle(coeffs, n)
    # a strictly concave function of |A| is ample; for n >= 2 the noise
    # makes some of these divisors not nef, so both answers occur
    answers = set()
    for _ in range(30):
        s = rng.randint(1, 3)
        coeffs = {a: s * bin(a).count("1") * (n + 1 - bin(a).count("1"))
                  + rng.choice((-1, 0, 1)) for a in range(1, full)}
        nef = typea.is_nef(coeffs, n)
        assert nef == typea.nef_oracle(coeffs, n)
        answers.add(nef)
    assert answers == ({True, False} if n >= 2 else {True})
    assert typea.nef_oracle(anticanonical(n), n)
    assert typea.nef_oracle({}, n)


@lru_cache(maxsize=None)
def shared_facets(n):
    """The walls of ``fans.weyl_chamber_fan`` of A_n, found by matching the
    facets of its max cones: {facet: (cone, other cone)}, with every ray
    given as its subset mask."""
    r = roots.build_root_system(roots.RootSystemSpec.parse([("A", n)]))
    f = fans.weyl_chamber_fan(r)
    by_vec = {typea.subset_ray(a, n): a for a in range(1, typea.full_mask(n))}
    sides = {}
    for cone in f.max_cones:
        masks = frozenset(by_vec[f.rays[i]] for i in cone)
        for drop in masks:
            sides.setdefault(masks - {drop}, []).append(masks)
    assert all(len(pair) == 2 for pair in sides.values())
    return {facet: tuple(pair) for facet, pair in sides.items()}


@lru_cache(maxsize=None)
def chamber_walls(n):
    """Per wall: the masks of the rays of the cone on one side, as the rows
    of M, the transpose of M^-1 (``int_inverse``), and the mask of
    the opposite ray, the ray of the other cone off the shared facet."""
    walls = []
    for facet, (cone, other) in shared_facets(n).items():
        masks = tuple(sorted(cone))
        inv = int_inverse(tuple(typea.subset_ray(a, n) for a in masks))
        walls.append((masks, linalg.transpose(inv), next(iter(other - facet))))
    return walls


def geometric_nef(coeffs, n):
    """Oracle: the support function is convex across every wall.  On the
    cone with rays M, the functional m with M m = -a is m = M^-1 (-a); it
    must take at least -a at the opposite ray."""
    a = lambda mask: coeffs.get(mask, 0)
    return all(linalg.vec_dot(linalg.vec_matmul([-a(x) for x in masks], inv_t),
                              typea.subset_ray(opposite, n)) >= -a(opposite)
               for masks, inv_t, opposite in chamber_walls(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_nef_oracle_equals_geometric_oracle(n):
    """The square form of ``nef_oracle`` against the walls of the fan: every
    divisor with coefficients in {-1, 0, 1} for n <= 2, and 80 random ones
    for n >= 3, with both answers occurring."""
    full = typea.full_mask(n)
    if n <= 2:
        divisors = [dict(zip(range(1, full), c)) for c in product((-1, 0, 1), repeat=full - 1)]
    else:
        rng = random.Random(90 + n)
        divisors = [{a: rng.randint(-2, 2) for a in range(1, full)} for _ in range(20)]
        for _ in range(60):
            s = rng.randint(1, 3)
            divisors.append({a: s * a.bit_count() * (n + 1 - a.bit_count())
                             + rng.choice((-1, 0, 1)) for a in range(1, full)})
    answers = [typea.nef_oracle(c, n) for c in divisors]
    assert answers == [geometric_nef(c, n) for c in divisors]
    assert set(answers) == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walls_are_the_shared_facets(n):
    """Each shared facet of the chamber fan is a square: the two rays off it
    are B+i and B+j, and B and B+i+j are rays of the facet or the empty and
    the full set.  Every one of the C(n+1, 2) 2^(n-1) squares occurs."""
    full = typea.full_mask(n)
    squares = set()
    for facet, (cone, other) in shared_facets(n).items():
        (x,), (y,) = cone - facet, other - facet
        low, high = x & y, x | y
        assert (x ^ y).bit_count() == 2 and low != x and low != y
        assert low in facet | {0} and high in facet | {full}
        squares.add((low, x ^ y))
    assert len(squares) == comb(n + 1, 2) * 2 ** (n - 1)
    assert squares == {(b, i | j) for b in range(full)
                       for i, j in combinations([1 << k for k in range(n + 1)], 2)
                       if not b & (i | j)}


def _solve_cramer(rows, rhs):
    d = bareiss_det(rows)
    if d == 0:
        return None
    k = len(rows)
    sol = []
    for t in range(k):
        mt = tuple(r[:t] + (rhs[idx],) + r[t + 1:] for idx, r in enumerate(rows))
        sol.append(Fraction(bareiss_det(mt), d))
    return tuple(sol)


def basic_solution_vertices(normals):
    """Oracle: vertices of {x : <x, w> >= -1 for w in normals} as the
    feasible basic solutions, one Cramer solve per k-subset of normals."""
    k = len(normals[0])
    rhs = (-1,) * k
    seen = set()
    verts = set()
    for sub in combinations(normals, k):
        x = _solve_cramer(sub, rhs)
        if x is None or x in seen:
            continue
        seen.add(x)
        if all(linalg.vec_dot(x, w) >= -1 for w in normals):
            verts.add(x)
    return verts


def _mcoords(family, rank):
    r = roots.build_root_system(roots.RootSystemSpec.parse([(family, rank)]))
    return tuple(sorted(set(r.mcoords)))


H_SYSTEMS = {
    **{f"vA-{n}": (lambda n=n: tuple(typea.subset_ray(a, n)
                                     for a in range(1, typea.full_mask(n))))
       for n in (1, 2, 3, 4)},
    **{f"rootsA-{n}": (lambda n=n: typea._root_mcoords(n)) for n in (1, 2, 3, 4)},
    # degenerate vertices: more than k tight normals
    "rootsB-3": lambda: _mcoords("B", 3),
    "rootsC-3": lambda: _mcoords("C", 3),
    "rootsD-4": lambda: _mcoords("D", 4),
    # k = 4: dropping the containment test of the adjacency check, or
    # reversing it, returns non-vertices here
    "rootsC-4": lambda: _mcoords("C", 4),
    "rootsG-2": lambda: _mcoords("G", 2),
    "octahedron": lambda: tuple(product((-1, 1), repeat=3)),
    "cube": lambda: ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    # a pointed unbounded polyhedron, and one with a line (no vertex)
    "quadrant": lambda: ((1, 0), (0, 1), (1, 1)),
    "strip": lambda: ((1, 0), (-1, 0)),
}


def h_polytope_vertices(normals):
    """Oracle: the vertices of {x : <x, w> >= -1 for w in normals}, the
    slice t = 1 of the cone {(x, t) : <x, w> + t >= 0, t >= 0}, whose extreme
    rays (``linalg.extreme_rays``) with t > 0 are the vertices.  No vertices
    are returned when the normals do not span."""
    k = len(normals[0])
    rays = linalg.extreme_rays([tuple(w) + (1,) for w in normals] + [(0,) * k + (1,)])
    return {tuple(Fraction(c, v[-1]) for c in v[:-1]) for v, _ in rays or () if v[-1] > 0}


@pytest.mark.parametrize("name", sorted(H_SYSTEMS))
def test_h_polytope_vertices_equals_basic_solution_scan(name):
    normals = H_SYSTEMS[name]()
    assert h_polytope_vertices(normals) == basic_solution_vertices(normals)


@pytest.mark.parametrize("n,verts,pts", [(1, 2, 3), (2, 6, 7), (3, 12, 13), (4, 20, 21),
                                         (5, 30, 31)])
def test_delta_polytope(n, verts, pts):
    info = typea.delta_polytope(n)
    assert len(info.vertices) == verts == n * (n + 1)
    assert len(info.lattice_points) == pts == n * (n + 1) + 1
    assert info.interior_points == ((0,) * n,)
    assert info.is_reflexive
    assert set(info.polar_vertices) == {
        typea.subset_ray(a, n) for a in range(1, typea.full_mask(n))
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_delta_polytope_equals_facet_side(n):
    """The polytope read from its facets {x : <x, v_A> >= -1}: its vertices
    (the test's double description), lattice points and interior points
    equal those that ``delta_polytope`` reads off the polar."""
    info = typea.delta_polytope(n)
    normals = typea._subset_rays(n)
    assert h_polytope_vertices(normals) == set(info.vertices)
    lattice = tuple(p for p in product((-1, 0, 1), repeat=n)
                    if all(linalg.vec_dot(p, w) >= -1 for w in normals))
    assert info.lattice_points == lattice
    assert info.interior_points == tuple(
        p for p in lattice if all(linalg.vec_dot(p, w) > -1 for w in normals))


def test_delta_polytope_makes_one_double_description(monkeypatch):
    calls = []
    real = linalg.extreme_rays
    monkeypatch.setattr(linalg, "extreme_rays", lambda rows: calls.append(rows) or real(rows))
    typea.delta_polytope(4)
    assert len(calls) == 1


def test_a_root_that_is_no_vertex_is_an_internal_fault(monkeypatch):
    """The origin lies inside the hull of the roots: no polar vertex is tight
    on it, so its empty tight set lies in every root's set."""
    real = typea._root_mcoords
    monkeypatch.setattr(typea, "_root_mcoords", lambda n: tuple(sorted(real(n) + ((0,) * n,))))
    with pytest.raises(InternalCheckFailed, match="not a vertex"):
        typea.delta_polytope(3)


def test_sigma_delta_and_crepant():
    for f in (typea.sigma_delta_fan(0), typea.crepant_subdivision(0)):
        assert f == make_fan(0, [], [()])
        assert fans.check_complete(f) and fans.check_smooth(f)
    assert typea.sigma_delta_fan(2) == chain_fan(2)
    assert fans.check_smooth(typea.sigma_delta_fan(2))
    f3 = typea.sigma_delta_fan(3)
    assert fans.check_complete(f3)
    assert not fans.check_smooth(f3)
    for n in (1, 2, 3, 4):
        assert typea.crepant_subdivision(n) == chain_fan(n)
        assert fans.check_complete(typea.sigma_delta_fan(n))
        assert fans.check_smooth(typea.sigma_delta_fan(n)) == (n < 3)


def canonicalized_subset_fan(n, mask_cones):
    """The oracle for ``typea._subset_fan``: the generic canonicalizer
    ``make_fan`` on the rays v_A, with mask a at ray id a - 1."""
    cones = [tuple(a - 1 for a in cone) for cone in mask_cones] if n else [()]
    return make_fan(n, typea._subset_rays(n), cones)


@pytest.mark.parametrize("n", range(7))
def test_subset_fans_equal_the_canonicalized_fans(n):
    """The subset fans, built in ray order, equal ``make_fan`` on the same
    rays: a cone of the root-polytope fan is every mask between {i} and the
    complement of {j}, found here by a scan of all masks."""
    full = typea.full_mask(n)
    between = [[a for a in range(1, full) if a >> (i - 1) & 1 and not a >> (j - 1) & 1]
               for i in range(1, n + 2) for j in range(1, n + 2) if i != j]
    assert typea.sigma_delta_fan(n) == canonicalized_subset_fan(n, between)
    chains = [chain for b1, b2 in typea._singleton_cosingletons(n)
              for chain in typea.subdivide_cone(b1, b2)]
    assert typea.crepant_subdivision(n) == canonicalized_subset_fan(n, chains)


@pytest.mark.parametrize("n", range(1, 7))
def test_crepant_subdivision_is_the_chamber_fan(n):
    """The crepant subdivision of the root-polytope fan is the fan of Weyl
    chambers of A_n, built by ``roots`` with no subset in sight."""
    r = roots.build_root_system(roots.RootSystemSpec.parse([("A", n)]))
    assert typea.crepant_subdivision(n) == fans.weyl_chamber_fan(r)


def test_a_subset_cone_given_twice_is_caught():
    """``_subset_fan`` makes one check: a max cone listed twice, even with
    its masks in another order, raises rather than return a fan."""
    chains = [typea._prefix_masks(perm[:-1]) for perm in permutations(range(1, 5))]
    with pytest.raises(InternalCheckFailed, match="listed twice"):
        typea._subset_fan(3, chains + [chains[7][::-1]])


def test_subdivide_cone_counts():
    # |B2 \ B1| = 2, cone dimension d = 3: subdivided into (d-1)! = 2 chains
    b1 = typea.mask_of([1])
    b2 = typea.mask_of([1, 2, 3])
    chains = typea.subdivide_cone(b1, b2)
    assert len(chains) == 2
    for chain in chains:
        assert chain[0] == b1 and chain[-1] == b2 and typea.is_chain(chain)


def test_json_roundtrips():
    n = 2
    terms = {(typea.mask_of([1]), typea.mask_of([1, 2])): 3, (): -1}
    j = typea.cohom_class_to_json(terms, n)
    back, n2 = typea.cohom_class_from_json(j)
    assert back == terms and n2 == n
    j = {"coeffs": [{"subset": [1], "a": 2}, {"subset": [2, 3], "a": -1},
                    {"subset": [1], "a": 1}]}
    assert typea.divisor_from_json(j, n) == {typea.mask_of([1]): 3, typea.mask_of([2, 3]): -1}
