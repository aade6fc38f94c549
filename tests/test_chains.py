import random
from fractions import Fraction

import pytest

from test_rdata import ONE_ZERO, ZERO_ONE, orbit_rdata_pattern, ratio_for
from test_typea import chain_fan, ray_masks
from weylfan import chains, linalg, rdata, typea
from weylfan.chains import CombType, MarkedChain
from weylfan.errors import EmptyKeep, MissingPair, NotPreorder
from weylfan.rdata import ProjectiveRatio

R = ProjectiveRatio.of


def data_ratio(data, i, j):
    """(t_ij : t_ji) for any ordered pair, from the i<j keyed dict."""
    if i < j:
        return data[(i, j)]
    return data[(j, i)].swap()


def marked_point_image(data, labels, i):
    """The slot ratios of the embedded image of mark i."""
    return {j: R(1, 1) if j == i else data_ratio(data, i, j) for j in sorted(labels)}


def generic_data_over_cone(n, chain_masks):
    """Sample ratios over the orbit of a cone: the tautological data at a
    chart point whose free coordinates are distinct primes."""
    r = chains._an_system(n)[0]
    ctype = chains.comb_type_over_cone(n, chain_masks)
    # a chamber containing the cone: refine the partition reading blocks
    # from the s_- side, i.e. from the last block of the type backwards
    ordering = [i for b in reversed(ctype.blocks) for i in b]
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    block = {x: k for k, b in enumerate(ctype.blocks) for x in b}
    coord = {}
    for i, j in zip(ordering, ordering[1:]):
        same = block[i] == block[j]
        coord[r.root_index(chains._u_diff(i, j, n + 1))] = Fraction(primes.pop() if same else 0)
    chart = tuple(sorted(coord))
    point = rdata.ChartPoint(chart=chart, coords=tuple(coord[k] for k in chart))
    return chains.an_data_from_rdata(n, rdata.universal_rdata_at(r, point))


def test_comb_type_from_data_small():
    # one pair: (1:0) puts mark 1 before mark 2
    t = chains.comb_type_from_data({(1, 2): R(1, 0)}, (1, 2))
    assert t.blocks == ((1,), (2,))
    t = chains.comb_type_from_data({(1, 2): R(3, 4)}, (1, 2))
    assert t.blocks == ((1, 2),)
    t = chains.comb_type_from_data({(1, 2): R(0, 1)}, (1, 2))
    assert t.blocks == ((2,), (1,))


def test_comb_type_generic_nonzero_is_single_block():
    data = {(i, j): R(i + j, i * j + 1) for i in range(1, 4) for j in range(i + 1, 4)}
    t = chains.comb_type_from_data(data, (1, 2, 3))
    assert t.blocks == ((1, 2, 3),)


def test_comb_type_not_preorder():
    # 1 before 2, 2 before 3, but 3 before 1: a cycle
    data = {(1, 2): R(1, 0), (2, 3): R(1, 0), (1, 3): R(0, 1)}
    with pytest.raises(NotPreorder):
        chains.comb_type_from_data(data, (1, 2, 3))
    # 1 shares with 2, 2 shares with 3, but 1 strictly before 3
    data = {(1, 2): R(1, 1), (2, 3): R(1, 1), (1, 3): R(1, 0)}
    with pytest.raises(NotPreorder):
        chains.comb_type_from_data(data, (1, 2, 3))


def comb_type_by_block_scan(data, labels):
    """The former block-scanning comb type, kept as the oracle."""
    labels = tuple(sorted(labels))

    def cmp(i, j):
        if i == j:
            return 0
        t = data_ratio(data, i, j)
        return -1 if t.is_one_zero else 1 if t.is_zero_one else 0

    blocks = []
    for i in labels:
        for b in blocks:
            if cmp(i, b[0]) == 0:
                b.append(i)
                break
        else:
            blocks.append([i])
    for b in blocks:
        if any(cmp(x, y) != 0 for x in b for y in b):
            raise NotPreorder("a block disagrees about sharing a component")
    for a in range(len(blocks)):
        for b in range(len(blocks)):
            signs = {cmp(x, y) for x in blocks[a] for y in blocks[b]}
            if a != b and (len(signs) != 1 or 0 in signs):
                raise NotPreorder("two blocks are not totally ordered")
    reps_before = [b[0] for b in blocks]
    blocks.sort(key=lambda b: sum(cmp(b[0], c) for c in reps_before))
    order = CombType.of(blocks)
    reps = [b[0] for b in order.blocks]
    for a in range(len(reps)):
        for c in range(a + 1, len(reps)):
            if cmp(reps[a], reps[c]) != -1:
                raise NotPreorder("the block order is not transitive")
    return order


def test_comb_type_matches_block_scan():
    rng = random.Random(17)
    choices = [R(1, 0), R(0, 1), R(1, 1), R(2, 3)]
    outcomes = {"valid": 0, "invalid": 0}
    for _ in range(18000):
        labels = tuple(range(1, rng.randrange(2, 6) + 1))
        data = {(i, j): rng.choice(choices) for i in labels for j in labels if i < j}
        try:
            expected = comb_type_by_block_scan(data, labels)
        except NotPreorder:
            with pytest.raises(NotPreorder):
                chains.comb_type_from_data(data, labels)
            outcomes["invalid"] += 1
            continue
        assert chains.comb_type_from_data(data, labels) == expected
        outcomes["valid"] += 1
    assert min(outcomes.values()) > 3000, outcomes


def test_chain_from_data_example():
    # ratios (1:1), (2:1), (2:1) on the pairs (1,2), (2,3), (1,3)
    data = {(1, 2): R(1, 1), (2, 3): R(2, 1), (1, 3): R(2, 1)}
    assert chains.validate_an_data(2, data) == []
    c = chains.chain_from_data(data, (1, 2, 3))
    assert c.ctype.blocks == ((1, 2, 3),)
    assert dict(c.coords) == {1: R(1, 1),
                              2: R(1, 1),    # t_{21} = swap(1:1)
                              3: R(1, 2)}    # t_{31} = swap(2:1)
    assert chains.data_from_chain(c) == data


def test_chain_from_data_all_ones():
    data = {(i, j): R(1, 1) for i in range(1, 4) for j in range(i + 1, 4)}
    c = chains.chain_from_data(data, (1, 2, 3))
    assert all(v == R(1, 1) for _, v in c.coords)


def test_chain_from_data_degenerate():
    c = chains.chain_from_data({(1, 2): R(0, 1)}, (1, 2))
    assert c.ctype.blocks == ((2,), (1,))


def test_data_from_chain_examples():
    one = CombType.of([(1, 2)])
    c = MarkedChain.of(one, {1: R(1, 1), 2: R(1, 1)})
    assert chains.data_from_chain(c)[(1, 2)] == R(1, 1)
    c = MarkedChain.of(one, {1: R(1, 2), 2: R(1, 1)})
    assert chains.data_from_chain(c)[(1, 2)] == R(1, 2)
    two = CombType.of([(1,), (2,)])
    c = MarkedChain.of(two, {1: R(1, 1), 2: R(5, 3)})
    assert chains.data_from_chain(c)[(1, 2)] == R(1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_roundtrips_random(n):
    rng = random.Random(17 + n)
    for _ in range(120):
        c = chains.random_marked_chain(n, rng)
        data = chains.data_from_chain(c)
        assert chains.validate_an_data(n, data) == []
        # data -> chain -> data is exact
        c2 = chains.chain_from_data(data, c.labels)
        assert chains.data_from_chain(c2) == data
        # chain -> data -> chain is exact after anchoring
        assert chains.chains_isomorphic(c, c2)
        assert c2 == chains.contract(c, c.labels)


def test_contract_examples():
    rng = random.Random(3)
    c = chains.random_marked_chain(3, rng)
    single = chains.contract(c, {2})
    assert single.ctype.blocks == ((2,),)
    assert dict(single.coords) == {2: R(1, 1)}
    with pytest.raises(EmptyKeep):
        chains.contract(c, set())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contract_coherence_random(n):
    rng = random.Random(29 + n)
    for _ in range(80):
        c = chains.random_marked_chain(n, rng)
        labels = list(c.labels)
        k1 = set(rng.sample(labels, rng.randrange(1, len(labels) + 1)))
        k2 = set(rng.sample(sorted(k1), rng.randrange(1, len(k1) + 1)))
        assert chains.contract(chains.contract(c, k1), k2) == chains.contract(c, k2)
        # pairwise data of a two-mark contraction is the extracted pair ratio
        i, j = sorted(rng.sample(labels, 2))
        sub = chains.contract(c, {i, j})
        assert chains.data_from_chain(sub)[(i, j)] == chains.data_from_chain(c)[(i, j)]


def test_curve_membership():
    data = {(1, 2): R(1, 1), (2, 3): R(2, 1), (1, 3): R(2, 1)}
    labels = (1, 2, 3)
    for i in labels:
        zs = marked_point_image(data, labels, i)
        ok, comps = chains.curve_membership(data, labels, zs)
        assert ok and comps == (0,)
    # the minus pole: every slot at (1:0)
    zs = {i: R(1, 0) for i in labels}
    ok, comps = chains.curve_membership(data, labels, zs)
    assert ok
    # generic off-curve point
    zs = {1: R(1, 1), 2: R(1, 5), 3: R(7, 2)}
    ok, comps = chains.curve_membership(data, labels, zs)
    assert not ok


def test_curve_membership_reducible_node():
    data = {(1, 2): R(1, 0)}
    ok, comps = chains.curve_membership(data, (1, 2), {1: R(0, 1), 2: R(1, 0)})
    assert ok and comps == (0, 1)  # the node lies on both components


def test_marked_points_on_their_components():
    rng = random.Random(99)
    for _ in range(40):
        c = chains.random_marked_chain(3, rng)
        data = chains.data_from_chain(c)
        block = {x: k for k, b in enumerate(c.ctype.blocks) for x in b}
        for i in c.labels:
            zs = marked_point_image(data, c.labels, i)
            ok, comps = chains.curve_membership(data, c.labels, zs)
            assert ok and block[i] in comps
            # slot i of a marked point has equal entries
            assert zs[i] == R(1, 1)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_universal_curve_structure(n):
    uc = chains.universal_curve_structure(n)
    src = uc.morphism.source
    # fibers: n+2 chambers over every target chamber
    assert sorted(uc.fiber_counts.values()) == [n + 2] * len(uc.morphism.target.max_cones)
    if n >= 1:
        assert all(len(dst) == n for dst in uc.fiber_counts)
    # the two pole rays are opposite
    assert src.rays[uc.pole_plus_ray] == linalg.vec_neg(src.rays[uc.pole_minus_ray])
    assert len(uc.sections) == n + 1
    for sec in uc.sections:
        assert sum(sec.kernel_root) == 0
        assert sec.kernel_root[-1] == -1


def test_universal_curve_fig4_counts():
    uc = chains.universal_curve_structure(1)
    assert len(uc.morphism.source.max_cones) == 6
    assert len(uc.morphism.target.max_cones) == 2
    assert sorted(uc.fiber_counts.values()) == [3, 3]


def test_comb_type_over_cone_examples():
    # ray v_{1} in the rank-2 fan: marks 2,3 on the first component, 1 last
    t = chains.comb_type_over_cone(2, (typea.mask_of([1]),))
    assert t.blocks == ((2, 3), (1,))
    # zero cone: irreducible fibers
    t = chains.comb_type_over_cone(2, ())
    assert t.blocks == ((1, 2, 3),)
    # maximal cone {1} in {1,2}: fully degenerate chain
    t = chains.comb_type_over_cone(2, (typea.mask_of([1]), typea.mask_of([1, 2])))
    assert t.blocks == ((3,), (2,), (1,))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stratification_matches_generic_samples(n):
    f = chain_fan(n)
    to_mask, _ = ray_masks(n)
    cones = set()
    from itertools import combinations
    for cone in f.max_cones:
        masks = sorted((to_mask[i] for i in cone), key=lambda m: (bin(m).count("1"), m))
        for r in range(len(masks) + 1):
            for sub in combinations(masks, r):
                cones.add(sub)
    for chain in cones:
        expected = chains.comb_type_over_cone(n, chain)
        data = generic_data_over_cone(n, chain)
        got = chains.comb_type_from_data(data, tuple(range(1, n + 2)))
        assert got == expected


def test_data_pattern_matches_orbit_pattern():
    n = 2
    r = chains._an_system(n)[0]
    chain = (typea.mask_of([1]),)
    data = generic_data_over_cone(n, chain)
    d = chains.rdata_from_an_data(n, data)
    v = typea.subset_ray(chain[0], n)
    pattern = orbit_rdata_pattern(r, v)
    for idx, kind in pattern.items():
        t = ratio_for(r, d, idx)
        if kind == ZERO_ONE:
            assert t.is_zero_one
        elif kind == ONE_ZERO:
            assert t.is_one_zero
        else:
            assert not t.is_degenerate


def test_chain_json_roundtrip():
    rng = random.Random(5)
    c = chains.random_marked_chain(3, rng)
    assert chains.chain_from_json(chains.chain_to_json(c)) == c
    data = chains.data_from_chain(c)
    j = chains.an_data_to_json(3, data)
    assert chains.an_data_from_json(3, j) == data


@pytest.mark.parametrize("n", [2, 3, 4])
def test_too_few_pairs_name_the_root_validate_rdata_names(n):
    """Data with pairs left out, some given by the negative root, are
    refused before A_n is built, naming the root that ``validate_rdata``
    names on the built system."""
    r = chains._an_system(n)[0]
    rng = random.Random(f"missing:{n}")
    for _ in range(60):
        full = chains.an_data_to_json(n, chains.data_from_chain(chains.random_marked_chain(n, rng)))
        pairs = [{"positive_root": [-x for x in e["positive_root"]], "ratio": e["ratio"][::-1]}
                 if rng.random() < 0.3 else e for e in full["pairs"]]
        pairs = rng.sample(pairs, rng.randrange(len(pairs)))
        with pytest.raises(MissingPair) as early:
            chains.an_data_from_json(n, {"pairs": pairs})
        with pytest.raises(MissingPair) as late:
            rdata.validate_rdata(r, rdata.rdata_from_json(r, {"pairs": pairs}))
        assert str(early.value) == str(late.value)


def test_chain_from_json_refuses_a_mark_given_twice():
    """Two coordinates for one mark are refused, not resolved by the later one."""
    obj = {"n": 1, "blocks": [[1, 2]], "coords": [
        {"i": 1, "pos": ["1", "1"]}, {"i": 2, "pos": ["2", "1"]}, {"i": 1, "pos": ["3", "1"]}]}
    with pytest.raises(ValueError, match="twice"):
        chains.chain_from_json(obj)
