import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from test_roots import (ORACLE_FACTORS, TRIPLE_FACTORS, TRIPLE_IDS, expansions_by_inverse,
                        refuse_the_fan, simple_set_expansions, sorted_orbit)
from weylfan import linalg, rdata, roots
from weylfan.errors import MissingPair
from weylfan.rdata import ChartPoint, ProjectiveRatio, RData


def sys(*factors):
    return roots.build_root_system(roots.RootSystemSpec.parse(factors))


def a2_pairs(r):
    alpha = r.root_index((1, -1, 0))
    beta = r.root_index((0, 1, -1))
    gamma = r.root_index((1, 0, -1))
    return alpha, beta, gamma


def test_projective_ratio_canonical():
    assert ProjectiveRatio.of(2, 4) == ProjectiveRatio.of(1, 2)
    assert ProjectiveRatio.of(-3, 3) == ProjectiveRatio.of(1, -1)
    assert ProjectiveRatio.of(0, 5) == ProjectiveRatio.of(0, 1)
    assert ProjectiveRatio.of(7, 0) == ProjectiveRatio.of(1, 0)
    assert ProjectiveRatio.of(2, 1).swap() == ProjectiveRatio.of(1, 2)
    with pytest.raises(ValueError):
        ProjectiveRatio.of(0, 0)


@pytest.mark.parametrize("num, den, pair", [
    (2, 1, ["2", "1"]),
    (-1, -2, ["1", "2"]),
    (Fraction(1, 2), Fraction(1, 3), ["3", "2"]),
    (-3, 0, ["1", "0"]),
    (0, -7, ["0", "1"]),
])
def test_projective_ratio_json_is_primitive_pair(num, den, pair):
    t = ProjectiveRatio.of(num, den)
    assert t.to_json() == pair
    assert ProjectiveRatio.from_json(t.to_json()) == t


def test_projective_ratio_from_json_any_scaling():
    assert ProjectiveRatio.from_json(["4", "2"]) == ProjectiveRatio.of(2, 1)
    assert ProjectiveRatio.from_json(["1", "1/2"]) == ProjectiveRatio.of(2, 1)
    assert ProjectiveRatio.from_json(["-2/3", "-1"]).to_json() == ["2", "3"]
    assert ProjectiveRatio.from_json(["0.5", 1]) == ProjectiveRatio.of(1, 2)


@pytest.mark.parametrize("pair", [["1e3", "1"], ["1", "2E-5"], ["1.5e300000", "1"],
                                  [float("inf"), 1], ["1", float("nan")]])
def test_projective_ratio_from_json_refuses_exponents_and_non_finite(pair):
    with pytest.raises(ValueError):
        ProjectiveRatio.from_json(pair)


@pytest.mark.parametrize("pair", ["35", ["3", "5", "7"], ["3"], [True, 2], ["1", False],
                                  {"0": "1", "1": "2"}])
def test_projective_ratio_from_json_needs_two_numbers(pair):
    """A string, a list of other than two entries, or a boolean entry is not
    read as a ratio."""
    with pytest.raises(TypeError):
        ProjectiveRatio.from_json(pair)


def test_chart_point_refuses_boolean_coordinates():
    r = sys(("A", 2))
    chart = [list(r.roots[i]) for i in r.base_simple_set]
    with pytest.raises(TypeError):
        rdata.chart_point_from_json(r, {"chart": chart, "coords": [True, "1"]})


def test_chart_point_refuses_a_root_given_twice():
    """A repeated chart root is invalid input, named by its vector."""
    r = sys(("A", 2))
    with pytest.raises(ValueError, match=r"chart root \[1, -1, 0\] is given twice"):
        rdata.chart_point_from_json(r, {"chart": [[1, -1, 0], [1, -1, 0]], "coords": ["1", "2"]})


INTS = st.integers(-10**6, 10**6)
RATIOS = st.tuples(INTS, INTS).filter(lambda p: p != (0, 0))


@given(RATIOS)
def test_projective_ratio_fields_are_a_primitive_pair(p):
    t = ProjectiveRatio.of(*p)
    assert type(t.num) is int and type(t.den) is int
    assert math.gcd(t.num, t.den) == 1 and t.den >= 0
    assert t.den > 0 or t.num == 1
    assert t.num * p[1] == t.den * p[0]


@given(RATIOS, RATIOS)
def test_projective_ratio_equality_is_cross_multiplication(p, q):
    (a, b), (c, d) = p, q
    assert (ProjectiveRatio.of(a, b) == ProjectiveRatio.of(c, d)) == (a * d == b * c)


@given(RATIOS, st.integers(1, 50), st.integers(1, 50))
def test_projective_ratio_of_fractions(p, u, v):
    """Fractions scale like ints: (a/u : b/v) is (a v : b u)."""
    (a, b) = p
    assert ProjectiveRatio.of(Fraction(a, u), Fraction(b, v)) == ProjectiveRatio.of(a * v, b * u)


@given(RATIOS)
def test_projective_ratio_swap_is_an_involution(p):
    t = ProjectiveRatio.of(*p)
    assert t.swap().swap() == t
    assert t.swap() == ProjectiveRatio.of(p[1], p[0])


@given(RATIOS)
def test_projective_ratio_json_roundtrip_is_exact(p):
    t = ProjectiveRatio.of(*p)
    assert t.to_json() == [str(t.num), str(t.den)]
    assert ProjectiveRatio.from_json(t.to_json()) == t


def test_validate_examples():
    r = sys(("A", 2))
    alpha, beta, gamma = a2_pairs(r)
    good = RData.of({alpha: ProjectiveRatio.of(1, 1),
                     beta: ProjectiveRatio.of(2, 1),
                     gamma: ProjectiveRatio.of(2, 1)})
    assert rdata.validate_rdata(r, good) == []
    bad = RData.of({alpha: ProjectiveRatio.of(1, 1),
                    beta: ProjectiveRatio.of(2, 1),
                    gamma: ProjectiveRatio.of(1, 1)})
    violations = rdata.validate_rdata(r, bad)
    assert violations
    i, j = sorted((alpha, beta))
    assert (i, j, gamma) in violations

    a1 = sys(("A", 1))
    pos = a1.positive[0]
    assert rdata.validate_rdata(a1, RData.of({pos: ProjectiveRatio.of(5, 3)})) == []


def ratio_for(r, d, root_index):
    """(t_a : t_{-a}) for any root a: d's entry for a, else its entry for -a
    swapped.  The oracle for ``rdata.ratio_lists``."""
    table = d.as_dict()
    if root_index in table:
        return table[root_index]
    other = r.neg[root_index]
    if other in table:
        return table[other].swap()
    raise MissingPair(f"no ratio for the pair of {r.roots[root_index]}")


def violated_by_ratio_for(r, d):
    """The triples whose identity fails, each ratio read by ``ratio_for``:
    the oracle for the list that ``validate_rdata`` reads."""
    bad = []
    for i, j, k in roots.additive_triples(r):
        ti, tj, tk = (ratio_for(r, d, x) for x in (i, j, k))
        if ti.num * tj.num * tk.den != ti.den * tj.den * tk.num:
            bad.append((i, j, k))
    return bad


def test_validate_reads_a_root_before_its_negative():
    """When d holds both a and -a, triples through -a read the entry of -a,
    as ``ratio_for`` does, not the swapped entry of a."""
    r = sys(("A", 2))
    alpha, beta, gamma = a2_pairs(r)
    good = {alpha: ProjectiveRatio.of(1, 1), beta: ProjectiveRatio.of(2, 1),
            gamma: ProjectiveRatio.of(2, 1)}
    assert rdata.validate_rdata(r, RData.of(good)) == []
    d = RData.of({**good, r.neg[gamma]: ProjectiveRatio.of(1, 1)})
    bad = rdata.validate_rdata(r, d)
    assert bad == violated_by_ratio_for(r, d)
    assert bad and all(r.neg[gamma] in triple for triple in bad)


@pytest.mark.parametrize("factors", [(("A", 3),), (("B", 3),), (("G", 2),), (("A", 1), ("C", 2))],
                         ids=["A3", "B3", "G2", "A1xC2"])
def test_validate_equals_the_ratio_for_oracle(factors):
    """Chart points, then the same with one ratio changed, some pairs keyed
    by the negative root, and some negative roots given a second ratio of
    their own that need not agree."""
    r = sys(*factors)
    rng = random.Random(2718)
    ratios = [ProjectiveRatio.of(x, y) for x in range(-3, 4) for y in range(4) if x or y]
    outcomes = set()
    for _ in range(80):
        d = rdata.universal_rdata_at(r, random_chart_point(r, rng)).as_dict()
        if rng.random() < 0.5:
            d[rng.choice(r.positive)] = rng.choice(ratios)
        for i in r.positive:
            if rng.random() < 0.2:
                d[r.neg[i]] = d.pop(i).swap()
            elif rng.random() < 0.2:
                d[r.neg[i]] = rng.choice(ratios)
        d = RData.of(d)
        bad = rdata.validate_rdata(r, d)
        assert bad == violated_by_ratio_for(r, d)
        outcomes.add(bool(bad))
    assert outcomes == {False, True}


@pytest.mark.parametrize("factors", ORACLE_FACTORS,
                         ids=["x".join(f"{f}{k}" for f, k in fs) for fs in ORACLE_FACTORS])
def test_ratio_lists_equal_the_ratio_for_oracle(factors):
    """On every root: the ratios of a chart point, with the first pair keyed
    by its negative root, the last negative root given a second ratio of its
    own, and the other pairs changed in the same two ways at random.  With
    one pair dropped, both refuse it with the same text."""
    r = sys(*factors)
    rng = random.Random(len(r.roots))
    ratios = [ProjectiveRatio.of(x, y) for x in range(-3, 4) for y in range(4) if x or y]
    chart = random_walk_chart(r, rng, len(r.positive))
    coords = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in chart)
    d = rdata.universal_rdata_at(r, ChartPoint(chart=chart, coords=coords)).as_dict()
    first, last = r.positive[0], r.positive[-1]
    for i in r.positive:
        if i == first or i != last and rng.random() < 0.2:
            d[r.neg[i]] = d.pop(i).swap()
        elif i == last or rng.random() < 0.2:
            d[r.neg[i]] = rng.choice(ratios)
    both = RData.of(d)
    num, den = rdata.ratio_lists(r, both)
    assert [ProjectiveRatio.of(x, y) for x, y in zip(num, den)] == \
        [ratio_for(r, both, a) for a in range(len(r.roots))]
    dropped = rng.choice(r.positive)
    for key in (dropped, r.neg[dropped]):
        d.pop(key, None)
    missing = RData.of(d)
    with pytest.raises(MissingPair) as want:
        ratio_for(r, missing, dropped)
    with pytest.raises(MissingPair, match=f"^{re.escape(str(want.value))}$"):
        rdata.ratio_lists(r, missing)


def test_validate_missing_pair():
    r = sys(("A", 2))
    alpha, beta, _ = a2_pairs(r)
    with pytest.raises(MissingPair):
        rdata.validate_rdata(r, RData.of({alpha: ProjectiveRatio.of(1, 1),
                                          beta: ProjectiveRatio.of(1, 1)}))


def test_ratio_orientation_swap():
    r = sys(("A", 2))
    alpha, _, _ = a2_pairs(r)
    d = rdata.universal_rdata_at(
        r, ChartPoint(chart=tuple(sorted(a2_pairs(r)[:2])), coords=(Fraction(2), Fraction(3))))
    t = ratio_for(r, d, alpha)
    assert ratio_for(r, d, r.neg[alpha]) == t.swap()


def test_universal_rdata_examples():
    r = sys(("A", 2))
    alpha, beta, gamma = a2_pairs(r)
    chart = tuple(sorted((alpha, beta)))
    coords = tuple(Fraction(2) if i == alpha else Fraction(3) for i in chart)
    d = rdata.universal_rdata_at(r, ChartPoint(chart=chart, coords=coords))
    assert ratio_for(r, d, gamma) == ProjectiveRatio.of(6, 1)
    assert rdata.validate_rdata(r, d) == []

    # torus fixed point: every chart-positive pair degenerates to (0:1)
    zero = rdata.universal_rdata_at(r, ChartPoint(chart=chart, coords=(Fraction(0), Fraction(0))))
    for i in (alpha, beta, gamma):
        assert ratio_for(r, zero, i) == ProjectiveRatio.of(0, 1)

    a1 = sys(("A", 1))
    pos = a1.positive[0]
    d1 = rdata.universal_rdata_at(a1, ChartPoint(chart=(pos,), coords=(Fraction(1),)))
    assert ratio_for(a1, d1, pos) == ProjectiveRatio.of(1, 1)


def test_rdata_to_point_roundtrip_examples():
    r = sys(("A", 2))
    alpha, beta, gamma = a2_pairs(r)
    chart = tuple(sorted((alpha, beta)))
    coords = tuple(Fraction(2) if i == alpha else Fraction(3) for i in chart)
    p = ChartPoint(chart=chart, coords=coords)
    d = rdata.universal_rdata_at(r, p)
    q = rdata.rdata_to_point(r, d)
    assert rdata.universal_rdata_at(r, q) == d
    # the chart the descent reaches is one of the chambers
    assert set(q.chart) in [set(s) for s, _ in roots.chamber_orbit(r)[1]]

    # all ratios (1:1): the torus identity, any chart, coords all 1
    ident = RData.of({i: ProjectiveRatio.of(1, 1) for i in r.positive})
    q = rdata.rdata_to_point(r, ident)
    assert all(x == 1 for x in q.coords)

    # universal data at a torus fixed point comes back as the zero point
    zero = rdata.universal_rdata_at(r, ChartPoint(chart=chart, coords=(Fraction(0), Fraction(0))))
    q = rdata.rdata_to_point(r, zero)
    assert all(x == 0 for x in q.coords)
    assert set(q.chart) == set(chart)


def random_chart_point(r, rng, zero_prob=0.25):
    chambers = sorted_orbit(r)[1]
    chart = chambers[rng.randrange(len(chambers))][0]
    coords = []
    for _ in chart:
        if rng.random() < zero_prob:
            coords.append(Fraction(0))
        else:
            coords.append(Fraction(rng.choice([x for x in range(-6, 7) if x]),
                                   rng.randrange(1, 6)))
    return ChartPoint(chart=chart, coords=tuple(coords))


def universal_rdata_by_exponents(r, p):
    """The ratios over a chart point, each a product of powers of the
    coordinates' numerators and denominators, with the exponents from the
    inverse of the chart's mcoords matrix: the oracle for
    ``rdata.universal_rdata_at``."""
    exp = expansions_by_inverse(r, p.chart)
    out = {}
    for i in r.positive:
        top = bottom = 1
        for c, x in zip(exp[i], p.coords):
            top *= x.numerator ** abs(c)
            bottom *= x.denominator ** abs(c)
        if any(c < 0 for c in exp[i]):
            top, bottom = bottom, top
        out[i] = ProjectiveRatio.of(top, bottom)
    return RData.of(out)


@pytest.mark.parametrize("factors", TRIPLE_FACTORS, ids=TRIPLE_IDS)
def test_universal_rdata_equals_the_exponent_oracle(factors):
    """Random charts with zero, negative and fractional coordinates; the
    ratios are the oracle's primitive integer pairs."""
    r = sys(*factors)
    rng = random.Random(f"exponents:{factors}")
    kinds = set()
    for _ in range(40):
        p = random_chart_point(r, rng)
        d = rdata.universal_rdata_at(r, p)
        assert d == universal_rdata_by_exponents(r, p), p
        assert all(type(t.num) is int and type(t.den) is int for _, t in d.ratios)
        kinds |= {"zero" if x == 0 else "negative" if x < 0 else "positive" for x in p.coords}
        kinds |= {"fractional" for x in p.coords if x.denominator > 1}
    assert kinds == {"zero", "negative", "positive", "fractional"}


@pytest.mark.parametrize("factors", [(("A", 2),), (("A", 3),), (("B", 2),),
                                     (("C", 3),), (("D", 3),), (("G", 2),)])
def test_functor_roundtrip_random(factors):
    r = sys(*factors)
    rng = random.Random(hash(factors) & 0xFFFF)
    for _ in range(60):
        p = random_chart_point(r, rng)
        d = rdata.universal_rdata_at(r, p)
        assert rdata.validate_rdata(r, d) == []
        q = rdata.rdata_to_point(r, d)
        assert rdata.universal_rdata_at(r, q) == d
        check_descent(r, d, q)
        if q.chart == p.chart:
            assert q.coords == p.coords


def check_descent(r, d, q):
    """The chart of q is admissible: no root in the monoid of the chart has
    ratio (1:0).  It is where the descent ends, after one step per positive
    root with ratio (1:0), so at most |Phi+| steps."""
    exp = simple_set_expansions(r, q.chart)
    chart_positive = [i for i, x in enumerate(exp)
                      if all(v >= 0 for v in x) and any(v > 0 for v in x)]
    assert not any(ratio_for(r, d, i).is_one_zero for i in chart_positive)
    one_zero = lambda a: ratio_for(r, d, a).is_one_zero
    chart, crossed = roots.descend(r, one_zero)
    assert tuple(sorted(chart)) == q.chart
    assert len(crossed) == sum(map(one_zero, r.positive)) <= len(r.positive)


def random_walk_chart(r, rng, length):
    """A chamber reached by ``length`` random simple reflections from the base."""
    table = roots.reflection_table(r)
    s = tuple(sorted(r.base_simple_set))
    for _ in range(length):
        a = rng.choice(s)
        s = tuple(sorted(table[a][b] for b in s))
    return s


@pytest.mark.parametrize("factors", [(("A", 7),), (("D", 6),)], ids=["A7", "D6"])
def test_roundtrip_without_chamber_enumeration(factors, monkeypatch):
    """Points of A_7 (|W| = 40,320) and D_6 go to ratios and back without
    enumerating the chambers."""
    refuse_the_fan(monkeypatch)
    r = sys(*factors)
    rng = random.Random(factors[0][0])
    for _ in range(12):
        chart = random_walk_chart(r, rng, 2 * len(r.positive))
        coords = tuple(Fraction(0) if rng.random() < 0.25
                       else Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
                       for _ in chart)
        d = rdata.universal_rdata_at(r, ChartPoint(chart=chart, coords=coords))
        assert rdata.validate_rdata(r, d) == []
        q = rdata.rdata_to_point(r, d)
        assert rdata.universal_rdata_at(r, q) == d
        check_descent(r, d, q)


@pytest.mark.parametrize("factors", [(("A", 1),), (("A", 2),), (("A", 3),),
                                     (("B", 2),), (("B", 3),), (("C", 3),),
                                     (("D", 4),), (("G", 2),)])
def test_verify_relation_generation(factors):
    assert rdata.verify_relation_generation(sys(*factors))


UP_TO_RANK_5 = ([(("A", n),) for n in range(1, 6)] + [(("B", n),) for n in range(2, 6)]
                + [(("C", n),) for n in range(3, 6)] + [(("D", n),) for n in range(3, 6)]
                + [(("G", 2),)])


@pytest.mark.parametrize("factors", UP_TO_RANK_5, ids=lambda fs: f"{fs[0][0]}{fs[0][1]}")
def test_relation_generation_up_to_rank_5(factors):
    """The additive triples generate every linear relation among the
    positive roots, for each family up to rank 5."""
    assert rdata.verify_relation_generation(sys(*factors))


ZERO_ONE = "zero_one"
ONE_ZERO = "one_zero"
FREE = "free"


def orbit_rdata_pattern(r, v):
    """Degeneration pattern of the ratios over the orbit of a lattice point.

    For each pair (keyed by its positive root a): (0:1) when <a, v> > 0,
    (1:0) when <a, v> < 0, unconstrained when a is orthogonal to v.
    ``v`` is in the N(R)-coordinates dual to the base simple set.
    """
    out = {}
    for i in r.positive:
        s = linalg.vec_dot(r.mcoords[i], v)
        out[i] = ZERO_ONE if s > 0 else ONE_ZERO if s < 0 else FREE
    return out


def test_orbit_rdata_pattern():
    r = sys(("A", 2))
    alpha, beta, gamma = a2_pairs(r)
    # v = v_1 in coordinates dual to the base: (1, 0)
    pat = orbit_rdata_pattern(r, (1, 0))
    assert pat[alpha] == ZERO_ONE
    assert pat[gamma] == ZERO_ONE
    assert pat[beta] == FREE
    assert all(v == FREE for v in orbit_rdata_pattern(r, (0, 0)).values())
    # v = v_1 + v_2 = (0, 1): exactly the pairs positive on v degenerate
    pat = orbit_rdata_pattern(r, (0, 1))
    assert pat[beta] == ZERO_ONE
    assert pat[gamma] == ZERO_ONE
    assert pat[alpha] == FREE


def test_rdata_json_roundtrip():
    r = sys(("A", 2))
    alpha, beta, gamma = a2_pairs(r)
    d = RData.of({alpha: ProjectiveRatio.of(1, 1),
                  beta: ProjectiveRatio.of(2, 1),
                  gamma: ProjectiveRatio.of(2, 1)})
    j = rdata.rdata_to_json(r, d)
    assert rdata.rdata_from_json(r, j) == d
    p = rdata.rdata_to_point(r, d)
    pj = rdata.chart_point_to_json(r, p)
    assert rdata.chart_point_from_json(r, pj) == p


@pytest.mark.parametrize("roots_given", [([1, -1, 0], [1, -1, 0]), ([1, -1, 0], [-1, 1, 0])],
                         ids=["same-root", "root-and-negative"])
def test_rdata_from_json_refuses_a_pair_given_twice(roots_given):
    """Two entries for one pair are refused, not resolved by the later one."""
    r = sys(("A", 2))
    pairs = [{"positive_root": v, "ratio": ["1", "1"]} for v in roots_given]
    pairs += [{"positive_root": [0, 1, -1], "ratio": ["2", "1"]},
              {"positive_root": [1, 0, -1], "ratio": ["2", "1"]}]
    with pytest.raises(ValueError, match="twice"):
        rdata.rdata_from_json(r, {"pairs": pairs})
