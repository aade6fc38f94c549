import os
import pickle
import random
import subprocess
from functools import lru_cache
from math import factorial, prod
from pathlib import Path
from sys import executable

import pytest

from test_linalg import bareiss_det, gauss_jordan_solve, int_inverse
from weylfan import fans, linalg, roots
from weylfan.errors import NotInSpan, UnsupportedFamily


def sys(*factors):
    return roots.build_root_system(roots.RootSystemSpec.parse(factors))


def weyl_order(spec):
    """Oracle: the order of the Weyl group from the family formulas, a
    product over the factors."""
    per_factor = {"A": lambda k: factorial(k + 1), "B": lambda k: 2 ** k * factorial(k),
                  "C": lambda k: 2 ** k * factorial(k), "D": lambda k: 2 ** (k - 1) * factorial(k),
                  "G": lambda k: 12}
    return prod(per_factor[f](k) for f, k in spec.factors)


@lru_cache(maxsize=None)
def sorted_orbit(r):
    """``roots.chamber_orbit`` in canonical order: the rays lex-sorted (the
    rays of the chamber fan), each chamber's S sorted with its relabelled ray
    ids aligned, and the chambers sorted by S."""
    rays, chambers = roots.chamber_orbit(r)
    order = sorted(range(len(rays)), key=rays.__getitem__)
    lex = {old: new for new, old in enumerate(order)}
    out = []
    for s, ids in chambers:
        pairs = sorted(zip(s, ids))
        out.append((tuple(a for a, _ in pairs), tuple(lex[i] for _, i in pairs)))
    return tuple(rays[i] for i in order), tuple(sorted(out))


def refuse_the_fan(monkeypatch):
    """Make the chamber walk and the chamber fan raise if they are called."""
    def refuse(name):
        def call(r):
            raise AssertionError(f"{name} was called")
        return call

    for module, name in ((roots, "chamber_orbit"), (fans, "weyl_chamber_fan")):
        monkeypatch.setattr(module, name, refuse(name))


def simple_sets(r):
    """The simple sets of ``roots.chamber_orbit``, one per chamber, sorted."""
    return tuple(s for s, _ in sorted_orbit(r)[1])


def family_roots(family, rk):
    """Ambient dimension, every root and the base of one irreducible factor,
    written out by formula: the oracle for the closure of the base."""
    if family == "G":
        half = [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        return 3, half + [linalg.vec_neg(v) for v in half], [(1, -1, 0), (-1, 2, -1)]
    dim = rk + 1 if family == "A" else rk
    e = linalg.identity_matrix(dim)
    if family == "A":
        all_roots = [linalg.vec_sub(e[i], e[j]) for i in range(dim) for j in range(dim) if i != j]
        return dim, all_roots, [linalg.vec_sub(e[t], e[t + 1]) for t in range(rk)]
    all_roots = [linalg.vec_add(linalg.vec_scale(si, e[i]), linalg.vec_scale(sj, e[j]))
                 for i in range(dim) for j in range(i + 1, dim) for si in (1, -1) for sj in (1, -1)]
    short = {"B": 1, "C": 2, "D": 0}[family]  # the roots +-short e_i; D has none
    all_roots += [linalg.vec_scale(s * short, e[i]) for i in range(dim) for s in (1, -1) if short]
    last = linalg.vec_scale(short, e[-1]) if short else linalg.vec_add(e[-2], e[-1])
    return dim, all_roots, [linalg.vec_sub(e[t], e[t + 1]) for t in range(rk - 1)] + [last]


def reference_system(*factors):
    """The RootSystem of the listed roots, each solved in the base by
    Fraction Gauss-Jordan; every coordinate must be an integer."""
    spec = roots.RootSystemSpec.parse(factors)
    blocks = [family_roots(f, r) for f, r in spec.factors]
    dim = sum(b[0] for b in blocks)
    listed, base, off = [], [], 0
    for bdim, broots, bbase in blocks:
        pad = lambda v: (0,) * off + tuple(v) + (0,) * (dim - off - bdim)
        listed += map(pad, broots)
        base += map(pad, bbase)
        off += bdim
    listed = tuple(sorted(listed))
    solved = [gauss_jordan_solve(tuple(base), v) for v in listed]
    assert all(x is not None and all(q.denominator == 1 for q in x) for x in solved)
    mcoords = tuple(tuple(map(int, x)) for x in solved)
    return roots.RootSystem(
        spec, dim, listed, tuple(listed.index(b) for b in base), tuple(base), mcoords,
        tuple(listed.index(linalg.vec_neg(v)) for v in listed),
        tuple(i for i, c in enumerate(mcoords) if all(x >= 0 for x in c)))


ORACLE_FACTORS = ([((f, k),) for f in "ABC" for k in range(1, 8)]
                  + [(("D", k),) for k in range(2, 8)] + [(("G", 2),)]
                  + [(("A", 2), ("B", 3)), (("G", 2), ("C", 2), ("D", 4)),
                     (("A", 1), ("A", 1), ("A", 1)), (("D", 3), ("G", 2), ("B", 2))])


@pytest.mark.parametrize("factors", ORACLE_FACTORS,
                         ids=["x".join(f"{f}{k}" for f, k in fs) for fs in ORACLE_FACTORS])
def test_closure_of_the_base_equals_the_listed_roots(factors):
    r = sys(*factors)
    assert r == reference_system(*factors)
    # the same closure inside the listed roots, from the same or a generic base
    base = [r.roots[i] for i in r.base_simple_set]
    assert roots.root_system_from_roots(r.roots, r.ambient_dim, base=base) == r._replace(spec=None)
    assert roots.root_system_from_roots(r.roots, r.ambient_dim).roots == r.roots


@pytest.mark.parametrize("factors", [(("D", 5),), (("B", 5),), (("A", 2), ("G", 2))],
                         ids=["D5", "B5", "A2xG2"])
def test_closure_builds_each_root_once(factors, monkeypatch):
    """The closure looks a reflection's mcoords up before it builds the
    ambient vector, so it reflects one vector per root outside the base, not
    one per pair of a root and a simple root with a nonzero pairing."""
    r = sys(*factors)
    calls = []
    vec_sub = linalg.vec_sub
    monkeypatch.setattr(linalg, "vec_sub", lambda a, b: calls.append(1) or vec_sub(a, b))
    assert roots._finish(r.spec, r.ambient_dim, r.root_lattice_basis) == r
    assert len(calls) == len(r.roots) - r.rank


@pytest.mark.parametrize("factors", ORACLE_FACTORS,
                         ids=["x".join(f"{f}{k}" for f, k in fs) for fs in ORACLE_FACTORS])
def test_mcoords_of_root_multiples(factors):
    r = sys(*factors)
    vs = [linalg.vec_scale(a, v) for a in range(-2, 3) for v in r.roots]
    assert roots.mcoords_of_vectors(r, vs) == tuple(
        linalg.vec_scale(a, c) for a in range(-2, 3) for c in r.mcoords)
    if r.rank > 1:
        # mcoords (1, 7, 0, ...): no root has a coefficient 7 (E_8 tops out at 6)
        a, b = (r.roots[i] for i in r.base_simple_set[:2])
        with pytest.raises(NotInSpan, match="not an integer multiple of a root"):
            roots.mcoords_of_vectors(r, [a, linalg.vec_add(a, linalg.vec_scale(7, b))])


def test_mcoords_of_vectors_refuses_other_vectors():
    c2 = sys(("C", 2))
    assert roots.mcoords_of_vectors(c2, []) == ()
    # half the long root 2 e_1, and vectors on no root's line
    for v in [(1, 0), (3, 0), (2, 1), (1, 3)]:
        with pytest.raises(NotInSpan, match=rf"\({v[0]}, {v[1]}\) is not an integer multiple"):
            roots.mcoords_of_vectors(c2, [(1, -1), v])
    # off the span of the roots: A_1 in Z^2, G_2 in the sum-zero plane of Z^3
    for r, v in [(sys(("A", 1)), (1, 1)), (sys(("G", 2)), (1, 1, 1))]:
        with pytest.raises(NotInSpan):
            roots.mcoords_of_vectors(r, [v])


@pytest.mark.parametrize("vectors,base,error,match", [
    # s_a(b) = a + b is missing: the closure leaves the set
    ([(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1)], [(1, -1, 0), (0, 1, -1)],
     NotInSpan, "left the root set"),
    # e1 and e2 are orthogonal, so their reflections never reach e1 + e2
    ([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)], [(1, 0), (0, 1)],
     NotInSpan, r"root \(-1, -1\) is not reached"),
    ([(1, 0), (-1, 0)], [(1, 0), (1, 0)], ValueError, "linearly dependent"),
    ([(1, -1), (-1, 1)], [(1, -1), (1, 1)], NotInSpan, r"base root \(1, 1\) is not in"),
    # e1 - e2 and e1 generate B_2 but are no base of it: s_{e1}(e1 - e2) = -e1 - e2
    ([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)], [(1, -1), (1, 0)],
     NotInSpan, "mixed signs"),
    ([(1, 0), (-1, 0), (1, 2), (-1, -2)], [(1, 0), (1, 2)], NotInSpan, "non-crystallographic"),
])
def test_root_system_from_roots_refusals(vectors, base, error, match):
    with pytest.raises(error, match=match):
        roots.root_system_from_roots(vectors, len(vectors[0]), base=base)


def test_unknown_family_of_a_hand_built_spec():
    with pytest.raises(UnsupportedFamily):
        roots.build_root_system(roots.RootSystemSpec((("E", 6),)))


def test_root_counts():
    assert len(sys(("A", 2)).roots) == 6
    assert len(sys(("A", 1)).roots) == 2
    assert len(sys(("B", 2)).roots) == 8
    assert len(sys(("C", 3)).roots) == 18
    assert len(sys(("D", 4)).roots) == 24
    assert len(sys(("G", 2)).roots) == 12
    assert len(sys(("A", 1), ("A", 1)).roots) == 4


def test_a1_roots():
    r = sys(("A", 1))
    assert set(r.roots) == {(1, -1), (-1, 1)}


def test_unsupported():
    with pytest.raises(UnsupportedFamily):
        roots.RootSystemSpec.parse([("E", 6)])
    with pytest.raises(UnsupportedFamily):
        roots.RootSystemSpec.parse([("F", 4)])
    with pytest.raises(ValueError):
        roots.RootSystemSpec.parse([("D", 1)])
    with pytest.raises(ValueError):
        roots.RootSystemSpec.parse([("G", 3)])


@pytest.mark.parametrize(
    "factors,count",
    [
        ((("A", 1),), 2),
        ((("A", 2),), 6),
        ((("A", 3),), 24),
        ((("B", 2),), 8),
        ((("B", 3),), 48),
        ((("C", 3),), 48),
        ((("D", 4),), 192),
        ((("G", 2),), 12),
        ((("A", 1), ("A", 1)), 4),
    ],
)
def test_simple_set_counts_match_weyl_order(factors, count):
    r = sys(*factors)
    sets = simple_sets(r)
    assert len(sets) == count == weyl_order(r.spec)
    assert len(set(sets)) == len(sets)


def test_negation_bijection():
    for factors in [(("A", 3),), (("B", 2),), (("G", 2),)]:
        r = sys(*factors)
        assert sorted(r.neg) == list(range(len(r.roots)))
        for i, j in enumerate(r.neg):
            assert linalg.vec_add(r.roots[i], r.roots[j]) == (0,) * r.ambient_dim


def test_simple_sets_are_unimodular_bases():
    for factors in [(("A", 3),), (("B", 2),), (("C", 2),), (("D", 3),), (("G", 2),)]:
        r = sys(*factors)
        for s in simple_sets(r):
            basis = tuple(r.mcoords[i] for i in s)
            assert abs(bareiss_det(basis)) == 1


def test_every_root_in_span_of_every_simple_set():
    for factors in [(("A", 2),), (("B", 2),), (("G", 2),)]:
        r = sys(*factors)
        for s in simple_sets(r):
            exp = simple_set_expansions(r, s)
            for x in exp:
                assert all(v >= 0 for v in x) or all(v <= 0 for v in x)


def test_positive_root_expansion_examples():
    r = sys(("A", 2))
    alpha = r.root_index((1, -1, 0))
    beta = r.root_index((0, 1, -1))
    gamma = r.root_index((1, 0, -1))
    s = tuple(sorted((alpha, beta)))
    exp = simple_set_expansions(r, s)[gamma]
    # gamma = alpha + beta, coefficients ordered by the sorted simple set
    assert exp == (1, 1)
    assert simple_set_expansions(r, s)[alpha] in ((1, 0), (0, 1))

    b = sys(("B", 2))
    s = tuple(sorted((b.root_index((1, -1)), b.root_index((0, 1)))))
    e1e2 = b.root_index((1, 1))
    exp = simple_set_expansions(b, s)[e1e2]
    # e1+e2 = (e1-e2) + 2 e2
    coeffs = dict(zip(s, exp))
    assert coeffs[b.root_index((1, -1))] == 1
    assert coeffs[b.root_index((0, 1))] == 2


def simple_set_expansions(r, s):
    """Every root's coefficients on the roots s, in the order of s, read off
    ``roots.chart_walk``: u(beta)'s mcoords at the labels of s."""
    u, labels = roots.chart_walk(r, s)
    return tuple(tuple(r.mcoords[b][k] for k in labels) for b in u)


def expansions_by_inverse(r, s):
    """Every root's coefficients on the roots s, from the inverse of their
    mcoords matrix; ValueError when that matrix is not unimodular or a root
    has a mixed-sign expansion.  The oracle for ``simple_set_expansions``."""
    inv = int_inverse(tuple(r.mcoords[i] for i in s))
    out = tuple(linalg.vec_matmul(c, inv) for c in r.mcoords)
    if any(min(x) < 0 < max(x) for x in out):
        raise ValueError(f"mixed-sign expansion in {s}")
    return out


EXPANSION_FACTORS = [(("A", 3),), (("B", 3),), (("C", 3),), (("D", 4),), (("G", 2),),
                     (("A", 1), ("B", 2))]
EXPANSION_IDS = ["x".join(f"{f}{k}" for f, k in fs) for fs in EXPANSION_FACTORS]


@pytest.mark.parametrize("factors", EXPANSION_FACTORS, ids=EXPANSION_IDS)
def test_descend_steps_cross_the_root_of_their_label(factors):
    """Each root a that ``descend`` crosses is the first wrong member of S
    in label order, and S ends in label order, as the S of its chamber in
    ``chamber_orbit``.  From S back across its negative members, the walk
    ends at the base set in label order."""
    r = sys(*factors)
    table, positive = roots.reflection_table(r), set(r.positive)
    label_order = {tuple(sorted(s)): s for s, _ in roots.chamber_orbit(r)[1]}
    rng = random.Random(len(label_order))
    for _ in range(40):
        v = tuple(rng.randint(-3, 3) for _ in range(r.rank))
        wrong = lambda a: linalg.vec_dot(r.mcoords[a], v) < 0
        s, crossed = roots.descend(r, wrong)
        t = r.base_simple_set
        for a in crossed:
            assert a == next(b for b in t if wrong(b))
            t = tuple(table[a][b] for b in t)
        assert t == s == label_order[tuple(sorted(s))]
        assert not any(map(wrong, s))
        back, _ = roots.descend(r, lambda a: a not in positive, s)
        assert back == r.base_simple_set


@pytest.mark.parametrize("factors", EXPANSION_FACTORS, ids=EXPANSION_IDS)
def test_expansions_equal_the_inverse_oracle_on_every_chamber(factors):
    """Sorted and reversed: the walk back to the base keeps the order of s."""
    r = sys(*factors)
    for s in simple_sets(r):
        for t in (s, s[::-1]):
            assert simple_set_expansions(r, t) == expansions_by_inverse(r, t), t


@pytest.mark.parametrize("factors", EXPANSION_FACTORS + [(("A", 2),), (("B", 2),)],
                         ids=EXPANSION_IDS + ["A2", "B2"])
def test_expansions_refuse_exactly_the_sets_the_oracle_refuses(factors):
    """Random tuples of roots, repeats allowed, most of length n, and each
    chamber's set in a random order with one root sometimes replaced: the
    walk accepts a tuple exactly when the inverse oracle does, with the same
    table.  Every kind of refusal occurs."""
    r = sys(*factors)
    rng = random.Random(1789)
    chambers = simple_sets(r)
    kinds = set()
    for _ in range(600):
        if rng.random() < 0.5:
            s = list(rng.choice(chambers))
            rng.shuffle(s)
            if rng.random() < 0.5:
                s[rng.randrange(r.rank)] = rng.randrange(len(r.roots))
        else:
            size = r.rank + rng.choice([0, 0, 0, 0, 0, 0, -1, 1])
            s = [rng.randrange(len(r.roots)) for _ in range(size)]
        s = tuple(s)
        try:
            want = expansions_by_inverse(r, s)
        except ValueError as e:
            kinds.add("repeated" if len(set(s)) < len(s)
                      else "singular" if "determinant 0 " in str(e) else str(e).split()[0])
            with pytest.raises(NotInSpan, match="are not a simple set"):
                simple_set_expansions(r, s)
        else:
            kinds.add("accepted")
            assert simple_set_expansions(r, s) == want, s
    assert {"accepted", "repeated", "singular", "mixed-sign", "matrix"} <= kinds


def test_additive_triples():
    assert roots.additive_triples(sys(("A", 1))) == ()
    r = sys(("A", 2))
    triples = roots.additive_triples(r)
    assert len(triples) == 6
    for i, j, k in triples:
        assert linalg.vec_add(r.roots[i], r.roots[j]) == r.roots[k]
    b = sys(("B", 2))
    found = any(
        {b.roots[i], b.roots[j]} == {(1, -1), (0, 1)} and b.roots[k] == (1, 0)
        for i, j, k in roots.additive_triples(b)
    )
    assert found


def triples_by_sum(r):
    """Every pair i < j whose ambient sum is a root, one vector sum each: the
    oracle for ``roots.additive_triples``."""
    index = {v: i for i, v in enumerate(r.roots)}
    return tuple((i, j, index[w]) for i, vi in enumerate(r.roots)
                 for j in range(i + 1, len(r.roots))
                 if (w := linalg.vec_add(vi, r.roots[j])) in index)


TRIPLE_FACTORS = ([(("A", n),) for n in range(1, 5)] + [(("B", n),) for n in range(2, 5)]
                  + [(("C", 3),), (("D", 4),), (("G", 2),), (("A", 1), ("B", 2))])
TRIPLE_IDS = ["x".join(f"{f}{k}" for f, k in fs) for fs in TRIPLE_FACTORS]


@pytest.mark.parametrize("factors", TRIPLE_FACTORS, ids=TRIPLE_IDS)
def test_additive_triples_equal_the_vector_sum_oracle(factors):
    """The same triples in the same order; G_2 has mcoords up to 3."""
    r = sys(*factors)
    assert roots.additive_triples(r) == triples_by_sum(r)


def test_additive_triples_of_the_empty_subsystem():
    """The roots orthogonal to a maximal cone: no roots, no triples, no steps."""
    r = sys(("B", 2))
    f = fans.weyl_chamber_fan(r)
    sub = fans.orbit_closure(r, f, f.max_cones[0]).subsystem
    assert sub.roots == () and roots.additive_triples(sub) == triples_by_sum(sub) == ()
    assert roots.positive_steps(sub) == ()


@pytest.mark.parametrize("factors", TRIPLE_FACTORS, ids=TRIPLE_IDS)
def test_positive_steps_build_each_root_from_its_parent(factors):
    """Each positive root once, as parent + alpha_k with the parent listed
    before it and k the smallest label that has one, or as the simple root
    alpha_k itself."""
    r = sys(*factors)
    steps = roots.positive_steps(r)
    assert sorted(b for b, _, _ in steps) == list(r.positive)
    positive = {r.roots[i] for i in r.positive}
    seen = set()
    for b, parent, k in steps:
        simple = r.root_lattice_basis[k]
        if parent is None:
            assert r.roots[b] == simple
        else:
            assert parent in seen and linalg.vec_add(r.roots[parent], simple) == r.roots[b]
            assert not any(linalg.vec_sub(r.roots[b], a) in positive
                           for a in r.root_lattice_basis[:k])
        seen.add(b)


def test_dynkin_components():
    r = sys(("A", 3))
    s = r.base_simple_set
    assert len(roots.dynkin_components(r, s)) == 1
    # remove the middle simple root: the two ends are orthogonal
    mids = [i for i in s if r.roots[i] == (0, 1, -1, 0)]
    rest = tuple(i for i in s if i not in mids)
    assert len(roots.dynkin_components(r, rest)) == 2
    prod = sys(("A", 1), ("A", 1))
    assert len(roots.dynkin_components(prod, prod.base_simple_set)) == 2


def test_derived_system_roundtrip():
    r = sys(("A", 2))
    again = roots.root_system_from_roots(r.roots, r.ambient_dim)
    assert again.roots == r.roots
    assert len(simple_sets(again)) == 6


def test_zero_root_is_refused_at_once():
    """No functional is nonzero on the zero vector, so the search for a
    generic base would never end: the zero root is refused before it.  Run in
    a new process with a timeout, so that a hang fails the test."""
    code = ("from weylfan import roots\n"
            "try:\n"
            "    roots.root_system_from_roots([(0, 0), (1, 0), (-1, 0)], 2)\n"
            "except ValueError as e:\n"
            "    print(e)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "the zero vector is not a root\n", "")


def reflection_table_by_vectors(r):
    """table[a][b] = index of s_{root a}(root b), every pair reflected as
    vectors: the oracle for the conjugation walk of ``roots.reflection_table``."""
    idx = {v: i for i, v in enumerate(r.roots)}
    return tuple(tuple(idx[linalg.vec_sub(vb, linalg.vec_scale(roots._pairing(vb, va), va))]
                       for vb in r.roots)
                 for va in r.roots)


def orbit_closure_subsystems():
    """The root subsystems of ``fans.orbit_closure`` for the rays and the
    two-ray faces of a few chambers of B_3 and A_2 x B_2: derived systems with
    no spec, and the empty system of a maximal cone."""
    out = []
    for factors in [(("B", 3),), (("A", 2), ("B", 2))]:
        r = sys(*factors)
        f = fans.weyl_chamber_fan(r)
        for tau in [(i,) for i in range(len(f.rays))] + [c[:2] for c in f.max_cones[:8]] + [
                f.max_cones[0]]:
            out.append(fans.orbit_closure(r, f, tau).subsystem)
    return out


@pytest.mark.parametrize("factors", ORACLE_FACTORS + [None, "orbit"],
                         ids=["x".join(f"{f}{k}" for f, k in fs) for fs in ORACLE_FACTORS]
                         + ["derived-B3", "orbit-closures"])
def test_reflection_table_equals_vector_reflections(factors):
    if factors == "orbit":
        systems = orbit_closure_subsystems()
    elif factors is None:
        systems = [roots.root_system_from_roots(sys(("B", 3)).roots, 3)]
    else:
        systems = [sys(*factors)]
    for r in systems:
        assert roots.reflection_table(r) == reflection_table_by_vectors(r)


@pytest.mark.parametrize("factors", [(("A", 5),), (("B", 4),), (("G", 2), ("D", 4))],
                         ids=["A5", "B4", "G2xD4"])
def test_reflection_table_reflects_only_simple_roots(factors, monkeypatch):
    """The only pairings are the n^2 of the Cartan matrix: the simple rows are
    read off the mcoords, the others by conjugation.  Reflecting each root in
    each simple root would take n |Phi|, and every pair |Phi|^2."""
    r = sys(*factors)
    calls = []
    pairing = roots._pairing
    monkeypatch.setattr(roots, "_pairing", lambda b, a: calls.append(1) or pairing(b, a))
    table = roots.reflection_table.__wrapped__(r)
    assert len(calls) <= r.rank ** 2 < r.rank * len(r.roots)
    assert table == reflection_table_by_vectors(r)


def test_reflection_table_keeps_the_refusal():
    """A simple reflection that leaves the root set is refused, as when every
    pair was reflected: an A_2 without the pair of alpha_1 + alpha_2, taken out
    of every per-root field (roots, mcoords, neg and positive) together."""
    a2 = sys(("A", 2))
    keep = [i for i, v in enumerate(a2.roots) if v not in ((1, 0, -1), (-1, 0, 1))]
    kept = tuple(a2.roots[i] for i in keep)
    broken = a2._replace(roots=kept,
                         base_simple_set=tuple(map(kept.index, a2.root_lattice_basis)),
                         mcoords=tuple(a2.mcoords[i] for i in keep),
                         neg=tuple(kept.index(linalg.vec_neg(v)) for v in kept),
                         positive=tuple(keep.index(i) for i in a2.positive if i in keep))
    assert (1, 1) not in broken.mcoords and len(broken.positive) == 2
    with pytest.raises(NotInSpan, match=r"of \(0, -1, 1\) in \(1, -1, 0\) left the root set"):
        roots.reflection_table.__wrapped__(broken)


@pytest.mark.parametrize("factors", ORACLE_FACTORS + [None],
                         ids=["x".join(f"{f}{k}" for f, k in fs) for fs in ORACLE_FACTORS]
                         + ["derived-B3"])
def test_coroots_equal_the_pairings(factors):
    """The coroots that ``chamber_orbit`` crosses walls with, read off the
    reflection table by heights, are the ambient pairings <beta_j, a^vee>."""
    r = sys(*factors) if factors else roots.root_system_from_roots(sys(("B", 3)).roots, 3)
    assert roots._coroots(r) == [tuple(roots._pairing(r.roots[b], va) for b in r.base_simple_set)
                                 for va in r.roots]


def test_coroots_refuse_a_remainder(monkeypatch):
    """A coroot entry that is not an integer raises; it is not rounded.  The
    table is broken so that s_a(alpha_1) has height 2 for a = alpha_1 + alpha_2
    of height 2: the entry would be (1 - 2) / 2."""
    r = sys(("A", 2))
    a, b = r.mcoords.index((1, 1)), r.base_simple_set[0]
    table = [list(row) for row in roots.reflection_table(r)]
    table[a][b] = a
    monkeypatch.setattr(roots, "reflection_table", lambda r: table)
    roots._coroots.cache_clear()  # so that the broken table is read
    with pytest.raises(NotInSpan, match="non-crystallographic pairing"):
        roots._coroots(r)


@pytest.mark.parametrize("factors", [(("D", 5),), (("G", 2), ("B", 2))], ids=["D5", "G2xB2"])
def test_value_equal_systems_hash_equal(factors):
    """A system caches its hash, and a value-equal copy, built apart, hashes
    as the system and as the plain tuple of its fields do, so every cache
    keyed on a system finds it."""
    r = sys(*factors)
    base = [r.roots[i] for i in r.base_simple_set]
    rebuilt = roots.root_system_from_roots(r.roots, r.ambient_dim, base=base)
    for x, y in [(r, r._replace()), (r._replace(spec=None), rebuilt)]:
        assert x is not y and x == y and hash(x) == hash(y) == hash(tuple(x)) == hash(tuple(y))
        roots.reflection_table(x)
        before = roots.reflection_table.cache_info()
        assert roots.reflection_table(y) is roots.reflection_table(x)
        after = roots.reflection_table.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


def test_a_pickled_system_hashes_afresh():
    """str hashes differ between processes, so a pickle carries the fields
    and not the cached hash."""
    r = sys(("B", 3))
    hash(r)
    copy = pickle.loads(pickle.dumps(r))
    assert copy == r and type(copy) is roots.RootSystem and vars(copy) == {}
    assert hash(copy) == hash(r) == hash(tuple(r))
