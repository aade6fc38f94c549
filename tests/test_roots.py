import os
import subprocess
from pathlib import Path
from sys import executable

import pytest

from weylfan import linalg, roots
from weylfan.errors import NotInSpan, UnsupportedFamily


def sys(*factors):
    return roots.build_root_system(roots.RootSystemSpec.parse(factors))


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
    ``linalg.solve_left``."""
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
    mcoords = tuple(linalg.solve_left(tuple(base), listed))
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
    sets = roots.enumerate_simple_root_sets(r)
    assert len(sets) == count == roots.weyl_order(r.spec)
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
        for s in roots.enumerate_simple_root_sets(r):
            basis = tuple(r.mcoords[i] for i in s)
            assert abs(linalg.det(basis)) == 1


def test_every_root_in_span_of_every_simple_set():
    for factors in [(("A", 2),), (("B", 2),), (("G", 2),)]:
        r = sys(*factors)
        for s in roots.enumerate_simple_root_sets(r):
            exp = roots.simple_set_expansions(r, s)
            for x in exp:
                assert all(v >= 0 for v in x) or all(v <= 0 for v in x)


def test_positive_root_expansion_examples():
    r = sys(("A", 2))
    alpha = r.root_index((1, -1, 0))
    beta = r.root_index((0, 1, -1))
    gamma = r.root_index((1, 0, -1))
    s = tuple(sorted((alpha, beta)))
    exp = roots.simple_set_expansions(r, s)[gamma]
    # gamma = alpha + beta, coefficients ordered by the sorted simple set
    assert exp == (1, 1)
    assert roots.simple_set_expansions(r, s)[alpha] in ((1, 0), (0, 1))

    b = sys(("B", 2))
    s = tuple(sorted((b.root_index((1, -1)), b.root_index((0, 1)))))
    e1e2 = b.root_index((1, 1))
    exp = roots.simple_set_expansions(b, s)[e1e2]
    # e1+e2 = (e1-e2) + 2 e2
    coeffs = dict(zip(s, exp))
    assert coeffs[b.root_index((1, -1))] == 1
    assert coeffs[b.root_index((0, 1))] == 2


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
    assert len(roots.enumerate_simple_root_sets(again)) == 6


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
