"""The benchmark's workloads: seeded inputs, the timed operations, and the
check of every output against an answer from ``oracles``.

``build(workload, seed, batch)`` returns a list of ``Op``.  Building the
list does no library work and touches no library cache: inputs are made
from the seed with the oracles' own root systems.  ``Op.run`` is the timed
call; ``Op.check(result, results)`` runs after the timed region, with the
results of all operations of the pass by name, and returns True when the
output is correct.  An operation that raises has failed; its check is not
called.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from typing import Any, Callable, NamedTuple

import oracles
from weylfan import chains, cli, fans, rdata, roots, typea
from weylfan.rdata import ProjectiveRatio, RData

WORKLOADS = ("chambers", "points", "cohomology", "cli")

# CLI calls whose output today breaks the contract that tests/test_cli.py or
# the exit-code rule (0, 1 or 2, never a traceback) states.  They stay in the
# workload; a fix shows as a rise of ok_ratio on `cli`.
KNOWN_DEFECTS = ("reduce", "lm-extract", "lm-orbit-type", "lm-type-empty",
                 "lm-universal-no-n")

# Cold ladder ordered by Weyl group order, from 12 (G2) to 5040 (A6).
LADDER = ((("G", 2),), (("A", 3),), (("B", 3),), (("A", 2), ("B", 2)), (("A", 4),),
          (("D", 4),), (("B", 4),), (("C", 4),), (("A", 5),), (("D", 5),), (("B", 5),),
          (("A", 6),))
ORBIT_SYSTEMS = ((("B", 3),), (("A", 2), ("B", 2)), (("D", 4),), (("A", 5),))

# (system, chart points, corrupted points) per pass of `points`.  The first
# point of a stream with chart points is the fixed point of the base chart,
# which rdata_to_point reaches only after scanning every chamber: each pass
# fills the chart caches completely, so the fill cost does not depend on
# where the seed puts the other charts.  The other points scan the filled
# charts up to their first admissible one; D5, with the longest such scans,
# has enough of them that the tail latency is a stable order statistic of
# its scans.  A6 and B5 get points with no zero coordinate only, whose first
# chart in canonical order is admissible; a full scan of A6 alone would take
# a whole pass.
POINT_STREAMS = (((("D", 5),), 20, 2), ((("A", 5),), 12, 2), ((("C", 4),), 12, 2),
                 ((("G", 2),), 12, 2), ((("A", 2), ("B", 2)), 12, 2),
                 ((("A", 6),), 0, 4), ((("B", 5),), 0, 4))
CHAIN_ROUND_TRIPS = ((5, 10), (7, 10))


class Op(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], bool]


def build(workload, seed, batch):
    rng = random.Random(f"{workload}:{seed}:{batch}")
    return {"chambers": chambers, "points": points, "cohomology": cohomology,
            "cli": cli_ops}[workload](rng)


def label(factors):
    return "x".join(f"{f}{n}" for f, n in factors)


def _is(expected):
    return lambda out, _: out == expected


# -- chambers ---------------------------------------------------------------------

def chambers(rng):
    ops = []
    made = {}
    for factors in LADDER:
        name, rd = label(factors), oracles.RootData(factors)
        system = lambda name=name: made[name]
        fan = lambda name=name: made[f"fan:{name}"]
        ops += [
            Op(f"build:{name}", _keep(made, name, lambda factors=factors: roots.build_root_system(
                roots.RootSystemSpec.parse(factors))), _system_check(rd)),
            Op(f"fan:{name}", _keep(made, f"fan:{name}", lambda system=system: (
                fans.weyl_chamber_fan(system()))), _fan_check(factors)),
            Op(f"complete:{name}", lambda fan=fan: fans.check_complete(fan()), _is(True)),
            Op(f"smooth:{name}", lambda fan=fan: fans.check_smooth(fan()), _is(True)),
            Op(f"relations:{name}", lambda system=system: rdata.verify_relation_generation(
                system()), _is(True)),
        ]
        if factors in ORBIT_SYSTEMS:
            rank = len(rd.base)
            for k in range(2):
                nodes = sorted(rng.sample(range(rank), 1 + k))
                ops.append(Op(f"orbit{k}:{name}", _orbit_runner(system, fan, nodes, rank),
                              _orbit_check(rd, nodes)))
    for n in (2, 3):
        ops.append(Op(f"universal:{n}", lambda n=n: chains.universal_curve_structure(n),
                      _universal_check(n)))
    return ops


def _keep(made, key, make):
    """An operation that also stores its result for later operations."""
    def run():
        made[key] = make()
        return made[key]
    return run


def _system_check(rd):
    return lambda r, _: set(r.roots) == set(rd.roots) and r.rank == len(rd.base)


def _fan_check(factors):
    return lambda f, _: (len(f.max_cones), len(f.rays)) == (
        oracles.weyl_order(factors), oracles.ray_count(factors))


def _orbit_runner(system, fan, nodes, rank):
    """Orbit closure and opposite sections of a face of the base chamber.

    In coordinates dual to the base, the base chamber's rays are the unit
    vectors, so the face is given by the nodes it keeps.
    """
    def run():
        r, f = system(), fan()
        tau = tuple(sorted(f.ray_index(tuple(int(i == k) for i in range(rank)))
                           for k in nodes))
        return r, f, fans.orbit_closure(r, f, tau), fans.opposite_sections(r, tau)
    return run


def _orbit_check(rd, nodes):
    inv = oracles.gram_inverse(rd.base)
    coeffs = {v: oracles.coefficients(v, rd.base, inv) for v in rd.roots}
    pairing = {v: sum(c[k] for k in nodes) for v, c in coeffs.items()}
    orth = sorted(v for v, c in coeffs.items() if all(c[k] == 0 for k in nodes))

    def check(out, _):
        r, f, orbit, sec = out
        vecs = lambda idx: sorted(r.roots[i] for i in idx)
        minus = sorted(f.rays[i] for i in sec.minus_cone)
        return (vecs(orbit.subsystem_root_indices) == orth
                and len(orbit.charts) == oracles.weyl_order_of_roots(orth)
                and len(orbit.factors) == len(oracles.components(orth))
                and vecs(sec.plus_vanishing) == sorted(v for v in rd.roots if pairing[v] > 0)
                and vecs(sec.minus_vanishing) == sorted(v for v in rd.roots if pairing[v] < 0)
                and minus == sorted(tuple(-int(i == k) for i in range(len(rd.base)))
                                    for k in nodes))
    return check


def _universal_check(n):
    def check(uc, _):
        counts = list(uc.fiber_counts.values())
        return (sum(counts) == factorial(n + 2) and len(counts) == factorial(n + 1)
                and set(counts) == {n + 2})
    return check


# -- points -----------------------------------------------------------------------

def points(rng):
    ops = []
    systems = {}
    for factors, count, corrupted in POINT_STREAMS:
        rd = oracles.RootData(factors)
        name = label(factors)
        if count:
            base_point = [Fraction(0)] * len(rd.base)
            ops.append(Op(f"point:{name}", _point_runner(systems, factors, rd.base, base_point),
                          _point_check(rd, rd.base, base_point)))
        for k in range(count - 1):
            chart = rd.random_chart(rng, 2 * len(rd.positive) + 1)
            coords = [_random_coord(rng, 0.25) for _ in chart]
            ops.append(Op(f"point:{name}", _point_runner(systems, factors, chart, coords),
                          _point_check(rd, chart, coords)))
        for k in range(corrupted):
            chart = rd.random_chart(rng, 2 * len(rd.positive) + 1)
            coords = [_random_coord(rng, 0.0) for _ in chart]
            target = rd.positive[rng.randrange(len(rd.positive))]
            ops.append(Op(f"corrupt:{name}",
                          _corrupt_runner(systems, factors, chart, coords, target),
                          _corrupt_check(rd, chart, coords, target)))
    for n, count in CHAIN_ROUND_TRIPS:
        for _ in range(count):
            ops.append(Op(f"chain:{n}", _chain_runner(n, rng.randrange(2 ** 32)),
                          _chain_check))
    return ops


def _random_coord(rng, zero_prob):
    if rng.random() < zero_prob:
        return Fraction(0)
    return Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randrange(1, 6))


def _system(systems, factors):
    if factors not in systems:
        systems[factors] = roots.build_root_system(roots.RootSystemSpec.parse(factors))
    return systems[factors]


def _chart_point(r, chart, coords):
    return rdata.chart_point_from_json(
        r, {"chart": [list(v) for v in chart], "coords": [str(x) for x in coords]})


def _point_runner(systems, factors, chart, coords):
    def run():
        r = _system(systems, factors)
        d = rdata.universal_rdata_at(r, _chart_point(r, chart, coords))
        violations = rdata.validate_rdata(r, d)
        q = rdata.rdata_to_point(r, d)
        return r, d, violations, q, rdata.universal_rdata_at(r, q) == d
    return run


def _ratios_match(r, d, expected):
    got = {r.roots[i]: (t.num, t.den) for i, t in d.ratios}
    return got.keys() == expected.keys() and all(
        oracles.same_ratio(got[v], expected[v]) for v in got)


def _point_check(rd, chart, coords):
    def check(out, _):
        r, d, violations, q, round_trip = out
        back = oracles.universal_ratios(rd, [r.roots[i] for i in q.chart], q.coords)
        return (violations == [] and round_trip
                and _ratios_match(r, d, oracles.universal_ratios(rd, chart, coords))
                and _ratios_match(r, d, back))
    return check


def _corrupt_runner(systems, factors, chart, coords, target):
    """Double the first component of one ratio of a point with no zero
    coordinate; every ratio is then finite and nonzero, so each triple
    through the changed pair must fail."""
    def run():
        r = _system(systems, factors)
        d = rdata.universal_rdata_at(r, _chart_point(r, chart, coords)).as_dict()
        i = r.root_index(target)
        d[i] = ProjectiveRatio.of(2 * d[i].num, d[i].den)
        return r, rdata.validate_rdata(r, RData.of(d))
    return run


def _corrupt_check(rd, chart, coords, target):
    def check(out, _):
        r, violations = out
        ratios = oracles.universal_ratios(rd, chart, coords)
        num, den = ratios[target]
        ratios[target] = (2 * num, den)
        expected = oracles.violated_triples(rd, ratios)
        got = {(frozenset((r.roots[i], r.roots[j])), r.roots[k]) for i, j, k in violations}
        return bool(expected) and got == expected
    return check


def _chain_runner(n, seed):
    def run():
        c = chains.random_marked_chain(n, random.Random(seed))
        data = chains.data_from_chain(c)
        violations = chains.validate_an_data(n, data)
        c2 = chains.chain_from_data(data, c.labels)
        return c, data, violations, c2, chains.chains_isomorphic(c, c2)
    return run


def _chain_check(out, _):
    c, data, violations, c2, isomorphic = out
    coords = lambda ch: {i: (p.num, p.den) for i, p in ch.coords}
    expected = oracles.chain_pair_ratios(c.ctype.blocks, coords(c))
    return (violations == [] and isomorphic and data.keys() == expected.keys()
            and all(oracles.same_ratio((t.num, t.den), expected[k]) for k, t in data.items())
            and oracles.chains_equivalent(c.ctype.blocks, coords(c),
                                          c2.ctype.blocks, coords(c2)))


# -- cohomology --------------------------------------------------------------------

def cohomology(rng):
    ops = []
    for n in (4, 5):
        ops.append(Op(f"anticanonical:{n}", lambda n=n: _anticanonical_power(n),
                      _anticanonical_check(n)))
    for n in (5, 6):
        for k in range(5):
            coeffs = _random_divisor(rng, n)
            ops.append(Op(f"divisor:{n}", lambda c=coeffs, n=n: (
                typea.is_nef(c, n), typea.nef_oracle(c, n), typea.is_ample(c, n)),
                _divisor_check(coeffs, n)))
    for n in (3, 4):
        ops.append(Op(f"polytope:{n}", lambda n=n: typea.delta_polytope(n),
                      _polytope_check(n)))
    for n in range(2, 7):
        rays = 2 ** (n + 1) - 2
        ops += [
            Op(f"betti:{n}", lambda n=n: list(typea.betti_numbers(n)),
               _is(oracles.eulerian_row(n + 1))),
            Op(f"basis:{n}", lambda n=n: typea.descent_basis(n),
               lambda out, _, n=n: len(set(out)) == len(out) == factorial(n + 1)),
            Op(f"primcol:{n}", lambda n=n: len(typea.primitive_collections(n)),
               _is(oracles.primitive_collection_count(n))),
            Op(f"sigma-delta:{n}", lambda n=n: typea.sigma_delta_fan(n),
               _fan_shape(rays, n * (n + 1))),
            Op(f"crepant:{n}", lambda n=n: typea.crepant_subdivision(n),
               _fan_shape(rays, factorial(n + 1))),
        ]
    return ops


def _anticanonical_power(n):
    """(-K)^n, -K the sum of all boundary divisors, by repeated products."""
    anti = {(a,): 1 for a in range(1, 2 ** (n + 1) - 1)}
    power = {(): 1}
    for _ in range(n):
        product = {}
        for c1, v1 in power.items():
            for c2, v2 in anti.items():
                for c3, v3 in typea.multiply(c1, c2, n).items():
                    product[c3] = product.get(c3, 0) + v1 * v2 * v3
        power = {c: v for c, v in product.items() if v}
    return power


def _anticanonical_check(n):
    return lambda out, _: [(len(c), v) for c, v in out.items()] == [(n, comb(2 * n, n))]


def _random_divisor(rng, n):
    """a_A = s |A| (n+1-|A|) plus noise in {-1, 0, 1}: a strictly concave
    function of |A| is ample, and the noise makes some divisors not nef."""
    m = n + 1
    scale = rng.choice((1, 2))
    return {a: scale * bin(a).count("1") * (m - bin(a).count("1")) + rng.choice((-1, 0, 0, 1))
            for a in range(1, 2 ** m - 1)}


def _divisor_check(coeffs, n):
    nef, ample = oracles.pairwise_nef(coeffs, n), oracles.pairwise_nef(coeffs, n, strict=True)
    return _is((nef, nef, ample))


def _polytope_check(n):
    want = oracles.polytope_expectations(n)

    def check(info, _):
        return (len(info.vertices) == want["vertices"]
                and len(info.lattice_points) == want["lattice_points"]
                and list(info.interior_points) == want["interior_points"]
                and info.is_reflexive is want["is_reflexive"]
                and len(info.polar_vertices) == want["polar_vertices"])
    return check


def _fan_shape(rays, cones):
    return lambda f, _: (len(f.rays), len(f.max_cones)) == (rays, cones)


# -- cli --------------------------------------------------------------------------

A2_DATA = {"pairs": [
    {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
    {"positive_root": [0, 1, -1], "ratio": ["2", "1"]},
    {"positive_root": [1, 0, -1], "ratio": ["2", "1"]},
]}
A2_BAD = {"pairs": [
    {"positive_root": [1, -1, 0], "ratio": ["1", "1"]},
    {"positive_root": [0, 1, -1], "ratio": ["2", "1"]},
    {"positive_root": [1, 0, -1], "ratio": ["1", "1"]},
]}


class CliCall(NamedTuple):
    name: str
    argv: list
    check: Callable[[Any, dict], bool]


def cli_calls(rng):
    """About thirty calls covering all 14 verbs at small sizes, with error paths."""
    fam, rank = rng.choice((("B", 3), ("C", 3), ("D", 4), ("B", 4)))
    betti_n = rng.randrange(2, 6)
    rd = oracles.RootData((("A", 3),))
    chart = rd.random_chart(rng, 2 * len(rd.positive) + 1)
    coords = [_random_coord(rng, 0.25) for _ in chart]
    ratios = oracles.universal_ratios(rd, chart, coords)
    pairs = lambda rs: {"pairs": [{"positive_root": list(v), "ratio": [str(p), str(q)]}
                                  for v, (p, q) in sorted(rs.items())]}
    point = {"chart": [list(v) for v in chart], "coords": [str(x) for x in coords]}
    generic = [_random_coord(rng, 0.0) for _ in chart]
    bad = oracles.universal_ratios(rd, chart, generic)
    target = rd.positive[rng.randrange(len(rd.positive))]
    bad[target] = (2 * bad[target][0], bad[target][1])
    divisor_n = rng.choice((2, 3))
    divisor = _random_divisor(rng, divisor_n)
    divisor_json = {"coeffs": [{"subset": [k + 1 for k in range(divisor_n + 1) if a >> k & 1],
                                "a": v} for a, v in sorted(divisor.items())]}
    # The chain that `lm from-data` builds from A2_DATA.
    chain_json = {"n": 2, "blocks": [[1, 2, 3]], "coords": [
        {"i": 1, "pos": ["1", "1"]}, {"i": 2, "pos": ["1", "1"]}, {"i": 3, "pos": ["1", "2"]}]}
    js = json.dumps
    calls = [
        ("fan-a3", ["fan", "--type", "A", "--rank", "3"],
         _json(lambda o: (len(o["rays"]), len(o["max_cones"])) == (14, 24))),
        ("fan-a1xa1", ["fan", "--factors", js([{"family": "A", "rank": 1}] * 2)],
         _json(lambda o: len(o["max_cones"]) == 4)),
        ("fan-seeded", ["fan", "--type", fam, "--rank", str(rank)],
         _json(lambda o: (len(o["rays"]), len(o["max_cones"])) == (
             oracles.ray_count([(fam, rank)]), oracles.weyl_order([(fam, rank)])))),
        ("fan-e6", ["fan", "--type", "E", "--rank", "6"],
         _json(lambda o: o["error"] == "UnsupportedFamily", code=1)),
        ("usage-error", ["definitely-not-a-verb"], _exit(2)),
        ("morphism-sub", ["morphism", "--type", "A", "--rank", "2", "--sub-roots", "[[1,-1,0]]"],
         _json(lambda o: len(o["target_fan"]["rays"]) == 2 and len(o["cone_image"]) == 6)),
        ("morphism-embed", ["morphism", "--type", "A", "--rank", "2", "--embed-products"],
         _json(lambda o: o["kernel"] == [[1, 1, -1]] and len(o["charts"]) == 8)),
        ("orbit-a2", ["orbit", "--type", "A", "--rank", "2", "--cone", "[[1,0]]"],
         _json(lambda o: sorted(map(tuple, o["subsystem_roots"])) == [(0, -1, 1), (0, 1, -1)]
               and o["opposite"]["minus_cone"] == [[-1, 0]])),
        ("rdata-validate", ["rdata", "validate", "--type", "A", "--rank", "3",
                            "--data-json", js(pairs(ratios))],
         _json(lambda o: o == {"ok": True, "violations": []})),
        ("rdata-validate-bad", ["rdata", "validate", "--type", "A", "--rank", "3",
                                "--data-json", js(pairs(bad))],
         _json(lambda o: o["ok"] is False and {
             (frozenset(map(tuple, t[:2])), tuple(t[2])) for t in o["violations"]}
             == oracles.violated_triples(rd, bad))),
        ("rdata-to-point", ["rdata", "to-point", "--type", "A", "--rank", "3",
                            "--data-json", js(pairs(ratios))],
         _json(lambda o: all(oracles.same_ratio(ratios[v], t) for v, t in oracles.universal_ratios(
             rd, [tuple(v) for v in o["chart"]], [Fraction(x) for x in o["coords"]]).items()))),
        ("rdata-to-point-invalid", ["rdata", "to-point", "--type", "A", "--rank", "2",
                                    "--data-json", js(A2_BAD)],
         _json(lambda o: "error" in o, code=1)),
        ("rdata-universal-at", ["rdata", "universal-at", "--type", "A", "--rank", "3",
                                "--point-json", js(point)],
         _json(lambda o: {tuple(e["positive_root"]): tuple(map(Fraction, e["ratio"]))
                          for e in o["pairs"]}.keys() == ratios.keys() and all(
             oracles.same_ratio(ratios[tuple(e["positive_root"])],
                                tuple(map(Fraction, e["ratio"]))) for e in o["pairs"]))),
        ("rdata-verify-gen", ["rdata", "verify-gen", "--type", "B", "--rank", "3"],
         _json(lambda o: o == {"ok": True})),
        ("betti", ["betti", "--n", str(betti_n)],
         _json(lambda o: o == oracles.eulerian_row(betti_n + 1))),
        ("basis", ["basis", "--n", "3"], _json(lambda o: len(o["monomials"]) == 24)),
        ("reduce", ["reduce", "--class-json",
                    js({"n": 2, "terms": [{"chain": [[3]], "coeff": 1}]})],
         _json(lambda o: o["terms"] == [{"chain": [[2]], "coeff": 1},
                                        {"chain": [[1, 2]], "coeff": 1},
                                        {"chain": [[1, 3]], "coeff": -1}])),
        ("primcol-1", ["primcol", "--n", "1"],
         _json(lambda o: o["collections"] == [{"pair": [[1], [2]], "kind": "opposite",
                                                "rhs": []}])),
        ("primcol-5", ["primcol", "--n", "5"],
         _json(lambda o: len(o["collections"]) == oracles.primitive_collection_count(5))),
        ("nef", ["nef", "--n", str(divisor_n), "--divisor-json", js(divisor_json)],
         _json(lambda o: o == {"nef": oracles.pairwise_nef(divisor, divisor_n),
                               "wall_convex": oracles.pairwise_nef(divisor, divisor_n)})),
        ("ample", ["ample", "--n", str(divisor_n), "--divisor-json", js(divisor_json)],
         _json(lambda o: o == {"ample": oracles.pairwise_nef(divisor, divisor_n, True)})),
        ("polytope", ["polytope", "--n", "3"],
         _json(lambda o: (len(o["vertices"]), len(o["lattice_points"]), o["interior_points"],
                          o["is_reflexive"], len(o["polar_vertices"])) == (12, 13, [[0, 0, 0]],
                                                                           True, 14))),
        ("sigma-delta", ["sigma-delta", "--n", "3"], _json(lambda o: len(o["max_cones"]) == 12)),
        ("crepant", ["crepant", "--n", "3"], _same_as("fan-a3")),
        ("lm-type", ["lm", "type", "--data-json", js(A2_DATA)],
         _json(lambda o: o == {"blocks": [[1, 2, 3]]})),
        ("lm-type-empty", ["lm", "type", "--data-json", js({"pairs": []})], _clean_error),
        ("lm-from-data", ["lm", "from-data", "--data-json", js(A2_DATA)],
         _json(lambda o: o["blocks"] == [[1, 2, 3]])),
        ("lm-extract", ["lm", "extract", "--chain-json", js(chain_json)],
         _json(lambda o: {tuple(e["positive_root"]): e["ratio"] for e in o["pairs"]}
               == {tuple(e["positive_root"]): e["ratio"] for e in A2_DATA["pairs"]})),
        ("lm-contract", ["lm", "contract", "--chain-json", js(chain_json), "--keep", "1,3"],
         _json(lambda o: o["blocks"] == [[1, 3]])),
        ("lm-membership", ["lm", "membership", "--data-json", js(A2_DATA), "--point-json",
                           js([["1", "1"], ["1", "1"], ["2", "1"]])],
         _json(lambda o: o["ok"] is True)),
        ("lm-universal", ["lm", "universal", "--n", "2"],
         _json(lambda o: sorted(e["count"] for e in o["fiber_counts"]) == [4] * 6
               and len(o["source_fan"]["max_cones"]) == 24)),
        ("lm-universal-no-n", ["lm", "universal"], _clean_error),
        ("lm-orbit-type", ["lm", "orbit-type", "--n", "2", "--cone", "[[1]]"],
         _json(lambda o: o == {"blocks": [[2, 3], [1]]})),
        ("lm-roundtrip", ["lm", "roundtrip", "--n", "5", "--samples", "20",
                          "--seed", str(rng.randrange(10 ** 6))],
         _json(lambda o: o == {"ok": True, "samples": 20})),
    ]
    return [CliCall(*c) for c in calls]


def cli_ops(rng):
    """Each call as its own `python -m weylfan.cli` process, one at a time."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    return [Op(c.name, lambda c=c: _subprocess(c.argv, env), c.check) for c in cli_calls(rng)]


def _subprocess(argv, env):
    p = subprocess.run([sys.executable, "-m", "weylfan.cli", *argv], env=env,
                       capture_output=True, text=True, timeout=120)
    return p.returncode, p.stdout, p.stderr


def in_process(argv):
    """(exit code, stdout, stderr) of cli.run in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _json(predicate, code=0):
    return lambda out, _: out[0] == code and predicate(json.loads(out[1]))


def _exit(code):
    return lambda out, _: out[0] == code


def _same_as(other):
    return lambda out, outs: out[0] == 0 and out[1] == outs[other][1]


def _clean_error(out, _):
    """A bad request exits 1 or 2 with no traceback."""
    return out[0] in (1, 2) and "Traceback" not in out[2]
