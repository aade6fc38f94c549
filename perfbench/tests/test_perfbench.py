"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_on_a_known_span_tree():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def a():
        clock.advance(5)
        B()
        B()
        C()
        clock.advance(7)

    def b():
        clock.advance(2)
        C()
        clock.advance(3)

    def c():
        clock.advance(1)

    def r(k):
        clock.advance(1)
        if k:
            R(k - 1)

    A, B, C = (tracer.wrap(f"roots.{f.__name__}", f) for f in (a, b, c))
    R = tracer.wrap("fans.r", r)
    A()
    R(3)
    # a: 5 + 2 * (2 + 1 + 3) + 1 + 7 = 25 long, of which 12 outside its children.
    assert tracer.stats == {
        "roots.a": [1, 12.0, 25.0],
        "roots.b": [2, 10.0, 12.0],
        "roots.c": [3, 3.0, 3.0],
        "fans.r": [4, 4.0, 4.0],  # recursion: inclusive time counts the outer span once
    }
    assert tracer.edges == {(None, "roots.a"): 1, ("roots.a", "roots.b"): 2,
                            ("roots.b", "roots.c"): 2, ("roots.a", "roots.c"): 1,
                            (None, "fans.r"): 1, ("fans.r", "fans.r"): 3}
    totals = tracer.layer_totals()
    assert totals["roots"] == [6, 25.0] and totals["fans"] == [4, 4.0]
    assert totals["linalg"] == [0, 0.0]


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.advance(2)
        raise ValueError("boom")

    def outer():
        clock.advance(1)
        with pytest.raises(ValueError):
            INNER()

    INNER = tracer.wrap("rdata.inner", inner)
    tracer.wrap("rdata.outer", outer)()
    assert tracer.stats == {"rdata.inner": [1, 2.0, 2.0], "rdata.outer": [1, 1.0, 3.0]}


@pytest.mark.parametrize("n", [11, 12, 20, 34, 39, 70, 100, 114, 1000])
def test_tail_has_exactly_ten_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    percentile, value = run.tail(samples)
    assert sum(x > value for x in samples) == 10
    assert percentile == pytest.approx(100 * (n - 10) / n)


def test_tail_rule_examples():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail(list(range(11))) == (100 / 11, 0)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_traced_cli_stdout_is_byte_identical():
    calls = workloads.cli_calls(random.Random("cli:3:0"))

    def sweep():
        out = []
        for c in calls:
            spans.clear_caches()
            try:
                out.append(workloads.in_process(c.argv)[:2])
            except Exception as e:
                out.append(type(e).__name__)
        return out

    plain = sweep()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = sweep()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.stats["cli.run"][0] == len(calls)
    assert not any(spans.is_traced(obj) for m in spans.layer_modules() for obj in vars(m).values())


SMALL_SYSTEMS = ("G2", "A3", "B3", "A2xB2")
SMALL_OPS = ("universal:2", "chain:5", "anticanonical:4", "polytope:3", "betti:4", "basis:4",
             "primcol:4", "sigma-delta:4", "crepant:4")


@pytest.mark.parametrize("workload", ["chambers", "points", "cohomology"])
def test_traced_library_results_are_equal(workload):
    ops = [op for op in workloads.build(workload, 3, 0)
           if op.name.rpartition(":")[2] in SMALL_SYSTEMS or op.name in SMALL_OPS]
    assert len(ops) > 5

    def sweep():
        spans.clear_caches()
        latencies, results = worker.timed(ops)
        return results, worker.outcomes(ops, latencies, results)

    plain, plain_status = sweep()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, traced_status = sweep()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [s for _, _, s in traced_status] == [s for _, _, s in plain_status]
    assert {s for _, _, s in plain_status} == {"ok"}
    assert sum(calls for calls, _ in tracer.layer_totals().values()) > 0


def test_wrong_answers_are_counted_not_fatal():
    def boom():
        raise ZeroDivisionError

    ops = [workloads.Op("fine", lambda: 2, workloads._is(2)),
           workloads.Op("wrong", lambda: 3, workloads._is(2)),
           workloads.Op("raises", boom, workloads._is(2)),
           workloads.Op("reduce", lambda: 3, workloads._is(2))]
    latencies, results = worker.timed(ops)
    assert [s for _, _, s in worker.outcomes(ops, latencies, results)] == [
        "ok", "failed", "failed", "known_defect"]


def test_oracles_reject_a_wrong_chart_point():
    rd = oracles.RootData((("A", 2),))
    chart = rd.random_chart(random.Random(1), 5)
    ratios = oracles.universal_ratios(rd, chart, [Fraction(2), Fraction(3)])
    assert not oracles.violated_triples(rd, ratios)
    v = rd.positive[0]
    ratios[v] = (2 * ratios[v][0], ratios[v][1])
    assert oracles.violated_triples(rd, ratios)


def test_oracle_formulas_against_small_cases():
    assert [oracles.weyl_order([(f, n)]) for f, n in (("A", 3), ("B", 3), ("D", 4), ("G", 2))] \
        == [24, 48, 192, 12]
    assert [oracles.ray_count([(f, n)]) for f, n in (("A", 3), ("B", 3), ("D", 4), ("G", 2))] \
        == [14, 26, 48, 12]
    assert oracles.eulerian_row(4) == [1, 11, 11, 1]
    assert oracles.primitive_collection_count(1) == 1
    rd = oracles.RootData((("B", 3),))
    assert oracles.weyl_order_of_roots(rd.roots) == 48
    assert len(rd.positive) == 9


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS == workloads.WORKLOADS
    assert spec["paths"] == ["perfbench"]
