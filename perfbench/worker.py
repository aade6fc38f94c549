"""One cold pass of a workload, in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED BATCH plain|traced

Prints one JSON object: the monotonic time at which the inputs were ready,
the wall time of the operations, each operation's latency and outcome, the
peak resident memory, the reference time (see reference_times) and, for a
traced pass, the per-layer counters.  The parent measures set-up time from
its own clock, which shares the system's monotonic time base with this
process.
"""

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SYSTEMS = ((("A", 5),), (("B", 5),), (("D", 5),))
CLI_REFERENCE = "import argparse, dataclasses, fractions, functools, itertools, json, math, random"
# Typical reference times on an otherwise idle 2-vCPU VM; set-up time is
# reported scaled to a machine on which the reference takes this long.
NOMINAL_REFERENCE_S = {"cli": 0.05}
NOMINAL_COMPUTE_REFERENCE_S = 0.03


def main(workload, seed, batch, mode):
    import weylfan
    if Path(weylfan.__file__).resolve().parent != ROOT / "src" / "weylfan":
        raise SystemExit(f"weylfan imported from {weylfan.__file__}, not from this checkout")
    if workload == "cli" and mode == "traced":
        return traced_cli(seed, batch)
    ops = workloads.build(workload, seed, batch)
    caches = spans.caches()
    t_ready = time.monotonic()
    before = reference_times(workload)
    tracer = spans.Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    require_cold(caches)
    t_start = time.monotonic()
    latencies, results = timed(ops)
    wall = time.monotonic() - t_start
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if tracer:
        tracer.uninstall()
    report = {"t_ready": t_ready, "wall_s": wall, "rss_kb": rss_kb,
              "reference_s": statistics.median(before + reference_times(workload)),
              "nominal_reference_s": NOMINAL_REFERENCE_S.get(workload, NOMINAL_COMPUTE_REFERENCE_S),
              "ops": outcomes(ops, latencies, results)}
    if tracer:
        report["layers"] = layer_metrics(tracer, cache_counts(caches))
    return report


def reference_times(workload, repeats=3):
    """Times of a fixed piece of work that runs no library code.

    It is the kind of work the workload does, so its time follows the speed
    of the machine for that work: exact arithmetic on the oracles' root
    systems (Fractions, tuples, dicts) for the library workloads, and a
    new interpreter importing the standard modules the CLI uses for `cli`.
    A pass times it before and after its operations; dividing by the median
    takes out most of the drift that other tenants of the machine cause.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        if workload == "cli":
            subprocess.run([sys.executable, "-c", CLI_REFERENCE], check=True)
        else:
            for factors in REFERENCE_SYSTEMS:
                rd = oracles.RootData(factors)
                point = [Fraction(k + 2, k + 3) for k in range(len(rd.base))]
                oracles.violated_triples(rd, oracles.universal_ratios(rd, rd.base, point))
        times.append(time.perf_counter() - t0)
    return times


def require_cold(caches):
    warm = sorted(key for key, fn in caches.items() if fn.cache_info().currsize)
    if warm:
        raise SystemExit(f"caches not empty at the start of the timed region: {warm}")


def timed(ops):
    latencies, results = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # a failed operation is recorded, not fatal
            out = e
        latencies.append(time.perf_counter() - t0)
        results.append(out)
    return latencies, results


def outcomes(ops, latencies, results):
    """[name, seconds, 'ok' | 'known_defect' | 'failed'] per operation."""
    by_name = {op.name: out for op, out in zip(ops, results)}
    out = []
    for op, dt, result in zip(ops, latencies, results):
        if passed(op, result, by_name):
            status = "ok"
        else:
            status = "known_defect" if op.name in workloads.KNOWN_DEFECTS else "failed"
        out.append([op.name, dt, status])
    return out


def passed(op, result, by_name):
    if isinstance(result, Exception):
        return False
    try:
        return bool(op.check(result, by_name))
    except Exception:  # an output too malformed to check is a wrong answer
        return False


def cache_counts(caches, counts=None):
    counts = counts if counts is not None else {}
    for key, fn in caches.items():
        info = fn.cache_info()
        hits, misses = counts.get(key, (0, 0))
        counts[key] = (hits + info.hits, misses + info.misses)
    return counts


def layer_metrics(tracer, counts):
    """The per-layer metrics a traced pass measures, by name."""
    calls = lambda key: tracer.stats.get(key, (0, 0.0, 0.0))[0]
    self_s = lambda key: tracer.stats.get(key, (0, 0.0, 0.0))[1]
    inclusive = lambda key: tracer.stats.get(key, (0, 0.0, 0.0))[2]

    def hit_ratio(key):
        hits, misses = counts.get(key, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    m = {}
    for layer, (n, s) in tracer.layer_totals().items():
        if layer != "cli":
            m[f"{layer}.self_s"], m[f"{layer}.calls"] = s, n
    for key in ("linalg.hermite_normal_form", "linalg.solve_left", "linalg.det",
                "roots.enumerate_simple_root_sets", "fans.minimal_containing_cone",
                "typea.multiply", "typea.reduce_to_basis"):
        m[f"{key}.calls"] = calls(key)
    for key in ("fans.minimal_containing_cone", "rdata.rdata_to_point", "typea.delta_polytope"):
        m[f"{key}.self_s"] = self_s(key)
        m[f"{key}.s"] = inclusive(key)
    for key in ("roots.simple_set_expansions", "roots.reflection_table"):
        m[f"{key}.hit_ratio"] = hit_ratio(key)
    points = calls("rdata.rdata_to_point")
    lookups = tracer.edges[("rdata.rdata_to_point", "rdata.ratio_for")]
    m["rdata.ratio_for.per_point"] = lookups / points if points else 0.0
    m["chains.universal_curve_structure.s"] = inclusive("chains.universal_curve_structure")
    return m


def traced_cli(seed, batch):
    """The cli layer measured in pieces: bare interpreter start, package
    import, and cli.run in this process on the same argv list, untraced and
    then traced.  Caches are emptied before every call, as a new process
    would have them."""
    calls = workloads.cli_calls(random.Random(f"cli:{seed}:{batch}"))
    interpreter = _median_run([sys.executable, "-c", "pass"])
    imported = _median_run([sys.executable, "-c", "import weylfan.cli"])
    caches = spans.caches()
    counts = {}

    def sweep():
        latencies, results = [], []
        for c in calls:
            spans.clear_caches()
            t0 = time.perf_counter()
            try:
                out = workloads.in_process(c.argv)
            except Exception as e:  # a crashing verb is a recorded outcome
                out = e
            latencies.append(time.perf_counter() - t0)
            results.append(out)
            cache_counts(caches, counts)
        return latencies, results

    plain, results = sweep()
    nbytes = sum(len(out[1].encode()) for out in results if not isinstance(out, Exception))
    counts.clear()
    tracer = spans.Tracer()
    tracer.install()
    latencies, results = sweep()
    tracer.uninstall()
    layers = layer_metrics(tracer, counts)
    layers.update({"cli.interpreter_s": interpreter, "cli.import_s": imported - interpreter,
                   "cli.run_s": sum(plain), "cli.stdout_bytes": nbytes,
                   "trace.overhead_ratio": sum(latencies) / sum(plain)})
    ops = [workloads.Op(c.name, None, c.check) for c in calls]
    return {"wall_s": sum(latencies), "layers": layers,
            "ops": outcomes(ops, latencies, results)}


def _median_run(argv, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    workload, seed, batch, mode = sys.argv[1:5]
    print(json.dumps(main(workload, int(seed), int(batch), mode)))
