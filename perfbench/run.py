"""Benchmark of weylfan: cold runs of one workload, checked against oracles.

    python3 perfbench/run.py --workload chambers|points|cohomology|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  Each
pass is a fresh interpreter (perfbench/worker.py) that does one batch of
operations with every library cache empty, because the caches key on
value-equal root systems and a second pass in one process would time
dictionary lookups.  Passes run one at a time, batch 0, 1, ... with inputs
made from the seed and the batch number, until the next pass would end
after S seconds.

With --trace 0 the metrics are the end-to-end ones, medians over passes;
times are in units of a reference computation timed in the same pass, and
set-up time is scaled to the reference's nominal time; the raw seconds are
printed on the lines before.
With --trace 1 every batch runs once untraced and once traced, and the
metrics are the per-layer counters of the traced passes (also medians)
plus the tracing overhead.  Lines before the last describe the run; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  Operations listed in workloads.KNOWN_DEFECTS that fail count
against ok_ratio but not as failed; any other wrong output is a failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chambers", "points", "cohomology", "cli")

END_TO_END = {"wall_ref": "ref", "op_p50_ref": "ref", "op_tail_ref": "ref", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER = {
    "linalg.self_s": "s", "linalg.calls": "count", "linalg.hermite_normal_form.calls": "count",
    "linalg.solve_left.calls": "count", "linalg.det.calls": "count",
    "roots.self_s": "s", "roots.calls": "count", "roots.enumerate_simple_root_sets.calls": "count",
    "roots.simple_set_expansions.hit_ratio": "ratio", "roots.reflection_table.hit_ratio": "ratio",
    "fans.self_s": "s", "fans.calls": "count", "fans.minimal_containing_cone.calls": "count",
    "fans.minimal_containing_cone.self_s": "s", "fans.minimal_containing_cone.s": "s",
    "rdata.self_s": "s", "rdata.calls": "count", "rdata.rdata_to_point.self_s": "s",
    "rdata.rdata_to_point.s": "s",
    "rdata.ratio_for.per_point": "1/point",
    "typea.self_s": "s", "typea.calls": "count", "typea.multiply.calls": "count",
    "typea.reduce_to_basis.calls": "count", "typea.delta_polytope.self_s": "s",
    "typea.delta_polytope.s": "s",
    "chains.self_s": "s", "chains.calls": "count", "chains.universal_curve_structure.s": "s",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.run_s": "s", "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
WORKER_TIMEOUT_S = 150


def tail(latencies):
    """(percentile, value) at the highest nearest-rank percentile that still
    has at least ten samples beyond it: the eleventh largest sample."""
    n = len(latencies)
    if n < 11:
        raise ValueError(f"{n} samples: a tail needs at least 11")
    return 100 * (n - 10) / n, sorted(latencies)[n - 11]


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, batch, mode):
    """(spawn time on the monotonic clock, the worker's report)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t_spawn = time.monotonic()
    p = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
                        str(seed), str(batch), mode], cwd=ROOT, env=env, capture_output=True,
                       text=True, timeout=WORKER_TIMEOUT_S)
    if p.returncode != 0:
        raise WorkerFailed(f"{workload} batch {batch} ({mode}) exited {p.returncode}:\n{p.stderr}")
    return t_spawn, json.loads(p.stdout.splitlines()[-1])


def passes(seconds, one_batch):
    """Run one_batch(0), one_batch(1), ... until the next would end late."""
    start = time.monotonic()
    out = []
    while True:
        out.append(one_batch(len(out)))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def statuses(runs):
    return [status for _, report in runs for _, _, status in report["ops"]]


def end_to_end(runs):
    """Medians over passes of the end-to-end metrics and of the raw times.

    Times in the unit ref are divided by the pass's reference time (see
    worker.reference_times): on a shared machine the raw seconds drift by
    a quarter or more over minutes, and the ratios much less.  setup_s must
    stay in seconds, so it is scaled to a machine on which the reference
    takes its nominal time.
    """
    per_pass = {name: [] for name in ("wall_s", "op_p50_ms", "op_tail_ms", "reference_ms",
                                      "setup_raw_s", "wall_ref", "op_p50_ref", "op_tail_ref",
                                      "setup_s", "peak_rss_mb")}
    for t_spawn, report in runs:
        latencies = [dt for _, dt, _ in report["ops"]]
        raw = {"wall": report["wall_s"], "op_p50": statistics.median(latencies),
               "op_tail": tail(latencies)[1]}
        for name, seconds in raw.items():
            per_pass[f"{name}_ref"].append(seconds / report["reference_s"])
        per_pass["wall_s"].append(raw["wall"])
        per_pass["op_p50_ms"].append(1000 * raw["op_p50"])
        per_pass["op_tail_ms"].append(1000 * raw["op_tail"])
        per_pass["reference_ms"].append(1000 * report["reference_s"])
        setup = report["t_ready"] - t_spawn
        per_pass["setup_raw_s"].append(setup)
        per_pass["setup_s"].append(setup * report["nominal_reference_s"] / report["reference_s"])
        per_pass["peak_rss_mb"].append(report["rss_kb"] / 1024)
    metrics = {name: statistics.median(values) for name, values in per_pass.items()}
    done = statuses(runs)
    metrics["ok_ratio"] = done.count("ok") / len(done)
    return metrics


def describe(workload, seed, runs, metrics, traced):
    ops = runs[0][1]["ops"]
    n = len(ops)
    percentile, _ = tail([dt for _, dt, _ in ops])
    lines = [f"workload {workload}, seed {seed}: {len(runs)} {'traced ' if traced else ''}passes "
             f"of {n} operations (operation count fixed per pass)"]
    if not traced:
        rows = [("wall_s", "s", f"median of {len(runs)} passes"),
                ("op_p50_ms", "ms", f"median over passes of the median of {n} operations"),
                ("op_tail_ms", "ms", f"p{percentile:.1f} of {n} operations, 10 beyond it"),
                ("reference_ms", "ms", "reference computation, the unit ref"),
                ("wall_ref", "ref", "wall_s / reference"),
                ("op_p50_ref", "ref", "op_p50 / reference"),
                ("op_tail_ref", "ref", "op_tail / reference"),
                ("setup_raw_s", "s", "interpreter start until the inputs are ready"),
                ("setup_s", "s", "setup_raw_s at the nominal reference time"),
                ("peak_rss_mb", "MB", "max resident set of the pass"),
                ("ok_ratio", "ratio", "operations with a correct output")]
        for name, unit, note in rows:
            lines.append(f"  {name:<14} {metrics[name]:>12.4f} {unit:<6} {note}")
        walls = " ".join(f"{report['wall_s']:.3f}" for _, report in runs)
        lines.append(f"  wall_s of each pass: {walls}")
    done = statuses(runs)
    bad = len(done) - done.count("ok")
    defects = sorted({name for _, report in runs for name, _, status in report["ops"]
                      if status == "known_defect"})
    failed = sorted({name for _, report in runs for name, _, status in report["ops"]
                     if status == "failed"})
    lines.append(f"  failed_ratio   {bad}/{len(done)} = {bad / len(done):.4f} ratio "
                 f"(known defects: {', '.join(defects) or 'none'}; "
                 f"unexpected failures: {', '.join(failed) or 'none'})")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weylfan" / "__init__.py").is_file():
        print(f"no weylfan package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        warm_up()
        if args.trace:
            runs, metrics = traced_run(args.workload, args.seed, args.seconds)
        else:
            runs = passes(args.seconds,
                          lambda b: run_worker(args.workload, args.seed, b, "plain"))
            metrics = end_to_end(runs)
    except (WorkerFailed, subprocess.SubprocessError, ValueError) as e:
        print(e, file=sys.stderr)
        return 1
    for line in describe(args.workload, args.seed, runs, metrics, args.trace):
        print(line)
    units = PER_LAYER if args.trace else END_TO_END
    done = statuses(runs)
    print(json.dumps({
        "correct": "failed" not in done,
        "attempted": len(done),
        "failed": done.count("failed"),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def warm_up():
    """Import the library and the benchmark once, untimed, so that every
    timed pass starts from compiled bytecode as an installed package would."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); "
                    "import workloads, spans"], cwd=ROOT, check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=WORKER_TIMEOUT_S)


def traced_run(workload, seed, seconds):
    """Per-layer metrics: medians over traced passes.  For the library
    workloads each batch also runs untraced, and the overhead is the ratio
    of the median wall times; the cli worker measures its own overhead."""
    if workload == "cli":
        runs = passes(seconds, lambda b: run_worker(workload, seed, b, "traced"))
    else:
        pairs = passes(seconds, lambda b: (run_worker(workload, seed, b, "plain"),
                                           run_worker(workload, seed, b, "traced")))
        runs = [traced for _, traced in pairs]
    metrics = {name: statistics.median(report["layers"].get(name, 0) for _, report in runs)
               for name in PER_LAYER}
    if workload != "cli":
        metrics["trace.overhead_ratio"] = (
            statistics.median(report["wall_s"] for _, report in runs)
            / statistics.median(report["wall_s"] for (_, report), _ in pairs))
    return runs, metrics


if __name__ == "__main__":
    sys.exit(main())
