"""Benchmark of the omfisher library, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times set-up in fresh processes, then runs the
workload for S seconds in a process of its own with tracing off, and
reports the end-to-end metrics named in BENCHMARK.json.  With ``--trace 1``
it runs one input cycle untraced and then traced, writes the spans under
``.bench_out/`` and reports the per-layer metrics.  Outputs are checked in
both modes.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/NOTES.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("state_sweep", "measurement_sweep", "single_point", "oracle_validate")
SETUP_PROBES = 3
DEADLINE_S = 170.0
# one sweep worker and no BLAS helper threads: the load comes from one
# thread, the same on any host, and its CPU time is the program's work
THREAD_ENV = {"OMFISHER_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args, deadline):
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "omfisher").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _end_to_end(res, setup):
    cpu, wall = res["cpu_ms"], res["wall_ms"]
    metrics = {
        "points_per_cpu_s": res["points"] / res["cpu_s"],
        "op_cpu_p50_ms": statistics.median(cpu),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"points_per_cpu_s = {metrics['points_per_cpu_s']:.6g} 1/s "
          f"({res['points']} points in {res['cycles']} input cycles, "
          f"{res['cpu_s']:.3f} s CPU time)")
    print(f"points_per_s = {res['points'] / res['elapsed_s']:.6g} 1/s "
          f"(wall time, {res['elapsed_s']:.3f} s)")
    print(f"op_cpu_p50_ms = {metrics['op_cpu_p50_ms']:.6g} ms ({len(cpu)} ops)")
    print(f"op_p50_ms = {statistics.median(wall):.6g} ms (wall time, "
          f"{len(wall)} ops)")
    if len(wall) >= 100:  # at least ten samples lie beyond p90
        print(f"op_p90_ms = {statistics.quantiles(wall, n=10)[8]:.6g} ms "
              f"(wall time, {len(wall)} ops)")
    else:
        print(f"op_p90_ms not reported: {len(wall)} ops, fewer than 100")
    print(f"setup_s = {metrics['setup_s']:.6g} s (CPU time, median of "
          f"{len(setup)}: " + ", ".join(f"{s['setup_s']:.3f}" for s in setup)
          + "; wall " + ", ".join(f"{s['setup_wall_s']:.3f}" for s in setup)
          + ")")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    return metrics


def _per_layer(res, names):
    layers = res["layers"]
    traced_pps = res["points"] / res["traced_s"]
    untraced_pps = res["points"] / res["untraced_s"]
    special = {"trace.points_per_s_traced": traced_pps,
               "trace.points_per_s_untraced": untraced_pps}
    print(f"one cycle: {res['ops']} ops, {res['points']} points "
          f"({res['completed_points']} completed), {res['spans']} spans")
    print(f"tracing overhead: traced - untraced points_per_s = "
          f"{traced_pps - untraced_pps:.6g} 1/s ({traced_pps:.6g} vs {untraced_pps:.6g})")
    print(f"{'span':<40} {'calls':>7} {'per point':>10} {'self_ms':>10} "
          f"{'total_ms':>10} {'p90_total':>10} {'ms/point':>10}")
    for name in sorted(layers):
        s = layers[name]
        print(f"{name:<40} {s['calls']:>7} {s['calls_per_point']:>10.4g} "
              f"{s['self_ms']:>10.4g} {s['total_ms']:>10.4g} "
              f"{s['p90_total_ms']:>10.4g} {s['ms_per_point']:>10.4g}")
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
            continue
        layer, stat = name.rsplit(".", 1)
        metrics[name] = layers.get(layer, {}).get(stat, 0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "omfisher" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    try:
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            res = _worker(["trace", args.workload, args.seed, spans_path], deadline)
        else:
            setup = [_worker(["setup", args.workload], deadline)
                     for _ in range(SETUP_PROBES)]
            res = _worker(["measure", args.workload, args.seed, args.seconds],
                          deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prov = dict(res["provenance"], commit=_commit(), source_sha256=_source_digest(),
                seed=args.seed, env=THREAD_ENV)
    print("provenance " + json.dumps(prov, sort_keys=True))
    grade = res["grade"]
    attempted, failed = grade["attempted"], grade["failed"]
    print(f"inputs: {attempted} points, unstable share "
          f"{grade['unstable'] / attempted:.4f}, eta<1 share "
          f"{grade['eta_below_1'] / attempted:.4f}, "
          f"{grade['oracle_checked']} oracle-checked")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} failed of {attempted})")
    for label, reason in grade["known_red"] + grade["failures"]:
        print(f"  failed: {label}: {reason}")
    correct = grade["correct"]
    if not args.trace:
        later = res["later"]
        print(f"past the graded cycles: {later['attempted']} points, per-point "
              f"gates only, {later['failed']} failed (not counted above)")
        for label, reason in later["known_red"] + later["failures"]:
            print(f"  failed, not counted: {label}: {reason}")
        correct = correct and later["correct"]
    if args.trace:
        metrics = _per_layer(res, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = _end_to_end(res, setup)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: metrics[name] for name in units}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
