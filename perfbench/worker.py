"""Child process of run.py, so that each measurement has a process of its own.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace WORKLOAD SEED SPANS_PATH

``setup`` times import plus the workload's first-call set-up (its
``warm_up``) in a fresh process.  ``measure`` times whole input cycles,
with tracing off, records the peak resident memory, then checks the
outputs: every gate on the first cycles, the per-point gates on the rest.
``trace`` runs the first input cycle once untraced and once traced, writes
the spans to SPANS_PATH and reports per-layer statistics.  The result is
the last line of standard output, as one JSON object.

Times are the process's CPU time (``time.process_time``), with the wall
time kept beside them: on a shared host the wall time also counts the
time the host gives the machine's cores to others.
"""

import json
import os
import platform
import resource
import sys
import threading
import time


def _setup(workload):
    c0, w0 = time.process_time(), time.perf_counter()
    import workloads
    workloads.warm_up(workload)
    return {"setup_s": time.process_time() - c0,
            "setup_wall_s": time.perf_counter() - w0}


def _provenance():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count()}


def _run_op(op, span=None):
    from workloads import ValidateOp
    try:
        if isinstance(op, ValidateOp):
            return op.run(span)
        return op.run()
    except Exception as exc:  # a failing operation is graded, not fatal
        return exc


def _n_points(op, outcome):
    if op.n_points is not None:
        return op.n_points
    return len(outcome) if isinstance(outcome, list) else 1


def _grade(workload, seed, results):
    import numpy as np
    import checks
    if workload == "oracle_validate":
        merged = []
        for _, outcome in results:
            if isinstance(outcome, Exception):
                from omfisher.validate import CheckResult
                outcome = [CheckResult("validate", "run", False, float("nan"),
                                       float("nan"), repr(outcome))]
            merged.extend(outcome)
        return checks.grade_validate(merged)
    points = [pt for op, outcome in results for pt in checks.points_of(op, outcome)]
    rng = np.random.default_rng([seed, 1])
    return checks.grade_points(points, rng, checks.ORACLE_POINTS[workload])


def _grade_dict(grade):
    return {"attempted": grade.attempted, "failed": grade.failed,
            "correct": grade.correct, "failures": grade.failures,
            "known_red": grade.known_red, "unstable": grade.unstable,
            "eta_below_1": grade.eta_below_1,
            "oracle_checked": grade.oracle_checked}


def _measure(workload, seed, seconds):
    import checks
    import workloads
    workloads.warm_up(workload)
    graded = workloads.GRADED_CYCLES[workload]
    results, cpu_ms, wall_ms, points = [], [], [], 0
    start, start_cpu = time.perf_counter(), time.process_time()
    for n, cycle in enumerate(workloads.cycles(workload, seed), 1):
        cycle_start = time.perf_counter()
        for op in cycle:
            c0, w0 = time.process_time(), time.perf_counter()
            outcome = _run_op(op)
            c1, w1 = time.process_time(), time.perf_counter()
            cpu_ms.append(1e3 * (c1 - c0))
            wall_ms.append(1e3 * (w1 - w0))
            results.append((op, outcome))
            points += _n_points(op, outcome)
        end = time.perf_counter()
        if n == graded:
            n_graded = len(results)
        # past the graded cycles, stop before the cycle that would, at this
        # cycle's pace, end past SECONDS, so that a run's cycle count does
        # not hinge on whether a long cycle just fits
        if n >= graded and (end - start) + (end - cycle_start) > seconds:
            break
    elapsed = time.perf_counter() - start
    cpu_s = time.process_time() - start_cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the graded cycles are the same for a seed however fast the machine
    # runs, so attempted and failed are too.  Later cycles get the same
    # per-point gates but no oracle subset, and count only towards
    # correctness (a fast machine may fit a second validate cycle, whose
    # check lines are the first one's).
    grade = _grade(workload, seed, results[:n_graded])
    later = checks.Grade() if workload == "oracle_validate" else checks.grade_points(
        [pt for op, outcome in results[n_graded:]
         for pt in checks.points_of(op, outcome)], None, 0)
    return {"elapsed_s": elapsed, "cpu_s": cpu_s, "points": points,
            "cycles": n, "cpu_ms": cpu_ms, "wall_ms": wall_ms,
            "peak_rss_mb": peak_rss_mb, "grade": _grade_dict(grade),
            "later": _grade_dict(later),
            "provenance": _provenance()}


def _completed(op, outcome):
    """Points of one outcome that ran the whole pipeline."""
    import workloads
    if isinstance(outcome, Exception):
        return 0
    if isinstance(op, workloads.SweepOp):
        return sum(1 for row in outcome[0] if row.stable)
    if isinstance(op, workloads.PointOp):
        return 0 if isinstance(outcome, workloads.UNSTABLE) else 1
    return len(outcome)


def _sweep_threads(spans, caller):
    """Most threads that ran the points of one run_sweep call: the worker
    threads under it, or 1 where it ran them on the calling thread."""
    sweeps = {s[0] for s in spans if s[3] == "sweep.run_sweep"}
    if not sweeps:
        return None
    seen = {sid: set() for sid in sweeps}
    for _, parent, tid, *_ in spans:
        if parent in seen and tid != caller:
            seen[parent].add(tid)
    return max(max(len(t) for t in seen.values()), 1)


def _trace(workload, seed, spans_path):
    import tracing
    import workloads
    workloads.warm_up(workload)
    cycle = next(workloads.cycles(workload, seed))

    start = time.perf_counter()
    points = sum(_n_points(op, _run_op(op)) for op in cycle)
    untraced_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    tracer.install(extra_modules=(workloads,))
    results = []
    try:
        start = time.perf_counter()
        for op in cycle:
            with tracer.span("bench.op"):
                results.append((op, _run_op(op, tracer.span)))
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    completed = sum(_completed(op, outcome) for op, outcome in results)
    stats = tracing.layer_stats(tracer.spans, completed)
    tracer.write(spans_path)
    grade = _grade(workload, seed, results)
    return {"points": points, "completed_points": completed, "ops": len(cycle),
            "spans": len(tracer.spans), "untraced_s": untraced_s,
            "traced_s": traced_s, "layers": stats, "grade": _grade_dict(grade),
            "provenance": dict(_provenance(), sweep_threads=_sweep_threads(
                tracer.spans, threading.get_ident()))}


def main(argv):
    mode = argv[0]
    if mode == "setup":
        out = _setup(argv[1])
    elif mode == "measure":
        out = _measure(argv[1], int(argv[2]), float(argv[3]))
    elif mode == "trace":
        out = _trace(argv[1], int(argv[2]), argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
