#!/usr/bin/env python3
"""Stage and end-to-end timings of omfisher, merged into BENCH_<tag>.json.

    python scripts/bench.py --tag TAG --label NAME [--src DIR] [--repeat N]

Every number comes from calling the library's public functions directly,
timed with time.perf_counter in this one process:

- stages at the baseline point (rossi_params): median and quartiles over N
  calls (default 200) after one warm-up call; whatever a stage consumes is
  built outside its timed region, on a fresh drift matrix each call so that
  no decomposition cached on it is reused; fisher_report is also timed at
  1e-5 K and 2.5e-4 K, the baseline point cooled until the Matsubara sum
  and the continued fraction of e^w E1(w) take many arguments;
- oracle stages, max(1, N // 40) calls each after one warm-up call:
  qfi_fock_converged (n_max = 1000, then 1020) on validate's thermal
  (nu = 25) and squeezed-thermal (nu = 25, r = 0.15) families with
  validate's steps, and the frequency-domain Brownian diffusion and the
  transient covariance at the baseline point;
- end-to-end cases: the fig1, fig2, fig4a and fig5 preset sweeps and one
  full validate(), each max(1, N // 40) times;
- the import case: max(1, N // 40) fresh processes, each importing
  omfisher.cli and omfisher.validate and running one fisher_report at the
  baseline point; the median and quartiles of each process's whole CPU time
  (its process clock at exit: user + system, interpreter start-up included)
  and of its peak RSS (VmHWM, so Linux only).

The record of one run goes under NAME in ``BENCH_<tag>.json`` in the current
directory, next to the runs already there, with the python, numpy, scipy
and BLAS versions and the CPU count.  ``--src`` imports omfisher from
another source tree (the ``src`` directory of another commit's checkout),
so one file holds the numbers of a parent commit and of its change.  Set
OPENBLAS_NUM_THREADS=1 to time single-threaded BLAS; the value is recorded.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

END_TO_END = ("fig1", "fig2", "fig4a", "fig5", "validate")
IMPORT_CASE = ("import time\n"
               "import omfisher.cli, omfisher.validate\n"
               "from omfisher.params import rossi_params\n"
               "from omfisher.pipeline import build_measurement, fisher_report\n"
               "p = rossi_params()\n"
               "fisher_report(p, build_measurement(p), auto_theta=True)\n"
               "hwm = next(line.split()[1] for line in open('/proc/self/status')\n"
               "           if line.startswith('VmHWM:'))\n"
               "print(time.process_time(), hwm)\n")


def _summary(samples, unit: float) -> dict:
    q1, med, q3 = np.percentile(np.asarray(samples) * unit, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(samples)}


def _time(body, setup, n: int) -> list:
    body(setup())  # warm-up: lazy imports and first-call costs
    samples = []
    for _ in range(n):
        arg = setup()
        t0 = time.perf_counter()
        body(arg)
        samples.append(time.perf_counter() - t0)
    return samples


def _squeezed_thermal(g: float) -> np.ndarray:
    """validate's squeezed-thermal family at nu = 25: squeeze strength and
    angle vary with g."""
    r, phi = 0.15 + 0.4 * g, 0.3 + 0.5 * g
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    return rot @ np.diag([25.0 * np.exp(2 * r), 25.0 * np.exp(-2 * r)]) @ rot.T


def _stages(n: int) -> dict:
    from omfisher.dynamics import (brownian_diffusion_freq, diffusion_matrix,
                                   drift_matrix, stationary_covariance,
                                   transient_covariance)
    from omfisher.fisher import cfi_bhd, qfi_gaussian, theta_max
    from omfisher.oracle import qfi_fock_converged, richardson_dsigma_opt
    from omfisher.output import output_covariance, output_map
    from omfisher.params import rossi_params, steady_state
    from omfisher.pipeline import (PipelineSettings, build_measurement,
                                   cavity_covariance, cavity_dsigma_opt, fisher_report)

    p = rossi_params()
    cold = rossi_params(temperature=1e-5)  # 256 Matsubara terms, 174 at |z| <= 40
    cold_spec = build_measurement(cold)
    cool = rossi_params(temperature=2.5e-4)  # 16 terms, 14 continued fractions
    cool_spec = build_measurement(cool)
    default = PipelineSettings()
    ss = steady_state(p)
    d = diffusion_matrix(p, drift_matrix(p, ss))

    def decomposed_drift():
        a = drift_matrix(p, ss)
        a.spectrum
        return a

    spec = build_measurement(p, settings=default)
    cav = cavity_covariance(p, default)
    sigma_opt = cav.covariance.optical_block
    dsigma_opt = cavity_dsigma_opt(p, default, cav)
    sig = output_covariance(sigma_opt, spec)
    dsig = output_map(dsigma_opt, spec)

    def output_stage(_):
        return output_covariance(sigma_opt, spec), output_map(dsigma_opt, spec)

    cases = {
        "steady_state": (lambda _: steady_state(p), None),
        "drift_matrix + eig": (lambda _: drift_matrix(p, ss).spectrum, None),
        "diffusion_matrix": (lambda a: diffusion_matrix(p, a), decomposed_drift),
        "stationary_covariance (Lyapunov solve)":
            (lambda a: stationary_covariance(a, d), decomposed_drift),
        "cavity_covariance": (lambda _: cavity_covariance(p, default), None),
        "coupling derivative, implicit Lyapunov":
            (lambda c: cavity_dsigma_opt(p, default, c),
             lambda: cavity_covariance(p, default)),
        "coupling derivative, Richardson FD": (lambda _: richardson_dsigma_opt(p), None),
        "output map (sigma_out and d sigma_out)": (output_stage, None),
        "qfi_gaussian": (lambda _: qfi_gaussian(sig, dsig), None),
        "cfi_bhd": (lambda _: cfi_bhd(sig, dsig, 0.3, 1.0), None),
        "theta_max, eta = 1": (lambda _: theta_max(sig, dsig, eta=1.0), None),
        "theta_max, eta = 0.5": (lambda _: theta_max(sig, dsig, eta=0.5), None),
        "fisher_report (auto theta, default settings)":
            (lambda _: fisher_report(p, spec, default, auto_theta=True), None),
        "fisher_report at T = 1e-5 K":
            (lambda _: fisher_report(cold, cold_spec, default, auto_theta=True), None),
        "fisher_report at T = 2.5e-4 K":
            (lambda _: fisher_report(cool, cool_spec, default, auto_theta=True), None),
    }
    oracle_cases = {
        "qfi_fock_converged, thermal family, nu = 25":
            (lambda _: qfi_fock_converged(lambda g: (25.0 + g) * np.eye(2), 0.0, 1e-3),
             None),
        "qfi_fock_converged, squeezed-thermal family, nu = 25":
            (lambda _: qfi_fock_converged(_squeezed_thermal, 0.0, 1e-4), None),
        "brownian_diffusion_freq": (lambda a: brownian_diffusion_freq(p, a),
                                    decomposed_drift),
        "transient_covariance": (lambda a: transient_covariance(p, a, d),
                                 decomposed_drift),
    }
    return {name: _summary(_time(body, setup or (lambda: None), reps), 1e3)
            for group, reps in ((cases, n), (oracle_cases, max(1, n // 40)))
            for name, (body, setup) in group.items()}


def _end_to_end(n: int) -> dict:
    from omfisher.config import apply_preset, load_config
    from omfisher.sweep import run_sweep
    from omfisher.validate import validate

    base = load_config(None)
    out = {}
    for name in END_TO_END:
        if name == "validate":
            body = lambda _: validate()  # noqa: E731
        else:
            body = lambda _, cfg=apply_preset(base, name): run_sweep(cfg)  # noqa: E731
        out[name] = _summary(_time(body, lambda: None, n), 1.0)
    return out


def _import_case(n: int) -> dict:
    """CPU seconds and peak RSS of n fresh processes running IMPORT_CASE on
    the omfisher this process imported."""
    import omfisher
    env = dict(os.environ)
    src = str(Path(omfisher.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cpu, rss = [], []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CASE], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        cpu_s, hwm_kib = proc.stdout.split()
        cpu.append(float(cpu_s))
        rss.append(int(hwm_kib) / 1024.0)
    return {"cpu_s": _summary(cpu, 1.0), "peak_rss_mb": _summary(rss, 1.0)}


def _environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def measure(repeat: int) -> dict:
    """One run's record: environment, stage and end-to-end timings and the
    import case."""
    from omfisher import __version__
    return {
        "omfisher": __version__,
        "environment": _environment(),
        "stages_ms": _stages(repeat),
        "end_to_end_s": _end_to_end(max(1, repeat // 40)),
        "import": _import_case(max(1, repeat // 40)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="file name BENCH_<tag>.json")
    parser.add_argument("--label", required=True, help="name of this run in the file")
    parser.add_argument("--src", help="source tree to import omfisher from")
    parser.add_argument("--repeat", type=int, default=200, help="calls per stage")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.src:
        sys.path.insert(0, str(Path(args.src).resolve()))

    path = Path(f"BENCH_{args.tag}.json")
    record = json.loads(path.read_text()) if path.exists() else {"tag": args.tag,
                                                                 "runs": {}}
    record["runs"][args.label] = measure(args.repeat)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote run {args.label!r} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
