"""Seeded workload inputs and the operations the benchmark times.

Every input is drawn from ``numpy.random.default_rng(seed)``, one cycle at
a time, so a run that completes more cycles sees a longer prefix of the
same input sequence.  A cycle holds one operation per input family (one
sweep per swept variable, or that cycle's points), so every run measures
whole cycles and the mix of cheap and expensive inputs stays the same from
run to run.

The library is driven only through its public functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from omfisher.config import RunConfig, SweepSpec
from omfisher.errors import AmbiguousBranchError, UnstableDriftError
from omfisher.pipeline import build_measurement, fisher_report
from omfisher.sweep import render_csv, run_sweep
from omfisher.validate import SUITES, validate

WORKLOADS = ("state_sweep", "measurement_sweep", "single_point", "oracle_validate")

BASE = RunConfig()
K0 = BASE.base_kappa()
G0 = BASE.g_freq

# The dynamical-instability threshold of the baseline point lies at
# g = 18.48 g0; the g range of preset fig4d (0 .. 2 g0) is extended past it
# so that about a quarter of every g sweep is emitted as stable=false.
G_MAX = 26.0 * G0

# variable -> (grid scale, low, high): the ranges of presets fig3b..fig5
STATE_RANGES = {
    "delta0": ("linear", -20.0 * K0, -0.5 * K0),            # fig3b
    "kappa": ("log", 0.5 * K0, 4.0 * K0),                   # fig4a
    "gamma": ("log", 0.5 * BASE.gamma, 10.0 * BASE.gamma),  # fig4b
    "power": ("log", 0.1e-6, 10e-6),                        # fig4c
    "g": ("linear", 0.0, G_MAX),                            # fig4d, extended
    "temperature": ("log", 0.01, 100.0),                    # fig5
}
STATE_POINTS = 8

# Measurement-only sweeps share one cavity state per sweep.  Sizes make the
# shared state solve a small share of a cycle's time, and the three sweeps
# about equally long (an eta = 1 row costs a tenth of an eta < 1 row), so
# the median operation does not fall at the edge of a cluster.
MEAS_SWEEPS = (
    # variable, scale, low, high, points, eta of the sweep baseline
    ("omega_k", "linear", -3.0 * K0, 3.0 * K0, 7000, 1.0),  # fig1/fig3a
    ("eta", "linear", 0.05, 1.0, 400, None),                # fig2
    ("theta", "linear", 0.0, math.pi, 400, "draw"),         # quadrature scan
)

# Cycles at the start of a run whose outputs are graded in full; a run
# always measures them, so its attempted and failed counts depend on the
# seed only.  One validate cycle takes 14 to 16 s.
GRADED_CYCLES = {"state_sweep": 2, "measurement_sweep": 2, "single_point": 2,
                 "oracle_validate": 1}

# Grid ends are drawn inside the outer tenth of each range.
END_JITTER = 0.1

UNSTABLE = (UnstableDriftError, AmbiguousBranchError)


def _grid_ends(rng, scale, lo, hi):
    if scale == "log":
        a, b = math.log(lo), math.log(hi)
    else:
        a, b = lo, hi
    width = END_JITTER * (b - a)
    start = a + width * rng.random()
    stop = b - width * rng.random()
    if scale == "log":
        return math.exp(start), math.exp(stop)
    return start, stop


def _draw_log(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _measurement_baseline(rng) -> RunConfig:
    """A system point drawn from the fig3b..fig5 ranges, kept to g <= 2 g0
    and delta0 <= -2 kappa, where none of 30000 draws was unstable or
    bistable (run_sweep refuses such a baseline)."""
    kappa = _draw_log(rng, 0.5 * K0, 4.0 * K0)
    return replace(
        BASE,
        kappa_in=kappa / 2.0, kappa_loss=kappa / 2.0,
        gamma=_draw_log(rng, 0.5 * BASE.gamma, 10.0 * BASE.gamma),
        power=_draw_log(rng, 0.1e-6, 10e-6),
        temperature=_draw_log(rng, 0.01, 100.0),
        g_freq=rng.uniform(0.1 * G0, 2.0 * G0),
        delta0_in_kappa=rng.uniform(-20.0, -2.0),
    )


@dataclass(frozen=True)
class SweepOp:
    """One run_sweep call plus rendering of its CSV output."""

    cfg: RunConfig

    @property
    def n_points(self) -> int:
        return self.cfg.sweep.points

    def run(self):
        metadata, rows = run_sweep(self.cfg)
        return rows, render_csv(metadata, rows)


@dataclass(frozen=True)
class PointOp:
    """One fisher_report(auto_theta=True) call at a materialized point."""

    cfg: RunConfig
    variable: str
    value: float
    n_points = 1

    def inputs(self):
        params, meas = self.cfg.materialize(self.variable, self.value)
        settings = self.cfg.settings()
        spec = build_measurement(params, omega_k=meas["omega_k"],
                                 window=meas["window"], eta=meas["eta"],
                                 settings=settings)
        return params, spec, settings

    def run(self):
        params, spec, settings = self.inputs()
        try:
            return fisher_report(params, spec, settings, auto_theta=True)
        except UNSTABLE as exc:
            return exc


@dataclass(frozen=True)
class ValidateOp:
    """One full validate() run: every suite, in validate's own order."""

    n_points = None  # one point per check; known only after the run

    def run(self, span=None):
        results = []
        for suite in SUITES:
            if span is None:
                results.extend(validate(only=[suite]))
            else:
                with span(f"validate.{suite}"):
                    results.extend(validate(only=[suite]))
        return results


def _state_sweeps(rng) -> list[SweepOp]:
    ops = []
    for variable in rng.permutation(sorted(STATE_RANGES)):
        scale, lo, hi = STATE_RANGES[variable]
        start, stop = _grid_ends(rng, scale, lo, hi)
        spec = SweepSpec(str(variable), scale, start, stop, STATE_POINTS)
        ops.append(SweepOp(replace(BASE, sweep=spec)))
    return ops


def _measurement_sweeps(rng) -> list[SweepOp]:
    ops = []
    for i in rng.permutation(len(MEAS_SWEEPS)):
        variable, scale, lo, hi, points, eta = MEAS_SWEEPS[i]
        cfg = _measurement_baseline(rng)
        if eta == "draw":
            eta = rng.uniform(0.05, 0.95)
        if eta is not None:
            cfg = replace(cfg, eta=eta)
        k = cfg.base_kappa()
        if variable == "omega_k":
            lo, hi = lo / K0 * k, hi / K0 * k
        start, stop = _grid_ends(rng, scale, lo, hi)
        ops.append(SweepOp(replace(cfg, sweep=SweepSpec(variable, scale, start,
                                                         stop, points))))
    return ops


def cycles(workload: str, seed: int):
    """Endless sequence of input cycles for ``workload``."""
    rng = np.random.default_rng(seed)
    while True:
        if workload == "state_sweep":
            yield _state_sweeps(rng)
        elif workload == "measurement_sweep":
            yield _measurement_sweeps(rng)
        elif workload == "single_point":
            yield [PointOp(op.cfg, op.cfg.sweep.variable, v)
                   for op in _state_sweeps(rng) for v in op.cfg.sweep.grid()]
        elif workload == "oracle_validate":
            yield [ValidateOp()]  # inputs are fixed by the program
        else:
            raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """Fill lazy imports and first-call state on inputs outside the run."""
    PointOp(BASE, "temperature", BASE.temperature).run()
    if workload in ("state_sweep", "measurement_sweep"):
        variable = "temperature" if workload == "state_sweep" else "eta"
        lo = 1.0 if variable == "temperature" else 0.5
        SweepOp(replace(BASE, sweep=SweepSpec(variable, "linear", lo, 2 * lo, 2))).run()
    elif workload == "oracle_validate":
        validate(only=["output"])

