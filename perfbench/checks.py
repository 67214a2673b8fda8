"""Output checks, run after the timed region.

Every evaluated point gets the cheap checks: finite outputs, the Lyapunov
residual gate, and a stable/unstable verdict that matches the drift
eigenvalues.  A seeded subset of the stable points is compared with the
library's independent oracles at the gates ``validate`` and the tests use:

* stationary covariance against ``transient_covariance`` (1e-6);
* the default coupling derivative against the ``derivative-lyapunov``
  route (1e-5, as in tests/test_dynamics.py), once per system point;
* the reported CFI against ``cfi_numeric`` (1e-6).  The numeric Fisher
  information is taken of the homodyne outcome density along the line
  sigma_out + t dsigma_out, so it checks the CFI formula and the phase it
  was evaluated at; the derivative itself is checked by the previous gate.

Known red at the commit that introduced the benchmark are one validate
line (``KNOWN_RED``) and two gate misses, each only inside a regime and up
to a size derived from floating-point round-off (``_residual_known`` and
``_derivative_known``).  They count as failed and are named, but leave a
run correct; every other miss makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from omfisher.config import RunConfig
from omfisher.dynamics import drift_matrix, transient_covariance
from omfisher.errors import AmbiguousBranchError
from omfisher.fisher import FD_STEP_FLOOR, FD_STEP_REL
from omfisher.oracle import cfi_numeric
from omfisher.output import homodyne_variance
from omfisher.params import steady_state
from omfisher.pipeline import (cavity_covariance, cavity_dsigma_opt,
                               cavity_output_map, output_state)

from workloads import UNSTABLE, PointOp, SweepOp

GATE_COVARIANCE = 1e-6
GATE_DERIVATIVE = 1e-5
GATE_CFI = 1e-6
GATE_RESIDUAL = 1e-10

# stable points per run that get the oracle comparisons; a measurement
# sweep's points share one state check, so that workload affords more
ORACLE_POINTS = {"state_sweep": 8, "single_point": 8, "measurement_sweep": 30}

# validate's "baseline output state" QFI line fails at the commit that
# introduced the benchmark: the compact QFI formula is a large-purity
# truncation (README, test_acceptance criterion 5).
KNOWN_RED = {("qfi", "baseline output state")}

EPS = float(np.finfo(float).eps)
# g is scaled by this factor to ask whether a point lies within three
# percent below the instability threshold
NEAR_THRESHOLD = 1.03
# units of round-off to which the pipeline is taken to evaluate sigma_opt
EVAL_ULPS = 10.0


@dataclass(frozen=True)
class Point:
    """One evaluated parameter point and what the library returned for it."""

    cfg: RunConfig
    variable: str
    value: float
    stable: bool
    cfi: float | None = None
    theta: float | None = None
    residual: float | None = None
    outputs: tuple = ()
    error: str | None = None

    @property
    def label(self) -> str:
        return f"{self.variable}={self.value!r}"


@dataclass
class Grade:
    attempted: int = 0
    failures: list = field(default_factory=list)   # (label, reason)
    known_red: list = field(default_factory=list)  # (label, reason)
    unstable: int = 0
    eta_below_1: int = 0
    oracle_checked: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.known_red)

    @property
    def correct(self) -> bool:
        return not self.failures

    def record(self, label, reasons):
        """``reasons`` are (text, known red) pairs; a point with any reason
        has failed, and is known red only if every reason is."""
        if reasons:
            known = all(k for _, k in reasons)
            (self.known_red if known else self.failures).append(
                (label, "; ".join(text for text, _ in reasons)))


def points_of(op, outcome) -> list[Point]:
    """Flatten one operation's outcome into per-point records."""
    if isinstance(op, SweepOp):
        grid = op.cfg.sweep.grid()
        variable = op.cfg.sweep.variable
        if isinstance(outcome, Exception):
            return [Point(op.cfg, variable, v, True,
                          error=f"run_sweep raised {outcome!r}") for v in grid]
        rows, csv = outcome
        if len(rows) != len(grid) or csv.count("\n") != len(grid) + 2:
            return [Point(op.cfg, variable, v, True,
                          error="row count differs from the grid") for v in grid]
        out = []
        for v, row in zip(grid, rows):
            _, meas = op.cfg.materialize(variable, v)
            theta = row.theta_max if meas["theta"] == "auto" else meas["theta"]
            out.append(Point(
                op.cfg, variable, v, row.stable,
                cfi=row.cfi, theta=theta, residual=row.lyapunov_residual,
                outputs=(row.qfi, row.cfi, row.theta_max, row.saturation_ratio,
                         row.lyapunov_residual, row.diffusion_error)
                if row.stable else ()))
        return out
    if isinstance(outcome, UNSTABLE):
        return [Point(op.cfg, op.variable, op.value, False)]
    if isinstance(outcome, Exception):
        return [Point(op.cfg, op.variable, op.value, True,
                      error=f"fisher_report raised {outcome!r}")]
    rep = outcome
    diag = rep.diagnostics
    return [Point(op.cfg, op.variable, op.value, True, cfi=rep.cfi,
                  theta=rep.theta, residual=diag["lyapunov_residual"],
                  outputs=(rep.qfi, rep.cfi, rep.theta_max, rep.saturation_ratio,
                           diag["lyapunov_residual"], diag["diffusion_error"]))]


@dataclass(frozen=True)
class Drift:
    """Spectrum facts of the drift matrix at one system point."""

    stable: bool
    max_re: float | None = None  # largest real part of the eigenvalues
    norm: float | None = None    # spectral norm of the scaled drift matrix


def _drift(params) -> Drift:
    try:
        ss = steady_state(params)
    except AmbiguousBranchError:
        return Drift(False)  # bistable: run_sweep emits it as unstable
    a = drift_matrix(params, ss).matrix_scaled
    max_re = float(np.max(np.linalg.eigvals(a).real))
    return Drift(max_re < 0.0, max_re, float(np.linalg.norm(a, 2)))


def _residual_known(params, residual, drift_of) -> bool:
    """A Lyapunov residual above the gate is known red only within three
    percent below the instability threshold in g, and only up to the
    round-off bound of the solve, eps ||A|| / |max Re lambda(A)|, which
    grows as the drift nears instability."""
    drift = drift_of(params)
    if not drift.stable:
        return False
    near = not drift_of(params.with_(g_freq=NEAR_THRESHOLD * params.g_freq)).stable
    return near and residual <= EPS * drift.norm / abs(drift.max_re)


def _derivative_known(params, settings, gap, sigma_opt, d_ref) -> bool:
    """A gap between the default derivative and the derivative-lyapunov
    route is known red only while the default is the Richardson central
    difference, and only up to its round-off bound.  With step h and
    sigma_opt evaluated to EVAL_ULPS units of round-off, (4 fine - coarse)/3
    carries an error of at most 3 EVAL_ULPS eps ||sigma_opt|| / h.  The bound
    is large where sigma_opt barely depends on g (cold, weakly driven, broad
    cavities)."""
    if settings.derivative_method != "finite-difference":
        return False
    h = settings.fd_step
    if h is None:  # the step rule of fisher.dsigma_dg
        h = max(FD_STEP_REL * abs(params.g_freq), FD_STEP_FLOOR)
    bound = (3.0 * EVAL_ULPS * EPS * np.linalg.norm(sigma_opt)
             / (h * np.linalg.norm(d_ref)))
    return gap <= bound


def _state_checks(params, settings):
    """(sigma_opt, dsigma_opt, failure reasons) at one system point."""
    reasons = []
    cav = cavity_covariance(params, settings)
    tc = transient_covariance(params, cav.drift, cav.diffusion)
    ref = cav.covariance.matrix_scaled
    rel = float(np.linalg.norm(tc.matrix_scaled - ref) / np.linalg.norm(ref))
    if not rel <= GATE_COVARIANCE:
        reasons.append((f"covariance vs transient oracle {rel:.3e} > "
                        f"{GATE_COVARIANCE:.0e}", False))
    sigma_opt = cav.covariance.optical_block
    d_default = cavity_dsigma_opt(params, settings)
    d_ref = cavity_dsigma_opt(params, replace(settings,
                                              derivative_method="derivative-lyapunov"))
    gap = float(np.linalg.norm(d_default - d_ref) / np.linalg.norm(d_ref))
    if not gap <= GATE_DERIVATIVE:
        known = _derivative_known(params, settings, gap, sigma_opt, d_ref)
        reasons.append((f"{settings.derivative_method} derivative vs "
                        f"derivative-lyapunov {gap:.3e} > {GATE_DERIVATIVE:.0e}"
                        + (" (within round-off)" if known else ""), known))
    return sigma_opt, d_default, reasons


def _numeric_cfi(sigma_out, dsigma_out, theta, eta) -> float:
    r = np.array([math.cos(theta), math.sin(theta)])
    slope = 0.5 * float(r @ dsigma_out @ r)  # d(variance)/dt, homodyne_variance
    v0 = homodyne_variance(sigma_out, theta, eta)
    if slope == 0.0:
        return 0.0
    h = 1e-4 * v0 / abs(slope)

    def family(t):
        v = homodyne_variance(sigma_out + t * dsigma_out, theta, eta)
        return lambda k: np.exp(-k * k / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)

    return cfi_numeric(family, 0.0, h)


def _cfi_check(point, spec, settings, sigma_opt, dsigma_opt):
    sigma_out = output_state(sigma_opt, spec, vacuum=settings.vacuum_mode).matrix
    # the derivative goes through the cavity term of the output map only,
    # (kappa_meas / tau) G sigma_opt G^T with G from cavity_output_map
    g_int = cavity_output_map(spec)
    dsigma_out = (spec.kappa_meas / spec.window) * g_int @ dsigma_opt @ g_int.T
    numeric = _numeric_cfi(sigma_out, dsigma_out, point.theta, spec.eta)
    rel = abs(point.cfi - numeric) / max(abs(numeric), 1e-300)
    if point.cfi == numeric or rel <= GATE_CFI:
        return None
    return f"CFI vs numeric Fisher information {rel:.3e} > {GATE_CFI:.0e}"


def grade_points(points: list[Point], rng, n_oracle: int) -> Grade:
    grade = Grade(attempted=len(points))
    drift_cache = {}

    def drift_of(params):
        if params not in drift_cache:
            drift_cache[params] = _drift(params)
        return drift_cache[params]

    stable_ix = []
    for i, pt in enumerate(points):
        if pt.error:
            grade.record(pt.label, [(pt.error, False)])
            continue
        params, meas = pt.cfg.materialize(pt.variable, pt.value)
        drift = drift_of(params)
        reasons = []
        if drift.stable != pt.stable:
            reasons.append((f"emitted stable={pt.stable} but the drift "
                            f"eigenvalues say {drift.stable}", False))
        if pt.stable:
            if not all(x is not None and math.isfinite(x) for x in pt.outputs):
                reasons.append((f"non-finite output {pt.outputs}", False))
            elif not pt.residual <= GATE_RESIDUAL:
                known = _residual_known(params, pt.residual, drift_of)
                reasons.append((f"Lyapunov residual {pt.residual:.3e} > "
                                f"{GATE_RESIDUAL:.0e}"
                                + (" (near threshold)" if known else ""), known))
            elif not reasons:
                stable_ix.append(i)
            if meas["eta"] < 1.0:
                grade.eta_below_1 += 1
        else:
            grade.unstable += 1
        grade.record(pt.label, reasons)

    chosen = sorted(rng.choice(stable_ix, size=min(n_oracle, len(stable_ix)),
                               replace=False)) if stable_ix and n_oracle else []
    # the state and derivative verdict is recorded once per system point,
    # on the first chosen point that has it; the CFI verdict per point
    state_cache = {}
    for i in chosen:
        pt = points[i]
        params, _ = pt.cfg.materialize(pt.variable, pt.value)
        settings = pt.cfg.settings()
        reasons = []
        if params not in state_cache:
            sigma_opt, dsigma_opt, reasons = _state_checks(params, settings)
            state_cache[params] = sigma_opt, dsigma_opt
        sigma_opt, dsigma_opt = state_cache[params]
        spec = PointOp(pt.cfg, pt.variable, pt.value).inputs()[1]
        reason = _cfi_check(pt, spec, settings, sigma_opt, dsigma_opt)
        if reason:
            reasons = reasons + [(reason, False)]
        grade.oracle_checked += 1
        grade.record(pt.label, reasons)
    return grade


def grade_validate(results: list) -> Grade:
    """validate() checks are the operations' points."""
    grade = Grade(attempted=len(results))
    for r in results:
        if r.passed:
            continue
        label = f"{r.suite}: {r.name}"
        reason = f"measured {r.measured:.3e}, tol {r.tolerance:.3e}"
        grade.record(label, [(reason, (r.suite, r.name) in KNOWN_RED)])
    return grade
