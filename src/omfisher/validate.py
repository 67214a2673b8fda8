"""Oracle validation suites behind `omfisher validate` and the test surface.

Each check pits an implementation path against an independent oracle:
the closed-form kernel D_R vs adaptive quadrature, the closed-form Brownian
diffusion vs the frequency-domain integral, the implicit coupling
derivative vs Richardson differences, Lyapunov solve vs transient
integration, closed-form output covariance vs the double integral, the
Gaussian QFI formula vs the truncated-Fock SLD oracle, and the homodyne CFI
formula vs numeric Fisher information of the outcome pdf (including the
factor-2 adjudication between the two printed ideal-detector forms).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .errors import OmfisherError
from .fisher import cfi_bhd, qfi_gaussian, theta_max
from .kernels import kernel_closed, kernel_dr_numeric
from .dynamics import brownian_diffusion_freq, drift_matrix, transient_covariance
from .oracle import (cfi_numeric, fd_step, homodyne_pdf, output_covariance_numeric,
                     qfi_fock_converged, richardson_dsigma_opt, sigma_opt_at)
from .output import MeasurementSpec, output_covariance, output_map
from .params import rossi_params, steady_state
from .pipeline import (PipelineSettings, build_measurement, cavity_covariance,
                       cavity_dsigma_opt)

__all__ = ["CheckResult", "validate", "SUITES"]

_SETTINGS = PipelineSettings()
_FD_GATE = 1e-5  # Richardson truncation and round-off, not the suite's tol


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _suite_kernels(tol: float) -> list[CheckResult]:
    base = rossi_params()
    results = []
    worst = 0.0
    worst_at = ""
    for temp in (0.1, 11.0, 300.0):
        bath = base.with_(temperature=temp)
        for x in (0.01, 0.05, 0.3, 1.0, 2.5, 7.0, 20.0, 100.0):
            tau = x / bath.cutoff
            dr_c = kernel_closed(bath, tau)
            dr_n = kernel_dr_numeric(bath, tau)[0]
            rel = abs(dr_c - dr_n) / max(abs(dr_n), 1e-300)
            if rel > worst:
                worst, worst_at = rel, f"D_R at tau*W={x}, T={temp}"
    results.append(CheckResult("kernels", "closed form vs defining integral",
                               worst <= tol, worst, tol, worst_at))
    return results


def _random_stable_points(n: int, rng: np.random.Generator):
    """Stable, monostable parameter points scattered around the baseline."""
    points = []
    while len(points) < n:
        kappa = TWO_PI * 18.5e6 * math.exp(rng.uniform(math.log(0.5), math.log(3.0)))
        p = rossi_params(
            kappa_in=kappa / 2.0, kappa_loss=kappa / 2.0,
            gamma=TWO_PI * 130.0 * math.exp(rng.uniform(math.log(0.3), math.log(30.0))),
            omega_m=TWO_PI * 1.14e6 * math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
            temperature=math.exp(rng.uniform(math.log(0.5), math.log(50.0))),
            g_freq=TWO_PI * 129.0 * rng.uniform(0.0, 4.0),
            power=1e-6 * math.exp(rng.uniform(math.log(0.1), math.log(10.0))),
            delta0=float(rng.choice([-1.0, 1.0])) * kappa * rng.uniform(0.3, 3.0),
        )
        try:
            ss = steady_state(p)
        except OmfisherError:
            continue
        if ss.branch_count == 1 and drift_matrix(p, ss).stable:
            points.append(p)
    return points


def _suite_lyapunov(tol: float) -> list[CheckResult]:
    rng = np.random.default_rng(20240811)
    points = [rossi_params()] + _random_stable_points(50, rng)
    worst = 0.0
    elapsed = 0.0
    for p in points:
        t0 = time.perf_counter()
        cov = cavity_covariance(p, _SETTINGS).covariance
        elapsed += time.perf_counter() - t0
        worst = max(worst, cov.residual)
    per_point = elapsed / len(points)
    worst_freq = worst_fd = 0.0
    for p in _transient_points():
        cav = cavity_covariance(p, _SETTINGS)
        brown = cav.diffusion.matrix_scaled - np.diag([0, 0, 1, 1]) * p.kappa / 2
        gap = np.linalg.norm(brownian_diffusion_freq(p, cav.drift)[0] - brown) / \
            np.linalg.norm(brown)
        worst_freq = max(worst_freq, float(gap))
        d_fd = richardson_dsigma_opt(p, _SETTINGS)
        gap = np.linalg.norm(cavity_dsigma_opt(p, _SETTINGS, cav) - d_fd) / \
            np.linalg.norm(d_fd)
        worst_fd = max(worst_fd, float(gap))
    return [
        CheckResult("lyapunov", "relative residual, baseline + 50 random points",
                    worst <= tol, worst, tol),
        CheckResult("lyapunov", "runtime per point [s]", per_point < 0.05,
                    per_point, 0.05),
        CheckResult("lyapunov",
                    "Brownian diffusion: closed form vs frequency-domain integral",
                    worst_freq <= tol, worst_freq, tol, "5 transient-suite points"),
        CheckResult("lyapunov", "coupling derivative: implicit vs Richardson FD",
                    worst_fd <= _FD_GATE, worst_fd, _FD_GATE, "5 transient-suite points"),
    ]


def _transient_points():
    return [
        rossi_params(),
        rossi_params(gamma=TWO_PI * 1300.0),
        rossi_params(temperature=0.5),
        rossi_params(kappa_in=TWO_PI * 18.5e6, kappa_loss=TWO_PI * 18.5e6),
        rossi_params(g_freq=TWO_PI * 258.0),
    ]


def _suite_transient(tol: float) -> list[CheckResult]:
    worst = 0.0
    t0 = time.perf_counter()
    for p in _transient_points():
        cav = cavity_covariance(p, _SETTINGS)
        ref = cav.covariance.matrix_scaled
        tc = transient_covariance(p, cav.drift, cav.diffusion)
        rel = np.linalg.norm(tc.matrix_scaled - ref) / np.linalg.norm(ref)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    return [
        CheckResult("transient", "stationary sigma vs long-time integration",
                    worst <= tol, worst, tol),
        CheckResult("transient", "total runtime [s]", elapsed < 10.0, elapsed, 10.0),
    ]


def _suite_output(tol: float) -> list[CheckResult]:
    sigma = np.array([[0.93, -0.21], [-0.21, 0.58]])
    worst = 0.0
    for phase in (0.0, 1.57, 3.3, 7.0, 11.0):
        for kt in (0.1, 0.5, 1.0, 3.16, 10.0):
            spec = MeasurementSpec(omega_k=phase, window=1.0, kappa_meas=kt)
            closed = output_covariance(sigma, spec)
            numeric = output_covariance_numeric(sigma, spec)
            rel = np.linalg.norm(closed - numeric) / np.linalg.norm(closed)
            worst = max(worst, float(rel))
    results = [CheckResult("output", "closed form vs double integral",
                           worst <= tol, worst, tol)]
    spec0 = MeasurementSpec(omega_k=0.0, window=0.7, kappa_meas=2.0)
    closed0 = output_covariance(sigma, spec0)
    exact0 = spec0.kappa_meas * spec0.window * sigma + np.eye(2)
    dev = float(np.max(np.abs(closed0 - exact0)))
    results.append(CheckResult("output", "Omega_k=0 reduction k*tau*sigma + 1",
                               dev == 0.0, dev, 0.0, "bitwise identity"))
    return results


def _rossi_output_state():
    """(g0, sigma_out, d sigma_out/dg, g -> sigma_out) at the baseline point,
    the family with every parameter but g frozen."""
    p = rossi_params()
    cav = cavity_covariance(p, _SETTINGS)
    dso = cavity_dsigma_opt(p, _SETTINGS, cav)
    spec = build_measurement(p, omega_k=0.0, settings=_SETTINGS)
    sig = output_covariance(cav.covariance.optical_block, spec)
    dsig = output_map(dso, spec)
    return (p.g_freq, sig, dsig,
            lambda g: output_covariance(sigma_opt_at(p, _SETTINGS, g), spec))


def _suite_qfi(tol: float) -> list[CheckResult]:
    results = []

    # thermal family sigma(g) = (nu0 + g) I
    nu0 = 25.0
    fam = lambda g: np.eye(2) * (nu0 + g)
    fock, drift = qfi_fock_converged(fam, 0.0, h=1e-3)
    formula = qfi_gaussian(fam(0.0), np.eye(2))
    rel = abs(formula - fock) / abs(fock)
    results.append(CheckResult("qfi", f"thermal family (nu={nu0})", rel <= tol,
                               rel, tol, f"truncation drift {drift:.1e}"))

    # squeezed-thermal family: squeeze angle and strength vary with g
    nu0, r0 = 25.0, 0.15

    def sq_fam(g):
        r = r0 + 0.4 * g
        phi = 0.3 + 0.5 * g
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        core = np.diag([nu0 * math.exp(2 * r), nu0 * math.exp(-2 * r)])
        return rot @ core @ rot.T

    h = 1e-4
    fock, drift = qfi_fock_converged(sq_fam, 0.0, h=h)
    dsig = (sq_fam(h) - sq_fam(-h)) / (2 * h)
    formula = qfi_gaussian(sq_fam(0.0), dsig)
    rel = abs(formula - fock) / abs(fock)
    results.append(CheckResult("qfi", f"squeezed-thermal family (nu={nu0}, r={r0})",
                               rel <= tol, rel, tol, f"truncation drift {drift:.1e}"))

    # baseline output state: the full pipeline family
    g0, sig, dsig, pipe = _rossi_output_state()
    fock, drift = qfi_fock_converged(pipe, g0, h=fd_step(g0))
    formula = qfi_gaussian(sig, dsig)
    rel = abs(formula - fock) / abs(fock)
    results.append(CheckResult(
        "qfi", "baseline output state", rel <= tol, rel, tol,
        f"truncation drift {drift:.1e}; exact single-mode formula at "
        f"nu = {math.sqrt(np.linalg.det(sig)):.3f}"))
    return results


def _suite_cfi(tol: float) -> list[CheckResult]:
    results = []
    g0, sig, dsig, pipe = _rossi_output_state()
    h = 1e-4 * g0
    # cfi_numeric evaluates the family only at g0 and g0 +- h
    states = {g0: sig, g0 - h: pipe(g0 - h), g0 + h: pipe(g0 + h)}
    dsig_fd = (states[g0 + h] - states[g0 - h]) / (2.0 * h)

    def family_for(theta, eta):
        return lambda g: lambda k: homodyne_pdf(states[g], theta, eta, k)

    worst = 0.0
    worst_at = ""
    tm = theta_max(sig, dsig, 1.0)
    grid = [(tm.theta, 1.0), (tm.theta, 0.8), (0.0, 1.0), (0.0, 0.5),
            (0.3, 0.8), (0.9, 0.9), (1.4, 0.6), (2.2, 1.0), (2.8, 0.7),
            (tm.theta + math.pi / 4, 0.95)]
    for theta, eta in grid:
        numeric = cfi_numeric(family_for(theta, eta), g0, h)
        formula = cfi_bhd(sig, dsig_fd, theta, eta)
        rel = abs(formula - numeric) / max(abs(numeric), 1e-300)
        if rel > worst:
            worst, worst_at = rel, f"theta={theta:.3f}, eta={eta}"
    results.append(CheckResult("cfi", "homodyne CFI formula vs numeric FI (10 points)",
                               worst <= tol, worst, tol, worst_at))

    # factor-2 adjudication between the two printed eta=1 normalizations:
    # cfi_bhd at eta = 1 and the ideal-detector form (R^T ds R / R^T s R)^2
    theta = tm.theta
    numeric = cfi_numeric(family_for(theta, 1.0), g0, h)
    r = np.array([math.cos(theta), math.sin(theta)])
    f_ideal = float(r @ dsig_fd @ r / (r @ sig @ r)) ** 2
    ratio_bhd = numeric / cfi_bhd(sig, dsig_fd, theta, 1.0)
    ratio_ideal = numeric / f_ideal
    ok = abs(ratio_bhd - 1.0) < 1e-4 and abs(ratio_ideal - 0.5) < 1e-4
    results.append(CheckResult(
        "cfi", "factor-2 adjudication at eta=1", ok, ratio_bhd, 1.0,
        f"numeric/cfi_bhd = {ratio_bhd:.8f}, numeric/ideal-detector form = "
        f"{ratio_ideal:.8f}: the eta->1 limit of the efficiency-dependent "
        "form is correct; the ideal-detector normalization counts twice"))
    return results


# suite -> (runner, tolerance)
_RUNNERS = {
    "kernels": (_suite_kernels, 1e-6),
    "lyapunov": (_suite_lyapunov, 1e-10),
    "transient": (_suite_transient, 1e-6),
    "output": (_suite_output, 1e-8),
    "qfi": (_suite_qfi, 1e-3),
    "cfi": (_suite_cfi, 1e-6),
}
SUITES = tuple(_RUNNERS)


def validate(only: list[str] | None = None) -> list[CheckResult]:
    """Run oracle suites; returns one CheckResult per check."""
    names = list(SUITES) if not only else list(only)
    unknown = [n for n in names if n not in _RUNNERS]
    if unknown:
        raise OmfisherError(f"unknown validate suites {unknown}; available: {SUITES}")
    results = []
    for name in names:
        runner, tol = _RUNNERS[name]
        results.extend(runner(tol))
    return results
