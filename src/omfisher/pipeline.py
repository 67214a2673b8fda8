"""Full parameter-point pipeline: steady state -> covariance -> output state
-> Fisher report.

The coupling derivative of the output covariance is taken with respect to
the frequency-convention coupling g (rad/s).  Because the output filter is
a fixed linear map of the optical block, differentiation is performed on
the intracavity optical block, by the derivative Lyapunov equation, and
pushed through the same map G that gives sigma_out; the map is
g-independent, so this is the derivative of the full pipeline.  The
Richardson differences that cross-check it are an oracle
(``oracle.richardson_dsigma_opt``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from .dynamics import (CovarianceMatrix4, DiffusionMatrix, DriftMatrix,
                       diffusion_matrix, drift_matrix, lyapunov_solve,
                       stationary_covariance, _E1)
from .errors import DomainError, UnstableDriftError
from .fisher import FisherReport, cfi_bhd, qfi_gaussian, theta_max
from .output import MeasurementSpec, output_covariance, output_map
from .output import cavity_output_map  # re-exported: perfbench/checks.py imports it here
from .params import SteadyState, SystemParams, steady_state

__all__ = [
    "PipelineSettings",
    "CavityState",
    "build_measurement",
    "cavity_covariance",
    "output_state",
    "cavity_output_map",
    "cavity_dsigma_opt",
    "fisher_report",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PipelineSettings:
    """Convention switches of the pipeline (``config.SWITCHES``).

    ``derivative_method`` names the one coupling-derivative route and
    accepts no other value: ``cavity_dsigma_opt`` raises DomainError for
    any other."""

    kappa_meas_mode: str = "kappa_total"  # or "kappa_in"
    branch: str | None = None
    # not a setting: perfbench/checks.py:184, 206 and 211 read and replace
    # it; the follow-up of ROADMAP item 1 deletes it
    derivative_method: str = "derivative-lyapunov"
    # not a setting: the constant perfbench/checks.py:233 passes to
    # output_state; the follow-up of ROADMAP item 1 deletes both
    vacuum_mode: ClassVar[str] = "identity"


@dataclass(frozen=True)
class CavityState:
    steady: SteadyState
    drift: DriftMatrix
    diffusion: DiffusionMatrix
    covariance: CovarianceMatrix4


def build_measurement(params: SystemParams, omega_k: float = 0.0,
                      window: float | None = None, eta: float = 1.0,
                      theta: float = 0.0,
                      settings: PipelineSettings = PipelineSettings()) -> MeasurementSpec:
    """Measurement spec with defaults tau = 1/kappa and kappa_meas chosen by
    ``settings.kappa_meas_mode``: the total decay rate kappa (the default)
    or the input-coupling rate kappa_in."""
    if settings.kappa_meas_mode == "kappa_in":
        kappa_meas = params.kappa_in
    elif settings.kappa_meas_mode == "kappa_total":
        kappa_meas = params.kappa
    else:
        raise DomainError(f"unknown kappa_meas_mode {settings.kappa_meas_mode!r}")
    if window is None:
        window = 1.0 / params.kappa
    return MeasurementSpec(omega_k=omega_k, window=window, kappa_meas=kappa_meas,
                           eta=eta, theta=theta)


def cavity_covariance(params: SystemParams,
                      settings: PipelineSettings = PipelineSettings()) -> CavityState:
    """Steady state, drift, diffusion and stationary covariance at one point."""
    ss = steady_state(params, branch=settings.branch)
    a = drift_matrix(params, ss)
    d = diffusion_matrix(params, a)
    cov = stationary_covariance(a, d)
    return CavityState(steady=ss, drift=a, diffusion=d, covariance=cov)


def output_state(sigma_opt: np.ndarray, spec: MeasurementSpec,
                 vacuum: str = "identity"):
    """``output_covariance`` as the ``.matrix`` of a record, under the name
    and signature that perfbench/checks.py:233 calls; the follow-up of
    ROADMAP item 1 deletes it with ``PipelineSettings.vacuum_mode``."""
    if vacuum != "identity":
        raise DomainError(f"unknown vacuum convention {vacuum!r}")
    return SimpleNamespace(matrix=output_covariance(sigma_opt, spec))


def _steady_derivatives(params: SystemParams, ss: SteadyState):
    """(d alpha/dg, d delta/dg) by implicit differentiation of the
    photon-number cubic, g in the frequency convention."""
    g = params.g_freq
    b = 2.0 * g * g / params.omega_m  # per-photon detuning shift
    a_n = ss.alpha_abs2
    if g == 0.0 or a_n == 0.0:
        return 0.0, 0.0
    db = 2.0 * b / g
    c_lor = params.delta0 ** 2 + params.kappa ** 2 / 4.0
    f_a = 3.0 * b * b * a_n * a_n - 4.0 * params.delta0 * b * a_n + c_lor
    f_b = 2.0 * b * a_n ** 3 - 2.0 * params.delta0 * a_n ** 2
    da_n = -f_b * db / f_a
    ddelta = -(db * a_n + b * da_n)
    dalpha = da_n / (2.0 * ss.alpha)
    return dalpha, ddelta


def cavity_dsigma_opt(params: SystemParams,
                      settings: PipelineSettings = PipelineSettings(),
                      cavity: CavityState | None = None) -> np.ndarray:
    """d(sigma_opt)/dg at the configured coupling, from the derivative
    Lyapunov equation

        A s' + s' A^T = -(A' s + s A'^T + D'),

    with A' from implicit differentiation of the steady state and D' from
    the Frechet derivative of exp(A tau) inside the Brownian integral.  It
    reuses the cavity state's eigendecomposition, its Laplace transforms
    L, L' and the LU of the Lyapunov operator, which is the same as for
    sigma.  ``cavity``, the state at ``params`` when the caller already has
    it, spares a re-solve.
    """
    if settings.derivative_method != "derivative-lyapunov":
        raise DomainError(f"unknown derivative method {settings.derivative_method!r}; "
                          "the one route is 'derivative-lyapunov'")
    cav = cavity or cavity_covariance(params, settings)
    ss, a, sigma_s = cav.steady, cav.drift, cav.covariance.matrix_scaled
    if not a.stable:
        raise UnstableDriftError("derivative Lyapunov solve requires a Hurwitz drift")

    g = params.g_freq
    dalpha, ddelta = _steady_derivatives(params, ss)
    da = np.zeros((4, 4))
    da[1, 2] = 2.0 * _SQRT2 * (ss.alpha + g * dalpha)
    da[3, 0] = _SQRT2 * (ss.alpha + g * dalpha)
    da[2, 3] = ddelta
    da[3, 2] = -ddelta

    # Frechet derivative of exp(A tau) contracted with the kernel,
    # d/dg int k(tau) e^(A tau) e1 dtau: divided differences of L(lambda)
    lam, vec, c_vec, _ = a.spectrum
    lap, dlap = cav.diffusion.laplace, cav.diffusion.dlaplace
    b_mat = np.linalg.solve(vec, da.astype(complex) @ vec)
    dl = lam[None, :] - lam[:, None]
    close = np.abs(dl) < 1e-8 * np.max(np.abs(lam))
    theta = np.where(close, dlap[:, None],
                     (lap[None, :] - lap[:, None]) / np.where(close, 1.0, dl))
    xi = (b_mat * theta) @ c_vec
    w_int = np.real(vec @ xi)
    d_brown_prime = np.outer(_E1, w_int) + np.outer(w_int, _E1)

    rhs = da @ sigma_s + sigma_s @ da.T + d_brown_prime
    sigma_prime, _ = lyapunov_solve(a, rhs)
    return sigma_prime[2:, 2:]


def fisher_report(params: SystemParams, spec: MeasurementSpec,
                  settings: PipelineSettings = PipelineSettings(),
                  auto_theta: bool = False,
                  cavity: CavityState | None = None,
                  dsigma_opt: np.ndarray | None = None) -> FisherReport:
    """QFI, CFI and optimal quadrature at one parameter point.

    ``cavity`` and ``dsigma_opt`` allow sweeps over measurement-only
    variables to reuse the state pipeline.
    """
    if cavity is None:
        cavity = cavity_covariance(params, settings)
    if dsigma_opt is None:
        dsigma_opt = cavity_dsigma_opt(params, settings, cavity)

    sigma_out = output_covariance(cavity.covariance.optical_block, spec)
    dsigma_out = output_map(dsigma_opt, spec)

    tm = theta_max(sigma_out, dsigma_out, eta=spec.eta)
    theta = tm.theta if auto_theta else spec.theta
    qfi = qfi_gaussian(sigma_out, dsigma_out)
    cfi = cfi_bhd(sigma_out, dsigma_out, theta, spec.eta)
    saturation = 0.5 * tm.lambda_max ** 2 / qfi if qfi > 0 else float("nan")

    return FisherReport(
        qfi=qfi, cfi=cfi, theta=theta, eta=spec.eta,
        theta_max=tm.theta, lambda_max=tm.lambda_max,
        saturation_ratio=saturation,
        diagnostics={
            "lyapunov_residual": cavity.covariance.residual,
            "diffusion_error": cavity.diffusion.error_estimate,
            "diffusion_path": cavity.diffusion.path,
            "branch_count": cavity.steady.branch_count,
            "theta_max_degenerate": bool(tm.degenerate),
        },
    )
