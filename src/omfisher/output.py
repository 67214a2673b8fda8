"""Filtered output field: covariance of the detected mode and homodyne variance.

A rectangular temporal window of length tau centered at filter frequency
Omega_k selects one output mode.  Under the stationary-cavity approximation
the cavity term of the 2x2 output covariance is the one linear map

    (k/tau) G sigma_opt G^T,   G = int_0^tau G(t') dt' = [[c, s], [-s, c]],
    c = sin(W tau)/W,   s = 2 sin^2(W tau/2)/W,

of the optical block (W = Omega_k, k = kappa_meas); being linear it also
maps d sigma_opt/dg to d sigma_out/dg.  The additive vacuum term is the
identity, the input-output result (Gardiner & Collett, PRA 31, 3761
(1985)): G(t) G(t)^T = 1 pointwise for the rotation kernel, which keeps
the output state physical at all filter frequencies and reproduces the
reported peak of the QFI at Omega_k = 0.  This module holds no oracle:
the double integral that reproduces the map by direct quadrature, and the
homodyne pdf, are in ``oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "MeasurementSpec",
    "cavity_output_map",
    "output_map",
    "output_covariance",
    "homodyne_variance",
]


@dataclass(frozen=True)
class MeasurementSpec:
    """Filter and detector settings of the balanced homodyne measurement."""

    omega_k: float       # filter center frequency [rad/s]
    window: float        # detection window tau [s]
    kappa_meas: float    # decay rate entering the output map [rad/s]
    eta: float = 1.0     # detector quantum efficiency
    theta: float = 0.0   # local-oscillator phase [rad]

    def __post_init__(self):
        if self.window <= 0:
            raise DomainError("detection window must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise DomainError("eta must be in (0, 1]")
        if self.kappa_meas <= 0:
            raise DomainError("kappa_meas must be positive")


def cavity_output_map(spec: MeasurementSpec) -> np.ndarray:
    """G = int_0^tau G(t') dt' = [[c, s], [-s, c]] with c = sin(W tau)/W and
    s = 2 sin^2(W tau/2)/W, the form of (1 - cos W tau)/W that keeps its
    relative accuracy at small phase."""
    tau, wk = spec.window, spec.omega_k
    if wk == 0.0:
        return np.eye(2) * tau
    x = wk * tau
    c = math.sin(x) / wk
    s = 2.0 * math.sin(0.5 * x) ** 2 / wk
    return np.array([[c, s], [-s, c]])


def output_map(block: np.ndarray, spec: MeasurementSpec) -> np.ndarray:
    """(kappa_meas/tau) G block G^T: the cavity term of the output
    covariance for block = sigma_opt, and d sigma_out/dg for
    block = d sigma_opt/dg."""
    g_int = cavity_output_map(spec)
    return (spec.kappa_meas / spec.window) * g_int @ np.asarray(block, dtype=float) @ g_int.T


def output_covariance(sigma_opt: np.ndarray, spec: MeasurementSpec) -> np.ndarray:
    """Output covariance (kappa_meas/tau) G sigma_opt G^T + I, the 2x2
    symmetric covariance of the filtered output quadratures.

    At Omega_k = 0 this is kappa tau sigma_opt + I, evaluated in that form
    so the identity holds exactly.
    """
    sigma_opt = np.asarray(sigma_opt, dtype=float)
    if spec.omega_k * spec.window == 0.0:
        cav = spec.kappa_meas * spec.window * sigma_opt
    else:
        cav = output_map(sigma_opt, spec)
    return 0.5 * (cav + cav.T) + np.eye(2)


def homodyne_variance(sigma_out: np.ndarray, theta: float, eta: float) -> float:
    """Variance of the homodyne outcome, (1 - eta + 2 eta R^T s R) / (4 eta)."""
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must be in (0, 1]")
    r = np.array([math.cos(theta), math.sin(theta)])
    quad_form = float(r @ np.asarray(sigma_out, dtype=float) @ r)
    v = (1.0 - eta + 2.0 * eta * quad_form) / (4.0 * eta)
    if v <= 0.0:
        raise DomainError(f"non-positive homodyne variance {v}")
    return v
