"""Oracle of the bath kernel: the non-Markovian Brownian kernel of the ohmic
bath whose mass, damping, temperature and cutoff ``SystemParams`` holds.

The symmetric kernel D_R, the one the Brownian diffusion integrates, is

    D_R(tau) = int_0^inf dw J(w) cos(w tau) coth(hbar w / (2 kB T)),

with the exponential-cutoff ohmic density J(w) = (2 m gamma / pi) w e^(-w/W).
Its closed form involves the complex trigamma function at
z = (1 - i W tau) kB T / (hbar W).  No production module imports this one:
the diffusion uses the kernel's Laplace transform (dynamics.brownian_laplace),
and validate's kernel suite and acceptance criterion 3 check the closed
form against adaptive quadrature of the defining integral.  The Bernoulli
numbers and the thermal weight w coth(hbar w/2kT) it shares with the
production path live in ``dynamics``.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import HBAR, KB
from .dynamics import BERNOULLI_2K, _w_coth
from .errors import DomainError, QuadratureError
from .params import SystemParams

__all__ = [
    "trigamma",
    "kernel_closed",
    "kernel_dr_numeric",
]

# error budget of the kernel quadrature, relative to int J coth dw
_QUAD_TOL = 1e-9

# B_2..B_20, correctly rounded, for the asymptotic tail of trigamma
_BERNOULLI = tuple(num / den for num, den in BERNOULLI_2K[:10])


def trigamma(z):
    """Complex trigamma Psi^(1)(z), vectorized.

    Recurrence Psi1(z) = Psi1(z+1) + 1/z^2 shifts the argument until
    Re(z) >= 10, then a 10-term Bernoulli asymptotic series is applied.
    Conjugate symmetry Psi1(conj(z)) = conj(Psi1(z)) holds to ~1e-13.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    on_pole = (z_arr.imag == 0) & (z_arr.real <= 0) & (z_arr.real == np.round(z_arr.real))
    if np.any(on_pole):
        raise DomainError("trigamma pole at non-positive integer argument")

    w = z_arr.copy()
    acc = np.zeros_like(w)
    mask = w.real < 10.0
    while np.any(mask):
        acc[mask] += 1.0 / (w[mask] * w[mask])
        w[mask] += 1.0
        mask = w.real < 10.0

    r = 1.0 / w
    r2 = r * r
    tail = np.zeros_like(w)
    for b2k in reversed(_BERNOULLI):
        tail = (tail + b2k) * r2
    out = acc + r + 0.5 * r2 + r * tail
    return complex(out[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def kernel_closed(params: SystemParams, tau):
    """Closed-form symmetric kernel D_R(tau), a float at one lag or an
    array on an array of lags."""
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)):
        raise DomainError("tau must be finite")
    m, g, T, W = params.mass, params.gamma, params.temperature, params.cutoff
    pref = 2.0 * m * g / math.pi
    x = W * np.atleast_1d(tau)
    den = (x * x + 1.0) ** 2
    first = pref * W * W * (x * x - 1.0) / den
    if T == 0.0:
        # (kB T)^2 Psi1(z) -> (hbar W)^2 / (1 - i W tau)^2 as T -> 0
        zinv2 = 1.0 / (1.0 - 1j * x) ** 2
        thermal = pref * 2.0 * W * W * zinv2.real
    else:
        kt = KB * T
        zz = (1.0 - 1j * x) * (kt / (HBAR * W))
        thermal = (pref / HBAR ** 2) * kt * kt * 2.0 * np.real(trigamma(zz))
    d_r = first + thermal
    if tau.ndim == 0:
        return float(d_r[0])
    return d_r


def _cutoff_upper(params: SystemParams, tol_abs: float) -> float:
    """Upper integration bound with analytic tail below tol_abs."""
    m, g, T, W = params.mass, params.gamma, params.temperature, params.cutoff
    pref = 2.0 * m * g / math.pi
    upper = 40.0 * W
    for _ in range(30):
        coth_cap = 1.0 if T == 0.0 else 1.0 + 2.0 * KB * T / (HBAR * upper)
        tail = pref * coth_cap * W * (upper + W) * math.exp(-upper / W)
        if tail < tol_abs:
            return upper
        upper *= 1.5
    return upper


def kernel_dr_numeric(params: SystemParams, tau: float) -> tuple[float, float]:
    """D_R(tau) and its absolute error estimate by adaptive quadrature
    (QAWO cosine weight) of the defining integral.

    The error budget is _QUAD_TOL relative to the non-oscillatory envelope
    int J coth dw.
    """
    from scipy.integrate import quad  # a large import that only the oracles need

    if not math.isfinite(tau):
        raise DomainError("tau must be finite")
    m, g, T, W = params.mass, params.gamma, params.temperature, params.cutoff
    pref = 2.0 * m * g / math.pi

    def f(w):
        return pref * _w_coth(w, T) * math.exp(-w / W)

    scale, _ = quad(f, 0.0, 20.0 * W, limit=200)
    scale = abs(scale) + 1e-300
    tol_abs = _QUAD_TOL * scale
    upper = _cutoff_upper(params, 0.25 * tol_abs)

    abs_tau = abs(tau)
    if abs_tau == 0.0:
        val, err = quad(f, 0.0, upper, epsabs=0.5 * tol_abs, epsrel=1e-12, limit=400)
    else:
        res = quad(f, 0.0, upper, weight="cos", wvar=abs_tau,
                   epsabs=0.5 * tol_abs, epsrel=1e-12, limit=400, maxp1=100,
                   full_output=1)
        if len(res) > 3:
            raise QuadratureError(
                f"kernel quadrature did not converge: {res[3]}", estimate=res[0])
        val, err = res[0], res[1]
    err = err + 0.25 * tol_abs  # truncated tail contribution
    if err > tol_abs:
        raise QuadratureError(
            f"kernel quadrature error {err:.3e} exceeds budget {tol_abs:.3e}",
            estimate=val)
    return val, err
