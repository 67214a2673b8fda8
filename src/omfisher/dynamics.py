"""Linearized dynamics: drift matrix, diffusion matrix, stationary covariance.

Everything is solved in an internally nondimensionalized basis where the
mechanical quadratures are measured in zero-point units
(x_zp = sqrt(hbar/(2 m omega_m)), p_zp = sqrt(hbar m omega_m / 2)); raw SI
drift entries span ~30 orders of magnitude and would wreck conditioning.
The drift, diffusion and covariance matrices exist only in the scaled basis,
where the optical block is the same as in SI units.

The diffusion matrix is

    D = int_0^inf [M1(tau) exp(A^T tau) + exp(A tau) M1(tau)] dtau,

where M1 carries the delta-correlated optical noise (kappa/2 on the optical
diagonal, with the half-weight endpoint convention int_0^inf delta f = f(0)/2)
and the Brownian kernel hbar*D_R(tau) in the momentum slot.  The Brownian
part reduces to a rank-2 update e1 u^T + u e1^T with
u = int k(tau) exp(A tau) e1 dtau = V (c o L(lambda)) in the drift
eigenbasis, with the Laplace transform L of the kernel in closed form; an
ill-conditioned eigenbasis falls back to the frequency-domain integral,
which is also D's oracle.  L rests on e^w E1(w): a power series near the
origin and the branch cut, the continued fraction of DLMF 6.9.1 elsewhere,
one argument at a time.  BERNOULLI_2K gives the Taylor branch of L's
Matsubara sum, and _w_coth, the kernel's thermal weight, the frequency
path; the kernel oracle imports both.  The oracle of the Lyapunov solve
given D, transient_covariance, integrates from sigma = 0 by Van Loan steps
with horizon doubling; it needs no eigenbasis and no Kronecker solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .constants import HBAR, KB
from .errors import (DegenerateLyapunovError, DomainError, NumericalError,
                     QuadratureError, UnstableDriftError)
from .params import SteadyState, SystemParams

__all__ = [
    "DriftMatrix",
    "DiffusionMatrix",
    "CovarianceMatrix4",
    "drift_matrix",
    "diffusion_matrix",
    "brownian_laplace",
    "brownian_diffusion_freq",
    "lyapunov_solve",
    "stationary_covariance",
    "transient_covariance",
]

_E1 = np.array([0.0, 1.0, 0.0, 0.0])
_MAX_TERMS = 1 << 16
# relative error budget of the Brownian diffusion
_DIFFUSION_TOL = 1e-7
# Bernoulli numbers B_2..B_24 as exact (numerator, denominator) pairs
BERNOULLI_2K = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730),
)
# Taylor coefficients zeta(2k)/pi^(2k) = |B_2k| 2^(2k-1)/(2k)!, k = 1..12, of
# brownian_laplace's h(y) in y^2, each rounded once from the exact rational
_H_TAYLOR = np.array([abs(num) * 2 ** (2 * k - 1) / (den * math.factorial(2 * k))
                      for k, (num, den) in enumerate(BERNOULLI_2K, 1)])
# Lentz's method for e^w E1(w): stop once a step changes the value by less
# than _CF_EPS; more steps than the 500 partial numerators -k^2 mean an
# argument outside its domain
_CF_EPS = 2.0 ** -52
_CF_NUMERATORS = tuple(-float(k * k) for k in range(1, 501))
# 1/k for the power series of E1, enough terms for |w| <= 40
_INV_K = 1.0 / np.arange(1.0, 160.0)
# coefficients (-1)^m (2m)! and (-1)^m (2m+1)! of the series of f and g in 1/z^2
_F_ASYM = np.array([(-1.0) ** m * math.factorial(2 * m) for m in range(18)])
_G_ASYM = np.array([(-1.0) ** m * math.factorial(2 * m + 1) for m in range(18)])


@dataclass(frozen=True)
class DriftMatrix:
    """Drift matrix over (dq, dp, dX, dY) in zero-point mechanical units,
    with its spectrum and Lyapunov operator, each decomposed once on first
    use."""

    matrix_scaled: np.ndarray

    @cached_property
    def spectrum(self):
        """(lambda, V, c = V^-1 e1, cond V) of the scaled drift matrix."""
        try:
            lam, vec = np.linalg.eig(self.matrix_scaled)
            c = np.linalg.solve(vec, _E1.astype(complex))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigenvalue solver failed on drift matrix") from exc
        return lam, vec, c, np.linalg.cond(vec)

    @property
    def stable(self) -> bool:
        """True iff every eigenvalue has Re < 0 (Hurwitz)."""
        return bool(np.all(self.spectrum[0].real < 0.0))

    @cached_property
    def lyapunov_operator(self) -> np.ndarray:
        """The 16x16 Kronecker operator K = A (+) A = A x I + I x A of
        s -> A s + s A^T on the scaled drift.

        Its eigenvalues are the sums lambda_i + lambda_j of the drift's
        eigenvalues (Horn & Johnson, Topics in Matrix Analysis, Sec. 4.4),
        so the shared ``spectrum`` decides singularity: DegenerateLyapunovError
        when min |lambda_i + lambda_j| <= 1e-14 max |lambda_i + lambda_j|."""
        lam = self.spectrum[0]
        sums = np.abs(lam[:, None] + lam[None, :])
        if sums.min() <= 1e-14 * sums.max():
            raise DegenerateLyapunovError(
                "Lyapunov operator is singular (eigenvalue pair summing to zero)")
        eye = np.eye(4)
        return np.kron(self.matrix_scaled, eye) + np.kron(eye, self.matrix_scaled)


@dataclass(frozen=True)
class DiffusionMatrix:
    """Symmetrized noise input of the covariance dynamics."""

    matrix_scaled: np.ndarray
    error_estimate: float      # relative, scaled space
    path: str                  # "laplace" or "frequency"
    # L(lambda) and dL/dlambda of the Brownian kernel at the drift
    # eigenvalues (brownian_laplace), on either path
    laplace: np.ndarray
    dlaplace: np.ndarray


@dataclass(frozen=True)
class CovarianceMatrix4:
    """Stationary covariance over (dq, dp, dX, dY)."""

    matrix_scaled: np.ndarray
    residual: float            # relative Lyapunov residual, scaled space

    @property
    def optical_block(self) -> np.ndarray:
        """2x2 covariance of (dX, dY); scale-free."""
        return self.matrix_scaled[2:, 2:].copy()


def drift_matrix(params: SystemParams, ss: SteadyState) -> DriftMatrix:
    """Assemble the drift matrix of the linearized Langevin equations."""
    m, wm, gam = params.mass, params.omega_m, params.gamma
    kap, delta = params.kappa, ss.delta_eff
    gsi, alpha = params.g_si, ss.alpha

    a = np.zeros((4, 4))
    a[0, 1] = 1.0 / m
    a[1, 0] = -m * wm ** 2
    a[1, 1] = -gam
    a[1, 2] = math.sqrt(2.0) * HBAR * gsi * alpha
    a[2, 2] = a[3, 3] = -kap / 2.0
    a[2, 3] = delta
    a[3, 2] = -delta
    a[3, 0] = math.sqrt(2.0) * gsi * alpha

    # built in SI and then rescaled, not written in closed form: this order
    # of rounding fixes every output bit; only the scaled form is kept
    x_zp = math.sqrt(HBAR / (2.0 * m * wm))
    p_zp = math.sqrt(HBAR * m * wm / 2.0)
    scale = np.array([x_zp, p_zp, 1.0, 1.0])
    return DriftMatrix(matrix_scaled=(a / scale[:, None]) * scale[None, :])


def _exp_e1_series(w, r_max: float):
    """e^w E1(w) from the power series E1(w) = -gamma - ln w
    - sum_k (-w)^k / (k k!) (DLMF 6.6.2), summed to ceil(e r_max) + 30
    terms (r_max >= |w|), past which the terms fall below round-off of the
    result."""
    inv_k = _INV_K[:math.ceil(math.e * r_max) + 30]
    terms = np.cumprod(-w[:, None] * inv_k, axis=1)  # (-w)^k / k!
    return np.exp(w) * (-np.euler_gamma - np.log(w) - terms @ inv_k)


def _lentz(w: complex) -> complex:
    """e^w E1(w) from the continued fraction of DLMF 6.9.1 in its even form
    1/(w+1 - 1^2/(w+3 - 2^2/(w+5 - ...))), by Lentz's method: step k
    multiplies the value by D_k / E_k, with D_k = 1/(b_k + a_k D_(k-1)) and
    E_k = 1/(b_k + a_k E_(k-1)) (E_0 = 0)."""
    b = w + 1.0
    d, e = 1.0 / b, 0.0
    h = d
    for a in _CF_NUMERATORS:
        b += 2.0
        d = 1.0 / (b + a * d)
        e = 1.0 / (b + a * e)
        step = d / e
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise NumericalError("continued fraction of E1 did not converge",
                         details={"arguments": [w]})


def _exp_e1(w):
    """e^w E1(w) for complex w off the negative real axis, |w| <= 40: the
    power series where |w| < 2, or where Re w < 0 and |Im w| < 4 (near the
    cut, where the continued fraction converges slowly), the continued
    fraction elsewhere."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    r = np.abs(w)
    series = (r < 2.0) | ((w.real < 0.0) & (np.abs(w.imag) < 4.0))
    if series.any():
        out[series] = _exp_e1_series(w[series], float(np.max(r[series])))
    if not series.all():
        out[~series] = [_lentz(v) for v in w[~series].tolist()]
    return out


def _aux_fg(z, with_g: bool = True):
    """Auxiliary functions f(z), g(z) of DLMF 6.2(ii), Re z > 0.

    Up to |z| = 40 they come from q(w) = e^w E1(w) at w = -iz and iz:
    f = (q(-iz) - q(iz)) / 2i, g = (q(-iz) + q(iz)) / 2.
    Above |z| = 40 the asymptotic series in 1/z^2 (DLMF 6.12.3-4) is exact
    to rounding; it is summed only when some |z| > 40.  g is None unless
    with_g."""
    z = np.asarray(z, dtype=complex)
    f = np.empty(z.shape, dtype=complex)
    g = np.empty(z.shape, dtype=complex) if with_g else None
    big = np.abs(z) > 40.0
    if not big.all():
        zs = z[~big]
        q = _exp_e1(np.concatenate([-1j * zs, 1j * zs]))
        qm, qp = q[:zs.size], q[zs.size:]
        f[~big] = (qm - qp) / 2j
        if with_g:
            g[~big] = (qm + qp) / 2.0
    if big.any():
        zb = z[big]
        w = 1.0 / (zb * zb)
        f[big] = polyval(w, _F_ASYM) / zb
        if with_g:
            g[big] = polyval(w, _G_ASYM) * w
    return f, g


def _truncation_bound(params: SystemParams, n: int, amod):
    """Bound on the tail of brownian_laplace's sum after n terms at |lambda| = amod."""
    w_t = 2.0 * KB * params.temperature / HBAR
    r2 = np.minimum((amod / (math.pi * w_t * (n + 1))) ** 2, 1.0)
    with np.errstate(divide="ignore"):
        return 16.0 * params.gamma * params.cutoff ** 3 * amod / (
            3.0 * math.pi ** 5 * params.omega_m * n ** 3 * w_t ** 3 * (1.0 - r2))


def _matsubara_terms(params: SystemParams) -> int:
    """Smallest power of two whose truncation bound at |lambda| = 2 a_max,
    relative to ||D|| >= kappa/sqrt 2, is _DIFFUSION_TOL/10 (margin for the
    weights |V c|).  a_max bounds the drift rates from static parameters, not
    the eigenvalues at the point, so the count is the same at g and g +- h."""
    a_max = params.omega_m + params.gamma + params.kappa + abs(params.delta0)
    n = 1
    while (rel := 2.0 ** 1.5 / params.kappa
           * _truncation_bound(params, n, 2.0 * a_max)) > 0.1 * _DIFFUSION_TOL:
        if 2 * n > _MAX_TERMS:
            raise QuadratureError(
                f"T = {params.temperature:.3e} K: Matsubara truncation bound "
                f"{rel:.3e} at the cap of {n} terms exceeds tol/10", estimate=rel)
        n *= 2
    return n


def brownian_laplace(params: SystemParams, lam):
    """L(lambda) = int_0^inf k(tau) e^(lambda tau) dtau, k = hbar*D_R in
    zero-point momentum units, Re lambda < 0, in closed form.

    With a = -lambda, z = a/W, pref = 4 gamma/(pi omega_m), f and g of DLMF
    6.2(ii) and the Matsubara series of w coth(hbar w/2kT) (nu_n = n pi w_T,
    w_T = 2 kB T/hbar; Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)):
    L = pref a g(z) at T = 0, else
        L = pref [w_T f(z) + 2 w_T a sum_n (nu_n f(nu_n/W) - a f(z))/(nu_n^2 - a^2)].
    The summand splits into (nu f(nu/W) - W), kept for n <= N and bounded by
    2 W^3/nu^2, and (W - a f(z)), summed in closed form through
    h(y) = sum_n 1/(n^2 pi^2 - y^2) = 1/(2y^2) - cot(y)/(2y).
    Returns L, dL/dlambda and the bound on the dropped tail.  The transform
    converges only for Re lambda < 0; any other lambda raises DomainError.
    """
    lam = np.asarray(lam, dtype=complex)
    outside = lam[~(lam.real < 0.0)]
    if outside.size:
        raise DomainError("Laplace transform of the kernel needs Re lambda < 0, "
                          f"got lambda = {complex(outside[0])}")
    a = -lam
    W, pref = params.cutoff, 4.0 * params.gamma / (math.pi * params.omega_m)
    z = a / W
    f, g = _aux_fg(z)
    if params.temperature == 0.0:
        return pref * a * g, pref * (1.0 - g - z * f), np.zeros(a.shape)
    w_t = 2.0 * KB * params.temperature / HBAR
    n = _matsubara_terms(params)
    nu = math.pi * w_t * np.arange(1, n + 1)
    t = nu * _aux_fg(nu / W, with_g=False)[0].real - W
    den = nu ** 2 - (a * a)[..., None]
    y = a / w_t  # h by its Taylor series below |y| = 1/2, against cancellation
    cot, small = 1.0 / np.tan(y), np.abs(y) < 0.5
    h = np.where(small, polyval(y * y, _H_TAYLOR), (0.5 / y - 0.5 * cot) / y)
    dh = np.where(small, 2.0 * y * polyval(y * y, polyder(_H_TAYLOR)),
                  (0.5 + 0.5 * cot * cot - h) / y - 0.5 / y ** 3)
    inner = np.sum(t / den, axis=-1) + (W - a * f) * h / w_t ** 2
    dinner = (2.0 * a * np.sum(t / den ** 2, axis=-1) + (z * g - f) * h / w_t ** 2
              + (W - a * f) * dh / w_t ** 3)  # d inner / da
    return (pref * w_t * (f + 2.0 * a * inner),
            pref * w_t * (g / W - 2.0 * inner - 2.0 * a * dinner),
            _truncation_bound(params, n, np.abs(a)))


def diffusion_matrix(params: SystemParams, a: DriftMatrix) -> DiffusionMatrix:
    """Assemble D: optical delta part plus the Brownian part.

    The half-weight endpoint convention for the delta noise puts exactly
    kappa/2 on the optical diagonal, reproducing the g = 0 optical vacuum.
    The error estimate is 2 |du| / ||D||, with du bounded by the truncation
    bound of brownian_laplace, or by quad_vec's estimate when cond(V) >= 1e10
    hands u to the frequency-domain integral.  L and L' at the drift
    eigenvalues are evaluated on both paths and kept for the coupling
    derivative.
    """
    if not a.stable:
        raise UnstableDriftError("diffusion matrix requires a Hurwitz drift matrix")

    lam, vec, c, cond = a.spectrum
    lap, dlap, bound = brownian_laplace(params, lam)
    if cond < 1e10:
        u = np.real(vec @ (c * lap))
        brown = np.outer(_E1, u) + np.outer(u, _E1)
        err_abs = float(np.max(np.abs(vec) @ (np.abs(c) * bound)))
        path = "laplace"
    else:
        brown, err_abs = brownian_diffusion_freq(params, a)
        path = "frequency"
    d_scaled = np.diag([0.0, 0.0, 0.5 * params.kappa, 0.5 * params.kappa]) + brown
    d_scaled = 0.5 * (d_scaled + d_scaled.T)

    rel_err = 2.0 * err_abs / (float(np.linalg.norm(d_scaled)) + 1e-300)
    if not rel_err <= _DIFFUSION_TOL:
        raise QuadratureError(
            f"Brownian diffusion ({path}) error {rel_err:.3e} exceeds tol "
            f"{_DIFFUSION_TOL:.3e}",
            estimate=rel_err)

    return DiffusionMatrix(matrix_scaled=d_scaled, error_estimate=rel_err,
                           path=path, laplace=lap, dlaplace=dlap)


def _w_coth(w: float, temperature: float) -> float:
    """w coth(hbar w / (2 kB T)), the thermal weight of the symmetric
    kernel; w at T = 0, and its small-x series where the coth form loses
    accuracy."""
    if temperature == 0.0:
        return w
    x = HBAR * w / (2.0 * KB * temperature)
    if x < 1e-4:
        # w * coth(x) -> (2 kB T / hbar)(1 + x^2/3 - x^4/45)
        return (2.0 * KB * temperature / HBAR) * (1.0 + x * x / 3.0 - x ** 4 / 45.0)
    return w / math.tanh(x)


def brownian_diffusion_freq(params: SystemParams, a: DriftMatrix):
    """Frequency-domain evaluation of the Brownian block (oracle and
    ill-conditioned-eigenbasis path).  Uses int_0^inf cos(w tau) exp(A tau)
    dtau = -Re (A + i w)^(-1) to turn the tau integral into a smooth
    spectral integral with a narrow feature at the mechanical resonance,
    solved at each node by LAPACK zgesv on a copy of the complex drift.
    Returns the block e1 u^T + u e1^T and quad_vec's error estimate of u
    at relative tolerance 1e-10.
    """
    from scipy.integrate import quad_vec  # see kernels.kernel_dr_numeric
    from scipy.linalg.lapack import zgesv

    m, wm, gam, T, W = (params.mass, params.omega_m, params.gamma,
                        params.temperature, params.cutoff)
    pref = 2.0 * m * gam / math.pi
    a_c = np.asfortranarray(a.matrix_scaled, dtype=complex)
    e1 = _E1.astype(complex)

    def integrand(w):
        f = pref * _w_coth(w, T) * math.exp(-w / W) * (2.0 / (m * wm))
        shifted = a_c.copy(order="F")
        shifted.flat[::5] += 1j * w  # the diagonal of the 4x4
        _, _, r, info = zgesv(shifted, e1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"zgesv info {info} at w = {w}")
        return -f * r.real

    upper = 60.0 * W
    pts = [p for p in (wm, abs(params.delta0), params.kappa) if 0 < p < upper]
    u, err = quad_vec(integrand, 0.0, upper, epsrel=1e-10, epsabs=0.0,
                      points=sorted(set(pts)), limit=2000)
    return np.outer(_E1, u) + np.outer(u, _E1), float(err)


def lyapunov_solve(a: DriftMatrix, d: np.ndarray):
    """Solve A s + s A^T = -D on the scaled drift through its 16x16
    Kronecker operator (``DriftMatrix.lyapunov_operator``), built once per
    drift and shared by every right-hand side there.

    One step of iterative refinement keeps the relative residual at the
    rounding floor.  Returns (sigma, residual).
    """
    big = a.lyapunov_operator
    a_s = a.matrix_scaled
    d = np.asarray(d, dtype=float)
    rhs = -d.ravel()
    try:
        x = np.linalg.solve(big, rhs)
        x -= np.linalg.solve(big, big @ x - rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateLyapunovError("Lyapunov operator is singular") from exc
    sigma = x.reshape(4, 4)
    sigma = 0.5 * (sigma + sigma.T)
    res = np.linalg.norm(a_s @ sigma + sigma @ a_s.T + d) / (np.linalg.norm(d) + 1e-300)
    return sigma, float(res)


def stationary_covariance(a: DriftMatrix, d: DiffusionMatrix) -> CovarianceMatrix4:
    """Stationary covariance from the Lyapunov equation (scaled solve)."""
    if not a.stable:
        raise UnstableDriftError("stationary covariance requires a Hurwitz drift matrix")
    sigma_scaled, res = lyapunov_solve(a, d.matrix_scaled)
    return CovarianceMatrix4(matrix_scaled=sigma_scaled, residual=res)


def _van_loan_step(a_scaled: np.ndarray, d_scaled: np.ndarray, h: float):
    """(E, Q) with E = exp(A h), Q = int_0^h exp(A s) D exp(A^T s) ds."""
    from scipy.linalg import expm  # see kernels.kernel_dr_numeric

    blk = np.zeros((8, 8))
    blk[:4, :4] = -a_scaled
    blk[:4, 4:] = d_scaled
    blk[4:, 4:] = a_scaled.T
    f = expm(blk * h)
    e = f[4:, 4:].T
    q = e @ f[:4, 4:]
    return e, 0.5 * (q + q.T)


# params is unused; perfbench/checks.py:198 passes it (ROADMAP item 1)
def transient_covariance(params: SystemParams, a: DriftMatrix,
                         d: DiffusionMatrix) -> CovarianceMatrix4:
    """Oracle for the Lyapunov solve given D: d sigma/dt = A sigma + sigma A^T
    + D from sigma(0) = 0 by one exact step (Van Loan, IEEE TAC 23, 395
    (1978)) at h0 = 1/max |lambda|, its horizon doubled (Smith, SIAM J.
    Appl. Math. 16, 198 (1968)) until ||exp(A t)|| <= 1e-9.  The eigenvalues
    give only the stability verdict and h0, so any eigenbasis will do; the
    Kronecker solve is never touched.  D's own oracle is
    brownian_diffusion_freq.
    """
    if not a.stable:
        raise UnstableDriftError("transient integration requires a stable drift")
    # (E, Q) at step h obey E_2h = E_h^2, Q_2h = E_h Q_h E_h^T + Q_h
    h0 = 1.0 / np.max(np.abs(a.spectrum[0]))
    e_step, q_step = _van_loan_step(a.matrix_scaled, d.matrix_scaled, h0)
    for _ in range(200):
        if np.linalg.norm(e_step) <= 1e-9:  # exp(A t) has decayed: settled
            break
        q_step = e_step @ q_step @ e_step.T + q_step
        q_step = 0.5 * (q_step + q_step.T)
        e_step = e_step @ e_step
    return CovarianceMatrix4(matrix_scaled=q_step, residual=float("nan"))
