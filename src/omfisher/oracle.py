"""Brute-force validators: truncated-Fock QFI, the output double integral,
the homodyne pdf, numeric classical FI and the Richardson coupling
derivative.

These never share code with the closed-form Fisher routes.  The Fock oracle
holds a zero-mean Gaussian state in the number basis, truncated to photon
numbers 0..n_max, as the factors of its eigendecomposition

    rho = U diag(p) U^H,   U = e^{i phi n} exp(r K0),   K0 = (a^dag^2 - a^2)/2,

with p the thermal weights.  Both operators preserve photon-number parity,
so the truncated exp(r K0) is a real orthogonal block on the even and one on
the odd photon numbers, each from three products on the eigenvectors of
the r-free generator of that block.  The QFI is the SLD sum at rho(g),

    H = sum_{i,j: p_i + p_j > eps} 2 |<i| drho |j>|^2 / (p_i + p_j),

with drho the central difference of rho(g +- h), taken in the frame where
the state at g is thermal (sigma(g) = nu M M^T mapped through M^-1, a
unitary on the states), so its squeeze is never truncated and the sum runs
over photon numbers.  No eigensolver runs on a density matrix.

The output double integral is a Gauss-Legendre quadrature over the window.
The numeric CFI integrates (d_g ln P)^2 P of the homodyne pdf over the
outcome axis with central-difference log-derivatives.

The Richardson derivative differences a matrix-valued family of g by
central differences with one extrapolation level.  On the intracavity
optical block (``richardson_dsigma_opt``) it re-solves the cavity state at
four couplings and shares none of the implicit route's algebra: the
implicit steady-state derivative, the divided differences of the kernel's
Laplace transform and the derivative Lyapunov solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (AmbiguousBranchError, ConvergenceError, DerivativeUndefinedError,
                     DomainError, NumericalError, UnphysicalStateError)
from .fisher import FD_STEP_FLOOR, FD_STEP_REL
from .output import MeasurementSpec, homodyne_variance
from .params import SystemParams
from .pipeline import PipelineSettings, cavity_covariance

__all__ = [
    "FockState",
    "gaussian_to_fock",
    "qfi_fock",
    "qfi_fock_converged",
    "output_covariance_numeric",
    "homodyne_pdf",
    "cfi_numeric",
    "fd_step",
    "dsigma_dg",
    "sigma_opt_at",
    "richardson_dsigma_opt",
]

_SLD_EPS = 1e-12
# largest relative QFI change allowed under the n_max -> n_max + 20 bump
_FOCK_RTOL = 1e-4
# largest thermal tail mass the default truncation leaves at the centre
_FOCK_TAIL = 1e-15


@dataclass(frozen=True)
class FockState:
    """Density matrix in the truncated number basis, held as its
    eigendecomposition rho = U diag(weights) U^H.

    U = e^{i phi n} (blocks[0] (+) blocks[1]): ``blocks[parity]`` is a real
    orthogonal matrix on the photon numbers of that parity, in increasing
    order, and ``weights[n]`` is the eigenvalue carried by photon number n.
    """

    n_max: int
    phi: float
    weights: np.ndarray
    blocks: tuple[np.ndarray, np.ndarray]
    trace_deficit: float

    @property
    def rho(self) -> np.ndarray:
        """The dense complex density matrix, assembled from the factors."""
        rho = np.zeros((self.n_max + 1, self.n_max + 1))
        for parity, s in enumerate(self.blocks):
            rho[parity::2, parity::2] = (s * self.weights[parity::2]) @ s.T
        phase = np.exp(1j * self.phi * np.arange(self.n_max + 1))
        return phase[:, None] * rho * phase.conj()


def default_n_max(nu: float) -> int:
    """The smallest N >= 80 whose thermal tail (nbar/(nbar+1))^(N+1) beyond
    photon number N, nbar = nu - 1/2, is at most _FOCK_TAIL at a centre of
    nu = sqrt(det sigma).  The floor stands in for the +-h states' squeeze
    relative to the centre, which that tail cannot see."""
    nbar = nu - 0.5
    if nbar <= 0.0:
        return 80
    return max(80, math.ceil(math.log(_FOCK_TAIL) / -math.log1p(1.0 / nbar)) - 1)


def _symplectic_factor(sigma: np.ndarray) -> tuple[float, float, float]:
    """(nu, r, phi) with sigma = nu M M^T, M = R(phi) diag(e^r, e^-r)."""
    sigma = np.asarray(sigma, dtype=float)
    det = float(np.linalg.det(sigma))
    if det < 0.25 * (1.0 - 1e-12):
        raise UnphysicalStateError(f"det(sigma) = {det} < 1/4")
    # sigma / nu = R diag(e^2r, e^-2r) R^T, stretched axis last (eigh ascends)
    evals, evecs = np.linalg.eigh(sigma / math.sqrt(det))
    return math.sqrt(det), 0.5 * math.log(evals[1]), math.atan2(evecs[1, 1], evecs[0, 1])


def gaussian_to_fock(sigma: np.ndarray, n_max: int) -> FockState:
    """Zero-mean Gaussian state with covariance ``sigma`` in the Fock basis,
    truncated to photon numbers 0..n_max (_symplectic_factor, _fock_state)."""
    return _fock_state(*_symplectic_factor(sigma), n_max)


def _thermal_weights(nu: float, n_max: int) -> np.ndarray:
    """Photon-number weights 0..n_max of the thermal state with mean
    occupation nu - 1/2."""
    nbar = nu - 0.5
    if nbar <= 0.0:
        return (np.arange(n_max + 1) == 0).astype(float)
    return np.exp(np.arange(n_max + 1) * math.log(nbar / (nbar + 1.0))
                  - math.log(nbar + 1.0))


def _fock_state(nu: float, r: float, phi: float, n_max: int) -> FockState:
    """e^{i phi n} exp(r K0) rho_th(nu) (...)^H: the thermal state gives the
    weights, the squeeze the parity blocks."""
    weights = _thermal_weights(nu, n_max)
    blocks = tuple(_squeeze_block(parity, len(range(parity, n_max + 1, 2)), r)
                   for parity in (0, 1))
    trace = sum(float(np.sum((s * s) @ weights[parity::2]))
                for parity, s in enumerate(blocks))
    return FockState(n_max=n_max, phi=phi, weights=weights, blocks=blocks,
                     trace_deficit=abs(1.0 - trace))


@lru_cache(maxsize=16)
def _k0_spectrum(parity: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues Lambda of B = D^-1 K0 D / (-i) on one parity block and its
    eigenvectors Q as _squeeze_block takes them (signed, split rows),
    computed on first use and shared by every state with that block."""
    from scipy.linalg import eigh_tridiagonal  # see kernels.kernel_dr_numeric

    n = parity + 2.0 * np.arange(size)
    b = 0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
    lam, q = eigh_tridiagonal(np.zeros(size), b)
    q *= np.where(np.arange(size) // 2 % 2, -1.0, 1.0)[:, None]
    q_e, q_o = q[0::2].copy(), q[1::2].copy()
    lam.flags.writeable = q_e.flags.writeable = q_o.flags.writeable = False
    return lam, q_e, q_o


def _squeeze_block(parity: int, size: int, r: float) -> np.ndarray:
    """exp(r K0) on the ``size`` lowest photon numbers of one parity.

    There K0 is real, skew-symmetric and tridiagonal with off-diagonals
    b_m = sqrt((n+1)(n+2))/2, and D = diag(i^m) turns it into -i B with B
    real symmetric, so exp(r K0) = Re[(D Q) e^{-i r Lambda} (D Q)^H] from
    B = Q Lambda Q^T: element (j, l) is +C, +S, -C, -S for (j - l) mod 4 =
    0..3, with C = Q cos(r Lambda) Q^T and S = Q sin(r Lambda) Q^T.  With
    Q's row j signed by (-1)^floor(j/2) and split by the parity of j, three
    half-height products form only those entries.  B is r-free, so the
    states at g - h, g and g + h share one decomposition and its round-off.
    """
    if size < 2 or r == 0.0:
        return np.eye(size)
    lam, q_e, q_o = _k0_spectrum(parity, size)
    x = 2.0 * np.sin(0.5 * r * lam) ** 2  # 1 - cos: round-off shrinks with r
    out = np.empty((size, size))
    for start, q in ((0, q_e), (1, q_o)):
        out[start::2, start::2] = np.eye(len(q)) - (q * x) @ q.T
    e = (q_e * np.sin(r * lam)) @ q_o.T
    out[0::2, 1::2], out[1::2, 0::2] = -e, e.T
    return out


def qfi_fock(minus: FockState, weights: np.ndarray, plus: FockState, h: float) -> float:
    """QFI at the centre state diag(weights), diagonal in the number basis
    (the thermal centre of _centred's frame), from the operator SLD
    definition, with d rho = (rho(plus) - rho(minus)) / 2h.

    The sum runs over photon numbers, one parity block at a time, with the
    centre's weights alone.  Only the phase difference dphi of the other two
    states enters it: rho(g - h) = T- T-^T with T- = S- p-^(1/2) real, and
    rho(g + h) = T+ T+^H with T+_jk = e^{i dphi (j - k)} S+_jk p+_k^(1/2)
    (j - k is even on a block: phases count modulo pi).  With T0 the mean
    and T' the central difference of the two, d rho = T0 T'^H + T' T0^H
    exactly; as Im T0 = h Im T', that is two real products and one
    symmetric one (BLAS syrk).  The blocks must be orthogonal, as
    gaussian_to_fock's are.  Every step works in one buffer of five
    block-sized slots, allocated once per call.
    """
    n_max = len(weights) - 1
    if minus.n_max != n_max or plus.n_max != n_max:
        raise DomainError("Fock states must share the truncation")
    centre_deficit = abs(1.0 - float(np.sum(weights)))
    if max(minus.trace_deficit, centre_deficit, plus.trace_deficit) > 1e-10:
        raise DomainError("trace deficit too large; increase n_max")
    shapes = [(len(range(parity, n_max + 1, 2)),) * 2 for parity in (0, 1)]
    for st in (minus, plus):
        if st.weights.shape != (n_max + 1,) or [b.shape for b in st.blocks] != shapes:
            raise DomainError("Fock state blocks must split into the even and "
                              "odd photon numbers")
    dphi = plus.phi - minus.phi
    work = np.empty(5 * shapes[0][0] ** 2)
    total = 0.0
    for parity in (0, 1):
        n = np.arange(parity, n_max + 1, 2)
        ap, bp, a0, a1, x = work[:5 * n.size ** 2].reshape(5, n.size, n.size)
        # T+ = A+ + iB+: cos(dphi (j - k)) = c_j c_k + s_j s_k, sin = s_j c_k - c_j s_k
        c, s = np.cos(dphi * n), np.sin(dphi * n)
        q = np.sqrt(plus.weights[parity::2])
        np.multiply(plus.blocks[parity], q * c, out=ap)
        np.multiply(plus.blocks[parity], q * s, out=x)
        np.multiply(ap, s[:, None], out=bp)
        ap *= c[:, None]
        ap += np.multiply(x, s[:, None], out=a1)
        x *= c[:, None]
        bp -= x
        # T- = A- = S- q-; A' = (A+ - A-)/2h, A0 = (A+ + A-)/2, B' = B+/2h = B0/h
        np.multiply(minus.blocks[parity], np.sqrt(minus.weights[parity::2]), out=a0)
        np.subtract(ap, a0, out=a1)
        a1 *= 0.5 / h
        a0 += ap
        a0 *= 0.5
        bp *= 0.5 / h
        # Re d rho = A0 A'^T + A' A0^T + 2h B' B'^T, Im d rho = B' A+^T - A+ B'^T
        np.matmul(a0, a1.T, out=x)
        np.matmul(bp, ap.T, out=a1)
        np.matmul(bp, bp.T, out=a0)  # symmetric: one BLAS syrk, half a product
        np.add(x, x.T, out=ap)
        a0 *= 2.0 * h
        ap += a0
        np.subtract(a1, a1.T, out=bp)
        # |<i| d rho |j>|^2 into slot ap
        ap *= ap
        bp *= bp
        ap += bp
        p = weights[parity::2]
        mask = np.add.outer(p, p, out=x) > _SLD_EPS
        total += 2.0 * float(np.sum(np.divide(ap, x, out=ap, where=mask),
                                    where=mask))
    return total


def _centred(sigmas) -> tuple[float, tuple, tuple]:
    """The states of (sigma(g - h), sigma(g), sigma(g + h)) mapped through
    M^-1, sigma(g) = nu M M^T (on states U^H . U, U = e^{i phi n} exp(r K0),
    which keeps the QFI): the centre is thermal, and a +-h state of factor
    M+- keeps the O(h) r' and phi' of M^-1 M+- = R(phi') diag(e^r', e^-r') R.
    Returns nu and the (nu+-, r', phi') that _fock_state takes for each +-h
    state; none depends on the truncation."""
    rot = lambda t: np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    nu, r, phi = _symplectic_factor(sigmas[1])
    m_inv = np.array([[math.exp(-r)], [math.exp(r)]]) * rot(-phi)
    states = []
    for sigma in (sigmas[0], sigmas[2]):
        nu_s, r_s, phi_s = _symplectic_factor(sigma)
        u, sv, _ = np.linalg.svd(m_inv @ (rot(phi_s) * [math.exp(r_s), math.exp(-r_s)]))
        states.append((nu_s, 0.5 * math.log(sv[0] / sv[1]), math.atan2(u[1, 0], u[0, 0])))
    return nu, states[0], states[1]


def qfi_fock_converged(sigma_of_g: Callable[[float], np.ndarray], g: float,
                       h: float, n_max: int | None = None) -> tuple[float, float]:
    """QFI at g with an n_max -> n_max + 20 stability check.

    ``sigma_of_g`` is evaluated at g - h, g and g + h and the states taken
    to the frame where the one at g is thermal (_centred); its nu sets the
    default n_max.  Returns (qfi, relative change under the truncation
    bump); raises ConvergenceError when the bump moves it by more than
    _FOCK_RTOL.
    """
    sigmas = [np.asarray(sigma_of_g(x), dtype=float) for x in (g - h, g, g + h)]
    nu, minus, plus = _centred(sigmas)
    if n_max is None:
        n_max = default_n_max(nu)
    vals = [qfi_fock(_fock_state(*minus, n), _thermal_weights(nu, n),
                     _fock_state(*plus, n), h) for n in (n_max, n_max + 20)]
    drift = abs(vals[1] - vals[0]) / max(abs(vals[1]), 1e-300)
    if drift > _FOCK_RTOL:
        raise ConvergenceError(
            f"Fock QFI not truncation-converged: {drift:.2e} > {_FOCK_RTOL:.0e}",
            details={"n_max": n_max, "values": vals})
    return vals[1], drift


def output_covariance_numeric(sigma_opt: np.ndarray,
                              spec: MeasurementSpec) -> np.ndarray:
    """Oracle: direct quadrature of the double-integral output covariance,

        (k/tau) int int G(t') sigma_opt G(s')^T dt' ds'
            + (1/tau) int G(t') G(t')^T dt',

    under the stationary-sigma approximation.  The Gauss-Legendre order is
    chosen from the phase range: 24 nodes plus three per radian.
    """
    sigma_opt = np.asarray(sigma_opt, dtype=float)
    tau = spec.window
    phase = abs(spec.omega_k) * tau
    nodes = int(3.0 * phase) + 24
    x, w = leggauss(nodes)
    t = 0.5 * tau * (x + 1.0)
    wt = 0.5 * tau * w

    ang = spec.omega_k * t
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    # int_0^tau G(t') dt' assembled from scalar quadratures
    ic = float(np.dot(wt, cos_a))
    isn = float(np.dot(wt, sin_a))
    g_int = np.array([[ic, isn], [-isn, ic]])
    cavity = (spec.kappa_meas / tau) * g_int @ sigma_opt @ g_int.T
    # G G^T at the quadrature nodes (identically 1 for the rotation kernel)
    vac = np.eye(2) * (float(np.dot(wt, cos_a * cos_a + sin_a * sin_a)) / tau)

    out = cavity + vac
    return 0.5 * (out + out.T)


def homodyne_pdf(sigma_out: np.ndarray, theta: float, eta: float, k):
    """Probability density of balanced-homodyne outcomes k at
    local-oscillator phase theta and detector efficiency eta.

    Normalized Gaussian with variance v(theta, eta).  (A common
    transcription with prefactor (1/pi) sqrt(2 eta / V) integrates to
    1/sqrt(pi); this density is properly normalized, which leaves the CFI
    unchanged since log-derivatives kill constants.)
    """
    v = homodyne_variance(sigma_out, theta, eta)
    k = np.asarray(k, dtype=float)
    val = np.exp(-k * k / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    return float(val) if val.ndim == 0 else val


def cfi_numeric(pdf_family: Callable[[float], Callable[[np.ndarray], np.ndarray]],
                g: float, h: float) -> float:
    """Classical Fisher information of a pdf family by direct quadrature.

    ``pdf_family(g)`` returns a normalized density over the outcome axis.
    The grid covers +-8 standard deviations of the central density; the
    log-derivative uses central differences at g +- h.
    """
    pdf_0 = pdf_family(g)
    pdf_m = pdf_family(g - h)
    pdf_p = pdf_family(g + h)

    scale = 1.0
    for _ in range(4):
        k, w = _simpson_grid(8.0 * scale, 4001)
        p = pdf_0(k)
        m2 = float(np.dot(w, k * k * p))
        norm = float(np.dot(w, p))
        if norm <= 0:
            raise NumericalError("pdf vanished on the integration grid")
        scale = math.sqrt(max(m2 / norm, 1e-300))

    k, w = _simpson_grid(8.0 * scale, 8001)
    p0 = pdf_0(k)
    norm = float(np.dot(w, p0))
    if abs(norm - 1.0) > 1e-8:
        raise NumericalError(f"pdf normalization drift {abs(norm - 1.0):.2e}")
    pp, pm = pdf_p(k), pdf_m(k)
    if np.any(pp <= 0.0) or np.any(pm <= 0.0):
        raise NumericalError("pdf not strictly positive on the grid")
    dlog = (np.log(pp) - np.log(pm)) / (2.0 * h)
    return float(np.dot(w, dlog * dlog * p0))


def _simpson_grid(half_width: float, n: int):
    """Composite-Simpson nodes/weights on [-half_width, half_width]."""
    if n % 2 == 0:
        n += 1
    k = np.linspace(-half_width, half_width, n)
    step = k[1] - k[0]
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return k, w * (step / 3.0)


def fd_step(g: float) -> float:
    """Default step of ``dsigma_dg`` at coupling g: max(FD_STEP_REL |g|,
    FD_STEP_FLOOR)."""
    return max(FD_STEP_REL * abs(g), FD_STEP_FLOOR)


def dsigma_dg(pipeline: Callable[[float], np.ndarray], g: float,
              h: float | None = None) -> np.ndarray:
    """Derivative of a matrix-valued pipeline with respect to the coupling.

    ``pipeline`` maps g (frequency-convention coupling, rad/s) to a
    covariance matrix with every other parameter frozen.  Central
    differences with one Richardson level, step ``h`` or ``fd_step(g)``.
    """
    h0 = fd_step(g) if h is None else h
    try:
        coarse = (pipeline(g + h0) - pipeline(g - h0)) / (2.0 * h0)
        fine = (pipeline(g + 0.5 * h0) - pipeline(g - 0.5 * h0)) / h0
    except AmbiguousBranchError as exc:
        raise DerivativeUndefinedError(
            f"derivative undefined near a bistability branch boundary at g={g}") from exc
    return (4.0 * fine - coarse) / 3.0


def sigma_opt_at(params: SystemParams, settings: PipelineSettings, g: float) -> np.ndarray:
    """Intracavity optical block at coupling g, all other parameters frozen."""
    # sigma_opt is even in g: g -> -g conjugates the mechanical
    # quadratures only, leaving the optical block invariant
    cav = cavity_covariance(params.with_(g_freq=abs(g)), settings)
    return cav.covariance.optical_block


def richardson_dsigma_opt(params: SystemParams,
                          settings: PipelineSettings = PipelineSettings()) -> np.ndarray:
    """d(sigma_opt)/dg at the configured coupling by ``dsigma_dg`` over
    ``sigma_opt_at``: four cavity solves, the cross-check of
    ``pipeline.cavity_dsigma_opt``."""
    return dsigma_dg(lambda g: sigma_opt_at(params, settings, g), params.g_freq)
