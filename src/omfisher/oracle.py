"""Brute-force validators: truncated-Fock QFI and numeric classical FI.

These never share code with the closed-form Fisher routes.  The Fock oracle
builds the density matrix of the Gaussian state in the number basis
(thermal core, then squeeze and rotation), finite-differences it in the
coupling, and evaluates the SLD sum

    H = sum_{i,j: p_i + p_j > eps} 2 |<i| drho |j>|^2 / (p_i + p_j).

Every operator involved preserves photon-number parity, so rho splits into
an even and an odd block that are built and diagonalised separately: the
squeeze exp(r K0), K0 = (a^dag^2 - a^2)/2, comes from the eigenvectors of
the tridiagonal r-free generator of each block, the rotation exp(i phi n)
is a phase on each element, and the SLD sum runs block by block (d rho has
no elements between the parities).

The numeric CFI integrates (d_g ln P)^2 P over the outcome axis with
central-difference log-derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DomainError, NumericalError, UnphysicalStateError

__all__ = [
    "FockState",
    "gaussian_to_fock",
    "fock_moments",
    "qfi_fock",
    "qfi_fock_converged",
    "cfi_numeric",
]

_SLD_EPS = 1e-12
# largest relative QFI change allowed under the n_max -> n_max + 20 bump
_FOCK_RTOL = 1e-4


@dataclass(frozen=True)
class FockState:
    """Density matrix in the truncated number basis."""

    n_max: int
    rho: np.ndarray
    trace_deficit: float


def _ladder(n_max: int) -> np.ndarray:
    a = np.zeros((n_max + 1, n_max + 1))
    ns = np.arange(1, n_max + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def default_n_max(nu_bar: float) -> int:
    """Truncation heuristic: 80 up to nu_bar = 3, then 40 nu_bar."""
    return 80 if nu_bar <= 3.0 else int(math.ceil(40.0 * nu_bar))


def gaussian_to_fock(sigma: np.ndarray, n_max: int | None = None) -> FockState:
    """Zero-mean Gaussian state with covariance ``sigma`` in the Fock basis.

    Decomposes sigma = S (nu I) S^T with S a rotation times a squeeze and
    nu = sqrt(det sigma) >= 1/2; builds the thermal state with mean
    occupation nu - 1/2 and applies the squeeze and rotation operators,
    truncated to photon numbers 0..n_max.

    Each parity block is built on its own.  There the squeeze generator K0
    is real, skew-symmetric and tridiagonal with off-diagonals
    b_m = sqrt((n+1)(n+2))/2, and D = diag(i^m) turns it into -i B with B
    real symmetric, so exp(r K0) = Re[(D Q) e^{-i r Lambda} (D Q)^H] from
    B = Q Lambda Q^T.  B does not depend on r, so the states at g +- h that
    the oracle differences share one decomposition and its round-off.  The
    block is then (S p) S^T in real arithmetic, and the rotation
    exp(i phi n) multiplies rho_jk by e^{i phi (j - k)}.
    """
    sigma = np.asarray(sigma, dtype=float)
    det = float(np.linalg.det(sigma))
    if det < 0.25 * (1.0 - 1e-12):
        raise UnphysicalStateError(f"det(sigma) = {det} < 1/4")
    nu = math.sqrt(det)
    if n_max is None:
        n_max = default_n_max(nu)

    # sigma / nu = R diag(e^2r, e^-2r) R^T
    p = sigma / nu
    evals, evecs = np.linalg.eigh(p)
    # eigh returns ascending; put the stretched axis first
    e_big = evals[1]
    r = 0.5 * math.log(e_big)
    v = evecs[:, 1]
    phi = math.atan2(v[1], v[0])

    nbar = nu - 0.5
    ns = np.arange(n_max + 1)
    if nbar <= 0.0:
        diag = np.zeros(n_max + 1)
        diag[0] = 1.0
    else:
        log_p = ns * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0)
        diag = np.exp(log_p)

    # squeeze along the x axis by e^r, then rotate the stretched axis onto
    # the leading eigenvector (U = e^{+i phi n} maps sigma -> R sigma R^T)
    rho_real = np.zeros((n_max + 1, n_max + 1))
    for parity in (0, 1):
        n = ns[parity::2]
        if n.size == 0:
            continue
        s = _squeeze_block(n, r)
        rho_real[parity::2, parity::2] = (s * diag[parity::2]) @ s.T
    phase = np.exp(1j * phi * ns)
    rho = phase[:, None] * rho_real * phase.conj()
    deficit = abs(1.0 - float(np.real(np.trace(rho))))
    return FockState(n_max=n_max, rho=rho, trace_deficit=deficit)


def _squeeze_block(n: np.ndarray, r: float) -> np.ndarray:
    """exp(r K0) restricted to the photon numbers ``n`` of one parity."""
    b = 0.5 * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
    lam, q = eigh_tridiagonal(np.zeros(n.size), b)
    # element (j, l) is Re[i^(j-l) (C - i S)_jl] with C = Q cos(r Lambda) Q^T
    # and S = Q sin(r Lambda) Q^T.  C is formed as I - Q (1 - cos) Q^T, so
    # r = 0 gives the identity exactly and its round-off shrinks with r.
    c = np.eye(n.size) - (q * (2.0 * np.sin(0.5 * r * lam) ** 2)) @ q.T
    s = (q * np.sin(r * lam)) @ q.T
    k = np.arange(n.size)
    i_pow = np.array([1.0, 1j, -1.0, -1j])[(k[:, None] - k[None, :]) % 4]
    return np.real(i_pow * (c - 1j * s))


def fock_moments(state: FockState) -> np.ndarray:
    """Covariance matrix of (X, Y) recovered from the Fock density matrix;
    round-trip check for gaussian_to_fock."""
    a = _ladder(state.n_max)
    adag = a.T
    x = (a + adag) / math.sqrt(2.0)
    y = 1j * (adag - a) / math.sqrt(2.0)
    rho = state.rho

    def ev(op):
        return float(np.real(np.trace(rho @ op)))

    xx = ev(x @ x)
    yy = ev(y @ y)
    xy = 0.5 * ev(x @ y + y @ x)
    return np.array([[xx, xy], [xy, yy]])


def qfi_fock(rho_minus: FockState, rho_plus: FockState, h: float) -> float:
    """QFI from the operator SLD definition with finite-difference d rho.

    The states must be parity-symmetric (no element between an even and an
    odd photon number), as every zero-mean Gaussian state is; the SLD sum
    then runs over the even and the odd block separately.
    """
    if rho_minus.n_max != rho_plus.n_max:
        raise DomainError("Fock states must share the truncation")
    if max(rho_minus.trace_deficit, rho_plus.trace_deficit) > 1e-10:
        raise DomainError("trace deficit too large; increase n_max")
    for st in (rho_minus, rho_plus):
        if np.any(st.rho[0::2, 1::2]) or np.any(st.rho[1::2, 0::2]):
            raise DomainError("Fock state couples even and odd photon numbers")
    total = 0.0
    for parity in (0, 1):
        blk = np.s_[parity::2, parity::2]
        drho = (rho_plus.rho[blk] - rho_minus.rho[blk]) / (2.0 * h)
        rho_mid = 0.5 * (rho_plus.rho[blk] + rho_minus.rho[blk])
        pvals, pvecs = np.linalg.eigh(rho_mid)
        d_in_eig = pvecs.conj().T @ drho @ pvecs
        psum = pvals[:, None] + pvals[None, :]
        mask = psum > _SLD_EPS
        total += float(np.sum(2.0 * np.abs(d_in_eig[mask]) ** 2 / psum[mask]))
    return total


def qfi_fock_converged(sigma_of_g: Callable[[float], np.ndarray], g: float,
                       h: float, n_max: int | None = None) -> tuple[float, float]:
    """QFI with an n_max -> n_max + 20 stability check.

    Returns (qfi, relative change under the truncation bump); raises
    ConvergenceError when the bump moves the value by more than _FOCK_RTOL.
    """
    s_minus = np.asarray(sigma_of_g(g - h), dtype=float)
    s_plus = np.asarray(sigma_of_g(g + h), dtype=float)
    if n_max is None:
        nu = math.sqrt(np.linalg.det(0.5 * (s_minus + s_plus)))
        n_max = default_n_max(nu)
    vals = []
    for n in (n_max, n_max + 20):
        rm = gaussian_to_fock(s_minus, n)
        rp = gaussian_to_fock(s_plus, n)
        vals.append(qfi_fock(rm, rp, h))
    drift = abs(vals[1] - vals[0]) / max(abs(vals[1]), 1e-300)
    if drift > _FOCK_RTOL:
        raise ConvergenceError(
            f"Fock QFI not truncation-converged: {drift:.2e} > {_FOCK_RTOL:.0e}",
            details={"n_max": n_max, "values": vals})
    return vals[1], drift


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
