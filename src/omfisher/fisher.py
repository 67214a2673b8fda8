"""Quantum and classical Fisher information of the Gaussian output state.

For the zero-mean single-mode Gaussian with covariance sigma(g) (vacuum
sigma = I/2) the QFI is the exact result

    H = (1/2) Tr[(sigma^-1 sigma')^2] / (1 + mu^2) + 2 mu'^2 / (1 - mu^4),

mu = 1/(2 sqrt det sigma) the purity (Pinel et al., PRA 88, 040102(R)
(2013); Safranek, J. Phys. A 52, 035304 (2019)).  For a thermal family it
is the operator value nu'^2 / (nu^2 - 1/4).  The printed compact expression
1/2 Tr[(d(sigma^-1) sigma)^2] - 1/8 det[d(sigma^-1)] is its large-purity
truncation; it is kept, with its long form in the SLD coefficients, as a
reference in tests/test_fisher.py.  The homodyne CFI at local-oscillator
phase theta and detector efficiency eta is

    F = 2 (eta R^T dsigma R / (1 - eta + 2 eta R^T sigma R))^2,

which is exactly the Fisher information of the normalized outcome
distribution, as the numeric-FI oracle confirms.  Its eta -> 1 limit is
half the printed ideal-detector form (R^T dsigma R / R^T sigma R)^2, which
validate's factor-2 adjudication and tests/test_fisher.py keep as a
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnphysicalStateError

__all__ = [
    "FisherReport",
    "ThetaMaxResult",
    "qfi_gaussian",
    "cfi_bhd",
    "theta_max",
]

# step rule of the Richardson oracle, oracle.fd_step; defined here because
# perfbench/checks.py:33 imports both from this module (ROADMAP item 1)
FD_STEP_REL = 1e-6
FD_STEP_FLOOR = 2.0 * math.pi * 1e-3  # rad/s, ~1 mHz in g/2pi terms
# round-off margin on 4 det(sigma) - 1: below -margin the state is unphysical,
# within it pure; oracle.gaussian_to_fock keeps its own literal of the same
# margin, to stay independent of the code it checks
PURITY_MARGIN = 1e-12


@dataclass(frozen=True)
class ThetaMaxResult:
    theta: float
    lambda_max: float
    degenerate: bool = False


@dataclass(frozen=True)
class FisherReport:
    """Fisher quantities of one parameter point."""

    qfi: float
    cfi: float
    theta: float
    eta: float
    theta_max: float
    lambda_max: float
    saturation_ratio: float   # max_theta CFI(eta=1) / QFI
    diagnostics: dict = field(default_factory=dict)


def _checked(sigma: np.ndarray, dsigma: np.ndarray):
    """The entries of sigma and dsigma as nested lists, and det sigma; the
    gate of qfi_gaussian and theta_max: DomainError unless sigma is finite and
    positive definite (0 < det < inf, sigma_00 > 0) and dsigma is finite."""
    s = np.asarray(sigma, dtype=float).tolist()
    p = np.asarray(dsigma, dtype=float).tolist()
    (s00, s01), (s10, s11) = s
    det = s00 * s11 - s01 * s10
    if not (0.0 < det < math.inf and s00 > 0.0
            and all(map(math.isfinite, s[0] + s[1] + p[0] + p[1]))):
        raise DomainError("sigma must be finite and positive definite, dsigma finite")
    return s, p, det


def qfi_gaussian(sigma: np.ndarray, dsigma: np.ndarray) -> float:
    """Exact QFI of the zero-mean single-mode Gaussian family.

    H = (1/2) Tr[(s^-1 s')^2] / (1 + mu^2) + 2 mu'^2 / (1 - mu^4) with
    mu = 1/(2 sqrt det s) and mu' = -mu Tr[s^-1 s'] / 2, evaluated in
    closed 2x2 algebra: with d = det s, t = Tr[adj(s) s'] = d Tr[s^-1 s']
    and e = det s', Tr[(s^-1 s')^2] = (t^2 - 2 d e) / d^2.  At a pure
    point (4d - 1 within round-off) the mu' term is dropped; a physical
    family has mu' = 0 there.  Raises DomainError for a sigma that is not
    finite and positive definite or a dsigma that is not finite, and
    UnphysicalStateError for det s < 1/4.
    """
    ((s00, s01), (s10, s11)), ((p00, p01), (p10, p11)), d = _checked(sigma, dsigma)
    excess = 4.0 * d - 1.0
    if excess < -PURITY_MARGIN:
        raise UnphysicalStateError(f"det(sigma) = {d} < 1/4")
    t = s11 * p00 - s01 * p10 - s10 * p01 + s00 * p11
    e = p00 * p11 - p01 * p10
    mu2 = 0.25 / d
    h = 0.5 * (t * t - 2.0 * d * e) / (d * d) / (1.0 + mu2)
    if excess > PURITY_MARGIN:
        dmu2 = mu2 * (0.5 * t / d) ** 2
        h += 2.0 * dmu2 / (1.0 - mu2 * mu2)
    return float(h)


def cfi_bhd(sigma: np.ndarray, dsigma: np.ndarray, theta: float, eta: float) -> float:
    """Homodyne CFI at phase theta, detector efficiency eta."""
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must be in (0, 1]")
    r = np.array([math.cos(theta), math.sin(theta)])
    s_q = float(r @ np.asarray(sigma, dtype=float) @ r)
    d_q = float(r @ np.asarray(dsigma, dtype=float) @ r)
    den = 1.0 - eta + 2.0 * eta * s_q
    if den <= 0.0:
        raise DomainError("non-positive homodyne variance")
    return 2.0 * (eta * d_q / den) ** 2


def theta_max(sigma: np.ndarray, dsigma: np.ndarray, eta: float = 1.0) -> ThetaMaxResult:
    """Optimal local-oscillator phase in [0, pi).

    For eta = 1 the maximizer of the squared generalized Rayleigh quotient
    is the generalized eigenvector of (dsigma, sigma) whose eigenvalue has
    the largest magnitude (CFI depends on the quotient squared, so sign is
    irrelevant); a tie goes to the negative eigenvalue.  The 2x2 problem is
    solved in closed form from the lower triangles: with sigma = L L^T
    (Cholesky), M = L^-1 dsigma L^-T is symmetric, a Jacobi rotation by
    phi = atan2(2 M_10, M_00 - M_11) / 2 diagonalizes it with eigenvalues
    m +- r (m the mean of its diagonal, r = hypot((M_00 - M_11)/2, M_10)),
    and v = L^-T y maps its eigenvector y back.  The pair is flagged
    degenerate when the magnitudes of the two eigenvalues, |m + r| and
    |m - r|, differ by 2 min(|m|, r) <= 1e-9 (|m| + r).  For eta < 1 a
    360-point grid plus golden-section refinement maximizes cfi_bhd
    directly.  Raises DomainError as qfi_gaussian does.
    """
    ((s00, _), (s10, s11)), ((p00, _), (p10, p11)), _ = _checked(sigma, dsigma)
    l00 = math.sqrt(s00)
    l10 = s10 / l00
    l11 = math.sqrt(s11 - l10 * l10)
    y10 = (p10 - l10 * (p00 / l00)) / l11  # (L^-1 dsigma)_10
    m00 = p00 / s00
    m10 = y10 / l00
    m11 = ((p11 - l10 * (p10 / l00)) / l11 - l10 * m10) / l11
    mean, half = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
    r = math.hypot(half, m10)
    phi = 0.5 * math.atan2(m10, half)
    if r == 0.0:  # dsigma proportional to sigma: every phase ties; take 0
        lam_max, y0, y1 = mean, 1.0, 0.0
    elif mean > 0.0:
        lam_max, y0, y1 = mean + r, math.cos(phi), math.sin(phi)
    else:
        lam_max, y0, y1 = mean - r, -math.sin(phi), math.cos(phi)
    degenerate = 2.0 * min(abs(mean), r) <= 1e-9 * max(abs(mean) + r, 1e-300)
    v1 = y1 / l11
    theta = math.atan2(v1, (y0 - l10 * v1) / l00) % math.pi

    if eta >= 1.0:
        return ThetaMaxResult(theta=theta, lambda_max=lam_max, degenerate=degenerate)

    grid = np.linspace(0.0, math.pi, 360, endpoint=False)
    vals_grid = [cfi_bhd(sigma, dsigma, t, eta) for t in grid]
    i_best = int(np.argmax(vals_grid))
    lo = grid[i_best] - math.pi / 360.0
    hi = grid[i_best] + math.pi / 360.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = cfi_bhd(sigma, dsigma, x1, eta)
    f2 = cfi_bhd(sigma, dsigma, x2, eta)
    while hi - lo > 1e-10:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = cfi_bhd(sigma, dsigma, x2, eta)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = cfi_bhd(sigma, dsigma, x1, eta)
    return ThetaMaxResult(theta=float((0.5 * (lo + hi)) % math.pi),
                          lambda_max=lam_max, degenerate=degenerate)
