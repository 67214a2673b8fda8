"""Physical parameters, driven-cavity steady state, and bistability analysis.

The stationary photon number ``A = |alpha|**2`` of the driven cavity solves a
cubic obtained by eliminating the effective detuning from the stationary
condition of the mean field,

    b**2 A**3 - 2 delta0 b A**2 + (delta0**2 + kappa**2/4) A = eps**2,

with per-photon shift ``b = hbar g_si**2 / (m omega_m**2)`` and effective
detuning ``delta_eff = delta0 - b A``.  The mirror shift is
``q0 = hbar g_si A / (m omega_m**2)``.  For ``delta0 > sqrt(3) kappa / 2`` the
cubic admits three positive roots inside a power window (P-, P+); outside it
the root is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, C_LIGHT, TWO_PI
from .errors import AmbiguousBranchError, DomainError, NumericalError

__all__ = [
    "SystemParams",
    "SteadyState",
    "BistabilityWindow",
    "rossi_params",
    "drive_amplitude",
    "steady_state",
    "bistability_window",
]


@dataclass(frozen=True)
class SystemParams:
    """All physical parameters of the optomechanical model, SI units.

    Rates are angular (rad/s).  ``g_freq`` is the vacuum optomechanical
    coupling in the frequency convention; ``g_si`` converts it to the
    position-coupling convention used in the equations of motion.
    """

    kappa_in: float        # input-coupling decay rate [rad/s]
    kappa_loss: float      # internal-loss decay rate [rad/s]
    gamma: float           # mechanical damping [rad/s]
    omega_m: float         # mechanical frequency [rad/s]
    mass: float            # effective mass [kg]
    temperature: float     # bath temperature [K]
    g_freq: float          # coupling, frequency convention [rad/s]
    power: float           # laser power [W]
    delta0: float          # bare detuning omega_c - omega_L [rad/s]
    omega_laser: float     # laser frequency [rad/s]
    cutoff: float          # bath cutoff Omega [rad/s]

    def __post_init__(self):
        checks = [
            ("kappa_in", self.kappa_in, self.kappa_in > 0),
            ("kappa_loss", self.kappa_loss, self.kappa_loss >= 0),
            ("gamma", self.gamma, self.gamma > 0),
            ("omega_m", self.omega_m, self.omega_m > 0),
            ("mass", self.mass, self.mass > 0),
            ("temperature", self.temperature, self.temperature >= 0),
            ("g_freq", self.g_freq, self.g_freq >= 0),
            ("power", self.power, self.power >= 0),
            ("omega_laser", self.omega_laser, self.omega_laser > 0),
            ("cutoff", self.cutoff, self.cutoff > 0),
        ]
        for name, value, ok in checks:
            if not ok or not math.isfinite(value):
                raise DomainError(f"invalid SystemParams.{name} = {value!r}")
        if not math.isfinite(self.delta0):
            raise DomainError(f"invalid SystemParams.delta0 = {self.delta0!r}")

    @property
    def kappa(self) -> float:
        """Total cavity decay rate kappa_in + kappa_loss."""
        return self.kappa_in + self.kappa_loss

    @property
    def g_si(self) -> float:
        """Coupling in rad/(s m), g_freq * sqrt(2 m omega_m / hbar)."""
        return self.g_freq * math.sqrt(2.0 * self.mass * self.omega_m / HBAR)

    def with_(self, **overrides) -> "SystemParams":
        return replace(self, **overrides)


@dataclass(frozen=True)
class SteadyState:
    """Stationary mean field of the driven cavity (drive phase gauged so
    that alpha is real and non-negative)."""

    alpha_abs2: float      # photon number |alpha|^2
    alpha: float           # stationary amplitude, real >= 0
    delta_eff: float       # effective detuning [rad/s]
    q0: float              # mirror shift [m]
    epsilon: float         # drive amplitude |eps| [rad/s]
    branch_count: int      # distinct positive real roots of the cubic
    residual: float = 0.0  # relative residual of the stationary condition


@dataclass(frozen=True)
class BistabilityWindow:
    """Laser-power window (P-, P+) with multiple steady-state branches."""

    p_minus: float | None
    p_plus: float | None
    monostable_for_all_power: bool


def rossi_params(**overrides) -> SystemParams:
    """Baseline parameter set of the membrane-in-the-middle experiment used
    throughout the numerical study.

    kappa/2pi = 18.5 MHz (total, split equally between input coupling and
    internal loss), gamma/2pi = 130 Hz, omega_m/2pi = 1.14 MHz, m = 16 ng,
    T = 11 K, P = 1 uW, g/2pi = 129 Hz, delta0 = -2 kappa, cutoff = 5 omega_m.
    The laser wavelength (1550 nm) only fixes the photon energy of the drive.
    """
    kappa_total = TWO_PI * 18.5e6
    omega_m = TWO_PI * 1.14e6
    defaults = dict(
        kappa_in=kappa_total / 2.0,
        kappa_loss=kappa_total / 2.0,
        gamma=TWO_PI * 130.0,
        omega_m=omega_m,
        mass=16e-12,
        temperature=11.0,
        g_freq=TWO_PI * 129.0,
        power=1e-6,
        omega_laser=TWO_PI * C_LIGHT / 1550e-9,
    )
    defaults.update({k: v for k, v in overrides.items() if k not in ("delta0", "cutoff")})
    kappa = defaults["kappa_in"] + defaults["kappa_loss"]
    defaults["delta0"] = overrides.get("delta0", -2.0 * kappa)
    defaults["cutoff"] = overrides.get("cutoff", 5.0 * defaults["omega_m"])
    return SystemParams(**defaults)


def drive_amplitude(params: SystemParams) -> float:
    """|eps| = sqrt(2 kappa_in P / (hbar omega_L)), the input-output drive
    through the input port (Gardiner & Collett, PRA 31, 3761 (1985)).

    A treatment that puts the total kappa in place of kappa_in is this
    formula at the power P kappa / kappa_in.
    """
    return math.sqrt(2.0 * params.kappa_in * params.power / (HBAR * params.omega_laser))


def _photon_cubic_roots(params: SystemParams, eps: float) -> list[float]:
    """Positive real roots of the photon-number cubic, Newton-polished.

    Solved via companion-matrix eigenvalues of the rescaled cubic
    (A in units of the linear-cavity solution) for conditioning.
    """
    c = params.delta0 ** 2 + params.kappa ** 2 / 4.0
    b = HBAR * params.g_si ** 2 / (params.mass * params.omega_m ** 2)
    eps2 = eps * eps
    if eps2 == 0.0:
        return [0.0]
    a_lin = eps2 / c
    if b == 0.0:
        return [a_lin]

    # rescaled cubic p(x) = c3 x^3 + c2 x^2 + x - 1,  A = a_lin * x
    c3 = (b * a_lin) ** 2 / c
    c2 = -2.0 * params.delta0 * b * a_lin / c
    coeffs = np.array([c3, c2, 1.0, -1.0])
    try:
        roots = np.roots(coeffs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError("companion-matrix root solve failed",
                             details={"coeffs": coeffs.tolist()}) from exc
    if not np.all(np.isfinite(roots)):
        raise NumericalError("non-finite cubic roots",
                             details={"coeffs": coeffs.tolist(), "roots": roots.tolist()})

    def poly(x):
        return ((c3 * x + c2) * x + 1.0) * x - 1.0

    def dpoly(x):
        return (3.0 * c3 * x + 2.0 * c2) * x + 1.0

    accepted = []
    for r in roots:
        if abs(r.imag) > 1e-9 * max(1.0, abs(r)):
            continue
        x = float(r.real)
        if x <= 0.0:
            continue
        for _ in range(3):  # Newton polish on the rescaled cubic
            d = dpoly(x)
            if d == 0.0:
                break
            x -= poly(x) / d
        if x > 0.0:
            accepted.append(x)
    accepted.sort()
    distinct = []
    for x in accepted:
        if not distinct or abs(x - distinct[-1]) > 1e-8 * abs(x):
            distinct.append(x)
    return [a_lin * x for x in distinct]


def steady_state(params: SystemParams, branch: str | None = None) -> SteadyState:
    """Solve the driven-cavity stationary condition.

    ``branch`` selects 'lower' or 'upper' photon-number branch inside a
    bistable window; with three distinct roots and no branch policy an
    AmbiguousBranchError is raised naming both stable branches.
    """
    if branch not in (None, "lower", "upper"):
        raise DomainError(f"unknown branch policy {branch!r}")
    eps = drive_amplitude(params)
    roots = _photon_cubic_roots(params, eps)
    branch_count = len(roots)

    if branch_count == 1:
        a_sel = roots[0]
    elif branch is not None:
        a_sel = roots[0] if branch == "lower" else roots[-1]
    elif branch_count >= 3:
        raise AmbiguousBranchError(
            f"power {params.power} W lies in the bistable window; "
            f"stable branches |alpha|^2 = {roots[0]:.6e} (lower) and "
            f"{roots[-1]:.6e} (upper); pass branch='lower' or 'upper'",
            lower_branch=roots[0], upper_branch=roots[-1])
    else:
        a_sel = roots[0]  # boundary double root: smallest branch

    b = HBAR * params.g_si ** 2 / (params.mass * params.omega_m ** 2)
    delta_eff = params.delta0 - b * a_sel
    q0 = HBAR * params.g_si * a_sel / (params.mass * params.omega_m ** 2)
    alpha = math.sqrt(a_sel)
    if eps > 0.0:
        residual = abs(a_sel * (delta_eff ** 2 + params.kappa ** 2 / 4.0) - eps ** 2) / eps ** 2
    else:
        residual = 0.0

    return SteadyState(alpha_abs2=a_sel, alpha=alpha, delta_eff=delta_eff, q0=q0,
                       epsilon=eps, branch_count=branch_count, residual=residual)


def bistability_window(params: SystemParams) -> BistabilityWindow:
    """Power window with three steady-state branches.

    Boundaries are the cubic's turning-point powers,

        P+- = m omega_L omega_m^2 [2 delta0 (4 delta0^2 + 9 kappa^2)
               +- sqrt((4 delta0^2 - 3 kappa^2)^3)] / (216 g_si^2 kappa_in).

    A window exists only for delta0 > sqrt(3) kappa / 2 (positive detuning
    strong enough that the radiation-pressure shift sweeps the cavity
    through resonance); otherwise the cubic is monotone in the power.
    """
    if params.g_si == 0.0:
        return BistabilityWindow(None, None, True)
    kappa = params.kappa
    d0 = params.delta0
    s2 = 4.0 * d0 ** 2 - 3.0 * kappa ** 2
    if s2 < 0.0:
        return BistabilityWindow(None, None, True)
    pref = params.mass * params.omega_laser * params.omega_m ** 2 / (
        216.0 * params.g_si ** 2 * params.kappa_in)
    s3 = s2 ** 1.5
    core = 2.0 * d0 * (4.0 * d0 ** 2 + 9.0 * kappa ** 2)
    p_minus = pref * (core - s3)
    p_plus = pref * (core + s3)
    if p_plus <= 0.0:
        return BistabilityWindow(None, None, True)
    return BistabilityWindow(p_minus, p_plus, False)
