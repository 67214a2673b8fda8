"""QFI/CFI formula tests and optimal-quadrature search."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omfisher.errors import (DerivativeUndefinedError, DomainError,
                             OmfisherError, UnphysicalStateError)
from omfisher.fisher import cfi_bhd, qfi_gaussian, theta_max
from omfisher.oracle import dsigma_dg, qfi_fock_converged
from omfisher.params import rossi_params
from omfisher.pipeline import (PipelineSettings, build_measurement,
                               cavity_dsigma_opt, fisher_report)


# The printed compact QFI expression and its long form: a reference for the
# large-purity truncation that README discusses; the pipeline uses
# qfi_gaussian.

@dataclass(frozen=True)
class SldCoefficients:
    """Quadratic-form coefficients of the symmetric logarithmic derivative."""

    phi: np.ndarray  # 2x2 symmetric
    nu: float


def sld_coefficients(sigma, dsigma) -> SldCoefficients:
    """Phi = -(1/2) d(sigma^-1) and nu = Tr[Phi sigma], the coefficients of
    the printed large-purity QFI expression (see ``qfi_gaussian_printed``)."""
    si = np.linalg.inv(sigma)
    dinv = -si @ np.asarray(dsigma, dtype=float) @ si
    phi = -0.5 * dinv
    nu = float(np.trace(phi @ sigma))
    return SldCoefficients(phi=phi, nu=nu)


def qfi_gaussian_printed(sigma, dsigma) -> float:
    """Printed compact expression 1/2 Tr[(d(s^-1) s)^2] - 1/8 det[d(s^-1)].

    The large-purity truncation of ``qfi_gaussian``: for a thermal family
    it gives (nu'/nu)^2 (1 - 1/(8 nu^2)) against the exact
    nu'^2 / (nu^2 - 1/4).
    """
    si = np.linalg.inv(sigma)
    dinv = -si @ np.asarray(dsigma, dtype=float) @ si
    k = dinv @ np.asarray(sigma, dtype=float)
    return float(0.5 * np.trace(k @ k) - 0.125 * np.linalg.det(dinv))


def qfi_gaussian_long_form(sigma, dsigma) -> float:
    """Long form 3Tr[(Phi s)^2] - 2 nu Tr[Phi s] + 2 det s det Phi
    - det(Phi)/2 + nu^2 of the printed expression; equals
    ``qfi_gaussian_printed`` identically."""
    co = sld_coefficients(sigma, dsigma)
    ps = co.phi @ np.asarray(sigma, dtype=float)
    det_phi = float(np.linalg.det(co.phi))
    det_sig = float(np.linalg.det(np.asarray(sigma, dtype=float)))
    tr_ps = float(np.trace(ps))
    return float(3.0 * np.trace(ps @ ps) - 2.0 * co.nu * tr_ps
                 + 2.0 * det_sig * det_phi - 0.5 * det_phi + co.nu ** 2)


def cfi_printed_ideal(sigma, dsigma, theta) -> float:
    """Printed ideal-detector CFI (R^T ds R / R^T s R)^2, twice ``cfi_bhd`` at
    eta = 1.  The numeric Fisher information of the homodyne outcome density
    agrees with ``cfi_bhd`` (validate's factor-2 adjudication), so this form
    counts the information twice; the pipeline does not use it."""
    r = np.array([math.cos(theta), math.sin(theta)])
    return float(r @ dsigma @ r / (r @ sigma @ r)) ** 2


pd_sigma = st.builds(
    lambda a, b, c: np.array([[0.55 + a, c * math.sqrt((0.55 + a) * (0.55 + b))],
                              [c * math.sqrt((0.55 + a) * (0.55 + b)), 0.55 + b]]),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=-0.7, max_value=0.7),
)
sym_mat = st.builds(
    lambda a, b, c: np.array([[a, c], [c, b]]),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


class TestQfi:
    def test_zero_derivative(self):
        assert qfi_gaussian(np.eye(2), np.zeros((2, 2))) == 0.0

    def test_thermal_algebraic_value(self):
        """Operator value of the thermal family (see the Fock-oracle test
        test_thermal_matches_exact_closed_form)."""
        for nu, dnu in ((1.5, 1.0), (4.0, 0.3)):
            h = qfi_gaussian(nu * np.eye(2), dnu * np.eye(2))
            expected = dnu ** 2 / (nu * nu - 0.25)
            assert h == pytest.approx(expected, rel=1e-13)

    @given(pd_sigma, sym_mat)
    @settings(max_examples=60, deadline=None)
    def test_long_form_identity(self, sigma, dsigma):
        short = qfi_gaussian_printed(sigma, dsigma)
        long = qfi_gaussian_long_form(sigma, dsigma)
        assert abs(short - long) <= 1e-12 * max(abs(short), abs(long), 1e-30)

    @given(pd_sigma, sym_mat)
    @settings(max_examples=60, deadline=None)
    def test_non_negative_for_physical_states(self, sigma, dsigma):
        if np.linalg.det(sigma) < 0.25:
            return
        assert qfi_gaussian(sigma, dsigma) >= 0.0

    def test_sld_coefficients_consistency(self):
        sigma = np.array([[1.7, -0.2], [-0.2, 1.1]])
        dsigma = np.array([[0.3, 0.1], [0.1, -0.2]])
        co = sld_coefficients(sigma, dsigma)
        si = np.linalg.inv(sigma)
        assert np.allclose(co.phi, 0.5 * si @ dsigma @ si, rtol=1e-12)
        assert co.nu == pytest.approx(float(np.trace(co.phi @ sigma)), rel=1e-12)

    def test_singular_sigma_rejected(self):
        """One gate for qfi_gaussian and theta_max: sigma finite and
        positive definite (det > 0 alone admits -I), dsigma finite."""
        nan, inf = float("nan"), float("inf")
        cases = [(np.zeros((2, 2)), np.eye(2)),
                 (-np.eye(2), np.eye(2)),
                 (np.diag([inf, 1.0]), np.eye(2)),
                 (np.array([[1.0, nan], [nan, 1.0]]), np.eye(2)),
                 (np.eye(2), np.diag([nan, 0.0])),
                 (np.eye(2), np.array([[0.0, inf], [inf, 0.0]]))]
        for sigma, dsigma in cases:
            for fn in (qfi_gaussian, theta_max):
                with pytest.raises(DomainError):
                    fn(sigma, dsigma)

    def test_unphysical_sigma_rejected(self):
        with pytest.raises(UnphysicalStateError):
            qfi_gaussian(0.2 * np.eye(2), np.eye(2))
        # det(sigma) = 1/4 up to round-off is still a (pure) state
        assert qfi_gaussian(0.5 * (1.0 - 1e-14) * np.eye(2), np.zeros((2, 2))) == 0.0

    def test_pure_squeezed_vacuum_family(self):
        """Squeezed vacuum in r: 1 - mu^4 vanishes, and the QFI is exactly 2."""
        r0, phi = 0.5, 0.3
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])

        def fam(g):
            r = r0 + g
            return rot @ (0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)])) @ rot.T

        dsigma = rot @ np.diag([math.exp(2 * r0), -math.exp(-2 * r0)]) @ rot.T
        h = qfi_gaussian(fam(0.0), dsigma)
        assert h == pytest.approx(2.0, rel=1e-12)
        fock, _ = qfi_fock_converged(fam, 0.0, h=1e-4)
        assert h == pytest.approx(fock, rel=1e-6)

    def test_printed_thermal_value(self):
        """The printed expression is the large-purity truncation of the
        thermal value."""
        for nu, dnu in ((1.5, 1.0), (4.0, 0.3)):
            h = qfi_gaussian_printed(nu * np.eye(2), dnu * np.eye(2))
            expected = (dnu / nu) ** 2 * (1.0 - 1.0 / (8.0 * nu * nu))
            assert h == pytest.approx(expected, rel=1e-13)


class TestCfi:
    def test_zero_derivative(self):
        assert cfi_bhd(np.eye(2), np.zeros((2, 2)), 0.3, 0.9) == 0.0

    def test_isotropic_theta_independence(self):
        s, d, eta = 1.3, 0.4, 0.7
        vals = [cfi_bhd(s * np.eye(2), d * np.eye(2), t, eta)
                for t in np.linspace(0, math.pi, 7)]
        expected = 2.0 * (eta * d / (1.0 - eta + 2.0 * eta * s)) ** 2
        assert np.allclose(vals, expected, rtol=1e-13)

    @given(pd_sigma, sym_mat, st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=50, deadline=None)
    def test_ideal_is_twice_bhd_limit(self, sigma, dsigma, theta):
        lhs = cfi_printed_ideal(sigma, dsigma, theta)
        rhs = 2.0 * cfi_bhd(sigma, dsigma, theta, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(pd_sigma, sym_mat, st.floats(min_value=0.0, max_value=math.pi))
    @settings(max_examples=50, deadline=None)
    def test_pi_periodicity(self, sigma, dsigma, theta):
        a = cfi_bhd(sigma, dsigma, theta, 0.8)
        b = cfi_bhd(sigma, dsigma, theta + math.pi, 0.8)
        scale = max(abs(float(np.max(np.abs(dsigma)))), 1e-30) ** 2
        assert abs(a - b) <= 1e-10 * max(a, b, scale)

    def test_monotone_in_eta(self):
        sigma = np.array([[1.72, -0.06], [-0.06, 1.51]])
        dsigma = np.array([[5.6e-4, -1.4e-4], [-1.4e-4, 3.5e-5]])
        for theta in (0.0, 0.8, 2.2):
            vals = [cfi_bhd(sigma, dsigma, theta, e)
                    for e in np.linspace(0.05, 1.0, 30)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            cfi_bhd(np.eye(2), np.eye(2), 0.0, 0.0)
        with pytest.raises(DomainError):
            cfi_bhd(np.eye(2), np.eye(2), 0.0, 1.5)


class TestThetaMax:
    def test_diagonal_dominant(self):
        res = theta_max(np.diag([1.0, 2.0]), np.diag([1.5, 0.3]))
        assert res.theta == pytest.approx(0.0, abs=1e-12)
        assert res.lambda_max == pytest.approx(1.5, rel=1e-12)

    def test_rotated_eigenvector(self):
        d = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvector at 45 deg
        res = theta_max(0.5 * np.eye(2), d)
        assert res.theta == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_negative_branch_selected_by_magnitude(self):
        """dsigma indefinite: the largest |f(theta)| wins because CFI ~ f^2."""
        sigma = np.diag([1.0, 1.0])
        dsigma = np.diag([-3.0, 1.0])
        res = theta_max(sigma, dsigma)
        assert res.lambda_max == pytest.approx(-3.0, rel=1e-12)
        assert res.theta == pytest.approx(0.0, abs=1e-12)

    @given(pd_sigma, sym_mat)
    @settings(max_examples=30, deadline=None)
    def test_eigen_route_matches_grid_maximizer(self, sigma, dsigma):
        if np.linalg.norm(dsigma) < 1e-6:
            return
        res = theta_max(sigma, dsigma, eta=1.0)
        if res.degenerate:
            return
        grid = np.linspace(0.0, math.pi, 3600, endpoint=False)
        vals = [cfi_bhd(sigma, dsigma, t, 1.0) for t in grid]
        best = grid[int(np.argmax(vals))]
        target = cfi_bhd(sigma, dsigma, res.theta, 1.0)
        assert target >= max(vals) * (1.0 - 1e-9)
        # the angle itself is only well-determined away from |lambda| ties
        evals = np.linalg.eigvals(np.linalg.solve(sigma, dsigma))
        spread = abs(abs(evals[0]) - abs(evals[1]))
        if spread > 1e-3 * max(np.abs(evals)):
            assert min(abs(res.theta - best), math.pi - abs(res.theta - best)) < 2e-3

    def test_eigen_theta_matches_refined_maximizer_to_1e6_rad(self):
        """Non-degenerate cases: eigen route equals the grid + golden-section
        maximizer of the eta=1 CFI to 1e-6 rad (mod pi)."""
        cases = [
            (np.array([[1.72, -0.06], [-0.06, 1.51]]),
             np.array([[5.6e-4, -1.4e-4], [-1.4e-4, 3.5e-5]])),
            (np.array([[2.3, 0.4], [0.4, 0.9]]),
             np.array([[0.2, -0.5], [-0.5, -0.1]])),
            (np.array([[0.8, 0.1], [0.1, 1.9]]),
             np.array([[-0.4, 0.2], [0.2, 0.3]])),
        ]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        for sigma, dsigma in cases:
            res = theta_max(sigma, dsigma, eta=1.0)
            grid = np.linspace(0.0, math.pi, 7200, endpoint=False)
            vals = [cfi_bhd(sigma, dsigma, t, 1.0) for t in grid]
            lo = grid[int(np.argmax(vals))] - math.pi / 7200.0
            hi = grid[int(np.argmax(vals))] + math.pi / 7200.0
            while hi - lo > 1e-12:
                x1 = hi - invphi * (hi - lo)
                x2 = lo + invphi * (hi - lo)
                if cfi_bhd(sigma, dsigma, x1, 1.0) < cfi_bhd(sigma, dsigma, x2, 1.0):
                    lo = x1
                else:
                    hi = x2
            best = 0.5 * (lo + hi) % math.pi
            delta = abs(res.theta - best)
            assert min(delta, math.pi - delta) < 1e-6

    def test_golden_section_for_imperfect_detector(self):
        """The refined phase reaches the fine-grid maximum; it is a Python
        float at every eta, as the closed form's is at eta = 1."""
        sigma = np.array([[1.72, -0.06], [-0.06, 1.51]])
        dsigma = np.array([[5.6e-4, -1.4e-4], [-1.4e-4, 3.5e-5]])
        res = theta_max(sigma, dsigma, eta=0.8)
        grid = np.linspace(0.0, math.pi, 100000, endpoint=False)
        vals = [cfi_bhd(sigma, dsigma, t, 0.8) for t in grid]
        assert cfi_bhd(sigma, dsigma, res.theta, 0.8) >= max(vals) * (1 - 1e-10)
        for eta in (0.8, 0.5, 1.0):
            assert type(theta_max(sigma, dsigma, eta=eta).theta) is float

    def test_degenerate_flag(self):
        res = theta_max(np.eye(2), np.eye(2))
        assert res.degenerate

    def test_closed_form_matches_scipy_eigh(self):
        """The closed-form 2x2 solve against scipy.linalg.eigh(dsigma,
        b=sigma) on a seeded grid: theta mod pi, lambda_max and the
        degenerate flag, including the zero derivative, a +-r tie, pairs 1e-12
        (degenerate) and 1e-6 (not) apart in magnitude, and ds = c sigma."""
        from scipy.linalg import eigh
        rng = np.random.default_rng(20261019)
        cases = []
        for _ in range(400):
            a = rng.normal(size=(2, 2))
            sigma = a @ a.T + rng.uniform(0.05, 2.0) * np.eye(2)
            b = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-6, 2)
            cases.append((sigma, b + b.T))
        sigma = np.array([[1.7, -0.3], [-0.3, 0.9]])
        cases += [(sigma, np.zeros((2, 2))), (sigma, 2.5 * sigma),
                  (sigma, -0.4 * sigma), (np.eye(2), np.diag([1.0, -1.0]))]
        for eps in (1e-12, 1e-6):
            cases.append((sigma, 0.8 * sigma + eps * np.array([[0.3, 0.1], [0.1, -0.2]])))
            cases.append((np.eye(2), np.diag([2.0, -2.0 * (1.0 + eps)])))
        flags = set()
        for sigma, dsigma in cases:
            vals, vecs = eigh(dsigma, b=sigma)
            idx = int(np.argmax(np.abs(vals)))
            peak = max(np.max(np.abs(vals)), 1e-300)
            spread = abs(abs(vals[0]) - abs(vals[1]))
            res = theta_max(sigma, dsigma)
            assert res.lambda_max == pytest.approx(vals[idx], rel=1e-12, abs=1e-15 * peak)
            assert res.degenerate == (spread <= 1e-9 * peak)
            flags.add(res.degenerate)
            if spread > 1e-6 * peak or not dsigma.any():
                want = math.atan2(vecs[1, idx], vecs[0, idx]) % math.pi
                gap = abs(res.theta - want)
                assert min(gap, math.pi - gap) < 1e-10
        assert flags == {True, False}


class TestDsigmaDg:
    """The Richardson oracle, oracle.dsigma_dg, and the one route left to
    pipeline.cavity_dsigma_opt."""

    def test_constant_pipeline(self):
        d = dsigma_dg(lambda g: np.eye(2), 1.0)
        assert np.array_equal(d, np.zeros((2, 2)))

    def test_linear_pipeline_exact(self):
        s = np.array([[0.4, -0.1], [-0.1, 0.9]])
        d = dsigma_dg(lambda g: np.eye(2) + g * s, 2.0)
        assert np.allclose(d, s, rtol=1e-9)

    def test_richardson_beats_plain_central(self):
        f = lambda g: np.array([[math.exp(g)]])
        d = dsigma_dg(f, 0.5, h=1e-3)
        assert d[0, 0] == pytest.approx(math.exp(0.5), rel=1e-11)

    def test_branch_boundary_raises(self):
        from omfisher.errors import AmbiguousBranchError

        def pipeline(g):
            raise AmbiguousBranchError("window")

        with pytest.raises(DerivativeUndefinedError):
            dsigma_dg(pipeline, 1.0)

    def test_unknown_method(self):
        """The Richardson differences are an oracle, not a method."""
        for method in ("spectral", "finite-difference"):
            settings = PipelineSettings(derivative_method=method)
            with pytest.raises(DomainError, match=f"unknown derivative method '{method}'"):
                cavity_dsigma_opt(rossi_params(), settings)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


def _or_zero(values):
    """values, or 0 one time in five."""
    return st.tuples(st.integers(0, 4), values).map(lambda d: 0.0 if d[0] == 4 else d[1])


@st.composite
def _box_points(draw):
    """A point of the wide parameter box, in units of the baseline: omega_m
    0.3-3x, kappa/omega_m 0.05-50, kappa_loss/kappa 0-0.9, delta0/kappa -5
    to 2, P 1e-10-1e-2 W, T 0 or 1e-6-300 K, W/omega_m 0.1-1000,
    gamma/omega_m 1e-6-0.5, mass 1e-3-1e3x, g/g0 0 or 0.1-20; Omega_k/kappa
    -3 to 3, eta 0.01-1 and branch None or lower."""
    base = rossi_params()
    omega_m = base.omega_m * draw(_log_uniform(0.3, 3.0))
    kappa = omega_m * draw(_log_uniform(0.05, 50.0))
    kappa_loss = kappa * draw(_or_zero(st.floats(0.0, 0.9)))
    params = base.with_(
        omega_m=omega_m, kappa_in=kappa - kappa_loss, kappa_loss=kappa_loss,
        delta0=kappa * draw(st.floats(-5.0, 2.0)),
        power=draw(_log_uniform(1e-10, 1e-2)),
        temperature=draw(_or_zero(_log_uniform(1e-6, 300.0))),
        cutoff=omega_m * draw(_log_uniform(0.1, 1000.0)),
        gamma=omega_m * draw(_log_uniform(1e-6, 0.5)),
        mass=base.mass * draw(_log_uniform(1e-3, 1e3)),
        g_freq=base.g_freq * draw(_or_zero(_log_uniform(0.1, 20.0))))
    return (params, kappa * draw(st.floats(-3.0, 3.0)), draw(st.floats(0.01, 1.0)),
            PipelineSettings(branch=draw(st.sampled_from([None, "lower"]))))


@given(_box_points())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_invariants_over_parameter_box(point):
    """Every point either raises an OmfisherError or gives finite figures
    with CFI <= QFI and a saturation ratio <= 1 (NaN only where QFI = 0)."""
    params, omega_k, eta, pipeline = point
    try:
        spec = build_measurement(params, omega_k, eta=eta, settings=pipeline)
        rep = fisher_report(params, spec, pipeline, auto_theta=True)
    except OmfisherError:
        return
    assert all(math.isfinite(v) for v in (rep.qfi, rep.cfi, rep.theta, rep.lambda_max))
    assert 0.0 <= rep.cfi <= rep.qfi * (1.0 + 1e-9)
    if rep.qfi > 0.0:
        assert rep.saturation_ratio <= 1.0 + 1e-9
    else:
        assert math.isnan(rep.saturation_ratio)
