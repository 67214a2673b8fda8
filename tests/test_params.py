"""Steady state, bistability and stability tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omfisher.constants import HBAR, TWO_PI
from omfisher.dynamics import DriftMatrix, drift_matrix
from omfisher.errors import AmbiguousBranchError, DomainError
from omfisher.params import (BistabilityWindow, SystemParams, bistability_window,
                             drive_amplitude, rossi_params, steady_state)

K0 = TWO_PI * 18.5e6


def cubic_coeffs(params, eps):
    """Photon-number cubic built independently of the implementation."""
    b = HBAR * params.g_si ** 2 / (params.mass * params.omega_m ** 2)
    c = params.delta0 ** 2 + params.kappa ** 2 / 4.0
    return b * b, -2.0 * params.delta0 * b, c, -eps * eps


def count_positive_roots(params, eps, n_grid=4000):
    """Sign-change scan of the cubic over a log grid (root-count oracle)."""
    c3, c2, c1, c0 = cubic_coeffs(params, eps)
    a_lin = -c0 / c1
    grid = np.exp(np.linspace(math.log(a_lin * 1e-6), math.log(a_lin * 1e4), n_grid))
    vals = ((c3 * grid + c2) * grid + c1) * grid + c0
    signs = np.sign(vals)
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def bisect_root(params, eps, lo, hi, iters=200):
    """Independent bisection root-finder on the cubic."""
    c3, c2, c1, c0 = cubic_coeffs(params, eps)

    def f(a):
        return ((c3 * a + c2) * a + c1) * a + c0

    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_constants_equal_scipy_codata():
    """The exact SI 2019 values, bit for bit the ones scipy.constants gives."""
    import scipy.constants as sc
    from omfisher.constants import C_LIGHT, KB
    assert (HBAR, KB, C_LIGHT) == (sc.hbar, sc.k, sc.c)
    assert TWO_PI == 2.0 * math.pi


class TestCouplingToSi:
    """SystemParams.g_si, the coupling in rad/(s m) of the equations of
    motion."""

    def test_zero(self):
        assert rossi_params(g_freq=0.0).g_si == 0.0

    def test_rossi_value(self):
        g = rossi_params().g_si
        expected = TWO_PI * 129.0 * math.sqrt(2 * 16e-12 * TWO_PI * 1.14e6 / HBAR)
        assert g == pytest.approx(expected, rel=1e-15)
        assert g == pytest.approx(1.1949e18, rel=1e-3)

    def test_mass_scaling(self):
        g1 = rossi_params(g_freq=1.0, mass=1e-12, omega_m=1e6).g_si
        g2 = rossi_params(g_freq=1.0, mass=2e-12, omega_m=1e6).g_si
        assert g2 / g1 == pytest.approx(math.sqrt(2.0), rel=1e-14)


class TestSteadyState:
    def test_undriven(self):
        p = rossi_params(power=0.0)
        ss = steady_state(p)
        assert ss.alpha_abs2 == 0.0
        assert ss.q0 == 0.0
        assert ss.delta_eff == p.delta0

    def test_linear_cavity(self):
        p = rossi_params(g_freq=0.0)
        ss = steady_state(p)
        eps = drive_amplitude(p)
        lorentz = eps ** 2 / (p.delta0 ** 2 + p.kappa ** 2 / 4.0)
        assert ss.alpha_abs2 == pytest.approx(lorentz, rel=1e-14)

    def test_rossi_root_vs_bisection_oracle(self):
        p = rossi_params()
        ss = steady_state(p)
        assert ss.branch_count == 1
        eps = drive_amplitude(p)
        oracle = bisect_root(p, eps, 1.0, 1e10)
        assert ss.alpha_abs2 == pytest.approx(oracle, rel=1e-12)
        # frozen from the bisection oracle
        assert ss.alpha_abs2 == pytest.approx(1.5794440676e4, rel=1e-9)
        assert drift_matrix(p, ss).stable

    def test_residual_invariant(self):
        for ov in ({}, {"power": 5e-6}, {"delta0": K0}, {"g_freq": TWO_PI * 400.0}):
            ss = steady_state(rossi_params(**ov))
            assert ss.residual <= 1e-10

    def test_mirror_shift_formula(self):
        p = rossi_params()
        ss = steady_state(p)
        assert ss.q0 == pytest.approx(
            HBAR * p.g_si * ss.alpha_abs2 / (p.mass * p.omega_m ** 2), rel=1e-14)

    def test_ambiguity_error_names_branches(self):
        p = rossi_params(delta0=2.0 * K0)
        win = bistability_window(p)
        assert not win.monostable_for_all_power
        p_mid = math.sqrt(win.p_minus * win.p_plus)
        with pytest.raises(AmbiguousBranchError) as err:
            steady_state(p.with_(power=p_mid))
        assert err.value.lower_branch < err.value.upper_branch
        lo = steady_state(p.with_(power=p_mid), branch="lower")
        hi = steady_state(p.with_(power=p_mid), branch="upper")
        assert lo.alpha_abs2 < hi.alpha_abs2
        assert lo.branch_count == 3
        # an unknown policy is rejected inside the window and outside it
        for power in (p_mid, 0.5 * win.p_minus):
            with pytest.raises(DomainError, match="unknown branch policy"):
                steady_state(p.with_(power=power), branch="middle")

    @given(st.floats(min_value=0.02, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_single_branch_outside_window(self, frac):
        p = rossi_params(delta0=2.0 * K0)
        win = bistability_window(p)
        ss = steady_state(p.with_(power=frac * win.p_minus))
        assert ss.branch_count == 1

    def test_epsilon_conventions(self):
        """With kappa_in = kappa_loss a drive written with the total kappa is
        the input-port drive at twice the power: sqrt 2 times |eps|, and
        twice |alpha|^2 up to the (tiny) radiation-pressure nonlinearity."""
        p = rossi_params()
        assert p.kappa_in == p.kappa_loss
        p2 = p.with_(power=2.0 * p.power)
        assert drive_amplitude(p2) == \
            pytest.approx(math.sqrt(2.0) * drive_amplitude(p), rel=1e-15)
        assert steady_state(p2).alpha_abs2 == \
            pytest.approx(2.0 * steady_state(p).alpha_abs2, rel=1e-4)


class TestBistabilityWindow:
    def test_small_detuning_monostable(self):
        win = bistability_window(rossi_params(delta0=-0.5 * K0))
        assert win.monostable_for_all_power
        win = bistability_window(rossi_params(delta0=0.5 * K0))
        assert win.monostable_for_all_power

    def test_negative_detuning_monostable(self):
        win = bistability_window(rossi_params(delta0=-2.0 * K0))
        assert win.monostable_for_all_power

    def test_zero_coupling_monostable(self):
        win = bistability_window(rossi_params(g_freq=0.0, delta0=2.0 * K0))
        assert win.monostable_for_all_power

    def test_window_vs_root_count_scan(self):
        p = rossi_params(delta0=2.0 * K0)
        win = bistability_window(p)
        assert 0 < win.p_minus <= win.p_plus
        for boundary in (win.p_minus, win.p_plus):
            inside = count_positive_roots(p.with_(power=boundary * 1.002),
                                          drive_amplitude(p.with_(power=boundary * 1.002)))
            outside = count_positive_roots(p.with_(power=boundary * 0.998),
                                           drive_amplitude(p.with_(power=boundary * 0.998)))
            assert {inside, outside} == {1, 3}

    def test_coupling_scaling(self):
        p1 = rossi_params(delta0=2.0 * K0)
        p2 = rossi_params(delta0=2.0 * K0, g_freq=2.0 * p1.g_freq)
        w1, w2 = bistability_window(p1), bistability_window(p2)
        assert w2.p_minus == pytest.approx(w1.p_minus / 4.0, rel=1e-12)
        assert w2.p_plus == pytest.approx(w1.p_plus / 4.0, rel=1e-12)


def _hand_built(m: np.ndarray) -> DriftMatrix:
    return DriftMatrix(matrix_scaled=m)


class TestIsStable:
    def test_minus_identity(self):
        assert _hand_built(-np.eye(4)).stable

    def test_decoupled_blocks_analytic(self):
        p = rossi_params(g_freq=0.0)
        ss = steady_state(p)
        a = drift_matrix(p, ss)
        eig = a.spectrum[0]
        expected = {
            complex(-p.kappa / 2.0, p.delta0),
            complex(-p.kappa / 2.0, -p.delta0),
            complex(-p.gamma / 2.0, math.sqrt(p.omega_m ** 2 - p.gamma ** 2 / 4.0)),
            complex(-p.gamma / 2.0, -math.sqrt(p.omega_m ** 2 - p.gamma ** 2 / 4.0)),
        }
        for e in eig:
            assert min(abs(e - x) / abs(x) for x in expected) < 1e-10
        assert a.stable

    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                    min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_similarity_invariance(self, log_scales):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 4))
        s = np.diag(np.exp(np.array(log_scales)))
        transformed = np.linalg.inv(s) @ a @ s
        assert _hand_built(a).stable == _hand_built(transformed).stable


class TestParamsValidation:
    def test_invalid_fields(self):
        with pytest.raises(DomainError):
            rossi_params(mass=-1.0)
        with pytest.raises(DomainError):
            rossi_params(temperature=-0.1)
        with pytest.raises(DomainError):
            rossi_params(gamma=0.0)
        with pytest.raises(DomainError):
            rossi_params(g_freq=-1.0)

    def test_kappa_total(self):
        p = rossi_params()
        assert p.kappa == pytest.approx(K0, rel=1e-15)
