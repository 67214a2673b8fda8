"""Output-field covariance and homodyne pdf tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from omfisher import pipeline
from omfisher.errors import DomainError
from omfisher.fisher import qfi_gaussian
from omfisher.oracle import homodyne_pdf, output_covariance_numeric
from omfisher.output import (MeasurementSpec, cavity_output_map, homodyne_variance,
                             output_covariance, output_map)
from omfisher.params import rossi_params


def rotation(angle: float) -> np.ndarray:
    """G(t)-type rotation matrix [[cos, sin], [-sin, cos]]."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def spec_at(omega_k=0.0, window=1.0, kappa=1.0, eta=1.0, theta=0.0):
    return MeasurementSpec(omega_k=omega_k, window=window, kappa_meas=kappa,
                           eta=eta, theta=theta)


def output_covariance_printed_sinc(sigma_opt, spec):
    """The printed closed form: the cavity term of ``output_covariance`` plus
    the vacuum term sinc(2 Omega_k tau) I, which decays away from
    Omega_k = 0 instead of staying the input-output identity."""
    phase = spec.omega_k * spec.window
    cav = output_covariance(sigma_opt, spec) - np.eye(2)
    return cav + np.sinc(2.0 * phase / math.pi) * np.eye(2)


pd_sigma = st.builds(
    lambda a, b, c: np.array([[1.0 + a, c], [c, 1.0 + b]]),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=-0.9, max_value=0.9),
)


class TestOutputCovariance:
    def test_zero_frequency_reduction(self):
        out = output_covariance(0.5 * np.eye(2), spec_at())
        assert np.array_equal(out, np.diag([1.5, 1.5]))

    def test_zero_frequency_bitwise_identity(self):
        sigma = np.array([[0.83, -0.11], [-0.11, 0.67]])
        spec = spec_at(window=0.31, kappa=2.7)
        out = output_covariance(sigma, spec)
        expected = spec.kappa_meas * spec.window * sigma + np.eye(2)
        expected = 0.5 * (expected + expected.T)
        assert np.array_equal(out, expected)

    def test_filter_zero_kills_cavity_term(self):
        """At Omega_k tau = 2 pi the sinc^2 filter blocks the cavity, and the
        output is the vacuum I.  The printed sinc vacuum vanishes there too,
        leaving about 0, which is not a state (det sigma < 1/4): the reason
        that form is not the library's."""
        sigma = np.array([[1.4, 0.3], [0.3, 0.8]])
        spec = spec_at(omega_k=2.0 * math.pi, window=1.0, kappa=5.0)
        assert np.allclose(output_covariance(sigma, spec), np.eye(2), atol=1e-12)
        printed = output_covariance_printed_sinc(sigma, spec)
        assert np.max(np.abs(printed)) < 1e-12
        assert np.linalg.det(printed) < 0.25

    def test_closed_vs_double_integral_grid(self):
        sigma = np.array([[0.93, -0.21], [-0.21, 0.58]])
        for phase in (0.0, 1.57, 3.3, 7.0, 11.0):
            for kt in (0.1, 0.5, 1.0, 3.16, 10.0):
                spec = spec_at(omega_k=phase, window=1.0, kappa=kt)
                closed = output_covariance(sigma, spec)
                numeric = output_covariance_numeric(sigma, spec)
                rel = np.linalg.norm(closed - numeric) / np.linalg.norm(closed)
                assert rel < 1e-8

    def test_vacuum_only_without_cavity_signal(self):
        spec = spec_at(omega_k=1.3, window=1.0, kappa=4.2)
        out = output_covariance_numeric(np.zeros((2, 2)), spec)
        assert np.allclose(out, np.eye(2), atol=1e-13)  # independent of kappa
        out2 = output_covariance_numeric(np.zeros((2, 2)), spec_at(omega_k=1.3, kappa=0.1))
        assert np.allclose(out, out2, atol=1e-13)

    def test_periodicity_up_to_sinc_envelope(self):
        """Entries at Omega_k and Omega_k + 2 pi / tau differ only through
        the sinc prefactors."""
        sigma = np.array([[1.1, 0.25], [0.25, 0.7]])
        tau, kt = 1.0, 2.0
        for wk in (0.7, 2.1, 4.0):
            s1 = spec_at(omega_k=wk, window=tau, kappa=kt)
            s2 = spec_at(omega_k=wk + 2.0 * math.pi / tau, window=tau, kappa=kt)
            m1 = output_covariance(sigma, s1) - np.eye(2)
            m2 = output_covariance(sigma, s2) - np.eye(2)
            f1 = np.sinc(wk * tau / (2.0 * math.pi)) ** 2
            f2 = np.sinc((wk * tau + 2.0 * math.pi) / (2.0 * math.pi)) ** 2
            assert np.allclose(m1 / f1, m2 / f2, rtol=1e-10)

    def test_rotational_covariance_at_zero_frequency(self):
        sigma = np.array([[1.1, 0.25], [0.25, 0.7]])
        spec = spec_at(window=0.8, kappa=1.7)
        phi = 0.6
        rot = rotation(phi)
        sigma_rot = rot @ sigma @ rot.T
        for theta in (0.0, 0.4, 1.1):
            r1 = np.array([math.cos(theta), math.sin(theta)])
            # cavity term only (vacuum is isotropic)
            cav = output_covariance(sigma, spec) - np.eye(2)
            cav_rot = output_covariance(sigma_rot, spec) - np.eye(2)
            r2 = rot @ r1
            assert r1 @ cav @ r1 == pytest.approx(r2 @ cav_rot @ r2, rel=1e-12)

    def test_diagonal_sanity_bound(self):
        """diag >= sinc(2 Omega_k tau) - |off-diagonal| on a parameter grid."""
        sigma = np.array([[0.93, -0.21], [-0.21, 0.58]])
        for phase in (0.0, 0.9, 2.0, 4.5):
            for kt in (0.2, 1.0, 5.0):
                spec = spec_at(omega_k=phase, window=1.0, kappa=kt)
                m = output_covariance(sigma, spec)
                bound = np.sinc(2.0 * phase / math.pi) - abs(m[0, 1])
                assert m[0, 0] >= bound - 1e-12
                assert m[1, 1] >= bound - 1e-12

    def test_window_validation(self):
        with pytest.raises(DomainError):
            spec_at(window=-1.0)

    def test_output_state_is_output_covariance(self):
        """The benchmark's name for the output map gives the same matrix and
        refuses every vacuum convention but the identity."""
        sigma = np.array([[1.1, 0.25], [0.25, 0.7]])
        spec = spec_at(omega_k=1.3, window=1.0, kappa=2.0)
        out = pipeline.output_state(sigma, spec,
                                    vacuum=pipeline.PipelineSettings.vacuum_mode)
        assert np.array_equal(out.matrix, output_covariance(sigma, spec))
        with pytest.raises(DomainError):
            pipeline.output_state(sigma, spec, vacuum="printed_sinc")


def _taylor_map(x: float, tau: float) -> np.ndarray:
    """G at phase x = Omega_k tau to O(x^3): tau [[1 - x^2/6, x/2], [-x/2, 1 - x^2/6]]."""
    return tau * np.array([[1.0 - x * x / 6.0, x / 2.0], [-x / 2.0, 1.0 - x * x / 6.0]])


class TestSmallPhase:
    """At |Omega_k tau| = 1e-8, 1 - cos(Omega_k tau) rounds to 0; the map
    must keep the x/2 off-diagonal to round-off."""

    @pytest.mark.parametrize("x", [1e-8, -1e-8, 3e-9])
    def test_cavity_output_map_matches_taylor(self, x):
        tau = 0.37
        g_int = cavity_output_map(spec_at(omega_k=x / tau, window=tau))
        ref = _taylor_map(x, tau)
        assert np.max(np.abs(g_int - ref) / np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("x", [1e-8, -1e-8])
    def test_report_dsigma_out_matches_taylor(self, x, monkeypatch):
        p = rossi_params()
        settings = pipeline.PipelineSettings()
        spec = pipeline.build_measurement(p, omega_k=x * p.kappa, settings=settings)
        d_opt = pipeline.cavity_dsigma_opt(p, settings)
        seen = []

        def spy(sigma, dsigma):
            seen.append(dsigma)
            return qfi_gaussian(sigma, dsigma)

        monkeypatch.setattr(pipeline, "qfi_gaussian", spy)
        pipeline.fisher_report(p, spec, settings, dsigma_opt=d_opt)
        g_ref = _taylor_map(spec.omega_k * spec.window, spec.window)
        ref = (spec.kappa_meas / spec.window) * g_ref @ d_opt @ g_ref.T
        assert np.linalg.norm(seen[0] - ref) / np.linalg.norm(ref) <= 1e-12
        assert np.array_equal(seen[0], output_map(d_opt, spec))


class TestHomodynePdf:
    def test_vacuum_point_values(self):
        v = homodyne_variance(0.5 * np.eye(2), 0.0, 1.0)
        assert v == pytest.approx(0.25, rel=1e-15)
        assert homodyne_pdf(0.5 * np.eye(2), 0.0, 1.0, 0.0) == \
            pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    @given(pd_sigma, st.floats(min_value=0.0, max_value=math.pi),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_normalization(self, sigma, theta, eta):
        total, _ = quad(lambda k: homodyne_pdf(sigma, theta, eta, k), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_second_moment_equals_variance(self):
        sigma = np.array([[1.72, -0.06], [-0.06, 1.51]])
        theta, eta = 0.3, 0.8
        v = homodyne_variance(sigma, theta, eta)
        m2, _ = quad(lambda k: k * k * homodyne_pdf(sigma, theta, eta, k), -np.inf, np.inf)
        assert m2 == pytest.approx(v, rel=1e-9)

    def test_non_positive_variance_rejected(self):
        with pytest.raises(DomainError):
            homodyne_variance(-np.eye(2), 0.0, 1.0)
