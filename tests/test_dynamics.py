"""Drift, diffusion, Lyapunov and transient-oracle tests."""

import math

import numpy as np
import pytest

from omfisher.constants import TWO_PI
from omfisher.errors import (DegenerateLyapunovError, DomainError,
                             QuadratureError, UnstableDriftError)
from omfisher.dynamics import (DriftMatrix, brownian_diffusion_freq,
                               brownian_laplace, diffusion_matrix, drift_matrix,
                               lyapunov_solve, stationary_covariance,
                               transient_covariance, _matsubara_terms)
from omfisher.params import rossi_params, steady_state


@pytest.fixture(scope="module")
def rossi_point():
    p = rossi_params()
    ss = steady_state(p)
    a = drift_matrix(p, ss)
    d = diffusion_matrix(p, a)
    return p, ss, a, d


def _near_defective(p, a):
    """a's optical block beside a mechanical block whose double pole is
    split by 1e-12, so that cond(V) >= 1e10."""
    m = np.zeros((4, 4))
    m[0, 0], m[0, 1], m[1, 1] = -p.omega_m, p.omega_m, -p.omega_m * (1.0 + 1e-12)
    m[2:, 2:] = a.matrix_scaled[2:, 2:]
    return DriftMatrix(matrix_scaled=m)


class TestDriftMatrix:
    def test_entry_pattern(self, rossi_point):
        """Zero-point units, the ones pipeline.cavity_dsigma_opt
        assumes when it writes dA/dg by hand: x_zp and p_zp turn 1/m and
        -m omega_m^2 into +-omega_m and the couplings into multiples of
        g alpha, with g the coupling in the frequency convention."""
        p, ss, a, _ = rossi_point
        m = a.matrix_scaled
        ga = p.g_freq * ss.alpha
        assert m[0, 1] == pytest.approx(p.omega_m, rel=1e-14)
        assert m[1, 0] == pytest.approx(-p.omega_m, rel=1e-14)
        assert m[1, 1] == pytest.approx(-p.gamma, rel=1e-14)
        assert m[1, 2] == pytest.approx(2.0 * math.sqrt(2) * ga, rel=1e-14)
        assert m[2, 2] == pytest.approx(-p.kappa / 2.0, rel=1e-14)
        assert m[3, 3] == pytest.approx(-p.kappa / 2.0, rel=1e-14)
        assert m[2, 3] == pytest.approx(ss.delta_eff, rel=1e-14)
        assert m[3, 2] == pytest.approx(-ss.delta_eff, rel=1e-14)
        assert m[3, 0] == pytest.approx(math.sqrt(2) * ga, rel=1e-14)
        zero_mask = np.ones((4, 4), dtype=bool)
        for idx in [(0, 1), (1, 0), (1, 1), (1, 2), (2, 2), (3, 3), (2, 3), (3, 2), (3, 0)]:
            zero_mask[idx] = False
        assert np.all(m[zero_mask] == 0.0)

    def test_coupling_through_product(self):
        p = rossi_params(power=0.0)  # alpha = 0 decouples like g = 0
        ss = steady_state(p)
        a = drift_matrix(p, ss)
        assert a.matrix_scaled[1, 2] == 0.0 and a.matrix_scaled[3, 0] == 0.0


class TestDiffusionMatrix:
    def test_vanishing_kernel_leaves_delta_part(self):
        # kernel scales with gamma; far below the baseline damping only the
        # delta-correlated optical part survives (g = 0 removes the optical
        # anti-damping that would destabilize such a weakly damped mirror)
        p = rossi_params(g_freq=0.0, gamma=1e-8 * TWO_PI * 130.0)
        ss = steady_state(p)
        a = drift_matrix(p, ss)
        d = diffusion_matrix(p, a)
        expected = np.diag([0.0, 0.0, p.kappa / 2.0, p.kappa / 2.0])
        assert np.max(np.abs(d.matrix_scaled - expected)) < 1e-6 * p.kappa / 2.0

    def test_optical_diagonal_is_kappa_over_two(self, rossi_point):
        p, _, _, d = rossi_point
        assert d.matrix_scaled[2, 2] == pytest.approx(p.kappa / 2.0, rel=1e-12)
        assert d.matrix_scaled[3, 3] == pytest.approx(p.kappa / 2.0, rel=1e-12)

    def test_symmetry(self, rossi_point):
        _, _, _, d = rossi_point
        assert np.array_equal(d.matrix_scaled, d.matrix_scaled.T)

    def test_kernel_linearity(self, rossi_point):
        """Doubling the Brownian kernel doubles D - delta part (at fixed A)."""
        p, _, a, d = rossi_point
        p2 = p.with_(gamma=2.0 * p.gamma)  # kernel scales with gamma
        d2 = diffusion_matrix(p2, a)
        delta = np.diag([0.0, 0.0, p.kappa / 2.0, p.kappa / 2.0])
        brown1 = d.matrix_scaled - delta
        brown2 = d2.matrix_scaled - delta
        assert np.allclose(brown2, 2.0 * brown1, rtol=1e-10)

    @pytest.mark.parametrize("temperature", [0.0, 0.01, 0.5, 11.0, 300.0])
    def test_frequency_domain_cross_check(self, temperature):
        p = rossi_params(temperature=temperature)
        a = drift_matrix(p, steady_state(p))
        d = diffusion_matrix(p, a)
        assert d.path == "laplace"
        delta = np.diag([0.0, 0.0, p.kappa / 2.0, p.kappa / 2.0])
        brown_t = d.matrix_scaled - delta
        brown_f, _ = brownian_diffusion_freq(p, a)
        assert np.linalg.norm(brown_f - brown_t) / np.linalg.norm(brown_t) < 1e-10

    def test_far_detuned_matches_frequency_integral(self):
        """|Im lambda| ~ 840 W: f and g come from their asymptotic series,
        where the exponentials of the E1 form overflow."""
        p = rossi_params(delta0=-3e10)
        a = drift_matrix(p, steady_state(p))
        brown_t = diffusion_matrix(p, a).matrix_scaled \
            - np.diag([0.0, 0.0, p.kappa / 2.0, p.kappa / 2.0])
        brown_f, _ = brownian_diffusion_freq(p, a)
        assert np.linalg.norm(brown_f - brown_t) / np.linalg.norm(brown_t) < 1e-10

    def test_term_count_fixed_across_coupling_steps(self):
        """The Matsubara term count cannot differ between g and g +- h, so
        the truncation cancels in finite-difference derivatives."""
        p0 = rossi_params()
        for temperature in (1e-6, 1e-4, 0.01, 11.0):
            for g in np.linspace(0.0, 26.0 * p0.g_freq, 27):
                counts = {_matsubara_terms(p0.with_(temperature=temperature,
                                                    g_freq=g * s))
                          for s in (1.0 - 1e-6, 1.0, 1.0 + 1e-6)}
                assert len(counts) == 1

    @pytest.mark.parametrize("temperature", [1e-5, 2.5e-4])
    def test_cold_fraction_matches_frequency_integral(self, monkeypatch, temperature):
        """Cold enough that more than 8 Matsubara nodes need the continued
        fraction of e^w E1(w) (hundreds at 1e-5 K, about a dozen at
        0.25 mK): the Brownian block agrees with the frequency-domain oracle
        to 1e-9 of ||D||."""
        import omfisher.dynamics as dyn
        p = rossi_params(temperature=temperature)
        a = drift_matrix(p, steady_state(p))
        args, real = [], dyn._lentz

        def recording(w):
            args.append(w)
            return real(w)

        monkeypatch.setattr(dyn, "_lentz", recording)
        d = diffusion_matrix(p, a)
        assert d.path == "laplace" and len(args) > 8
        brown_t = d.matrix_scaled - np.diag([0.0, 0.0, p.kappa / 2.0, p.kappa / 2.0])
        brown_f, _ = brownian_diffusion_freq(p, a)
        assert np.linalg.norm(brown_f - brown_t) <= 1e-9 * np.linalg.norm(d.matrix_scaled)

    def test_microkelvin_meets_tolerance(self):
        p = rossi_params(temperature=1e-6)
        d = diffusion_matrix(p, drift_matrix(p, steady_state(p)))
        assert d.path == "laplace"
        assert 0.0 < d.error_estimate <= 1e-7

    def test_temperature_beyond_term_cap_raises(self):
        p = rossi_params(temperature=2e-8)
        with pytest.raises(QuadratureError) as info:
            diffusion_matrix(p, drift_matrix(p, steady_state(p)))
        assert 1e-8 < info.value.estimate < math.inf  # tol/10 = 1e-8 missed
        assert f"{info.value.estimate:.3e}" in str(info.value)

    def test_ill_conditioned_eigenbasis_uses_frequency_path(self, rossi_point):
        """A near-defective mechanical block (double pole split by 1e-12)
        sends u to the frequency-domain integral; the reported error is the
        one quad_vec returned."""
        p, _, a, _ = rossi_point
        drift = _near_defective(p, a)
        assert np.linalg.cond(np.linalg.eig(drift.matrix_scaled)[1]) >= 1e10
        d = diffusion_matrix(p, drift)
        brown_f, err = brownian_diffusion_freq(p, drift)
        assert d.path == "frequency"
        assert err > 0.0
        assert d.error_estimate == 2.0 * err / np.linalg.norm(d.matrix_scaled)
        assert np.array_equal(d.matrix_scaled[:2, :2], brown_f[:2, :2])

    def test_singular_frequency_node_raises(self, rossi_point, monkeypatch):
        """A node whose shifted drift LAPACK reports singular (info > 0)
        raises LinAlgError rather than integrate zgesv's unfinished
        solution."""
        import scipy.linalg.lapack as lapack
        p, _, a, _ = rossi_point
        monkeypatch.setattr(lapack, "zgesv",
                            lambda m, b, overwrite_a=0: (m, None, b.copy(), 1))
        with pytest.raises(np.linalg.LinAlgError):
            brownian_diffusion_freq(p, a)

    def test_laplace_derivative_matches_differences(self):
        """dL/dlambda (f' = -g, g' = f - 1/z) against a 4-point difference
        of L; 1e-4 K puts the optical eigenvalues on the cot branch of the
        closed Matsubara sum and the mechanical ones on its Taylor branch."""
        for temperature in (0.0, 1e-4, 0.01, 11.0):
            p = rossi_params(temperature=temperature)
            lam = np.linalg.eigvals(drift_matrix(p, steady_state(p)).matrix_scaled)
            _, dlap, _ = brownian_laplace(p, lam)
            for step in 1e-5 * np.abs(lam) * np.array([[1.0], [1j]]):
                lp, lm, lp2, lm2 = (brownian_laplace(p, lam + s)[0]
                                    for s in (step, -step, 2 * step, -2 * step))
                diff = (8.0 * (lp - lm) - (lp2 - lm2)) / (12.0 * step)
                assert np.max(np.abs(diff - dlap) / np.abs(dlap)) < 1e-8

    @pytest.mark.parametrize("temperature", [11.0, 2.5e-4, 1e-5, 0.0])
    def test_laplace_scalar_lambda(self, temperature):
        """A scalar lambda gives scalars with the bits of the one-element
        list, on the Matsubara branch (T > 0) as at T = 0."""
        p = rossi_params(temperature=temperature)
        lam = -1e3 + 1e6j
        for scalar, listed in zip(brownian_laplace(p, lam), brownian_laplace(p, [lam])):
            assert np.shape(scalar) == () and listed.shape == (1,)
            assert np.array_equal(np.reshape(scalar, 1), listed)

    @pytest.mark.parametrize("re, im", [(0.0, 1.0), (0.0, 0.0), (1e3, 1.0)],
                             ids=["imaginary", "zero", "right_half_plane"])
    def test_laplace_outside_its_domain_raises(self, re, im):
        """At Re lambda >= 0 the transform diverges; the closed form would
        land across E1's branch cut (i omega_m), on NaN (0) or on the mirror
        image of the convergent value (1e3 + i omega_m)."""
        p = rossi_params()
        lam = np.array([-1e3 + 1j * p.omega_m, re + 1j * im * p.omega_m])
        with pytest.raises(DomainError, match="Re lambda < 0") as info:
            brownian_laplace(p, lam)
        assert repr(complex(lam[1])) in str(info.value)

    def test_report_names_diffusion_path(self):
        from omfisher.pipeline import build_measurement, fisher_report
        p = rossi_params()
        rep = fisher_report(p, build_measurement(p))
        assert rep.diagnostics["diffusion_path"] == "laplace"
        assert 0.0 <= rep.diagnostics["diffusion_error"] <= 1e-7

    @pytest.mark.parametrize("solve", [
        lambda p, a, d: diffusion_matrix(p, a),
        lambda p, a, d: stationary_covariance(a, d),
        lambda p, a, d: transient_covariance(p, a, d),
    ], ids=["diffusion_matrix", "stationary_covariance", "transient_covariance"])
    def test_unstable_drift_rejected(self, rossi_point, solve):
        """A replaced drift decomposes its own matrix, not the stable
        spectrum already cached on the instance it was copied from."""
        p, ss, a, d = rossi_point
        from dataclasses import replace
        assert a.stable
        unstable = replace(a, matrix_scaled=a.matrix_scaled + 1e9 * np.eye(4))
        with pytest.raises(UnstableDriftError):
            solve(p, unstable, d)

    def test_anomalous_block_indefinite_but_reported(self, rossi_point):
        """The q-p anomalous cross term makes D itself indefinite; the
        physical state sigma stays PSD (checked below)."""
        _, _, _, d = rossi_point
        eigs = np.linalg.eigvalsh(d.matrix_scaled)
        assert eigs[0] < 0.0
        assert d.error_estimate < 1e-7


def _bare_drift(m):
    return DriftMatrix(matrix_scaled=m)


class TestLyapunovSolve:
    def test_direct_substitution(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(4, 4))
        c = c + c.T + 8.0 * np.eye(4)
        lam = 0.7
        sigma, res = lyapunov_solve(_bare_drift(-0.5 * lam * np.eye(4)), lam * c)
        assert np.allclose(sigma, c, rtol=1e-12)
        assert res < 1e-12

    def test_optical_vacuum(self):
        p = rossi_params(g_freq=0.0)
        ss = steady_state(p)
        a = drift_matrix(p, ss)
        d = diffusion_matrix(p, a)
        cov = stationary_covariance(a, d)
        assert np.allclose(cov.optical_block, 0.5 * np.eye(2), atol=1e-12)

    def test_degenerate_pair_raises(self):
        a = _bare_drift(np.diag([1.0, -1.0, 2.0, -2.0]))
        with pytest.raises(DegenerateLyapunovError, match="singular"):
            lyapunov_solve(a, np.eye(4))

    def test_near_degenerate_pair_raises(self):
        """An eigenvalue pair summing to 1e-16 of the largest sum leaves the
        operator invertible in floating point; the spectrum check rejects it."""
        a = _bare_drift(np.diag([1.0, -1.0 + 1e-15, 3.0, -5.0]))
        with pytest.raises(DegenerateLyapunovError, match="singular"):
            lyapunov_solve(a, np.eye(4))

    def test_singular_solve_raises_degenerate(self):
        """A LinAlgError from the solve surfaces as DegenerateLyapunovError."""
        a = _bare_drift(-np.eye(4))
        a.__dict__["lyapunov_operator"] = np.zeros((16, 16))  # the cached operator
        with pytest.raises(DegenerateLyapunovError, match="singular"):
            lyapunov_solve(a, np.eye(4))

    def test_stable_drift_just_below_threshold_solves(self):
        """At g = (1 - 1e-6) g_c, below the instability threshold in g
        (g_c = 18.4755 g0, the mechanical pair reaching Re lambda = 0), the
        smallest eigenvalue sum is 3e-12 of the largest, so the degeneracy
        check passes, and the solve returns a finite covariance.  Its
        residual, 1.5e-7, is the rounding of A sigma at ||sigma|| ~ 5e11."""
        p0 = rossi_params()

        def stable(g):
            p = p0.with_(g_freq=g)
            return drift_matrix(p, steady_state(p)).stable

        lo, hi = 18.0 * p0.g_freq, 19.0 * p0.g_freq
        assert stable(lo) and not stable(hi)
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if stable(mid) else (lo, mid)
        assert lo / p0.g_freq == pytest.approx(18.4755, abs=1e-4)
        p = p0.with_(g_freq=(1.0 - 1e-6) * lo)
        a = drift_matrix(p, steady_state(p))
        lam = a.spectrum[0]
        assert a.stable and np.max(lam.real) > -1e-2
        d = diffusion_matrix(p, a)
        cov = stationary_covariance(a, d)
        assert np.all(np.isfinite(cov.matrix_scaled))
        assert cov.residual < 1e-6

    def test_residual_invariant(self, rossi_point):
        _, _, a, d = rossi_point
        cov = stationary_covariance(a, d)
        assert cov.residual <= 1e-10

    def test_sigma_physicality(self, rossi_point):
        _, _, a, d = rossi_point
        cov = stationary_covariance(a, d)
        assert np.array_equal(cov.matrix_scaled, cov.matrix_scaled.T)
        opt = np.linalg.eigvalsh(cov.optical_block)
        assert opt[0] > 0.0
        full = np.linalg.eigvalsh(cov.matrix_scaled)
        assert full[0] > -1e-8 * full[-1]


class TestTransientOracle:
    def test_matches_lyapunov(self, rossi_point):
        """At the baseline drift and on an eigenbasis with cond(V) >= 1e10:
        the oracle uses the eigenvalues only for its first step."""
        p, _, a, d = rossi_point
        near = _near_defective(p, a)
        assert near.spectrum[3] >= 1e10
        for drift, diff in ((a, d), (near, diffusion_matrix(p, near))):
            cov = stationary_covariance(drift, diff)
            tc = transient_covariance(p, drift, diff)
            rel = np.linalg.norm(tc.matrix_scaled - cov.matrix_scaled) / \
                np.linalg.norm(cov.matrix_scaled)
            assert rel < 1e-6

    def test_never_builds_the_lyapunov_operator(self, rossi_point, monkeypatch):
        p, _, a, d = rossi_point

        def refuse(self):
            raise AssertionError("transient oracle built the Kronecker operator")

        monkeypatch.setattr(DriftMatrix, "lyapunov_operator", property(refuse))
        fresh = DriftMatrix(matrix_scaled=a.matrix_scaled.copy())
        with pytest.raises(AssertionError):
            fresh.lyapunov_operator
        tc = transient_covariance(p, fresh, d)
        assert np.all(np.isfinite(tc.matrix_scaled))


class TestContinuity:
    def test_sigma_smooth_over_coupling_grid(self):
        """No >1% jumps between adjacent points on a 100-point g grid."""
        p0 = rossi_params()
        prev = None
        for g in np.linspace(0.0, 2.0 * p0.g_freq, 100):
            p = p0.with_(g_freq=float(g))
            ss = steady_state(p)
            a = drift_matrix(p, ss)
            d = diffusion_matrix(p, a)
            cov = stationary_covariance(a, d)
            cur = cov.matrix_scaled
            if prev is not None:
                jump = np.linalg.norm(cur - prev) / np.linalg.norm(prev)
                assert jump < 0.01
            prev = cur


class TestDerivativeConsistency:
    def test_fd_vs_derivative_lyapunov(self):
        from omfisher.oracle import richardson_dsigma_opt
        from omfisher.pipeline import PipelineSettings, cavity_dsigma_opt
        p = rossi_params()
        d_fd = richardson_dsigma_opt(p)
        d_dl = cavity_dsigma_opt(p, PipelineSettings(derivative_method="derivative-lyapunov"))
        assert np.linalg.norm(d_fd - d_dl) / np.linalg.norm(d_fd) < 1e-5


class TestOneSpectrum:
    """Each cavity state decomposes its drift matrix once, evaluates the
    Laplace transforms of the kernel once and builds its Lyapunov operator
    once: the stability verdict, the Brownian diffusion, sigma and the
    implicit derivative share them."""

    @staticmethod
    def _count(monkeypatch):
        from functools import cached_property
        import omfisher.dynamics as dyn
        calls = {"eig": 0, "eigvals": 0, "brownian_laplace": 0, "operator": 0}

        def counted(real, name):
            def wrapper(*args, **kw):
                calls[name] += 1
                return real(*args, **kw)
            return wrapper

        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), name))
        monkeypatch.setattr(dyn, "brownian_laplace",
                            counted(dyn.brownian_laplace, "brownian_laplace"))
        build = cached_property(
            counted(DriftMatrix.__dict__["lyapunov_operator"].func, "operator"))
        build.__set_name__(DriftMatrix, "lyapunov_operator")
        monkeypatch.setattr(DriftMatrix, "lyapunov_operator", build)
        return calls

    def test_cavity_covariance(self, monkeypatch):
        from omfisher.pipeline import cavity_covariance
        p = rossi_params()
        calls = self._count(monkeypatch)
        cavity_covariance(p)
        assert calls == {"eig": 1, "eigvals": 0, "brownian_laplace": 1, "operator": 1}

    @pytest.mark.parametrize("method, solves", [(None, 1), ("derivative-lyapunov", 1),
                                                ("finite-difference", 5)])
    def test_fisher_report(self, monkeypatch, method, solves):
        """The implicit route: one of each per report.  The Richardson
        oracle handed to the report as its derivative adds four solves."""
        from omfisher.oracle import richardson_dsigma_opt
        from omfisher.pipeline import PipelineSettings, build_measurement, fisher_report
        p = rossi_params()
        settings = PipelineSettings() if method in (None, "finite-difference") else \
            PipelineSettings(derivative_method=method)
        spec = build_measurement(p, settings=settings)
        calls = self._count(monkeypatch)
        dsigma_opt = richardson_dsigma_opt(p, settings) \
            if method == "finite-difference" else None
        fisher_report(p, spec, settings, auto_theta=True, dsigma_opt=dsigma_opt)
        assert calls == {"eig": solves, "eigvals": 0, "brownian_laplace": solves,
                         "operator": solves}

    def test_frequency_path_evaluates_laplace_for_derivative(self, rossi_point,
                                                             monkeypatch):
        """On the frequency path diffusion_matrix still evaluates L and L'
        at the drift eigenvalues, so the implicit derivative evaluates no
        Laplace transform of its own."""
        from omfisher.pipeline import CavityState, cavity_dsigma_opt
        p, ss, a, _ = rossi_point
        drift = _near_defective(p, a)
        d = diffusion_matrix(p, drift)
        lap, dlap, _ = brownian_laplace(p, drift.spectrum[0])
        assert d.path == "frequency"
        assert np.array_equal(d.laplace, lap) and np.array_equal(d.dlaplace, dlap)
        cav = CavityState(steady=ss, drift=drift, diffusion=d,
                          covariance=stationary_covariance(drift, d))
        calls = self._count(monkeypatch)
        assert np.all(np.isfinite(cavity_dsigma_opt(p, cavity=cav)))
        assert calls == {"eig": 0, "eigvals": 0, "brownian_laplace": 0, "operator": 0}

    @pytest.mark.parametrize("temperature, f_series", [(0.0, 0), (0.01, 1), (11.0, 1)])
    def test_asymptotic_series_only_where_needed(self, monkeypatch, temperature,
                                                 f_series):
        """Every drift eigenvalue has |z| = |lambda|/W < 40 at the baseline, so
        diffusion_matrix sums no asymptotic series for them; at T >= 0.01 K
        every Matsubara node has |z| > 40 and needs the series of f alone, and
        e^w E1(w) runs only at the 8 arguments +-i z of the eigenvalues."""
        import omfisher.dynamics as dyn
        p = rossi_params(temperature=temperature)
        a = drift_matrix(p, steady_state(p))
        assert np.all(np.abs(a.spectrum[0]) / p.cutoff < 40.0)
        coeffs, real = [], dyn.polyval
        sizes, real_e1 = [], dyn._exp_e1

        def recording(x, c, *args, **kw):
            coeffs.append(c)
            return real(x, c, *args, **kw)

        def recording_e1(w):
            sizes.append(np.size(w))
            return real_e1(w)

        monkeypatch.setattr(dyn, "polyval", recording)
        monkeypatch.setattr(dyn, "_exp_e1", recording_e1)
        diffusion_matrix(p, a)
        assert not any(c is dyn._G_ASYM for c in coeffs)
        assert sum(c is dyn._F_ASYM for c in coeffs) == f_series
        assert sizes == [8]

    def test_spectrum_error_is_numerical(self):
        from omfisher.errors import NumericalError
        bad = np.full((4, 4), np.nan)
        with pytest.raises(NumericalError):
            DriftMatrix(matrix_scaled=bad).stable


class TestSpecialFunctions:
    """The library's own e^w E1(w) and Taylor coefficients of h(y) against
    scipy.special, which only the tests import."""

    # scipy's exp1, as e^w E1(w) at w = +-iz, Re z > 0, |z| in [1e-4, 40],
    # is within 1.1e-12 of a 50-digit evaluation, at worst near |w| = 5;
    # the library's form is within 2.2e-14 on the same arguments
    SCIPY_EXP1_RTOL = 1.2e-12

    @staticmethod
    def _arguments():
        rng = np.random.default_rng(5)
        r = np.concatenate([10.0 ** rng.uniform(-4.0, math.log10(40.0), 3000),
                            rng.uniform(4.0, 6.0, 1000)])
        phase = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, r.size)
        phase[:200] = 0.0  # Matsubara nodes: z real
        phase[200:400] = np.copysign(0.5 * math.pi - 1e-6, phase[200:400])
        z = r * np.exp(1j * phase)
        return np.concatenate([-1j * z, 1j * z])

    def test_exp_e1_matches_scipy(self):
        from scipy.special import exp1
        from omfisher.dynamics import _exp_e1
        w = self._arguments()
        ref = np.exp(w) * exp1(w)
        assert np.all(np.abs(w) <= 40.0 + 1e-9) and np.min(np.abs(w)) < 2e-4
        # one call of all arguments and calls of 8: the fraction runs one
        # argument at a time, the series to the length its largest |w| needs
        batched = _exp_e1(w)
        single = np.concatenate([_exp_e1(w[i:i + 8]) for i in range(0, w.size, 8)])
        for value in (batched, single):
            assert np.max(np.abs(value - ref) / np.abs(ref)) < self.SCIPY_EXP1_RTOL
        assert np.max(np.abs(batched - single) / np.abs(single)) < 1e-14

    def test_h_taylor_matches_zeta(self):
        """zeta(2k)/pi^2k from the Bernoulli rationals against scipy's zeta,
        divided by a 50-digit pi in exact rational arithmetic: 1 ulp."""
        from fractions import Fraction
        from scipy.special import zeta
        from omfisher.dynamics import _H_TAYLOR
        pi = Fraction(314159265358979323846264338327950288419716939937510, 10 ** 50)
        ref = np.array([float(Fraction(float(zeta(2.0 * k))) / pi ** (2 * k))
                        for k in range(1, 13)])
        assert np.all(np.abs(_H_TAYLOR - ref) <= np.spacing(ref))
