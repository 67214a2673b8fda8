"""Tests of the brute-force validators themselves."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from omfisher.errors import DomainError, NumericalError, UnphysicalStateError
from omfisher.oracle import (FockState, cfi_numeric, default_n_max, fock_moments,
                             gaussian_to_fock, qfi_fock, qfi_fock_converged)


def _squeezed_thermal(nu, r, phi):
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    return rot @ np.diag([nu * math.exp(2 * r), nu * math.exp(-2 * r)]) @ rot.T


def _dense_fock(sigma, n_max):
    """Reference construction on the full truncated space: expm of the
    squeeze and rotation generators, then U rho_th U^H."""
    nu = math.sqrt(np.linalg.det(sigma))
    evals, evecs = np.linalg.eigh(sigma / nu)
    r = 0.5 * math.log(evals[1])
    phi = math.atan2(evecs[1, 1], evecs[0, 1])
    ns = np.arange(n_max + 1)
    nbar = nu - 0.5
    if nbar <= 0.0:
        diag = (ns == 0).astype(float)
    else:
        diag = nbar ** ns / (nbar + 1.0) ** (ns + 1)
    a = np.diag(np.sqrt(ns[1:].astype(float)), 1)
    adag = a.T
    u = expm(1j * phi * (adag @ a)) @ expm(0.5 * r * (adag @ adag - a @ a))
    return u @ np.diag(diag) @ u.conj().T


def _dense_sld_sum(rho_minus, rho_plus, h):
    """SLD sum over the full matrix, without the parity split."""
    drho = (rho_plus - rho_minus) / (2.0 * h)
    pvals, pvecs = np.linalg.eigh(0.5 * (rho_plus + rho_minus))
    d_in_eig = pvecs.conj().T @ drho @ pvecs
    psum = pvals[:, None] + pvals[None, :]
    mask = psum > 1e-12
    return float(np.sum(2.0 * np.abs(d_in_eig[mask]) ** 2 / psum[mask]))


# truncations with both block sizes, including an empty and a one-state
# odd block; pure (nu = 1/2) and thermal cores
_FOCK_CASES = [(n_max, nu, r, phi)
               for n_max in (0, 1, 40, 41)
               for nu in (0.5, 1.3)
               for r in (0.0, 0.15, 0.8)
               for phi in (0.0, 0.7, -2.1)]


class TestGaussianToFock:
    def test_matches_dense_expm_construction(self):
        for n_max, nu, r, phi in _FOCK_CASES:
            sigma = _squeezed_thermal(nu, r, phi)
            st = gaussian_to_fock(sigma, n_max)
            err = np.max(np.abs(st.rho - _dense_fock(sigma, n_max)))
            assert err < 1e-13, (n_max, nu, r, phi, err)

    def test_vacuum_projector(self):
        st = gaussian_to_fock(0.5 * np.eye(2), 40)
        assert st.trace_deficit < 1e-14
        expected = np.zeros((41, 41))
        expected[0, 0] = 1.0
        assert np.max(np.abs(st.rho - expected)) < 1e-14

    def test_squeezed_vacuum_purity(self):
        sigma = 0.5 * np.diag([math.exp(1.0), math.exp(-1.0)])
        st = gaussian_to_fock(sigma, 60)
        purity = float(np.real(np.trace(st.rho @ st.rho)))
        assert abs(purity - 1.0) < 1e-8

    def test_thermal_geometric_diagonal(self):
        st = gaussian_to_fock(1.5 * np.eye(2), 120)
        diag = np.real(np.diag(st.rho))
        nbar = 1.0
        expected = nbar ** np.arange(121) / (nbar + 1.0) ** (np.arange(121) + 1.0)
        assert np.max(np.abs(diag - expected)) < 1e-12
        off = st.rho - np.diag(np.diag(st.rho))
        assert np.max(np.abs(off)) < 1e-12

    def test_moment_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            a = rng.normal(size=(2, 2))
            sigma = a @ a.T + 0.6 * np.eye(2)
            st = gaussian_to_fock(sigma, 140)
            assert np.max(np.abs(fock_moments(st) - sigma)) < 1e-7

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalStateError):
            gaussian_to_fock(0.2 * np.eye(2))

    def test_truncation_heuristic(self):
        assert default_n_max(1.0) == 80
        assert default_n_max(10.0) == 400


class TestQfiFock:
    def test_zero_derivative(self):
        st = gaussian_to_fock(1.2 * np.eye(2), 60)
        assert qfi_fock(st, st, 1e-3) == 0.0

    def test_thermal_matches_exact_closed_form(self):
        """Commuting thermal family: QFI = classical FI of the eigenvalues,
        nu'^2 / (nu^2 - 1/4)."""
        for nu in (1.5, 3.0, 10.0):
            fam = lambda g: (nu + g) * np.eye(2)
            q, drift = qfi_fock_converged(fam, 0.0, h=1e-4,
                                          n_max=default_n_max(nu))
            exact = 1.0 / (nu * nu - 0.25)
            assert q == pytest.approx(exact, rel=1e-6)
            assert drift < 1e-4

    def test_thermal_matches_formula_at_large_occupation(self):
        """The Gaussian-QFI formula agrees with the oracle at large
        occupation, where the oracle needs its largest truncation."""
        from omfisher.fisher import qfi_gaussian
        nu = 25.0
        fam = lambda g: (nu + g) * np.eye(2)
        q, _ = qfi_fock_converged(fam, 0.0, h=1e-3)
        formula = qfi_gaussian(fam(0.0), np.eye(2))
        assert abs(formula - q) / q < 1e-3

    def test_blockwise_sum_matches_full_matrix(self):
        """The parity-block SLD sum equals the full-matrix sum; states the
        truncation cannot hold still trip the trace-deficit gate."""
        h = 1e-4
        compared = 0
        for n_max, nu, r, phi in _FOCK_CASES:
            dnu = 0.0 if nu == 0.5 else 0.3
            fam = lambda g: _squeezed_thermal(nu + dnu * g, r + 0.4 * g,
                                              phi + 0.5 * g)
            rm = gaussian_to_fock(fam(-h), n_max)
            rp = gaussian_to_fock(fam(h), n_max)
            if max(rm.trace_deficit, rp.trace_deficit) > 1e-10:
                with pytest.raises(DomainError):
                    qfi_fock(rm, rp, h)
                continue
            full = _dense_sld_sum(rm.rho, rp.rho, h)
            assert qfi_fock(rm, rp, h) == pytest.approx(full, rel=1e-10, abs=1e-14)
            compared += full > 0.0
        assert compared >= 20
        # one-state odd block carrying part of the derivative
        two = [FockState(1, np.diag([1.0 - q, q]).astype(complex), 0.0)
               for q in (0.3 - h, 0.3 + h)]
        assert qfi_fock(*two, h) == pytest.approx(
            _dense_sld_sum(two[0].rho, two[1].rho, h), rel=1e-12)

    def test_parity_mixing_rejected(self):
        coherent = FockState(1, np.full((2, 2), 0.5, dtype=complex), 0.0)
        vacuum = gaussian_to_fock(0.5 * np.eye(2), 1)
        for pair in ((coherent, vacuum), (vacuum, coherent)):
            with pytest.raises(DomainError, match="even and odd"):
                qfi_fock(*pair, 1e-3)

    def test_truncation_mismatch_rejected(self):
        a = gaussian_to_fock(1.2 * np.eye(2), 60)
        b = gaussian_to_fock(1.2 * np.eye(2), 80)
        with pytest.raises(DomainError):
            qfi_fock(a, b, 1e-3)

    def test_truncation_stability_guard(self):
        fam = lambda g: (1.5 + g) * np.eye(2)
        q1, _ = qfi_fock_converged(fam, 0.0, h=1e-4, n_max=80)
        q2, _ = qfi_fock_converged(fam, 0.0, h=1e-4, n_max=100)
        assert abs(q1 - q2) / q2 < 1e-4


class TestCfiNumeric:
    def test_g_independent_family(self):
        fam = lambda g: (lambda k: np.exp(-k * k / 2.0) / math.sqrt(2 * math.pi))
        assert cfi_numeric(fam, 0.0, 1e-4) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_variance_family(self):
        def fam(g):
            v = 0.7 * math.exp(g)
            return lambda k: np.exp(-k * k / (2 * v)) / math.sqrt(2 * math.pi * v)
        assert cfi_numeric(fam, 0.0, 1e-5) == pytest.approx(0.5, rel=1e-8)

    def test_normalization_drift_rejected(self):
        def fam(g):
            return lambda k: 1.1 * np.exp(-k * k / 2.0) / math.sqrt(2 * math.pi)
        with pytest.raises(NumericalError):
            cfi_numeric(fam, 0.0, 1e-4)

    def test_eta_limit_continuity(self):
        """Guard for the factor-2 adjudication: CFI is continuous in the
        eta -> 1 limit (no jump above 1%)."""
        from omfisher.output import homodyne_variance
        sigma0 = np.array([[1.72, -0.06], [-0.06, 1.51]])
        dsig = np.array([[5.6e-4, -1.4e-4], [-1.4e-4, 3.5e-5]])
        theta, h = 0.4, 1e-4

        def family(eta):
            def fam(g):
                v = homodyne_variance(sigma0 + g * dsig, theta, eta)
                return lambda k: np.exp(-k * k / (2 * v)) / math.sqrt(2 * math.pi * v)
            return fam

        f1 = cfi_numeric(family(1.0), 0.0, h)
        f2 = cfi_numeric(family(0.999), 0.0, h)
        assert abs(f1 - f2) / f1 < 0.01
