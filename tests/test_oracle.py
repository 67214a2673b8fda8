"""Tests of the brute-force validators themselves."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from omfisher.errors import DomainError, NumericalError, UnphysicalStateError
from omfisher.oracle import (FockState, _centred, _fock_state, _k0_spectrum,
                             _squeeze_block, _symplectic_factor, _thermal_weights,
                             cfi_numeric, default_n_max, gaussian_to_fock, qfi_fock,
                             qfi_fock_converged)


def _ladder(n_max: int) -> np.ndarray:
    a = np.zeros((n_max + 1, n_max + 1))
    ns = np.arange(1, n_max + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


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


def _squeezed_thermal(nu, r, phi):
    rot = np.array([[math.cos(phi), -math.sin(phi)],
                    [math.sin(phi), math.cos(phi)]])
    return rot @ np.diag([nu * math.exp(2 * r), nu * math.exp(-2 * r)]) @ rot.T


def _dense_unitary(r, phi, n_max):
    """e^{i phi n} exp(r K0) on the full truncated space, by expm of the
    rotation and squeeze generators."""
    ns = np.arange(n_max + 1)
    a = np.diag(np.sqrt(ns[1:].astype(float)), 1)
    adag = a.T
    return expm(1j * phi * (adag @ a)) @ expm(0.5 * r * (adag @ adag - a @ a))


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
    u = _dense_unitary(r, phi, n_max)
    return u @ np.diag(diag) @ u.conj().T


def _centred_trio(sigmas, n_max):
    """qfi_fock's arguments for (sigma(g - h), sigma(g), sigma(g + h)) in the
    centre's frame at truncation n_max: the -h state, the centre's weights
    and the +h state."""
    nu, minus, plus = _centred(sigmas)
    return _fock_state(*minus, n_max), _thermal_weights(nu, n_max), _fock_state(*plus, n_max)


def _trio_rhos(trio):
    """The dense density matrices of a (FockState, weights, FockState) trio."""
    return trio[0].rho, np.diag(trio[1]), trio[2].rho


def _dense_sld_sum(rho_minus, rho_centre, rho_plus, h):
    """SLD sum over the full matrix at the centre state, in the eigenbasis
    that np.linalg.eigh finds for it, without the parity split."""
    drho = (rho_plus - rho_minus) / (2.0 * h)
    pvals, pvecs = np.linalg.eigh(rho_centre)
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
            gaussian_to_fock(0.2 * np.eye(2), 40)

    def test_truncation_heuristic(self):
        assert default_n_max(1.0) == 80
        assert default_n_max(10.0) == 345

    def test_truncation_follows_the_thermal_tail(self):
        """The default n_max is the smallest N whose thermal tail
        (nbar/(nbar+1))^(N+1), nbar = nu - 1/2, is at most 1e-15, floored at
        80: non-decreasing in nu, with no jump at nu = 3, where sigma = 3 I
        gives det = 9.000000000000002."""
        grid = np.linspace(0.3, 60.0, 3000)
        n_maxes = [default_n_max(float(nu)) for nu in grid]
        assert np.all(np.diff(n_maxes) >= 0) and min(n_maxes) == 80
        assert default_n_max(3.0) == default_n_max(3.0 * (1 + 2 ** -52))
        for nu, n in zip(grid, n_maxes):
            if n > 80:
                q = (nu - 0.5) / (nu + 0.5)
                assert q ** (n + 1) <= 1e-15 < q ** n, nu

    def test_factors_are_the_eigendecomposition(self):
        """The SLD sum runs in the basis the construction gives: each parity
        block is orthogonal, and U diag(weights) U^H is the dense rho."""
        cases = [(n_max, 1.3) for n_max in (0, 1, 40, 41)] + [(1020, 25.0)]
        for n_max, nu in cases:
            for r in (0.0, 0.15, 0.8):
                st = gaussian_to_fock(_squeezed_thermal(nu, r, 0.7), n_max)
                # undo the rotation: what is left is real and parity-blocked
                phase = np.exp(1j * st.phi * np.arange(n_max + 1))
                core = phase.conj()[:, None] * st.rho * phase
                assert np.max(np.abs(core.imag)) < 1e-13, (n_max, r)
                assert not np.any(core[0::2, 1::2]) and not np.any(core[1::2, 0::2])
                for parity, s in enumerate(st.blocks):
                    assert s.shape == ((n_max - parity) // 2 + 1,) * 2
                    ortho = np.max(np.abs(s.T @ s - np.eye(len(s))), initial=0.0)
                    assert ortho < 1e-13, (n_max, r, parity, ortho)
                    rebuilt = (s * st.weights[parity::2]) @ s.T
                    err = np.max(np.abs(core[parity::2, parity::2].real - rebuilt),
                                 initial=0.0)
                    assert err < 1e-13, (n_max, r, parity, err)
                trace = float(np.sum(core.real.diagonal()))
                assert st.trace_deficit == pytest.approx(abs(1.0 - trace), abs=1e-13)


class TestSqueezeBlock:
    @pytest.mark.parametrize("size", [60, 61, 200, 201])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_matches_dense_expm(self, size, parity):
        """exp(r K0) of the truncated parity block, K0 = (a^dag^2 - a^2)/2
        on photon numbers parity, parity + 2, ..., from the three quarter
        products equals scipy's expm of that block."""
        n = parity + 2.0 * np.arange(size - 1)
        k0 = np.diag(0.5 * np.sqrt((n + 1.0) * (n + 2.0)), -1)
        k0 -= k0.T
        for r in (-0.3, 0.15, 0.8, 2.0):
            err = np.max(np.abs(_squeeze_block(parity, size, r) - expm(r * k0)))
            assert err < 1e-12, (size, parity, r, err)

    def test_forms_only_the_kept_entries(self):
        """With the block's decomposition cached, one call allocates the
        block and its half-height products only, below three block-sized
        slots: no full-size product or index-pattern array is formed."""
        import tracemalloc
        size = 400
        _k0_spectrum(0, size)
        slot = 8 * size * size
        tracemalloc.start()
        try:
            block = _squeeze_block(0, size, 0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (size, size)
        assert peak < 3 * slot, peak / slot


class TestCentredFrame:
    @pytest.mark.parametrize("r0", [0.0, 0.3], ids=["thermal", "squeezed"])
    def test_states_rotate_back_to_the_number_basis(self, r0):
        """Each state of the centred trio, taken back by the centre's dense
        U_c = e^{i phi_c n} exp(r_c K0), is the state gaussian_to_fock
        builds from the unmapped covariance; U_c with phi_c + pi does the
        same.  At r0 = 0 the centre is thermal and the angle eigh picks
        for it is arbitrary."""
        n_max, h = 200, 0.05
        fam = lambda g: _squeezed_thermal(4.0 + 0.3 * g, r0 + 0.4 * g, 0.7 + 0.5 * g)
        sigmas = [fam(g) for g in (-h, 0.0, h)]
        rhos = _trio_rhos(_centred_trio(sigmas, n_max))
        _, r_c, phi_c = _symplectic_factor(sigmas[1])
        for phi in (phi_c, phi_c + math.pi):
            u = _dense_unitary(r_c, phi, n_max)
            for rho, sigma in zip(rhos, sigmas):
                back = u @ rho @ u.conj().T
                err = np.max(np.abs(back - gaussian_to_fock(sigma, n_max).rho))
                assert err < 1e-10, (r0, phi, err)


class TestQfiFock:
    def test_zero_derivative(self):
        st = gaussian_to_fock(1.2 * np.eye(2), 60)
        assert qfi_fock(st, st.weights, st, 1e-3) == 0.0

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
        """The parity-block SLD sum over the centred trio's photon numbers
        equals the full-matrix sum of the same trio's dense rho, in the
        eigenbasis eigh finds for the dense centre; states the truncation
        cannot hold still trip the trace-deficit gate."""
        h = 1e-4
        compared = 0
        for n_max, nu, r, phi in _FOCK_CASES:
            dnu = 0.0 if nu == 0.5 else 0.3
            fam = lambda g: _squeezed_thermal(nu + dnu * g, r + 0.4 * g,
                                              phi + 0.5 * g)
            trio = _centred_trio([fam(g) for g in (-h, 0.0, h)], n_max)
            deficits = (trio[0].trace_deficit, abs(1.0 - np.sum(trio[1])),
                        trio[2].trace_deficit)
            if max(deficits) > 1e-10:
                with pytest.raises(DomainError):
                    qfi_fock(*trio, h)
                continue
            full = _dense_sld_sum(*_trio_rhos(trio), h)
            assert qfi_fock(*trio, h) == pytest.approx(full, rel=1e-10, abs=1e-14)
            compared += full > 0.0
        assert compared >= 20
        # one-state odd block carrying part of the derivative
        two = [FockState(1, 0.0, np.array([1.0 - q, q]), (np.eye(1), np.eye(1)), 0.0)
               for q in (0.3 - h, 0.3, 0.3 + h)]
        assert qfi_fock(two[0], two[1].weights, two[2], h) == pytest.approx(
            _dense_sld_sum(*(st.rho for st in two), h), rel=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.7, -2.1])
    def test_centre_squeeze_is_not_truncated(self, monkeypatch, phi):
        """At n_max = 40 the squeezed centre (nu = 1.3, r = 0.8) is held
        exactly, as the thermal state of the centre's frame, so the first
        evaluation of qfi_fock_converged already meets the exact Gaussian QFI;
        squeezing the centre in the number basis leaves it 8.6e-3 short there."""
        import omfisher.oracle as oracle
        from omfisher.fisher import qfi_gaussian
        values = []
        fock = oracle.qfi_fock
        monkeypatch.setattr(oracle, "qfi_fock",
                            lambda *args: values.append(fock(*args)) or values[-1])
        h = 1e-4
        fam = lambda g: _squeezed_thermal(1.3 + 0.3 * g, 0.8 + 0.4 * g, phi + 0.5 * g)
        qfi_fock_converged(fam, 0.0, h, n_max=40)
        exact = qfi_gaussian(fam(0.0), (fam(h) - fam(-h)) / (2.0 * h))
        assert values[0] == pytest.approx(exact, rel=1e-8)

    def test_parity_mixing_rejected(self):
        """A factored state keeps the even and the odd photon numbers in
        separate blocks, so a coherence between them cannot be written as
        one; a +-h record whose blocks do not split that way is rejected."""
        # |+><+|, |+> = (|0> + |1>)/sqrt 2, as one block over both parities
        mixing = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        coherent = FockState(1, 0.0, np.array([1.0, 0.0]), (mixing, np.eye(0)), 0.0)
        vacuum = gaussian_to_fock(0.5 * np.eye(2), 1)
        for minus, plus in ((coherent, vacuum), (vacuum, coherent)):
            with pytest.raises(DomainError, match="even and odd"):
                qfi_fock(minus, vacuum.weights, plus, 1e-3)

    def test_phase_offset_counts_modulo_pi(self):
        """phi and phi + pi give the same parity-blocked rho (e^{i pi n} is
        constant on a block), as when eigh flips the sign of the stretched
        axis; shifting either +-h state by a multiple of pi leaves the QFI
        alone."""
        h = 1e-4
        fam = lambda g: _squeezed_thermal(4.0 + 0.3 * g, 0.3 + 0.4 * g, 0.7 + 0.5 * g)
        trio = _centred_trio([fam(g) for g in (-h, 0.0, h)], 200)
        q = qfi_fock(*trio, h)
        for k, shift in ((0, math.pi), (2, -math.pi), (2, -3 * math.pi)):
            shifted = list(trio)
            shifted[k] = replace(trio[k], phi=trio[k].phi + shift)
            assert qfi_fock(*shifted, h) == pytest.approx(q, rel=1e-10)

    def test_one_workspace_per_call(self):
        """A call allocates one workspace of five even-block slots and no
        other array of the block size, so its peak traced memory stays
        below six slots whatever the number of steps it runs."""
        import tracemalloc
        h = 1e-4
        fam = lambda g: _squeezed_thermal(4.0 + 0.3 * g, 0.3 + 0.4 * g, 0.7 + 0.5 * g)
        trio = _centred_trio([fam(g) for g in (-h, 0.0, h)], 400)
        slot = 8 * len(trio[0].blocks[0]) ** 2
        tracemalloc.start()
        try:
            q = qfi_fock(*trio, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q > 0.0
        assert 5 * slot <= peak < 6 * slot, peak / slot

    def test_truncation_mismatch_rejected(self):
        a = gaussian_to_fock(1.2 * np.eye(2), 60)
        b = gaussian_to_fock(1.2 * np.eye(2), 80)
        for minus, centre, plus in ((a, b, b), (b, a, b), (b, b, a)):
            with pytest.raises(DomainError, match="share the truncation"):
                qfi_fock(minus, centre.weights, plus, 1e-3)

    def test_centre_sets_truncation(self, monkeypatch):
        """sigma_of_g is evaluated at g - h, g and g + h, and the default
        n_max comes from the state at g."""
        import omfisher.oracle as oracle
        calls, n_maxes = [], []
        fock = oracle.qfi_fock
        monkeypatch.setattr(oracle, "qfi_fock",
                            lambda minus, weights, plus, h:
                            n_maxes.append([minus.n_max, len(weights) - 1, plus.n_max])
                            or fock(minus, weights, plus, h))

        def fam(g):
            calls.append(g)
            return (5.0 + 2.0 * g * g) * np.eye(2)

        h = 0.5
        q, _ = qfi_fock_converged(fam, 0.0, h)
        assert calls == [-h, 0.0, h]
        # nu = 5 at g sets 172, bumped to 192; the +-h states, at nu = 5.5,
        # would set 189
        assert n_maxes == [[172] * 3, [192] * 3]
        assert q == 0.0

    @pytest.mark.parametrize("d", [-1.0, 0.1], ids=["det<0", "det<1/4"])
    def test_unphysical_family_rejected(self, d):
        """A centre that is not a state is rejected as such before the
        default truncation is taken from its nu = sqrt(det)."""
        with pytest.raises(UnphysicalStateError):
            qfi_fock_converged(lambda g: np.diag([1.0 + g, d]), 0.0, 1e-3)

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
