"""Brownian kernel and trigamma tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omfisher.errors import DomainError
from omfisher.kernels import kernel_closed, kernel_dr_numeric, trigamma
from omfisher.params import rossi_params


@pytest.fixture(scope="module")
def bath():
    return rossi_params()


def trigamma_series_oracle(z, n_terms=100000):
    """Defining series sum 1/(z+n)^2 with a midpoint-rule tail correction.

    Tail error is bounded by (1/12) * 2 / |z + N - 1/2|^3, ~2e-15 for
    N = 1e5 and moderate z.
    """
    n = np.arange(n_terms)
    partial = np.sum(1.0 / (z + n) ** 2)
    return partial + 1.0 / (z + n_terms - 0.5)


class TestTrigamma:
    def test_known_constants(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-13)
        assert trigamma(0.5) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-13)

    def test_complex_point_vs_series_oracle(self):
        z = (1.0 - 3.0j) * 0.7
        oracle = trigamma_series_oracle(z)
        assert trigamma(z) == pytest.approx(oracle, rel=1e-12)
        # frozen from the series oracle
        assert trigamma(z) == pytest.approx(
            0.0479006458018227 + 0.4811631661145199j, rel=1e-12)

    def test_poles(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                trigamma(z)

    @given(st.floats(min_value=-30.0, max_value=30.0),
           st.floats(min_value=0.01, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, re, im):
        z = complex(re, im)
        a = trigamma(z)
        b = trigamma(z.conjugate())
        assert abs(b - a.conjugate()) <= 1e-13 * max(1.0, abs(a))

    def test_recurrence_identity(self):
        for z in (0.3 + 0.2j, 2.5 - 4.0j, 11.0 + 0.5j):
            lhs = trigamma(z)
            rhs = trigamma(z + 1.0) + 1.0 / z ** 2
            assert lhs == pytest.approx(rhs, rel=1e-13)


class TestKernels:
    def test_dr_parity(self, bath):
        tau = 0.3 / bath.cutoff
        assert kernel_closed(bath, tau) == kernel_closed(bath, -tau)

    @given(st.floats(min_value=0.005, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_parity_grid(self, x):
        bath = rossi_params()
        tau = x / bath.cutoff
        assert kernel_closed(bath, tau) == pytest.approx(
            kernel_closed(bath, -tau), rel=1e-14)

    def test_closed_vs_quadrature_both_roles(self, bath):
        """Closed form and quadrature agree with either as reference."""
        tau = 1.0 / bath.cutoff
        dr_c = kernel_closed(bath, tau)
        dr_n, dr_err = kernel_dr_numeric(bath, tau)
        assert dr_c == pytest.approx(dr_n, rel=1e-6)
        assert math.isfinite(dr_err) and dr_err > 0.0

    @pytest.mark.parametrize("temperature", [0.0, 11.0])
    def test_array_equals_scalar_calls(self, temperature):
        """One call on an array of lags gives bitwise the scalar calls, as
        Python floats at one lag."""
        bath = rossi_params(temperature=temperature)
        taus = np.linspace(-3.0, 40.0, 37) / bath.cutoff
        d_r = kernel_closed(bath, taus)
        for j, tau in enumerate(taus):
            value = kernel_closed(bath, float(tau))
            assert type(value) is float
            assert value == d_r[j]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lag_rejected(self, bath, bad):
        taus = np.array([0.0, bad, 1.0]) / bath.cutoff
        for tau in (taus, bad):
            with pytest.raises(DomainError):
                kernel_closed(bath, tau)

    def test_high_temperature_linearity(self):
        for temp in (100.0, 200.0):
            b1 = rossi_params(temperature=temp)
            b2 = rossi_params(temperature=2 * temp)
            ratio = kernel_closed(b2, 0.0) / kernel_closed(b1, 0.0)
            assert ratio == pytest.approx(2.0, rel=0.01)

    def test_zero_temperature_limit_continuity(self):
        """Thermal term vanishes as (kB T / hbar)^2; probe far below it."""
        b0 = rossi_params(temperature=0.0)
        b1 = rossi_params(temperature=1e-9)
        scale = abs(kernel_closed(b0, 0.0))
        for x in (0.0, 0.4, 3.0):
            tau = x / b0.cutoff
            assert abs(kernel_closed(b0, tau) - kernel_closed(b1, tau)) \
                <= 1e-8 * scale

    def test_zero_temperature_against_quadrature(self):
        b0 = rossi_params(temperature=0.0)
        scale = abs(kernel_closed(b0, 0.0))
        for x in (0.3, 2.0):
            tau = x / b0.cutoff
            c = kernel_closed(b0, tau)
            n = kernel_dr_numeric(b0, tau)[0]
            assert abs(c - n) <= 1e-6 * scale
