"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.

The QFI is the exact single-mode Gaussian result, so criteria 5, 7 and 9
compare the CFI against the true quantum bound: the baseline output state
(nu_bar ~ 1.6) meets the Fock SLD oracle, a central-difference SLD sum in
the eigenbasis of the state at g that the Fock construction gives, to
3.3e-10, and the saturation ratios across the fig4 grids lie in
0.9875..0.9980.

One criterion fails by construction of the source model and is left red on
purpose; its docstring carries the analysis:
  * criterion 12: the coupling derivative of the output state is dominated
    by transduced thermal mirror noise (proportional to T), so the QFI
    increases with bath temperature instead of decreasing.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from omfisher.config import RunConfig, SweepSpec, apply_preset, load_config
from omfisher.constants import TWO_PI
from omfisher.fisher import cfi_bhd, qfi_gaussian, theta_max
from omfisher.output import output_covariance, output_map
from omfisher.params import (bistability_window, drive_amplitude, rossi_params,
                             steady_state)
from omfisher.pipeline import (PipelineSettings, build_measurement,
                               cavity_covariance, cavity_dsigma_opt)
from omfisher.sweep import run_sweep
from omfisher.validate import (_suite_cfi, _suite_kernels, _suite_lyapunov,
                               _suite_output, _suite_qfi, _suite_transient)

K0 = TWO_PI * 18.5e6
SETTINGS = PipelineSettings()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def fisher_point(params, omega_k=0.0, settings=SETTINGS):
    cav = cavity_covariance(params, settings)
    dso = cavity_dsigma_opt(params, settings)
    spec = build_measurement(params, omega_k=omega_k, settings=settings)
    sigma = output_covariance(cav.covariance.optical_block, spec)
    dsigma = output_map(dso, spec)
    return sigma, dsigma


@pytest.fixture(scope="module")
def fig4_sweeps():
    base = load_config(None)
    out = {}
    for name in ("fig4a", "fig4b", "fig4c", "fig4d"):
        _, rows = run_sweep(apply_preset(base, name))
        out[name] = rows
    return out


def test_criterion_01_lyapunov_residual():
    results = _suite_lyapunov(1e-10)
    ok = all(r.passed for r in results)
    report(1, ok, "; ".join(f"{r.name}: {r.measured:.3e} (tol {r.tolerance:.0e})"
                            for r in results))
    assert ok


def test_criterion_02_transient_oracle():
    results = _suite_transient(1e-6)
    ok = all(r.passed for r in results)
    report(2, ok, "; ".join(f"{r.name}: {r.measured:.3e}" for r in results))
    assert ok


def test_criterion_03_kernel_closed_forms():
    results = _suite_kernels(1e-6)
    ok = all(r.passed for r in results)
    report(3, ok, f"worst relative deviation {results[0].measured:.3e} "
                  f"({results[0].detail})")
    assert ok


def test_criterion_04_output_filter():
    results = _suite_output(1e-8)
    ok = all(r.passed for r in results)
    report(4, ok, "; ".join(f"{r.name}: {r.measured:.3e}" for r in results))
    assert ok


def test_criterion_05_qfi_vs_fock_oracle():
    """Exact Gaussian QFI vs the Fock SLD oracle on three families,
    including the mixed baseline output state (nu_bar ~ 1.6)."""
    import time
    t0 = time.perf_counter()
    results = _suite_qfi(1e-3)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 30.0
    report(5, ok, "; ".join(f"{r.name}: {r.measured:.3e}" for r in results)
           + f"; runtime {elapsed:.1f} s")
    assert ok, ("Gaussian QFI misses the Fock SLD oracle (or the suite "
                "exceeds 30 s)")


def test_criterion_06_cfi_vs_numeric_fi():
    results = _suite_cfi(1e-6)
    ok = all(r.passed for r in results)
    report(6, ok, "; ".join(r.detail or f"{r.measured:.3e}" for r in results))
    assert ok


def test_criterion_07_data_processing_inequality():
    """CFI <= QFI on the stated 72x5 (theta, eta) grid; the worst ratio is
    0.99382, and criterion 9 checks the exact theta maximizer."""
    points = [rossi_params(),
              rossi_params(kappa_in=0.35 * K0, kappa_loss=0.35 * K0),
              rossi_params(power=3e-6)]
    worst = 0.0
    for p in points:
        sigma, dsigma = fisher_point(p)
        qfi = qfi_gaussian(sigma, dsigma)
        for theta in np.linspace(0.0, math.pi, 72, endpoint=False):
            for eta in (0.2, 0.4, 0.6, 0.8, 1.0):
                worst = max(worst, cfi_bhd(sigma, dsigma, theta, eta) / qfi)
    ok = worst <= 1.0 + 1e-9
    report(7, ok, f"max CFI/QFI over 72x5 grids at 3 points = {worst:.8f} "
                  "(gate 1+1e-9)")
    assert ok, "homodyne CFI exceeds the QFI (data-processing inequality)"


def test_criterion_08_fig1_peak_at_zero():
    cfg = apply_preset(load_config(None), "fig1")
    _, rows = run_sweep(cfg)
    values = [r.value for r in rows]
    qfis = [r.qfi for r in rows]
    i_max = int(np.argmax(qfis))
    i_zero = int(np.argmin(np.abs(values)))
    ok = i_max == i_zero
    report(8, ok, f"argmax QFI at Omega_k = {values[i_max]:.3e} rad/s "
                  f"(grid point nearest zero is {values[i_zero]:.3e})")
    assert ok


def test_criterion_09_saturation_ratio(fig4_sweeps):
    """Saturation ratio stable across the fig4 grids, <= 1, and the
    predicted 0.5 lambda_max^2 / QFI matches direct theta maximization."""
    ratios = [r.saturation_ratio for rows in fig4_sweeps.values() for r in rows
              if r.stable and r.saturation_ratio is not None
              and np.isfinite(r.saturation_ratio)]
    mean = float(np.mean(ratios))
    spread_ok = (max(ratios) - min(ratios)) <= 0.02 * mean
    le_one_ok = max(ratios) <= 1.0 + 1e-9

    # adjudicated prediction 0.5 lambda_max^2 vs direct theta maximization
    sigma, dsigma = fisher_point(rossi_params())
    qfi = qfi_gaussian(sigma, dsigma)
    tm = theta_max(sigma, dsigma, 1.0)
    predicted = 0.5 * tm.lambda_max ** 2 / qfi
    grid = np.linspace(0.0, math.pi, 3600, endpoint=False)
    measured = max(cfi_bhd(sigma, dsigma, t, 1.0) for t in grid) / qfi
    match_ok = abs(measured - predicted) <= 0.01 * predicted

    ok = spread_ok and le_one_ok and match_ok
    report(9, ok, f"ratios in [{min(ratios):.6f}, {max(ratios):.6f}] "
                  f"(spread ok: {spread_ok}); <=1: {le_one_ok}; "
                  f"measured {measured:.6f} vs predicted {predicted:.6f} "
                  f"(match ok: {match_ok})")
    assert ok, "saturation ratio unstable, above 1, or off its prediction"


def test_criterion_10_theta_max_large_detuning():
    p = rossi_params(delta0=-20.0 * K0)
    sigma, dsigma = fisher_point(p)
    tm = theta_max(sigma, dsigma, 1.0)
    dist = abs(tm.theta - math.pi)
    ok = dist <= 0.05 * math.pi
    report(10, ok, f"theta_max = {tm.theta / math.pi:.4f} pi at delta0 = -20 kappa "
                   f"(distance from pi: {dist / math.pi:.4f} pi)")
    assert ok


def test_criterion_11_fig4_trends(fig4_sweeps):
    cfis = {name: [r.cfi for r in rows if r.stable]
            for name, rows in fig4_sweeps.items()}
    dec_kappa = all(a > b for a, b in zip(cfis["fig4a"], cfis["fig4a"][1:]))
    dec_gamma = all(a > b for a, b in zip(cfis["fig4b"], cfis["fig4b"][1:]))
    inc_power = all(a < b for a, b in zip(cfis["fig4c"], cfis["fig4c"][1:]))
    inc_g = all(a < b for a, b in zip(cfis["fig4d"], cfis["fig4d"][1:]))
    min_at_zero = np.argmin(cfis["fig4d"]) == 0
    ok = dec_kappa and dec_gamma and inc_power and inc_g and min_at_zero
    report(11, ok, f"CFI decreasing in kappa: {dec_kappa}, in gamma: {dec_gamma}; "
                   f"increasing in P: {inc_power}, in g: {inc_g}; "
                   f"g-minimum at smallest grid point: {min_at_zero}")
    assert ok


def test_criterion_12_fig5_temperature_trends():
    """EXPECTED RED: QFI increases with T in this model.

    The coupling signature on the light is transduced thermal mirror
    noise, so a hotter bath carries more information about g; no
    convention switch changes that structure.
    """
    base = load_config(None)
    gamma0 = base.gamma
    curves = {}
    for factor in (1.0, 10.0, 100.0):
        cfg = RunConfig(**{**base.__dict__, "gamma": factor * gamma0})
        cfg = apply_preset(cfg, "fig5")
        _, rows = run_sweep(cfg)
        curves[factor] = [r.qfi for r in rows]
    non_increasing = {f: all(a >= b for a, b in zip(q, q[1:]))
                      for f, q in curves.items()}
    order_1_10 = all(a > b for a, b in zip(curves[1.0], curves[10.0]))
    order_10_100 = all(a > b for a, b in zip(curves[10.0], curves[100.0]))
    ok = all(non_increasing.values()) and order_1_10 and order_10_100
    span = (curves[1.0][0], curves[1.0][-1])
    report(12, ok, f"QFI(T) non-increasing per gamma: {non_increasing}; "
                   f"ordering gamma0>10gamma0: {order_1_10}, "
                   f"10gamma0>100gamma0: {order_10_100}; "
                   f"QFI spans {span[0]:.2e} -> {span[1]:.2e} over 0.01..100 K")
    assert ok, "temperature trend opposite to the claimed one; see docstring"


def _count_roots(params, power):
    """Sign-change scan of the photon-number cubic (independent oracle)."""
    from omfisher.constants import HBAR
    p = params.with_(power=power)
    eps = drive_amplitude(p)
    b = HBAR * p.g_si ** 2 / (p.mass * p.omega_m ** 2)
    c = p.delta0 ** 2 + p.kappa ** 2 / 4.0
    a_lin = eps ** 2 / c
    grid = np.exp(np.linspace(math.log(a_lin * 1e-6), math.log(a_lin * 1e4), 6000))
    vals = ((b * b * grid - 2.0 * p.delta0 * b) * grid + c) * grid - eps ** 2
    signs = np.sign(vals)
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def _scan_window(params):
    """Bisection-refined root-count transitions over laser power."""
    powers = np.exp(np.linspace(math.log(1e-12), math.log(1e2), 240))
    counts = [_count_roots(params, float(pw)) for pw in powers]
    edges = []
    for i in range(len(powers) - 1):
        if (counts[i] > 1) != (counts[i + 1] > 1):
            lo, hi = powers[i], powers[i + 1]
            flo = counts[i] > 1
            for _ in range(80):
                mid = math.sqrt(lo * hi)
                if (_count_roots(params, mid) > 1) == flo:
                    lo = mid
                else:
                    hi = mid
            edges.append(math.sqrt(lo * hi))
    return edges


def test_criterion_13_bistability_window():
    detunings = [1.0, 1.5, 2.0, 2.5, 3.0, -1.0, -1.5, -2.0, -2.5, -3.0]
    worst = 0.0
    all_ok = True
    notes = []
    for mult in detunings:
        p = rossi_params(delta0=mult * K0)
        win = bistability_window(p)
        edges = _scan_window(p)
        if mult > 0:
            if win.monostable_for_all_power or len(edges) != 2:
                all_ok = False
                notes.append(f"delta0={mult}k: window/scan mismatch")
                continue
            err = max(abs(win.p_minus - edges[0]) / edges[0],
                      abs(win.p_plus - edges[1]) / edges[1])
            worst = max(worst, err)
            if err > 1e-3:
                all_ok = False
                notes.append(f"delta0={mult}k: boundary error {err:.2e}")
        else:
            if not win.monostable_for_all_power or edges:
                all_ok = False
                notes.append(f"delta0={mult}k: expected monostable")
    for mult in (0.5, -0.5):  # |delta0| < sqrt(3) kappa / 2
        win = bistability_window(rossi_params(delta0=mult * K0))
        if not win.monostable_for_all_power:
            all_ok = False
            notes.append(f"delta0={mult}k: small detuning must be monostable")
    report(13, all_ok, f"worst boundary error {worst:.3e} (tol 1e-3); "
                       + ("; ".join(notes) if notes else
                          "monostability correctly reported elsewhere"))
    assert all_ok


def test_criterion_14_determinism(tmp_path):
    from omfisher.cli import main
    cfg_text = ("[sweep]\nvariable = omega_k\nscale = linear\n"
                "start = -1e8\nstop = 1e8\npoints = 7\n")
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(cfg_text)
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    assert main(["sweep", "--config", str(cfg_file), "--out", out1]) == 0
    assert main(["sweep", "--config", str(cfg_file), "--out", out2]) == 0
    identical = Path(out1).read_bytes() == Path(out2).read_bytes()
    report(14, identical, "repeated sweep runs byte-identical: "
                          f"{identical} ({os.path.getsize(out1)} bytes)")
    assert identical
