"""Configuration, sweep and CLI surface tests."""

import ast
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import omfisher.validate as validate_module
from omfisher import cli
from omfisher.cli import main
from omfisher.config import (PRESETS, SWITCHES, RunConfig, SweepSpec, apply_preset,
                             load_config)
from omfisher.constants import TWO_PI
from omfisher.errors import ConfigError, OmfisherError
from omfisher.params import bistability_window, rossi_params, steady_state
from omfisher.pipeline import PipelineSettings
from omfisher.sweep import ROW_FIELDS, render_csv, run_sweep
from omfisher.validate import validate


CONFIG_TEXT = """
[system]
kappa_over_2pi_hz = 18.5e6
gamma_over_2pi_hz = 130
omega_m_over_2pi_hz = 1.14e6
mass_kg = 16e-12
temperature_k = 11
g_over_2pi_hz = 129
power_w = 1e-6
delta0_in_kappa = -2
cutoff_in_omega_m = 5
laser_wavelength_m = 1550e-9

[measurement]
omega_k_in_kappa = 0
eta = 1.0
theta = auto

[sweep]
variable = omega_k
scale = linear
start = -1e8
stop = 1e8
points = 5

[switches]
kappa_meas_mode = kappa_total

[output]
path = out.csv
format = csv
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


class TestConfig:
    def test_defaults_match_baseline(self):
        cfg = load_config(None)
        params, meas = cfg.materialize()
        assert params.kappa == pytest.approx(TWO_PI * 18.5e6, rel=1e-12)
        assert params.delta0 == pytest.approx(-2.0 * params.kappa, rel=1e-12)
        assert params.cutoff == pytest.approx(5.0 * params.omega_m, rel=1e-12)
        assert meas["window"] == pytest.approx(1.0 / params.kappa, rel=1e-12)

    def test_defaults_are_rossi_params(self):
        """The baseline is defined once: the defaults materialize to the
        baseline parameter set exactly."""
        assert RunConfig().materialize()[0] == rossi_params()

    def test_file_round_trip(self, config_file):
        cfg = load_config(config_file)
        params, meas = cfg.materialize()
        assert params.gamma == pytest.approx(TWO_PI * 130.0, rel=1e-12)
        assert cfg.sweep.points == 5
        assert cfg.out_path == "out.csv"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[system]\nnonsense = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_removed_tolerance_keys_rejected(self, tmp_path):
        """Keys of deleted knobs, and the deleted [tolerances] section, are
        rejected (exit 2), not silently ignored."""
        path = tmp_path / "old.cfg"
        for section, text, message in (
                ("tolerances", "diffusion_periods = 2000\ndiffusion_nodes = 10",
                 "unknown config section"),
                ("tolerances", "diffusion_tol = 1e-8", "unknown config section"),
                ("tolerances", "fd_step = 2.5", "unknown config section"),
                ("switches", "derivative_method = finite-difference",
                 "unknown \\[switches\\] keys"),
                ("switches", "cfi_convention = printed_ideal",
                 "unknown \\[switches\\] keys"),
                ("switches", "vacuum_mode = printed_sinc",
                 "unknown \\[switches\\] keys"),
                ("switches", "epsilon_uses_total_kappa = yes",
                 "unknown \\[switches\\] keys")):
            path.write_text(f"[{section}]\n{text}\n")
            with pytest.raises(ConfigError, match=message):
                load_config(str(path))
            assert main(["steady-state", "--config", str(path)]) == 2

    def test_materialize_wraps_domain_errors_only(self):
        from dataclasses import replace
        with pytest.raises(ConfigError):
            replace(RunConfig(), temperature=-1.0).materialize()
        with pytest.raises(TypeError):
            replace(RunConfig(), temperature="11").materialize()

    def test_pipeline_settings_default_to_run_config(self):
        assert asdict(PipelineSettings()) == asdict(RunConfig().settings())

    def test_switches_fill_settings(self, tmp_path):
        path = tmp_path / "switches.cfg"
        path.write_text("[switches]\nkappa_meas_mode = kappa_in\nbranch = upper\n")
        cfg = load_config(str(path))
        assert cfg.settings() == PipelineSettings(kappa_meas_mode="kappa_in",
                                                  branch="upper")
        # the vacuum term is a constant, not a setting
        assert "vacuum_mode" not in {f.name for f in fields(PipelineSettings)}

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[plotting]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_sweep_variable(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sweep]\nvariable = phase_of_moon\nstart = 0\nstop = 1\npoints = 3\n")
        with pytest.raises(ConfigError, match=r"must be one of \('omega_k', 'theta', "):
            load_config(str(path))
        with pytest.raises(ConfigError, match="unknown sweep variable 'phase_of_moon'"):
            RunConfig().materialize("phase_of_moon", 1.0)

    def test_presets_fill_sweep(self):
        cfg = load_config(None)
        for name in PRESETS:
            pc = apply_preset(cfg, name)
            assert pc.sweep is not None
            assert pc.preset == name
            assert len(pc.sweep.grid()) == pc.sweep.points

    def test_preset_specs(self):
        """Each preset's grid, written out: kappa-relative ends for omega_k,
        delta0 and kappa, gamma- and g-relative ends for gamma and g."""
        cfg = load_config(None)
        k, gamma, g = cfg.base_kappa(), cfg.gamma, cfg.g_freq
        expected = {
            "fig1": SweepSpec("omega_k", "linear", -3.0 * k, 3.0 * k, 121),
            "fig2": SweepSpec("eta", "linear", 0.05, 1.0, 96),
            "fig3a": SweepSpec("omega_k", "linear", -3.0 * k, 3.0 * k, 121),
            "fig3b": SweepSpec("delta0", "linear", -20.0 * k, -0.5 * k, 40),
            "fig4a": SweepSpec("kappa", "log", 0.5 * k, 4.0 * k, 25),
            "fig4b": SweepSpec("gamma", "log", 0.5 * gamma, 10.0 * gamma, 25),
            "fig4c": SweepSpec("power", "log", 0.1e-6, 10e-6, 25),
            "fig4d": SweepSpec("g", "linear", 0.0, 2.0 * g, 21),
            "fig5": SweepSpec("temperature", "log", 0.01, 100.0, 41),
        }
        assert set(PRESETS) == set(expected)
        for name, spec in expected.items():
            assert apply_preset(cfg, name).sweep == spec, name

    def test_fig3b_measures_at_cavity_frequency(self, tmp_path):
        """fig3b overrides a configured filter frequency with Omega_k = 0;
        the other presets keep it."""
        path = tmp_path / "omega_k.cfg"
        path.write_text("[measurement]\nomega_k_in_kappa = 1\n")
        cfg = load_config(str(path))
        assert cfg.omega_k == cfg.base_kappa()
        fig3b = apply_preset(cfg, "fig3b")
        assert fig3b.materialize("delta0", fig3b.sweep.start)[1]["omega_k"] == 0.0
        assert apply_preset(cfg, "fig4a").omega_k == cfg.base_kappa()

    def test_kappa_sweep_tracks_relational_defaults(self):
        cfg = load_config(None)
        params, meas = cfg.materialize("kappa", 2.0 * cfg.base_kappa())
        assert params.kappa == pytest.approx(2.0 * cfg.base_kappa(), rel=1e-12)
        assert params.delta0 == pytest.approx(-2.0 * params.kappa, rel=1e-12)
        assert meas["window"] == pytest.approx(1.0 / params.kappa, rel=1e-12)

    @pytest.mark.parametrize("name", ["eta 0.08..1.0"] + sorted(PRESETS))
    def test_grid_ends_exactly_at_start_and_stop(self, name):
        """The ends are start and stop themselves, so a grid that ends on a
        domain edge (eta = 1) stays inside it; the interior points are the
        evenly spaced values (in the logarithm for log grids)."""
        spec = SweepSpec("eta", "linear", 0.08, 1.0, 4) if name not in PRESETS \
            else apply_preset(load_config(None), name).sweep
        grid = spec.grid()
        assert len(grid) == spec.points
        assert grid[0] == spec.start and grid[-1] == spec.stop
        n = spec.points - 1
        if spec.scale == "linear":
            step = (spec.stop - spec.start) / n
            inner = [spec.start + i * step for i in range(1, n)]
        else:
            la, lb = math.log(spec.start), math.log(spec.stop)
            inner = [math.exp(la + i * (lb - la) / n) for i in range(1, n)]
        assert grid[1:-1] == inner

    def test_sections_parse_in_a_fixed_order(self, tmp_path):
        """omega_k_in_kappa reads the [system] kappa wherever [system]
        stands in the file."""
        system = "[system]\nkappa_over_2pi_hz = 37e6\n"
        measurement = "[measurement]\nomega_k_in_kappa = 1\n"
        for i, text in enumerate((system + measurement, measurement + system)):
            path = tmp_path / f"order{i}.cfg"
            path.write_text(text)
            _, meas = load_config(str(path)).materialize()
            assert meas["omega_k"] == TWO_PI * 37e6

    def test_log_grid_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec("power", "log", -1.0, 1.0, 5).grid()
        with pytest.raises(ConfigError):
            SweepSpec("power", "linear", 0.0, 1.0, 1).grid()


class TestSweep:
    def test_rows_and_schema(self):
        cfg = apply_preset(load_config(None), "fig1")
        cfg = RunConfig(**{**cfg.__dict__, "sweep": SweepSpec("omega_k", "linear",
                                                              -1e8, 1e8, 5)})
        metadata, rows = run_sweep(cfg)
        assert len(rows) == 5
        assert all(r.stable for r in rows)
        text = render_csv(metadata, rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1] == ",".join(ROW_FIELDS)
        # 17 significant digits: every float round-trips exactly
        for line, row in zip(lines[2:], rows):
            fields = line.split(",")
            assert float(fields[0]) == row.value
            assert float(fields[1]) == row.qfi
            assert float(fields[6]) == row.lyapunov_residual

    def test_deterministic_rows_for_identical_points(self):
        cfg = load_config(None)
        cfg = RunConfig(**{**cfg.__dict__,
                           "sweep": SweepSpec("eta", "linear", 0.8, 0.8, 2)})
        _, rows = run_sweep(cfg)
        assert rows[0] == rows[1].__class__(**{**rows[1].__dict__, "value": rows[0].value})

    def test_unstable_points_emitted_empty(self):
        # drive far past the instability threshold in g
        cfg = load_config(None)
        g0 = cfg.g_freq
        cfg = RunConfig(**{**cfg.__dict__,
                           "sweep": SweepSpec("g", "linear", g0, 40.0 * g0, 4)})
        metadata, rows = run_sweep(cfg)
        assert len(rows) == 4
        assert rows[0].stable and rows[0].qfi is not None
        assert not rows[-1].stable
        assert rows[-1].qfi is None and rows[-1].cfi is None
        text = render_csv(metadata, rows)
        last = text.strip().split("\n")[-1]
        assert ",false," in last and last.endswith(",,")

    def test_metadata_records_every_switch(self, tmp_path):
        """The metadata carries every key the [switches] section accepts,
        branch included."""
        path = tmp_path / "branch.cfg"
        path.write_text("[switches]\nbranch = upper\n")
        cfg = apply_preset(load_config(str(path)), "fig4d")
        metadata, _ = run_sweep(cfg)
        assert set(metadata["switches"]) == set(SWITCHES)
        assert metadata["switches"]["branch"] == "upper"
        assert run_sweep(apply_preset(load_config(None), "fig4d"))[0][
            "switches"]["branch"] is None

    def test_missing_sweep_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(load_config(None))

    def test_bistable_baseline_rejected(self):
        cfg = load_config(None)
        k = cfg.base_kappa()
        cfg = RunConfig(**{**cfg.__dict__, "delta0_in_kappa": 2.0,
                           "power": 3.5e-9,
                           "sweep": SweepSpec("eta", "linear", 0.5, 1.0, 3)})
        from omfisher.params import bistability_window
        params, _ = cfg.materialize()
        win = bistability_window(params)
        assert not win.monostable_for_all_power
        # pick a power inside the window, then expect the config gate to trip
        cfg = RunConfig(**{**cfg.__dict__,
                           "power": math.sqrt(win.p_minus * win.p_plus)})
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    @staticmethod
    def _bistable_baseline(branch):
        """An eta sweep at delta0 = 2 kappa and P = sqrt(p- p+), inside the
        bistable window, with ``[switches] branch`` set to ``branch``."""
        cfg = load_config(None)
        cfg = RunConfig(**{**cfg.__dict__, "delta0_in_kappa": 2.0,
                           "sweep": SweepSpec("eta", "linear", 0.5, 1.0, 3)})
        win = bistability_window(cfg.materialize()[0])
        return replace(cfg, power=math.sqrt(win.p_minus * win.p_plus),
                       pipeline=PipelineSettings(branch=branch))

    def test_bistable_baseline_on_the_lower_branch(self):
        """The branch switch works at a sweep baseline inside the window."""
        cfg = self._bistable_baseline("lower")
        assert steady_state(cfg.materialize()[0], branch="lower").branch_count == 3
        metadata, rows = run_sweep(cfg)
        assert metadata["switches"]["branch"] == "lower"
        assert len(rows) == 3 and all(row.stable and row.qfi > 0.0 for row in rows)

    def test_bistable_baseline_on_the_upper_branch_is_unstable(self):
        with pytest.raises(ConfigError, match="dynamically unstable"):
            run_sweep(self._bistable_baseline("upper"))

    def test_bistable_baseline_without_branch_names_the_switch(self):
        with pytest.raises(ConfigError, match=r"\[switches\] branch"):
            run_sweep(self._bistable_baseline(None))

    def test_double_root_baseline_needs_a_branch(self, monkeypatch):
        """A baseline on a window edge (a double root, branch_count 2), which
        steady_state puts on the lower branch, runs only with a branch set."""
        import omfisher.sweep as sweep_module
        real = sweep_module.steady_state
        monkeypatch.setattr(sweep_module, "steady_state",
                            lambda *a, **kw: replace(real(*a, **kw), branch_count=2))
        cfg = RunConfig(**{**load_config(None).__dict__,
                           "sweep": SweepSpec("eta", "linear", 0.5, 1.0, 3)})
        with pytest.raises(ConfigError, match="double root"):
            run_sweep(cfg)
        assert len(run_sweep(replace(cfg, pipeline=PipelineSettings(branch="lower")))[1]) == 3


class TestCli:
    def test_sweep_byte_identical(self, config_file, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["sweep", "--config", config_file, "--out", out1]) == 0
        assert main(["sweep", "--config", config_file, "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_json_format(self, config_file, tmp_path):
        out = str(tmp_path / "rows.json")
        assert main(["sweep", "--config", config_file, "--out", out,
                     "--format", "json"]) == 0
        payload = json.loads(Path(out).read_text())
        assert set(payload) == {"metadata", "rows"}
        assert len(payload["rows"]) == 5
        assert set(payload["rows"][0]) == set(ROW_FIELDS)

    def test_json_is_strict_where_qfi_vanishes(self, tmp_path):
        """fig4d starts at g = 0, where the QFI is 0 and saturation_ratio is
        undefined: the JSON file writes null there and parses without the
        NaN/Infinity extension."""
        out = tmp_path / "fig4d.json"
        assert main(["sweep", "--preset", "fig4d", "--out", str(out),
                     "--format", "json"]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        first = payload["rows"][0]
        assert first["value"] == 0.0 and first["qfi"] == 0.0
        assert first["saturation_ratio"] is None
        assert all(r["saturation_ratio"] is not None for r in payload["rows"][1:])

    def test_eta_grid_ending_at_one_runs(self, tmp_path):
        """A linear eta grid that ends at 1.0 evaluates its last point at
        eta = 1 exactly, not just past the domain."""
        cfg = tmp_path / "eta.cfg"
        cfg.write_text("[sweep]\nvariable = eta\nstart = 0.08\nstop = 1.0\npoints = 4\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().strip().split("\n")[-1].startswith("1,")

    def test_unwritable_output_path_exit_code(self, tmp_path, capsys, monkeypatch):
        """An output path that cannot be written is a configuration error
        naming the path (exit 2), not a traceback, and is found before any
        point runs."""
        def no_sweep(cfg):
            pytest.fail("run_sweep called for an unwritable output path")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert main(["sweep", "--preset", "fig4d", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and out in err
        assert "No such file or directory" in err

    def test_directory_output_path_exit_code(self, tmp_path, capsys, monkeypatch):
        """An output path that is an existing directory is rejected before
        any point runs, with the reason write_rows would give."""
        def no_sweep(cfg):
            pytest.fail("run_sweep called for a directory output path")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert main(["sweep", "--preset", "fig4d", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write output file {tmp_path}: Is a directory" in err

    def test_failed_sweep_leaves_output_file(self, tmp_path, monkeypatch):
        """The output file is neither created nor truncated before the rows
        are written."""
        def failing_sweep(cfg):
            raise OmfisherError("point failed")

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("earlier rows\n")
        for out in (old, new):
            assert main(["sweep", "--preset", "fig4d", "--out", str(out)]) == 1
        assert old.read_text() == "earlier rows\n"
        assert not new.exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[system]\nmass_kg = -1\n")
        cfgf = str(bad)
        assert main(["sweep", "--config", cfgf, "--preset", "fig1"]) == 2

    @pytest.mark.parametrize("section, line, key", [
        pytest.param("switches", "derivative_method = spectral", "derivative_method",
                     id="derivative_method = spectral"),
        pytest.param("switches", "branch = sideways", "branch", id="branch = sideways"),
        pytest.param("system", "temperature_k = warm", "temperature_k",
                     id="temperature_k = warm"),
        pytest.param("measurement", "theta = diagonal", "theta", id="theta = diagonal"),
        pytest.param("measurement", "theta = inf", "theta", id="theta = inf"),
        pytest.param("measurement", "omega_k = nan", "omega_k", id="omega_k = nan"),
        pytest.param("measurement", "eta = 1.5", "eta", id="eta = 1.5"),
        pytest.param("measurement", "eta = 0", "eta", id="eta = 0"),
        pytest.param("measurement", "window_s = 0", "window_s", id="window_s = 0"),
        pytest.param("sweep", "variable = g\nstop = 1\npoints = 5", "start",
                     id="sweep without start"),
        pytest.param("sweep", "variable = g\nstart = 0\nstop = 1\npoints = many",
                     "points", id="points = many"),
        pytest.param("tolerances", "fd_step = small", "fd_step", id="fd_step = small"),
        pytest.param("system", "gamma = 816.8\ngamma_over_2pi_hz = 130",
                     "gamma and gamma_over_2pi_hz", id="gamma twice"),
        pytest.param("system", "kappa_over_2pi_hz = 20e6\nkappa_in_over_2pi_hz = 5e6",
                     "kappa_over_2pi_hz and kappa_in_over_2pi_hz",
                     id="kappa with kappa_in"),
        pytest.param("system", "kappa = 1.2e8\nkappa_loss_over_2pi_hz = 5e6",
                     "kappa and kappa_loss_over_2pi_hz", id="kappa with kappa_loss"),
        pytest.param("system", "omega_laser_over_2pi_hz = 1.9e14\n"
                     "laser_wavelength_m = 1550e-9",
                     "omega_laser_over_2pi_hz and laser_wavelength_m",
                     id="laser frequency twice"),
        pytest.param("measurement", "omega_k = 0\nomega_k_in_kappa = 1",
                     "omega_k and omega_k_in_kappa", id="omega_k twice"),
    ])
    def test_unknown_switch_value_exit_code(self, tmp_path, capsys, section, line, key):
        """A malformed or out-of-range value exits 2 at load time, before any
        sweep point runs, with a message naming its section and key."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{line}\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(bad), "--preset", "fig4d",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"[{section}]" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["variable = eta\nstart = 0\nstop = 1",
                                       "variable = kappa\nstart = -1\nstop = 1e8"],
                             ids=["eta from 0", "kappa from -1"])
    def test_sweep_grid_outside_domain_exit_code(self, tmp_path, capsys, sweep):
        """A grid end outside the swept variable's domain is a configuration
        error when the file is loaded (exit 2), not a failure at that point
        of the sweep (exit 1)."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[sweep]\n{sweep}\npoints = 5\n")
        with pytest.raises(ConfigError, match=r"^\[sweep\] (eta|kappa) = "):
            load_config(str(bad))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert "config error: [sweep]" in capsys.readouterr().err
        assert not out.exists()

    def test_steady_state_command(self, config_file, capsys):
        assert main(["steady-state", "--config", config_file]) == 0
        out = capsys.readouterr().out
        assert "photon number" in out
        assert "monostable" in out

    @pytest.mark.parametrize("g_hz, stable", [(129, True), (2580, False)])
    def test_steady_state_reports_drift_verdict(self, tmp_path, capsys, g_hz, stable):
        """The Hurwitz line comes from the drift spectrum; 20 g0 is past the
        instability threshold of the baseline point (about 18.5 g0)."""
        cfg = tmp_path / "g.cfg"
        cfg.write_text(f"[system]\ng_over_2pi_hz = {g_hz}\n")
        assert main(["steady-state", "--config", str(cfg)]) == 0
        assert f"stable (Hurwitz)          = {stable}" in capsys.readouterr().out

    def test_validate_only_filters(self, capsys):
        assert main(["validate", "--only", "kernels"]) == 0
        out = capsys.readouterr().out
        assert "kernels" in out
        assert "lyapunov" not in out

    def test_validate_corrupted_tolerance_fails(self, monkeypatch):
        monkeypatch.setitem(validate_module._RUNNERS, "kernels",
                            (validate_module._suite_kernels, 0.0))
        results = validate(only=["kernels"])
        assert any(not r.passed for r in results)

    def test_validate_unknown_suite(self, capsys):
        assert main(["validate", "--only", "nonsense"]) == 1


def test_production_path_does_not_import_scipy_integrate(tmp_path):
    """scipy serves only validate's oracles (the kernel and frequency-domain
    quadratures, the transient oracle's expm and the Fock oracle), so no
    scipy module is loaded by importing the package, the CLI and validate,
    nor by running one report, an omega_k sweep at eta = 1, an eta sweep
    below 1 or ``omfisher sweep``, each in a fresh process.  The oracles
    themselves (omfisher.oracle, omfisher.kernels, and omfisher.validate,
    which runs them) are not loaded by the package, a report, a sweep or
    the CLI's sweep command either."""
    head = ("import json, sys, omfisher\n"
            "from omfisher.config import apply_preset, load_config\n"
            "from omfisher.params import rossi_params\n"
            "from omfisher.pipeline import build_measurement, fisher_report\n"
            "from omfisher.sweep import run_sweep\n")
    cases = {
        "package": "",
        "imports": "import omfisher.cli, omfisher.validate\n",
        "fisher_report": "p = rossi_params()\n"
                         "fisher_report(p, build_measurement(p), auto_theta=True)\n",
        "omega_k sweep": "run_sweep(apply_preset(load_config(None), 'fig1'))\n",
        "eta sweep": "cfg = apply_preset(load_config(None), 'fig2')\n"
                     "assert cfg.sweep.variable == 'eta' and min(cfg.sweep.grid()) < 1\n"
                     "run_sweep(cfg)\n",
        "omfisher sweep": "import omfisher.cli\n"
                          "assert omfisher.cli.main(['sweep', '--preset', 'fig4a', "
                          f"'--out', {str(tmp_path / 'fig4a.csv')!r}]) == 0\n",
    }
    tail = ("print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
            "                  [m for m in ('omfisher.oracle', 'omfisher.kernels',\n"
            "                               'omfisher.validate')\n"
            "                   if m in sys.modules]]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    procs = {name: subprocess.Popen([sys.executable, "-c", head + body + tail],
                                    stdout=subprocess.PIPE, text=True,
                                    env={**os.environ, "PYTHONPATH": src})
             for name, body in cases.items()}
    for name, proc in procs.items():
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, name
        scipy_modules, oracles = json.loads(out.strip().splitlines()[-1])
        assert scipy_modules == [], (name, out)
        if name != "imports":  # it imports validate itself
            assert oracles == [], (name, out)


def test_only_the_validate_command_imports_the_oracles():
    """No library module other than the oracles themselves imports
    omfisher.oracle, omfisher.kernels or omfisher.validate, relatively or
    absolutely, at module level or inside a function; the one allowed site
    is the CLI's validate command.  Unlike the fresh-process test above,
    this sees the imports of functions that no production path runs."""
    oracles = {"omfisher.oracle", "omfisher.kernels", "omfisher.validate"}
    sites = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "omfisher")
                       .glob("*.py")):
        if path.stem in ("oracle", "kernels", "validate"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative to the omfisher package
                    base = "omfisher" + ("." + base if base else "")
                targets = {base} | {f"{base}.{alias.name}" for alias in node.names}
            else:
                continue
            if not any(t == m or t.startswith(m + ".") for t in targets for m in oracles):
                continue
            scope = node
            while scope in parents and not isinstance(
                    scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents[scope]
            sites.append((path.stem, getattr(scope, "name", None)))
    assert sites == [("cli", "_cmd_validate")]
