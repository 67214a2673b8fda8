"""Schema of the BENCH_<tag>.json files written by scripts/bench.py (not
the times themselves, which depend on the host), and the library names the
perfbench/ harness reads."""

import importlib
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "scripts" / "bench.py"


@pytest.fixture()
def bench(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "END_TO_END", ("fig4a",))  # keep the test short
    monkeypatch.chdir(tmp_path)
    return module


def _check_timing(entry, n):
    assert set(entry) == {"median", "q1", "q3", "n"}
    assert entry["n"] == n
    assert 0.0 < entry["q1"] <= entry["median"] <= entry["q3"]


def test_runs_merge_into_one_file(bench, tmp_path):
    assert bench.main(["--tag", "t", "--label", "parent", "--repeat", "3"]) == 0
    assert bench.main(["--tag", "t", "--label", "change", "--repeat", "2"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["tag"] == "t"
    assert set(record["runs"]) == {"parent", "change"}
    for label, n in (("parent", 3), ("change", 2)):
        run = record["runs"][label]
        assert set(run) == {"omfisher", "environment", "stages_ms", "end_to_end_s",
                            "import"}
        env = run["environment"]
        for key in ("python", "numpy", "scipy", "blas", "cpu_count",
                    "openblas_num_threads", "machine", "processor"):
            assert key in env
        assert env["cpu_count"] >= 1
        for stage in ("steady_state", "diffusion_matrix",
                      "stationary_covariance (Lyapunov solve)",
                      "coupling derivative, implicit Lyapunov",
                      "coupling derivative, Richardson FD",
                      "fisher_report (auto theta, default settings)",
                      "fisher_report at T = 1e-5 K",
                      "fisher_report at T = 2.5e-4 K"):
            _check_timing(run["stages_ms"][stage], n)
        for stage in ("qfi_fock_converged, thermal family, nu = 25",
                      "qfi_fock_converged, squeezed-thermal family, nu = 25",
                      "brownian_diffusion_freq", "transient_covariance"):
            _check_timing(run["stages_ms"][stage], 1)
        assert set(run["end_to_end_s"]) == {"fig4a"}
        _check_timing(run["end_to_end_s"]["fig4a"], 1)
        assert set(run["import"]) == {"cpu_s", "peak_rss_mb"}
        for entry in run["import"].values():
            _check_timing(entry, 1)


def test_repeat_must_be_positive(bench):
    with pytest.raises(SystemExit):
        bench.main(["--tag", "t", "--label", "x", "--repeat", "0"])


def test_perfbench_grades_a_point(monkeypatch):
    """One graded single_point operation, through the same library names
    perfbench/checks.py imports (``pipeline.output_state``,
    ``PipelineSettings.vacuum_mode`` and the rest), is correct with no
    failed point."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    op = workloads.PointOp(workloads.BASE, "temperature", workloads.BASE.temperature)
    grade = checks.grade_points(checks.points_of(op, op.run()),
                                np.random.default_rng(1), 1)
    assert grade.oracle_checked == 1
    assert grade.correct and grade.failed == 0, grade.failures


@pytest.mark.parametrize("sweep", [("eta", 0.5, 1.0), ("temperature", 1.0, 20.0)],
                         ids=["eta", "temperature"])
def test_perfbench_grades_a_sweep(monkeypatch, sweep):
    """A 3-point run_sweep operation, a measurement-only and a state sweep,
    passes perfbench's row and CSV line counts and its oracle checks."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    from omfisher.config import SweepSpec
    variable, start, stop = sweep
    op = workloads.SweepOp(replace(workloads.BASE,
                                   sweep=SweepSpec(variable, "linear", start, stop, 3)))
    grade = checks.grade_points(checks.points_of(op, op.run()),
                                np.random.default_rng(1), 1)
    assert grade.attempted == 3 and grade.oracle_checked == 1
    assert grade.correct and grade.failed == 0, grade.failures


def test_perfbench_grades_validate(monkeypatch):
    """validate() lines graded the way perfbench grades its oracle_validate
    workload are correct with no failed check, and every measured value is
    a Python float."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks = importlib.import_module("checks")
    from omfisher.validate import validate
    results = validate(only=["kernels", "output", "cfi"])
    assert all(type(r.measured) is float for r in results)
    grade = checks.grade_validate(results)
    assert grade.attempted == len(results) == 5
    assert grade.correct and grade.failed == 0, grade.failures
