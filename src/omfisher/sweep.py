"""Parameter sweeps: pipeline calls over the grid in order on the calling
thread, deterministic tabular output (17-significant-digit CSV or JSON).

Unstable or branch-ambiguous points are emitted with stable=false and empty
Fisher fields; nothing is silently dropped.  Rows appear in grid order, so
repeated runs of one config are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass

from . import __version__ as _version
from .config import MEASUREMENT_VARIABLES, SWITCHES, RunConfig
from .dynamics import drift_matrix
from .errors import (AmbiguousBranchError, ConfigError, OmfisherError,
                     UnstableDriftError)
from .fisher import FisherReport
from .params import steady_state
from .pipeline import (build_measurement, cavity_covariance, cavity_dsigma_opt,
                       fisher_report)

__all__ = ["SweepRow", "SweepPointError", "run_sweep", "write_rows",
           "render_csv", "render_json"]

ROW_FIELDS = ("value", "qfi", "cfi", "theta_max", "saturation_ratio",
              "stable", "lyapunov_residual", "diffusion_error")


@dataclass(frozen=True)
class SweepRow:
    value: float
    qfi: float | None
    cfi: float | None
    theta_max: float | None
    saturation_ratio: float | None
    stable: bool
    lyapunov_residual: float | None
    diffusion_error: float | None


class SweepPointError(OmfisherError, RuntimeError):
    def __init__(self, variable, value, cause):
        super().__init__(f"sweep failed at {variable} = {value!r}: {cause}")
        self.variable = variable
        self.value = value
        self.cause = cause


def _row_from_report(value: float, rep: FisherReport) -> SweepRow:
    return SweepRow(value=value, qfi=rep.qfi, cfi=rep.cfi, theta_max=rep.theta_max,
                    saturation_ratio=rep.saturation_ratio, stable=True,
                    lyapunov_residual=rep.diagnostics["lyapunov_residual"],
                    diffusion_error=rep.diagnostics["diffusion_error"])


def run_sweep(cfg: RunConfig):
    """Evaluate the configured sweep; returns (metadata, rows)."""
    if cfg.sweep is None:
        raise ConfigError("no sweep configured; set [sweep] or use a preset")
    settings = cfg.settings()

    base_params, base_meas = cfg.materialize()
    try:
        base_ss = steady_state(base_params, branch=settings.branch)
    except AmbiguousBranchError as exc:
        raise ConfigError(
            f"baseline power {base_params.power:.6e} W lies in the bistable window "
            f"(stable branches |alpha|^2 = {exc.lower_branch:.6e} and "
            f"{exc.upper_branch:.6e}); set [switches] branch = lower or upper") from exc
    if base_ss.branch_count == 2 and settings.branch is None:
        raise ConfigError("baseline power sits on a boundary of the bistable window "
                          "(double root); set [switches] branch = lower or upper, "
                          "or move the operating point")
    if not drift_matrix(base_params, base_ss).stable:
        raise ConfigError("baseline parameter point is dynamically unstable")

    variable = cfg.sweep.variable
    grid = cfg.sweep.grid()

    shared = {}
    if variable in MEASUREMENT_VARIABLES:
        # state pipeline is identical across the grid; compute once
        shared["cavity"] = cavity_covariance(base_params, settings)
        shared["dsigma_opt"] = cavity_dsigma_opt(base_params, settings, shared["cavity"])

    def evaluate(value: float) -> SweepRow:
        try:
            params, meas = cfg.materialize(variable, value)
            theta = meas["theta"]
            auto = theta == "auto"
            spec = build_measurement(params, omega_k=meas["omega_k"],
                                     window=meas["window"], eta=meas["eta"],
                                     theta=0.0 if auto else float(theta),
                                     settings=settings)
            rep = fisher_report(params, spec, settings, auto_theta=auto,
                                cavity=shared.get("cavity"),
                                dsigma_opt=shared.get("dsigma_opt"))
            return _row_from_report(value, rep)
        except (UnstableDriftError, AmbiguousBranchError):
            return SweepRow(value=value, qfi=None, cfi=None, theta_max=None,
                            saturation_ratio=None, stable=False,
                            lyapunov_residual=None, diffusion_error=None)
        except OmfisherError as exc:
            raise SweepPointError(variable, value, exc) from exc

    rows = [evaluate(v) for v in grid]

    metadata = {
        "generator": f"omfisher {_version}",
        "preset": cfg.preset,
        "sweep": {"variable": variable, "scale": cfg.sweep.scale,
                  "start": cfg.sweep.start, "stop": cfg.sweep.stop,
                  "points": cfg.sweep.points},
        "baseline": {**asdict(base_params), **base_meas},
        "switches": {key: getattr(settings, key) for key in SWITCHES},
    }
    return metadata, rows


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return "%.17g" % x
    return str(x)


def render_csv(metadata: dict, rows: list[SweepRow]) -> str:
    lines = ["# " + json.dumps(metadata, sort_keys=True)]
    lines.append(",".join(ROW_FIELDS))
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, f)) for f in ROW_FIELDS))
    return "\n".join(lines) + "\n"


def _finite_or_null(x):
    """``x`` with every non-finite float, at any depth of dicts and lists,
    as None: JSON has no NaN or infinity."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite_or_null(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def render_json(metadata: dict, rows: list[SweepRow]) -> str:
    """Strict JSON: a non-finite float (saturation_ratio where the QFI is 0)
    is written as null."""
    payload = {
        "metadata": metadata,
        "rows": [{f: getattr(r, f) for f in ROW_FIELDS} for r in rows],
    }
    return json.dumps(_finite_or_null(payload), sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


def check_writable(path: str) -> None:
    """Raise ``write_rows``' error for ``path`` before a sweep runs if it
    is a directory or no file can be made in its directory; nothing is
    created at ``path``."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write output file {path}: Is a directory")
    try:
        with tempfile.TemporaryFile(dir=os.path.dirname(path) or "."):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from exc


def write_rows(path: str, metadata: dict, rows: list[SweepRow], fmt: str) -> None:
    text = render_csv(metadata, rows) if fmt == "csv" else render_json(metadata, rows)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from exc
