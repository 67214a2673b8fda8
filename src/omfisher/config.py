"""Run configuration: flat INI-style key=value files with section headers.

All quantities are SI; frequency-like entries accept the /2pi convenience
keys the experimental literature quotes (e.g. ``kappa_over_2pi_hz``), one
spelling per quantity.  Sections are parsed in a fixed order.
Relational defaults mirror the baseline study: delta0 = -2 kappa,
cutoff = 5 omega_m, detection window 1/kappa.  Figure presets fig1..fig5
fill the sweep block from one table; ranges the source figures leave
unstated are chosen so the claimed features (peak, monotone trends) fall
inside the grid, and are recorded in the emitted metadata.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .constants import C_LIGHT, TWO_PI
from .errors import ConfigError, DomainError
from .params import SystemParams, rossi_params
from .pipeline import PipelineSettings

__all__ = ["SweepSpec", "RunConfig", "load_config", "apply_preset", "PRESETS",
           "SWITCHES"]

_BASE = rossi_params()

# sweep variable -> (the RunConfig field it sets, the unit of its preset grid
# ends: the configured kappa, a RunConfig field, or None for absolute ends).
# kappa sets kappa_in and kappa_loss, keeping their split; delta0 drops
# delta0_in_kappa.
SWEEP_VARIABLES = {
    "omega_k": ("omega_k", "kappa"), "theta": ("theta", None), "eta": ("eta", None),
    "kappa": ("kappa_in", "kappa"), "gamma": ("gamma", "gamma"),
    "power": ("power", None), "g": ("g_freq", "g_freq"),
    "temperature": ("temperature", None), "delta0": ("delta0", "kappa"),
}
# the variables that leave the cavity state alone, so a sweep solves it once
MEASUREMENT_VARIABLES = ("omega_k", "theta", "eta")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    scale: str       # linear | log
    start: float
    stop: float
    points: int

    def grid(self) -> list[float]:
        """``points`` values from ``start`` to ``stop``, both exactly, evenly
        spaced in the value or (log) in its logarithm."""
        if self.points < 2:
            raise ConfigError("sweep grids need at least 2 points")
        n = self.points
        if self.scale == "linear":
            step = (self.stop - self.start) / (n - 1)
            inner = [self.start + i * step for i in range(1, n - 1)]
        elif self.scale == "log":
            if self.start <= 0 or self.stop <= 0:
                raise ConfigError("log grids need positive endpoints")
            la, lb = math.log(self.start), math.log(self.stop)
            inner = [math.exp(la + i * (lb - la) / (n - 1)) for i in range(1, n - 1)]
        else:
            raise ConfigError(f"unknown grid scale {self.scale!r}")
        return [self.start] + inner + [self.stop]


@dataclass(frozen=True)
class RunConfig:
    """Materializes (SystemParams, measurement, settings) per sweep point."""

    kappa_in: float = _BASE.kappa_in
    kappa_loss: float = _BASE.kappa_loss
    gamma: float = _BASE.gamma
    omega_m: float = _BASE.omega_m
    mass: float = _BASE.mass
    temperature: float = _BASE.temperature
    g_freq: float = _BASE.g_freq
    power: float = _BASE.power
    omega_laser: float = _BASE.omega_laser
    delta0_in_kappa: float | None = -2.0   # relational default
    delta0: float | None = None            # absolute override [rad/s]
    cutoff_in_omega_m: float | None = 5.0
    cutoff: float | None = None

    omega_k: float = 0.0
    window: float | None = None            # None -> 1/kappa
    eta: float = 1.0
    theta: float | str = "auto"

    sweep: SweepSpec | None = None
    preset: str | None = None

    pipeline: PipelineSettings = field(default_factory=PipelineSettings)

    out_path: str = "sweep.csv"
    out_format: str = "csv"

    def settings(self) -> PipelineSettings:
        return self.pipeline

    def base_kappa(self) -> float:
        return self.kappa_in + self.kappa_loss

    def materialize(self, variable: str | None = None, value: float | None = None):
        """(SystemParams, measurement dict) with one variable overridden.

        The override is applied before relational defaults are resolved, so
        e.g. a kappa sweep with delta0_in_kappa = -2 keeps delta0 tracking
        the swept kappa.
        """
        f = dict(vars(self))
        if variable is not None:
            if variable not in SWEEP_VARIABLES:
                raise ConfigError(f"unknown sweep variable {variable!r}")
            if variable == "kappa":
                ratio = f["kappa_in"] / (f["kappa_in"] + f["kappa_loss"])
                f["kappa_in"], f["kappa_loss"] = ratio * value, (1.0 - ratio) * value
            else:
                f[SWEEP_VARIABLES[variable][0]] = value
            if variable == "delta0":
                f["delta0_in_kappa"] = None

        kappa = f["kappa_in"] + f["kappa_loss"]
        d0 = f["delta0"]
        if d0 is None:
            d0 = (f["delta0_in_kappa"] or 0.0) * kappa
        cut = self.cutoff if self.cutoff is not None else \
            (self.cutoff_in_omega_m or 0.0) * self.omega_m
        try:
            params = SystemParams(
                kappa_in=f["kappa_in"], kappa_loss=f["kappa_loss"], gamma=f["gamma"],
                omega_m=self.omega_m, mass=self.mass, temperature=f["temperature"],
                g_freq=f["g_freq"], power=f["power"], delta0=d0,
                omega_laser=self.omega_laser, cutoff=cut)
        except DomainError as exc:
            raise ConfigError(f"invalid parameter set: {exc}") from exc
        meas = {
            "omega_k": f["omega_k"],
            "window": self.window if self.window is not None else 1.0 / kappa,
            "eta": f["eta"],
            "theta": f["theta"],
        }
        return params, meas


_FREQ_KEYS = {
    # config key -> RunConfig attribute  (accepts <key> in rad/s or
    # <key>_over_2pi_hz)
    "kappa_in": "kappa_in",
    "kappa_loss": "kappa_loss",
    "gamma": "gamma",
    "omega_m": "omega_m",
    "g": "g_freq",
    "delta0": "delta0",
    "cutoff": "cutoff",
    "omega_laser": "omega_laser",
}
_SCALAR_KEYS = {"mass_kg": "mass", "temperature_k": "temperature",
                "power_w": "power", "delta0_in_kappa": "delta0_in_kappa",
                "cutoff_in_omega_m": "cutoff_in_omega_m"}


def _read(section, key: str, get: str = "getfloat"):
    """``section.<get>(key)``; a missing key, a malformed value or a
    non-finite float is a ConfigError naming the section and the key."""
    if key not in section:
        raise ConfigError(f"[{section.name}] {key} is required")
    try:
        value = getattr(section, get)(key)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key} = {section[key]!r}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section.name}] {key} = {section[key]!r} must be finite")
    return value


def _one_spelling(section, *keys: str) -> None:
    """At most one of ``keys``, which all set one quantity, may be given."""
    given = [k for k in keys if k in section]
    if len(given) > 1:
        raise ConfigError(f"[{section.name}] {' and '.join(given)} set the same "
                          "quantity; give only one")


def _read_freq(section, key: str) -> float:
    """``key`` in rad/s, or ``key``_over_2pi_hz converted to rad/s."""
    if key in section:
        return _read(section, key)
    return TWO_PI * _read(section, key + "_over_2pi_hz")


def _parse_system(cfg: RunConfig, section) -> RunConfig:
    updates = {}
    for key, attr in _FREQ_KEYS.items():
        spellings = (key, key + "_over_2pi_hz")
        _one_spelling(section, *spellings)
        if key in ("kappa_in", "kappa_loss"):
            _one_spelling(section, "kappa", "kappa_over_2pi_hz", *spellings)
        if any(k in section for k in spellings):
            updates[attr] = _read_freq(section, key)
    _one_spelling(section, "omega_laser", "omega_laser_over_2pi_hz",
                  "laser_wavelength_m")
    if "kappa" in section or "kappa_over_2pi_hz" in section:
        total = _read_freq(section, "kappa")
        updates["kappa_in"] = updates["kappa_loss"] = total / 2.0
    for key, attr in _SCALAR_KEYS.items():
        if key in section:
            updates[attr] = _read(section, key)
    if "laser_wavelength_m" in section:
        updates["omega_laser"] = TWO_PI * C_LIGHT / _read(section, "laser_wavelength_m")
    if "delta0" in updates:
        updates["delta0_in_kappa"] = None
    if "cutoff" in updates:
        updates["cutoff_in_omega_m"] = None
    return replace(cfg, **updates)


def _parse_measurement(cfg: RunConfig, section) -> RunConfig:
    updates = {}
    _one_spelling(section, "omega_k", "omega_k_over_2pi_hz", "omega_k_in_kappa")
    if "omega_k" in section or "omega_k_over_2pi_hz" in section:
        updates["omega_k"] = _read_freq(section, "omega_k")
    if "omega_k_in_kappa" in section:
        updates["omega_k"] = _read(section, "omega_k_in_kappa") * cfg.base_kappa()
    if "window_s" in section:
        updates["window"] = _read(section, "window_s")
        if not updates["window"] > 0.0:
            raise ConfigError(f"[measurement] window_s = {updates['window']!r} must be > 0")
    if "eta" in section:
        updates["eta"] = _read(section, "eta")
        if not 0.0 < updates["eta"] <= 1.0:
            raise ConfigError(f"[measurement] eta = {updates['eta']!r} must lie in (0, 1]")
    if "theta" in section:
        auto = section.get("theta").strip() == "auto"
        updates["theta"] = "auto" if auto else _read(section, "theta")
    return replace(cfg, **updates)


def _parse_sweep(cfg: RunConfig, section) -> RunConfig:
    variable = section.get("variable")
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep variable must be one of {tuple(SWEEP_VARIABLES)}")
    spec = SweepSpec(variable=variable,
                     scale=section.get("scale", "linear"),
                     start=_read(section, "start"),
                     stop=_read(section, "stop"),
                     points=_read(section, "points", "getint"))
    spec.grid()  # validate now
    return replace(cfg, sweep=spec)


_SWITCH_CHOICES = {
    "kappa_meas_mode": ("kappa_in", "kappa_total"),
    "branch": ("lower", "upper", ""),  # empty: no branch policy
}
# the PipelineSettings fields a config sets; the sweep metadata records them
SWITCHES = tuple(_SWITCH_CHOICES)


def _parse_switches(cfg: RunConfig, section) -> RunConfig:
    updates = {}
    for key, choices in _SWITCH_CHOICES.items():
        if key in section:
            updates[key] = section.get(key).strip()
            if updates[key] not in choices:
                raise ConfigError(f"[switches] {key} = {updates[key]!r} must be one "
                                  f"of {choices}")
    if "branch" in updates:
        updates["branch"] = updates["branch"] or None
    return replace(cfg, pipeline=replace(cfg.pipeline, **updates))


def _parse_output(cfg: RunConfig, section) -> RunConfig:
    updates = {}
    if "path" in section:
        updates["out_path"] = section.get("path")
    if "format" in section:
        fmt = section.get("format").strip()
        if fmt not in ("csv", "json"):
            raise ConfigError("output format must be csv or json")
        updates["out_format"] = fmt
    return replace(cfg, **updates)


# section -> (accepted keys, parser), in the order the sections are parsed
_SECTIONS = {
    "system": ({"kappa", "kappa_over_2pi_hz", "laser_wavelength_m", *_SCALAR_KEYS,
                *_FREQ_KEYS, *(key + "_over_2pi_hz" for key in _FREQ_KEYS)},
               _parse_system),
    "measurement": ({"omega_k", "omega_k_over_2pi_hz", "omega_k_in_kappa",
                     "window_s", "eta", "theta"}, _parse_measurement),
    "sweep": ({"variable", "scale", "start", "stop", "points"}, _parse_sweep),
    "switches": (set(SWITCHES), _parse_switches),
    "output": ({"path", "format"}, _parse_output),
}


def load_config(path: str | None = None) -> RunConfig:
    """Parse a config file; with no path, return baseline defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown config section [{name}] with keys "
                              f"{sorted(parser[name])}")
    # a fixed order, so that relational keys such as omega_k_in_kappa read
    # the [system] values wherever that section stands in the file
    for name, (known, parse) in _SECTIONS.items():
        if parser.has_section(name):
            unknown = set(parser[name]) - known
            if unknown:
                raise ConfigError(f"unknown [{name}] keys: {sorted(unknown)}")
            cfg = parse(cfg, parser[name])
    if cfg.sweep is not None:
        _check_sweep_domain(cfg)
    return cfg


def _check_sweep_domain(cfg: RunConfig) -> None:
    """Both grid ends must lie in the swept variable's domain; every domain
    is an interval, so the grid between them does too."""
    variable = cfg.sweep.variable
    for end in (cfg.sweep.start, cfg.sweep.stop):
        try:
            _, meas = cfg.materialize(variable, end)
        except ConfigError as exc:
            raise ConfigError(f"[sweep] {variable} = {end!r}: {exc}") from None
        if not 0.0 < meas["eta"] <= 1.0:
            raise ConfigError(f"[sweep] eta = {end!r} must lie in (0, 1]")


# name -> (variable, scale, start, stop, points); the grid ends are in the
# units SWEEP_VARIABLES gives
PRESETS = {
    "fig1": ("omega_k", "linear", -3.0, 3.0, 121),
    "fig2": ("eta", "linear", 0.05, 1.0, 96),
    "fig3a": ("omega_k", "linear", -3.0, 3.0, 121),
    "fig3b": ("delta0", "linear", -20.0, -0.5, 40),
    "fig4a": ("kappa", "log", 0.5, 4.0, 25),
    "fig4b": ("gamma", "log", 0.5, 10.0, 25),
    "fig4c": ("power", "log", 0.1e-6, 10e-6, 25),
    "fig4d": ("g", "linear", 0.0, 2.0, 21),
    "fig5": ("temperature", "log", 0.01, 100.0, 41),
}


def apply_preset(cfg: RunConfig, name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    variable, scale, start, stop, points = PRESETS[name]
    unit = SWEEP_VARIABLES[variable][1]
    unit = cfg.base_kappa() if unit == "kappa" else getattr(cfg, unit) if unit else 1.0
    cfg = replace(cfg, preset=name,
                  sweep=SweepSpec(variable, scale, start * unit, stop * unit, points))
    # fig3b scans the detuning at the cavity frequency whatever the config sets
    return replace(cfg, omega_k=0.0) if name == "fig3b" else cfg
