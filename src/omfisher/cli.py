"""Command-line interface.

    omfisher sweep --config FILE [--preset fig1..fig5] [--out PATH] [--format csv|json]
    omfisher validate [--only SUITE[,SUITE...]]
    omfisher steady-state --config FILE

Exit codes: 0 success, 1 numerical/oracle failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import PRESETS, apply_preset, load_config
from .dynamics import drift_matrix
from .errors import ConfigError, OmfisherError
from .params import bistability_window, steady_state
from .sweep import check_writable, run_sweep, write_rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omfisher",
        description="Stationary Gaussian state of a driven optomechanical "
                    "cavity and the Fisher information of coupling estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter sweep")
    p_sweep.add_argument("--config", help="key=value config file")
    p_sweep.add_argument("--preset", choices=sorted(PRESETS),
                         help="figure preset filling the sweep block")
    p_sweep.add_argument("--out", help="output path (overrides config)")
    p_sweep.add_argument("--format", choices=("csv", "json"),
                         help="output format (overrides config)")

    p_val = sub.add_parser("validate", help="run the oracle validation suites")
    p_val.add_argument("--only", help="comma-separated subset of suites "
                       "(an unknown name lists them)")

    p_ss = sub.add_parser("steady-state",
                          help="print the driven-cavity steady state and "
                               "bistability window")
    p_ss.add_argument("--config", help="key=value config file")
    return parser


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    if args.out:
        cfg = replace(cfg, out_path=args.out)
    if args.format:
        cfg = replace(cfg, out_format=args.format)
    check_writable(cfg.out_path)
    metadata, rows = run_sweep(cfg)
    write_rows(cfg.out_path, metadata, rows, cfg.out_format)
    n_bad = sum(1 for r in rows if not r.stable)
    print(f"wrote {len(rows)} rows to {cfg.out_path}"
          + (f" ({n_bad} unstable points)" if n_bad else ""))
    return 0


def _cmd_validate(args) -> int:
    from .validate import validate  # the oracles load only for validate
    only = [s.strip() for s in args.only.split(",")] if args.only else None
    results = validate(only=only)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        line = f"[{status}] {r.suite + ': ' + r.name:<{width}}  " \
               f"measured={r.measured:.3e}  tol={r.tolerance:.3e}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_steady_state(args) -> int:
    cfg = load_config(args.config)
    params, meas = cfg.materialize()
    ss = steady_state(params, branch=cfg.settings().branch)
    win = bistability_window(params)
    print(f"photon number |alpha|^2   = {ss.alpha_abs2:.10e}")
    print(f"amplitude alpha           = {ss.alpha:.10e}")
    print(f"effective detuning [rad/s]= {ss.delta_eff:.10e}")
    print(f"mirror shift q0 [m]       = {ss.q0:.10e}")
    print(f"drive amplitude [rad/s]   = {ss.epsilon:.10e}")
    print(f"branch count              = {ss.branch_count}")
    print(f"stable (Hurwitz)          = {drift_matrix(params, ss).stable}")
    print(f"stationarity residual     = {ss.residual:.3e}")
    if win.monostable_for_all_power:
        print("bistability               = monostable for all powers")
    else:
        print(f"bistable power window [W] = ({win.p_minus:.6e}, {win.p_plus:.6e})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "steady-state":
            return _cmd_steady_state(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OmfisherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
