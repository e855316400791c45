"""Command-line front end: validate configs, dump channels, solve, run sweeps.

Exit codes: 0 success, 2 configuration problem, 3 infeasible demand,
4 solver failure.  Quantities on the command line accept unit suffixes
("4mW", "8.5 mA"); bare numbers are SI base units.
"""

import argparse
import json
import os
import sys

import numpy as np

# unused here, but bench/tracing.py binds these names on this module
from .beamforming import build_eh_targets, extract_beams, solve_aggregate_sdp  # noqa: F401
from .channels import build_vlc_matrix, sample_rf_channel
from .errors import (InfeasibleError, ScenarioError, SolverStallError,
                     TargetUnreachableError, UnservableDeviceError)
from .experiments import (ExperimentResult, exp_eh_allocation,
                          exp_feasibility_vs_theta, exp_illuminance,
                          exp_rf_power, exp_snr_eh_region, exp_subopt_gap,
                          gap_theta_grid)
from .lightwave import solve_op1
from .orchestrator import ap_solve, run_centralized, run_semi_decentralized
from .scenario import default_scenario, load_scenario, parse_quantity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _load(args):
    if args.config:
        return load_scenario(args.config, seed=args.seed)
    return default_scenario(seed=args.seed)


def _add_common(parser):
    parser.add_argument("--config", help="scenario YAML (default: bundled)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--out-dir", default=".", help="where to write outputs")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _write_result(result, args):
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{result.name}.{args.format}")
    if args.format == "csv":
        result.to_csv(path)
    else:
        result.to_json(path)
    return path


def _cmd_scenario_validate(args):
    sc = _load(args)
    build_vlc_matrix(sc.transmitters, sc.devices)
    print(f"scenario ok: hash {sc.hash}")
    print(f"  transmitters {len(sc.transmitters)}  "
          f"elements {len(sc.transmitters[0].elements)}  "
          f"devices {len(sc.devices)}  rf antennas {sc.rf_ap.antennas}")
    print(f"  room {sc.room_size[0]:g} x {sc.room_size[1]:g} x "
          f"{sc.room_size[2]:g} m  seed {sc.seed}")
    return EXIT_OK


def _cmd_channels_dump(args):
    sc = _load(args)
    gains = build_vlc_matrix(sc.transmitters, sc.devices).gains
    rf = sample_rf_channel(sc.rf_ap, sc.devices, sc.rician_factor_db,
                           sc.path_loss_exponent, sc.seed).vectors
    o, i, j = np.indices(gains.shape).reshape(3, -1).tolist()
    vcols = {"transmitter": o, "element": i, "device": j, "gain": gains.ravel().tolist()}
    dev, ant = np.indices(rf.shape).reshape(2, -1).tolist()
    rcols = {"device": dev, "antenna": ant, "re": rf.real.ravel().tolist(),
             "im": rf.imag.ravel().tolist()}
    for name, cols in (("vlc_channels", vcols), ("rf_channels", rcols)):
        n = len(cols["device"])
        cols.update(scenario_hash=[sc.hash] * n, seed=[sc.seed] * n)
        print(f"wrote {_write_result(ExperimentResult(name=name, columns=cols), args)}")
    return EXIT_OK


def _solution_dict(sol, beams=None):
    out = {
        "feasible": sol.feasible,
        "bias_a": sol.bias,
        "ac_swing_a": sol.ac_swing,
        "worst_user": sol.worst_user,
        "min_snr_db": sol.min_snr_db,
        "method": sol.method,
        "theta_w": sol.theta,
        "rf_cap_w": sol.rf_cap,
        "fallback_used": sol.fallback_used,
        "rf_targets_w": [float(v) for v in sol.rf_targets],
        "light_harvests_w": [float(v) for v in sol.light_harvests],
    }
    if beams is not None:
        out["rf_total_power_w"] = beams.total_power
        out["rf_beam_count"] = len(beams.beams)
        out["rf_rank_one_ratio"] = beams.rank_one_ratio
        out["rf_delivered_w"] = [float(v) for v in beams.delivered]
    return out


def _cmd_solve(args):
    sc = _load(args)
    theta = parse_quantity(args.theta)
    rf_cap = parse_quantity(args.theta_rf) if args.theta_rf else sc.rf_exposure_cap

    if args.mode == "direct":
        matrix = build_vlc_matrix(sc.transmitters, sc.devices)
        sol = solve_op1(matrix, sc.drive, sc.vlc_eh, sc.bias, sc.noise_power,
                        theta, rf_cap, method=args.method)
        beams, trace = ap_solve(sc, sol), None
    elif args.mode == "centralized":
        sol, beams, trace = run_centralized(sc, theta, rf_cap, args.method)
    else:
        sol, beams, trace = run_semi_decentralized(sc, theta, rf_cap)

    print(f"bias {sol.bias*1e3:.6f} mA  swing {sol.ac_swing*1e3:.6f} mA  "
          f"min SNR {sol.min_snr_db:.3f} dB  worst user {sol.worst_user}")
    print(f"rf targets mW: " +
          " ".join(f"{v*1e3:.4f}" for v in sol.rf_targets))
    print(f"rf transmit power {beams.total_power*1e3:.6f} mW  "
          f"beams {len(beams.beams)}")

    os.makedirs(args.out_dir, exist_ok=True)
    if trace is not None:
        trace_path = os.path.join(args.out_dir, f"trace_{args.mode}.jsonl")
        trace.to_jsonl(trace_path)
        print(f"wrote {trace_path} ({len(trace)} messages)")
    sol_path = os.path.join(args.out_dir, "solution.json")
    with open(sol_path, "w") as fh:
        json.dump(_solution_dict(sol, beams), fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {sol_path}")
    return EXIT_OK


# experiment -> (runner, {option: (runner keyword, option string -> argument)});
# an option not given is not passed, so the runner's default applies
_EXPERIMENTS = {
    "snr-eh-region": (exp_snr_eh_region, {"points": ("n_points", int)}),
    "feasibility": (exp_feasibility_vs_theta, {}),
    "eh-allocation": (exp_eh_allocation, {"theta": ("theta", parse_quantity),
                                          "theta_rf": ("rf_cap", parse_quantity)}),
    "rf-power": (exp_rf_power, {"theta": ("theta", parse_quantity),
                                "trials": ("trials", int)}),
    "subopt-gap": (exp_subopt_gap,
                   {"points": ("theta_grid", lambda s: gap_theta_grid(int(s)))}),
    "illuminance": (exp_illuminance, {"bias": ("bias", parse_quantity)}),
}
_EXP_OPTIONS = tuple(dict.fromkeys(key for _, opts in _EXPERIMENTS.values() for key in opts))


def _cmd_exp(args):
    runner, options = _EXPERIMENTS[args.experiment]
    given = {key: value for key, value in vars(args).items() if key in _EXP_OPTIONS}
    unread = sorted(given.keys() - options.keys())
    if unread:
        raise ValueError(f"exp {args.experiment} does not read " +
                         ", ".join("--" + key.replace("_", "-") for key in unread))
    result = runner(_load(args), **{options[key][0]: options[key][1](value)
                                    for key, value in given.items()})
    path = _write_result(result, args)
    summary = " ".join(f"{k}={v}" for k, v in sorted(result.meta.items())
                       if isinstance(v, (int, float, str)))
    print(f"wrote {path} ({result.n_rows} rows) {summary}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attocell",
        description="hybrid RF/lightwave cell simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sc = sub.add_parser("scenario", help="scenario file operations")
    sc_sub = p_sc.add_subparsers(dest="action", required=True)
    p_val = sc_sub.add_parser("validate", help="parse and validate a scenario")
    _add_common(p_val)
    p_val.set_defaults(func=_cmd_scenario_validate)

    p_ch = sub.add_parser("channels", help="channel matrix operations")
    ch_sub = p_ch.add_subparsers(dest="action", required=True)
    p_dump = ch_sub.add_parser("dump", help="write VLC and RF channel tables")
    _add_common(p_dump)
    p_dump.set_defaults(func=_cmd_channels_dump)

    p_solve = sub.add_parser("solve", help="solve one allocation instance")
    p_solve.add_argument("--theta", required=True,
                         help="per-device energy demand, e.g. 4mW")
    p_solve.add_argument("--theta-rf", default=None,
                         help="RF exposure cap (default: scenario value)")
    p_solve.add_argument("--method", choices=("bisection", "closed_form"),
                         default="bisection")
    p_solve.add_argument("--mode",
                         choices=("direct", "centralized", "semi"),
                         default="direct")
    _add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_exp = sub.add_parser("exp", help="run a sweep experiment")
    p_exp.add_argument("experiment", choices=tuple(_EXPERIMENTS))
    for key in _EXP_OPTIONS:
        readers = ", ".join(name for name, (_, opts) in _EXPERIMENTS.items() if key in opts)
        p_exp.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                           help=f"read by {readers} only; default: the experiment's own")
    _add_common(p_exp)
    p_exp.set_defaults(func=_cmd_exp)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, UnservableDeviceError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, TargetUnreachableError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverStallError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
