"""Seeded experiment runners emitting tidy tables for external plotting.

Each runner returns an ExperimentResult: named columns of equal length
plus provenance (scenario hash, seed, solver tag) repeated on every row
so a detached CSV still identifies its origin.  Formatting is fixed at
12 significant digits, so identical (config, seed) reruns produce
byte-identical files.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .beamforming import EhTargets, build_eh_targets, solve_aggregate_sdp_batch
# unused here, but bench/tracing.py binds both names on this module
from .beamforming import required_power_linear, solve_aggregate_sdp  # noqa: F401
from .channels import build_vlc_matrix, sample_rf_channel
from .energy import vlc_harvested_power, vlc_snr_db
from .errors import InfeasibleError, SolverStallError, TargetUnreachableError
from .illumination import illuminance_map
from .lightwave import solve_op1, solve_op1_grid
from .orchestrator import run_centralized, run_semi_decentralized

__all__ = [
    "ExperimentResult",
    "exp_snr_eh_region",
    "exp_feasibility_vs_theta",
    "exp_eh_allocation",
    "exp_rf_power",
    "exp_subopt_gap",
    "gap_theta_grid",
    "exp_illuminance",
]

DEFAULT_THETA_GRID = np.arange(0.0, 8.0 + 1e-12, 0.25) * 1e-3
DEFAULT_RF_LEVELS = np.array([0.0, 2.0, 4.0, 6.0]) * 1e-3


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


@dataclass(frozen=True)
class ExperimentResult:
    """Column-oriented result table with provenance metadata."""

    name: str
    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns in {self.name}: {lengths}")

    @property
    def n_rows(self):
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def to_csv(self, path):
        names = list(self.columns)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            for i in range(self.n_rows):
                writer.writerow([_fmt(self.columns[c][i]) for c in names])

    def to_json(self, path):
        payload = {
            "name": self.name,
            "meta": self.meta,
            "columns": {k: [None if (isinstance(v, float) and not np.isfinite(v))
                            else (float(v) if isinstance(v, (float, np.floating))
                                  else (int(v) if isinstance(v, (int, np.integer))
                                        and not isinstance(v, bool) else v))
                            for v in vals]
                        for k, vals in self.columns.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _require_count(name, value):
    """Refuse a point or trial count below 1: its table would be empty or all NaN."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _provenance(scenario, n_rows, solver):
    return {
        "scenario_hash": [scenario.hash] * n_rows,
        "seed": [scenario.seed] * n_rows,
        "solver": [solver] * n_rows,
    }


def exp_snr_eh_region(scenario, n_points=201):
    """Per-user tradeoff curve between detection SNR and light harvest.

    Sweeps the DC bias from the swing-maximizing midpoint up to the top
    of the range.  The swing at each bias is what is left to the signal,
    so the curve is the boundary of the per-user (SNR, harvest) region.
    Rows run user-major, each user over the whole bias sweep.
    """
    _require_count("n_points", n_points)
    matrix = build_vlc_matrix(scenario.transmitters, scenario.devices)
    serving = matrix.serving_gains()[:, None]
    sums = matrix.gain_sums()[:, None]
    biases = np.linspace(scenario.bias.midpoint, scenario.bias.high, n_points)
    swing = scenario.bias.high - biases  # BiasLimits.swing_at, inside its range
    # a built matrix's gains and these biases are nonnegative: the array
    # harvest needs no sign check
    snr_db = vlc_snr_db(scenario.drive, serving, swing, scenario.noise_power)
    light_eh = vlc_harvested_power(scenario.drive, scenario.vlc_eh, sums, biases)
    cols = {"user": np.repeat(np.arange(matrix.n_devices), n_points).tolist(),
            "bias_a": np.tile(biases, matrix.n_devices).tolist(),
            "snr_db": snr_db.ravel().tolist(),
            "light_eh_w": light_eh.ravel().tolist()}
    cols.update(_provenance(scenario, len(cols["user"]), "direct"))
    return ExperimentResult(name="snr_eh_region", columns=cols,
                            meta={"n_points": n_points})


def exp_feasibility_vs_theta(scenario, theta_grid=None, rf_levels=None):
    """Feasibility flag and achieved min SNR over a demand/cap grid.

    Rows run cap-major.  All (theta, cap) points are solved in one
    ``solve_op1_grid`` pass; each row equals its scalar bisection
    ``solve_op1`` call.
    """
    if theta_grid is None:
        theta_grid = DEFAULT_THETA_GRID
    if rf_levels is None:
        rf_levels = DEFAULT_RF_LEVELS
    matrix = build_vlc_matrix(scenario.transmitters, scenario.devices)
    caps, thetas = (a.ravel() for a in np.meshgrid(
        np.asarray(rf_levels, dtype=float), np.asarray(theta_grid, dtype=float),
        indexing="ij"))
    feasible, bias, min_snr_db = solve_op1_grid(
        matrix.serving_gains(), matrix.gain_sums(), scenario.drive, scenario.vlc_eh,
        scenario.bias, scenario.noise_power, thetas, caps)
    cols = {"theta_w": thetas.tolist(), "rf_cap_w": caps.tolist(),
            "feasible": feasible.tolist(), "min_snr_db": min_snr_db.tolist(),
            "bias_a": bias.tolist()}
    cols.update(_provenance(scenario, len(thetas), "bisection"))
    return ExperimentResult(name="feasibility_vs_theta", columns=cols,
                            meta={"n_theta": len(theta_grid),
                                  "n_levels": len(rf_levels)})


def exp_eh_allocation(scenario, theta=4e-3, rf_cap=5e-3):
    """Optimized per-user RF harvest targets against the uniform cap.

    The uniform reference hands every device the full cap; the solver
    assigns only the shortfall its light harvest leaves.  The summed
    difference is how much RF harvesting demand the optimization avoids.
    """
    matrix = build_vlc_matrix(scenario.transmitters, scenario.devices)
    sol = solve_op1(matrix, scenario.drive, scenario.vlc_eh, scenario.bias,
                    scenario.noise_power, theta, rf_cap)
    if not sol.feasible:
        raise InfeasibleError(
            f"demand {theta} W with cap {rf_cap} W has no feasible bias")
    n_dev = matrix.n_devices
    savings = float(np.sum(rf_cap - sol.rf_targets))
    cols = {
        "user": list(range(n_dev)),
        "rf_optimal_w": [float(v) for v in sol.rf_targets],
        "rf_uniform_w": [float(rf_cap)] * n_dev,
        "light_harvest_w": [float(v) for v in sol.light_harvests],
    }
    cols.update(_provenance(scenario, n_dev, "bisection"))
    return ExperimentResult(
        name="eh_allocation", columns=cols,
        meta={"theta_w": float(theta), "rf_cap_w": float(rf_cap),
              "bias_a": sol.bias, "savings_w": savings,
              "worst_user": sol.worst_user})


def exp_rf_power(scenario, rf_levels=None, trials=100, theta=4e-3):
    """Mean AP transmit power per harvest level, rectifier model, allocation.

    For every level the uniform allocation targets the level at each
    device; the optimized allocation takes the per-device split from the
    bias solver run with the level as the cap (flagged infeasible when
    the demand cannot be covered).  Rician draws are reseeded per trial
    from the scenario seed so the table is reproducible.  Each distinct
    normalised SDP target is solved once per draw and shared by every row
    whose targets it scales to; all (target, draw) instances go to one
    batched solve.
    """
    _require_count("trials", trials)
    if rf_levels is None:
        rf_levels = DEFAULT_RF_LEVELS
    matrix = build_vlc_matrix(scenario.transmitters, scenario.devices)
    n_dev = matrix.n_devices
    xi = scenario.rf_linear.efficiency

    plans = []  # (level, model, allocation, harvest targets or None)
    for level in np.asarray(rf_levels, dtype=float):
        uniform = np.full(n_dev, float(level))
        sol = solve_op1(matrix, scenario.drive, scenario.vlc_eh, scenario.bias,
                        scenario.noise_power, theta, float(level))
        optimal = sol.rf_targets if sol.feasible else None
        for model in ("nonlinear", "linear"):
            plans.append((float(level), model, "uniform", uniform))
            plans.append((float(level), model, "optimal", optimal))

    channels = [sample_rf_channel(scenario.rf_ap, scenario.devices,
                                  scenario.rician_factor_db,
                                  scenario.path_loss_exponent,
                                  scenario.seed ^ trial).outer_products()
                for trial in range(trials)]

    # Each row's SDP targets b, built once.  The problem is positively
    # homogeneous, so rows with equal b / max b share one solve per draw,
    # and a row's power is max b times its objective.
    targets = []
    problems = {}
    for level, model, allocation, harvest in plans:
        if harvest is None:
            targets.append(None)
            continue
        try:
            b = (build_eh_targets(harvest, scenario.rf_nonlinear) if model == "nonlinear"
                 else EhTargets(input_targets=harvest / xi)).input_targets
        except TargetUnreachableError:
            b = None  # the rectifier cannot deliver it in any draw
        targets.append(b)
        if b is not None and b.max() > 0.0:
            problems.setdefault((b / b.max()).tobytes(), b / b.max())
    unit = np.reshape(list(problems.values()), (len(problems), n_dev))
    flat = solve_aggregate_sdp_batch(channels * len(unit), np.repeat(unit, trials, axis=0))
    solved = {key: flat[k * trials:(k + 1) * trials] for k, key in enumerate(problems)}

    cols = {"rf_level_w": [], "model": [], "allocation": [], "feasible": [],
            "mean_power_w": [], "trials_ok": [], "solver_failures": []}
    for (level, model, allocation, harvest), b in zip(plans, targets):
        cols["rf_level_w"].append(level)
        cols["model"].append(model)
        cols["allocation"].append(allocation)
        cols["feasible"].append(harvest is not None)
        if b is None:
            powers = []
        elif b.max() > 0.0:
            powers = [b.max() * agg.objective
                      for agg in solved[(b / b.max()).tobytes()]
                      if not isinstance(agg, SolverStallError)]
        else:
            powers = [0.0] * trials
        failures = 0 if harvest is None else trials - len(powers)
        cols["mean_power_w"].append(float(np.mean(powers)) if powers else np.nan)
        cols["trials_ok"].append(len(powers))
        cols["solver_failures"].append(failures)

    n = len(cols["rf_level_w"])
    cols.update(_provenance(scenario, n, "primal_dual_sdp"))
    return ExperimentResult(
        name="rf_power", columns=cols,
        meta={"trials": trials, "theta_w": float(theta),
              "linear_efficiency": xi})


def gap_theta_grid(n_points=20):
    """The subopt-gap demand sweep: ``n_points`` demands evenly over 0-8 mW."""
    _require_count("n_points", n_points)
    return np.linspace(0.0, 8e-3, n_points)


def exp_subopt_gap(scenario, theta_grid=None):
    """Optimal-vs-closed-form min SNR and message counts across a demand sweep.

    The centralized run uses the bisection bias (the reference); the
    semi-decentralized run is the closed form.  An infeasible demand
    stays in the table as a flagged row instead of aborting the sweep.
    """
    if theta_grid is None:
        theta_grid = gap_theta_grid()
    cols = {"theta_w": [], "feasible": [], "min_snr_db_bisection": [],
            "min_snr_db_closed_form": [], "gap_db": [],
            "messages_centralized": [], "messages_semi": []}
    for theta in np.asarray(theta_grid, dtype=float):
        try:
            sol_c, _, trace_c = run_centralized(scenario, float(theta))
            sol_s, _, trace_s = run_semi_decentralized(scenario, float(theta))
            row = (True, sol_c.min_snr_db, sol_s.min_snr_db,
                   abs(sol_c.min_snr_db - sol_s.min_snr_db), len(trace_c), len(trace_s))
        except InfeasibleError as err:
            row = (False, -np.inf, -np.inf, np.nan, len(getattr(err, "trace", [])), 0)
        for name, value in zip(cols, (float(theta),) + row):
            cols[name].append(value)
    gaps = [gap for ok, gap in zip(cols["feasible"], cols["gap_db"]) if ok]
    n = len(cols["theta_w"])
    cols.update(_provenance(scenario, n, "bisection+closed_form"))
    return ExperimentResult(name="subopt_gap", columns=cols,
                            meta={"max_gap_db": max(gaps) if gaps else 0.0})


def exp_illuminance(scenario, bias=8.5e-3, grid_step=0.1):
    """Floor illuminance grid with the coverage summary used by the checks."""
    imap = illuminance_map(scenario.transmitters, scenario.drive, bias,
                           scenario.efficacy, scenario.room_size,
                           grid_step=grid_step)
    xs, ys = np.meshgrid(imap.xs, imap.ys, indexing="ij")
    cols = {
        "x_m": xs.ravel().tolist(),
        "y_m": ys.ravel().tolist(),
        "lux": imap.values.ravel().tolist(),
    }
    n = len(cols["x_m"])
    cols.update(_provenance(scenario, n, "direct"))
    cx, cy = scenario.room_size[0] / 2.0, scenario.room_size[1] / 2.0
    return ExperimentResult(
        name="illuminance", columns=cols,
        meta={"bias_a": float(bias), "center_lux": imap.at(cx, cy),
              "fraction_above_500": imap.fraction_above(500.0),
              "grid_step_m": grid_step})
