"""Joint bias and RF-harvest allocation for the lightwave cells.

Solves the max-min detection SNR problem: every device must end the
frame with ``theta`` joules-per-frame of harvested energy, collected
from the light it already receives plus an RF top-up bounded by an
exposure cap.  Raising the common DC bias feeds the harvesters but
shrinks the AC swing left for data, so the optimum runs the bias as low
as the worst-off device allows.  That device is the one with the
smallest gain sum: the harvest grows with the gain sum, so its curve
lies under every other device's at every bias.

Two routes to the bias are provided: the exact one, Newton's method on
the harvest curve, finished to the ulp (the method label ``bisection``
names it, as it always has), and the paper's suboptimal closed form
through the Lambert W function of the log-linearized curve.  They must
stay within a hair of each other; the test suite enforces that.
``solve_op1_grid`` runs the exact route over many (demand, cap) lanes at
once, each lane giving its scalar call's bits.
"""

from dataclasses import dataclass

import numpy as np

from .energy import vlc_harvested_power, vlc_snr_db
from .errors import SolverStallError, TargetUnreachableError
from .numerics import lambert_w0

__all__ = [
    "solve_subrf",
    "solve_bias_bisection",
    "solve_bias_closed_form",
    "LightwaveSolution",
    "solve_op1",
    "solve_op1_from_gains",
    "solve_op1_grid",
]


def solve_subrf(theta, max_light_eh, min_light_eh, rf_cap):
    """Split the worst user's demand between light and RF harvest.

    The light side can deliver at most ``max_light_eh`` (bias at the
    top of the range) and at least ``min_light_eh`` (bias at the
    midpoint, the swing-maximizing point).  RF makes up the difference
    but may not exceed ``rf_cap``.  The split that maximizes the swing
    uses as little bias as possible: the light target is min(theta,
    max(theta - rf_cap, min_light_eh)), formed directly, not as theta -
    rf, since theta - (theta - x) need not round back to x: when RF
    covers the whole deficit the light side gets exactly
    ``min_light_eh``, which the midpoint bias meets.  Where theta -
    (theta - rf_cap) rounds above the cap, the target moves one float
    up, so a feasible split passes theta - light <= rf_cap in floating
    point.  Broadcasts over arrays, each element as its scalar call.

    Returns:
        (feasible, light_target): a bool and a float for scalar inputs,
        arrays otherwise.  The light target means nothing where the
        split is infeasible.
    """
    floor = theta - rf_cap
    floor = np.nextafter(floor, floor + (theta - floor > rf_cap))  # up one float, or stay
    floor = np.where(min_light_eh > floor, min_light_eh, floor)
    light = np.where(floor < theta, floor, theta)
    feasible = light <= max_light_eh
    if light.ndim:
        return feasible, light
    return bool(feasible), float(light)


def solve_bias_bisection(drive, eh_params, gain_sum, target, bias_limits):
    """Smallest DC bias, to a few ulps, whose light harvest meets ``target``.

    The exact route, labelled ``bisection``.  The harvest is convex and
    increasing in the bias, so Newton's method from the top of the range
    falls monotonically onto the root; a lane stops once a step no
    longer lowers its bias.  The bias then climbs by ulps until the
    harvest, computed as ``vlc_harvested_power`` computes it, meets the
    target.  A target the midpoint meets returns the midpoint; the top,
    which leaves no swing, only a target equal to the harvest there to
    rounding.  ``target`` may be an array: each lane takes its scalar
    call's elementwise steps and bits.  A scalar target returns a float.
    """
    mid, top = bias_limits.midpoint, bias_limits.high
    goal = np.asarray(target, dtype=float)[()]  # a scalar stays a cheap numpy scalar
    floor = vlc_harvested_power(drive, eh_params, gain_sum, mid)
    if not goal.ndim and goal <= floor:
        return mid
    if np.count_nonzero(goal > vlc_harvested_power(drive, eh_params, gain_sum, top)):
        raise TargetUnreachableError(
            f"light harvest target {goal.max()} W above reach {top} A bias")
    bias = np.where(goal <= floor, mid, top)[()]
    aim = np.maximum(goal, floor)  # a lane at the midpoint takes no step
    f, v_t, i_d = eh_params.fill_factor, eh_params.thermal_voltage, eh_params.dark_current
    c = 3.0 * drive.conversion  # generated_current's factor
    k = f * v_t * c * gain_sum  # the harvest's slope is k * (log1p(x) + x / (1 + x))
    while True:
        i_g = c * bias * gain_sum
        log = np.log1p(i_g / i_d)
        newton = bias - (f * i_g * (v_t * log) - aim) / (k * (log + i_g / (i_d + i_g)))
        if not np.count_nonzero(newton < bias):
            break
        bias = np.fmin(newton, bias)  # a lane that would not go lower stays
    # rounding may leave a lane an ulp under its root, or under the midpoint
    bias = np.maximum(bias, mid)
    short = vlc_harvested_power(drive, eh_params, gain_sum, bias) < goal
    while np.count_nonzero(short):
        bias = np.where(short, np.nextafter(bias, top), bias)
        short = vlc_harvested_power(drive, eh_params, gain_sum, bias) < goal
    return bias if goal.ndim else float(bias)


def solve_bias_closed_form(drive, eh_params, gain_sum, target, bias_limits):
    """Bias meeting ``target`` via the Lambert W of the log-linearized harvest.

    Dropping the +1 inside the logarithm makes f I_G V_t ln(I_G/I_d) =
    target solvable: I_G = target / (f V_t W(target / (f V_t I_d))).
    The dropped term only under-counts the harvest, so the returned
    bias always meets the exact target with a sliver to spare.
    """
    if target > vlc_harvested_power(drive, eh_params, gain_sum, bias_limits.high):
        raise TargetUnreachableError(
            f"light harvest target {target} W above reach {bias_limits.high} A bias")
    if target <= 0.0:
        return bias_limits.midpoint
    fv = eh_params.fill_factor * eh_params.thermal_voltage
    w = lambert_w0(target / (fv * eh_params.dark_current))
    i_g = target / (fv * w)
    bias = i_g / (3.0 * drive.conversion * gain_sum)
    return float(np.clip(bias, bias_limits.midpoint, bias_limits.high))


@dataclass(frozen=True)
class LightwaveSolution:
    """Joint operating point of all cells for one energy demand."""

    feasible: bool
    bias: float
    ac_swing: float
    rf_targets: np.ndarray  # RF input assigned to each device, W
    light_harvests: np.ndarray  # light-side harvest of each device at the bias, W
    worst_user: int  # the device that sets the bias: the smallest gain sum
    min_snr_db: float
    method: str
    theta: float
    rf_cap: float
    # feasible, and the device that sets the bias is not the weakest-serving one
    fallback_used: bool = False
    light_target: float = np.nan  # light harvest the bias was solved for, W


def solve_op1_from_gains(serving_gains, gain_sums, drive, vlc_eh, bias_limits,
                         noise_power, theta, rf_cap, method="bisection"):
    """Max-min SNR allocation from per-device gain summaries.

    Only two numbers per device enter the optimization: the serving
    element gain (sets its SNR) and the total gain across all elements
    (sets its harvest).  Accepting them directly lets a control unit
    that received just these scalars run the identical arithmetic as a
    full-matrix solve; ``solve_op1`` is the matrix-facing wrapper.

    The harvest grows with the gain sum, so the device with the smallest
    one (ties: the lowest index) has the lowest harvest curve at every
    bias and alone sets the bias: the least bias that meets its demand
    within the RF cap meets everyone's.  That device is ``worst_user``;
    ``fallback_used`` flags a feasible solve where it is not the
    weakest-serving device.  The SNR grows with the serving gain, so the
    weakest serving gain holds the min SNR.  A device left needing more
    RF than the cap raises SolverStallError.
    """
    if method not in ("bisection", "closed_form"):
        raise ValueError(f"unknown bias method {method!r}")
    serving, sums = _gain_summaries(serving_gains, gain_sums)
    worst = int(sums.argmin())
    feasible, light_target = solve_subrf(
        theta, vlc_harvested_power(drive, vlc_eh, sums[worst], bias_limits.high),
        vlc_harvested_power(drive, vlc_eh, sums[worst], bias_limits.midpoint), rf_cap)
    if not feasible:
        n_dev = len(sums)
        return LightwaveSolution(
            feasible=False, bias=np.nan, ac_swing=0.0, rf_targets=np.zeros(n_dev),
            light_harvests=np.zeros(n_dev), worst_user=worst, min_snr_db=-np.inf,
            method=method, theta=theta, rf_cap=rf_cap)
    solve_bias = solve_bias_bisection if method == "bisection" else solve_bias_closed_form
    bias = solve_bias(drive, vlc_eh, sums[worst], light_target, bias_limits)
    harvests = vlc_harvested_power(drive, vlc_eh, sums, bias)
    raw = _rf_needs(theta, harvests, rf_cap)
    swing = bias_limits.swing_at(bias)
    return LightwaveSolution(
        feasible=True, bias=float(bias), ac_swing=float(swing),
        rf_targets=raw.clip(0.0, rf_cap), light_harvests=harvests, worst_user=worst,
        min_snr_db=float(vlc_snr_db(drive, serving.min(), swing, noise_power)),
        method=method, theta=theta, rf_cap=rf_cap,
        fallback_used=worst != int(serving.argmin()), light_target=light_target)


def _gain_summaries(serving_gains, gain_sums):
    """The two gain summaries as matching 1-d float arrays, the sums nonnegative."""
    serving = np.asarray(serving_gains, dtype=float)
    sums = np.asarray(gain_sums, dtype=float)
    if serving.shape != sums.shape or serving.ndim != 1:
        raise ValueError("serving gains and gain sums must be matching 1-d arrays")
    if np.any(sums < 0):
        raise ValueError("gain sums must be nonnegative")
    return serving, sums


def _rf_needs(theta, harvests, rf_cap):
    """``theta - harvests``, the RF each device needs; SolverStallError if one passes the cap.

    The smallest gain sum's split and bias rule that out, so it is a defect.
    """
    raw = theta - harvests
    if np.count_nonzero(raw > rf_cap):
        raise SolverStallError(
            f"a device needs {np.max(raw - rf_cap)} W of RF above the cap at the solved bias")
    return raw


def solve_op1_grid(serving_gains, gain_sums, drive, vlc_eh, bias_limits, noise_power,
                   thetas, rf_caps):
    """``solve_op1_from_gains``, method ``bisection``, over lanes of (demand, RF cap).

    Lane i holds ``thetas[i]`` and ``rf_caps[i]``, which broadcast to one
    1-d shape.  A lane gets the feasibility, bias and min SNR in dB of
    its scalar call, bit for bit: the same device sets the bias, and the
    ``solve_subrf`` split and ``solve_bias_bisection`` steps are
    elementwise.  Lanes whose split fails never enter the bias solve.

    Returns:
        (feasible, bias, min_snr_db) arrays; an infeasible lane has bias
        nan and min SNR -inf.
    """
    serving, sums = _gain_summaries(serving_gains, gain_sums)
    thetas, caps = np.broadcast_arrays(np.asarray(thetas, dtype=float),
                                       np.asarray(rf_caps, dtype=float))
    if thetas.ndim != 1:
        raise ValueError("demands and caps must broadcast to one 1-d grid")
    worst = int(sums.argmin())
    feasible, target = solve_subrf(
        thetas, vlc_harvested_power(drive, vlc_eh, sums[worst], bias_limits.high),
        vlc_harvested_power(drive, vlc_eh, sums[worst], bias_limits.midpoint), caps)
    solved = solve_bias_bisection(drive, vlc_eh, sums[worst], target[feasible], bias_limits)
    _rf_needs(thetas[feasible], vlc_harvested_power(drive, vlc_eh, sums[:, None], solved),
              caps[feasible])
    bias = np.full(thetas.shape, np.nan)
    bias[feasible] = solved
    min_snr_db = np.full(thetas.shape, -np.inf)
    swing = bias_limits.high - solved  # BiasLimits.swing_at, lane by lane
    min_snr_db[feasible] = vlc_snr_db(drive, serving.min(), swing, noise_power)
    return feasible, bias, min_snr_db


def solve_op1(matrix, drive, vlc_eh, bias_limits, noise_power, theta, rf_cap,
              method="bisection"):
    """Max-min SNR allocation for a full channel matrix; see solve_op1_from_gains."""
    return solve_op1_from_gains(
        matrix.serving_gains(), matrix.gain_sums(), drive, vlc_eh, bias_limits,
        noise_power, theta, rf_cap, method=method)
