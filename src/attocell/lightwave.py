"""Joint bias and RF-harvest allocation for the lightwave cells.

Solves the max-min detection SNR problem: every device must end the
frame with ``theta`` joules-per-frame of harvested energy, collected
from the light it already receives plus an RF top-up bounded by an
exposure cap.  Raising the common DC bias feeds the harvesters but
shrinks the AC swing left for data, so the optimum runs the bias as low
as the worst-off device allows.

Two routes to the optimal bias are provided: a bisection on the exact
harvest curve, and a closed form through the Lambert W function of the
log-linearized curve.  They must stay within a hair of each other; the
test suite enforces that.
"""

from dataclasses import dataclass

import numpy as np

from .energy import vlc_harvested_power, vlc_snr, vlc_snr_db
from .errors import TargetUnreachableError
from .numerics import lambert_w0

__all__ = [
    "identify_worst_user",
    "SubRfOutcome",
    "solve_subrf",
    "solve_bias_bisection",
    "solve_bias_closed_form",
    "LightwaveSolution",
    "solve_op1",
    "solve_op1_from_gains",
]


def identify_worst_user(serving_gains):
    """Device with the weakest serving-element gain; ties pick the lowest index."""
    return int(np.argmin(np.asarray(serving_gains)))


@dataclass(frozen=True)
class SubRfOutcome:
    """Feasibility split of the worst user's energy demand."""

    feasible: bool
    rf_target: float  # RF input assigned to the worst user, already capped
    vlc_target: float  # remainder the light side must deliver
    slack: float  # rf_cap - (theta - max light harvest); negative means infeasible


def solve_subrf(theta, max_light_eh, min_light_eh, rf_cap):
    """Split the worst user's demand between light and RF harvest.

    The light side can deliver at most ``max_light_eh`` (bias at the
    top of the range) and at least ``min_light_eh`` (bias at the
    midpoint, the swing-maximizing point).  RF makes up the difference
    but may not exceed ``rf_cap``.  The split that maximizes the swing
    uses as little bias as possible: RF gets min(theta - min_light_eh,
    rf_cap), clamped at zero.  The light target is formed directly, not
    as theta - rf, since theta - (theta - x) need not round back to x:
    when RF covers the whole deficit the light side gets exactly
    ``min_light_eh``, which the midpoint bias meets.
    """
    slack = rf_cap - (theta - max_light_eh)
    if slack < 0:
        return SubRfOutcome(feasible=False, rf_target=0.0, vlc_target=theta, slack=slack)
    rf = min(max(theta - min_light_eh, 0.0), rf_cap)
    vlc = min(theta, max(theta - rf_cap, min_light_eh))
    return SubRfOutcome(feasible=True, rf_target=rf, vlc_target=vlc, slack=slack)


def solve_bias_bisection(drive, eh_params, gain_sum, target, bias_limits, tol=1e-7):
    """Smallest DC bias whose light harvest meets ``target``.

    Bisects on [midpoint, high] keeping the upper endpoint feasible and
    returns that endpoint, so the answer always satisfies the target.
    The top of the range leaves no swing, so it is returned only when
    no lower float bias meets the target.  The loop ends at the latest
    when the endpoints are adjacent floats.
    """
    lo = bias_limits.midpoint
    hi = top = bias_limits.high
    if target <= vlc_harvested_power(drive, eh_params, gain_sum, lo):
        return lo
    if target > vlc_harvested_power(drive, eh_params, gain_sum, hi):
        raise TargetUnreachableError(
            f"light harvest target {target} W above reach {hi} A bias")
    while True:
        mid = 0.5 * (lo + hi)
        if (hi - lo <= tol and hi < top) or mid in (lo, hi):
            return hi
        if vlc_harvested_power(drive, eh_params, gain_sum, mid) >= target:
            hi = mid
        else:
            lo = mid


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


_BIAS_SOLVERS = {
    "bisection": solve_bias_bisection,
    "closed_form": lambda drive, eh, gs, tgt, lim, **kw: solve_bias_closed_form(
        drive, eh, gs, tgt, lim),
}


@dataclass(frozen=True)
class LightwaveSolution:
    """Joint operating point of all cells for one energy demand."""

    feasible: bool
    bias: float
    ac_swing: float
    rf_targets: np.ndarray  # RF input assigned to each device, W
    light_harvests: np.ndarray  # light-side harvest of each device at the bias, W
    worst_user: int
    min_snr: float
    min_snr_db: float
    method: str
    theta: float
    rf_cap: float
    fallback_used: bool = False
    light_target: float = np.nan  # light harvest the bias was solved for, W


def _infeasible(theta, rf_cap, n_dev, worst, method):
    return LightwaveSolution(
        feasible=False, bias=np.nan, ac_swing=0.0,
        rf_targets=np.zeros(n_dev), light_harvests=np.zeros(n_dev),
        worst_user=worst, min_snr=-np.inf, min_snr_db=-np.inf,
        method=method, theta=theta, rf_cap=rf_cap)


def solve_op1_from_gains(serving_gains, gain_sums, drive, vlc_eh, bias_limits,
                         noise_power, theta, rf_cap, method="bisection", tol=1e-7):
    """Max-min SNR allocation from per-device gain summaries.

    Only two numbers per device enter the optimization: the serving
    element gain (sets its SNR) and the total gain across all elements
    (sets its harvest).  Accepting them directly lets a control unit
    that received just these scalars run the identical arithmetic as a
    full-matrix solve; ``solve_op1`` is the matrix-facing wrapper.

    The bias is set by the worst-off device (weakest serving gain); all
    other devices then need at most as much RF as the cap allows.  If
    one of them would exceed the cap anyway, the worst role is
    reassigned to the device with the smallest total gain, whose
    harvest curve lower-bounds everyone else's, and the solve repeats
    once.
    """
    if method not in _BIAS_SOLVERS:
        raise ValueError(f"unknown bias method {method!r}")
    serving = np.asarray(serving_gains, dtype=float)
    sums = np.asarray(gain_sums, dtype=float)
    if serving.shape != sums.shape or serving.ndim != 1:
        raise ValueError("serving gains and gain sums must be matching 1-d arrays")
    n_dev = len(sums)

    def attempt(worst):
        max_eh = vlc_harvested_power(drive, vlc_eh, sums[worst], bias_limits.high)
        min_eh = vlc_harvested_power(drive, vlc_eh, sums[worst], bias_limits.midpoint)
        sub = solve_subrf(theta, max_eh, min_eh, rf_cap)
        if not sub.feasible:
            return None
        bias = _BIAS_SOLVERS[method](drive, vlc_eh, sums[worst], sub.vlc_target,
                                     bias_limits, tol=tol)
        harvests = np.array([
            vlc_harvested_power(drive, vlc_eh, s, bias) for s in sums])
        raw = theta - harvests
        if np.any(raw > rf_cap):
            return "cap_violated"
        return bias, harvests, np.clip(raw, 0.0, rf_cap), sub.vlc_target

    worst = identify_worst_user(serving)
    fallback_used = False
    result = attempt(worst)
    if result == "cap_violated":
        # the gain-sum argmin has the lowest harvest at any bias, so a bias
        # feasible for it is feasible for everyone
        worst = int(np.argmin(sums))
        fallback_used = True
        result = attempt(worst)
    if result is None or result == "cap_violated":
        return _infeasible(theta, rf_cap, n_dev, worst, method)

    bias, harvests, rf_targets, light_target = result
    swing = bias_limits.swing_at(bias)
    snrs = np.array([vlc_snr(drive, g, swing, noise_power) for g in serving])
    min_idx = int(np.argmin(snrs))
    return LightwaveSolution(
        feasible=True, bias=float(bias), ac_swing=float(swing),
        rf_targets=rf_targets, light_harvests=harvests,
        worst_user=worst, min_snr=float(snrs[min_idx]),
        min_snr_db=float(vlc_snr_db(drive, serving[min_idx], swing, noise_power)),
        method=method, theta=theta, rf_cap=rf_cap, fallback_used=fallback_used,
        light_target=float(light_target))


def solve_op1(matrix, drive, vlc_eh, bias_limits, noise_power, theta, rf_cap,
              method="bisection"):
    """Max-min SNR allocation for a full channel matrix; see solve_op1_from_gains."""
    return solve_op1_from_gains(
        matrix.serving_gains(), matrix.gain_sums(), drive, vlc_eh, bias_limits,
        noise_power, theta, rf_cap, method=method)
