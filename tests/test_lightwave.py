import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attocell.energy import vlc_harvested_power
from attocell.errors import TargetUnreachableError
from attocell.lightwave import (identify_worst_user, solve_bias_bisection,
                                solve_bias_closed_form, solve_op1,
                                solve_op1_from_gains, solve_subrf)

# bundled-deployment gain summaries, frozen from a high-precision recompute
SERVING = np.array([0.0106074733595, 0.00678975718967, 0.0167553798163,
                    0.0062180864748, 0.00810583851962])
SUMS = np.array([0.0110196367788, 0.00728190347223, 0.0170282789216,
                 0.00637272378115, 0.00853010959503])
WORST_MAX_EH = 0.00246638259587  # device 3 at the top of the bias range
WORST_MIN_EH = 0.00139003382401  # device 3 at the midpoint


def test_worst_user_is_weakest_serving_gain():
    assert identify_worst_user(SERVING) == 3
    assert identify_worst_user([2.0, 1.0, 1.0]) == 1  # tie -> lowest index


def test_subrf_split_cases():
    out = solve_subrf(4e-3, WORST_MAX_EH, WORST_MIN_EH, 5e-3)
    assert out.feasible
    assert out.rf_target == pytest.approx(4e-3 - WORST_MIN_EH, rel=1e-12)
    assert out.vlc_target == pytest.approx(WORST_MIN_EH, rel=1e-12)
    # demand below what the midpoint already harvests: no RF at all
    out = solve_subrf(1e-3, WORST_MAX_EH, WORST_MIN_EH, 5e-3)
    assert out.feasible and out.rf_target == 0.0 and out.vlc_target == 1e-3
    # cap binds but top-of-range light still covers the rest
    out = solve_subrf(3e-3, WORST_MAX_EH, WORST_MIN_EH, 1e-3)
    assert out.feasible and out.rf_target == 1e-3
    assert out.vlc_target == pytest.approx(2e-3, rel=1e-12)
    # cap plus best-case light cannot cover the demand
    out = solve_subrf(10e-3, WORST_MAX_EH, WORST_MIN_EH, 5e-3)
    assert not out.feasible and out.slack < 0


def test_bias_root_frozen(scenario):
    b = solve_bias_bisection(scenario.drive, scenario.vlc_eh, SUMS[3], 2e-3,
                             scenario.bias, tol=1e-12)
    assert b == pytest.approx(0.00985281309169339, abs=1e-12)
    cf = solve_bias_closed_form(scenario.drive, scenario.vlc_eh, SUMS[3], 2e-3,
                                scenario.bias)
    assert cf == pytest.approx(0.00985281317854218, rel=1e-12)
    assert cf >= b - 1e-12  # log-linearization never undershoots the root


def test_bisection_root_next_to_top_keeps_swing(scenario, vlc_matrix):
    # the root lies about 1e-8 A below the top, inside the 1e-7 A tolerance;
    # the top itself has zero swing and so a min SNR of -inf
    sums = vlc_matrix.gain_sums()
    knee = min(vlc_harvested_power(scenario.drive, scenario.vlc_eh, s,
                                   scenario.bias.high) for s in sums)
    theta = knee * (1 - 1e-6)
    b = solve_bias_bisection(scenario.drive, scenario.vlc_eh, float(np.min(sums)),
                             theta, scenario.bias)
    assert b < scenario.bias.high
    assert vlc_harvested_power(scenario.drive, scenario.vlc_eh,
                               float(np.min(sums)), b) >= theta
    sol = solve_op1(vlc_matrix, scenario.drive, scenario.vlc_eh, scenario.bias,
                    scenario.noise_power, theta, 0.0)
    assert sol.feasible and sol.ac_swing > 0.0
    assert np.isfinite(sol.min_snr_db)


def test_bias_target_below_midpoint_harvest(scenario):
    b = solve_bias_bisection(scenario.drive, scenario.vlc_eh, SUMS[3],
                             WORST_MIN_EH * 0.5, scenario.bias)
    assert b == scenario.bias.midpoint


def test_bias_target_above_reach_raises(scenario):
    for solver in (solve_bias_bisection, solve_bias_closed_form):
        with pytest.raises(TargetUnreachableError):
            solver(scenario.drive, scenario.vlc_eh, SUMS[3],
                   WORST_MAX_EH * 1.5, scenario.bias)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=2e-3, max_value=0.02),
       st.floats(min_value=0.0, max_value=1.0))
def test_bisection_meets_target_minimally(gain_sum, frac):
    from attocell.scenario import default_scenario
    sc = default_scenario()
    lo_eh = vlc_harvested_power(sc.drive, sc.vlc_eh, gain_sum, sc.bias.midpoint)
    hi_eh = vlc_harvested_power(sc.drive, sc.vlc_eh, gain_sum, sc.bias.high)
    target = lo_eh + frac * (hi_eh - lo_eh)
    tol = 1e-9
    b = solve_bias_bisection(sc.drive, sc.vlc_eh, gain_sum, target, sc.bias, tol=tol)
    assert vlc_harvested_power(sc.drive, sc.vlc_eh, gain_sum, b) >= target
    if b > sc.bias.midpoint + tol:
        under = vlc_harvested_power(sc.drive, sc.vlc_eh, gain_sum, b - tol)
        assert under < target


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=2e-3, max_value=0.02),
       st.floats(min_value=0.0, max_value=1.0))
def test_closed_form_always_covers_target(gain_sum, frac):
    from attocell.scenario import default_scenario
    sc = default_scenario()
    lo_eh = vlc_harvested_power(sc.drive, sc.vlc_eh, gain_sum, sc.bias.midpoint)
    hi_eh = vlc_harvested_power(sc.drive, sc.vlc_eh, gain_sum, sc.bias.high)
    target = lo_eh + frac * (hi_eh - lo_eh)
    b = solve_bias_closed_form(sc.drive, sc.vlc_eh, gain_sum, target, sc.bias)
    assert sc.bias.midpoint <= b <= sc.bias.high
    assert vlc_harvested_power(sc.drive, sc.vlc_eh, gain_sum, b) >= target * (1 - 1e-12)


def _solve_default(scenario, theta, **kw):
    return solve_op1_from_gains(SERVING, SUMS, scenario.drive, scenario.vlc_eh,
                                scenario.bias, scenario.noise_power, theta,
                                scenario.rf_exposure_cap, **kw)


def test_solution_reference_point(scenario):
    sol = _solve_default(scenario, 4e-3)
    assert sol.feasible
    assert sol.worst_user == 3
    # the split leaves the light side exactly the midpoint harvest, so the
    # bias stays at the swing-maximizing point
    assert sol.bias == scenario.bias.midpoint
    assert sol.ac_swing == pytest.approx(scenario.bias.max_swing, rel=1e-15)
    assert sol.rf_targets[3] == pytest.approx(0.00260996617599, rel=1e-10)
    assert not sol.fallback_used
    np.testing.assert_allclose(sol.light_harvests + sol.rf_targets,
                               np.maximum(4e-3, sol.light_harvests), rtol=1e-12)


def test_solution_energy_accounting(scenario):
    theta = 2e-3
    sol = _solve_default(scenario, theta)
    assert sol.feasible
    # every device ends the frame with at least theta
    total = sol.light_harvests + sol.rf_targets
    assert np.all(total >= theta * (1 - 1e-12))
    assert np.all(sol.rf_targets <= scenario.rf_exposure_cap + 1e-15)
    assert np.all(sol.rf_targets >= 0)


def test_matrix_wrapper_bitwise(scenario, vlc_matrix):
    direct = solve_op1(vlc_matrix, scenario.drive, scenario.vlc_eh, scenario.bias,
                       scenario.noise_power, 4e-3, scenario.rf_exposure_cap)
    from_gains = solve_op1_from_gains(
        vlc_matrix.serving_gains(), vlc_matrix.gain_sums(), scenario.drive,
        scenario.vlc_eh, scenario.bias, scenario.noise_power, 4e-3,
        scenario.rf_exposure_cap)
    assert direct.bias == from_gains.bias
    assert direct.min_snr == from_gains.min_snr
    np.testing.assert_array_equal(direct.rf_targets, from_gains.rf_targets)


def test_infeasible_outcome(scenario):
    sol = _solve_default(scenario, 50e-3)
    assert not sol.feasible
    assert np.isnan(sol.bias)
    assert np.isnan(sol.light_target)
    assert sol.min_snr == -np.inf
    assert sol.min_snr_db == -np.inf
    assert np.all(sol.rf_targets == 0.0)


def test_fallback_reassigns_worst_role(scenario):
    # device 0 has the weakest serving gain but a huge gain sum, so the bias
    # it asks for leaves device 1 starved beyond the cap; the solver must
    # re-anchor on the smallest gain sum
    serving = np.array([1e-3, 5e-3])
    sums = np.array([0.05, 4e-3])
    sol = solve_op1_from_gains(serving, sums, scenario.drive, scenario.vlc_eh,
                               scenario.bias, scenario.noise_power,
                               2.2e-3, 1e-3)
    assert sol.feasible
    assert sol.fallback_used
    assert sol.worst_user == 1
    total = sol.light_harvests + sol.rf_targets
    assert np.all(total >= 2.2e-3 * (1 - 1e-12))
    # the recorded light target is the one the re-anchored solve used
    assert solve_bias_bisection(scenario.drive, scenario.vlc_eh, sums[1],
                                sol.light_target, scenario.bias) == sol.bias


def test_unknown_method_rejected(scenario):
    with pytest.raises(ValueError, match="unknown bias method"):
        _solve_default(scenario, 2e-3, method="newton")


def test_closed_form_route_matches_bisection(scenario):
    a = _solve_default(scenario, 5e-3, method="bisection", tol=1e-12)
    b = _solve_default(scenario, 5e-3, method="closed_form")
    assert a.feasible and b.feasible
    assert b.min_snr_db == pytest.approx(a.min_snr_db, abs=0.5)
    assert b.min_snr_db <= a.min_snr_db + 1e-9  # closed form spends more bias


def test_snr_decreases_with_demand(scenario):
    snrs = [_solve_default(scenario, th).min_snr_db
            for th in (1e-3, 3e-3, 5e-3, 7e-3)]
    assert all(a >= b - 1e-12 for a, b in zip(snrs, snrs[1:]))


@pytest.mark.parametrize("theta", np.linspace(0.0, 8e-3, 20)[[13, 14]])
def test_bisection_not_below_closed_form_when_rf_covers_deficit(scenario, vlc_matrix,
                                                                theta):
    # at theta 5.47 and 5.89 mW RF covers the worst user's whole deficit,
    # so its light target is exactly the midpoint harvest; forming it as
    # theta - (theta - x) once rounded above x and cost bisection a bias step
    args = (vlc_matrix, scenario.drive, scenario.vlc_eh, scenario.bias,
            scenario.noise_power, float(theta), scenario.rf_exposure_cap)
    bis = solve_op1(*args, method="bisection")
    cf = solve_op1(*args, method="closed_form")
    assert bis.bias == scenario.bias.midpoint
    assert bis.min_snr_db >= cf.min_snr_db


def test_subrf_light_target_exact_when_rf_covers_deficit():
    theta = np.linspace(0.0, 8e-3, 20)[13]
    out = solve_subrf(theta, WORST_MAX_EH, WORST_MIN_EH, 5e-3)
    assert out.vlc_target == WORST_MIN_EH
