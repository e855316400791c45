import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attocell.channels import build_vlc_matrix
from attocell.energy import vlc_harvested_power, vlc_snr_db
from attocell import lightwave
from attocell.cli import EXIT_SOLVER, main
from attocell.errors import SolverStallError, TargetUnreachableError
from attocell.lightwave import (solve_bias_bisection, solve_bias_closed_form, solve_op1,
                                solve_op1_from_gains, solve_op1_grid, solve_subrf)

# bundled-deployment gain summaries, frozen from a high-precision recompute
SERVING = np.array([0.0106074733595, 0.00678975718967, 0.0167553798163,
                    0.0062180864748, 0.00810583851962])
SUMS = np.array([0.0110196367788, 0.00728190347223, 0.0170282789216,
                 0.00637272378115, 0.00853010959503])
WORST_MAX_EH = 0.00246638259587  # device 3 at the top of the bias range
WORST_MIN_EH = 0.00139003382401  # device 3 at the midpoint


def test_subrf_split_cases():
    feasible, light = solve_subrf(4e-3, WORST_MAX_EH, WORST_MIN_EH, 5e-3)
    assert feasible
    assert light == pytest.approx(WORST_MIN_EH, rel=1e-12)
    # demand below what the midpoint already harvests: no RF at all
    assert solve_subrf(1e-3, WORST_MAX_EH, WORST_MIN_EH, 5e-3) == (True, 1e-3)
    # cap binds but top-of-range light still covers the rest
    feasible, light = solve_subrf(3e-3, WORST_MAX_EH, WORST_MIN_EH, 1e-3)
    assert feasible
    assert light == pytest.approx(2e-3, rel=1e-12)
    # cap plus best-case light cannot cover the demand
    feasible, _ = solve_subrf(10e-3, WORST_MAX_EH, WORST_MIN_EH, 5e-3)
    assert feasible is False


def test_subrf_broadcasts_like_scalar_calls():
    # the 5.47 and 5.89 mW tie rows sit among the 20-point sweep
    thetas = np.concatenate([np.linspace(0.0, 8e-3, 20), [WORST_MIN_EH, 0.0, 10e-3]])
    caps = np.array([0.0, 1e-3, 5e-3, 6e-3])[:, None]
    feasible, light = solve_subrf(thetas, WORST_MAX_EH, WORST_MIN_EH, caps)
    assert feasible.shape == light.shape == (4, len(thetas))
    for i, cap in enumerate(caps[:, 0]):
        for j, theta in enumerate(thetas):
            ok, target = solve_subrf(float(theta), WORST_MAX_EH, WORST_MIN_EH, float(cap))
            assert type(ok) is bool and type(target) is float
            assert ok == feasible[i, j]
            if ok:
                assert target == light[i, j]
    # both verdicts occur, so each was checked to be a real bool on floats
    assert feasible.any() and not feasible.all()


def test_bias_root_frozen(scenario):
    b = solve_bias_bisection(scenario.drive, scenario.vlc_eh, SUMS[3], 2e-3,
                             scenario.bias)
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


def _adjacent_float_bisection(scenario, gain_sum, target):
    """The smallest bias of a bisection run until its endpoints are adjacent floats."""
    lo, hi = scenario.bias.midpoint, scenario.bias.high
    if target <= vlc_harvested_power(scenario.drive, scenario.vlc_eh, gain_sum, lo):
        return lo
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if vlc_harvested_power(scenario.drive, scenario.vlc_eh, gain_sum, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _harvest_range(scenario, gain_sum):
    return tuple(vlc_harvested_power(scenario.drive, scenario.vlc_eh, gain_sum, b)
                 for b in (scenario.bias.midpoint, scenario.bias.high))


@pytest.mark.parametrize("n_lanes", [1, 2, 132])
def test_bias_lanes_equal_scalar_calls(scenario, n_lanes):
    rng = np.random.default_rng(n_lanes)
    for gain_sum in SUMS:
        lo_eh, hi_eh = _harvest_range(scenario, gain_sum)
        # inside the range, both ends, then random ones, some below the midpoint harvest
        targets = np.concatenate([[0.5 * (lo_eh + hi_eh), hi_eh, lo_eh],
                                  rng.uniform(0.5 * lo_eh, hi_eh, 129)])[:n_lanes]
        lanes = solve_bias_bisection(scenario.drive, scenario.vlc_eh, gain_sum, targets,
                                     scenario.bias)
        scalar = [solve_bias_bisection(scenario.drive, scenario.vlc_eh, gain_sum,
                                       float(t), scenario.bias) for t in targets]
        assert all(type(b) is float for b in scalar)
        assert lanes.shape == targets.shape
        assert lanes.tobytes() == np.array(scalar).tobytes()


def test_bias_meets_target_next_to_adjacent_float_bisection(scenario):
    # every answer lies within 4 ulps of a bisection that runs to adjacent
    # floats; the rounded harvest is not monotone at that scale, so the
    # smallest float meeting a target is not unique to the ulp
    for gain_sum in SUMS:
        lo_eh, hi_eh = _harvest_range(scenario, gain_sum)
        targets = np.concatenate([
            [0.0, np.nextafter(lo_eh, 0.0), lo_eh, np.nextafter(lo_eh, 1.0)],
            np.linspace(lo_eh, hi_eh, 401)[1:-1],
            [np.nextafter(hi_eh, 0.0), hi_eh]])
        bias = solve_bias_bisection(scenario.drive, scenario.vlc_eh, gain_sum, targets,
                                    scenario.bias)
        assert np.all(vlc_harvested_power(scenario.drive, scenario.vlc_eh, gain_sum, bias)
                      >= targets)
        assert np.all((scenario.bias.midpoint <= bias) & (bias <= scenario.bias.high))
        assert np.all(bias[:3] == scenario.bias.midpoint)
        ref = np.array([_adjacent_float_bisection(scenario, gain_sum, float(t))
                        for t in targets])
        # positive floats order like their bit patterns
        ulps = np.abs(bias.view(np.int64) - ref.view(np.int64))
        assert ulps.max() <= 4


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
    b = solve_bias_bisection(sc.drive, sc.vlc_eh, gain_sum, target, sc.bias)
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
    assert sol.ac_swing == pytest.approx(scenario.bias.high - scenario.bias.midpoint, rel=1e-15)
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
    assert direct.min_snr_db == from_gains.min_snr_db
    np.testing.assert_array_equal(direct.rf_targets, from_gains.rf_targets)


def test_infeasible_outcome(scenario):
    sol = _solve_default(scenario, 50e-3)
    assert not sol.feasible
    assert np.isnan(sol.bias)
    assert np.isnan(sol.light_target)
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
    a = _solve_default(scenario, 5e-3, method="bisection")
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
    assert solve_subrf(theta, WORST_MAX_EH, WORST_MIN_EH, 5e-3) == (True, WORST_MIN_EH)


def test_feasible_split_passes_the_cap_test():
    # theta - (theta - cap) can round above the cap; a feasible split must
    # still leave RF at most the cap, computed as the solvers compute it
    rng = np.random.default_rng(1)
    thetas = np.append(rng.uniform(0.0, 3e-3, 50_000), 0.0023382133000763748)
    caps = np.append(rng.uniform(0.0, 2e-3, 50_000), 0.0007197861604270648)
    feasible, light = solve_subrf(thetas, WORST_MAX_EH, WORST_MIN_EH, caps)
    assert feasible.sum() > 40_000
    assert np.all(thetas[feasible] - light[feasible] <= caps[feasible])
    assert np.all(light[feasible] <= WORST_MAX_EH)
    # the draw of criterion 5 that exposed it, as a scalar call
    ok, target = solve_subrf(float(thetas[-1]), WORST_MAX_EH, WORST_MIN_EH, float(caps[-1]))
    assert ok and thetas[-1] - target <= caps[-1]


def test_grid_lanes_equal_scalar_solves(scenario, vlc_matrix):
    serving, sums = vlc_matrix.serving_gains(), vlc_matrix.gain_sums()
    args = (scenario.drive, scenario.vlc_eh, scenario.bias, scenario.noise_power)
    knee = min(vlc_harvested_power(scenario.drive, scenario.vlc_eh, s,
                                   scenario.bias.high) for s in sums)
    # no demand, the midpoint harvest, a root a hair below the top, past
    # the knee with and without RF, and far out of reach
    thetas = np.array([0.0, WORST_MIN_EH, knee * (1 - 1e-6), knee * (1 + 1e-6),
                       knee * (1 + 1e-6), 4e-3, 50e-3])
    caps = np.array([0.0, 0.0, 0.0, 0.0, 1e-3, 6e-3, 6e-3])
    feasible, bias, min_snr_db = solve_op1_grid(serving, sums, *args, thetas, caps)
    sols = [solve_op1_from_gains(serving, sums, *args, theta, cap)
            for theta, cap in zip(thetas, caps)]
    assert feasible.tolist() == [sol.feasible for sol in sols]
    assert bias.tobytes() == np.array([sol.bias for sol in sols]).tobytes()
    assert min_snr_db.tobytes() == np.array([sol.min_snr_db for sol in sols]).tobytes()
    assert feasible.tolist() == [True, True, True, False, True, True, False]


def test_grid_rejects_bad_inputs(scenario):
    args = (scenario.drive, scenario.vlc_eh, scenario.bias, scenario.noise_power)
    empty = solve_op1_grid(SERVING, SUMS, *args, np.array([]), 0.0)
    assert [a.shape for a in empty] == [(0,)] * 3
    with pytest.raises(ValueError, match="nonnegative"):
        solve_op1_grid(SERVING, -SUMS, *args, [1e-3], 0.0)
    with pytest.raises(ValueError, match="1-d"):
        solve_op1_grid(SERVING, SUMS, *args, [[1e-3]], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_op1_from_gains(SERVING, -SUMS, *args, 1e-3, 0.0)


def _min_snr_db_over_devices(scenario, serving, bias):
    swing = scenario.bias.swing_at(bias)
    return min(vlc_snr_db(scenario.drive, g, swing, scenario.noise_power) for g in serving)


def _jittered_gains(scenario, k):
    """Gain summaries with every device moved up to 0.5 m in x and y, draw ``k``."""
    shift = np.random.default_rng([3, k]).uniform(-0.5, 0.5, (len(scenario.devices), 2))
    devices = [dataclasses.replace(d, position=d.position + np.append(s, 0.0))
               for d, s in zip(scenario.devices, shift)]
    matrix = build_vlc_matrix(scenario.transmitters, devices)
    return matrix.serving_gains(), matrix.gain_sums()


def test_min_snr_db_is_min_over_devices(scenario, vlc_matrix):
    layouts = ([(vlc_matrix.serving_gains(), vlc_matrix.gain_sums()),
                # equal serving gains: the first of them holds the worst role
                (np.array([6e-3, 6e-3, 9e-3]), np.array([6.5e-3, 6.2e-3, 9.4e-3]))]
               + [_jittered_gains(scenario, k) for k in range(12)])
    args = (scenario.drive, scenario.vlc_eh, scenario.bias, scenario.noise_power)
    thetas = np.linspace(0.0, 8e-3, 17)
    caps = np.array([0.0, 2e-3, 6e-3])
    seen = set()
    for serving, sums in layouts:
        for method in ("bisection", "closed_form"):
            for cap in caps:
                for theta in thetas:
                    sol = solve_op1_from_gains(serving, sums, *args, float(theta), float(cap),
                                               method=method)
                    seen.add((sol.feasible, sol.fallback_used))
                    want = (_min_snr_db_over_devices(scenario, serving, sol.bias)
                            if sol.feasible else -np.inf)
                    assert sol.min_snr_db == want
        grid_thetas, grid_caps = (a.ravel() for a in np.meshgrid(thetas, caps))
        feasible, bias, min_snr_db = solve_op1_grid(serving, sums, *args,
                                                    grid_thetas, grid_caps)
        for ok, b, got in zip(feasible, bias, min_snr_db):
            assert got == (_min_snr_db_over_devices(scenario, serving, b) if ok else -np.inf)
    assert seen == {(True, False), (True, True), (False, False)}


def test_smallest_gain_sum_keeps_every_accepted_weakest_serving_bias(scenario, vlc_matrix):
    # the weakest-serving device's own exact split and bias, wherever they
    # leave every device within the cap, is the bias the allocator returns
    layouts = ([(vlc_matrix.serving_gains(), vlc_matrix.gain_sums())]
               + [_jittered_gains(scenario, k) for k in range(40)])
    drive, eh, limits = scenario.drive, scenario.vlc_eh, scenario.bias
    args = (drive, eh, limits, scenario.noise_power)
    compared = 0
    for serving, sums in layouts:
        weakest = int(np.argmin(serving))
        top, mid = (vlc_harvested_power(drive, eh, sums[weakest], b)
                    for b in (limits.high, limits.midpoint))
        for cap in (0.0, 2e-3, 6e-3):
            for theta in np.linspace(0.0, 8e-3, 33):
                sol = solve_op1_from_gains(serving, sums, *args, float(theta), cap)
                assert sol.worst_user == int(np.argmin(sums))
                ok, target = solve_subrf(float(theta), top, mid, cap)
                if not ok:
                    continue
                bias = solve_bias_bisection(drive, eh, sums[weakest], target, limits)
                harvests = [vlc_harvested_power(drive, eh, s, bias) for s in sums]
                if all(theta - h <= cap for h in harvests):
                    assert sol.feasible and sol.bias == bias
                    compared += weakest != sol.worst_user
    assert compared > 0  # some layouts' weakest-serving device does not set the bias


def test_rf_need_above_cap_is_a_solver_failure(scenario, monkeypatch, tmp_path, capsys):
    # a harvest that leaves the last device short breaks the invariant the
    # smallest gain sum guarantees; no entry point may retry or clip it away
    def short_last_device(drive, eh, gain_sum, bias):
        harvest = vlc_harvested_power(drive, eh, gain_sum, bias)
        if np.ndim(gain_sum):  # the every-device harvest
            harvest = np.array(harvest)
            harvest[-1] = 0.0
        return harvest

    monkeypatch.setattr(lightwave, "vlc_harvested_power", short_last_device)
    args = (scenario.drive, scenario.vlc_eh, scenario.bias, scenario.noise_power)
    for method in ("bisection", "closed_form"):
        with pytest.raises(SolverStallError, match="above the cap"):
            solve_op1_from_gains(SERVING, SUMS, *args, 2e-3, 1e-3, method=method)
    with pytest.raises(SolverStallError, match="above the cap"):
        solve_op1_grid(SERVING, SUMS, *args, [1e-3, 2e-3], 1e-3)
    out = tmp_path / "out"
    assert main(["solve", "--theta", "2mW", "--theta-rf", "1mW",
                 "--out-dir", str(out)]) == EXIT_SOLVER
    assert "above the cap" in capsys.readouterr().err
    assert not out.exists()
