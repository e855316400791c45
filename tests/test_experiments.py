import json

import numpy as np
import pytest

import attocell.experiments as experiments
from attocell.beamforming import solve_aggregate_sdp_batch
from attocell.errors import InfeasibleError, SolverStallError
from attocell.experiments import (ExperimentResult, exp_eh_allocation,
                                  exp_feasibility_vs_theta, exp_illuminance,
                                  exp_rf_power, exp_snr_eh_region,
                                  exp_subopt_gap)
from attocell.scenario import default_scenario

PROVENANCE = ("scenario_hash", "seed", "solver")


def _assert_provenance(result, scenario):
    for col in PROVENANCE:
        assert col in result.columns
        assert len(result.columns[col]) == result.n_rows
    assert set(result.columns["scenario_hash"]) == {scenario.hash}
    assert set(result.columns["seed"]) == {scenario.seed}


def test_result_validates_column_lengths():
    with pytest.raises(ValueError):
        ExperimentResult(name="x", columns={"a": [1, 2], "b": [1]}, meta={})


def test_result_csv_shape_and_determinism(tmp_path):
    res = ExperimentResult(name="t", columns={"a": [1, 2], "b": [0.5, -np.inf]},
                           meta={})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res.to_csv(p1)
    res.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3


def test_result_json_roundtrip(tmp_path):
    res = ExperimentResult(name="t", columns={"a": [1.5]}, meta={"k": 2})
    p = tmp_path / "r.json"
    res.to_json(p)
    data = json.loads(p.read_text())
    assert data["name"] == "t"
    assert data["meta"] == {"k": 2}
    assert data["columns"]["a"] == [1.5]


def test_region_experiment(scenario):
    res = exp_snr_eh_region(scenario, n_points=21)
    _assert_provenance(res, scenario)
    assert res.n_rows == 5 * 21
    users = np.array(res.columns["user"])
    snr = np.array(res.columns["snr_db"])
    eh = np.array(res.columns["light_eh_w"])
    bias = np.array(res.columns["bias_a"])
    # the swing vanishes at the top of the bias range
    assert np.all(snr[np.isclose(bias, scenario.bias.high)] == -np.inf)
    for u in range(5):
        mask = users == u
        # harvest grows with bias, detection shrinks
        assert np.all(np.diff(eh[mask]) > 0)
        finite = snr[mask][np.isfinite(snr[mask])]
        assert np.all(np.diff(finite) < 0)


def test_feasibility_experiment(scenario):
    res = exp_feasibility_vs_theta(scenario,
                                   theta_grid=np.arange(0, 8.1e-3, 0.5e-3),
                                   rf_levels=[0.0, 2e-3, 4e-3])
    _assert_provenance(res, scenario)
    theta = np.array(res.columns["theta_w"])
    cap = np.array(res.columns["rf_cap_w"])
    feas = np.array(res.columns["feasible"], dtype=bool)
    # a bigger cap can only widen the feasible set
    max_feasible = {c: theta[(cap == c) & feas].max() for c in (0.0, 2e-3, 4e-3)}
    assert max_feasible[0.0] < max_feasible[2e-3] < max_feasible[4e-3]
    # feasible set is a prefix in theta at every cap
    for c in (0.0, 2e-3, 4e-3):
        flags = feas[cap == c]
        switch = np.flatnonzero(~flags)
        if switch.size:
            assert np.all(~flags[switch[0]:])


def test_eh_allocation_experiment(scenario):
    res = exp_eh_allocation(scenario, theta=4e-3, rf_cap=5e-3)
    _assert_provenance(res, scenario)
    assert res.n_rows == 5
    opt = np.array(res.columns["rf_optimal_w"])
    uni = np.array(res.columns["rf_uniform_w"])
    assert np.all(opt <= uni + 1e-15)
    assert res.meta["savings_w"] == pytest.approx(float(np.sum(uni - opt)), rel=1e-12)
    assert res.meta["savings_w"] > 0
    assert res.meta["worst_user"] == int(np.argmax(opt))


def test_eh_allocation_infeasible_raises(scenario):
    with pytest.raises(InfeasibleError):
        exp_eh_allocation(scenario, theta=50e-3, rf_cap=5e-3)


def test_rf_power_experiment(scenario):
    res = exp_rf_power(scenario, rf_levels=[2e-3, 4e-3], trials=5, theta=4e-3)
    _assert_provenance(res, scenario)
    level = np.array(res.columns["rf_level_w"])
    model = np.array(res.columns["model"])
    alloc = np.array(res.columns["allocation"])
    mean = np.array(res.columns["mean_power_w"])
    fails = np.array(res.columns["solver_failures"])
    assert res.n_rows == 2 * 2 * 2
    assert np.all(fails == 0)
    for lv in (2e-3, 4e-3):
        for mdl in ("nonlinear", "linear"):
            sel = (level == lv) & (model == mdl)
            p_uni = mean[sel & (alloc == "uniform")][0]
            p_opt = mean[sel & (alloc == "optimal")][0]
            assert p_opt <= p_uni * (1 + 1e-9)


def test_rf_power_fading_draw_that_stalled():
    # this draw's 2 mW nonlinear optimal row once stalled at a 9.0e-6 gap
    res = exp_rf_power(default_scenario(seed=2135483340), rf_levels=[2e-3],
                       trials=1)
    assert res.columns["solver_failures"] == [0, 0, 0, 0]


def test_rf_power_zero_level(scenario):
    res = exp_rf_power(scenario, rf_levels=[0.0], trials=3, theta=1e-3)
    mean = np.array(res.columns["mean_power_w"])
    assert np.all(mean == 0.0)


def _count_batches(monkeypatch, inject=None):
    # record (normalized targets, instances) of every batched SDP call
    calls = []

    def counted(channel_sets, targets, tol=1e-8):
        b = np.asarray(targets, dtype=float)
        calls.append((b, len(channel_sets)))
        out = solve_aggregate_sdp_batch(channel_sets, targets, tol)
        return inject(b, out) if inject else out

    monkeypatch.setattr(experiments, "solve_aggregate_sdp_batch", counted)
    return calls


def test_rf_power_solves_each_normalized_problem_once(scenario, monkeypatch):
    calls = _count_batches(monkeypatch)
    res = exp_rf_power(scenario, trials=3)
    # one uniform problem (b = 1 at every level and model), the linear and
    # nonlinear optimal rows at 2 mW, and those at 4 mW, which the 6 mW rows
    # repeat; the two 0 mW uniform rows are all-zero and make no call
    assert [n for _, n in calls] == [3] * 5
    assert all(b.max() == 1.0 for b, _ in calls)
    assert len({b.tobytes() for b, _ in calls}) == 5
    idle = ((np.array(res.columns["rf_level_w"]) == 0.0)
            & (np.array(res.columns["allocation"]) == "uniform"))
    assert idle.sum() == 2
    assert np.all(np.array(res.columns["mean_power_w"])[idle] == 0.0)
    assert np.all(np.array(res.columns["trials_ok"])[idle] == 3)


def test_rf_power_stall_fails_its_draw_in_every_sharing_row(scenario, monkeypatch):
    def stall_draw_1_of_uniform(b, out):
        if np.all(b == 1.0):
            out[1] = SolverStallError("injected")
        return out

    _count_batches(monkeypatch, stall_draw_1_of_uniform)
    res = exp_rf_power(scenario, trials=3)
    uniform = ((np.array(res.columns["allocation"]) == "uniform")
               & (np.array(res.columns["rf_level_w"]) > 0.0))
    fails = np.array(res.columns["solver_failures"])
    ok = np.array(res.columns["trials_ok"])
    assert uniform.sum() == 6
    assert np.all(fails[uniform] == 1) and np.all(ok[uniform] == 2)
    assert np.all(fails[~uniform] == 0)


def test_rf_power_counts_rejected_solver_output(scenario, monkeypatch):
    import attocell.beamforming as beamforming
    core = beamforming._primal_dual

    def corrupted(h, b, tol):
        out = core(h, b, tol)
        w = out[0][0].copy()
        w[0, 1] += 1.0
        return [(w, *out[0][1:])] + out[1:]

    monkeypatch.setattr(beamforming, "_primal_dual", corrupted)
    res = exp_rf_power(scenario, rf_levels=[2e-3], trials=2)
    assert res.columns["solver_failures"] == [1, 1, 1, 1]
    assert res.columns["trials_ok"] == [1, 1, 1, 1]


def test_subopt_gap_experiment(scenario):
    res = exp_subopt_gap(scenario, theta_grid=np.array([0.0, 2e-3, 4e-3, 6e-3, 8e-3]))
    _assert_provenance(res, scenario)
    assert res.n_rows == 5
    gaps = np.array(res.columns["gap_db"])
    feas = np.array(res.columns["feasible"], dtype=bool)
    assert feas.any(), "no feasible demand level in sweep"
    assert np.all(gaps[feas] >= -1e-12)
    assert res.meta["max_gap_db"] <= 0.5
    central = np.array(res.columns["messages_centralized"])
    semi = np.array(res.columns["messages_semi"])
    assert np.all(semi[feas] < central[feas])


def test_illuminance_experiment(scenario):
    res = exp_illuminance(scenario, bias=8.5e-3, grid_step=0.5)
    _assert_provenance(res, scenario)
    lux = np.array(res.columns["lux"])
    assert res.n_rows == 11 * 11
    assert np.all(lux >= 0)
    assert res.meta["center_lux"] == pytest.approx(37.6527276824, rel=1e-9)
    assert 0.0 <= res.meta["fraction_above_500"] <= 1.0


def test_experiment_csv_determinism(scenario, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    exp_snr_eh_region(scenario, n_points=5).to_csv(p1)
    exp_snr_eh_region(scenario, n_points=5).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
