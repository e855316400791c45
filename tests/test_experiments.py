import dataclasses
import json

import numpy as np
import pytest

import attocell.experiments as experiments
import attocell.orchestrator as orchestrator
from attocell.beamforming import (build_eh_targets, solve_aggregate_sdp,
                                  solve_aggregate_sdp_batch)
from attocell.channels import build_vlc_matrix, sample_rf_channel
from attocell.cli import EXIT_SOLVER, main
from attocell.energy import vlc_harvested_power, vlc_snr_db
from attocell.errors import InfeasibleError, SolverStallError
from attocell.experiments import (ExperimentResult, exp_eh_allocation,
                                  exp_feasibility_vs_theta, exp_illuminance,
                                  exp_rf_power, exp_snr_eh_region,
                                  exp_subopt_gap)
from attocell.lightwave import solve_op1
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


def _jittered(scenario, k):
    """The scenario with every device moved up to 0.5 m in x and y, draw ``k``."""
    shift = np.random.default_rng(k).uniform(-0.5, 0.5, (len(scenario.devices), 2))
    return dataclasses.replace(scenario, devices=tuple(
        dataclasses.replace(d, position=d.position + np.append(s, 0.0))
        for d, s in zip(scenario.devices, shift)))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_region_rows_equal_scalar_points(scenario):
    for sc in [scenario] + [_jittered(scenario, k) for k in range(1, 6)]:
        matrix = build_vlc_matrix(sc.transmitters, sc.devices)
        res = exp_snr_eh_region(sc)
        cols = res.columns
        assert res.n_rows == 5 * 201
        snr, eh = [], []
        for user, bias in zip(cols["user"], cols["bias_a"]):
            swing = sc.bias.swing_at(bias)
            snr.append(vlc_snr_db(sc.drive, matrix.serving_gains()[user], swing,
                                  sc.noise_power))
            eh.append(vlc_harvested_power(sc.drive, sc.vlc_eh, matrix.gain_sums()[user],
                                          bias))
        assert _bits(cols["snr_db"]) == _bits(snr)
        assert _bits(cols["light_eh_w"]) == _bits(eh)
        top = np.array(cols["bias_a"]) == sc.bias.high
        assert top.sum() == 5 and np.all(np.array(cols["snr_db"])[top] == -np.inf)


def test_feasibility_rows_equal_scalar_solves(scenario):
    """The one-pass grid against a scalar bisection solve per row, bit for
    bit, over the bundled layout and 200 jittered ones."""
    fallback = infeasible = 0
    for k in range(201):
        sc = scenario if k == 0 else _jittered(scenario, k)
        matrix = build_vlc_matrix(sc.transmitters, sc.devices)
        cols = exp_feasibility_vs_theta(sc).columns
        assert cols["theta_w"] == np.tile(experiments.DEFAULT_THETA_GRID, 4).tolist()
        assert cols["rf_cap_w"] == np.repeat(experiments.DEFAULT_RF_LEVELS, 33).tolist()
        sols = [solve_op1(matrix, sc.drive, sc.vlc_eh, sc.bias, sc.noise_power, theta, cap)
                for theta, cap in zip(cols["theta_w"], cols["rf_cap_w"])]
        assert cols["feasible"] == [sol.feasible for sol in sols]
        assert _bits(cols["bias_a"]) == _bits([sol.bias for sol in sols])
        assert _bits(cols["min_snr_db"]) == _bits([sol.min_snr_db for sol in sols])
        fallback += sum(sol.fallback_used for sol in sols)
        infeasible += sum(not sol.feasible for sol in sols)
    assert fallback >= 1 and infeasible >= 1


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
    # record (channel sets, target rows) of every batched SDP call
    calls = []

    def counted(channel_sets, targets, tol=1e-8):
        calls.append((channel_sets, np.asarray(targets, dtype=float)))
        out = solve_aggregate_sdp_batch(channel_sets, targets, tol)
        return inject(channel_sets, calls[-1][1], out) if inject else out

    monkeypatch.setattr(experiments, "solve_aggregate_sdp_batch", counted)
    return calls


def _draw(scenario, trial):
    return sample_rf_channel(scenario.rf_ap, scenario.devices, scenario.rician_factor_db,
                             scenario.path_loss_exponent, scenario.seed ^ trial).outer_products()


def test_rf_power_solves_each_normalized_problem_once(scenario, monkeypatch):
    calls = _count_batches(monkeypatch)
    res = exp_rf_power(scenario, trials=3)
    # one uniform problem (b = 1 at every level and model), the linear and
    # nonlinear optimal rows at 2 mW, and those at 4 mW, which the 6 mW rows
    # repeat; the two 0 mW uniform rows are all-zero and need no instance
    ((channel_sets, rows),) = calls
    assert rows.shape == (5 * 3, 5) and len(channel_sets) == 5 * 3
    assert np.all(rows.max(axis=1) == 1.0)
    draws = [np.asarray(_draw(scenario, t)).tobytes() for t in range(3)]
    pairs = {(row.tobytes(), draws.index(np.asarray(gs).tobytes()))
             for row, gs in zip(rows, channel_sets)}
    assert len(pairs) == 5 * 3
    assert len({row.tobytes() for row in rows}) == 5
    idle = ((np.array(res.columns["rf_level_w"]) == 0.0)
            & (np.array(res.columns["allocation"]) == "uniform"))
    assert idle.sum() == 2
    assert np.all(np.array(res.columns["mean_power_w"])[idle] == 0.0)
    assert np.all(np.array(res.columns["trials_ok"])[idle] == 3)


def test_rf_power_stall_fails_its_draw_in_every_sharing_row(scenario, monkeypatch):
    draw_1 = np.asarray(_draw(scenario, 1))

    def stall_draw_1_of_uniform(channel_sets, rows, out):
        for k, (gs, row) in enumerate(zip(channel_sets, rows)):
            if np.all(row == 1.0) and np.array_equal(gs, draw_1):
                out[k] = SolverStallError("injected")
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
        # the first instance of the uniform problem (b = 1) comes back non-Hermitian
        out = core(h, b, tol)
        uniform = np.flatnonzero(np.all(b == 1.0, axis=1))
        if uniform.size:
            w = out[uniform[0]][0].copy()
            w[0, 1] += 1.0
            out[uniform[0]] = (w, *out[uniform[0]][1:])
        return out

    monkeypatch.setattr(beamforming, "_primal_dual", corrupted)
    res = exp_rf_power(scenario, rf_levels=[2e-3], trials=2)
    assert res.columns["allocation"] == ["uniform", "optimal", "uniform", "optimal"]
    assert res.columns["solver_failures"] == [1, 0, 1, 0]
    assert res.columns["trials_ok"] == [1, 2, 1, 2]


@pytest.mark.parametrize("layout", ["bundled", "jittered"])
def test_rf_power_means_equal_single_solves(scenario, layout):
    if layout == "jittered":
        rng = np.random.default_rng(24)
        devices = tuple(dataclasses.replace(d, position=d.position + np.append(
            rng.uniform(-0.3, 0.3, 2), 0.0)) for d in scenario.devices)
        scenario = dataclasses.replace(scenario, devices=devices)
    levels = [0.0, 2e-3, 4e-3]
    res = exp_rf_power(scenario, rf_levels=levels, trials=3)
    matrix = build_vlc_matrix(scenario.transmitters, scenario.devices)
    expected = []
    for level in levels:
        sol = solve_op1(matrix, scenario.drive, scenario.vlc_eh, scenario.bias,
                        scenario.noise_power, 4e-3, level)
        for model in ("nonlinear", "linear"):
            for harvest in (np.full(len(scenario.devices), level),
                            sol.rf_targets if sol.feasible else None):
                if harvest is None:
                    expected.append(np.nan)
                    continue
                b = (build_eh_targets(harvest, scenario.rf_nonlinear).input_targets
                     if model == "nonlinear" else harvest / scenario.rf_linear.efficiency)
                if b.max() == 0.0:
                    expected.append(0.0)
                    continue
                expected.append(float(np.mean([
                    b.max() * solve_aggregate_sdp(_draw(scenario, t), b / b.max()).objective
                    for t in range(3)])))
    np.testing.assert_array_equal(res.columns["mean_power_w"], expected)
    assert res.columns["solver_failures"] == [0] * len(expected)


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


def test_subopt_gap_is_signed_and_a_closed_form_win_is_a_solver_failure(
        scenario, tmp_path, monkeypatch):
    res = exp_subopt_gap(scenario)
    gaps = np.array(res.columns["gap_db"])
    # the exact bias leaves a gap well under a micro-dB, never below zero
    assert np.all(gaps >= 0.0) and 0.0 < res.meta["max_gap_db"] < 1e-6
    assert res.meta["max_gap_db"] == gaps.max()
    control = experiments.control_semi_decentralized

    def better_closed_form(*args):
        sol, trace = control(*args)
        return dataclasses.replace(sol, min_snr_db=sol.min_snr_db + 1e-6), trace
    monkeypatch.setattr(experiments, "control_semi_decentralized", better_closed_form)
    with pytest.raises(SolverStallError, match="closed form beats the optimal bias"):
        exp_subopt_gap(scenario)
    assert main(["exp", "subopt-gap", "--out-dir", str(tmp_path)]) == EXIT_SOLVER
    assert not list(tmp_path.iterdir())


@pytest.fixture
def failing_ap(monkeypatch):
    def ap_solve(*args):
        raise AssertionError("the AP step ran")
    monkeypatch.setattr(orchestrator, "ap_solve", ap_solve)


def test_subopt_gap_runs_no_ap_step(scenario, failing_ap):
    res = exp_subopt_gap(scenario)
    assert res.n_rows == 20
    assert all(res.columns["feasible"])
    assert set(res.columns["messages_centralized"]) == {145}
    assert set(res.columns["messages_semi"]) == {12}


def test_subopt_gap_infeasible_rows_keep_partial_traces(scenario, failing_ap):
    # a 1 mW cap leaves the upper 11 demands uncovered; each row keeps the
    # failing centralized run's uplink of 140 gain reports
    res = exp_subopt_gap(dataclasses.replace(scenario, rf_exposure_cap=1e-3))
    feas = np.array(res.columns["feasible"], dtype=bool)
    assert feas.tolist() == [True] * 9 + [False] * 11
    for name, want in (("min_snr_db_bisection", -np.inf), ("min_snr_db_closed_form", -np.inf),
                       ("messages_centralized", 140), ("messages_semi", 0)):
        assert [v for v, ok in zip(res.columns[name], feas) if not ok] == [want] * 11
    assert np.isnan(np.array(res.columns["gap_db"])[~feas]).all()


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
