import json

import numpy as np
import pytest

from attocell.channels import build_vlc_matrix
from attocell.errors import InfeasibleError
from attocell.lightwave import solve_bias_closed_form, solve_op1
from attocell.orchestrator import (ControlMessage, TraceLog, replay,
                                   run_centralized, run_semi_decentralized)
from attocell.scenario import default_scenario

THETA = 4e-3


def test_centralized_message_budget(scenario):
    _, _, trace = run_centralized(scenario, THETA)
    counts = trace.count_by_kind()
    # 5 devices x 4 transmitters x 7 elements of gain reports
    assert counts["channel_report"] == 140
    assert counts["bias_broadcast"] == 4
    assert counts["rf_eh_targets"] == 1
    assert len(trace) == 145


def test_semi_message_budget(scenario):
    _, _, trace = run_semi_decentralized(scenario, THETA)
    counts = trace.count_by_kind()
    assert counts["device_summary"] == 5
    assert counts["worst_user_info"] == 5  # four cells plus the RF AP
    assert counts["bias_report"] == 1
    assert counts["rf_eh_targets"] == 1
    assert len(trace) == 12
    assert "channel_report" not in trace.kinds()


def test_semi_never_uploads_raw_gains(scenario):
    _, _, trace = run_semi_decentralized(scenario, THETA)
    for msg in trace.messages:
        assert msg.kind != "channel_report"
        # a device may send at most two gain scalars, never a matrix
        if msg.kind == "device_summary":
            assert set(msg.payload) == {"serving_gain", "gain_sum",
                                        "serving_transmitter", "serving_element"}


def test_sequence_numbers_strictly_increasing(scenario):
    _, _, trace = run_centralized(scenario, THETA)
    seqs = [m.sequence for m in trace.messages]
    assert seqs == list(range(1, len(trace) + 1))


def test_centralized_matches_direct_solve(scenario, vlc_matrix):
    sol, beams, _ = run_centralized(scenario, THETA)
    direct = solve_op1(vlc_matrix, scenario.drive, scenario.vlc_eh, scenario.bias,
                       scenario.noise_power, THETA, scenario.rf_exposure_cap)
    assert sol.bias == direct.bias
    assert sol.min_snr == direct.min_snr
    np.testing.assert_array_equal(sol.rf_targets, direct.rf_targets)
    assert beams.total_power > 0


def test_semi_matches_centralized_closed_form(scenario):
    sol_s, beams_s, _ = run_semi_decentralized(scenario, THETA)
    sol_c, beams_c, _ = run_centralized(scenario, THETA, method="closed_form")
    assert sol_s.bias == sol_c.bias
    assert sol_s.min_snr_db == sol_c.min_snr_db
    np.testing.assert_array_equal(sol_s.rf_targets, sol_c.rf_targets)
    assert beams_s.total_power == beams_c.total_power


def test_replay_reconstructs_both_modes(scenario):
    for runner in (run_centralized, run_semi_decentralized):
        sol, beams, trace = runner(scenario, THETA)
        sol2, beams2 = replay(trace, scenario)
        assert sol2.bias == sol.bias
        assert sol2.min_snr == sol.min_snr
        np.testing.assert_array_equal(sol2.rf_targets, sol.rf_targets)
        assert beams2.total_power == beams.total_power


def test_jsonl_roundtrip(scenario, tmp_path):
    _, _, trace = run_semi_decentralized(scenario, THETA)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"mode": "semi_decentralized",
                                    "scenario_hash": scenario.hash,
                                    "seed": scenario.seed}
    assert len(lines) == len(trace) + 1
    back = TraceLog.from_jsonl(path)
    assert (back.mode, back.scenario_hash, back.seed) == (
        trace.mode, scenario.hash, scenario.seed)
    assert back.messages == trace.messages
    sol, _ = replay(back, scenario)
    assert sol.feasible


def test_replay_refuses_other_scenario(tmp_path):
    # the hash covers the seed: a trace from seed 101 names another RF draw
    _, _, trace = run_centralized(default_scenario(seed=101), THETA)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    other = default_scenario(seed=102)
    for logged in (trace, TraceLog.from_jsonl(path)):
        with pytest.raises(ValueError, match="scenario"):
            replay(logged, other)


def test_semi_broadcast_recovers_reported_bias(scenario):
    # a cell running the closed form on the broadcast numbers lands on the
    # designated reporter's bias bit for bit
    for theta in np.linspace(0.0, 8e-3, 161):
        _, _, trace = run_semi_decentralized(scenario, float(theta))
        info = trace.select("worst_user_info")[0].payload
        reported = trace.select("bias_report")[0].payload["bias"]
        local = solve_bias_closed_form(scenario.drive, scenario.vlc_eh,
                                       info["gain_sum"], info["light_target"],
                                       scenario.bias)
        assert local == reported, theta


def test_jsonl_rejects_scrambled_sequence(scenario, tmp_path):
    _, _, trace = run_semi_decentralized(scenario, THETA)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="sequence"):
        TraceLog.from_jsonl(path)


def test_trace_byte_determinism(scenario, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_centralized(scenario, THETA)[2].to_jsonl(p1)
    run_centralized(scenario, THETA)[2].to_jsonl(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_infeasible_attaches_partial_trace(scenario):
    with pytest.raises(InfeasibleError) as exc:
        run_centralized(scenario, 50e-3)
    trace = exc.value.trace
    assert trace.count_by_kind()["channel_report"] == 140
    assert "bias_broadcast" not in trace.kinds()
    with pytest.raises(InfeasibleError) as exc:
        run_semi_decentralized(scenario, 50e-3)
    assert len(exc.value.trace) == 5


def test_compare_modes_sweep(scenario):
    grid = np.array([0.0, 2e-3, 4e-3, 6e-3, 8e-3])
    gaps = []
    for theta in grid:
        try:
            sol_c, _, trace_c = run_centralized(scenario, float(theta))
            sol_s, _, trace_s = run_semi_decentralized(scenario, float(theta))
        except InfeasibleError:
            continue
        gaps.append(abs(sol_c.min_snr_db - sol_s.min_snr_db))
        assert len(trace_s) < len(trace_c)
    assert gaps, "no feasible demand level in sweep"
    assert max(gaps) <= 0.5


def test_control_message_record_shape():
    msg = ControlMessage(sequence=1, sender="device:0", receiver="controller",
                        kind="device_summary", payload={"gain_sum": 0.01})
    rec = msg.record()
    assert rec == {"sequence": 1, "sender": "device:0", "receiver": "controller",
                   "kind": "device_summary", "payload": {"gain_sum": 0.01}}


def test_custom_cap_threading(scenario):
    sol, _, _ = run_centralized(scenario, 2e-3, rf_cap=1e-3)
    assert np.all(sol.rf_targets <= 1e-3 + 1e-15)
