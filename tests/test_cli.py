import csv
import json
from importlib import resources

import numpy as np
import pytest
import yaml

from attocell.beamforming import solve_aggregate_sdp
from attocell.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_SOLVER,
                          main)
from attocell.channels import build_vlc_matrix
from attocell.errors import SolverStallError
from attocell.scenario import default_scenario


def test_scenario_validate_default(capsys):
    assert main(["scenario", "validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert default_scenario().hash in out


def test_scenario_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("room:\n  size: [5 m, 5 m]\n")
    assert main(["scenario", "validate", "--config", str(bad)]) == EXIT_CONFIG


def test_scenario_validate_missing_file(tmp_path):
    assert main(["scenario", "validate", "--config",
                 str(tmp_path / "nope.yaml")]) == EXIT_CONFIG


def test_channels_dump(tmp_path):
    assert main(["channels", "dump", "--out-dir", str(tmp_path)]) == EXIT_OK
    files = {p.name for p in tmp_path.iterdir()}
    assert any("vlc" in f for f in files)
    assert any("rf" in f for f in files)


def test_channels_dump_tables(tmp_path):
    assert main(["channels", "dump", "--out-dir", str(tmp_path)]) == EXIT_OK
    sc = default_scenario()
    gains = build_vlc_matrix(sc.transmitters, sc.devices).gains
    with open(tmp_path / "vlc_channels.csv") as fh:
        vlc = list(csv.DictReader(fh))
    assert len(vlc) == gains.size == 140
    for row in vlc:
        want = gains[int(row["transmitter"]), int(row["element"]), int(row["device"])]
        assert row["gain"] == f"{want:.12g}"
        assert row["scenario_hash"] == sc.hash
    with open(tmp_path / "rf_channels.csv") as fh:
        rf = list(csv.DictReader(fh))
    assert len(rf) == 30
    assert {(int(r["device"]), int(r["antenna"])) for r in rf} == {
        (j, a) for j in range(5) for a in range(6)}


def test_solve_direct(tmp_path, capsys):
    code = main(["solve", "--theta", "4mW", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["feasible"] is True
    assert sol["theta_w"] == pytest.approx(4e-3)
    assert "min SNR" in capsys.readouterr().out


def test_solve_unit_suffixes(tmp_path):
    code = main(["solve", "--theta", "4000uW", "--theta-rf", "5mW",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["theta_w"] == pytest.approx(4e-3)
    assert sol["rf_cap_w"] == pytest.approx(5e-3)


def test_solve_infeasible_exit_code(tmp_path):
    code = main(["solve", "--theta", "50mW", "--out-dir", str(tmp_path)])
    assert code == EXIT_INFEASIBLE


@pytest.mark.parametrize("routine", ["cholesky", "solve"])
def test_numerical_breakdown_is_solver_failure(tmp_path, monkeypatch, routine):
    def breakdown(*args, **kwargs):
        raise np.linalg.LinAlgError("injected breakdown")
    monkeypatch.setattr(np.linalg, routine, breakdown)
    g = np.outer([1.0, 1j], [1.0, -1j])
    with pytest.raises(SolverStallError):
        solve_aggregate_sdp([g], np.array([1e-3]))
    code = main(["solve", "--theta", "4mW", "--out-dir", str(tmp_path)])
    assert code == EXIT_SOLVER


def test_solve_bad_theta_string(tmp_path):
    code = main(["solve", "--theta", "lots", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("mode,trace_msgs", [("centralized", 145), ("semi", 12)])
def test_solve_orchestrated_modes(tmp_path, mode, trace_msgs):
    code = main(["solve", "--theta", "4mW", "--mode", mode,
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    trace = (tmp_path / f"trace_{mode}.jsonl").read_text().splitlines()
    assert len(trace) == trace_msgs + 1  # header line plus one per message


def test_solve_orchestrated_infeasible(tmp_path):
    code = main(["solve", "--theta", "50mW", "--mode", "semi",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_INFEASIBLE


def test_exp_eh_allocation(tmp_path):
    code = main(["exp", "eh-allocation", "--theta", "4mW", "--theta-rf", "5mW",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    csvs = list(tmp_path.glob("*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert "rf_optimal_w" in header and "scenario_hash" in header


def test_exp_json_format(tmp_path):
    code = main(["exp", "snr-eh-region", "--points", "5", "--format", "json",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert data["columns"]["user"]


def test_exp_infeasible_exit_code(tmp_path):
    code = main(["exp", "eh-allocation", "--theta", "50mW",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_INFEASIBLE


def test_seed_override_changes_rf(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--theta", "4mW", "--seed", "1",
                 "--out-dir", str(a)]) == EXIT_OK
    assert main(["solve", "--theta", "4mW", "--seed", "2",
                 "--out-dir", str(b)]) == EXIT_OK
    sa = json.loads((a / "solution.json").read_text())
    sb = json.loads((b / "solution.json").read_text())
    # the bias side is seed independent; the RF fading draw is not
    assert sa["bias_a"] == sb["bias_a"]
    assert sa["rf_total_power_w"] != sb["rf_total_power_w"]


@pytest.fixture
def unlit_config(tmp_path):
    cfg = yaml.safe_load(resources.files("attocell").joinpath(
        "data/default_scenario.yaml").read_text())
    cfg["devices"][4] = {"position": [0.5, 0.5, 3.0]}  # at ceiling height
    path = tmp_path / "unlit.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["solve", "--theta", "4mW", "--mode", "direct"],
    ["solve", "--theta", "4mW", "--mode", "centralized"],
    ["solve", "--theta", "4mW", "--mode", "semi"],
    ["exp", "subopt-gap", "--points", "2"],
    ["channels", "dump"],
    ["scenario", "validate"],
], ids=["direct", "centralized", "semi", "exp", "dump", "validate"])
def test_unlit_device_is_config_error(tmp_path, capsys, unlit_config, argv):
    code = main(argv + ["--config", unlit_config, "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "device 4 receives no light" in capsys.readouterr().err
