import argparse
import contextlib
import csv
import io
import json
import math
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import attocell.beamforming as beamforming
from attocell.beamforming import solve_aggregate_sdp
from attocell.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_SOLVER,
                          build_parser, main)
from attocell.channels import build_vlc_matrix
from attocell.errors import ScenarioError, SolverStallError
from attocell.scenario import default_scenario, load_scenario


def _bundled_cfg():
    return yaml.safe_load(resources.files("attocell").joinpath(
        "data/default_scenario.yaml").read_text())


_DELETE = "<deleted>"


def _set_entry(cfg, path, value):
    """Replace the entry of ``cfg`` at ``path`` by ``value``, or delete it."""
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value


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


def test_solve_infeasible_exit_code(tmp_path, capsys):
    code = main(["solve", "--theta", "50mW", "--out-dir", str(tmp_path)])
    assert code == EXIT_INFEASIBLE
    # the direct mode raises the runners' InfeasibleError, message and all
    cap = default_scenario().rf_exposure_cap
    assert capsys.readouterr().err == (
        f"infeasible: demand 0.05 W not coverable under RF cap {cap} W\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["direct", "centralized", "semi"])
def test_solve_refuses_a_non_finite_solution(tmp_path, capsys, mode):
    # a detector area of 1e300 gives infinite light harvests and min SNR;
    # strict JSON has no Infinity, so solve exits 4 naming the keys and
    # writes nothing
    cfg = _bundled_cfg()
    cfg["detector"]["area"] = 1.0e+300
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["solve", "--theta", "4mW", "--mode", mode, "--config", str(path),
                 "--out-dir", str(out)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: solution.json would hold non-finite ")
    assert "light_harvests_w" in err and "min_snr_db" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["bisection", "closed_form"])
def test_solve_direct_matches_centralized(tmp_path, method):
    direct, central = tmp_path / "direct", tmp_path / "central"
    for mode, out in (("direct", direct), ("centralized", central)):
        assert main(["solve", "--theta", "4mW", "--mode", mode, "--method", method,
                     "--out-dir", str(out)]) == EXIT_OK
    assert ((direct / "solution.json").read_bytes()
            == (central / "solution.json").read_bytes())
    # only the orchestrated modes write a trace
    assert [p.name for p in direct.iterdir()] == ["solution.json"]
    assert (central / "trace_centralized.jsonl").exists()


@pytest.mark.parametrize("routine", ["eigh", "solve"])
def test_numerical_breakdown_is_solver_failure(tmp_path, monkeypatch, routine):
    # eigh factors the channels and every step, solve the Schur system of
    # every step; two devices, so that the solve takes steps
    gs = [np.outer(v, np.conj(v)) for v in ([1.0, 1j], [1.0, 0.5])]
    b = np.array([1e-3, 2e-3])
    assert solve_aggregate_sdp(gs, b).iterations > 0

    def breakdown(*args, **kwargs):
        raise np.linalg.LinAlgError("injected breakdown")
    monkeypatch.setattr(np.linalg, routine, breakdown)
    with pytest.raises(SolverStallError, match="numerical breakdown"):
        solve_aggregate_sdp(gs, b)
    code = main(["solve", "--theta", "4mW", "--out-dir", str(tmp_path)])
    assert code == EXIT_SOLVER


def test_rejected_solver_output_is_solver_failure(tmp_path, monkeypatch):
    # a non-Hermitian W from the core fails PsdMatrix validation: exit 4, not 2
    core = beamforming._primal_dual

    def corrupted(h, b, tol):
        out = core(h, b, tol)
        w = out[0][0].copy()
        w[0, 1] += 1.0
        return [(w, *out[0][1:])] + out[1:]

    monkeypatch.setattr(beamforming, "_primal_dual", corrupted)
    for mode in ("direct", "centralized"):
        code = main(["solve", "--theta", "4mW", "--mode", mode,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_SOLVER


def test_solve_bad_theta_string(tmp_path):
    code = main(["solve", "--theta", "lots", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("value", ["1e999", "-1e999"])
@pytest.mark.parametrize("argv", [
    ["solve", "--theta={value}"],
    ["solve", "--theta", "4mW", "--theta-rf={value}"],
    ["exp", "illuminance", "--bias={value}"],
], ids=["theta", "theta-rf", "bias"])
def test_non_finite_option_is_config_error(tmp_path, capsys, argv, value):
    argv = [arg.format(value=value) for arg in argv]
    assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "inf is not finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("mode", ["centralized", "semi"])
def test_solve_uncoverable_message_as_in_direct_mode(tmp_path, capsys, mode):
    # the control steps refuse with the direct mode's message
    code = main(["solve", "--theta", "50mW", "--mode", mode, "--out-dir", str(tmp_path)])
    assert code == EXIT_INFEASIBLE
    cap = default_scenario().rf_exposure_cap
    assert capsys.readouterr().err == (
        f"infeasible: demand 0.05 W not coverable under RF cap {cap} W\n")


def test_subopt_gap_needs_no_rectifier_headroom(tmp_path):
    # a 5 mW rectifier cannot deliver every RF target, which fails the AP
    # step of solve but not the light-side table
    cfg = _bundled_cfg()
    cfg["rf_harvest"]["max_harvest"] = "5 mW"
    path = tmp_path / "saturating.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = str(tmp_path / "out")
    assert main(["solve", "--theta", "8mW", "--config", str(path),
                 "--out-dir", out]) == EXIT_INFEASIBLE
    assert main(["exp", "subopt-gap", "--config", str(path), "--out-dir", out]) == EXIT_OK
    with open(tmp_path / "out" / "subopt_gap.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 20


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


@pytest.mark.parametrize("experiment,unread", [
    ("feasibility", ["--theta", "3mW", "--trials", "7", "--bias", "1mA", "--points", "3"]),
    ("feasibility", ["--theta", "3mW"]),
    ("feasibility", ["--trials", "7"]),
    ("feasibility", ["--bias", "1mA"]),
    ("feasibility", ["--points", "3"]),
    ("snr-eh-region", ["--theta", "3mW"]),
    ("eh-allocation", ["--points", "3"]),
    ("rf-power", ["--theta-rf", "5mW"]),
    ("subopt-gap", ["--trials", "7"]),
    ("illuminance", ["--theta", "3mW"]),
])
def test_exp_rejects_unread_option(tmp_path, capsys, experiment, unread):
    code = main(["exp", experiment, *unread, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: exp {experiment} does not read "
        f"{', '.join(sorted(unread[::2]))}\n")
    assert not list(tmp_path.iterdir())


def test_exp_options_reach_the_runner(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["exp", "subopt-gap", "--points", "3", "--out-dir", out]) == EXIT_OK
    rows = (tmp_path / "subopt_gap.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 4e-3, 8e-3]
    assert main(["exp", "illuminance", "--bias", "7mA", "--format", "json",
                 "--out-dir", out]) == EXIT_OK
    assert json.loads((tmp_path / "illuminance.json").read_text())["meta"]["bias_a"] == 7e-3
    # unset options leave the runner's own defaults in force
    assert main(["exp", "snr-eh-region", "--out-dir", out]) == EXIT_OK
    assert "n_points=201" in capsys.readouterr().out


@pytest.mark.parametrize("experiment,option,count,named", [
    ("rf-power", "--trials", "0", "trials"),
    ("rf-power", "--trials", "-3", "trials"),
    ("snr-eh-region", "--points", "0", "n_points"),
    ("subopt-gap", "--points", "0", "n_points"),
    ("subopt-gap", "--points", "-1", "n_points"),
])
def test_exp_count_below_one_is_config_error(tmp_path, capsys, experiment, option,
                                            count, named):
    code = main(["exp", experiment, option, count, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert f"{named} must be at least 1, got {count}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    cfg = _bundled_cfg()
    cfg["devices"][4] = {"position": [0.5, 0.5, 3.0]}  # at ceiling height
    path = tmp_path / "unlit.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


OUT = "--out-dir={out}"


@pytest.mark.parametrize("argv", [
    ["solve", "--theta", "4mW", "--mode", "direct", OUT],
    ["solve", "--theta", "4mW", "--mode", "centralized", OUT],
    ["solve", "--theta", "4mW", "--mode", "semi", OUT],
    ["exp", "subopt-gap", "--points", "2", OUT],
    ["channels", "dump", OUT],
    ["scenario", "validate"],
], ids=["direct", "centralized", "semi", "exp", "dump", "validate"])
def test_unlit_device_is_config_error(tmp_path, capsys, unlit_config, argv):
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    code = main(argv + ["--config", unlit_config])
    assert code == EXIT_CONFIG
    assert "device 4 receives no light" in capsys.readouterr().err


# (path to the entry, value it is replaced with, what the error must name)
@pytest.mark.parametrize("path,value,named", [
    pytest.param(("detector",), 5, "detector", id="detector=5"),
    pytest.param(("devices",), 5, "devices", id="devices=5"),
    pytest.param(("devices",), [5], "device 0", id="devices=[5]"),
    pytest.param(("room",), {"size": 5}, "size", id="room.size=5"),
    pytest.param(("rf", "access_point"), 5, "access_point", id="rf.access_point=5"),
    pytest.param(("optical", "ring_azimuth_offsets"), 5, "ring_azimuth_offsets",
                 id="optical.ring_azimuth_offsets=5"),
    pytest.param(("optical", "elements_per_transmitter"), [7], "elements_per_transmitter",
                 id="optical.elements_per_transmitter=[7]"),
    pytest.param(("seed",), [1], "seed", id="seed=[1]"),
    pytest.param(("optical", "semiangle"), [1], "semiangle", id="optical.semiangle=[1]"),
    pytest.param(("devices", 0, "height"), [1], "'height' in device 0",
                 id="devices[0].height=[1]"),
    pytest.param(("rf", "exposure_cap"), "6 furlongs", "exposure_cap",
                 id="rf.exposure_cap=6 furlongs"),
    pytest.param(("rf", "antennas"), 6.9, "'antennas' in rf", id="rf.antennas=6.9"),
    pytest.param(("rf", "antennas"), True, "'antennas' in rf", id="rf.antennas=true"),
    pytest.param(("rf", "antennas"), float("inf"), "'antennas' in rf", id="rf.antennas=inf"),
    pytest.param(("optical", "leds_per_color"), 40.7, "'leds_per_color' in optical",
                 id="optical.leds_per_color=40.7"),
    pytest.param(("optical", "elements_per_transmitter"), 7.5,
                 "'elements_per_transmitter' in optical",
                 id="optical.elements_per_transmitter=7.5"),
    pytest.param(("seed",), True, "'seed' in scenario", id="seed=true"),
    pytest.param(("seed",), 1.5, "'seed' in scenario", id="seed=1.5"),
    pytest.param(("devices", 0, "transmitter"), 0.5, "'transmitter' in device 0",
                 id="devices[0].transmitter=0.5"),
    pytest.param(("devices", 0, "transmitter"), False, "'transmitter' in device 0",
                 id="devices[0].transmitter=false"),
    pytest.param(("rf", "exposure_cap"), float("nan"), "'exposure_cap' in rf",
                 id="rf.exposure_cap=nan"),
    pytest.param(("noise_power",), float("inf"), "'noise_power' in scenario",
                 id="noise_power=inf"),
    pytest.param(("noise_power",), 10 ** 400, "'noise_power' in scenario",
                 id="noise_power=10**400"),
    pytest.param(("optical", "efficacy"), float("nan"), "'efficacy' in optical",
                 id="optical.efficacy=nan"),
    pytest.param(("rf", "rician_factor_db"), float("nan"), "'rician_factor_db' in rf",
                 id="rf.rician_factor_db=nan"),
    pytest.param(("rf", "path_loss_exponent"), float("nan"), "'path_loss_exponent' in rf",
                 id="rf.path_loss_exponent=nan"),
    pytest.param(("rf_harvest", "steepness"), float("-inf"), "'steepness' in rf_harvest",
                 id="rf_harvest.steepness=-inf"),
    pytest.param(("rf_harvest", "max_harvest"), float("inf"), "'max_harvest' in rf_harvest",
                 id="rf_harvest.max_harvest=inf"),
    pytest.param(("vlc_harvest", "dark_current"), float("nan"),
                 "'dark_current' in vlc_harvest", id="vlc_harvest.dark_current=nan"),
    pytest.param(("rf", "access_point"), [2.5, 2.5], "'access_point' in rf",
                 id="rf.access_point=[2.5,2.5]"),
    pytest.param(("rf", "access_point"), [2.5, 2.5, 3, 1], "'access_point' in rf",
                 id="rf.access_point=[2.5,2.5,3,1]"),
    pytest.param(("optical", "transmitters", 0), [1.5, 1.5], "'transmitters' in optical",
                 id="optical.transmitters[0]=[1.5,1.5]"),
    pytest.param(("optical", "transmitters", 0), [1.5, 1.5, 3, 3], "'transmitters' in optical",
                 id="optical.transmitters[0]=[1.5,1.5,3,3]"),
    pytest.param(("devices", 0), {"position": [1, 1]}, "'position' in device 0",
                 id="devices[0].position=[1,1]"),
    pytest.param(("devices", 0), {"position": [1, 1, 1, 1]}, "'position' in device 0",
                 id="devices[0].position=[1,1,1,1]"),
    pytest.param(("seed",), -1, "seed must be nonnegative", id="seed=-1"),
    pytest.param(("rf", "rician_factor_db"), 1e300, "'rician_factor_db' in rf",
                 id="rf.rician_factor_db=1e300"),
])
def test_malformed_structure_is_config_error(tmp_path, capsys, path, value, named):
    cfg = _bundled_cfg()
    _set_entry(cfg, path, value)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    with pytest.raises(ScenarioError, match=named):
        load_scenario(bad)
    assert main(["scenario", "validate", "--config", str(bad)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err


def _options(parser, command=()):
    """{subcommand: its long options} for every leaf command under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            out = {}
            for name, sub in action.choices.items():
                out.update(_options(sub, command + (name,)))
            return out
    return {" ".join(command): {opt for action in parser._actions
                                for opt in action.option_strings
                                if opt.startswith("--") and opt != "--help"}}


def test_each_command_accepts_only_the_options_it_reads():
    scenario = {"--config", "--seed"}
    assert _options(build_parser()) == {
        "scenario validate": scenario,
        "channels dump": scenario | {"--out-dir", "--format"},
        "solve": scenario | {"--out-dir", "--theta", "--theta-rf", "--method", "--mode"},
        "exp": scenario | {"--out-dir", "--format", "--points", "--theta",
                           "--theta-rf", "--trials", "--bias"},
    }


@pytest.mark.parametrize("argv", [
    ["scenario", "validate", "--out-dir", "x"],
    ["scenario", "validate", "--format", "json"],
    ["solve", "--theta", "4mW", "--format", "json"],
], ids=["validate-out-dir", "validate-format", "solve-format"])
def test_options_a_command_ignores_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_successive_calls_share_no_options(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)]
    assert main(["exp", "feasibility", "--theta", "3mW", *out]) == EXIT_CONFIG
    assert main(["exp", "eh-allocation", "--theta", "3mW", *out]) == EXIT_OK
    # the --theta of the call before is not carried into this one
    assert main(["exp", "feasibility", *out]) == EXIT_OK
    assert main(["exp", "illuminance", "--format", "json", *out]) == EXIT_OK
    assert main(["channels", "dump", *out]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eh_allocation.csv", "feasibility_vs_theta.csv", "illuminance.json",
        "rf_channels.csv", "vlc_channels.csv"]


@pytest.mark.parametrize("argv", [
    ["scenario", "validate"],
    ["solve", "--theta", "4mW", OUT],
    ["exp", "illuminance", OUT],
], ids=["validate", "solve", "exp-illuminance"])
def test_empty_transmitter_list_is_config_error(tmp_path, capsys, argv):
    cfg = _bundled_cfg()
    cfg["optical"].update(transmitters=[], ring_azimuth_offsets=[])
    cfg["devices"] = [{"position": [1.0, 1.0, 1.0]}, {"position": [4.0, 4.0, 1.0]}]
    path = tmp_path / "dark.yaml"
    path.write_text(yaml.safe_dump(cfg))
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    assert main(argv + ["--config", str(path)]) == EXIT_CONFIG
    assert "scenario has no transmitters" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (entries replaced, what the error must name): files on which solve exits 2
@pytest.mark.parametrize("edits,named", [
    pytest.param({("devices",): [{"position": [2.5, 2.5, 1.0]}], ("rf", "access_point"):
                  [2.5, 2.5, 1.0]}, "coincides with the access point", id="ap-on-device"),
    pytest.param({("rf", "antennas"): 1e300}, "dimension", id="rf.antennas=1e300"),
    pytest.param({("rf", "access_point"): [2.5, 2.5, 1e300]}, "access_point at",
                 id="rf.access_point-far"),
    pytest.param({("rf", "access_point"): [-1.0, 2.5, 3.0]}, "access_point at",
                 id="rf.access_point-negative"),
    pytest.param({("rf_harvest", "turn_on"): 1e300}, "steepness x turn_on",
                 id="rf_harvest.turn_on=1e300"),
    pytest.param({("rf_harvest", "steepness"): 1e300}, "steepness x turn_on",
                 id="rf_harvest.steepness=1e300"),
])
def test_validate_refuses_what_solve_refuses(tmp_path, capsys, edits, named):
    cfg = _bundled_cfg()
    for path, value in edits.items():
        _set_entry(cfg, path, value)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    for argv in (["scenario", "validate"], ["solve", "--theta", "4mW", "--out-dir", str(tmp_path)]):
        assert main(argv + ["--config", str(bad)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scenario", "validate"],
    ["solve", "--theta", "4mW", OUT],
    ["exp", "feasibility", OUT],
], ids=["validate", "solve", "exp"])
def test_negative_seed_option_is_config_error(tmp_path, capsys, argv):
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    assert main(argv + ["--seed", "-1"]) == EXIT_CONFIG
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


# No count between about 1e4 and 1e300: rf.antennas or elements_per_transmitter
# that large would really be allocated.  1e300 itself is refused before that.
_MUTANTS = (math.nan, math.inf, -math.inf, 0, -1, 1e300, "x", [1], True, _DELETE)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(tuple(_leaf_paths(_bundled_cfg()))), st.sampled_from(_MUTANTS))
# leaves whose 1e300 gives an infinite SNR and harvests, which solve must refuse
@example(("optical", "leds_per_color"), 1e300)
@example(("optical", "led_voltage"), 1e300)
@example(("optical", "bias_high"), 1e300)
@example(("detector", "area"), 1e300)
@example(("detector", "responsivity"), 1e300)
def test_every_leaf_mutation_maps_to_an_exit_code(tmp_path_factory, path, value):
    # any exception escaping main would be a traceback and exit 1 on the command line
    cfg = _bundled_cfg()
    _set_entry(cfg, path, value)
    work = tmp_path_factory.getbasetemp() / "leaf-mutations"
    work.mkdir(exist_ok=True)
    bad = work / "mutant.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    config = ["--config", str(bad)]
    written = work / "solution.json"
    written.unlink(missing_ok=True)  # left by an earlier example
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        validated = main(["scenario", "validate", *config])
        solved = main(["solve", "--theta", "4mW", "--out-dir", str(work), *config])
    assert validated in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_SOLVER)
    assert solved in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_SOLVER)
    if solved == EXIT_CONFIG:
        assert validated == EXIT_CONFIG, (path, value)
    if solved == EXIT_OK:
        # strict JSON: Infinity, -Infinity and NaN are refused
        json.loads(written.read_text(),
                   parse_constant=lambda name: pytest.fail(f"{name} in solution.json"))
