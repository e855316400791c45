import copy
import dataclasses
import datetime
from importlib import resources

import numpy as np
import pytest
import yaml

import attocell.scenario
from attocell.cli import EXIT_CONFIG, main
from attocell.errors import ScenarioError
from attocell.scenario import (_resolve, default_scenario, load_scenario,
                               parse_quantity, scenario_hash)

FROZEN_HASH = "a56744421fd35ba1"


def test_parse_quantity_units():
    assert parse_quantity("5 mA") == pytest.approx(5e-3, rel=1e-15)
    assert parse_quantity("2mW") == pytest.approx(2e-3, rel=1e-15)
    assert parse_quantity("17 deg") == pytest.approx(np.deg2rad(17.0), rel=1e-15)
    assert parse_quantity("1 cm2") == pytest.approx(1e-4, rel=1e-15)
    assert parse_quantity("250 mV") == pytest.approx(0.25, rel=1e-15)
    assert parse_quantity(3) == 3.0
    assert parse_quantity(2.5e-3) == 2.5e-3
    assert parse_quantity("1.2e-3") == 1.2e-3


def test_parse_quantity_rejects_garbage():
    for bad in ("five mA", "5 furlongs", "", None, [1, 2]):
        with pytest.raises(ScenarioError):
            parse_quantity(bad)


def test_default_scenario_shape(scenario):
    assert len(scenario.transmitters) == 4
    assert len(scenario.devices) == 5
    assert all(t.boresights.shape == (7, 3) for t in scenario.transmitters)
    assert scenario.rf_ap.antennas == 6
    assert scenario.room_size.tolist() == [5.0, 5.0, 3.0]


def test_hash_is_a_field_fixed_at_build():
    fields = {f.name: f.type for f in dataclasses.fields(attocell.scenario.Scenario)}
    assert fields["hash"] is str
    assert "canonical" not in fields


def test_default_scenario_hash_frozen(scenario):
    assert scenario.hash == FROZEN_HASH


def test_hash_is_order_insensitive():
    a = scenario_hash({"x": 1, "y": [2.0, 3.0]})
    b = scenario_hash({"y": [2.0, 3.0], "x": 1})
    assert a == b
    assert scenario_hash({"x": 1, "y": [2.0, 3.5]}) != a


def test_device_positions_frozen(scenario):
    want = np.array([
        [1.18180194847, 1.18180194847, 1.0],
        [0.859687576257, 3.5, 1.0],
        [3.5, 3.5, 1.0],
        [3.97544715795, 1.02455284205, 1.0],
        [1.09601980247, 1.09601980247, 1.0],
    ])
    got = np.array([d.position for d in scenario.devices])
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)


def test_seed_override_changes_seed_and_hash(scenario):
    other = default_scenario(seed=scenario.seed + 1)
    assert other.seed == scenario.seed + 1
    assert other.hash != scenario.hash
    # geometry is untouched by the seed
    np.testing.assert_array_equal(other.devices[0].position,
                                  scenario.devices[0].position)


def _same(a, b):
    """Field-by-field equality of resolved scenario values, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


def test_load_scenario_matches_bundled(tmp_path):
    text = resources.files("attocell").joinpath("data/default_scenario.yaml").read_text()
    path = tmp_path / "scn.yaml"
    path.write_text(text)
    for seed in (None, 0, 12345):
        loaded, bundled = load_scenario(path, seed=seed), default_scenario(seed=seed)
        assert loaded.hash == bundled.hash
        assert _same(loaded, bundled)
    assert loaded.seed == 12345


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nope.yaml")


# the pure-Python loader, and libyaml's where PyYAML was built with it
LOADERS = [yaml.SafeLoader] + [yaml.CSafeLoader] * hasattr(yaml, "CSafeLoader")


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_invalid_yaml_error_names_the_file(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr(attocell.scenario, "_LOADER", loader)
    path = tmp_path / "broken.yaml"
    path.write_text("room: [1\n")
    with pytest.raises(ScenarioError, match=r"(?s)invalid YAML.*broken\.yaml"):
        load_scenario(path)
    assert main(["scenario", "validate", "--config", str(path)]) == EXIT_CONFIG
    assert "broken.yaml" in capsys.readouterr().err


def test_loaders_resolve_the_same_scenario(tmp_path, monkeypatch):
    cfg = _bundled_cfg()
    rng = np.random.default_rng(7)
    positions = np.array([d.position for d in default_scenario().devices])
    positions[:, :2] += rng.uniform(-0.5, 0.5, (len(positions), 2))
    cfg["devices"] = [{"position": [float(v) for v in p]} for p in positions]
    layout = tmp_path / "layout.yaml"
    layout.write_text(yaml.safe_dump(cfg))
    bundled = tmp_path / "bundled.yaml"
    bundled.write_text(resources.files("attocell").joinpath(
        "data/default_scenario.yaml").read_text())
    hashes = set()
    for loader in LOADERS:
        monkeypatch.setattr(attocell.scenario, "_LOADER", loader)
        hashes.add((load_scenario(bundled).hash, load_scenario(layout).hash))
    assert len(hashes) == 1
    assert hashes.pop()[0] == FROZEN_HASH


def test_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin.yaml"
    path.write_bytes(b"room: \xff\n")
    with pytest.raises(ScenarioError, match=r"latin\.yaml.*not UTF-8"):
        load_scenario(path)
    assert main(["scenario", "validate", "--config", str(path)]) == EXIT_CONFIG
    assert "latin.yaml" in capsys.readouterr().err


def _bundled_cfg():
    text = resources.files("attocell").joinpath("data/default_scenario.yaml").read_text()
    return yaml.safe_load(text)


def _resolve_raises(cfg, match=None):
    from attocell.scenario import _resolve
    with pytest.raises(ScenarioError, match=match):
        _resolve(cfg)


def test_validation_inverted_bias_range():
    cfg = _bundled_cfg()
    cfg["optical"]["bias_low"] = "12 mA"
    cfg["optical"]["bias_high"] = "2 mA"
    with pytest.raises((ScenarioError, ValueError)):
        from attocell.scenario import _resolve
        _resolve(cfg)


def test_validation_device_outside_room():
    cfg = _bundled_cfg()
    cfg["devices"][0] = {"position": [9.0, 9.0, 1.0]}
    _resolve_raises(cfg, match="outside the room")


def test_validation_distance_shorter_than_drop():
    cfg = _bundled_cfg()
    cfg["devices"][0] = {"transmitter": 0, "distance": "0.5 m", "bearing": "0 deg"}
    _resolve_raises(cfg, match="vertical drop")


def test_validation_missing_section():
    cfg = _bundled_cfg()
    del cfg["rf"]
    _resolve_raises(cfg, match="missing key")


def test_validation_nonpositive_cap():
    cfg = _bundled_cfg()
    cfg["rf"]["exposure_cap"] = "0 mW"
    _resolve_raises(cfg, match="cap")


def _leaves(node, path=()):
    """(path, value) for every scalar of a loaded YAML tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path, node
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _with_leaf(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _alternatives(value):
    """Other values a leaf could take, each in the leaf's own notation."""
    if isinstance(value, str):
        num, _, unit = value.partition(" ")
        return [f"{x!r} {unit}" for x in _alternatives(float(num))]
    return [value + 1, value - 1, value * 1.01, value * 0.99]


def test_hash_ignores_last_ulp_of_derived_geometry(monkeypatch, scenario):
    build = attocell.scenario.build_angle_diversity_layout

    def nudged(*args):
        return np.nextafter(build(*args), np.inf)

    monkeypatch.setattr(attocell.scenario, "build_angle_diversity_layout", nudged)
    other = default_scenario()
    moved = [not np.array_equal(a, b)
             for ta, tb in zip(other.transmitters, scenario.transmitters)
             for a, b in zip(ta.boresights, tb.boresights)]
    assert all(moved) and len(moved) == 28
    assert other.hash == scenario.hash


def test_hash_sees_si_values_not_notation(scenario):
    cfg = _bundled_cfg()
    quantities = [(path, v) for path, v in _leaves(cfg) if isinstance(v, str)]
    assert len(quantities) == 22
    for path, v in quantities:
        cfg = _with_leaf(cfg, path, parse_quantity(v))
    assert _resolve(cfg).hash == scenario.hash


def test_every_input_leaf_moves_the_hash(scenario):
    cfg = _bundled_cfg()
    leaves = list(_leaves(cfg))
    assert len(leaves) == 67
    for path, value in leaves:
        for alt in _alternatives(value):
            try:
                other = _resolve(_with_leaf(cfg, path, alt))
            except (ScenarioError, ValueError):
                continue
            assert other.hash != scenario.hash, path
            break
        else:
            pytest.fail(f"no valid alternative value for leaf {path}")


def test_keys_the_resolver_ignores_still_load(scenario):
    cfg = _bundled_cfg()
    cfg["notes"] = {"version": "1.2.3", "dot": ".", "label": "5 furlongs",
                    "when": datetime.date(2026, 10, 18), "big": 10 ** 400,
                    "blob": b"raw", 1: "int key", "flag": True, "none": None}
    assert _resolve(cfg).hash != scenario.hash
    for bad in ("1.2.3 mA", "."):
        with pytest.raises(ScenarioError, match="malformed"):
            parse_quantity(bad)
