"""Scenario loading, unit handling, and validation.

A scenario file is YAML.  Dimensioned entries accept either a bare
number (interpreted as SI) or a string with a unit suffix such as
"12 mA", "85 cm2", "60 deg".  Everything is resolved to SI floats
before any physics runs.  The scenario hash covers the resolved inputs:
the loaded file with every quantity in SI, plus the seed and a schema
version.  Geometry derived from them (element boresights, devices
placed by bearing) is not hashed, so the digest involves no
trigonometry and is the same on every libm and numpy build.
"""

import hashlib
import json
import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from .energy import BiasLimits, DriveParams, LinearEhParams, NonlinearEhParams, VlcEhParams
from .errors import ScenarioError
from .geometry import (
    Device,
    OpticalTransmitter,
    Photodetector,
    RfAccessPoint,
    build_angle_diversity_layout,
)

__all__ = ["parse_quantity", "Scenario", "load_scenario", "default_scenario", "scenario_hash"]

SCHEMA = 1  # bump when the same file starts resolving to a different scenario

_UNIT_SCALE = {
    "": 1.0,
    "A": 1.0, "mA": 1e-3, "uA": 1e-6,
    "W": 1.0, "mW": 1e-3, "uW": 1e-6,
    "V": 1.0, "mV": 1e-3,
    "rad": 1.0, "deg": np.pi / 180.0,
    "m": 1.0, "cm": 1e-2, "mm": 1e-3,
    "m2": 1.0, "cm2": 1e-4, "mm2": 1e-6,
}

# libyaml's parser when PyYAML was built with it; it builds the same
# tree as the pure-Python SafeLoader, several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_QTY_RE = re.compile(
    r"^\s*([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z2]*)\s*$")


def parse_quantity(value):
    """Resolve a number or 'value unit' string to a finite SI float."""
    if isinstance(value, (int, float)):
        return _number(value)
    if not isinstance(value, str):
        raise ScenarioError(f"cannot parse quantity from {value!r}")
    m = _QTY_RE.match(value)
    if not m:
        raise ScenarioError(f"malformed quantity {value!r}")
    num, unit = m.groups()
    if unit not in _UNIT_SCALE:
        raise ScenarioError(f"unknown unit {unit!r} in {value!r}")
    return _number(float(num) * _UNIT_SCALE[unit])


def _number(value):
    """``float(value)``, refusing NaN and infinities."""
    number = float(value)
    if not math.isfinite(number):
        raise ScenarioError(f"{value!r} is not finite")
    return number


def _list(value):
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _integer(value):
    """``int(value)``, refusing a bool or a number with a fractional part
    instead of truncating it."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _qty_list(values):
    return [parse_quantity(v) for v in _list(values)]


def _position(value):
    """A point as three finite lengths."""
    pos = np.asarray(_qty_list(value), dtype=float)
    if pos.shape != (3,):
        raise ValueError(f"a position needs three lengths, got {value!r}")
    return pos


def _inside(pos, room, what):
    """``pos``, refused unless it lies in the room, walls included."""
    if np.any(pos < 0) or np.any(pos > room):
        raise ScenarioError(f"{what} at {pos} outside the room")
    return pos


def _decibels(value):
    """A finite dB figure whose linear ratio 10^(dB/10) is finite too."""
    db = _number(value)
    try:
        10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{value!r} dB overflows as a linear ratio") from None
    return db


def _mapping(node, where):
    if not isinstance(node, dict):
        raise ScenarioError(f"{where} must be a mapping, got {node!r}")
    return node


def _require(cfg, key, where, kind=None):
    """``cfg[key]``, passed through ``kind`` if given; a wrong shape or a
    bad quantity names the key."""
    if key not in _mapping(cfg, where):
        raise ScenarioError(f"missing key {key!r} in {where}")
    if kind is None:
        return cfg[key]
    try:
        return kind(cfg[key])
    except (TypeError, ValueError, OverflowError, ScenarioError) as exc:
        raise ScenarioError(f"{key!r} in {where}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """Fully resolved deployment ready for the solvers."""

    seed: int
    room_size: np.ndarray
    transmitters: tuple
    devices: tuple
    drive: DriveParams
    bias: BiasLimits
    vlc_eh: VlcEhParams
    rf_ap: RfAccessPoint
    rician_factor_db: float
    path_loss_exponent: float
    rf_exposure_cap: float
    rf_nonlinear: NonlinearEhParams
    rf_linear: LinearEhParams
    noise_power: float
    efficacy: float
    hash: str  # scenario_hash of the resolved inputs, fixed at build


def scenario_hash(canonical):
    """Short stable digest of a scenario's resolved inputs."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _resolved(node):
    """``node`` with every quantity leaf resolved to its SI float."""
    if isinstance(node, dict):
        return {str(k): _resolved(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_resolved(v) for v in node]
    try:
        return parse_quantity(node)
    except (ScenarioError, OverflowError):
        return node  # not a quantity: hashed as written


def _resolve(cfg):
    seed = _require(cfg, "seed", "scenario", _integer) if "seed" in cfg else 0
    if seed < 0:
        raise ScenarioError(f"seed must be nonnegative, got {seed}")
    room = np.asarray(_require(_require(cfg, "room", "scenario"), "size", "room", _qty_list),
                      dtype=float)
    if room.shape != (3,) or np.any(room <= 0):
        raise ScenarioError("room size must be three positive lengths")

    opt = _require(cfg, "optical", "scenario")
    positions = _require(opt, "transmitters", "optical", lambda ps: [_position(p) for p in _list(ps)])
    if not positions:
        raise ScenarioError("scenario has no transmitters")
    n_el = _require(opt, "elements_per_transmitter", "optical", _integer)
    semiangle = _require(opt, "semiangle", "optical", parse_quantity)
    tilt = _require(opt, "ring_tilt", "optical", parse_quantity)
    offsets = _require(opt, "ring_azimuth_offsets", "optical", _qty_list)
    if len(offsets) != len(positions):
        raise ScenarioError("need one ring azimuth offset per transmitter")
    bias = BiasLimits(_require(opt, "bias_low", "optical", parse_quantity),
                      _require(opt, "bias_high", "optical", parse_quantity))
    efficacy = _require(opt, "efficacy", "optical", _number)

    det_cfg = _require(cfg, "detector", "scenario")
    detector = Photodetector(
        area=_require(det_cfg, "area", "detector", parse_quantity),
        fov=_require(det_cfg, "fov", "detector", parse_quantity),
        refractive_index=_require(det_cfg, "refractive_index", "detector", _number),
    )
    drive = DriveParams(
        responsivity=_require(det_cfg, "responsivity", "detector", parse_quantity),
        leds_per_color=_require(opt, "leds_per_color", "optical", _integer),
        led_voltage=_require(opt, "led_voltage", "optical", parse_quantity),
    )

    transmitters = []
    for pos, off in zip(positions, offsets):
        _inside(pos, room, "transmitter")
        transmitters.append(OpticalTransmitter(
            pos, build_angle_diversity_layout(n_el, tilt, off), semiangle))

    devices = []
    for k, dev_cfg in enumerate(_require(cfg, "devices", "scenario", _list)):
        if "position" in _mapping(dev_cfg, f"device {k}"):
            pos = _require(dev_cfg, "position", f"device {k}", _position)
        else:
            # shorthand: distance and compass bearing from a transmitter
            ti = _require(dev_cfg, "transmitter", f"device {k}", _integer)
            if not (0 <= ti < len(transmitters)):
                raise ScenarioError(f"device {k} references transmitter {ti}")
            dist = _require(dev_cfg, "distance", f"device {k}", parse_quantity)
            bearing = _require(dev_cfg, "bearing", f"device {k}", parse_quantity)
            height = (_require(dev_cfg, "height", f"device {k}", parse_quantity)
                      if "height" in dev_cfg else 1.0)
            drop = transmitters[ti].position[2] - height
            if dist < drop:
                raise ScenarioError(f"device {k} distance {dist} shorter than the vertical drop")
            r = np.sqrt(dist * dist - drop * drop)
            pos = transmitters[ti].position + np.array(
                [r * np.cos(bearing), r * np.sin(bearing), -drop])
        _inside(pos, room, f"device {k}")
        devices.append(Device(position=pos, detector=detector))
    if not devices:
        raise ScenarioError("scenario has no devices")

    eh_cfg = _require(cfg, "vlc_harvest", "scenario")
    vlc_eh = VlcEhParams(
        fill_factor=_require(eh_cfg, "fill_factor", "vlc_harvest", _number),
        thermal_voltage=_require(eh_cfg, "thermal_voltage", "vlc_harvest", parse_quantity),
        dark_current=_require(eh_cfg, "dark_current", "vlc_harvest", parse_quantity),
    )

    rf_cfg = _require(cfg, "rf", "scenario")
    rf_ap = RfAccessPoint(
        position=_inside(_require(rf_cfg, "access_point", "rf", _position), room, "access_point"),
        antennas=_require(rf_cfg, "antennas", "rf", _integer),
    )
    rician = _require(rf_cfg, "rician_factor_db", "rf", _decibels)
    ple = _require(rf_cfg, "path_loss_exponent", "rf", _number)
    cap = _require(rf_cfg, "exposure_cap", "rf", parse_quantity)
    if cap <= 0:
        raise ScenarioError("rf exposure cap must be positive")

    rfh_cfg = _require(cfg, "rf_harvest", "scenario")
    rf_nonlinear = NonlinearEhParams(
        max_harvest=_require(rfh_cfg, "max_harvest", "rf_harvest", parse_quantity),
        steepness=_require(rfh_cfg, "steepness", "rf_harvest", _number),
        turn_on=_require(rfh_cfg, "turn_on", "rf_harvest", parse_quantity),
    )
    rf_linear = LinearEhParams(efficiency=_require(rfh_cfg, "linear_efficiency", "rf_harvest", _number))

    noise = _require(cfg, "noise_power", "scenario", parse_quantity)
    if noise <= 0:
        raise ScenarioError("noise power must be positive")

    return Scenario(
        seed=seed, room_size=room, transmitters=tuple(transmitters), devices=tuple(devices),
        drive=drive, bias=bias, vlc_eh=vlc_eh, rf_ap=rf_ap, rician_factor_db=rician,
        path_loss_exponent=ple, rf_exposure_cap=cap, rf_nonlinear=rf_nonlinear,
        rf_linear=rf_linear, noise_power=noise, efficacy=efficacy,
        hash=scenario_hash(dict(_resolved(cfg), schema=SCHEMA, seed=seed)),
    )


def _parse(source, seed):
    """The one parse step for scenario YAML, bundled text or a user's open file."""
    try:
        cfg = yaml.load(source, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"invalid YAML: {exc}") from exc
    _mapping(cfg, "scenario root")
    if seed is not None:
        cfg = dict(cfg, seed=int(seed))
    return _resolve(cfg)


def load_scenario(path, seed=None):
    """Read and resolve a YAML scenario file; ``seed`` overrides the file's."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse(fh, seed)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8: {exc}") from exc


def default_scenario(seed=None):
    """The bundled four-cell reference deployment."""
    return _parse(resources.files("attocell").joinpath("data/default_scenario.yaml")
                  .read_text(), seed)
