import numpy as np
import pytest

from attocell.channels import build_vlc_matrix
from attocell.geometry import Device, Photodetector
from attocell.illumination import (element_luminous_flux, illuminance_map)


def test_element_flux_reference(scenario):
    # 90 lm/W * 3 * 40 * 2.25 V * 8.5 mA
    flux = element_luminous_flux(scenario.drive, 8.5e-3, scenario.efficacy)
    assert flux == pytest.approx(206.55, rel=1e-12)


def test_element_flux_linear_in_bias(scenario):
    f1 = element_luminous_flux(scenario.drive, 3e-3, scenario.efficacy)
    f2 = element_luminous_flux(scenario.drive, 6e-3, scenario.efficacy)
    assert f2 == pytest.approx(2 * f1, rel=1e-14)


def _default_map(scenario, bias=8.5e-3, step=0.1):
    return illuminance_map(scenario.transmitters, scenario.drive, bias,
                           scenario.efficacy, scenario.room_size,
                           grid_step=step)


def test_center_illuminance_reference(scenario):
    m = _default_map(scenario)
    assert m.at(2.5, 2.5) == pytest.approx(37.6527276824, rel=1e-10)


def test_grid_contains_center_node(scenario):
    m = _default_map(scenario)
    assert np.any(np.isclose(m.xs, 2.5))
    assert np.any(np.isclose(m.ys, 2.5))
    assert m.values.shape == (len(m.ys), len(m.xs))


def test_map_linear_in_bias(scenario):
    m1 = _default_map(scenario, bias=4e-3)
    m2 = _default_map(scenario, bias=8e-3)
    np.testing.assert_allclose(m2.values, 2 * m1.values, rtol=1e-12)


def test_fraction_above_bounds(scenario):
    m = _default_map(scenario)
    assert m.fraction_above(-1.0) == 1.0
    assert m.fraction_above(1e9) == 0.0
    frac = m.fraction_above(20.0)
    assert 0.0 < frac < 1.0


def test_total_flux_below_emitted(scenario):
    # plane capture can never exceed what the elements emit
    m = _default_map(scenario)
    emitted = (len(scenario.transmitters) * len(scenario.transmitters[0].boresights)
               * element_luminous_flux(scenario.drive, 8.5e-3, scenario.efficacy))
    # flux landing on the plane by the trapezoid rule
    landed = np.trapezoid(np.trapezoid(m.values, m.xs, axis=1), m.ys)
    assert 0.0 < landed < emitted


def test_values_nonnegative(scenario):
    m = _default_map(scenario, step=0.25)
    assert np.all(m.values >= 0.0)


def test_gain_tensor_matches_illuminance_map(scenario):
    # a bare detector (index 1, hemispherical FOV) has concentrator gain 1,
    # so the summed gain per unit area is the illuminance per unit flux
    bare = Photodetector(area=1e-4, fov=np.pi / 2, refractive_index=1.0)
    m = _default_map(scenario, step=0.5)
    nodes = [(0, 0), (5, 5), (2, 8), (10, 10), (7, 3), (10, 0)]
    devices = [Device(position=np.array([m.xs[j], m.ys[i], 0.0]), detector=bare)
               for i, j in nodes]
    gains = build_vlc_matrix(scenario.transmitters, devices).gains
    flux = element_luminous_flux(scenario.drive, 8.5e-3, scenario.efficacy)
    expect = np.array([m.values[i, j] for i, j in nodes]) / flux
    np.testing.assert_allclose(gains.sum(axis=(0, 1)) / bare.area, expect, rtol=1e-12)
