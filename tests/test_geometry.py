import numpy as np
import pytest
from hypothesis import given, strategies as st

from attocell.errors import ScenarioError
from attocell.geometry import (OpticalElement, Photodetector, RfAccessPoint,
                               build_angle_diversity_layout, lambert_mode)

DEG = np.pi / 180.0


def test_lambert_mode_17_degrees():
    # -ln 2 / ln cos(semiangle), high-precision reference
    assert lambert_mode(17 * DEG) == pytest.approx(15.5140637298728, rel=1e-12)


def test_lambert_mode_60_degrees_is_unity():
    assert lambert_mode(60 * DEG) == pytest.approx(1.0, rel=1e-12)


@given(st.floats(min_value=5.0, max_value=80.0))
def test_lambert_mode_halves_power_at_semiangle(semi_deg):
    m = lambert_mode(semi_deg * DEG)
    assert np.cos(semi_deg * DEG) ** m == pytest.approx(0.5, rel=1e-9)


def test_lambert_mode_rejects_degenerate_angles():
    with pytest.raises(ValueError):
        lambert_mode(0.0)
    with pytest.raises(ValueError):
        lambert_mode(np.pi / 2)


def test_angle_diversity_layout_shape():
    elements = build_angle_diversity_layout(7, 40 * DEG, 0.0, 17 * DEG)
    assert len(elements) == 7
    axes = np.array([e.boresight for e in elements])
    # one element straight down, the ring all at the same tilt
    assert np.allclose(axes[0], [0.0, 0.0, -1.0])
    tilts = np.arccos(-axes[1:, 2])
    assert np.allclose(tilts, 40 * DEG)
    # ring azimuths evenly spaced
    az = np.arctan2(axes[1:, 1], axes[1:, 0])
    gaps = np.sort((np.diff(np.sort(az)) + 2 * np.pi) % (2 * np.pi))
    assert np.allclose(gaps, 2 * np.pi / 6)


def test_angle_diversity_azimuth_offset_rotates_ring():
    base = build_angle_diversity_layout(7, 84 * DEG, 0.0, 17 * DEG)
    off = build_angle_diversity_layout(7, 84 * DEG, 30 * DEG, 17 * DEG)
    c, s = np.cos(30 * DEG), np.sin(30 * DEG)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    for eb, eo in zip(base[1:], off[1:]):
        assert np.allclose(rot @ eb.boresight, eo.boresight, atol=1e-12)


def test_element_boresights_are_unit_vectors():
    for e in build_angle_diversity_layout(7, 84 * DEG, 0.3, 17 * DEG):
        assert np.linalg.norm(e.boresight) == pytest.approx(1.0, abs=1e-12)


def test_element_lambert_m_autofilled():
    e = OpticalElement(np.array([0.0, 0.0, -1.0]), 17 * DEG)
    assert e.lambert_m == pytest.approx(lambert_mode(17 * DEG), rel=0)


def test_element_lambert_m_is_not_settable():
    with pytest.raises(TypeError):
        OpticalElement(np.array([0.0, 0.0, -1.0]), 17 * DEG, lambert_m=1.0)


def test_element_rejects_non_unit_boresight():
    with pytest.raises(ScenarioError):
        OpticalElement(np.array([0.0, 0.0, -2.0]), 17 * DEG)


def test_photodetector_validation():
    Photodetector(area=85e-4, fov=60 * DEG, refractive_index=1.5)
    with pytest.raises(ScenarioError):
        Photodetector(area=-1.0, fov=60 * DEG, refractive_index=1.5)
    with pytest.raises(ScenarioError):
        Photodetector(area=85e-4, fov=2.0, refractive_index=1.5)


def test_access_point_needs_antennas():
    with pytest.raises(ScenarioError):
        RfAccessPoint(position=np.zeros(3), antennas=0)
