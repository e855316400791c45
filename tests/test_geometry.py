import numpy as np
import pytest
from hypothesis import given, strategies as st

from attocell.errors import ScenarioError
from attocell.geometry import (OpticalTransmitter, Photodetector, RfAccessPoint,
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
    axes = build_angle_diversity_layout(7, 40 * DEG, 0.0)
    assert axes.shape == (7, 3)
    # one element straight down, the ring all at the same tilt
    assert np.allclose(axes[0], [0.0, 0.0, -1.0])
    tilts = np.arccos(-axes[1:, 2])
    assert np.allclose(tilts, 40 * DEG)
    # ring azimuths evenly spaced
    az = np.arctan2(axes[1:, 1], axes[1:, 0])
    gaps = np.sort((np.diff(np.sort(az)) + 2 * np.pi) % (2 * np.pi))
    assert np.allclose(gaps, 2 * np.pi / 6)


def test_angle_diversity_azimuth_offset_rotates_ring():
    base = build_angle_diversity_layout(7, 84 * DEG, 0.0)
    off = build_angle_diversity_layout(7, 84 * DEG, 30 * DEG)
    c, s = np.cos(30 * DEG), np.sin(30 * DEG)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(base[1:] @ rot.T, off[1:], atol=1e-12)


def test_layout_keeps_the_bits_of_the_scalar_loop():
    # the per-element construction the array replaced: scalar sin/cos,
    # each ring boresight divided by its np.linalg.norm
    rng = np.random.default_rng(3)
    for m in range(1, 12):
        tilt, off = rng.uniform(0.0, 1.5), rng.uniform(-7.0, 7.0)
        want = [np.array([0.0, 0.0, -1.0])]
        for k in range(m - 1):
            az = off + 2.0 * np.pi * k / (m - 1)
            bore = np.array([np.sin(tilt) * np.cos(az), np.sin(tilt) * np.sin(az),
                             -np.cos(tilt)])
            want.append(bore / np.linalg.norm(bore))
        assert build_angle_diversity_layout(m, tilt, off).tobytes() == np.array(want).tobytes()


def test_single_element_layout_has_no_ring():
    assert build_angle_diversity_layout(1, 40 * DEG, 0.3).tolist() == [[0.0, 0.0, -1.0]]


def test_element_boresights_are_unit_vectors():
    axes = build_angle_diversity_layout(7, 84 * DEG, 0.3)
    assert np.linalg.norm(axes, axis=1) == pytest.approx(np.ones(7), abs=1e-12)


def _transmitter(boresights, **kwargs):
    return OpticalTransmitter(np.array([1.0, 1.0, 3.0]), boresights, 17 * DEG, **kwargs)


def test_transmitter_lambert_m_autofilled():
    tx = _transmitter(build_angle_diversity_layout(7, 40 * DEG, 0.0))
    assert tx.lambert_m == pytest.approx(lambert_mode(17 * DEG), rel=0)


def test_transmitter_lambert_m_is_not_settable():
    with pytest.raises(TypeError):
        _transmitter(np.array([[0.0, 0.0, -1.0]]), lambert_m=1.0)


def test_transmitter_rejects_non_unit_boresight():
    bores = build_angle_diversity_layout(7, 40 * DEG, 0.0)
    bores[3] *= 2.0
    with pytest.raises(ScenarioError, match="unit vectors"):
        _transmitter(bores)


@pytest.mark.parametrize("boresights", [
    np.array([0.0, 0.0, -1.0]),
    np.array([[0.0, -1.0]]),
    np.array([[[0.0, 0.0, -1.0]]]),
], ids=["vector", "two-columns", "three-dims"])
def test_transmitter_rejects_bad_boresight_shape(boresights):
    with pytest.raises(ScenarioError, match="k >= 1, 3"):
        _transmitter(boresights)


def test_transmitter_needs_an_element():
    with pytest.raises(ScenarioError, match="k >= 1, 3"):
        _transmitter(np.zeros((0, 3)))


def test_photodetector_validation():
    Photodetector(area=85e-4, fov=60 * DEG, refractive_index=1.5)
    with pytest.raises(ScenarioError):
        Photodetector(area=-1.0, fov=60 * DEG, refractive_index=1.5)
    with pytest.raises(ScenarioError):
        Photodetector(area=85e-4, fov=2.0, refractive_index=1.5)


def test_access_point_needs_antennas():
    with pytest.raises(ScenarioError):
        RfAccessPoint(position=np.zeros(3), antennas=0)
