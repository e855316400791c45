import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attocell.channels import (VlcChannelMatrix, build_vlc_matrix, lambertian_los,
                               sample_rf_channel)
from attocell.errors import DimensionMismatchError, UnservableDeviceError
from attocell.geometry import (Device, OpticalTransmitter, Photodetector,
                               RfAccessPoint, build_angle_diversity_layout)
from attocell.orchestrator import run_semi_decentralized

DEG = np.pi / 180.0

# reference values recomputed independently at 30-digit precision from
# the bundled deployment geometry
SERVING = np.array([0.0106074733595, 0.00678975718967, 0.0167553798163,
                    0.0062180864748, 0.00810583851962])
SUMS = np.array([0.0110196367788, 0.00728190347223, 0.0170282789216,
                 0.00637272378115, 0.00853010959503])


def _detector():
    return Photodetector(area=85e-4, fov=60 * DEG, refractive_index=1.5)


def _single_tx(position=(0.0, 0.0, 3.0), semiangle=17 * DEG):
    return OpticalTransmitter(position=np.asarray(position),
                              boresights=np.array([[0.0, 0.0, -1.0]]), semiangle=semiangle)


def _gains(tx, *positions, detector=None, helper=None):
    """Gains of the lone element of ``tx`` at each position.

    ``helper``, a second transmitter position, lights devices that ``tx``
    leaves dark, so the tensor stays servable.
    """
    det = detector or _detector()
    devices = [Device(position=np.asarray(p, dtype=float), detector=det) for p in positions]
    transmitters = [tx] if helper is None else [tx, _single_tx(helper)]
    return build_vlc_matrix(transmitters, devices).gains[0, 0]


def test_concentrator_value_and_cutoff():
    # the same spot seen through the concentrator and through a bare detector
    tx = _single_tx()
    bare = Photodetector(area=85e-4, fov=np.pi / 2, refractive_index=1.0)
    inside = (np.tan(10 * DEG), 0.0, 2.0)
    outside = (np.tan(61 * DEG), 0.0, 2.0)
    g = _gains(tx, inside)[0] / _gains(tx, inside, detector=bare)[0]
    assert g == pytest.approx(3.0, rel=1e-12)
    assert _gains(tx, outside, helper=(outside[0], 0.0, 3.0))[0] == 0.0


def test_nadir_gain_closed_form():
    # straight-down element, device directly underneath: both cosines are 1
    tx = _single_tx()
    m = tx.lambert_m
    expect = 85e-4 * (m + 1) / (2 * np.pi * 4.0) * 3.0
    assert _gains(tx, (0.0, 0.0, 1.0))[0] == pytest.approx(expect, rel=1e-12)


@given(st.floats(min_value=0.5, max_value=10.0))
def test_nadir_gain_inverse_square(drop):
    tx = _single_tx()
    gain, ref = _gains(tx, (0.0, 0.0, 3.0 - drop), (0.0, 0.0, 2.0))
    assert gain == pytest.approx(ref / drop**2, rel=1e-9)


def test_gain_zero_outside_detector_fov():
    # horizontal offset beyond drop * tan(fov) puts the incidence outside 60 deg
    tx = _single_tx()
    x = 1.0 * np.tan(61 * DEG)
    assert _gains(tx, (x, 0.0, 2.0), helper=(x, 0.0, 3.0))[0] == 0.0


def test_gain_zero_behind_element():
    tx = _single_tx()
    pattern, _ = lambertian_los(tx, [[0.0, 0.0, 3.5]])
    assert pattern[0, 0] == 0.0


def test_gain_rejects_coincident_positions():
    tx = _single_tx()
    with pytest.raises(ValueError):
        lambertian_los(tx, [[0.0, 0.0, 3.0]])


def test_bundled_layout_gain_summaries(vlc_matrix):
    assert vlc_matrix.gains.shape == (4, 7, 5)
    np.testing.assert_allclose(vlc_matrix.serving_gains(), SERVING, rtol=1e-11)
    np.testing.assert_allclose(vlc_matrix.gain_sums(), SUMS, rtol=1e-11)


def test_all_gains_nonnegative(vlc_matrix):
    assert np.all(vlc_matrix.gains >= 0.0)


def test_serving_assignment_bundled(scenario):
    _, _, trace = run_semi_decentralized(scenario, 4e-3)
    pairs = [[m.payload["serving_transmitter"], m.payload["serving_element"]]
             for m in trace.select("device_summary")]
    # every device is served by the downward element of its nearest cell
    assert pairs == [[0, 0], [1, 0], [2, 0], [3, 0], [0, 0]]


def test_serving_assignment_unservable(scenario):
    # a detector at ceiling height faces no element: cos(psi) = 0
    unlit = Device(position=np.array([0.5, 0.5, 3.0]), detector=_detector())
    devices = (scenario.devices[0], unlit) + scenario.devices[1:]
    with pytest.raises(UnservableDeviceError, match="device 1 receives no light"):
        build_vlc_matrix(scenario.transmitters, devices)


def test_matrix_validation():
    with pytest.raises(DimensionMismatchError):
        VlcChannelMatrix(gains=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        VlcChannelMatrix(gains=-np.ones((1, 1, 1)))


def test_build_matrix_requires_uniform_elements():
    det = _detector()
    t1 = _single_tx()
    t7 = OpticalTransmitter(
        position=np.array([1.0, 0.0, 3.0]),
        boresights=build_angle_diversity_layout(7, 84 * DEG, 0.0), semiangle=17 * DEG)
    dev = Device(position=np.array([0.0, 0.0, 1.0]), detector=det)
    with pytest.raises(DimensionMismatchError):
        build_vlc_matrix([t1, t7], [dev])


# ---------------------------------------------------------------------------
# RF side


def _ap():
    return RfAccessPoint(position=np.array([2.5, 2.5, 3.0]), antennas=6)


def _rf_devices(n=5):
    det = _detector()
    rng = np.random.default_rng(3)
    out = []
    for _ in range(n):
        pos = np.array([rng.uniform(0, 5), rng.uniform(0, 5), 1.0])
        out.append(Device(position=pos, detector=det))
    return out


def test_rf_channel_deterministic_per_seed():
    devs = _rf_devices()
    a = sample_rf_channel(_ap(), devs, 6.0, 2.6, 42)
    b = sample_rf_channel(_ap(), devs, 6.0, 2.6, 42)
    c = sample_rf_channel(_ap(), devs, 6.0, 2.6, 43)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_rf_pure_los_recovers_path_loss():
    # an enormous Rician factor suppresses scatter entirely; the norm is
    # then fixed by the power law and the antenna count
    devs = _rf_devices()
    ch = sample_rf_channel(_ap(), devs, 300.0, 2.6, 0)
    for j, dev in enumerate(devs):
        d = np.linalg.norm(dev.position - _ap().position)
        expect = 6 * d**-2.6
        assert np.vdot(ch.vectors[j], ch.vectors[j]).real == pytest.approx(
            expect, rel=1e-9)


def test_rf_los_phase_ramp_structure():
    devs = _rf_devices()
    ch = sample_rf_channel(_ap(), devs, 300.0, 2.6, 0)
    n_dev = len(devs)
    for j in range(n_dev):
        ratios = ch.vectors[j, 1:] / ch.vectors[j, :-1]
        step = np.exp(1j * np.pi * (2 * j + 1) / (2 * n_dev))
        np.testing.assert_allclose(ratios, step, rtol=1e-9)


def test_rf_mean_power_matches_path_loss():
    # Rician normalization: scattered plus deterministic parts carry unit
    # mean power, so path loss sets the expectation
    devs = _rf_devices(1)
    d = np.linalg.norm(devs[0].position - _ap().position)
    acc = 0.0
    trials = 400
    for s in range(trials):
        ch = sample_rf_channel(_ap(), devs, 6.0, 2.6, s)
        acc += np.vdot(ch.vectors[0], ch.vectors[0]).real
    mean = acc / trials / 6
    assert mean == pytest.approx(d**-2.6, rel=0.08)


def test_outer_products_rank_one_psd():
    ch = sample_rf_channel(_ap(), _rf_devices(), 6.0, 2.6, 7)
    for g, vec in zip(ch.outer_products(), ch.vectors):
        assert np.allclose(g, g.conj().T)
        evals = np.linalg.eigvalsh(g)
        assert evals[-1] == pytest.approx(np.vdot(vec, vec).real, rel=1e-12)
        assert np.all(evals[:-1] < 1e-12 * evals[-1])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_rf_shapes_follow_antenna_count(antennas, seed):
    ap = RfAccessPoint(position=np.array([2.5, 2.5, 3.0]), antennas=antennas)
    ch = sample_rf_channel(ap, _rf_devices(3), 6.0, 2.6, seed)
    assert ch.vectors.shape == (3, antennas)
    assert np.all(np.isfinite(ch.vectors.view(float)))
