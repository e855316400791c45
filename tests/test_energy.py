import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attocell.energy import (BiasLimits, DriveParams, NonlinearEhParams,
                             VlcEhParams, generated_current, nonlinear_eh,
                             nonlinear_eh_inverse, open_circuit_voltage,
                             vlc_harvested_power, vlc_snr, vlc_snr_db)
from attocell.errors import TargetUnreachableError

DRIVE = DriveParams(responsivity=0.4, leds_per_color=40, led_voltage=2.25)
LIMITS = BiasLimits(low=2e-3, high=12e-3)
VLC_EH = VlcEhParams(fill_factor=0.75, thermal_voltage=25e-3, dark_current=1e-9)
RECT = NonlinearEhParams(max_harvest=24e-3, steepness=150.0, turn_on=14e-3)


def test_conversion_factor():
    assert DRIVE.conversion == pytest.approx(36.0, rel=1e-15)


def test_bias_limits_derived_points():
    assert LIMITS.midpoint == pytest.approx(7e-3, rel=1e-15)
    assert LIMITS.swing_at(9e-3) == pytest.approx(3e-3, rel=1e-12)
    assert LIMITS.swing_at(LIMITS.high) == pytest.approx(0.0, abs=1e-18)


def test_bias_limits_reject_inverted_range():
    with pytest.raises(Exception):
        BiasLimits(low=12e-3, high=2e-3)


def test_swing_rejects_bias_below_midpoint():
    with pytest.raises(ValueError):
        LIMITS.swing_at(6e-3)


def test_snr_reference_point():
    # strongest bundled device at the swing-maximizing bias
    gain = 0.0167553798163
    assert vlc_snr(DRIVE, gain, 5e-3, 1e-15) == pytest.approx(
        9.09606519034e9, rel=1e-11)
    assert vlc_snr_db(DRIVE, gain, 5e-3, 1e-15) == pytest.approx(
        99.58853564, rel=1e-10)


def test_snr_zero_swing_sentinel():
    assert vlc_snr(DRIVE, 0.01, 0.0, 1e-15) == -np.inf
    assert vlc_snr_db(DRIVE, 0.01, 0.0, 1e-15) == -np.inf


@given(st.floats(min_value=1e-4, max_value=0.1),
       st.floats(min_value=1e-4, max_value=5e-3))
def test_snr_quadratic_in_gain_and_swing(gain, swing):
    base = vlc_snr(DRIVE, gain, swing, 1e-15)
    assert vlc_snr(DRIVE, 2 * gain, swing, 1e-15) == pytest.approx(4 * base, rel=1e-9)
    assert vlc_snr(DRIVE, gain, 2 * swing, 1e-15) == pytest.approx(4 * base, rel=1e-9)


def test_harvest_chain_reference_point():
    ig = generated_current(DRIVE, 0.02, 12e-3)
    assert ig == pytest.approx(0.02592, rel=1e-14)
    voc = open_circuit_voltage(VLC_EH, ig)
    assert voc == pytest.approx(0.42676313670071, rel=1e-12)
    assert vlc_harvested_power(DRIVE, VLC_EH, 0.02, 12e-3) == pytest.approx(
        0.0082962753774619, rel=1e-12)


def test_open_circuit_voltage_rejects_negative_current():
    with pytest.raises(ValueError):
        open_circuit_voltage(VLC_EH, -1e-6)


@given(st.floats(min_value=1e-4, max_value=0.05),
       st.floats(min_value=2.1e-3, max_value=11.9e-3))
def test_harvest_monotone_in_bias(gain_sum, bias):
    lo = vlc_harvested_power(DRIVE, VLC_EH, gain_sum, bias)
    hi = vlc_harvested_power(DRIVE, VLC_EH, gain_sum, bias * 1.01)
    assert hi > lo


def test_nonlinear_eh_reference_points():
    assert nonlinear_eh(RECT, 0.0) == 0.0  # exact, not approximate
    assert nonlinear_eh(RECT, 14e-3) == pytest.approx(0.0105305228609642, rel=1e-12)
    # strictly below the ceiling while the sigmoid tail is still resolvable
    assert nonlinear_eh(RECT, 0.05) < RECT.max_harvest
    assert nonlinear_eh(RECT, 1.0) <= RECT.max_harvest


def test_nonlinear_eh_inverse_reference_points():
    assert nonlinear_eh_inverse(RECT, 0.0) == 0.0
    assert nonlinear_eh_inverse(RECT, -5e-3) == 0.0
    assert nonlinear_eh_inverse(RECT, 1e-3) == pytest.approx(
        0.00223614040330548, rel=1e-12)
    assert nonlinear_eh_inverse(RECT, 6e-3) == pytest.approx(
        0.00933364568876445, rel=1e-12)


def test_nonlinear_eh_inverse_saturation():
    with pytest.raises(TargetUnreachableError):
        nonlinear_eh_inverse(RECT, RECT.max_harvest)
    with pytest.raises(TargetUnreachableError):
        nonlinear_eh_inverse(RECT, RECT.max_harvest * 1.5)


@settings(max_examples=200)
@given(st.floats(min_value=1e-9, max_value=0.999 * 24e-3))
def test_nonlinear_roundtrip(harvested):
    power = nonlinear_eh_inverse(RECT, harvested)
    back = nonlinear_eh(RECT, power)
    assert abs(back - harvested) <= 1e-12


@given(st.floats(min_value=0.0, max_value=0.04))
def test_nonlinear_eh_bounded_and_monotone(power):
    val = nonlinear_eh(RECT, power)
    assert 0.0 <= val < RECT.max_harvest
    assert nonlinear_eh(RECT, power + 1e-3) > val


@pytest.mark.parametrize("steepness,turn_on", [(1e300, 14e-3), (150.0, 1e300), (1e5, 1.0)])
def test_rectifier_refuses_an_exp_overflow(steepness, turn_on):
    with pytest.raises(ValueError, match="steepness x turn_on"):
        NonlinearEhParams(max_harvest=24e-3, steepness=steepness, turn_on=turn_on)
    # just below the float64 limit of exp() the model still builds and inverts
    params = NonlinearEhParams(max_harvest=24e-3, steepness=709.0, turn_on=1.0)
    assert 0.0 < nonlinear_eh_inverse(params, 12e-3) < 2.0
