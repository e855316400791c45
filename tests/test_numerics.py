import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import lambertw

from attocell.numerics import lambert_w0


def test_known_values():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(1.0) == pytest.approx(0.56714329040978387, rel=1e-15)
    assert abs(lambert_w0(np.e) - 1.0) <= 1e-14


def test_residual_over_logspace():
    xs = np.logspace(-6, 6, 500)
    w = lambert_w0(xs)
    res = np.abs(w * np.exp(w) - xs)
    assert np.all(res <= 1e-12 * np.maximum(1.0, xs))


def test_matches_scipy_reference():
    xs = np.logspace(-8, 8, 200)
    ours = lambert_w0(xs)
    ref = lambertw(xs).real
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-15)


def test_array_gives_each_element_its_scalar_bits():
    # c10's grid plus log-uniform draws over eighteen decades
    rng = np.random.default_rng(5)
    xs = np.concatenate([np.logspace(-6, 6, 400), 10.0 ** rng.uniform(-6, 12, 1600)])
    scalar = np.array([lambert_w0(float(x)) for x in xs])
    assert np.array_equal(lambert_w0(xs), scalar)
    assert np.array_equal(lambert_w0(xs.reshape(40, 50)), scalar.reshape(40, 50))


# inputs whose Halley iterates fall into a 2-cycle on the last ulp, with
# the value the full 64 steps end on; the first three end on the cycle's
# current iterate when it is detected, the last two on the next one
CYCLING = [
    ("0x1.86a0000000000p+16", "0x1.291b358a69dadp+3"),  # 1e5
    ("0x1.0b17cc3d0d1d6p+18", "0x1.464da3373ac44p+3"),
    ("0x1.30afc0a24697dp+36", "0x1.608e77e8f963fp+4"),
    ("0x1.1b6c817f22e79p+138", "0x1.6cf8607b727f7p+6"),
    ("0x1.e43a21b1c0709p+91", "0x1.dd01665ebe1d3p+5"),
]


@pytest.mark.parametrize("x,w", CYCLING, ids=[x for x, _ in CYCLING])
def test_last_ulp_cycle_stops_early_with_the_same_bits(monkeypatch, x, w):
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda v: calls.append(v) or exp(v))
    assert lambert_w0(float.fromhex(x)).hex() == w
    assert len(calls) <= 8


def test_scalar_and_array_shapes():
    assert isinstance(lambert_w0(2.0), float)
    out = lambert_w0(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert out.shape == (2, 2)
    assert lambert_w0(np.array([])).shape == (0,)


def test_negative_rejected():
    with pytest.raises(ValueError):
        lambert_w0(-0.1)
    with pytest.raises(ValueError):
        lambert_w0(np.array([1.0, -1e-12]))


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_defining_identity(x):
    w = lambert_w0(x)
    assert w >= 0.0
    assert abs(w * np.exp(w) - x) <= 1e-12 * max(1.0, x)
