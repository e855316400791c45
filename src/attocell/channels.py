"""Optical and RF channel models.

The lightwave link gain follows the generalized Lambertian
line-of-sight model with an ideal non-imaging concentrator; the RF link
is Rician fading with distance power-law path loss.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, UnservableDeviceError
from .geometry import Device, OpticalTransmitter

__all__ = [
    "concentrator_gain",
    "vlc_channel_gain",
    "VlcChannelMatrix",
    "build_vlc_matrix",
    "RfChannelSet",
    "sample_rf_channel",
]


def concentrator_gain(refractive_index, fov, incidence):
    """Optical concentrator gain n^2 / sin^2(fov) inside the field of view.

    Angles in radians; returns 0.0 when ``incidence`` exceeds ``fov``.
    """
    if incidence > fov:
        return 0.0
    return refractive_index**2 / np.sin(fov) ** 2


def vlc_channel_gain(transmitter, element_index, device):
    """Line-of-sight DC gain of one transmitter element at one device.

    h = A (m+1) / (2 pi d^2) cos^m(phi) g(psi) cos(psi) behind an ideal
    optical filter, zero outside the detector field of view or behind
    the element.
    """
    el = transmitter.elements[element_index]
    det = device.detector
    vec = device.position - transmitter.position
    d = np.linalg.norm(vec)
    if d <= 0:
        raise ValueError("device coincides with transmitter")
    ray = vec / d
    cos_phi = float(ray @ el.boresight)
    cos_psi = float(-ray[2])  # detector normal is +z
    if cos_phi <= 0.0 or cos_psi <= 0.0:
        return 0.0
    psi = np.arccos(min(cos_psi, 1.0))
    g = concentrator_gain(det.refractive_index, det.fov, psi)
    if g == 0.0:
        return 0.0
    m = el.lambert_m
    return (det.area * (m + 1.0) / (2.0 * np.pi * d * d)
            * cos_phi**m * g * cos_psi)


@dataclass(frozen=True)
class VlcChannelMatrix:
    """Dense gain tensor indexed (transmitter, element, device)."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 3:
            raise DimensionMismatchError("gains must be (transmitters, elements, devices)")
        if np.any(g < 0) or not np.all(np.isfinite(g)):
            raise ValueError("channel gains must be finite and nonnegative")
        object.__setattr__(self, "gains", g)

    @property
    def n_transmitters(self):
        return self.gains.shape[0]

    @property
    def n_elements(self):
        return self.gains.shape[1]

    @property
    def n_devices(self):
        return self.gains.shape[2]

    def gain_sums(self):
        """Total gain collected by each device over all elements."""
        return self.gains.sum(axis=(0, 1))

    def serving_gains(self):
        """Largest single-element gain seen by each device."""
        return self.gains.max(axis=(0, 1))


def build_vlc_matrix(transmitters, devices):
    """Evaluate every (transmitter, element, device) line-of-sight gain.

    Raises UnservableDeviceError naming the first device that receives
    no light from any element.
    """
    if not transmitters or not devices:
        raise DimensionMismatchError("need at least one transmitter and one device")
    n_el = len(transmitters[0].elements)
    if any(len(t.elements) != n_el for t in transmitters):
        raise DimensionMismatchError("transmitters must share an element count")
    gains = np.zeros((len(transmitters), n_el, len(devices)))
    for o, tx in enumerate(transmitters):
        for i in range(n_el):
            for j, dev in enumerate(devices):
                gains[o, i, j] = vlc_channel_gain(tx, i, dev)
    unlit = np.flatnonzero(gains.max(axis=(0, 1)) <= 0.0)
    if unlit.size:
        raise UnservableDeviceError(f"device {unlit[0]} receives no light")
    return VlcChannelMatrix(gains)


@dataclass(frozen=True)
class RfChannelSet:
    """Complex downlink channel vectors, one per device."""

    vectors: np.ndarray  # (devices, antennas) complex
    seed: int

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2:
            raise DimensionMismatchError("vectors must be (devices, antennas)")
        object.__setattr__(self, "vectors", v)

    @property
    def n_devices(self):
        return self.vectors.shape[0]

    @property
    def n_antennas(self):
        return self.vectors.shape[1]

    def outer_products(self):
        """Rank-one matrices g g^H used by the beamforming solver."""
        return [np.outer(g, g.conj()) for g in self.vectors]


def sample_rf_channel(access_point, devices, rician_factor_db, path_loss_exponent, seed):
    """Draw one Rician channel realization for every device.

    g_j = sqrt(PL_j) (sqrt(R/(1+R)) g_los + sqrt(1/(1+R)) g_scatter)
    with PL_j = (d_j / 1 m)^(-path_loss_exponent).  The line-of-sight
    component is a deterministic unit-modulus phase ramp keyed to the
    device index; the scattered part is standard complex Gaussian drawn
    from ``seed``.
    """
    rng = np.random.default_rng(seed)
    r = 10.0 ** (rician_factor_db / 10.0)
    n_dev = len(devices)
    m = access_point.antennas
    vectors = np.zeros((n_dev, m), dtype=complex)
    ant = np.arange(m)
    for j, dev in enumerate(devices):
        d = np.linalg.norm(dev.position - access_point.position)
        if d <= 0:
            raise ValueError("device coincides with the access point")
        pl = d ** (-path_loss_exponent)
        phase = np.pi * (2 * j + 1) / (2.0 * n_dev)
        los = np.exp(1j * ant * phase)
        scatter = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
        vectors[j] = np.sqrt(pl) * (np.sqrt(r / (1.0 + r)) * los
                                    + np.sqrt(1.0 / (1.0 + r)) * scatter)
    return RfChannelSet(vectors=vectors, seed=seed)
