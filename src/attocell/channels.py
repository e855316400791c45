"""Optical and RF channel models.

The lightwave link gain follows the generalized Lambertian
line-of-sight model with an ideal non-imaging concentrator; the same
pattern drives the illuminance map.  The RF link is Rician fading with
distance power-law path loss.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, UnservableDeviceError

__all__ = [
    "lambertian_los",
    "VlcChannelMatrix",
    "build_vlc_matrix",
    "RfChannelSet",
    "sample_rf_channel",
]


def lambertian_los(transmitter, points):
    """Generalized Lambertian line-of-sight pattern of every element.

    The elements share the transmitter's one Lambert order m.  For points
    of shape (n, 3) returns ``(pattern, cos_psi)``:
    pattern[i, k] = (m+1) / (2 pi d_k^2) cos^m(phi_ik) cos(psi_k) of
    element i at point k, with psi measured against an upward normal,
    and cos_psi of shape (n,).  Both cosines are clipped at 0.
    """
    vec = np.asarray(points, dtype=float) - transmitter.position
    d = np.linalg.norm(vec, axis=1)
    if np.any(d <= 0):
        raise ValueError("point coincides with transmitter")
    ray = vec / d[:, None]
    cos_psi = np.maximum(-ray[:, 2], 0.0)
    m = transmitter.lambert_m
    # (elements, points) factors update one buffer in place: on a floor
    # grid each fresh temporary costs more in page faults than arithmetic
    pattern = transmitter.boresights @ ray.T  # cos(phi)
    np.maximum(pattern, 0.0, out=pattern)
    pattern **= m
    pattern /= 2.0 * np.pi * d * d
    pattern *= m + 1.0
    pattern *= cos_psi
    return pattern, cos_psi


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
    def n_devices(self):
        return self.gains.shape[2]

    def gain_sums(self):
        """Total gain collected by each device over all elements."""
        return self.gains.sum(axis=(0, 1))

    def serving_gains(self):
        """Largest single-element gain seen by each device."""
        return self.gains.max(axis=(0, 1))


def build_vlc_matrix(transmitters, devices):
    """Line-of-sight gain of every (transmitter, element, device) triple.

    h = A g(psi) times the Lambertian pattern, where the ideal
    concentrator gain g is n^2 / sin^2(fov) inside the detector field
    of view and 0 outside it.  Raises UnservableDeviceError naming the
    first device that receives no light from any element.
    """
    if not transmitters or not devices:
        raise DimensionMismatchError("need at least one transmitter and one device")
    n_el = len(transmitters[0].boresights)
    if any(len(t.boresights) != n_el for t in transmitters):
        raise DimensionMismatchError("transmitters must share an element count")
    points = np.array([dev.position for dev in devices])
    area, fov, n = np.array([(dev.detector.area, dev.detector.fov,
                              dev.detector.refractive_index) for dev in devices]).T
    cos_fov, g_fov = np.cos(fov), n**2 / np.sin(fov)**2
    gains = np.empty((len(transmitters), n_el, len(devices)))
    for o, tx in enumerate(transmitters):
        pattern, cos_psi = lambertian_los(tx, points)
        gains[o] = area * pattern * np.where(cos_psi >= cos_fov, g_fov, 0.0)
    unlit = np.flatnonzero(gains.max(axis=(0, 1)) <= 0.0)
    if unlit.size:
        raise UnservableDeviceError(f"device {unlit[0]} receives no light")
    return VlcChannelMatrix(gains)


@dataclass(frozen=True)
class RfChannelSet:
    """Complex downlink channel vectors, one per device."""

    vectors: np.ndarray  # (devices, antennas) complex

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2:
            raise DimensionMismatchError("vectors must be (devices, antennas)")
        object.__setattr__(self, "vectors", v)

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
    return RfChannelSet(vectors=vectors)
