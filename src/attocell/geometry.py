"""Scene geometry: optical transmitters, photodetectors, devices, access point.

Positions are 3-vectors in meters.  Detector normals point straight up
(+z); transmitter element boresights point into the lower half-space.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError

__all__ = [
    "OpticalTransmitter",
    "Photodetector",
    "Device",
    "RfAccessPoint",
    "lambert_mode",
    "build_angle_diversity_layout",
]


def lambert_mode(semiangle):
    """Lambertian mode number for a half-power semiangle in radians.

    m = -ln 2 / ln cos(semiangle).  A 60 deg semiangle gives m = 1.
    """
    if not 0 < semiangle < np.pi / 2:
        raise ValueError("semiangle must lie in (0, pi/2)")
    return -np.log(2.0) / np.log(np.cos(semiangle))


def _row_norms(vectors):
    """Norm of each row of an (n, 3) array, rounded as ``np.linalg.norm`` (a
    BLAS dot) rounds it; ``einsum`` or ``(v * v).sum(1)`` can differ."""
    return np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class OpticalTransmitter:
    """Ceiling transmitter whose elements (LED groups) differ only in boresight."""

    position: np.ndarray
    boresights: np.ndarray  # (elements, 3) unit vectors
    semiangle: float        # half-power semiangle, rad
    lambert_m: float = field(init=False)  # derived from the semiangle

    def __post_init__(self):
        b = np.asarray(self.boresights, dtype=float)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] != 3:
            raise ScenarioError("boresights must be a (k >= 1, 3) array")
        if not np.all(np.isclose(_row_norms(b), 1.0, atol=1e-9)):
            raise ScenarioError("element boresights must be unit vectors")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "boresights", b)
        object.__setattr__(self, "lambert_m", lambert_mode(self.semiangle))


@dataclass(frozen=True)
class Photodetector:
    """Photodiode with a non-imaging concentrator, facing straight up."""

    area: float              # m^2
    fov: float               # concentrator field of view (half angle), rad
    refractive_index: float

    def __post_init__(self):
        if self.area <= 0:
            raise ScenarioError("detector area must be positive")
        if not 0 < self.fov <= np.pi / 2:
            raise ScenarioError("detector FOV must lie in (0, pi/2]")
        if self.refractive_index < 1:
            raise ScenarioError("refractive index below 1")


@dataclass(frozen=True)
class Device:
    """User terminal holding one photodetector and one RF antenna."""

    position: np.ndarray
    detector: Photodetector

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


@dataclass(frozen=True)
class RfAccessPoint:
    """Multi-antenna RF transmitter."""

    position: np.ndarray
    antennas: int

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if self.antennas < 1:
            raise ScenarioError("access point needs at least one antenna")


def build_angle_diversity_layout(m_elements, tilt, azimuth_offset):
    """Element boresights for an angle-diversity transmitter.

    One element points straight down; the remaining ``m_elements - 1``
    are tilted by ``tilt`` from the vertical at equally spaced azimuths
    starting from ``azimuth_offset``.  Angles in radians.

    Returns:
        (m_elements, 3) array of unit vectors, the downward one first.
    """
    if m_elements < 1:
        raise ScenarioError("m_elements must be >= 1")
    if not 0 <= tilt < np.pi / 2:
        raise ScenarioError("tilt must lie in [0, pi/2)")
    az = azimuth_offset + 2.0 * np.pi * np.arange(m_elements - 1) / (m_elements - 1)
    ring = np.stack([np.sin(tilt) * np.cos(az), np.sin(tilt) * np.sin(az),
                     np.full_like(az, -np.cos(tilt))], axis=1)  # empty for one element
    bores = np.vstack([(0.0, 0.0, -1.0), ring])
    return bores / _row_norms(bores)[:, None]
