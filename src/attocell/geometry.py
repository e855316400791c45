"""Scene geometry: optical transmitters, photodetectors, devices, access point.

Positions are 3-vectors in meters.  Detector normals point straight up
(+z); transmitter element boresights point into the lower half-space.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError

__all__ = [
    "OpticalElement",
    "OpticalTransmitter",
    "Photodetector",
    "Device",
    "RfAccessPoint",
    "lambert_mode",
    "build_angle_diversity_layout",
]

UP = np.array([0.0, 0.0, 1.0])
DOWN = np.array([0.0, 0.0, -1.0])


def lambert_mode(semiangle):
    """Lambertian mode number for a half-power semiangle in radians.

    m = -ln 2 / ln cos(semiangle).  A 60 deg semiangle gives m = 1.
    """
    if not 0 < semiangle < np.pi / 2:
        raise ValueError("semiangle must lie in (0, pi/2)")
    return -np.log(2.0) / np.log(np.cos(semiangle))


@dataclass(frozen=True)
class OpticalElement:
    """One LED group of an angle-diversity transmitter."""

    boresight: np.ndarray  # unit vector
    semiangle: float       # half-power semiangle, rad
    lambert_m: float = field(init=False)  # derived from the semiangle

    def __post_init__(self):
        b = np.asarray(self.boresight, dtype=float)
        norm = np.linalg.norm(b)
        if not np.isclose(norm, 1.0, atol=1e-9):
            raise ScenarioError("element boresight must be a unit vector")
        object.__setattr__(self, "boresight", b)
        object.__setattr__(self, "lambert_m", lambert_mode(self.semiangle))


@dataclass(frozen=True)
class OpticalTransmitter:
    """Multi-element lightwave transmitter mounted on the ceiling."""

    position: np.ndarray
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if len(self.elements) < 1:
            raise ScenarioError("transmitter needs at least one element")


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


def build_angle_diversity_layout(m_elements, tilt, azimuth_offset, semiangle):
    """Element boresights for an angle-diversity transmitter.

    One element points straight down; the remaining ``m_elements - 1``
    are tilted by ``tilt`` from the vertical at equally spaced azimuths
    starting from ``azimuth_offset``.  Angles in radians.

    Returns:
        tuple of OpticalElement.
    """
    if m_elements < 1:
        raise ScenarioError("m_elements must be >= 1")
    if not 0 <= tilt < np.pi / 2:
        raise ScenarioError("tilt must lie in [0, pi/2)")
    elements = [OpticalElement(DOWN, semiangle)]
    n_ring = m_elements - 1
    for k in range(n_ring):
        az = azimuth_offset + 2.0 * np.pi * k / n_ring
        bore = np.array([
            np.sin(tilt) * np.cos(az),
            np.sin(tilt) * np.sin(az),
            -np.cos(tilt),
        ])
        bore /= np.linalg.norm(bore)
        elements.append(OpticalElement(bore, semiangle))
    return tuple(elements)
