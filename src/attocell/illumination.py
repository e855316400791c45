"""Photometric check of the lighting function.

Illuminance on the working plane from the same generalized Lambertian
elements that carry data, with radiant quantities mapped to lumens
through a fixed luminous efficacy.  No field-of-view or concentrator
terms apply here: the floor is not a photodiode.
"""

from dataclasses import dataclass

import numpy as np

from .channels import lambertian_los

__all__ = [
    "element_luminous_flux",
    "IlluminanceMap",
    "illuminance_map",
]


def element_luminous_flux(drive, bias, efficacy):
    """Luminous flux of one element, efficacy * 3 N V B (all colors on)."""
    return efficacy * 3.0 * drive.leds_per_color * drive.led_voltage * bias


@dataclass(frozen=True)
class IlluminanceMap:
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray  # lux, shape (len(ys), len(xs))

    def at(self, x, y):
        """Value at the grid node nearest to (x, y)."""
        i = int(np.argmin(np.abs(self.ys - y)))
        j = int(np.argmin(np.abs(self.xs - x)))
        return float(self.values[i, j])

    def fraction_above(self, threshold):
        return float(np.mean(self.values > threshold))


def illuminance_map(transmitters, drive, bias, efficacy, room_size, grid_step=0.1):
    """Horizontal illuminance over the floor on a uniform grid.

    E(p) = Phi times the Lambertian pattern summed over every element,
    with psi measured against the upward plane normal.  The grid spans
    the full floor inclusive of both edges, so the room center is a
    node whenever the step divides the side length evenly.
    """
    lx, ly = room_size[0], room_size[1]
    xs = np.linspace(0.0, lx, int(round(lx / grid_step)) + 1)
    ys = np.linspace(0.0, ly, int(round(ly / grid_step)) + 1)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=-1)
    values = sum(lambertian_los(tx, pts)[0].sum(axis=0) for tx in transmitters)
    values = element_luminous_flux(drive, bias, efficacy) * values.reshape(gx.shape)
    return IlluminanceMap(xs=xs, ys=ys, values=values)
