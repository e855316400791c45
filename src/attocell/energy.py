"""Energy models: VLC detection SNR, light-energy harvesting, RF harvesting.

All quantities are SI (amperes, watts, volts).  The signal chain is:
per-color LED strings driven with DC bias B plus an AC swing A, the
photodetector splits its current into a detection branch and a
harvesting branch, and an RF transmitter tops devices up via energy
beamforming.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import TargetUnreachableError

__all__ = [
    "DriveParams",
    "BiasLimits",
    "VlcEhParams",
    "NonlinearEhParams",
    "LinearEhParams",
    "vlc_snr",
    "vlc_snr_db",
    "generated_current",
    "open_circuit_voltage",
    "vlc_harvested_power",
    "nonlinear_eh",
    "nonlinear_eh_inverse",
]


@dataclass(frozen=True)
class DriveParams:
    """Electro-optical front end shared by all transmitter elements."""

    responsivity: float  # A/W at the detector
    leds_per_color: int
    led_voltage: float  # V
    # current-domain gain nu * N * V applied to the drive current; stored,
    # since every harvest and SNR evaluation reads it
    conversion: float = field(init=False)

    def __post_init__(self):
        if self.responsivity <= 0 or self.led_voltage <= 0 or self.leds_per_color < 1:
            raise ValueError("drive parameters must be positive")
        object.__setattr__(self, "conversion",
                           self.responsivity * self.leds_per_color * self.led_voltage)


@dataclass(frozen=True)
class BiasLimits:
    """Admissible DC operating range of one LED string."""

    low: float  # A
    high: float  # A

    def __post_init__(self):
        if not (0 <= self.low < self.high):
            raise ValueError("need 0 <= low < high")

    @property
    def midpoint(self):
        return 0.5 * (self.low + self.high)

    def swing_at(self, bias):
        """Peak AC amplitude available at the given DC bias."""
        if not (self.midpoint <= bias <= self.high):
            raise ValueError("bias outside [midpoint, high]")
        return self.high - bias


@dataclass(frozen=True)
class VlcEhParams:
    """Solar-cell style harvesting branch of the photodetector."""

    fill_factor: float
    thermal_voltage: float  # V
    dark_current: float  # A

    def __post_init__(self):
        if not (0 < self.fill_factor <= 1):
            raise ValueError("fill factor in (0, 1]")
        if self.thermal_voltage <= 0 or self.dark_current <= 0:
            raise ValueError("thermal voltage and dark current must be positive")


@dataclass(frozen=True)
class NonlinearEhParams:
    """Logistic rectifier model for RF harvesting."""

    max_harvest: float  # W, saturation level
    steepness: float
    turn_on: float  # W, input at the sigmoid midpoint

    def __post_init__(self):
        if self.max_harvest <= 0 or self.steepness <= 0 or self.turn_on <= 0:
            raise ValueError("nonlinear EH parameters must be positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.exp(self.steepness * self.turn_on)):
                raise ValueError(f"steepness x turn_on = {self.steepness * self.turn_on:g} "
                                 f"overflows exp() in the rectifier model")


@dataclass(frozen=True)
class LinearEhParams:
    efficiency: float

    def __post_init__(self):
        if not (0 < self.efficiency <= 1):
            raise ValueError("efficiency in (0, 1]")


def vlc_snr(drive, serving_gain, ac_swing, noise_power):
    """Electrical detection SNR (nu N V h A)^2 / sigma^2.

    Returns -inf when the swing is zero so callers can rank
    degenerate all-harvest operating points without special cases.
    Broadcasts over arrays of gains and swings, element by element.
    """
    s = drive.conversion * serving_gain * ac_swing
    snr = s * s / noise_power
    if isinstance(snr, np.ndarray):
        return np.where(ac_swing <= 0.0, -np.inf, snr)
    return -np.inf if ac_swing <= 0.0 else snr


def vlc_snr_db(drive, serving_gain, ac_swing, noise_power):
    """``vlc_snr`` in dB; a nonpositive SNR gives -inf.  Broadcasts."""
    snr = vlc_snr(drive, serving_gain, ac_swing, noise_power)
    if isinstance(snr, np.ndarray):
        # the masked entries' logarithms are never read
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(snr <= 0.0, -np.inf, 10.0 * np.log10(snr))
    return -np.inf if snr <= 0.0 else 10.0 * np.log10(snr)


def generated_current(drive, gain_sum, bias):
    """DC photocurrent feeding the harvesting branch.

    The three color strings contribute equally, hence the factor 3.
    """
    return 3.0 * drive.conversion * bias * gain_sum


def open_circuit_voltage(params, current):
    """V_oc = V_t ln(1 + I_G / I_D); log1p keeps small currents accurate.

    A negative scalar current raises ValueError.  An array of currents
    broadcasts unchecked: its caller makes sure of their signs once,
    since an ``np.any`` here would run on every harvest a bias search
    evaluates.
    """
    if not isinstance(current, np.ndarray) and current < 0:
        raise ValueError("photocurrent must be nonnegative")
    return params.thermal_voltage * np.log1p(current / params.dark_current)


def vlc_harvested_power(drive, eh_params, gain_sum, bias):
    """Light-energy harvest f * I_G * V_oc(I_G) at the given DC bias.

    Broadcasts over arrays of gain sums and biases, element by element;
    see ``open_circuit_voltage`` for the sign check.
    """
    ig = generated_current(drive, gain_sum, bias)
    return eh_params.fill_factor * ig * open_circuit_voltage(eh_params, ig)


def nonlinear_eh(params, power_in):
    """Harvested power of the logistic rectifier.

    Zero input harvests exactly zero: the normalization subtracts the
    same sigmoid offset that the numerator evaluates to at zero input.
    """
    m, a, b = params.max_harvest, params.steepness, params.turn_on
    omega0 = 1.0 / (1.0 + np.exp(a * b))
    logistic = m / (1.0 + np.exp(-a * (power_in - b)))
    return (logistic - m * omega0) / (1.0 - omega0)


def nonlinear_eh_inverse(params, harvested):
    """Input power that makes nonlinear_eh deliver ``harvested``.

    Clamped to 0 for nonpositive requests; raises
    TargetUnreachableError at or beyond the saturation level.
    """
    if harvested <= 0.0:
        return 0.0
    m, a, b = params.max_harvest, params.steepness, params.turn_on
    if harvested >= m:
        raise TargetUnreachableError(
            f"requested {harvested} W exceeds rectifier saturation {m} W")
    eab = np.exp(a * b)
    return b - np.log(eab * (m - harvested) / (eab * harvested + m)) / a
