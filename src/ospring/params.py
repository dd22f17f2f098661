"""Physical parameter containers.

Everything is SI: lengths in meters, powers in watts, frequencies,
detunings and rates in rad/s.  Mirror and beamsplitter coefficients are
amplitude (field) quantities, not power quantities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Both are exact under the 2019 SI (CODATA 2018), so literals lose nothing.
C_LIGHT = 299792458.0  # speed of light in vacuum, m/s
HBAR = 6.62607015e-34 / (2.0 * math.pi)  # reduced Planck constant, J s

LOSSLESS_TOL = 1e-12


@dataclass(frozen=True)
class MirrorParams:
    """Lossless mirror: amplitude reflectivity r and transmissivity t with r^2 + t^2 = 1."""

    reflectivity: float
    transmissivity: float

    def __post_init__(self):
        if self.reflectivity < 0.0 or self.transmissivity < 0.0:
            raise ValueError("mirror amplitude coefficients must be non-negative")
        if abs(self.reflectivity**2 + self.transmissivity**2 - 1.0) > LOSSLESS_TOL:
            raise ValueError("mirror is not lossless: need r^2 + t^2 = 1")

    @classmethod
    def from_power_reflectivity(cls, power_reflectivity: float) -> "MirrorParams":
        if not 0.0 <= power_reflectivity <= 1.0:
            raise ValueError("power reflectivity must lie in [0, 1]")
        return cls(math.sqrt(power_reflectivity), math.sqrt(1.0 - power_reflectivity))

    @classmethod
    def from_power_transmissivity(cls, power_transmissivity: float) -> "MirrorParams":
        if not 0.0 <= power_transmissivity <= 1.0:
            raise ValueError("power transmissivity must lie in [0, 1]")
        return cls(math.sqrt(1.0 - power_transmissivity), math.sqrt(power_transmissivity))

    @property
    def reflection_deficit(self) -> float:
        """1 - r, formed as t^2/(1 + r) so it keeps its relative accuracy as r -> 1."""
        return self.transmissivity**2 / (1.0 + self.reflectivity)


@dataclass(frozen=True)
class BeamsplitterParams:
    """Central beamsplitter, parametrized by the power asymmetry in (-1, 1).

    The amplitude coefficients are derived so that they satisfy
    reflectivity^2 + transmissivity^2 = 1 exactly by construction:
    reflectivity = sqrt((1 - asymmetry)/2), transmissivity = sqrt((1 + asymmetry)/2).
    """

    asymmetry: float = 0.0

    def __post_init__(self):
        if not -1.0 < self.asymmetry < 1.0:
            raise ValueError("beamsplitter asymmetry must lie strictly in (-1, 1)")

    @property
    def reflectivity(self) -> float:
        return math.sqrt((1.0 - self.asymmetry) / 2.0)

    @property
    def transmissivity(self) -> float:
        return math.sqrt((1.0 + self.asymmetry) / 2.0)


@dataclass(frozen=True)
class Geometry:
    """Macroscopic layout of the folded interferometer.

    arm_length      distance beamsplitter -> folding mirror (both arms)
    half_arm        mean folding-mirror -> membrane distance
    sr_distance     beamsplitter -> recycling-mirror distance
    wavelength      laser carrier wavelength

    The path difference between the two membrane half-paths is not part of
    the layout: the operating point fixes it as the dark-port imbalance plus
    the configuration's offset.
    """

    arm_length: float
    half_arm: float
    sr_distance: float
    wavelength: float

    def __post_init__(self):
        for name in ("arm_length", "half_arm", "sr_distance", "wavelength"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def cavity_length(self) -> float:
        """Total recycling-mirror -> membrane path length."""
        return self.arm_length + self.half_arm + self.sr_distance

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def carrier_omega(self) -> float:
        return C_LIGHT * self.wavenumber


@dataclass(frozen=True)
class InterferometerConfig:
    """Full operating point of the recycled interferometer.

    The membrane position is stored as a dark-port index (odd) plus a small
    metric offset from that dark port; the recycling-cavity tuning is stored
    as the carrier detuning from the dark-port resonance.  Both choices keep
    the carrier phases well conditioned regardless of the macroscopic
    lengths.  ``srm_detuning`` may be an array: the configuration then holds
    a detuning sweep, over which the exact kernel broadcasts.  ``offset`` may
    be an array too, over which the effective cavity broadcasts.
    """

    geometry: Geometry
    membrane: MirrorParams
    srm: MirrorParams
    bs: BeamsplitterParams
    input_power: float
    dark_port_index: int = 1
    offset: float = 0.0
    srm_detuning: float = 0.0

    def __post_init__(self):
        if self.input_power < 0.0:
            raise ValueError("input power must be non-negative")
        if self.dark_port_index < 1 or self.dark_port_index % 2 == 0:
            raise ValueError("dark port index must be a positive odd integer")
        # count_nonzero takes an array offset too, at a fifth of np.any's cost on a float
        if np.count_nonzero(abs(self.offset) >= self.geometry.wavelength / 8.0):
            warnings.warn(
                "membrane offset exceeds an eighth wavelength; the near-dark-fringe "
                "analysis is unreliable this far out"
            )


@dataclass(frozen=True)
class MechanicalOscillator:
    """Test-mass mechanics: mass, intrinsic frequency and intrinsic damping rate.

    damping_rate is the mechanical amplitude decay rate entering the
    equation of motion as 2*damping_rate*velocity; it is unrelated to the
    optical membrane half-linewidth of the effective cavity.
    """

    mass: float
    resonance_frequency: float = 0.0
    damping_rate: float = 0.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.resonance_frequency < 0.0 or self.damping_rate < 0.0:
            raise ValueError("mechanical rates must be non-negative")
