"""Frequency-domain optical spring, damping and back-action noise models
for signal-recycled interferometers with a shared semitransparent membrane
or fully reflective end mirrors."""

from .params import (
    BeamsplitterParams,
    Geometry,
    InterferometerConfig,
    MechanicalOscillator,
    MirrorParams,
)
from .transfer_optics import (
    beamsplitter_matrix,
    effective_mirror,
    field_matrices,
    membrane_matrix,
)
from .cavity import (
    DegenerateResonanceError,
    EffectiveCavity,
    NoDarkPortError,
    dark_port_offset,
    dark_port_phase,
    effective_cavity,
    resonance_denominator,
    small_offset_expansion,
    with_total_detuning,
)
from .noise import NoiseSpectrum, back_action_spectrum, spectral_asymmetry
from .backaction import (
    free_mass_spring_damping,
    kernel_exact,
    kernel_narrowband,
    spring_damping,
    spring_damping_dc,
)
from .stability import (
    DegenerateLeadingCoefficientError,
    RegimeMap,
    StabilityReport,
    characteristic_polynomial,
    find_zero_crossings,
    regime_map,
    roots_stable,
    routh_hurwitz_stable,
    stability_report,
)

__version__ = "0.1.0"
