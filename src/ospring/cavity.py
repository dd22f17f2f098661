"""Dark-port solver and reduction of the recycled interferometer to an
effective detuned cavity.

The carrier phases of the model are pinned here.  A configuration stores
the dark-port index, the metric offset from that dark port and the carrier
detuning from the dark-port resonance; from those three numbers the carrier
imbalance phase and the carrier round-trip phase are reconstructed exactly,
so results never depend on knowing a macroscopic length to within a
fraction of a wavelength.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import transfer_optics as to
from .params import C_LIGHT, BeamsplitterParams, InterferometerConfig, MirrorParams

NARROWBAND_WARN = 0.1


class NoDarkPortError(ValueError):
    """The requested dark-output condition has no solution."""


@lru_cache(maxsize=128)
def dark_port_phase(membrane: MirrorParams, bs: BeamsplitterParams, index: int = 1) -> float:
    """One-way imbalance phase k0*delta_l of the index-th dark output.

    Solves cos(k0*delta_l) = -(t_m/r_m) * asymmetry / sqrt(1 - asymmetry^2)
    on the branch indexed by the odd integer ``index`` (a balanced
    beamsplitter gives index * pi/2).
    """
    if index < 1 or index % 2 == 0:
        raise ValueError("dark port index must be a positive odd integer")
    if membrane.reflectivity <= 0.0:
        raise NoDarkPortError("a fully transmissive membrane has no dark output")
    rhs = (
        -(membrane.transmissivity / membrane.reflectivity)
        * bs.asymmetry
        / math.sqrt(1.0 - bs.asymmetry**2)
    )
    if abs(rhs) > 1.0:
        raise NoDarkPortError(
            f"no dark output: required cosine {rhs:.6g} falls outside [-1, 1]"
        )
    base = math.acos(rhs)
    if index % 4 == 1:
        return (index - 1) * math.pi / 2.0 + base
    return (index + 1) * math.pi / 2.0 - base


def dark_port_offset(
    membrane: MirrorParams, bs: BeamsplitterParams, wavelength: float, index: int = 1
) -> float:
    """Arm imbalance (m) of the index-th dark output; n*wavelength/4 when balanced."""
    return dark_port_phase(membrane, bs, index) * wavelength / (2.0 * math.pi)


def imbalance_length(config: InterferometerConfig) -> float:
    """Metric arm imbalance delta_l = dark-port imbalance + offset."""
    return (
        dark_port_offset(
            config.membrane, config.bs, config.geometry.wavelength, config.dark_port_index
        )
        + config.offset
    )


def imbalance_phase(config: InterferometerConfig) -> float:
    """Exact carrier imbalance phase k0*delta_l of the operating point."""
    return (
        dark_port_phase(config.membrane, config.bs, config.dark_port_index)
        + config.geometry.wavenumber * config.offset
    )


def dark_port_carrier(config: InterferometerConfig):
    """Carrier ``(exp(i*psi_dp), rho2_dp)`` on the dark port; |rho2_dp| = 1 as tau vanishes."""
    return _dark_port_carrier(config.membrane, config.bs, config.dark_port_index)[:2]


@lru_cache(maxsize=128)
def _dark_port_carrier(membrane: MirrorParams, bs: BeamsplitterParams, index: int):
    """``(p_dp, rho2_dp)`` followed by the coefficients of :func:`_excess`."""
    psi_dp = dark_port_phase(membrane, bs, index)
    _, rho2, _ = to.effective_mirror(membrane, bs, psi_dp)
    p_dp, rho2_dp = cmath.exp(1j * psi_dp), complex(rho2)
    rm, rb, tb = membrane.reflectivity, bs.reflectivity, bs.transmissivity
    alpha = rm * tb**2 * p_dp / rho2_dp  # w = alpha*e - beta*conj(e)
    beta = rm * rb**2 * p_dp.conjugate() / rho2_dp
    return p_dp, rho2_dp, 2.0 * rm * rb * tb * p_dp, alpha - beta, 1j * (alpha + beta)


def roundtrip_phase(config: InterferometerConfig) -> float:
    """Carrier round-trip phase 2*k0*cavity_length pinned by the tuning.

    Chosen so that the recycling denominator becomes
    1 - R_sr*|rho2|*exp(2i*detuning*cavity_length/c) with the total detuning
    equal to srm_detuning on the dark port.
    """
    lc = config.geometry.cavity_length
    return 2.0 * config.srm_detuning * lc / C_LIGHT - cmath.phase(dark_port_carrier(config)[1])


def sideband_propagators(config: InterferometerConfig, omega: float, arm_gauge: float = 0.0):
    """Tuned-phase propagators for the sideband at offset frequency omega.

    The fold propagator carries half the exact imbalance phase per path and
    the recycling path half the round-trip phase.  Only the split of the
    round-trip phase between the arm and the recycling path is free:
    ``arm_gauge`` moves carrier phase from the recycling path onto the arm
    (observables must not react, which makes it a useful invariance check).
    """
    geom = config.geometry
    k_side = omega / C_LIGHT
    phi = imbalance_phase(config)
    p_arm = np.diag([np.exp(1j * (k_side * geom.arm_length + arm_gauge))] * 2)
    dl = imbalance_length(config)
    p_fold = np.diag(
        [
            np.exp(1j * (-phi / 2.0 + k_side * (geom.half_arm - dl / 2.0))),
            np.exp(1j * (phi / 2.0 + k_side * (geom.half_arm + dl / 2.0))),
        ]
    )
    p_sr = np.diag(
        [
            1.0,
            np.exp(
                1j
                * (roundtrip_phase(config) / 2.0 - arm_gauge + k_side * geom.sr_distance)
            ),
        ]
    ).astype(complex)
    return p_arm, p_fold, p_sr


def membrane_field_matrices(config: InterferometerConfig, omega: float, arm_gauge: float = 0.0):
    """Tuned input -> membrane-face field maps at sideband frequency omega.

    omega = 0 gives the mean-field maps.  Returns ``(m_inc, m_ref)`` as in
    :func:`ospring.transfer_optics.field_matrices`.
    """
    p_arm, p_fold, p_sr = sideband_propagators(config, omega, arm_gauge)
    return to.field_matrices(
        config.membrane, config.bs, config.srm, p_arm, p_fold, p_sr,
        denominator=resonance_denominator(config, omega),
    )


def expm1i(theta):
    """exp(i*theta) - 1 without the cancellation of the direct difference."""
    if np.ndim(theta) == 0:  # scalar sweeps call this per point
        half = math.sin(0.5 * theta)
        return complex(-2.0 * half * half, math.sin(theta))
    theta = np.asarray(theta, dtype=float)
    half = np.sin(0.5 * theta)
    return -2.0 * half * half + 1j * np.sin(theta)


def membrane_phase(config: InterferometerConfig, omega, exact_imbalance_sideband: bool = True):
    """Imbalance phase eps = k0*offset + (omega/c)*delta_l away from the dark port.

    Formed from the stored offset, never as the difference of two O(1)
    phases.  ``exact_imbalance_sideband=False`` drops the sideband term.
    """
    eps = config.geometry.wavenumber * config.offset
    if exact_imbalance_sideband:
        eps = eps + np.asarray(omega, dtype=float) / C_LIGHT * imbalance_length(config)
    return eps


def recycling_phase(config: InterferometerConfig, omega):
    """Round-trip phase phi = 2*(srm_detuning + omega)*cavity_length/c away
    from the dark-port resonance, for sideband frequency omega."""
    lc = config.geometry.cavity_length
    return 2.0 * (config.srm_detuning + np.asarray(omega, dtype=float)) * lc / C_LIGHT


def _excess(config: InterferometerConfig, eps):
    """Carrier excess over the dark port at membrane phase eps: ``(tau, w)``.

    rho2 and tau are linear in exp(+-i*psi), so both are linear in the excess
    z = exp(i*psi) - exp(i*psi_dp) = exp(i*psi_dp)*e, e = expm1(i*eps), and in
    conj(z): the cross-coupling tau = 2*rm*rb*tb*Re(z), which vanishes on the
    dark port, and w = rho2/rho2_dp - 1 = rm*(tb^2*z - rb^2*conj(z))/rho2_dp.
    Both are written as combinations of Re(e) and Im(e) with coefficients fixed
    by the dark port, so every complex product has a real factor and a scalar
    and an array eps round alike.
    """
    _, _, k, c, d = _dark_port_carrier(config.membrane, config.bs, config.dark_port_index)
    e = expm1i(eps)
    return k.real * e.real - k.imag * e.imag, c * e.real + d * e.imag


def resonance_denominator(config: InterferometerConfig, omega, exact_imbalance_sideband: bool = True):
    """1 - R_sr * rho2(k) * exp(2ik*cavity_length) for sideband frequency omega.

    Broadcasts over omega and an array ``srm_detuning``.  Near resonance the
    denominator is a small difference of O(1) numbers, so it is assembled
    from small quantities only: with rho2 = rho2_dp*(1 + w) (|rho2_dp| = 1
    for a lossless interferometer, w from :func:`_excess` at the membrane
    phase of :func:`membrane_phase`) and the carrier round trip pinned to
    arg(rho2_dp),

        denom = (1 - R_sr) - R_sr*(w*exp(i*phi) + expm1(i*phi)),

    where 1 - R_sr = T_sr^2/(1 + R_sr) and phi comes from
    :func:`recycling_phase`.  The tiny sideband correction to the imbalance
    phase is kept by default; dropping it (fast path) changes results at the
    1e-9 level for desk-scale geometries.
    """
    om = np.asarray(omega, dtype=float)
    _, w = _excess(config, membrane_phase(config, om, exact_imbalance_sideband))
    e_phi = expm1i(recycling_phase(config, om))
    denom = config.srm.reflection_deficit - config.srm.reflectivity * (w * (1.0 + e_phi) + e_phi)
    if (np.abs(denom) < to.DEGENERACY_FLOOR).any():
        raise to.DegenerateResonanceError("resonance denominator vanishes on the grid")
    return denom


@dataclass(frozen=True)
class EffectiveCavity:
    """Detuning and half-linewidth decomposition of the effective cavity.

    ``half_linewidth`` is the narrow-band sum of the recycling-mirror and
    membrane contributions; ``half_linewidth_exact`` is c*(1 - R_sr*|rho2|)/(2*Lc),
    formed as c*(T_sr^2/(1 + R_sr) + R_sr*tau^2/(1 + |rho2|))/(2*Lc) with |rho2| =
    sqrt(1 - tau^2).  Fields are arrays where the offset or ``srm_detuning`` is one.
    """

    detuning: float
    srm_detuning: float
    membrane_detuning: float
    half_linewidth: float
    half_linewidth_exact: float
    srm_half_linewidth: float
    membrane_half_linewidth: float

    @classmethod
    def from_rates(
        cls,
        srm_half_linewidth: float,
        membrane_half_linewidth: float,
        detuning: float = 0.0,
        membrane_detuning: float = 0.0,
    ) -> "EffectiveCavity":
        """Synthetic cavity from its rate decomposition (for sweeps and tests)."""
        gamma = srm_half_linewidth + membrane_half_linewidth
        return cls(
            detuning=detuning,
            srm_detuning=detuning - membrane_detuning,
            membrane_detuning=membrane_detuning,
            half_linewidth=gamma,
            half_linewidth_exact=gamma,
            srm_half_linewidth=srm_half_linewidth,
            membrane_half_linewidth=membrane_half_linewidth,
        )


def effective_cavity(config: InterferometerConfig) -> EffectiveCavity:
    """Reduce the operating point to effective-cavity detunings and linewidths;
    broadcasts over an array ``offset`` and ``srm_detuning``.

    gamma_m comes from tau^2 and the membrane detuning from
    arg(rho2/rho2_dp) = arg(1 + w), both from :func:`_excess`.
    """
    lc = config.geometry.cavity_length
    srm = config.srm
    tau, w = _excess(config, config.geometry.wavenumber * config.offset)
    tau_sq = tau * tau
    if srm.transmissivity**2 > NARROWBAND_WARN or np.count_nonzero(tau_sq > NARROWBAND_WARN):
        # attributed to this line, so the default filter shows it once per process
        warnings.warn(
            "narrow-band decomposition is unreliable: recycling-mirror or "
            "interferometer power transmittance exceeds 0.1"
        )

    gamma_sr = C_LIGHT * srm.transmissivity**2 / (4.0 * lc)
    gamma_m = C_LIGHT * tau_sq / (4.0 * lc)
    deficit = srm.reflection_deficit + srm.reflectivity * tau_sq / (1.0 + np.sqrt(1.0 - tau_sq))
    membrane_detuning = C_LIGHT * np.arctan2(w.imag, 1.0 + w.real) / (2.0 * lc)

    return EffectiveCavity(
        detuning=config.srm_detuning + membrane_detuning,
        srm_detuning=config.srm_detuning,
        membrane_detuning=membrane_detuning,
        half_linewidth=gamma_sr + gamma_m,
        half_linewidth_exact=C_LIGHT * deficit / (2.0 * lc),
        srm_half_linewidth=gamma_sr,
        membrane_half_linewidth=gamma_m,
    )


def with_total_detuning(config: InterferometerConfig, detuning) -> InterferometerConfig:
    """Configuration whose total cavity detuning equals ``detuning``.

    The membrane contribution is fixed by the offset, so the recycling
    tuning absorbs the difference in a single pass.  An array ``detuning``
    gives an array ``srm_detuning``: one configuration for the whole sweep.
    """
    membrane_detuning = effective_cavity(config).membrane_detuning
    return replace(config, srm_detuning=detuning - membrane_detuning)


def small_offset_expansion(config: InterferometerConfig):
    """Quadratic-in-offset laws for the membrane linewidth and detuning.

    Only valid for a balanced beamsplitter.  Returns
    ``(membrane_half_linewidth, membrane_detuning, sign)`` where the
    detuning sign alternates between consecutive dark ports, positive for
    index 1, 5, 9, ...
    """
    if config.bs.asymmetry != 0.0:
        raise ValueError("quadratic offset laws require a balanced beamsplitter")
    geom = config.geometry
    rm, tm = config.membrane.reflectivity, config.membrane.transmissivity
    phase = geom.wavenumber * config.offset
    sign = 1.0 if config.dark_port_index % 4 == 1 else -1.0
    gamma_m = C_LIGHT * rm**2 * phase**2 / (4.0 * geom.cavity_length)
    delta_m = sign * C_LIGHT * rm * tm * phase**2 / (4.0 * geom.cavity_length)
    return gamma_m, delta_m, sign
