"""Unsymmetrized spectral density of the radiation-pressure force noise.

The two vacuum inputs contribute separately: the laser-port term carries
the Fano-type interference between the input and intracavity fields, the
detector-port term is a Lorentzian that disappears for a fully reflective
recycling mirror.  Negative frequencies are evaluated by direct
substitution, never by conjugation shortcuts, since the asymmetry of the
density is exactly the quantity of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cavity as cav
from .params import C_LIGHT, HBAR, InterferometerConfig


@dataclass(frozen=True)
class NoiseSpectrum:
    """Force-noise spectral density (N^2 s) on a signed frequency grid."""

    omega: np.ndarray
    total: np.ndarray
    laser_part: np.ndarray
    detector_part: np.ndarray


def back_action_spectrum(config: InterferometerConfig, omega) -> NoiseSpectrum:
    """Unsymmetrized back-action force noise density over a signed grid;
    broadcasts over omega and array ``offset`` and ``srm_detuning``, each block
    (:func:`ospring.cavity._sweep_blockwise`) resolving its own operating point."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    geom = config.geometry
    rm, tm = config.membrane.reflectivity, config.membrane.transmissivity
    rb, tb = config.bs.reflectivity, config.bs.transmissivity
    r_sr, t_sr = config.srm.reflectivity, config.srm.transmissivity

    # Both sums vanish on the dark port at resonance with a fully reflective
    # recycling mirror, so they are assembled from small quantities only:
    # the excess z = exp(i*psi) - exp(i*psi_dp) = exp(i*psi_dp)*expm1(i*eps)
    # of the imbalance phase factor (every sum is linear in exp(+-i*psi), so
    # its excess is linear in z and conj(z)), and the expm1 of the recycling
    # phases phi(0), phi(omega) and of the sideband round trip.  With
    # u = rho2_dp/|rho2_dp|, the carrier phase the round trip is pinned to,
    # the dark-port identities
    #     alpha2_dp*conj(u) = -alpha1_dp = (tb^2 - rb^2)/rm,
    #     beta2_dp*u = -beta1_dp = -(tm*rho2_dp + 2*rb*tb)/rm
    # remove the O(1) terms, and the excesses (d_alpha2 taken along conj(u))
    # combine exactly: d_alpha1 + Re(d_alpha2) = rm*(tb^2 - rb^2)*Re(expm1(i*eps)).
    # eps and phi(omega) are composed from their operating-point and sideband
    # terms (cavity._Phases): two sideband factors per frequency, which the
    # denominator shares.
    asym = config.bs.asymmetry  # tb^2 - rb^2
    deficit = config.srm.reflection_deficit
    prefactor = 4.0 * HBAR * geom.wavenumber / C_LIGHT * rm**2 * config.input_power

    def densities(config, om):  # one block's rows
        ph = cav._phases(config)
        dark, u = ph.dark, ph.dark.u
        back = np.conj(ph.e_rt)  # exp(-i*phi(0)) - 1
        denom0 = cav._denominator(config, ph.w, ph.e_rt, 1.0 + ph.e_rt)
        e_eps = cav._compose(ph.e0, cav.expm1i(om / C_LIGHT * ph.delta_l))
        z = dark.p * e_eps
        d_alpha1 = 2.0 * tm * rb * tb * z.real
        d_alpha2 = (tb**2 * z + rb**2 * np.conj(z)) * np.conj(u)
        d_beta1 = tm * (tb**2 * z - rb**2 * np.conj(z))
        d_beta2 = 2j * rb * tb * z.imag * u
        sideband = cav.expm1i(2.0 * om / C_LIGHT * geom.cavity_length)
        ahead = cav._compose(ph.e_rt, sideband)  # exp(i*phi(omega)) - 1

        laser_sum = (
            -asym / rm * (deficit - r_sr * back) * (deficit - r_sr * ahead)
            + 2.0 * r_sr * rm * asym * e_eps.real
            + d_alpha1 * (deficit**2 + r_sr**2 * sideband)
            + r_sr * (d_alpha2 * ahead + np.conj(d_alpha2) * back)
        )
        detector_sum = (
            dark.beta1 * (deficit - r_sr * back) + d_beta1 + r_sr * d_beta2 * (1.0 + back)
        )
        denom = cav._denominator(config, cav._excess(dark, e_eps)[1], ahead, 1.0 + ahead)
        scale = prefactor / np.abs(denom0 * denom) ** 2
        return scale * np.abs(laser_sum) ** 2, scale * t_sr**2 * np.abs(detector_sum) ** 2

    laser_part, detector_part = cav._sweep_blockwise(densities, config, om)
    return NoiseSpectrum(om, laser_part + detector_part, laser_part, detector_part)


def spectral_asymmetry(config: InterferometerConfig, omega):
    """Difference of the noise density between +omega and -omega."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(om <= 0.0):
        raise ValueError("asymmetry is defined for positive frequencies")
    spectrum = back_action_spectrum(config, np.concatenate([om, -om]))
    n = om.size
    out = spectrum.total[:n] - spectrum.total[n:]
    return out if np.ndim(omega) else float(out[0])
