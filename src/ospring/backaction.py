"""Dynamic back-action: the position-response force kernel and the optical
spring / damping extracted from it.

Three evaluation paths with increasing approximation:

* exact      closed form of the full model, valid for any parameters and
             cross-checked in the tests against the 2x2 matrix path built
             on :func:`ospring.transfer_optics.field_matrices`;
* narrowband closed form in the effective-cavity rates, valid for a
             balanced beamsplitter near a dark port with a narrow line;
* free mass  zero-frequency limit of the narrowband form with a fully
             reflective membrane (the amplitude-reflectivity-squared
             prefactor is kept so partially transmissive membranes reduce
             correctly at zero membrane detuning).
"""

from __future__ import annotations

import numpy as np

from . import cavity as cav
from .cavity import EffectiveCavity
from .params import C_LIGHT, InterferometerConfig, MirrorParams


def spring_damping(kernel, omega):
    """Split a kernel sample into spring K = Re and damping = -Im/(2*omega)."""
    k = np.asarray(kernel)
    om = np.asarray(omega, dtype=float)
    return k.real, -k.imag / (2.0 * om)


def _carrier(config: InterferometerConfig, ph: cav._Phases):
    """Detector-port carrier amplitude y of the loop (laser input 1) and
    Im(b^T sigma3 a) for the mean membrane-face fields a = P*m_bs*(1, y) and
    b = conj(m_m*a), P = diag(exp(-i*psi/2), exp(i*psi/2)) the fold propagator:

        b^T sigma3 a = -rm*(1 + |y|^2) + 2i*tm*Im(exp(-i*psi)*(rb + tb*conj(y))*(tb - rb*y)).

    tau vanishes on the dark port and is formed from its excess.  The carrier
    round trip is (1 + e_rt)*conj(u), u = rho2_dp/|rho2_dp| the carrier phase
    it is pinned to, so no small phase is added to the O(1) arg(rho2_dp).
    """
    tm = config.membrane.transmissivity
    rb, tb = config.bs.reflectivity, config.bs.transmissivity
    dark, rho = ph.dark, 1.0 + ph.e_rt
    tau, w = cav._excess(dark, ph.e0)
    d0 = cav._denominator(config, w, ph.e_rt, rho)
    y = config.srm.reflectivity * (rho * dark.u.conjugate()) * tau / d0
    phase = (dark.p * (1.0 + ph.e0)).conjugate()  # exp(-i*psi)
    fields = phase * (rb + tb * y.conjugate()) * (tb - rb * y)
    return y, 2.0 * tm * fields.imag


def _conj(x):
    """conj(x); in place for an array."""
    return np.conjugate(x, out=x) if isinstance(x, np.ndarray) else x.conjugate()


def _feedback_term(config: InterferometerConfig, ph: cav._Phases, y, omega, e_h):
    """Displacement-feedback term b^T X a of the kernel's quadratic form at
    sideband frequency omega, with e_h = expm1(i*h), h = omega*delta_l/(2c).

    The feedback matrix is rank one, X = common * g g^T with
    g = (rb*exp(-i*chi/2), -tb*exp(i*chi/2)) and chi = psi + 2h the sideband
    imbalance phase, so the term is common * (g^T a) * (g^T b) for the mean
    membrane-face fields a (incident) and b (conjugate reflected).  Near a
    dark port both projections are small differences of terms of the size
    of the fields, so they are written out in closed form instead: with y
    the detector-port carrier amplitude of the recycling loop (laser input 1),

        g^T a = -(beta2 + y*alpha2),
        g^T b = conj(y*alpha1 - conj(beta1) + h-terms),

    the bare-interferometer sums taken at theta = psi + h.  Each sum is its
    dark-port value plus a term linear in z = exp(i*theta) - exp(i*psi_dp)
    and conj(z), so both projections are affine in z, conj(z) and
    expm1(+-i*h) with scalar coefficients and no O(1) terms cancel.

    common = rm*R_sr*exp(i*phi)*conj(u)/denom, exp(i*phi) = 1 + e_phi.  The
    membrane phases are composed (:func:`ospring.cavity._compose`) from the
    operating point's e0 = expm1(i*k0*x) and e_h: theta - psi_dp = k0*x + h
    and eps = k0*x + 2h, with expm1(2ih) = e_h*(2 + e_h).  The recycling
    phase phi = 2*(srm_detuning + omega)*Lc/c is taken whole
    (:func:`ospring.cavity._recycling_factor`): composed from e_rt and a
    sideband factor, it measured less accurate against the 50-digit
    reference on the fig2d preset.
    """
    rm, tm = config.membrane.reflectivity, config.membrane.transmissivity
    rb, tb = config.bs.reflectivity, config.bs.transmissivity
    r_sr = config.srm.reflectivity
    c = rb * tb
    asym = config.bs.asymmetry  # tb^2 - rb^2
    dark = ph.dark

    # dark-port values: alpha1 = -asym/rm, alpha2 = asym/rm * rho2/|rho2|,
    # beta1 = (tm*rho2 + 2*rb*tb)/rm, beta2 = 2i*rb*tb*sin(psi_dp)
    g_a0 = -(2j * c * dark.p.imag + y * asym / rm * dark.u)
    g_b0 = -y * asym / rm - dark.beta1.conjugate()

    _, w = cav._excess(dark, cav._compose(ph.e0, e_h * (2.0 + e_h)))
    e_phi = cav._recycling_factor(config, omega)
    rho = 1.0 + e_phi
    denom = cav._denominator(config, w, e_phi, rho)
    del w, e_phi
    rho *= dark.u.conjugate()
    rho *= rm * r_sr
    common = rho / denom
    del rho, denom

    # not in place: a one-row grid's z has one element (see cavity._blockwise)
    z = cav._compose(ph.e0, e_h) * dark.p
    z_bar = z.conjugate()
    a_z = c + y * tb**2
    g = z * a_z
    g *= -1.0
    g += g_a0
    g += z_bar * (c - y * rb**2)
    common *= g  # common * g^T a
    g = z * (rb**2 + y * c)
    g += z_bar * (y * c - tb**2)
    g *= tm
    g += g_b0
    del z, z_bar
    h_terms = e_h * (y * rb**2 - c)
    h_terms -= e_h.conjugate() * a_z
    h_terms *= rm
    g += h_terms
    common *= _conj(g)
    return common


def kernel_exact(config: InterferometerConfig, omega):
    """Exact kernel (N/m) at sideband frequency omega, in closed form.

    Broadcasts over omega and over array ``config.offset`` and
    ``config.srm_detuning`` (see :func:`ospring.cavity.with_total_detuning`).
    Defined at omega = 0 by continuity (the value is real there); use
    :func:`spring_damping` only at nonzero omega.  Of the mean-field term
    b^T sigma3 a only its imaginary part (:func:`_carrier`) survives the
    difference of the quadratic forms at +omega and, conjugated, at -omega;
    :func:`_feedback_term` gives the rest.  Each block of the sweep
    (:func:`ospring.cavity._sweep_blockwise`) resolves its operating point
    once (:func:`ospring.cavity._phases`); the membrane phases at +-omega are
    composed from it and one sideband factor e_h = expm1(i*h), conjugated for
    -omega, and the recycling phase is taken whole per sideband: six
    ``np.sin`` per point.
    """
    scalar = isinstance(omega, float) or np.ndim(omega) == 0
    om = float(omega) if scalar else np.asarray(omega, dtype=float)
    rm = config.membrane.reflectivity
    scale = 2j * config.geometry.wavenumber / C_LIGHT * rm * config.input_power

    def kernel(config, om):  # one block's rows
        ph = cav._phases(config)
        y, interference = _carrier(config, ph)
        e_h = cav.expm1i(0.5 * om / C_LIGHT * ph.delta_l)
        out = _feedback_term(config, ph, y, om, e_h)
        out -= _conj(_feedback_term(config, ph, y, -om, _conj(e_h)))
        out *= -2.0
        out += 2j * interference
        out *= scale
        return (out,)

    return cav._sweep_blockwise(kernel, config, om)[0]


def _gain(membrane: MirrorParams, input_power: float, carrier_omega: float, cavity_length: float):
    """Kernel prefactor 4*omega0*r_m^2*P/(c*Lc) shared by the narrow-band laws."""
    return 4.0 * carrier_omega * membrane.reflectivity**2 * input_power / (C_LIGHT * cavity_length)


def _gain_inputs(config: InterferometerConfig):
    """The arguments of :func:`_gain`, which the narrow-band laws take after the cavity."""
    geom = config.geometry
    return config.membrane, config.input_power, geom.carrier_omega, geom.cavity_length


def _narrowband_terms(cavity: EffectiveCavity, detuning):
    """``(gamma, delta_m, delta_sr, lorentz, reduced, cross)`` of the narrow-band
    laws at total detuning ``detuning`` (None: the cavity's own): reduced =
    lorentz - 4*(gamma*gamma_m + delta*delta_m), cross = gamma_sr*delta_m +
    gamma_m*delta_sr.  Squares are products, so scalar and array cavities round alike."""
    delta = cavity.detuning if detuning is None else np.asarray(detuning, dtype=float)
    gamma = cavity.half_linewidth
    gamma_m = cavity.membrane_half_linewidth
    delta_m = cavity.membrane_detuning
    delta_sr = delta - delta_m
    lorentz = gamma * gamma + delta * delta
    reduced = lorentz - 4.0 * (gamma * gamma_m + delta * delta_m)
    cross = cavity.srm_half_linewidth * delta_m + gamma_m * delta_sr
    return gamma, delta_m, delta_sr, lorentz, reduced, cross


def kernel_narrowband(
    cavity: EffectiveCavity,
    membrane: MirrorParams,
    input_power: float,
    carrier_omega: float,
    cavity_length: float,
    omega,
    detuning=None,
):
    """Narrow-band closed-form kernel (N/m); broadcasts over omega and detuning.

    ``detuning`` overrides the cavity's own total detuning (the membrane
    contribution stays fixed, the recycling tuning absorbs the rest), which
    makes detuning sweeps cheap.
    """
    om = np.asarray(omega, dtype=float)
    gamma, delta_m, delta_sr, lorentz, reduced, cross = _narrowband_terms(cavity, detuning)
    prefactor = _gain(membrane, input_power, carrier_omega, cavity_length)
    braces = (delta_sr * reduced + 2j * cross * om + delta_m * (om * om)) / lorentz
    return prefactor * braces / ((lorentz - om * om) - 2j * (gamma * om))


def spring_damping_dc(
    cavity: EffectiveCavity,
    membrane: MirrorParams,
    input_power: float,
    carrier_omega: float,
    cavity_length: float,
    detuning=None,
):
    """Zero-frequency limit of the narrow-band spring and damping.

    Keeps the membrane-detuning terms, so it is the general quasi-static
    limit; :func:`free_mass_spring_damping` is its zero-membrane-detuning
    special case.
    """
    gamma, _, delta_sr, lorentz, reduced, cross = _narrowband_terms(cavity, detuning)
    prefactor = _gain(membrane, input_power, carrier_omega, cavity_length)
    lorentz_sq = lorentz * lorentz
    spring = prefactor * delta_sr * reduced / lorentz_sq
    damping = -prefactor * (gamma * delta_sr * reduced / lorentz + cross) / lorentz_sq
    return spring, damping


def free_mass_spring_damping(
    cavity: EffectiveCavity,
    membrane: MirrorParams,
    input_power: float,
    carrier_omega: float,
    cavity_length: float,
    detuning,
):
    """Quasi-static spring and damping of the fully reflective-membrane limit.

    The brackets carry the whole deviation from the canonical detuned-cavity
    laws: the spring gains two extra zeros at +-sqrt(gamma*(4*gamma_m - gamma))
    once gamma_m > gamma/4, the damping at
    +-gamma*sqrt((3*gamma_m - gamma)/(gamma + gamma_m)) once gamma_m > gamma/3.
    """
    delta = np.asarray(detuning, dtype=float)
    gamma = cavity.half_linewidth
    gamma_m = cavity.membrane_half_linewidth
    lorentz = gamma**2 + delta**2
    prefactor = _gain(membrane, input_power, carrier_omega, cavity_length)
    spring = prefactor * delta / lorentz * (1.0 - 4.0 * gamma * gamma_m / lorentz)
    damping = (
        -prefactor
        * gamma
        * delta
        / lorentz**2
        * (1.0 - (gamma_m / gamma) * (3.0 * gamma**2 - delta**2) / lorentz)
    )
    return spring, damping
