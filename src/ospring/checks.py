"""The checks of ``ospring validate``: ``CHECKS`` holds ``(name, check)`` in
its order.  A check of ``(config, cavity)`` returns its parts as ``(residual,
bound)`` floats, the residual relative to the scale the check names; a part
holds iff ``residual <= bound``, so a NaN residual fails."""

from __future__ import annotations

import numpy as np

from . import backaction as ba
from . import cavity as cav
from . import noise as noi
from . import transfer_optics as to
from .params import C_LIGHT


def _relative(residual, scale) -> float:
    """The largest ``residual / scale``, 0 where both are 0; a NaN stays NaN."""
    residual, scale = np.asarray(residual, dtype=float), np.asarray(scale, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((residual == 0.0) & (scale == 0.0), 0.0, residual / scale)
    return float(np.max(ratio))


def _bare_mirror(config, phase=None):
    """``(rho1, rho2, tau)`` of the bare interferometer at the one-way imbalance
    phase ``phase``, by default that of the dark port."""
    if phase is None:
        phase = cav.dark_port_phase(config.membrane, config.bs, config.dark_port_index)
    return to.effective_mirror(config.membrane, config.bs, phase)


def _omega(cavity):
    return np.linspace(-3.0, 3.0, 201) * max(cavity.half_linewidth, 1.0)


def excess_closure(config, cavity):
    # the carrier excess (tau, w) at the membrane phases kernel_exact visits
    # over +-3 gamma, k0*x + h and k0*x + 2h with h = omega*delta_l/(2c),
    # composed from e0 as the kernel composes them: energy closes,
    # |rho2_dp*(1 + w)|^2 + tau^2 = 1, and rho2 and tau match the bare
    # interferometer at the literal phases; the element matrices are unitary
    ph = cav._phases(config)
    h = 0.5 * _omega(cavity) / C_LIGHT * ph.delta_l
    e_h = cav.expm1i(h)
    tau, w = cav._excess(ph.dark, cav._compose(ph.e0, np.concatenate((e_h, e_h * (2.0 + e_h)))))
    rho2 = ph.dark.rho2 * (1.0 + w)
    literal = cav.imbalance_phase(config) + np.concatenate((h, 2.0 * h))
    _, rho2_bare, tau_bare = _bare_mirror(config, literal)
    elements = (to.beamsplitter_matrix(config.bs), to.membrane_matrix(config.membrane))
    closure = max(
        np.max(np.abs(np.abs(rho2) ** 2 + tau**2 - 1.0)),
        np.max(np.abs(rho2 - rho2_bare)),
        np.max(np.abs(tau - tau_bare)),
        *(np.max(np.abs(m.conj().T @ m - np.eye(2))) for m in elements),
    )
    return ((float(closure), 1e-12),)


def dark_port(config, cavity):
    # |tau|, the cross-coupling of the bare interferometer on the dark port
    return ((abs(complex(_bare_mirror(config)[2])), 1e-12),)


def carrier_fixed_point(config, cavity):
    # the closed-form detector-port carrier y closes the loop of the bare
    # interferometer at the double imbalance phase: y = L*(tau + rho2*y),
    # L the carrier round trip; y = 0 exactly at zero offset
    ph = cav._phases(config)
    y = ba._carrier(config, ph)[0]
    _, rho2, tau = _bare_mirror(config, cav.imbalance_phase(config))
    loop = config.srm.reflectivity * (1.0 + ph.e_rt) * ph.dark.u.conjugate()
    return ((_relative(abs(y - loop * (tau + rho2 * y)), max(abs(y), 1.0)), 1e-12),)


def linewidth_gap(config, cavity):
    # with q = 1 - R_sr*|rho2| the exact width is gamma_exact - gamma =
    # gamma*(q^2 - T_sr^2*tau^2)/(T_sr^2 + tau^2), so |gap| stays below
    # gamma*(T_sr^2 + tau^2)/(1 + R_sr*|rho2|)^2; twice that, and rounding
    _, rho2, tau = _bare_mirror(config, cav.imbalance_phase(config))
    width = config.srm.transmissivity**2 + abs(tau) ** 2
    bound = 2.0 * width / (1.0 + config.srm.reflectivity * abs(rho2)) ** 2 + 1e-14
    gap = abs(cavity.half_linewidth_exact - cavity.half_linewidth)
    return ((_relative(gap, cavity.half_linewidth), bound),)


def noise_closure(config, cavity):
    # the total against the sum of its parts; the count of densities not >= 0
    omega = _omega(cavity)
    spectrum = noi.back_action_spectrum(config, omega[omega != 0.0])
    closure = np.max(np.abs(spectrum.total - spectrum.laser_part - spectrum.detector_part))
    negative = np.count_nonzero(~(spectrum.total >= 0.0))
    return ((_relative(closure, np.max(spectrum.total)), 1e-12), (float(negative), 0.0))


def _face_fields(config):
    # the mean membrane-face fields built from the element matrices, from the
    # closed-form carrier y: incident a = P*m_bs*(1, y), P the fold propagator,
    # and reflected m_m*a; broadcasts over an array offset
    y = ba._carrier(config, cav._phases(config))[0]
    half = np.multiply.outer([-1j, 1j], 0.5 * cav.imbalance_phase(config))
    a = np.exp(half) * (to.beamsplitter_matrix(config.bs) @ [np.ones_like(y), y])
    return a, to.membrane_matrix(config.membrane) @ a


def mean_fields(config, cavity):
    # closed-form b^T sigma3 a against the face fields, b = conj(m_m*a)
    y, interference = ba._carrier(config, cav._phases(config))
    closed = -config.membrane.reflectivity * (1.0 + abs(y) ** 2) + 1j * interference
    a, b = _face_fields(config)
    gap = abs(np.conj(b[0]) * a[0] - np.conj(b[1]) * a[1] - closed)
    return ((_relative(gap, abs(closed)), 1e-12),)


def kernel_oracle(config, cavity):
    # static limit, on every configuration: Re K(0) is 2P/c times the offset
    # derivative of the face-power difference |a1|^2 + |b1|^2 - |a2|^2 - |b2|^2
    # at a fixed recycling tuning (Richardson central difference; with a step
    # of 1e-12 m truncation leaves 1.6e-8 of K(0) on fig4a, with 2e-13 m 3e-11)
    step = 2e-13
    shifted = cav._replace(config, offset=config.offset + step * np.array([-2, -1, 1, 2]))
    a, b = _face_fields(shifted)
    power = np.abs(a[0]) ** 2 + np.abs(b[0]) ** 2 - np.abs(a[1]) ** 2 - np.abs(b[1]) ** 2
    slope = (8.0 * (power[2] - power[1]) - (power[3] - power[0])) / (12.0 * step)
    static = ba.kernel_exact(config, 0.0).real - 2.0 * config.input_power / C_LIGHT * slope
    # scaled, as below, by the peak of a +-3 gamma detuning sweep: at zero
    # detuning with a fully reflective membrane K(0) itself is 0
    gamma = cavity.half_linewidth
    swept = cav.with_total_detuning(config, np.linspace(-3.0, 3.0, 121)[:, None] * gamma)
    parts = ((_relative(abs(static), np.max(np.abs(ba.kernel_exact(swept, 0.0)))), 1e-8),)
    tau_sq = 4.0 * cavity.membrane_half_linewidth * config.geometry.cavity_length / C_LIGHT
    if config.srm.transmissivity**2 > 0.01 or tau_sq > 0.01 or config.bs.asymmetry != 0.0:
        return parts  # outside the narrow-band regime the comparison is not meaningful
    omega = np.linspace(0.1, 3.0, 31) * gamma
    exact = ba.kernel_exact(config, omega)
    approx = ba.kernel_narrowband(cavity, *ba._gain_inputs(config), omega)
    # the gap against the peak |K| of the detuning sweep at the same omega:
    # at zero detuning with a fully reflective membrane the narrow-band kernel is 0
    peak = np.max(np.abs(ba.kernel_exact(swept, omega)), axis=0)
    return parts + ((_relative(np.abs(exact - approx), peak), 0.05),)


CHECKS = (
    ("unitarity_and_energy_closure", excess_closure),
    ("dark_port_residual", dark_port),
    ("carrier_loop_fixed_point", carrier_fixed_point),
    ("narrowband_linewidth_gap", linewidth_gap),
    ("noise_closure_and_positivity", noise_closure),
    ("carrier_mean_fields", mean_fields),
    ("exact_vs_narrowband_kernel", kernel_oracle),
)
