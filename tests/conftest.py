import cmath
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ospring import backaction as ba
from ospring import cavity as cav
from ospring import transfer_optics as to
from ospring.params import (
    C_LIGHT,
    HBAR,
    BeamsplitterParams,
    Geometry,
    InterferometerConfig,
    MirrorParams,
)

WAVELENGTH = 1064e-9


@pytest.fixture
def geometry():
    return Geometry(arm_length=0.05, half_arm=0.027, sr_distance=0.01, wavelength=WAVELENGTH)


@pytest.fixture
def narrow_config(geometry):
    """Narrow-line membrane interferometer (matches the fig2 presets)."""
    return InterferometerConfig(
        geometry=geometry,
        membrane=MirrorParams.from_power_reflectivity(0.17),
        srm=MirrorParams.from_power_transmissivity(3e-4),
        bs=BeamsplitterParams(0.0),
        input_power=0.2,
        dark_port_index=3,
        offset=0.01 * WAVELENGTH,
        srm_detuning=0.0,
    )


@pytest.fixture
def asym_config(geometry):
    """Asymmetric-beamsplitter configuration (matches the fig4 presets)."""
    return InterferometerConfig(
        geometry=geometry,
        membrane=MirrorParams.from_power_reflectivity(0.3),
        srm=MirrorParams.from_power_transmissivity(0.3),
        bs=BeamsplitterParams(-0.3),
        input_power=0.2,
        dark_port_index=1,
        offset=0.008 * WAVELENGTH,
        srm_detuning=0.0,
    )


def random_lossless(rng):
    """Random lossless mirror / beamsplitter / geometry draw, with an arm
    imbalance (m) for :func:`msi_matrix`."""
    membrane = MirrorParams.from_power_reflectivity(rng.uniform(0.0, 1.0))
    bs = BeamsplitterParams(rng.uniform(-0.99, 0.99))
    geometry = Geometry(
        arm_length=rng.uniform(0.01, 1.0),
        half_arm=rng.uniform(0.01, 1.0),
        sr_distance=rng.uniform(0.005, 0.5),
        wavelength=WAVELENGTH,
    )
    return membrane, bs, geometry, rng.uniform(-1.0, 1.0) * WAVELENGTH


def msi_matrix(geom, membrane, bs, k, imbalance):
    """Transfer matrix of the non-recycled interferometer at wavenumber k,
    every phase taken literally as k times a length; ``imbalance`` is the
    path difference between the two membrane half-paths.

    Returns ``(m_ms, rho1, rho2, tau)`` with
    m_ms = exp(2ik(arm_length + half_arm)) * [[rho1, tau], [tau, rho2]].
    """
    rho1, rho2, tau = to.effective_mirror(membrane, bs, k * imbalance)
    prefactor = np.exp(2j * k * (geom.arm_length + geom.half_arm))
    m_ms = prefactor * np.array([[rho1, tau], [tau, rho2]])
    return m_ms, rho1, rho2, tau


def random_config(rng, geometry, max_offset=0.02, max_tsr_sq=0.01):
    """Random near-dark-fringe operating point with a solvable dark port."""
    while True:
        membrane = MirrorParams.from_power_reflectivity(rng.uniform(0.05, 0.95))
        bs = BeamsplitterParams(rng.uniform(-0.5, 0.5))
        try:
            cav.dark_port_phase(membrane, bs, 1)
        except cav.NoDarkPortError:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return InterferometerConfig(
                geometry=geometry,
                membrane=membrane,
                srm=MirrorParams.from_power_transmissivity(rng.uniform(1e-5, max_tsr_sq)),
                bs=bs,
                input_power=rng.uniform(0.01, 1.0),
                dark_port_index=int(rng.choice([1, 3, 5])),
                offset=rng.uniform(-max_offset, max_offset) * WAVELENGTH,
                srm_detuning=0.0,
            )


# The tuned 2x2 matrix route: an independent field model that the closed
# forms of ``ospring.backaction`` and ``ospring.noise`` are checked against.


def roundtrip_phase(config: InterferometerConfig) -> float:
    """Carrier round-trip phase 2*k0*cavity_length pinned by the tuning.

    Chosen so that the recycling denominator becomes
    1 - R_sr*|rho2|*exp(2i*detuning*cavity_length/c) with the total detuning
    equal to srm_detuning on the dark port.
    """
    lc = config.geometry.cavity_length
    rho2_dp = cav._dark_port_carrier(config.membrane, config.bs, config.dark_port_index).rho2
    return 2.0 * config.srm_detuning * lc / C_LIGHT - cmath.phase(rho2_dp)


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
    phi = cav.imbalance_phase(config)
    p_arm = np.diag([np.exp(1j * (k_side * geom.arm_length + arm_gauge))] * 2)
    dl = cav._phases(config).delta_l
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
    ``ospring.transfer_optics.field_matrices``.
    """
    p_arm, p_fold, p_sr = sideband_propagators(config, omega, arm_gauge)
    return to.field_matrices(
        config.membrane, config.bs, config.srm, p_arm, p_fold, p_sr,
        denominator=cav.resonance_denominator(config, omega),
    )


def matrix_noise_density(config, omega_scalar):
    """Independent matrix-route force-noise density (laser, detector parts).

    Projects the mean incident fields onto the sideband reflected-field map
    and sums the squared couplings of the two vacuum inputs.
    """
    m_inc0, _ = membrane_field_matrices(config, 0.0)
    _, m_ref = membrane_field_matrices(config, omega_scalar)
    row = m_inc0[:, 0].conj() @ m_ref
    scale = (
        4.0 * HBAR * config.geometry.wavenumber / C_LIGHT
        * config.membrane.reflectivity**2 * config.input_power
    )
    return scale * abs(row[0]) ** 2, scale * abs(row[1]) ** 2


def static_kernel_oracle(config, step=2e-13):
    """Finite-difference oracle for the zero-frequency kernel.

    Differentiates the mean radiation-force imbalance of the two membrane
    faces with respect to the metric offset, by the four-point Richardson
    central difference; the kernel equals twice that gradient times input
    power over c (membrane position is half the arm imbalance).
    """

    def face_difference(offset):
        m_inc, m_ref = membrane_field_matrices(replace(config, offset=offset), 0.0)
        inc, ref = m_inc[:, 0], m_ref[:, 0]
        return (
            abs(inc[0]) ** 2 + abs(ref[0]) ** 2 - abs(inc[1]) ** 2 - abs(ref[1]) ** 2
        )

    f = [face_difference(config.offset + k * step) for k in (-2, -1, 1, 2)]
    gradient = (8.0 * (f[2] - f[1]) - (f[3] - f[0])) / (12.0 * step)
    return 2.0 * config.input_power / C_LIGHT * gradient


def matrix_path_kernel(config, omega, arm_gauge=0.0):
    """Exact kernel with its mean-field term taken from the matrix path.

    The mean membrane-face fields come from the 2x2 products of
    ``membrane_field_matrices`` at the given carrier-phase gauge, and the
    detector-port carrier amplitude y from the O(1) round-trip phase
    ``roundtrip_phase``; only the feedback term is shared with
    ``ba.kernel_exact``.  Scalar configurations only.
    """
    om = np.asarray(omega, dtype=float)
    m_inc, m_ref = membrane_field_matrices(config, 0.0, arm_gauge)
    a1, a2 = m_inc[0, 0], m_inc[1, 0]
    b1, b2 = np.conj(m_ref[0, 0]), np.conj(m_ref[1, 0])
    static = b1 * a1 - b2 * a2

    rm, rb, tb = config.membrane.reflectivity, config.bs.reflectivity, config.bs.transmissivity
    p_dp = cav._dark_port_carrier(config.membrane, config.bs, config.dark_port_index).p
    tau = 2.0 * rm * rb * tb * (p_dp * cav.expm1i(config.geometry.wavenumber * config.offset)).real
    d0 = cav.resonance_denominator(config, 0.0)
    y = config.srm.reflectivity * np.exp(1j * roundtrip_phase(config)) * tau / d0

    ph = cav._phases(config)
    e_h = cav.expm1i(0.5 * om / C_LIGHT * ph.delta_l)
    upper = static - 2.0 * ba._feedback_term(config, ph, y, om, e_h)
    lower = static - 2.0 * ba._feedback_term(config, ph, y, -om, np.conj(e_h))
    scale = 2j * config.geometry.wavenumber / C_LIGHT * rm * config.input_power
    return scale * (upper - np.conj(lower))
