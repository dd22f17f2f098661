import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ospring import backaction as ba
from ospring import cavity as cav
from ospring import stability as st
from ospring.cavity import EffectiveCavity
from ospring.params import (
    C_LIGHT,
    BeamsplitterParams,
    Geometry,
    InterferometerConfig,
    MirrorParams,
)

from conftest import WAVELENGTH, matrix_path_kernel, static_kernel_oracle

GAMMA = 2 * math.pi * 133e3
POWER = 0.2


def canonical_cavity(gamma=GAMMA):
    return EffectiveCavity.from_rates(gamma, 0.0)


def test_narrowband_reduces_to_canonical_kernel(geometry):
    membrane = MirrorParams.from_power_reflectivity(0.17)
    prefactor = 4 * geometry.carrier_omega * 0.17 * POWER / (C_LIGHT * geometry.cavity_length)
    for delta in (-2.3 * GAMMA, -0.4 * GAMMA, 1.7 * GAMMA):
        cavity = EffectiveCavity.from_rates(GAMMA, 0.0, detuning=delta)
        for omega in (0.3 * GAMMA, 1.9 * GAMMA):
            kernel = complex(
                ba.kernel_narrowband(
                    cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length, omega
                )
            )
            canonical = prefactor * delta / (delta**2 + (GAMMA - 1j * omega) ** 2)
            assert kernel == pytest.approx(canonical, rel=1e-12)


def test_narrowband_zero_frequency_canonical_limits(geometry):
    membrane = MirrorParams.from_power_reflectivity(0.17)
    prefactor = 4 * geometry.carrier_omega * 0.17 * POWER / (C_LIGHT * geometry.cavity_length)
    delta = -0.8 * GAMMA
    cavity = EffectiveCavity.from_rates(GAMMA, 0.0, detuning=delta)
    omega = 1e-7 * GAMMA
    kernel = complex(
        ba.kernel_narrowband(
            cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length, omega
        )
    )
    spring, damping = ba.spring_damping(kernel, omega)
    lorentz = GAMMA**2 + delta**2
    assert spring == pytest.approx(prefactor * delta / lorentz, rel=1e-9)
    assert damping == pytest.approx(-prefactor * GAMMA * delta / lorentz**2, rel=1e-6)


def test_exact_kernel_zero_power(narrow_config):
    config = replace(narrow_config, input_power=0.0)
    assert complex(ba.kernel_exact(config, 1e5)) == 0.0


def test_exact_kernel_no_recycling_perfect_membrane(narrow_config):
    config = replace(
        narrow_config,
        membrane=MirrorParams.from_power_reflectivity(1.0),
        srm=MirrorParams(0.0, 1.0),
    )
    geom = config.geometry
    scale = geom.carrier_omega * config.input_power / (C_LIGHT * geom.cavity_length)
    for omega in (1e3, 1e5, 1e6):
        assert abs(complex(ba.kernel_exact(config, omega))) < 1e-20 * scale


def test_exact_kernel_no_recycling_static_interference_spring(narrow_config):
    # a partially transmissive membrane sees a position-dependent mean force
    # even without recycling; the kernel must equal its gradient
    config = replace(narrow_config, srm=MirrorParams(0.0, 1.0))
    membrane, bs = config.membrane, config.bs
    psi = cav.imbalance_phase(config)
    closed_form = (
        8.0
        * config.geometry.wavenumber
        / C_LIGHT
        * config.input_power
        * membrane.reflectivity
        * membrane.transmissivity
        * bs.reflectivity
        * bs.transmissivity
        * math.sin(psi)
    )
    kernel = complex(ba.kernel_exact(config, 1e4))
    assert kernel.real == pytest.approx(closed_form, rel=1e-10)
    assert abs(kernel.imag) < 1e-12 * abs(closed_form)
    assert kernel.real == pytest.approx(static_kernel_oracle(config), rel=1e-3)


def test_exact_kernel_dc_matches_force_gradient(narrow_config):
    for factor in (-1.2, 0.0, 0.8):
        config = cav.with_total_detuning(narrow_config, factor * GAMMA)
        kernel = complex(ba.kernel_exact(config, 1e-3 * GAMMA))
        assert kernel.real == pytest.approx(static_kernel_oracle(config), rel=1e-3)


def test_exact_kernel_conjugation_symmetry(narrow_config):
    omega = np.linspace(0.1, 3.0, 11) * GAMMA
    plus = ba.kernel_exact(narrow_config, omega)
    minus = ba.kernel_exact(narrow_config, -omega)
    assert np.max(np.abs(minus - np.conj(plus)) / np.abs(plus)) < 1e-12


def test_exact_kernel_gauge_invariance(narrow_config):
    # the closed form against the matrix path, whose carrier phase has a gauge
    omega = np.linspace(0.2, 2.5, 9) * GAMMA
    base = ba.kernel_exact(narrow_config, omega)
    for gauge in (0.37, -2.2, math.pi):
        moved = matrix_path_kernel(narrow_config, omega, arm_gauge=gauge)
        assert np.max(np.abs(moved - base) / np.abs(base)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    membrane_r2=hst.floats(0.05, 0.95),
    asymmetry=hst.floats(-0.5, 0.5),
    t_sr_sq=hst.floats(1e-5, 1e-2),
    index=hst.sampled_from([1, 3, 5]),
    offset=hst.floats(-0.02, 0.02),
    span=hst.floats(0.1, 5.0),
    omega_over_gamma=hst.floats(0.05, 3.0),
    gauge=hst.floats(-math.pi, math.pi),
)
def test_exact_kernel_broadcasts_over_detuning(
    membrane_r2, asymmetry, t_sr_sq, index, offset, span, omega_over_gamma, gauge
):
    membrane = MirrorParams.from_power_reflectivity(membrane_r2)
    bs = BeamsplitterParams(asymmetry)
    try:
        cav.dark_port_phase(membrane, bs, index)
    except cav.NoDarkPortError:
        assume(False)
    config = InterferometerConfig(
        geometry=Geometry(0.05, 0.027, 0.01, WAVELENGTH),
        membrane=membrane,
        srm=MirrorParams.from_power_transmissivity(t_sr_sq),
        bs=bs,
        input_power=0.2,
        dark_port_index=index,
        offset=offset * WAVELENGTH,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # narrow-band validity is not at issue here
        gamma = cav.effective_cavity(config).half_linewidth
        deltas = np.linspace(-span, span, 9) * gamma
        omega = omega_over_gamma * gamma
        swept = ba.kernel_exact(cav.with_total_detuning(config, deltas), omega)
        points = [cav.with_total_detuning(config, d) for d in deltas]
    scalar = np.array([complex(ba.kernel_exact(point, omega)) for point in points])
    matrix = np.array([complex(matrix_path_kernel(point, omega, gauge)) for point in points])
    peak = np.max(np.abs(scalar))
    assert swept.shape == deltas.shape
    assert np.max(np.abs(swept - scalar)) <= 1e-12 * peak
    assert np.max(np.abs(matrix - scalar)) <= 1e-9 * peak


def test_oracle_equivalence_reference_regime(narrow_config):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    omegas = np.linspace(0.1, 3.0, 21) * gamma
    for delta in np.linspace(-3, 3, 13) * gamma:
        config = cav.with_total_detuning(narrow_config, delta)
        exact = ba.kernel_exact(config, omegas)
        approx = ba.kernel_narrowband(cav.effective_cavity(config), *ba._gain_inputs(config), omegas)
        assert np.max(np.abs(exact - approx) / np.abs(exact)) < 0.05


def test_oracle_equivalence_deep_narrowband(narrow_config):
    config = replace(
        narrow_config,
        srm=MirrorParams.from_power_transmissivity(1e-4),
        offset=0.01 / (2 * math.pi) * WAVELENGTH,  # |tau|^2 ~ 1.7e-5
    )
    gamma = cav.effective_cavity(config).half_linewidth
    omegas = np.linspace(0.05, 0.5, 11) * gamma
    for delta in np.linspace(-0.5, 0.5, 11) * gamma:
        tuned = cav.with_total_detuning(config, delta)
        exact = ba.kernel_exact(tuned, omegas)
        approx = ba.kernel_narrowband(cav.effective_cavity(tuned), *ba._gain_inputs(tuned), omegas)
        assert np.max(np.abs(exact - approx) / np.abs(exact)) < 0.005


def test_free_mass_zeros_at_half_linewidth_ratio(geometry):
    membrane = MirrorParams.from_power_reflectivity(1.0)
    cavity = EffectiveCavity.from_rates(GAMMA / 2, GAMMA / 2)
    spring, damping = ba.free_mass_spring_damping(
        cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length,
        np.array([0.0, GAMMA, -GAMMA]),
    )
    assert np.allclose(spring, 0.0, atol=1e-30)
    spring_g, damping_g = ba.free_mass_spring_damping(
        cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length,
        np.array([GAMMA / math.sqrt(3.0), -GAMMA / math.sqrt(3.0)]),
    )
    scale = 4 * geometry.carrier_omega * POWER / (C_LIGHT * geometry.cavity_length * GAMMA)
    assert np.max(np.abs(damping_g)) < 1e-12 * scale
    assert damping[0] == 0.0  # resonance point


def test_free_mass_consistency_with_narrowband(geometry):
    membrane = MirrorParams.from_power_reflectivity(1.0)
    cavity = EffectiveCavity.from_rates(GAMMA / 2, GAMMA / 2)
    deltas = np.array([-2.31, -1.47, -0.53, 0.37, 1.23, 2.79]) * GAMMA
    omega = 1e-6 * GAMMA
    kernel = ba.kernel_narrowband(
        cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length, omega,
        detuning=deltas,
    )
    spring_nb, damping_nb = ba.spring_damping(kernel, omega)
    spring_fm, damping_fm = ba.free_mass_spring_damping(
        cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length, deltas
    )
    assert np.max(np.abs(spring_nb - spring_fm) / np.abs(spring_fm)) < 1e-4
    assert np.max(np.abs(damping_nb - damping_fm) / np.abs(damping_fm)) < 1e-3


def test_dc_limit_matches_richardson(narrow_config):
    config = cav.with_total_detuning(narrow_config, -0.6 * GAMMA)
    cavity = cav.effective_cavity(config)
    args = (
        config.membrane,
        config.input_power,
        config.geometry.carrier_omega,
        config.geometry.cavity_length,
    )
    spring_dc, damping_dc = ba.spring_damping_dc(cavity, *args)

    def damping_at(om):
        return -ba.kernel_narrowband(cavity, *args, om).imag / (2.0 * om)

    # one-sided difference with one Richardson step; the direct ratio is singular at zero
    step = 1e-6 * cavity.half_linewidth
    richardson = (4.0 * damping_at(step / 2.0) - damping_at(step)) / 3.0
    assert damping_dc == pytest.approx(richardson, rel=1e-10)
    kernel_zero = complex(ba.kernel_narrowband(cavity, *args, 0.0))
    assert spring_dc == pytest.approx(kernel_zero.real, rel=1e-12)


@pytest.mark.parametrize("power_reflectivity", [1.0, 0.17])
def test_dc_limit_reduces_to_free_mass_form(geometry, power_reflectivity):
    # the free-mass laws keep the squared membrane reflectivity as a
    # prefactor; at zero membrane detuning they match the general quasi-static
    # limit for any reflectivity
    membrane = MirrorParams.from_power_reflectivity(power_reflectivity)
    cavity = EffectiveCavity.from_rates(0.6 * GAMMA, 0.4 * GAMMA)
    deltas = np.array([-1.3, -0.2, 0.9]) * GAMMA
    dc = ba.spring_damping_dc(
        cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length, deltas
    )
    fm = ba.free_mass_spring_damping(
        cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length, deltas
    )
    assert np.allclose(dc[0], fm[0], rtol=1e-12)
    assert np.allclose(dc[1], fm[1], rtol=1e-12)
    assert np.all(fm[0] != 0.0)


def canonical_features(geometry, omega):
    """Spring and damping zeros of the canonical narrow-band curves over
    +-5 gamma, and the damping sampled below resonance."""
    membrane = MirrorParams.from_power_reflectivity(0.17)
    args = (canonical_cavity(), membrane, POWER, geometry.carrier_omega, geometry.cavity_length)

    def curves(delta):
        return ba.spring_damping(ba.kernel_narrowband(*args, omega, detuning=delta), omega)

    spring_zeros, damping_zeros = (
        st.find_zero_crossings(lambda d: float(curves(d)[which]), -5 * GAMMA, 5 * GAMMA, 1000)
        for which in (0, 1)
    )
    below = np.linspace(-5, -1e-3, 1000) * GAMMA
    return spring_zeros, damping_zeros, curves(below)[1]


def test_canonical_features_wide_line(geometry):
    # line twice the analysis frequency: one spring zero, on resonance
    spring_zeros, damping_zeros, damping_below = canonical_features(geometry, GAMMA / 2)
    assert spring_zeros == pytest.approx([0.0], abs=1e-8 * GAMMA)
    assert damping_zeros == pytest.approx([0.0], abs=1e-8 * GAMMA)
    assert np.all(damping_below > 0.0)


def test_canonical_features_resolved_sideband(geometry):
    # line half the analysis frequency: the outer spring crossings sit at
    # +-sqrt(omega^2 - gamma^2)
    omega = 2 * GAMMA
    spring_zeros, damping_zeros, damping_below = canonical_features(geometry, omega)
    outer = math.sqrt(omega**2 - GAMMA**2)
    assert spring_zeros == pytest.approx([-outer, 0.0, outer], abs=1e-8 * GAMMA)
    assert damping_zeros == pytest.approx([0.0], abs=1e-8 * GAMMA)
    assert np.all(damping_below > 0.0)


def test_canonical_antisymmetry_tolerance(geometry):
    membrane = MirrorParams.from_power_reflectivity(0.17)
    cavity = canonical_cavity()
    deltas = np.linspace(-4, 4, 801) * GAMMA
    for omega in (0.5 * GAMMA, 2 * GAMMA):
        kernel = ba.kernel_narrowband(
            cavity, membrane, POWER, geometry.carrier_omega, geometry.cavity_length, omega,
            detuning=deltas,
        )
        spring, damping = ba.spring_damping(kernel, omega)
        assert np.max(np.abs(spring + spring[::-1])) < 1e-10 * np.max(np.abs(spring))
        assert np.max(np.abs(damping + damping[::-1])) < 1e-10 * np.max(np.abs(damping))


def test_responses_extract_spring_and_damping(narrow_config):
    omega = np.linspace(0.3, 2.0, 7) * GAMMA
    for kernel in (ba.kernel_exact(narrow_config, omega),
                   ba.kernel_narrowband(cav.effective_cavity(narrow_config), *ba._gain_inputs(narrow_config), omega)):
        spring, damping = ba.spring_damping(kernel, omega)
        assert np.array_equal(spring, kernel.real)
        assert np.array_equal(damping, -kernel.imag / (2 * omega))
        assert np.all(np.isfinite(kernel))


def test_exact_kernel_broadcasts_over_operating_point_and_frequency(narrow_config):
    # an srm_detuning column against an omega row, and an offset column against
    # an srm_detuning row at one omega, agree with the calls row by row
    omega = np.linspace(0.1, 3.0, 31) * GAMMA
    tunings = np.linspace(-2.0, 2.0, 7) * GAMMA
    grid = ba.kernel_exact(replace(narrow_config, srm_detuning=tunings[:, None]), omega)
    rows = np.array([ba.kernel_exact(replace(narrow_config, srm_detuning=t), omega) for t in tunings])
    assert grid.shape == rows.shape
    assert np.max(np.abs(grid - rows)) <= 1e-13 * np.max(np.abs(rows))

    offsets = np.linspace(0.005, 0.015, 5)[:, None] * WAVELENGTH
    grid = ba.kernel_exact(replace(narrow_config, offset=offsets, srm_detuning=tunings), GAMMA)
    rows = np.array(
        [ba.kernel_exact(replace(narrow_config, offset=float(x), srm_detuning=tunings), GAMMA)
         for x in offsets[:, 0]]
    )
    assert grid.shape == rows.shape
    assert np.max(np.abs(grid - rows)) <= 1e-13 * np.max(np.abs(rows))


def test_exact_kernel_evaluates_three_sideband_factors_per_block(narrow_config, monkeypatch):
    """kernel_exact composes its membrane phases at +-omega from one factor
    e_h per block and takes the recycling phase whole per sideband: three
    omega-length calls of expm1i per block, six np.sin per point."""
    sizes = []
    expm1i = cav.expm1i

    def counting(theta):
        if np.ndim(theta):
            sizes.append(np.size(theta))
        return expm1i(theta)

    gamma = cav.effective_cavity(narrow_config).half_linewidth
    omega = np.linspace(0.01, 5.0, 2 * cav._BLOCK + 100) * gamma
    monkeypatch.setattr(cav, "expm1i", counting)
    ba.kernel_exact(narrow_config, omega)
    assert sorted(sizes) == [100] * 3 + [cav._BLOCK] * 6
