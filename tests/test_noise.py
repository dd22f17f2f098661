import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ospring import backaction as ba
from ospring import cavity as cav
from ospring import noise as noi
from ospring.params import HBAR, BeamsplitterParams, Geometry, InterferometerConfig, MirrorParams

from conftest import WAVELENGTH, matrix_noise_density, random_config

OMEGA_M = 2 * math.pi * 133e3


def test_zero_power_zero_noise(narrow_config):
    config = replace(narrow_config, input_power=0.0)
    spectrum = noi.back_action_spectrum(config, np.linspace(-3e6, 3e6, 31))
    assert np.all(spectrum.total == 0.0)


def test_fully_reflective_srm_kills_detector_part(narrow_config):
    config = replace(narrow_config, srm=MirrorParams.from_power_transmissivity(0.0))
    spectrum = noi.back_action_spectrum(config, np.linspace(-3e6, 3e6, 101))
    assert np.all(spectrum.detector_part == 0.0)
    # At omega = 0 the laser part vanishes exactly for this balanced
    # beamsplitter and untuned recycling mirror: the laser-port sum reduces
    # to 2*rm*(tb^2 - rb^2)*Re(expm1(i*eps)) = 0 (50-digit evaluation: 1e-126
    # against 5e-37 at the neighbouring grid points).
    assert spectrum.laser_part[spectrum.omega == 0.0] <= 1e-12 * np.max(spectrum.laser_part)
    assert np.all(spectrum.laser_part[spectrum.omega != 0.0] > 0.0)


def test_positivity_and_closure_random_draws(geometry):
    rng = np.random.default_rng(2024)
    grid = np.linspace(-4.0, 4.0, 201)
    total_points = 0
    for _ in range(50):
        config = random_config(rng, geometry)
        config = cav.with_total_detuning(
            config, rng.uniform(-2, 2) * cav.effective_cavity(config).half_linewidth
        )
        gamma = cav.effective_cavity(config).half_linewidth
        spectrum = noi.back_action_spectrum(config, grid * gamma)
        assert np.all(spectrum.total >= 0.0)
        closure = spectrum.laser_part + spectrum.detector_part
        assert np.max(np.abs(spectrum.total - closure)) <= 1e-12 * np.max(spectrum.total)
        total_points += grid.size
    assert total_points >= 10_000


@settings(max_examples=60, deadline=None)
@given(
    membrane_r2=hst.floats(0.05, 0.95),
    asymmetry=hst.floats(-0.5, 0.5),
    index=hst.sampled_from([1, 3, 5]),
    t_sr_sq=hst.floats(1e-5, 1e-2),
    offset=hst.floats(-0.02, 0.02),
    detuning=hst.floats(-2.0, 2.0),
    power=hst.floats(0.01, 1.0),
)
def test_positivity_and_closure_over_random_configs(
    membrane_r2, asymmetry, index, t_sr_sq, offset, detuning, power
):
    """Both parts of the density are non-negative and they sum to the total,
    as in the fixed-seed draws above."""
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
        input_power=power,
        dark_port_index=index,
        offset=offset * WAVELENGTH,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # narrow-band validity is not at issue here
        gamma = cav.effective_cavity(config).half_linewidth
        config = cav.with_total_detuning(config, detuning * gamma)
    spectrum = noi.back_action_spectrum(config, np.linspace(-4.0, 4.0, 81) * gamma)
    assert np.all(spectrum.laser_part >= 0.0) and np.all(spectrum.detector_part >= 0.0)
    closure = spectrum.laser_part + spectrum.detector_part
    assert np.max(np.abs(spectrum.total - closure)) <= 1e-12 * np.max(spectrum.total)


def test_matrix_route_oracle(narrow_config, asym_config):
    for base in (narrow_config, asym_config):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = cav.with_total_detuning(base, -0.8 * cav.effective_cavity(base).half_linewidth)
            gamma = cav.effective_cavity(config).half_linewidth
        omegas = [factor * gamma for factor in (-2.3, -0.4, 0.6, 1.9)]
        matrix = [matrix_noise_density(config, omega) for omega in omegas]
        # the densities are ~1e-37-1e-33 N^2 s, far below approx's default
        # abs=1e-12, so the floor is set from this configuration's peak; the
        # worst gap is 1.07e-7 of it, and the asym laser part at -2.3 gamma
        # is 1.6e-6 off relative to itself
        floor = 1e-6 * max(max(densities) for densities in matrix)
        for omega, (laser, detector) in zip(omegas, matrix):
            spectrum = noi.back_action_spectrum(config, omega)
            assert spectrum.laser_part[0] == pytest.approx(laser, rel=1e-6, abs=floor)
            if detector > 0.0:
                assert spectrum.detector_part[0] == pytest.approx(detector, rel=1e-6, abs=floor)


def _idealized_spectrum(monkeypatch, config, omega):
    """The spectrum of the idealized canonical model: the imbalance phase
    without its sideband term omega*delta_l/c, in the sums and denominators."""
    phases = cav._phases
    with monkeypatch.context() as patch:
        patch.setattr(cav, "_phases", lambda c: phases(c)._replace(delta_l=0.0))
        return noi.back_action_spectrum(config, omega)


def test_asymmetry_vanishes_on_canonical_point(narrow_config, monkeypatch):
    config = cav.with_total_detuning(replace(narrow_config, offset=0.0), 0.0)
    spectrum = noi.back_action_spectrum(config, np.array([OMEGA_M, -OMEGA_M]))
    scale = spectrum.total.max()
    # idealized canonical model: drop the sideband imbalance correction;
    # rounding through the resonant denominator leaves ~1e-12 relative noise
    fast = _idealized_spectrum(monkeypatch, config, np.array([OMEGA_M, -OMEGA_M]))
    assert abs(fast.total[0] - fast.total[1]) <= 2e-12 * scale
    # the exact path keeps a real residue of order omega*delta_l/c
    assert abs(spectrum.total[0] - spectrum.total[1]) <= 1e-11 * scale


def test_asymmetry_continuous_at_zero_frequency(narrow_config):
    config = cav.with_total_detuning(narrow_config, -0.5e6)
    gamma = cav.effective_cavity(config).half_linewidth
    reference = abs(noi.spectral_asymmetry(config, gamma))
    small = abs(noi.spectral_asymmetry(config, 1e-6 * gamma))
    assert small < 1e-4 * reference


def test_asymmetry_rejects_nonpositive_frequency(narrow_config):
    for omega in (-1.0, 0.0):
        with pytest.raises(ValueError):
            noi.spectral_asymmetry(narrow_config, omega)


def test_asymmetry_sign_matches_damping(narrow_config):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    for factor in (-1.0, -0.4, 0.0, 0.7, 2.2):
        config = cav.with_total_detuning(narrow_config, factor * gamma)
        kernel = complex(ba.kernel_exact(config, OMEGA_M))
        damping = ba.spring_damping(kernel, OMEGA_M)[1]
        asym = noi.spectral_asymmetry(config, OMEGA_M)
        assert math.copysign(1.0, damping) == math.copysign(1.0, asym)


def test_asymmetry_equals_damping_fluctuation_identity(geometry):
    # unsymmetrized asymmetry and damping are two faces of the same response
    rng = np.random.default_rng(9)
    for _ in range(10):
        config = random_config(rng, geometry)
        gamma = cav.effective_cavity(config).half_linewidth
        config = cav.with_total_detuning(config, rng.uniform(-2, 2) * gamma)
        omega = rng.uniform(0.2, 2.5) * gamma
        damping = ba.spring_damping(complex(ba.kernel_exact(config, omega)), omega)[1]
        laser_p, det_p = matrix_noise_density(config, omega)
        laser_m, det_m = matrix_noise_density(config, -omega)
        predicted = ((laser_p + det_p) - (laser_m + det_m)) / (4 * HBAR * omega)
        assert damping == pytest.approx(predicted, rel=1e-9)


def test_on_dark_port_unimodal_lorentzian(narrow_config):
    config = cav.with_total_detuning(replace(narrow_config, offset=0.0), None or -0.7e6)
    cavity = cav.effective_cavity(config)
    grid = np.linspace(-3, 3, 1601) * cavity.half_linewidth
    spectrum = noi.back_action_spectrum(config, grid)
    slope_signs = np.sign(np.diff(spectrum.total))
    assert np.sum(np.diff(slope_signs) != 0) == 1  # single interior peak
    peak = grid[np.argmax(spectrum.total)]
    step = grid[1] - grid[0]
    assert abs(peak - (-cavity.detuning)) <= step


def test_asymmetry_zeros_coincide_with_damping_zeros(narrow_config):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    deltas = np.linspace(-3 * gamma, 3 * gamma, 201)
    damping_signs, asym_signs = [], []
    for delta in deltas:
        config = cav.with_total_detuning(narrow_config, delta)
        kernel = complex(ba.kernel_exact(config, OMEGA_M))
        damping_signs.append(math.copysign(1.0, ba.spring_damping(kernel, OMEGA_M)[1]))
        asym_signs.append(math.copysign(1.0, noi.spectral_asymmetry(config, OMEGA_M)))
    assert np.array_equal(damping_signs, asym_signs)
    flips_damping = np.flatnonzero(np.diff(damping_signs))
    flips_asym = np.flatnonzero(np.diff(asym_signs))
    assert flips_damping.size >= 2
    assert np.array_equal(flips_damping, flips_asym)


def test_fast_path_agreement(narrow_config, monkeypatch):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    grid = np.linspace(-3, 3, 501) * gamma
    grid = grid[grid != 0.0]
    exact = noi.back_action_spectrum(narrow_config, grid)
    fast = _idealized_spectrum(monkeypatch, narrow_config, grid)
    assert np.max(np.abs(fast.total - exact.total) / exact.total) < 5e-6


def test_interference_profile_structure(asym_config):
    # fully reflective recycling mirror: pure interference shapes with a deep
    # dip; partial transmission adds a resonant detector-port pedestal
    blocked = replace(asym_config, srm=MirrorParams.from_power_transmissivity(0.0))
    blocked = cav.with_total_detuning(blocked, 0.0)
    gamma = cav.effective_cavity(blocked).half_linewidth
    grid = np.linspace(-5, 5, 2001) * gamma
    pure = noi.back_action_spectrum(blocked, grid)
    assert np.all(pure.detector_part == 0.0)
    assert pure.total.min() / pure.total.max() < 0.05

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mixed = cav.with_total_detuning(asym_config, 0.0)
        gamma_mixed = cav.effective_cavity(mixed).half_linewidth
        spectrum = noi.back_action_spectrum(mixed, np.linspace(-5, 5, 2001) * gamma_mixed)
    fraction = spectrum.detector_part[np.argmax(spectrum.total)] / spectrum.total.max()
    assert 0.1 < fraction < 1.0


def test_exact_path_peak_memory(narrow_config):
    # traced peak of a long sweep in complex columns of its length: 11.0 for the
    # kernel (9.6e4 points) and 13.6 for the spectrum (8e4) when every
    # intermediate was a whole-length temporary; blocks keep both near 2
    import tracemalloc

    gamma = cav.effective_cavity(narrow_config).half_linewidth
    config = cav.with_total_detuning(narrow_config, -0.4 * gamma)
    cases = (
        (ba.kernel_exact, np.linspace(0.01, 5.0, 96_000) * gamma, 3.0),
        (noi.back_action_spectrum, np.linspace(-5.0, 5.0, 80_000) * gamma, 4.0),
    )
    for fn, omega, bound in cases:
        fn(config, omega[:10])
        tracemalloc.start()
        try:
            fn(config, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * omega.size) <= bound, fn.__name__
