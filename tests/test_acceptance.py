"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers once its assertions hold."""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ospring import backaction as ba
from ospring import cavity as cav
from ospring import cli
from ospring import noise as noi
from ospring import stability as st
from ospring import transfer_optics as to
from ospring.cavity import EffectiveCavity
from ospring.params import BeamsplitterParams, MechanicalOscillator, MirrorParams
from ospring.presets import PRESET_SUBCOMMANDS, preset_path

from conftest import WAVELENGTH, msi_matrix, random_config, random_lossless

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(number, message):
    print(f"[criterion {number:2d}] PASS: {message}")


def test_criterion_01_unitarity_suite():
    rng = np.random.default_rng(20240809)
    eye = np.eye(2)
    start = time.perf_counter()
    worst_unitarity = 0.0
    worst_energy = 0.0
    for _ in range(1000):
        membrane, bs, geom, imbalance = random_lossless(rng)
        k = geom.wavenumber * rng.uniform(0.5, 2.0)
        m_ms, _, rho2, tau = msi_matrix(geom, membrane, bs, k, imbalance)
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(m_ms.conj().T @ m_ms - eye)))
        )
        worst_energy = max(worst_energy, abs(abs(rho2) ** 2 + abs(tau) ** 2 - 1.0))
    elapsed = time.perf_counter() - start
    assert worst_unitarity < 1e-12
    assert worst_energy < 1e-12
    assert elapsed < 1.0
    report(1, f"1000 draws, unitarity {worst_unitarity:.2e}, "
              f"energy {worst_energy:.2e}, {elapsed:.2f}s")


def test_criterion_02_dark_port_reproduction():
    membrane = MirrorParams.from_power_reflectivity(0.17)
    balanced = BeamsplitterParams(0.0)
    worst = 0.0
    for n in (1, 3, 5):
        offset = cav.dark_port_offset(membrane, balanced, WAVELENGTH, n)
        assert offset == pytest.approx(n * WAVELENGTH / 4.0, rel=1e-12)
        _, _, tau = to.effective_mirror(
            membrane, balanced, cav.dark_port_phase(membrane, balanced, n)
        )
        worst = max(worst, abs(tau))
    asym_membrane = MirrorParams.from_power_reflectivity(0.3)
    asym_bs = BeamsplitterParams(-0.3)
    _, _, tau = to.effective_mirror(
        asym_membrane, asym_bs, cav.dark_port_phase(asym_membrane, asym_bs, 1)
    )
    worst = max(worst, abs(tau))
    assert worst < 1e-12
    report(2, f"balanced n in {{1,3,5}} and asymmetric branch, residual {worst:.2e}")


def test_criterion_03_reference_linewidth(narrow_config):
    cavity = cav.effective_cavity(narrow_config)
    target = 2 * math.pi * 133e3
    rel = abs(cavity.half_linewidth - target) / target
    rel_exact = abs(cavity.half_linewidth_exact - target) / target
    assert rel < 0.02 and rel_exact < 0.02
    report(3, f"half linewidth {cavity.half_linewidth / (2 * math.pi) / 1e3:.2f} kHz, "
              f"off target by {rel * 100:.2f}%")


def test_criterion_04_oracle_equivalence(narrow_config):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    deltas = np.linspace(-3 * gamma, 3 * gamma, 101)
    omegas = np.linspace(0.1 * gamma, 3 * gamma, 101)
    start = time.perf_counter()
    worst = 0.0
    for delta in deltas:
        config = cav.with_total_detuning(narrow_config, delta)
        exact = ba.kernel_exact(config, omegas)
        approx = ba.kernel_narrowband(cav.effective_cavity(config), *ba._gain_inputs(config), omegas)
        worst = max(worst, float(np.max(np.abs(exact - approx) / np.abs(exact))))
    elapsed = time.perf_counter() - start
    assert worst < 0.05
    assert elapsed < 5.0

    deep = replace(
        narrow_config,
        srm=MirrorParams.from_power_transmissivity(1e-4),
        offset=0.01 / (2 * math.pi) * WAVELENGTH,
    )
    gamma_deep = cav.effective_cavity(deep).half_linewidth
    worst_deep = 0.0
    for delta in np.linspace(-0.5, 0.5, 21) * gamma_deep:
        config = cav.with_total_detuning(deep, delta)
        omegas_deep = np.linspace(0.05, 0.5, 21) * gamma_deep
        exact = ba.kernel_exact(config, omegas_deep)
        approx = ba.kernel_narrowband(cav.effective_cavity(config), *ba._gain_inputs(config), omegas_deep)
        worst_deep = max(worst_deep, float(np.max(np.abs(exact - approx) / np.abs(exact))))
    assert worst_deep < 0.005
    report(4, f"101x101 grid max deviation {worst * 100:.2f}% in {elapsed:.2f}s, "
              f"deep narrowband {worst_deep * 100:.3f}%")


def test_criterion_05_canonical_features(geometry):
    membrane = MirrorParams.from_power_reflectivity(0.17)
    gamma = 2 * math.pi * 133e3
    cavity = EffectiveCavity.from_rates(gamma, 0.0)
    args = (cavity, membrane, 0.2, geometry.carrier_omega, geometry.cavity_length)
    deltas = np.linspace(-5 * gamma, 5 * gamma, 1001)
    results = {}
    for omega, expected in ((gamma / 2.0, 1), (2.0 * gamma, 3)):
        def curves(delta):
            return ba.spring_damping(ba.kernel_narrowband(*args, omega, detuning=delta), omega)

        spring, damping = curves(deltas)
        for values in (spring, damping):
            assert np.max(np.abs(values + values[::-1])) <= 1e-10 * np.max(np.abs(values))
        spring_zeros, damping_zeros = (
            st.find_zero_crossings(lambda d: float(curves(d)[which]), deltas[0], deltas[-1], 1000)
            for which in (0, 1)
        )
        assert damping_zeros.size == 1
        assert np.all(damping[deltas < -1e-3 * gamma] > 0.0)
        assert spring_zeros.size == expected == (1 if gamma >= omega else 3)
        results[omega] = spring_zeros.size
    report(5, f"antisymmetry <= 1e-10, damping single zero, spring zeros "
              f"{results[gamma / 2.0]} (broad line) / {results[2.0 * gamma]} (narrow line)")


def test_criterion_06_anomalous_zeros(geometry):
    gamma = 2 * math.pi * 133e3
    membrane = MirrorParams.from_power_reflectivity(1.0)
    args = (membrane, 0.2, geometry.carrier_omega, geometry.cavity_length)
    cavity = EffectiveCavity.from_rates(gamma / 2.0, gamma / 2.0)

    spring_zeros = st.find_zero_crossings(
        lambda d: float(ba.free_mass_spring_damping(cavity, *args, d)[0]),
        -5 * gamma, 5 * gamma, 4096,
    )
    damping_zeros = st.find_zero_crossings(
        lambda d: float(ba.free_mass_spring_damping(cavity, *args, d)[1]),
        -5 * gamma, 5 * gamma, 4096,
    )
    assert spring_zeros == pytest.approx([-gamma, 0.0, gamma], abs=1e-6 * gamma)
    assert damping_zeros == pytest.approx(
        [-gamma / math.sqrt(3.0), 0.0, gamma / math.sqrt(3.0)], abs=1e-6 * gamma
    )

    def crossings_on_positive_side(ratio, which):
        trial = EffectiveCavity.from_rates(gamma * (1.0 - ratio), gamma * ratio)
        grid = np.geomspace(1e-8 * gamma, 5 * gamma, 512)
        values = ba.free_mass_spring_damping(trial, *args, grid)[which]
        return int(np.sum(np.diff(np.sign(values)) != 0))

    def bisect(predicate, lo, hi):
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            if predicate(mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    spring_threshold = bisect(lambda r: crossings_on_positive_side(r, 0) > 0, 0.1, 0.45)
    damping_threshold = bisect(lambda r: crossings_on_positive_side(r, 1) > 0, 0.25, 0.45)
    assert abs(spring_threshold - 0.25) < 1e-6
    assert abs(damping_threshold - 1.0 / 3.0) < 1e-6
    report(6, f"zeros at +-1, +-{1 / math.sqrt(3):.6f} linewidths; thresholds "
              f"{spring_threshold:.7f} and {damping_threshold:.7f}")


def test_criterion_07_cooling_on_resonance(narrow_config):
    omega_m = 2 * math.pi * 133e3
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    resonant = cav.with_total_detuning(narrow_config, 0.0)
    damping_resonant = ba.spring_damping(
        complex(ba.kernel_exact(resonant, omega_m)), omega_m
    )[1]
    peak = max(
        abs(ba.spring_damping(
            complex(ba.kernel_exact(cav.with_total_detuning(narrow_config, d), omega_m)),
            omega_m,
        )[1])
        for d in np.linspace(-3 * gamma, 3 * gamma, 61)
    )
    assert abs(damping_resonant) > 1e-3 * peak
    asymmetry = noi.spectral_asymmetry(resonant, omega_m)
    assert math.copysign(1.0, damping_resonant) == math.copysign(1.0, asymmetry)
    report(7, f"resonant damping {damping_resonant:.3e} N s/m "
              f"({abs(damping_resonant) / peak * 100:.1f}% of peak), sign matches "
              f"the noise asymmetry")


def test_criterion_08_stable_optical_spring(geometry):
    gamma = 2 * math.pi * 133e3
    membrane = MirrorParams.from_power_reflectivity(1.0)
    cavity = EffectiveCavity.from_rates(gamma / 2.0, gamma / 2.0)
    args = (membrane, 0.2, geometry.carrier_omega, geometry.cavity_length)
    deltas = np.linspace(-3 * gamma, 3 * gamma, 601)
    spring, damping = ba.free_mass_spring_damping(cavity, *args, deltas)
    window = (spring > 0.0) & (damping > 0.0) & (deltas < 0.0)
    assert np.any(window)
    lo, hi = deltas[window][0], deltas[window][-1]
    assert lo == pytest.approx(-gamma, abs=2 * (deltas[1] - deltas[0]))
    assert hi == pytest.approx(-gamma / math.sqrt(3.0), abs=2 * (deltas[1] - deltas[0]))

    # quasi-static test mass: optical spring frequency far below the line
    oscillator = MechanicalOscillator(1e-7, 0.0, 1e-6 * gamma)
    poly_args = (cavity, oscillator, *args)
    for delta in deltas[window]:
        assert st.routh_hurwitz_stable(
            st.characteristic_polynomial(*poly_args, detuning=delta)
        )

    rng = np.random.default_rng(88)
    agreements = 0
    for _ in range(1000):
        ratio = rng.uniform(0.0, 0.9)
        trial = EffectiveCavity.from_rates(
            gamma * (1.0 - ratio), gamma * ratio,
            membrane_detuning=rng.uniform(-0.3, 0.3) * gamma,
        )
        osc = MechanicalOscillator(
            10.0 ** rng.uniform(-12, -6),
            rng.uniform(0.0, 3.0) * gamma,
            rng.uniform(1e-7, 1e-2) * gamma,
        )
        coeffs = st.characteristic_polynomial(
            trial, osc, membrane, rng.uniform(0.01, 1.0),
            geometry.carrier_omega, geometry.cavity_length,
            rng.uniform(-3.0, 3.0) * gamma,
        )
        agreements += st.routh_hurwitz_stable(coeffs) == st.roots_stable(coeffs)
    assert agreements == 1000
    report(8, f"stable window [{lo / gamma:.3f}, {hi / gamma:.3f}] linewidths, "
              f"polynomial test confirms all {np.sum(window)} nodes, "
              f"oracle agreement {agreements}/1000")


def test_criterion_09_noise_spectrum_structure(geometry, tmp_path):
    rng = np.random.default_rng(314)
    grid = np.linspace(-4.0, 4.0, 201)
    points = 0
    for _ in range(50):
        config = random_config(rng, geometry)
        config = cav.with_total_detuning(
            config, rng.uniform(-2, 2) * cav.effective_cavity(config).half_linewidth
        )
        gamma = cav.effective_cavity(config).half_linewidth
        spectrum = noi.back_action_spectrum(config, grid * gamma)
        assert np.all(spectrum.total >= 0.0)
        points += grid.size

    blocked = random_config(rng, geometry)
    blocked = replace(blocked, srm=MirrorParams.from_power_transmissivity(0.0))
    spectrum = noi.back_action_spectrum(
        blocked, grid * cav.effective_cavity(blocked).half_linewidth
    )
    assert np.all(spectrum.detector_part == 0.0)

    for name in ("fig4a", "fig4b"):
        out = tmp_path / f"{name}.csv"
        rc = cli.main(
            [PRESET_SUBCOMMANDS[name], "--config", preset_path(name), "--out", str(out)]
        )
        assert rc == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()
    report(9, f"positivity on {points} samples, detector part vanishes for a "
              f"fully reflective recycling mirror, fig4 goldens bit-exact")


def test_criterion_10_performance(narrow_config):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    start = time.perf_counter()
    grid = st.regime_map(
        narrow_config,
        np.linspace(-3 * gamma, 3 * gamma, 200),
        np.linspace(1e-4, 0.05, 200) * WAVELENGTH,
        omega_eval=2 * math.pi * 133e3,
    )
    map_time = time.perf_counter() - start
    assert grid.labels.shape == (200, 200)
    assert map_time < 10.0

    start = time.perf_counter()
    omegas = np.linspace(0.1 * gamma, 3 * gamma, 101)
    kernel = ba.kernel_exact(narrow_config, omegas)
    sweep_time = time.perf_counter() - start
    assert np.all(np.isfinite(kernel))
    assert sweep_time < 2.0
    report(10, f"200x200 regime map {map_time:.2f}s, "
               f"101-point exact sweep {sweep_time * 1e3:.1f}ms")
