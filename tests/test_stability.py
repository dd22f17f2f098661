import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ospring import backaction as ba
from ospring import cavity as cav
from ospring import stability as st
from ospring.cavity import EffectiveCavity
from ospring.params import MechanicalOscillator, MirrorParams
from ospring.presets import preset_path
from ospring.runconfig import load_config

from conftest import WAVELENGTH

GAMMA = 2 * math.pi * 133e3
POWER = 0.2
MIRROR = MirrorParams.from_power_reflectivity(1.0)
# an interval's ends in either order scan and refine the same
SIGNS = (1.0, -1.0)


def free_mass_curves(geometry, gamma_m_over_gamma, detuning):
    cavity = EffectiveCavity.from_rates(
        GAMMA * (1.0 - gamma_m_over_gamma), GAMMA * gamma_m_over_gamma
    )
    return ba.free_mass_spring_damping(
        cavity, MIRROR, POWER, geometry.carrier_omega, geometry.cavity_length, detuning
    )


def test_zero_crossings_canonical_damping(geometry):
    def damping(delta):
        return float(free_mass_curves(geometry, 0.0, delta)[1])

    for sign in SIGNS:
        zeros = st.find_zero_crossings(damping, -5 * sign * GAMMA, 5 * sign * GAMMA, 512)
        assert zeros.size == 1
        assert abs(zeros[0]) < 1e-6 * GAMMA


def test_zero_crossings_free_mass_spring(geometry):
    def spring(delta):
        return float(free_mass_curves(geometry, 0.5, delta)[0])

    scale = max(abs(spring(d)) for d in np.linspace(-5 * GAMMA, 5 * GAMMA, 64))
    for sign in SIGNS:
        zeros = st.find_zero_crossings(spring, -5 * sign * GAMMA, 5 * sign * GAMMA, 2048)
        assert zeros == pytest.approx([-GAMMA, 0.0, GAMMA], abs=1e-6 * GAMMA)
        # residual smallness at the refined zeros
        for zero in zeros:
            assert abs(spring(zero)) < 1e-9 * scale


def test_zero_crossings_free_mass_damping(geometry):
    def damping(delta):
        return float(free_mass_curves(geometry, 0.5, delta)[1])

    expected = GAMMA / math.sqrt(3.0)
    for sign in SIGNS:
        zeros = st.find_zero_crossings(damping, -5 * sign * GAMMA, 5 * sign * GAMMA, 2048)
        assert zeros == pytest.approx([-expected, 0.0, expected], abs=1e-6 * GAMMA)


def test_zero_crossings_edge_cases():
    assert st.find_zero_crossings(lambda x: 1.0, -1.0, 1.0, 64).size == 0
    # tangential zero is not claimed
    assert st.find_zero_crossings(lambda x: (x - 0.25) ** 2, -1.0, 1.0, 256).size == 0
    # node-exact zero counted once
    zeros = st.find_zero_crossings(lambda x: x, -1.0, 1.0, 64)
    assert zeros.size == 1 and abs(zeros[0]) < 1e-12
    # an off-node zero is refined whichever end comes first
    for sign in SIGNS:
        zeros = st.find_zero_crossings(lambda x: x - 0.3, -sign, sign, 64)
        assert zeros.size == 1 and abs(zeros[0] - 0.3) <= 1e-9
    with pytest.raises(ValueError):
        st.find_zero_crossings(lambda x: x, -1.0, 1.0, 32)
    with pytest.raises(ValueError):
        st.find_zero_crossings(lambda x: float("nan"), -1.0, 1.0, 64)


@pytest.mark.parametrize("xtol", [0.0, -1e-12, float("nan")])
def test_zero_crossings_reject_non_positive_xtol(xtol):
    with pytest.raises(ValueError, match="xtol"):
        st.find_zero_crossings(lambda x: x - 0.3, -1.0, 1.0, 64, xtol=xtol)


@settings(max_examples=200, deadline=None)
@given(
    roots=hst.lists(hst.floats(-0.95, 0.95), min_size=1, max_size=5),
    scale=hst.floats(1e-3, 1e7),
    amplitude=hst.sampled_from([-1e-20, -2.5, 1.0, 3e8]),
    rel_xtol=hst.sampled_from([None, 1e-13, 1e-11, 1e-6]),
    sign=hst.sampled_from(SIGNS),
)
def test_zero_crossings_find_every_simple_root(roots, scale, amplitude, rel_xtol, sign):
    roots = np.sort(roots)
    # well separated: every scan interval (2/512 wide) holds at most one root
    assume(np.all(np.diff(roots) > 0.02))
    roots = roots * scale

    def product(x):
        return amplitude * math.prod(x - r for r in roots)

    xtol = None if rel_xtol is None else rel_xtol * scale
    zeros = st.find_zero_crossings(product, -sign * scale, sign * scale, 512, xtol=xtol)
    assert zeros.size == roots.size
    bound = 1e-9 * scale if xtol is None else xtol
    assert np.all(np.abs(zeros - roots) <= bound)


def _oracle_zeros(cavity, omega, lo, hi):
    """50-digit sign-changing zeros in (lo, hi) of the narrow-band spring and
    damping: each law times its positive denominator is a polynomial in the
    detuning, interpolated from degree + 1 samples and solved by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        gamma, gamma_sr, gamma_m, delta_m = (mpmath.mpf(v) for v in (
            cavity.half_linewidth, cavity.srm_half_linewidth,
            cavity.membrane_half_linewidth, cavity.membrane_detuning,
        ))

        def numerators(x):
            delta = x * gamma
            delta_sr = delta - delta_m
            lorentz = gamma**2 + delta**2
            reduced = lorentz - 4 * (gamma * gamma_m + delta * delta_m)
            cross = gamma_sr * delta_m + gamma_m * delta_sr
            if omega is None:
                spring = delta_sr * reduced / lorentz**2
                damping = -(gamma * delta_sr * reduced / lorentz + cross) / lorentz**2
                return spring * lorentz**2, damping * lorentz**3
            w = mpmath.mpf(omega)
            den = (lorentz - w * w) - 2j * gamma * w
            kernel = (delta_sr * reduced + 2j * cross * w + delta_m * w * w) / (lorentz * den)
            scale = lorentz * abs(den) ** 2
            return kernel.real * scale, -kernel.imag / (2 * w) * scale

        zeros = []
        for which, degree in enumerate((3, 3) if omega is None else (5, 3)):
            xs = [mpmath.mpf(k) / degree * 6 - 3 for k in range(degree + 1)]
            vandermonde = mpmath.matrix([[x**j for j in range(degree + 1)] for x in xs])
            coeffs = mpmath.lu_solve(vandermonde, mpmath.matrix([numerators(x)[which] for x in xs]))
            roots = mpmath.polyroots(list(coeffs)[::-1], maxsteps=200, extraprec=200)
            real = sorted(float(mpmath.re(r) * gamma) for r in roots if abs(mpmath.im(r)) < 1e-30)
            zeros.append([z for z in real if lo < z < hi])
        return zeros


@pytest.mark.parametrize("name", ["fig2c", "fig2d", "fig3a", "fig3b", "fig3c", "fig3d"])
@pytest.mark.parametrize("finite_omega", [False, True])
def test_stability_report_zeros_match_50_digit_roots(name, finite_omega):
    run = load_config(preset_path(name))
    config, cavity = run.interferometer()
    gamma = cavity.half_linewidth
    # the fig3 presets are free masses without an oscillator: give them fig2's
    oscillator = run.oscillator() or MechanicalOscillator(
        8e-11, 2 * math.pi * 133e3, 2 * math.pi * 0.1
    )
    omega = oscillator.resonance_frequency if finite_omega else None
    deltas = run.sweeps[0].grid() * gamma
    report = st.stability_report(config, oscillator, deltas, omega)
    expected = _oracle_zeros(cavity, omega, deltas[0], deltas[-1])
    for zeros, reference in zip((report.spring_zeros, report.damping_zeros), expected):
        assert zeros.size == len(reference) > 0
        bound = 1e-12 * np.maximum(np.abs(reference), gamma)
        assert np.all(np.abs(zeros - reference) <= bound)


def test_stability_report_sweeps_twice(narrow_config, monkeypatch):
    calls = []
    sweep = st._spring_damping_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(st, "_spring_damping_sweep", counted)
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    oscillator = MechanicalOscillator(8e-11, 2 * math.pi * 133e3, 2 * math.pi * 0.1)
    deltas = np.linspace(-3 * gamma, 3 * gamma, 241)
    for omega in (None, oscillator.resonance_frequency):
        calls.clear()
        report = st.stability_report(narrow_config, oscillator, deltas, omega)
        assert report.spring_zeros.size and report.damping_zeros.size
        assert len(calls) == 2


def ratio_config(narrow_config, gamma_m_over_gamma):
    """Fully reflective membrane on dark port 1 at the offset that gives the
    dissipative half-linewidth this share of the total."""
    config = replace(
        narrow_config, membrane=MirrorParams.from_power_reflectivity(1.0), dark_port_index=1
    )
    q = gamma_m_over_gamma
    ratio = config.srm.transmissivity / config.membrane.reflectivity * math.sqrt(q / (1.0 - q))
    return replace(config, offset=math.asin(ratio) / config.geometry.wavenumber)


@pytest.mark.parametrize(
    "ratio", [0.2500001, 0.250001, 0.3, 1.0 / 3.0 + 1e-7, 0.34, 0.5, 0.75]
)
def test_stability_report_free_mass_closed_forms(narrow_config, ratio):
    # zeros closer together than 6*gamma/1024, the step of a 1024-interval
    # scan over +-3*gamma, are found as well as wide ones
    config = ratio_config(narrow_config, ratio)
    cavity = cav.effective_cavity(config)
    gamma, gamma_m = cavity.half_linewidth, cavity.membrane_half_linewidth
    assert cavity.membrane_detuning == 0.0
    assert gamma_m / gamma == pytest.approx(ratio, rel=1e-12)
    oscillator = MechanicalOscillator(1e-7, 0.0, 1e-6 * gamma)
    deltas = np.linspace(-3 * gamma, 3 * gamma, 241)
    report = st.stability_report(config, oscillator, deltas)

    spring_edge = math.sqrt(gamma * (4.0 * gamma_m - gamma))
    damping_edge = (
        gamma * math.sqrt((3.0 * gamma_m - gamma) / (gamma + gamma_m))
        if 3.0 * gamma_m > gamma else 0.0
    )
    bound = 1e-12 * gamma
    expected_damping = [-damping_edge, 0.0, damping_edge] if damping_edge else [0.0]
    assert report.spring_zeros == pytest.approx([-spring_edge, 0.0, spring_edge], abs=bound)
    assert report.damping_zeros == pytest.approx(expected_damping, abs=bound)
    assert len(report.stable_windows) == 1
    assert report.stable_windows[0] == pytest.approx((-spring_edge, -damping_edge), abs=bound)


def test_stability_report_finds_close_spring_zeros(narrow_config):
    # gamma_m/gamma = 0.250001: the spring vanishes at 0 and +-0.002*gamma,
    # and the spring is stable between -0.002*gamma and resonance
    config = ratio_config(narrow_config, 0.250001)
    gamma = cav.effective_cavity(config).half_linewidth
    oscillator = MechanicalOscillator(1e-7, 0.0, 1e-6 * gamma)
    report = st.stability_report(config, oscillator, np.linspace(-3 * gamma, 3 * gamma, 241))
    assert report.spring_zeros / gamma == pytest.approx([-0.002, 0.0, 0.002], rel=1e-6, abs=1e-15)
    assert report.damping_zeros.tolist() == [0.0]
    assert len(report.stable_windows) == 1
    low, high = report.stable_windows[0]
    assert low / gamma == pytest.approx(-0.002, rel=1e-6)
    assert high == 0.0


def test_stability_report_shared_root_leaves_no_sliver_window(narrow_config):
    # without recycling loss both quasi-static numerators carry the factor
    # delta - delta_m: the spring is positive only above that root and the
    # damping only below it, so no window may open between the two copies
    config = replace(narrow_config, srm=MirrorParams.from_power_transmissivity(0.0))
    cavity = cav.effective_cavity(config)
    gamma = cavity.half_linewidth
    oscillator = MechanicalOscillator(8e-11, 2 * math.pi * 133e3, 2 * math.pi * 0.1)
    report = st.stability_report(config, oscillator, np.linspace(-3 * gamma, 3 * gamma, 241))
    assert report.spring_zeros[0] == pytest.approx(cavity.membrane_detuning, rel=1e-12)
    assert report.damping_zeros[0] == pytest.approx(cavity.membrane_detuning, rel=1e-12)
    assert report.stable_windows == []


def test_stability_report_rejects_zero_linewidth(narrow_config):
    # a lossless recycling mirror on the membrane's node: gamma = 0, and the
    # narrow-band laws divide by delta^2
    config = replace(
        narrow_config, srm=MirrorParams.from_power_transmissivity(0.0), offset=0.0
    )
    assert cav.effective_cavity(config).half_linewidth == 0.0
    oscillator = MechanicalOscillator(8e-11, 2 * math.pi * 133e3, 2 * math.pi * 0.1)
    with pytest.raises(ValueError, match="half-linewidth"):
        st.stability_report(config, oscillator, np.linspace(-1e6, 1e6, 241))


def test_stability_report_reversed_sweep_same_zeros_and_windows():
    run = load_config(preset_path("fig2c"))
    config, cavity = run.interferometer()
    gamma = cavity.half_linewidth
    oscillator = run.oscillator()
    deltas = run.sweeps[0].grid() * gamma
    forward, backward = (
        st.stability_report(config, oscillator, d, oscillator.resonance_frequency)
        for d in (deltas, deltas[::-1])
    )
    assert forward.spring_zeros / gamma == pytest.approx([-1.60749, 0.79563], abs=1e-5)
    assert len(forward.stable_windows) == 1
    for name in ("spring_zeros", "damping_zeros", "stable_windows"):
        assert (np.array(getattr(forward, name)).tobytes()
                == np.array(getattr(backward, name)).tobytes()), name
    for name in ("spring", "damping", "labels", "rh_verdicts"):
        assert np.array_equal(getattr(forward, name), getattr(backward, name)[::-1]), name


def test_zero_crossings_grid_refinement_stable(geometry):
    def spring(delta):
        return float(free_mass_curves(geometry, 0.5, delta)[0])

    coarse = st.find_zero_crossings(spring, -5 * GAMMA, 5 * GAMMA, 1024)
    fine = st.find_zero_crossings(spring, -5 * GAMMA, 5 * GAMMA, 2048)
    assert coarse.size == fine.size
    assert np.max(np.abs(coarse - fine)) < 2e-9 * 5 * GAMMA


def test_routh_table_known_polynomials():
    # (s+1)^4: all left half-plane
    assert st.routh_hurwitz_stable([1, 4, 6, 4, 1])
    # one right-half-plane root
    poly = np.poly([-2.0, -3.0, -4.0, 1.0])
    assert not st.routh_hurwitz_stable(poly)
    assert not st.roots_stable(poly)
    # marginal oscillator s^2 + 1: not strictly stable
    assert not st.routh_hurwitz_stable([1.0, 0.0, 1.0])
    # its vanishing pivot stays in the column as a zero
    assert list(st.routh_first_column([1.0, 0.0, 1.0])) == [1.0, 0.0, 0.0]
    with pytest.raises(st.DegenerateLeadingCoefficientError):
        st.routh_hurwitz_stable([0.0, 1.0, 1.0])
    with pytest.raises(st.DegenerateLeadingCoefficientError):
        st.roots_stable([0.0, 1.0, 1.0])
    column = st.routh_first_column([1, 4, 6, 4, 1])
    assert len(column) == 5 and all(v > 0 for v in column)
    # a zero constant term is a root at s = 0: never strictly stable
    assert not st.routh_hurwitz_stable([1, 3, 3, 1, 0])
    assert not st.roots_stable([1, 3, 3, 1, 0])
    # a stack gives one verdict per row, a stacked Routh column per row
    stable_negated = -np.poly([-1.0, -2.0, -0.5, -3.0])
    stack = np.array([[1, 4, 6, 4, 1], poly, [1, 3, 3, 1, 0], stable_negated])
    expected = [True, False, False, True]
    assert st.routh_hurwitz_stable(stack).tolist() == expected
    assert st.roots_stable(stack).tolist() == expected
    assert st.routh_first_column(stack).shape == (4, 5)
    assert np.array_equal(st.routh_first_column(stack)[0], column)
    with pytest.raises(st.DegenerateLeadingCoefficientError):
        st.roots_stable(np.vstack([stack, [0.0, 1.0, 1.0, 1.0, 1.0]]))


def _quartic(row):
    """Real quartic from two conjugate root pairs and its verdict; the flag
    replaces the second pair by its real part and a root at 0."""
    factors, zero_root = row[:2], row[2]
    roots = []
    for re, im, left in factors:
        re = -re if left else re
        roots += [complex(re, im), complex(re, -im)]
    if zero_root:
        roots[2:] = [roots[2].real, 0.0]
    stable = all(r.real < 0.0 for r in roots) and not zero_root
    return np.poly(roots).real, stable


_FACTOR = hst.tuples(hst.floats(0.1, 10.0), hst.floats(0.0, 5.0), hst.booleans())


@settings(max_examples=200, deadline=None)
@given(
    rows=hst.lists(hst.tuples(_FACTOR, _FACTOR, hst.booleans()), min_size=1, max_size=12),
    lead=hst.sampled_from([1.0, -2.5, 1e-12, 3e8]),
)
def test_stacked_verdicts_match_construction(rows, lead):
    built = [_quartic(row) for row in rows]
    coeffs = lead * np.array([c for c, _ in built])
    expected = np.array([stable for _, stable in built])
    per_row = np.array([np.all(np.roots(c).real < 0.0) for c in coeffs])
    assert np.array_equal(per_row, expected)
    assert np.array_equal(st.routh_hurwitz_stable(coeffs), expected)
    assert np.array_equal(st.roots_stable(coeffs), expected)


def _closed_loop_identity_residual(cavity, oscillator, gain_inputs):
    """Largest deviation, over 13 detunings in +-3 gamma x 40 omega in 0.05-5 gamma,
    of P(-i*omega) = lorentz*D(-i*omega)*[m*(w_m^2 - omega^2 - 2i*g_m*omega) + K_nb(omega)]
    with D(s) = s^2 + 2*gamma*s + lorentz, relative to the size of its right side's terms,
    lorentz*|D|*(m*(w_m^2 + omega^2) + |K_nb|)."""
    gamma = cavity.half_linewidth
    deltas = np.linspace(-3.0, 3.0, 13)[:, None] * gamma
    omega = np.linspace(0.05, 5.0, 40) * gamma
    coeffs = st.characteristic_polynomial(cavity, oscillator, *gain_inputs, detuning=deltas)
    s = -1j * omega
    poly = 0.0
    for k in range(coeffs.shape[-1]):
        poly = poly * s + coeffs[..., k]
    lorentz = gamma * gamma + deltas * deltas
    d = s * s + 2.0 * gamma * s + lorentz
    m, w_sq, g_m = oscillator.mass, oscillator.resonance_frequency**2, oscillator.damping_rate
    kernel = ba.kernel_narrowband(cavity, *gain_inputs, omega, detuning=deltas)
    expected = lorentz * d * (m * (w_sq - omega * omega - 2j * g_m * omega) + kernel)
    scale = lorentz * np.abs(d) * (m * (w_sq + omega * omega) + np.abs(kernel))
    return np.max(np.abs(poly - expected) / scale)


@pytest.mark.parametrize("name", ["fig2c", "fig2d"])
def test_characteristic_polynomial_is_the_closed_loop_of_its_kernel(name):
    """Every coefficient of P, damping's s^1 included, is that of the oscillator
    equation multiplied through by the kernel denominator: the residual reads
    4.1e-16 on these presets, and a 1e-6 relative error in the s^1 coefficient
    lifts it to 4.3e-7."""
    run = load_config(preset_path(name))
    config, cavity = run.interferometer()
    residual = _closed_loop_identity_residual(cavity, run.oscillator(), ba._gain_inputs(config))
    assert residual < 1e-14


def test_characteristic_polynomial_closed_loop_on_random_cavities(geometry):
    """The closed-loop identity on seeded random cavities and oscillators, the
    kernel's peak from 1e-7 to 3e2 of the oscillator's own term."""
    rng = np.random.default_rng(20121)
    for _ in range(40):
        gamma = rng.uniform(1e4, 1e7)
        cavity = EffectiveCavity.from_rates(
            gamma * rng.uniform(0.1, 1.0), gamma * rng.uniform(0.0, 1.0),
            membrane_detuning=gamma * rng.uniform(-1.0, 1.0),
        )
        oscillator = MechanicalOscillator(
            10.0 ** rng.uniform(-11.0, -7.0), gamma * rng.uniform(0.1, 3.0),
            gamma * 10.0 ** rng.uniform(-7.0, -1.0),
        )
        gain_inputs = (
            MirrorParams.from_power_reflectivity(rng.uniform(0.05, 1.0)), rng.uniform(0.01, 1.0),
            geometry.carrier_omega, rng.uniform(0.01, 1.0),
        )
        assert _closed_loop_identity_residual(cavity, oscillator, gain_inputs) < 1e-14


def test_canonical_detuned_free_mass_is_unstable(narrow_config):
    config = replace(narrow_config, offset=0.0)
    oscillator = MechanicalOscillator(1e-10, 0.0, 1e-6 * GAMMA)
    cavity = cav.effective_cavity(config)
    for delta in (-1.5 * GAMMA, -0.5 * GAMMA, 0.5 * GAMMA, 1.5 * GAMMA):
        coeffs = st.characteristic_polynomial(
            cavity, oscillator, config.membrane, config.input_power,
            config.geometry.carrier_omega, config.geometry.cavity_length, delta,
        )
        assert not st.routh_hurwitz_stable(coeffs)
        assert not st.roots_stable(coeffs)


def test_stable_window_confirmed_by_both_oracles(geometry):
    # quasi-static test mass: spring frequency well below the cavity line
    cavity = EffectiveCavity.from_rates(GAMMA / 2, GAMMA / 2)
    oscillator = MechanicalOscillator(1e-7, 0.0, 1e-6 * GAMMA)
    window = (-GAMMA, -GAMMA / math.sqrt(3.0))
    inside = np.linspace(window[0] + 0.05 * GAMMA, window[1] - 0.05 * GAMMA, 9)
    outside = np.array([-2.0, -1.2, -0.4, 0.4, 1.2]) * GAMMA
    for delta in inside:
        coeffs = st.characteristic_polynomial(
            cavity, oscillator, MIRROR, POWER, geometry.carrier_omega,
            geometry.cavity_length, delta,
        )
        assert st.routh_hurwitz_stable(coeffs)
        assert st.roots_stable(coeffs)
    for delta in outside:
        coeffs = st.characteristic_polynomial(
            cavity, oscillator, MIRROR, POWER, geometry.carrier_omega,
            geometry.cavity_length, delta,
        )
        assert not st.routh_hurwitz_stable(coeffs)
        assert not st.roots_stable(coeffs)


def test_oracle_agreement_random_samples(geometry):
    rng = np.random.default_rng(77)
    for _ in range(1000):
        ratio = rng.uniform(0.0, 0.9)
        cavity = EffectiveCavity.from_rates(
            GAMMA * (1.0 - ratio),
            GAMMA * ratio,
            membrane_detuning=rng.uniform(-0.3, 0.3) * GAMMA,
        )
        oscillator = MechanicalOscillator(
            10.0 ** rng.uniform(-12, -6),
            rng.uniform(0.0, 3.0) * GAMMA,
            rng.uniform(1e-7, 1e-2) * GAMMA,
        )
        coeffs = st.characteristic_polynomial(
            cavity, oscillator, MIRROR, rng.uniform(0.01, 1.0),
            geometry.carrier_omega, geometry.cavity_length,
            rng.uniform(-3.0, 3.0) * GAMMA,
        )
        assert st.routh_hurwitz_stable(coeffs) == st.roots_stable(coeffs)


def _count_positive_side_crossings(geometry, ratio, which):
    grid = np.geomspace(1e-8 * GAMMA, 5 * GAMMA, 512)
    values = free_mass_curves(geometry, ratio, grid)[which]
    return int(np.sum(np.diff(np.sign(values)) != 0))


def bisect_threshold(predicate, lo, hi, tol=1e-7):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_spring_zero_threshold(geometry):
    threshold = bisect_threshold(
        lambda r: _count_positive_side_crossings(geometry, r, 0) > 0, 0.1, 0.45
    )
    assert abs(threshold - 0.25) < 1e-6


def test_damping_zero_threshold(geometry):
    threshold = bisect_threshold(
        lambda r: _count_positive_side_crossings(geometry, r, 1) > 0, 0.25, 0.45
    )
    assert abs(threshold - 1.0 / 3.0) < 1e-6


def equal_rates_offset(config):
    """Offset that makes the dissipative rate equal to the recycling rate."""
    ratio = config.srm.transmissivity / config.membrane.reflectivity
    return math.asin(ratio) / config.geometry.wavenumber


def test_stability_report_windows_and_verdicts(geometry, narrow_config):
    config = replace(
        narrow_config,
        membrane=MirrorParams.from_power_reflectivity(1.0),
        dark_port_index=1,
    )
    config = replace(config, offset=equal_rates_offset(config))
    gamma = cav.effective_cavity(config).half_linewidth
    oscillator = MechanicalOscillator(1e-7, 0.0, 1e-6 * gamma)
    deltas = np.linspace(-3 * gamma, 3 * gamma, 241)
    report = st.stability_report(config, oscillator, deltas, omega_eval=None)

    assert report.spring_zeros == pytest.approx(
        [-gamma, 0.0, gamma], abs=1e-5 * gamma
    )
    assert report.damping_zeros == pytest.approx(
        [-gamma / math.sqrt(3.0), 0.0, gamma / math.sqrt(3.0)], abs=1e-5 * gamma
    )
    assert np.array_equal(report.rh_verdicts, report.root_verdicts)
    assert len(report.stable_windows) == 1
    low, high = report.stable_windows[0]
    assert low == pytest.approx(-gamma, rel=1e-12)
    assert high == pytest.approx(-gamma / math.sqrt(3.0), rel=1e-12)
    # every stable-spring label passes the polynomial test, heating fails it
    for i, label in enumerate(report.labels):
        if label == "stable_spring":
            assert report.rh_verdicts[i]
        if label == "heating":
            assert not report.rh_verdicts[i]


def test_regime_map_canonical_row_antisymmetric(narrow_config):
    # evaluate below the zero-offset row's own (recycling-only) linewidth so
    # the canonical single-crossing shape applies there
    gamma_row = cav.effective_cavity(replace(narrow_config, offset=0.0)).half_linewidth
    deltas = np.linspace(-2 * gamma_row, 2 * gamma_row, 81)
    grid = st.regime_map(narrow_config, deltas, np.array([0.0]), omega_eval=0.4 * gamma_row)
    row = grid.labels[0]
    # detuning reversal flips both signs: cooling pairs with an unstable
    # spring, heating with a stable one
    partner = {
        "cooling": "unstable_spring",
        "heating": "stable_spring",
        "stable_spring": "heating",
        "unstable_spring": "cooling",
        "neutral": "neutral",
    }
    for a, b in zip(row, row[::-1]):
        assert partner[a] == b
    below = deltas < -0.05 * gamma_row
    assert set(row[below]) == {"cooling"}


def test_regime_map_offset_row_multiple_damping_regions(narrow_config):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    deltas = np.linspace(-3 * gamma, 3 * gamma, 301)
    grid = st.regime_map(
        narrow_config, deltas, np.array([narrow_config.offset]), omega_eval=2 * math.pi * 133e3
    )
    damping = grid.damping[0]
    assert abs(damping[np.argmin(np.abs(deltas))]) > 1e-3 * np.max(np.abs(damping))
    assert np.sum(np.diff(np.sign(damping)) != 0) >= 2


def test_regime_map_stable_region_free_mass(narrow_config):
    config = replace(
        narrow_config, membrane=MirrorParams.from_power_reflectivity(1.0), dark_port_index=1
    )
    offset_equal_rates = equal_rates_offset(config)
    gamma = cav.effective_cavity(replace(config, offset=offset_equal_rates)).half_linewidth
    deltas = np.linspace(-2 * gamma, 2 * gamma, 161)
    grid = st.regime_map(
        config, deltas, np.array([offset_equal_rates / 10.0, offset_equal_rates]), omega_eval=None
    )
    sparse_row, strong_row = grid.labels
    assert "stable_spring" not in sparse_row
    stable = np.flatnonzero(strong_row == "stable_spring")
    assert stable.size > 0
    assert np.all(deltas[stable] < 0.0)


def test_regime_map_preset_ratio_rows(narrow_config):
    # dissipative-to-recycling rate ratios 1/3, 1/2, 3/4, 1 (the fig3 preset
    # ladder): a stable window appears from the second row on
    config = replace(
        narrow_config,
        membrane=MirrorParams.from_power_reflectivity(1.0),
        srm=MirrorParams.from_power_transmissivity(1e-4),
        dark_port_index=1,
    )
    scales = [1.0 / math.sqrt(3.0), 1.0 / math.sqrt(2.0), math.sqrt(0.75), 1.0]
    offsets = np.array([0.01 * s / config.geometry.wavenumber for s in scales])
    gamma = cav.effective_cavity(replace(config, offset=offsets[-1])).half_linewidth
    deltas = np.linspace(-2 * gamma, 2 * gamma, 321)
    grid = st.regime_map(config, deltas, offsets, omega_eval=None)
    has_stable = [bool(np.any(row == "stable_spring")) for row in grid.labels]
    assert has_stable == [False, True, True, True]


def _map_in_row_blocks(monkeypatch, config, deltas, offsets, omega_eval):
    """regime_map's result and the offset rows of each block it evaluated."""
    blocks = []
    sweep = st._spring_damping_sweep

    def recording(config, cavity, deltas, omega_eval):
        blocks.append(np.shape(cavity.half_linewidth)[0])
        return sweep(config, cavity, deltas, omega_eval)

    with monkeypatch.context() as patch:
        patch.setattr(st, "_spring_damping_sweep", recording)
        grid = st.regime_map(config, deltas, offsets, omega_eval)
    return grid, blocks


def _block_spanning_offsets(lo, hi, n_d):
    """Offsets for two whole row blocks of n_d-cell rows and a shorter third."""
    rows = cav._BLOCK // n_d
    return np.linspace(lo, hi, 2 * rows + rows // 3) * WAVELENGTH, [rows, rows, rows // 3]


def test_finite_frequency_regime_map_rows_match_single_offset_sweeps(narrow_config, monkeypatch):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    deltas = np.linspace(-2 * gamma, 2 * gamma, 41)
    offsets, expected_blocks = _block_spanning_offsets(0.0, 0.02, deltas.size)
    grid, blocks = _map_in_row_blocks(monkeypatch, narrow_config, deltas, offsets, 0.5 * gamma)
    assert blocks == expected_blocks
    for i, x in enumerate(offsets):
        row = replace(narrow_config, offset=float(x))
        spring, damping = st._spring_damping_sweep(
            row, cav.effective_cavity(row), deltas, 0.5 * gamma
        )
        assert np.array_equal(grid.spring[i], spring)
        assert np.array_equal(grid.damping[i], damping)
    assert np.array_equal(grid.labels, _reference_labels(grid.spring, grid.damping))
    with pytest.raises(ValueError):
        st.regime_map(narrow_config, np.array([]), offsets, 0.5 * gamma)


def test_quasi_static_regime_map_rows_match_single_offset_sweeps(narrow_config, monkeypatch):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    deltas = np.linspace(-2 * gamma, 2 * gamma, 41)
    offsets, expected_blocks = _block_spanning_offsets(-0.02, 0.02, deltas.size)
    grid, blocks = _map_in_row_blocks(monkeypatch, narrow_config, deltas, offsets, None)
    assert blocks == expected_blocks
    assert grid.spring.shape == grid.damping.shape == (offsets.size, deltas.size)
    for i, x in enumerate(offsets):
        row = replace(narrow_config, offset=float(x))
        spring, damping = st._spring_damping_sweep(row, cav.effective_cavity(row), deltas, None)
        assert np.array_equal(grid.spring[i], spring)
        assert np.array_equal(grid.damping[i], damping)
    assert np.array_equal(grid.labels, _reference_labels(grid.spring, grid.damping))


def _codes(spring, damping):
    """The regime codes, classified as ``stability_report`` and ``regime_map`` do."""
    return st._regime_codes(spring, damping, *st._neutral_floors(spring, damping))


def test_classify_regimes_neutral_floor():
    """A point is live from NEUTRAL_FLOOR = 1e-12 of its curve's peak on,
    that fraction itself included, and neutral below it."""
    spring = np.array([1.0, -1.0, 1e-15, 1.0, 1e-11, -1e-12, 1e-13, 1.0, 1.0, 1.0])
    damping = np.array([1.0, 1.0, 1.0, -1e-15, 1.0, 1.0, 1.0, -1e-11, 1e-12, -1e-13])
    labels = st._LABELS[_codes(spring, damping)]
    assert list(labels) == [
        "stable_spring", "cooling", "neutral", "neutral",
        "stable_spring", "cooling", "neutral",
        "unstable_spring", "stable_spring", "neutral",
    ]


def _reference_labels(spring, damping):
    """The label strings assigned mask by mask, as before the uint8 codes."""
    spring = np.asarray(spring, dtype=float)
    damping = np.asarray(damping, dtype=float)
    labels = np.full(spring.shape, "neutral", dtype="U15")
    live = (np.abs(spring) >= st.NEUTRAL_FLOOR * np.max(np.abs(spring))) & (
        np.abs(damping) >= st.NEUTRAL_FLOOR * np.max(np.abs(damping))
    )
    labels[live & (damping > 0) & (spring > 0)] = "stable_spring"
    labels[live & (damping > 0) & (spring < 0)] = "cooling"
    labels[live & (damping < 0) & (spring > 0)] = "unstable_spring"
    labels[live & (damping < 0) & (spring < 0)] = "heating"
    return labels


AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e-13, -1e-13, 1.0, -1.0, 3.5, -2.0, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(
    hst.lists(hst.tuples(hst.sampled_from(AWKWARD), hst.sampled_from(AWKWARD)), min_size=1, max_size=40),
    hst.sampled_from([1.0, 1e-300, 1e300]),
)
def test_classify_regimes_matches_mask_reference(pairs, scale):
    spring, damping = (np.array(column) * scale for column in zip(*pairs))
    with np.errstate(all="ignore"):
        codes = _codes(spring, damping)
        reference = _reference_labels(spring, damping)
    labels = st._LABELS[codes]
    assert codes.dtype == np.uint8 and np.array_equal(labels, reference)


def test_regime_map_stores_codes_and_builds_labels(narrow_config):
    gamma = cav.effective_cavity(narrow_config).half_linewidth
    deltas = np.linspace(-2 * gamma, 2 * gamma, 41)
    grid = st.regime_map(narrow_config, deltas, np.linspace(0.0, 0.02, 9) * WAVELENGTH, 0.5 * gamma)
    assert grid.codes.dtype == np.uint8 and grid.codes.shape == (9, 41)
    assert grid.labels.dtype == np.dtype("U15")
    assert np.array_equal(grid.labels, _reference_labels(grid.spring, grid.damping))
    assert np.array_equal(np.array(st.REGIME_LABELS)[grid.codes], grid.labels)


@pytest.mark.parametrize("name", ["fig2c", "fig2d"])
def test_stability_report_stores_codes_and_builds_labels(name):
    run = load_config(preset_path(name))
    config, cavity = run.interferometer()
    deltas = run.sweep_grid(run.sweeps[0], config, cavity)
    oscillator = run.oscillator()
    report = st.stability_report(config, oscillator, deltas, oscillator.resonance_frequency)
    assert report.codes.dtype == np.uint8 and report.codes.shape == deltas.shape
    assert report.labels.dtype == np.dtype("U15")
    assert np.array_equal(report.labels, _reference_labels(report.spring, report.damping))
