import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from ospring import backaction as ba
from ospring import cavity as cav
from ospring import noise as noi
from ospring import transfer_optics as to
from ospring.presets import PRESET_NAMES, preset_path
from ospring.params import (
    C_LIGHT,
    BeamsplitterParams,
    Geometry,
    InterferometerConfig,
    MirrorParams,
)
from ospring.runconfig import load_config

from conftest import WAVELENGTH, membrane_field_matrices, random_config


def test_dark_port_offset_balanced():
    membrane = MirrorParams.from_power_reflectivity(0.17)
    bs = BeamsplitterParams(0.0)
    assert abs(cav.dark_port_offset(membrane, bs, WAVELENGTH, 1) - WAVELENGTH / 4) < 1e-22
    assert abs(cav.dark_port_offset(membrane, bs, WAVELENGTH, 3) - 3 * WAVELENGTH / 4) < 1e-22
    assert abs(cav.dark_port_offset(membrane, bs, WAVELENGTH, 5) - 5 * WAVELENGTH / 4) < 1e-21


def test_dark_port_offset_asymmetric_branch():
    membrane = MirrorParams.from_power_reflectivity(0.3)
    bs = BeamsplitterParams(-0.3)
    expected = WAVELENGTH / (2 * math.pi) * math.acos(
        math.sqrt(0.7 / 0.3) * 0.3 / math.sqrt(0.91)
    )
    assert abs(cav.dark_port_offset(membrane, bs, WAVELENGTH, 1) - expected) < 1e-20
    _, _, tau = to.effective_mirror(membrane, bs, cav.dark_port_phase(membrane, bs, 1))
    assert abs(tau) < 1e-12


def test_dark_port_requires_solvable_condition():
    membrane = MirrorParams.from_power_reflectivity(0.01)
    with pytest.raises(cav.NoDarkPortError):
        cav.dark_port_phase(membrane, BeamsplitterParams(0.9), 1)
    with pytest.raises(cav.NoDarkPortError):
        cav.dark_port_phase(MirrorParams(0.0, 1.0), BeamsplitterParams(0.0), 1)
    with pytest.raises(ValueError):
        cav.dark_port_phase(membrane, BeamsplitterParams(0.0), 2)


def test_dark_port_residual_random_draws():
    rng = np.random.default_rng(42)
    found = 0
    while found < 100:
        membrane = MirrorParams.from_power_reflectivity(rng.uniform(0.01, 1.0))
        bs = BeamsplitterParams(rng.uniform(-0.95, 0.95))
        n = int(rng.choice([1, 3, 5, 7]))
        try:
            phase = cav.dark_port_phase(membrane, bs, n)
        except cav.NoDarkPortError:
            continue
        _, _, tau = to.effective_mirror(membrane, bs, phase)
        assert abs(tau) < 1e-12
        found += 1


def test_effective_cavity_on_dark_port(narrow_config):
    config = replace(narrow_config, offset=0.0, srm_detuning=12345.0)
    cavity = cav.effective_cavity(config)
    assert cavity.membrane_half_linewidth < 1e-18
    assert abs(cavity.membrane_detuning) < 1e-6
    assert cavity.detuning == pytest.approx(12345.0, rel=1e-12)


def test_effective_cavity_reference_linewidth(narrow_config):
    cavity = cav.effective_cavity(narrow_config)
    target = 2 * math.pi * 133e3
    assert abs(cavity.half_linewidth - target) / target < 0.02
    assert abs(cavity.half_linewidth_exact - target) / target < 0.02
    # hand-evaluated decomposition terms
    geom = narrow_config.geometry
    gamma_sr_hand = C_LIGHT * 3e-4 / (4 * geom.cavity_length)
    assert cavity.srm_half_linewidth == pytest.approx(gamma_sr_hand, rel=1e-12)
    assert gamma_sr_hand == pytest.approx(2 * math.pi * 41e3, rel=0.02)
    gamma_m_hand = C_LIGHT * 0.17 * (geom.wavenumber * 0.01 * WAVELENGTH) ** 2 / (
        4 * geom.cavity_length
    )
    assert gamma_m_hand == pytest.approx(2 * math.pi * 92e3, rel=0.02)
    assert (cavity.srm_half_linewidth + gamma_m_hand) == pytest.approx(target, rel=0.02)


def test_effective_cavity_identities(narrow_config):
    config = replace(narrow_config, srm_detuning=-7.5e5)
    cavity = cav.effective_cavity(config)
    assert cavity.detuning == cavity.srm_detuning + cavity.membrane_detuning
    assert cavity.half_linewidth == cavity.srm_half_linewidth + cavity.membrane_half_linewidth
    assert cavity.srm_half_linewidth >= 0.0 and cavity.membrane_half_linewidth >= 0.0


@settings(max_examples=100, deadline=None)
@given(
    membrane_r2=hst.floats(0.05, 1.0),
    asymmetry=hst.floats(-0.6, 0.6),
    t_sr_sq=hst.floats(1e-5, 1e-2),
    index=hst.sampled_from([1, 3, 5, 7]),
    offsets=hst.lists(hst.floats(-0.12, 0.12), min_size=1, max_size=8),
    srm_detuning=hst.floats(-1e7, 1e7),
)
def test_effective_cavity_broadcasts_over_offset(
    membrane_r2, asymmetry, t_sr_sq, index, offsets, srm_detuning
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
        srm_detuning=srm_detuning,
    )
    xs = np.array(offsets) * WAVELENGTH
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # narrow-band validity is not at issue here
        grid = cav.effective_cavity(replace(config, offset=xs))
        rows = [cav.effective_cavity(replace(config, offset=float(x))) for x in xs]
    for field in fields(cav.EffectiveCavity):
        got = np.broadcast_to(getattr(grid, field.name), xs.shape)
        want = np.array([getattr(row, field.name) for row in rows], dtype=float)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), field.name


@settings(max_examples=100, deadline=None)
@given(
    membrane_r2=hst.floats(0.05, 1.0),
    asymmetry=hst.floats(-0.6, 0.6),
    index=hst.sampled_from([1, 3, 5, 7]),
    offsets=hst.lists(hst.floats(-0.12, 0.12), min_size=1, max_size=8),
    detuning=hst.floats(-1e7, 1e7),
    scalar=hst.booleans(),
)
def test_total_detuning_matches_the_reduction_bit_for_bit(
    membrane_r2, asymmetry, index, offsets, detuning, scalar
):
    """with_total_detuning forms only the membrane detuning, and it is the one
    effective_cavity reports, for a scalar and an array offset."""
    membrane = MirrorParams.from_power_reflectivity(membrane_r2)
    bs = BeamsplitterParams(asymmetry)
    try:
        cav.dark_port_phase(membrane, bs, index)
    except cav.NoDarkPortError:
        assume(False)
    xs = np.array(offsets) * WAVELENGTH
    config = InterferometerConfig(
        geometry=Geometry(0.05, 0.027, 0.01, WAVELENGTH),
        membrane=membrane,
        srm=MirrorParams.from_power_transmissivity(3e-4),
        bs=bs,
        input_power=0.2,
        dark_port_index=index,
        offset=float(xs[0]) if scalar else xs,
        srm_detuning=1.5e5,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # narrow-band validity is not at issue here
        want = detuning - cav.effective_cavity(config).membrane_detuning
        got = cav.with_total_detuning(config, detuning).srm_detuning
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_exact_vs_narrowband_linewidth_bound(narrow_config):
    for offset in (0.002, 0.01, 0.03):
        config = replace(narrow_config, offset=offset * WAVELENGTH)
        cavity = cav.effective_cavity(config)
        tau_sq = 4 * cavity.membrane_half_linewidth * config.geometry.cavity_length / C_LIGHT
        t_sr_sq = config.srm.transmissivity**2
        rel = abs(cavity.half_linewidth_exact - cavity.half_linewidth) / cavity.half_linewidth_exact
        assert rel < t_sr_sq + tau_sq


def test_linewidth_gap_closed_form_on_random_configs():
    """With a = T_sr^2, b = tau^2 and q = 1 - R_sr*|rho2|, q*(2 - q) = a + b - a*b
    gives gamma_exact - gamma = gamma*(q^2 - a*b)/(a + b) exactly; since
    q <= (a + b)/(1 + R_sr*|rho2|) and a*b <= (a + b)^2/4, the gap stays below
    gamma*(a + b)/(1 + R_sr*|rho2|)^2, which it reaches where a or b vanishes.
    ``validate``'s narrowband_linewidth_gap allows twice that."""
    rng = np.random.default_rng(17)
    geometry = Geometry(0.05, 0.027, 0.01, WAVELENGTH)
    for i in range(400):
        config = random_config(rng, geometry, max_offset=0.2, max_tsr_sq=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # wide lines are the point here
            if i % 4 == 0:  # T_sr = 0: the gap reaches the bound
                config = replace(config, srm=MirrorParams.from_power_transmissivity(0.0))
            cavity = cav.effective_cavity(config)
        _, rho2, tau = to.effective_mirror(config.membrane, config.bs, cav.imbalance_phase(config))
        a, b = config.srm.transmissivity**2, abs(tau) ** 2
        loop = config.srm.reflectivity * abs(rho2)
        q = (a + b - a * b) / (1.0 + loop)
        gamma = cavity.half_linewidth
        gap = cavity.half_linewidth_exact - gamma
        assert gap == pytest.approx(gamma * (q * q - a * b) / (a + b), rel=0, abs=1e-13 * gamma)
        assert abs(gap) <= gamma * ((a + b) / (1.0 + loop) ** 2 + 1e-13)


def test_small_offset_expansion_zero_offset(narrow_config):
    config = replace(narrow_config, offset=0.0)
    gamma_m, delta_m, sign = cav.small_offset_expansion(config)
    assert gamma_m == 0.0 and delta_m == 0.0 and sign in (-1.0, 1.0)


def test_small_offset_expansion_matches_exact(narrow_config):
    cavity = cav.effective_cavity(narrow_config)
    gamma_m, delta_m, sign = cav.small_offset_expansion(narrow_config)
    assert sign == -1.0  # third dark port
    assert gamma_m == pytest.approx(cavity.membrane_half_linewidth, rel=0.01)
    assert delta_m == pytest.approx(cavity.membrane_detuning, rel=0.01)


def test_small_offset_ratio_is_mirror_ratio(narrow_config):
    membrane = narrow_config.membrane
    for offset in (1e-3, 5e-3, 2e-2):
        config = replace(narrow_config, offset=offset * WAVELENGTH)
        gamma_m, delta_m, _ = cav.small_offset_expansion(config)
        assert abs(delta_m / gamma_m) == pytest.approx(
            membrane.transmissivity / membrane.reflectivity, rel=1e-12
        )


def test_small_offset_requires_balanced_beamsplitter(asym_config):
    with pytest.raises(ValueError):
        cav.small_offset_expansion(asym_config)


def test_quadratic_scaling_slope(narrow_config):
    offsets = np.array([1e-4, 2e-4, 4e-4]) * WAVELENGTH
    values = [
        cav.effective_cavity(replace(narrow_config, offset=x)).membrane_half_linewidth
        for x in offsets
    ]
    slopes = np.diff(np.log(values)) / math.log(2.0)
    assert np.all(np.abs(slopes - 2.0) < 0.01)
    rel_dev = [
        abs(v / (values[0] * (x / offsets[0]) ** 2) - 1.0) for v, x in zip(values, offsets)
    ]
    assert max(rel_dev) < 0.005


def test_membrane_detuning_sign_alternation(narrow_config):
    signs = []
    for n in (1, 3, 5, 7):
        config = replace(narrow_config, dark_port_index=n, offset=1e-3 * WAVELENGTH)
        signs.append(math.copysign(1.0, cav.effective_cavity(config).membrane_detuning))
    assert signs == [1.0, -1.0, 1.0, -1.0]


def test_with_total_detuning_roundtrip(narrow_config):
    for target in (-2.2e6, 0.0, 7.7e5):
        tuned = cav.with_total_detuning(narrow_config, target)
        assert cav.effective_cavity(tuned).detuning == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_with_total_detuning_matches_replace(name):
    # the retuned copy skips the checks replace() would re-run, not a bit of its fields
    config, cavity = load_config(preset_path(name)).interferometer()
    for target in (-2.2e6, np.linspace(-3.0, 3.0, 7) * cavity.half_linewidth):
        tuned = cav.with_total_detuning(config, target)
        expected = replace(config, srm_detuning=target - cavity.membrane_detuning)
        assert type(tuned) is InterferometerConfig
        for field in fields(config):
            got, want = getattr(tuned, field.name), getattr(expected, field.name)
            if field.name == "srm_detuning":
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            else:
                assert got is want, field.name


def test_narrowband_warning_for_fat_linewidth(geometry):
    config = InterferometerConfig(
        geometry=geometry,
        membrane=MirrorParams.from_power_reflectivity(0.5),
        srm=MirrorParams.from_power_transmissivity(0.5),
        bs=BeamsplitterParams(0.0),
        input_power=0.1,
    )
    with pytest.warns(UserWarning):
        cav.effective_cavity(config)


def test_offset_warning_beyond_eighth_wave(geometry):
    with pytest.warns(UserWarning):
        InterferometerConfig(
            geometry=geometry,
            membrane=MirrorParams.from_power_reflectivity(0.17),
            srm=MirrorParams.from_power_transmissivity(3e-4),
            bs=BeamsplitterParams(0.0),
            input_power=0.1,
            offset=0.2 * WAVELENGTH,
        )


def test_resonance_denominator_matches_effective_quantities(narrow_config):
    config = cav.with_total_detuning(narrow_config, -5e5)
    cavity = cav.effective_cavity(config)
    denom = complex(cav.resonance_denominator(config, 0.0))
    lc = config.geometry.cavity_length
    # narrow-band form of the denominator at the carrier
    approx = 2 * lc / C_LIGHT * (cavity.half_linewidth - 1j * cavity.detuning)
    assert abs(denom - approx) / abs(denom) < 2e-3


def test_membrane_field_matrices_resonant_gain(narrow_config):
    config = cav.with_total_detuning(narrow_config, 0.0)
    cavity = cav.effective_cavity(config)
    m_inc, _ = membrane_field_matrices(config, 0.0)
    gain = abs(m_inc[1, 1]) ** 2
    lorentz = (
        config.bs.transmissivity**2
        * config.srm.transmissivity**2
        * (C_LIGHT / (2 * config.geometry.cavity_length)) ** 2
        / (cavity.half_linewidth**2 + cavity.detuning**2)
    )
    assert abs(gain - lorentz) / gain < 0.01


def test_composed_phase_factor_matches_50_digit_reference():
    """e_a + e_b*(1 + e_a), with e_x = expm1(i*x), against expm1(i*(a + b)) at
    50 digits.  It is as accurate as expm1i of the rounded sum a + b up to a
    few ulp of the parts: where a and b nearly cancel (the recycling phase at
    srm_detuning ~ -omega) the rounded sum is exact and the parts are the
    larger numbers."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    rng = np.random.default_rng(11)
    n = 400

    def signed_decades(low, high):
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(low, high, n)

    a = signed_decades(-9, 0)
    b = np.concatenate([signed_decades(-9, 0), -a * (1.0 + signed_decades(-12, -1))])
    a = np.concatenate([a, a])
    e_a, e_b = cav.expm1i(a), cav.expm1i(b)
    composed = cav._compose(e_a, e_b)
    rounded = cav.expm1i(a + b)
    ulp = np.finfo(float).eps
    with mp.workdps(50):
        for i in range(a.size):
            exact = mp.expj(mp.mpf(a[i]) + mp.mpf(b[i])) - 1
            err_composed = float(abs(mp.mpc(composed[i]) - exact))
            err_rounded = float(abs(mp.mpc(rounded[i]) - exact))
            assert err_composed <= err_rounded + 4.0 * ulp * (abs(e_a[i]) + abs(e_b[i])), i


@pytest.mark.parametrize("name", ["fig2c", "fig4b"])
def test_operating_point_grid_equals_its_rows_bit_for_bit(name):
    """An offset-rows x detunings grid runs in blocks of offset rows, each
    block resolving its own operating point: every row of the kernel and of
    the spectrum equals the call at that single offset, bit for bit, for row
    counts that fill one block, run two rows past it, and leave one row for
    the last block, and for rows wider than a block, each its own block.
    The single offset is a one-row grid: a Python-float offset takes scalar
    products, and a 1-D sweep other numpy loops, either of which may round
    differently in the last bit (fig4b)."""
    config, cavity = load_config(preset_path(name)).interferometer()
    omega = 0.7 * cavity.half_linewidth
    step = cav._BLOCK // 400
    for rows, width in ((step, 400), (step + 2, 400), (2 * step + 1, 400), (3, cav._BLOCK + 808)):
        deltas = np.linspace(-3.0, 3.0, width) * cavity.half_linewidth
        offsets = np.linspace(0.0, 0.02, rows) * config.geometry.wavelength
        grid = cav.with_total_detuning(replace(config, offset=offsets[:, None]), deltas)
        kernel = ba.kernel_exact(grid, omega)
        spectrum = noi.back_action_spectrum(grid, omega)
        assert kernel.shape == spectrum.total.shape == (rows, deltas.size)
        for i in range(rows):
            row = cav.with_total_detuning(replace(config, offset=offsets[i : i + 1, None]), deltas)
            assert np.array_equal(kernel[i], ba.kernel_exact(row, omega)[0]), (rows, width, i)
            single = noi.back_action_spectrum(row, omega)
            assert np.array_equal(spectrum.laser_part[i], single.laser_part[0]), (rows, width, i)
            assert np.array_equal(spectrum.detector_part[i], single.detector_part[0]), (rows, width, i)


def test_sweep_of_two_blocks_and_one_point_equals_one_whole_call(monkeypatch):
    """A 1-D sweep one point longer than two blocks equals one whole-length
    call bit for bit, its last block of one point included (fig4b)."""
    config, cavity = load_config(preset_path("fig4b")).interferometer()
    omega = np.linspace(0.1, 3.0, 2 * cav._BLOCK + 1) * cavity.half_linewidth
    blocked = ba.kernel_exact(config, omega)
    monkeypatch.setattr(cav, "_BLOCK", omega.size)
    assert np.array_equal(blocked, ba.kernel_exact(config, omega))


def test_operating_point_grid_peak_memory():
    """A 400 x 400 fig2c exact grid (offset column x detuning row at the
    mechanical frequency) holds its complex result and one block's
    temporaries: the traced peak read 27 MiB when the grid ran whole."""
    run = load_config(preset_path("fig2c"))
    config, cavity = run.interferometer()
    offsets = np.linspace(0.0, 0.02, 400)[:, None] * config.geometry.wavelength
    deltas = np.linspace(-3.0, 3.0, 400) * cavity.half_linewidth
    grid = cav.with_total_detuning(replace(config, offset=offsets), deltas)
    omega = 2.0 * math.pi * run.physical["mech_freq_hz"]
    ba.kernel_exact(cav.with_total_detuning(config, deltas), omega)
    tracemalloc.start()
    try:
        ba.kernel_exact(grid, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak / 2**20
