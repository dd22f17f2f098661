import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from ospring import cavity as cav
from ospring import transfer_optics as to
from ospring.params import BeamsplitterParams, Geometry, InterferometerConfig, MirrorParams

from conftest import WAVELENGTH, msi_matrix, random_config, random_lossless, sideband_propagators


def test_beamsplitter_balanced():
    m = to.beamsplitter_matrix(BeamsplitterParams(0.0))
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(m, [[s, -s], [s, s]], atol=1e-15)


def test_beamsplitter_fully_transmissive_limit():
    m = to.beamsplitter_matrix(BeamsplitterParams(1.0 - 1e-14))
    assert np.allclose(m, np.eye(2), atol=1e-6)


def test_beamsplitter_asymmetric():
    m = to.beamsplitter_matrix(BeamsplitterParams(-0.3))
    assert np.allclose(
        m,
        [[math.sqrt(0.35), -math.sqrt(0.65)], [math.sqrt(0.65), math.sqrt(0.35)]],
        atol=1e-15,
    )


def test_beamsplitter_asymmetry_bounds():
    with pytest.raises(ValueError):
        BeamsplitterParams(1.0)
    with pytest.raises(ValueError):
        BeamsplitterParams(-1.0)


def test_membrane_perfect_mirror():
    m = to.membrane_matrix(MirrorParams(1.0, 0.0))
    assert np.allclose(m, [[-1, 0], [0, 1]], atol=0)


def test_membrane_fully_transparent():
    m = to.membrane_matrix(MirrorParams(0.0, 1.0))
    assert np.allclose(m, [[0, 1], [1, 0]], atol=0)


def test_membrane_partial():
    mp = MirrorParams.from_power_reflectivity(0.17)
    m = to.membrane_matrix(mp)
    assert m[0, 0] == -math.sqrt(0.17)
    assert m[0, 1] == m[1, 0] == math.sqrt(0.83)
    assert m[1, 1] == math.sqrt(0.17)


def test_mirror_lossless_guard():
    with pytest.raises(ValueError):
        MirrorParams(0.9, 0.9)
    with pytest.raises(ValueError):
        MirrorParams(-0.1, math.sqrt(1 - 0.01))


def test_msi_dark_port_balanced_quarter_wave():
    geom = Geometry(0.05, 0.027, 0.01, WAVELENGTH)
    membrane = MirrorParams.from_power_reflectivity(0.17)
    bs = BeamsplitterParams(0.0)
    _, _, rho2, tau = msi_matrix(geom, membrane, bs, geom.wavenumber, WAVELENGTH / 4.0)
    assert abs(tau) < 1e-12
    # unitarity forces the dark-port reflectivity onto the unit circle
    assert abs(abs(rho2) - 1.0) < 1e-12


def test_msi_perfect_membrane_closed_form():
    membrane = MirrorParams(1.0, 0.0)
    bs = BeamsplitterParams(0.0)
    for psi in (0.1, 0.7, 2.0, -1.3):
        _, rho2, tau = to.effective_mirror(membrane, bs, psi)
        assert abs(tau - math.cos(psi)) < 1e-14
        assert abs(abs(rho2) - abs(math.sin(psi))) < 1e-14


def test_msi_asymmetric_dark_port_residual():
    membrane = MirrorParams.from_power_reflectivity(0.3)
    bs = BeamsplitterParams(-0.3)
    phase = cav.dark_port_phase(membrane, bs, 1)
    _, _, tau = to.effective_mirror(membrane, bs, phase)
    assert abs(tau) < 1e-12


def test_dark_port_sequence_balanced():
    membrane = MirrorParams.from_power_reflectivity(0.4)
    bs = BeamsplitterParams(0.0)
    for n in (1, 3, 5, 7):
        _, _, tau = to.effective_mirror(membrane, bs, n * math.pi / 2.0)
        assert abs(tau) < 1e-12


def test_unitarity_and_effective_mirror_identities():
    rng = np.random.default_rng(101)
    eye = np.eye(2)
    for _ in range(1000):
        membrane, bs, geom, imbalance = random_lossless(rng)
        k = geom.wavenumber * rng.uniform(0.5, 2.0)
        for m in (to.beamsplitter_matrix(bs), to.membrane_matrix(membrane)):
            assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-12
        m_ms, rho1, rho2, tau = msi_matrix(geom, membrane, bs, k, imbalance)
        assert np.max(np.abs(m_ms.conj().T @ m_ms - eye)) < 1e-12
        assert abs(rho2 + np.conj(rho1)) < 1e-14
        assert abs(abs(rho2) ** 2 + abs(tau) ** 2 - 1.0) < 1e-12


def _loop(config, omega):
    """Recycling loop p_sr R_sr p_sr M_ms built from the tuned propagators."""
    p_arm, p_fold, p_sr = sideband_propagators(config, omega)
    m_bs = to.beamsplitter_matrix(config.bs)
    m_ms = m_bs.T @ p_arm @ p_fold @ to.membrane_matrix(config.membrane) @ p_fold @ p_arm @ m_bs
    r_sr = np.diag([0.0, config.srm.reflectivity]).astype(complex)
    return p_sr @ r_sr @ p_sr @ m_ms


def _tuned_config(membrane, bs, srm, offset=0.0):
    return InterferometerConfig(
        geometry=Geometry(0.05, 0.027, 0.01, WAVELENGTH),
        membrane=membrane,
        srm=srm,
        bs=bs,
        input_power=0.2,
        dark_port_index=1,
        offset=offset,
    )


def test_resolvent_matches_numeric_inversion():
    rng = np.random.default_rng(7)
    eye = np.eye(2)
    for _ in range(200):
        config = random_config(rng, Geometry(0.05, 0.027, 0.01, WAVELENGTH), max_tsr_sq=0.5)
        config = replace(config, srm_detuning=rng.uniform(-1.0, 1.0) * 1e8)
        omega = rng.uniform(-1.0, 1.0) * 1e8
        for p in sideband_propagators(config, omega):
            assert np.max(np.abs(p.conj().T @ p - eye)) < 1e-12
        loop = _loop(config, omega)
        denom = complex(cav.resonance_denominator(config, omega))
        assert abs(denom - (1.0 - loop[1, 1])) < 1e-12
        closed = np.array([[1.0, 0.0], [loop[1, 0] / denom, 1.0 / denom]])
        direct = np.linalg.inv(eye - loop)
        assert np.max(np.abs(closed - direct)) < 1e-12 * np.max(np.abs(direct))


def test_resolvent_no_recycling_is_identity():
    membrane = MirrorParams.from_power_reflectivity(0.17)
    no_srm = MirrorParams(0.0, 1.0)
    config = _tuned_config(membrane, BeamsplitterParams(0.0), no_srm, 0.02 * WAVELENGTH)
    for omega in (0.0, 3e7):
        assert cav.resonance_denominator(config, omega) == 1.0
        assert np.max(np.abs(_loop(config, omega))) == 0.0


def test_resolvent_dark_port_kills_cross_coupling():
    membrane = MirrorParams.from_power_reflectivity(0.3)
    srm = MirrorParams.from_power_transmissivity(0.3)
    config = _tuned_config(membrane, BeamsplitterParams(-0.3), srm)
    assert abs(_loop(config, 0.0)[1, 0]) < 1e-12


def test_resolvent_peak_amplitude():
    # on the dark port at resonance the loop phase vanishes: |1/denom| = 1/(1 - 0.99)
    srm = MirrorParams(0.99, math.sqrt(1.0 - 0.99**2))
    config = _tuned_config(MirrorParams(1.0, 0.0), BeamsplitterParams(0.0), srm)
    denom = complex(cav.resonance_denominator(config, 0.0))
    assert abs(abs(1.0 / denom) - 100.0) < 1e-6


def test_resolvent_degeneracy_error():
    config = _tuned_config(MirrorParams(1.0, 0.0), BeamsplitterParams(0.0), MirrorParams(1.0, 0.0))
    with pytest.raises(cav.DegenerateResonanceError):
        cav.resonance_denominator(config, 0.0)


def _raw_propagators(geom, dl, k):
    """Arm, fold and recycling-path propagators with every phase taken
    literally as k times a macroscopic length; dl is the arm imbalance."""
    p_arm = np.diag([np.exp(1j * k * geom.arm_length)] * 2)
    p_fold = np.diag(
        [
            np.exp(1j * k * (geom.half_arm - dl / 2.0)),
            np.exp(1j * k * (geom.half_arm + dl / 2.0)),
        ]
    )
    p_sr = np.diag([1.0, np.exp(1j * k * geom.sr_distance)]).astype(complex)
    return p_arm, p_fold, p_sr


def _raw_denominator(geom, dl, membrane, bs, srm, k):
    _, rho2, _ = to.effective_mirror(membrane, bs, k * dl)
    return 1.0 - srm.reflectivity * rho2 * cmath.exp(2j * k * geom.cavity_length)


def _explicit_field_matrices(geom, dl, membrane, bs, srm, k):
    """Independent element-by-element transcription of the field maps."""
    rm, tm = membrane.reflectivity, membrane.transmissivity
    rb, tb = bs.reflectivity, bs.transmissivity
    r_sr, t_sr = srm.reflectivity, srm.transmissivity
    lc = geom.cavity_length
    arm = geom.arm_length + geom.half_arm
    d = _raw_denominator(geom, dl, membrane, bs, srm, k)

    e = cmath.exp
    m_a = np.array(
        [
            [
                (tb * (1 - rm * r_sr * e(2j * k * (lc + dl / 2))) + rb * tm * r_sr * e(2j * k * lc))
                * e(1j * k * (arm - dl / 2)) / d,
                -t_sr * rb * e(1j * k * (lc - dl / 2)) / d,
            ],
            [
                (rb * (1 + rm * r_sr * e(2j * k * (lc - dl / 2))) + tb * tm * r_sr * e(2j * k * lc))
                * e(1j * k * (arm + dl / 2)) / d,
                t_sr * tb * e(1j * k * (lc + dl / 2)) / d,
            ],
        ]
    )
    m_b = np.array(
        [
            [
                (-tb * (rm - r_sr * e(2j * k * (lc + dl / 2))) + tm * rb * e(1j * k * dl))
                * e(1j * k * (arm - dl / 2)) / d,
                t_sr * (rb * rm + tm * tb * e(1j * k * dl)) * e(1j * k * (lc - dl / 2)) / d,
            ],
            [
                (rb * (rm + r_sr * e(2j * k * (lc - dl / 2))) + tm * tb * e(-1j * k * dl))
                * e(1j * k * (arm + dl / 2)) / d,
                t_sr * (tb * rm - tm * rb * e(-1j * k * dl)) * e(1j * k * (lc + dl / 2)) / d,
            ],
        ]
    )
    return m_a, m_b


def test_field_matrices_match_explicit_elements():
    rng = np.random.default_rng(11)
    for _ in range(50):
        membrane = MirrorParams.from_power_reflectivity(rng.uniform(0.05, 0.95))
        bs = BeamsplitterParams(rng.uniform(-0.8, 0.8))
        srm = MirrorParams.from_power_transmissivity(rng.uniform(0.01, 0.9))
        geom = Geometry(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0), WAVELENGTH)
        dl = rng.uniform(-0.05, 0.05)
        k = rng.uniform(1.0, 20.0)
        denominator = _raw_denominator(geom, dl, membrane, bs, srm, k)
        propagators = _raw_propagators(geom, dl, k)
        composed = to.field_matrices(membrane, bs, srm, *propagators, denominator)
        explicit = _explicit_field_matrices(geom, dl, membrane, bs, srm, k)
        for built, written in zip(composed, explicit):
            assert np.max(np.abs(built - written)) < 1e-12


def test_field_matrices_energy_split_without_recycling():
    geom = Geometry(0.05, 0.027, 0.01, WAVELENGTH)
    membrane = MirrorParams.from_power_reflectivity(0.17)
    bs = BeamsplitterParams(0.0)
    no_srm = MirrorParams(0.0, 1.0)
    p = _raw_propagators(geom, 0.8e-6, geom.wavenumber)
    m_inc, m_ref = to.field_matrices(membrane, bs, no_srm, *p, denominator=1.0)
    assert abs(abs(m_inc[0, 0]) ** 2 + abs(m_inc[1, 0]) ** 2 - 1.0) < 1e-12
