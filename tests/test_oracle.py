"""50-digit mpmath reference for the effective-cavity reduction, the
back-action spectrum, the exact kernel and the narrow-band laws.

The reference re-derives every quantity from the preset's own numbers and
never calls the spectrum or kernel code it checks.  Mirror and beamsplitter
amplitudes are built at 50 digits from the preset's power values, so the
lossless identities (r^2 + t^2 = 1, |rho2| = 1 on the dark port) hold
exactly.  Lengths, the offset, the recycling tuning ``srm_detuning`` and the
abscissae are taken as the doubles the program resolves (``load_config``,
``effective_cavity`` and ``with_total_detuning``): they are inputs, and the
question is how well the program evaluates its formulas at them.  The
narrow-band kernel (fig2c) and the free-mass law (fig3a-d) start one step
later: the effective-cavity rates and the gain inputs (membrane
reflectivity, power, carrier frequency, cavity length) are also taken as the
program's doubles, and only the law is evaluated at 50 digits.

Every output column is compared after normalisation as the CLI does it,
with the error measured relative to the peak that sets the normalisation
(for the spectrum, the peak of s_f).
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from ospring import backaction as ba  # noqa: E402
from ospring import cavity as cav  # noqa: E402
from ospring import cli  # noqa: E402
from ospring.params import (  # noqa: E402
    BeamsplitterParams,
    Geometry,
    InterferometerConfig,
    MirrorParams,
)
from ospring.presets import PRESET_METHODS, PRESET_SUBCOMMANDS, preset_path  # noqa: E402
from ospring.runconfig import load_config  # noqa: E402

DIGITS = 50
C_EXACT = 299792458
H_EXACT = "6.62607015e-34"

# Worst |program - reference| / normalisation peak allowed per preset.  fig2d and
# fig4a sit within 5e-4 of a vanishing recycling denominator; 1e-13 is about
# the output's own sensitivity to the last bit of the stored recycling
# tuning there.  fig4b's bound is the error of the golden file that was
# written before the near-resonance arithmetic was reformulated.  The
# narrow-band laws are rational in well-separated rates: a few ULP of the
# column peak.
BOUNDS = {
    "fig2c": 2e-15,
    "fig2d": 1e-13,
    "fig3a": 2e-15,
    "fig3b": 2e-15,
    "fig3c": 2e-15,
    "fig3d": 2e-15,
    "fig4a": 1e-13,
    "fig4b": 4.6e-15,
}


class _Operating:
    """One resolved operating point, carried at DIGITS digits."""

    def __init__(self, run, config):
        p = run.physical
        mpf = mp.mpf
        self.rm = mp.sqrt(mpf(p["membrane_power_reflectivity"]))
        self.tm = mp.sqrt(1 - mpf(p["membrane_power_reflectivity"]))
        self.r_sr = mp.sqrt(1 - mpf(p["sr_power_transmissivity"]))
        self.t_sr = mp.sqrt(mpf(p["sr_power_transmissivity"]))
        asym = mpf(p.get("bs_asymmetry", 0.0))
        self.rb = mp.sqrt((1 - asym) / 2)
        self.tb = mp.sqrt((1 + asym) / 2)

        geom = config.geometry
        self.k0 = 2 * mp.pi / mpf(geom.wavelength)
        self.lc = mpf(geom.cavity_length)
        self.power = mpf(config.input_power)

        # dark port: tau(psi_dp) = 0 on the branch of the odd index
        index = config.dark_port_index
        base = mp.acos(-(self.tm / self.rm) * asym / mp.sqrt(1 - asym**2))
        if index % 4 == 1:
            self.psi_dp = (index - 1) * mp.pi / 2 + base
        else:
            self.psi_dp = (index + 1) * mp.pi / 2 - base
        self.psi = self.psi_dp + self.k0 * mpf(config.offset)
        self.delta_l = self.psi / self.k0
        self.arg_rho2_dp = mp.arg(self.rho2(self.psi_dp))

    def rho2(self, psi):
        p = mp.expj(psi)
        return self.rm * (self.tb**2 * p - self.rb**2 / p) - 2 * self.tm * self.rb * self.tb

    def roundtrip_phase(self, srm_detuning):
        return 2 * mp.mpf(srm_detuning) * self.lc / C_EXACT - self.arg_rho2_dp

    def denominator(self, srm_detuning, omega):
        k = mp.mpf(omega) / C_EXACT
        loop = self.roundtrip_phase(srm_detuning) + 2 * k * self.lc
        return 1 - self.r_sr * self.rho2(self.psi + k * self.delta_l) * mp.expj(loop)


def _spectrum(op, srm_detuning, omegas):
    rm, tm, rb, tb, r_sr = op.rm, op.tm, op.rb, op.tb, op.r_sr
    carrier = mp.expj(op.roundtrip_phase(srm_detuning))
    d0 = op.denominator(srm_detuning, 0)
    hbar = mp.mpf(H_EXACT) / (2 * mp.pi)
    prefactor = 4 * hbar * op.k0 / C_EXACT * rm**2 * op.power
    laser, detector = [], []
    for omega in omegas:
        k = mp.mpf(omega) / C_EXACT
        p = mp.expj(op.psi + k * op.delta_l)
        alpha1 = tm * rb * tb * (p + 1 / p) - rm * (tb**2 - rb**2)
        alpha2 = tb**2 * p + rb**2 / p
        beta1 = tm * (tb**2 * p - rb**2 / p) + 2 * rm * rb * tb
        beta2 = rb * tb * (p - 1 / p)
        side = mp.expj(2 * k * op.lc)
        laser_sum = (
            alpha1 * (1 + r_sr**2 * side)
            + alpha2 * r_sr * carrier * side
            + mp.conj(alpha2) * r_sr / carrier
        )
        detector_sum = beta1 + beta2 * r_sr / carrier
        scale = prefactor / abs(d0 * op.denominator(srm_detuning, omega)) ** 2
        laser.append(scale * abs(laser_sum) ** 2)
        detector.append(scale * op.t_sr**2 * abs(detector_sum) ** 2)
    return laser, detector


def _mat(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def _chain(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = _mat(out, m)
    return out


def _diag(a, b):
    return [[a, 0], [0, b]]


def _kernel(op, srm_detuning, omega):
    """Exact-path kernel: carrier field maps, then the feedback quadratic form."""
    rm, tm, rb, tb, r_sr = op.rm, op.tm, op.rb, op.tb, op.r_sr
    rt = op.roundtrip_phase(srm_detuning)
    m_bs = [[tb, -rb], [rb, tb]]
    m_bs_t = [[tb, rb], [-rb, tb]]
    m_m = [[-rm, tm], [tm, rm]]
    # carrier (omega = 0) propagators; the arm path is the identity there
    p_fold = _diag(mp.expj(-op.psi / 2), mp.expj(op.psi / 2))
    p_sr = _diag(1, mp.expj(rt / 2))
    m_ms = _chain(m_bs_t, p_fold, m_m, p_fold, m_bs)
    loop = _chain(p_sr, _diag(0, r_sr), p_sr, m_ms)
    i_loop = [[1 - loop[0][0], -loop[0][1]], [-loop[1][0], 1 - loop[1][1]]]
    det = i_loop[0][0] * i_loop[1][1] - i_loop[0][1] * i_loop[1][0]
    resolvent = [[i_loop[1][1] / det, -i_loop[0][1] / det], [-i_loop[1][0] / det, i_loop[0][0] / det]]
    m_inc = _chain(p_fold, m_bs, resolvent, p_sr, _diag(1, op.t_sr))
    m_ref = _mat(m_m, m_inc)
    a1, a2 = m_inc[0][0], m_inc[1][0]
    b1, b2 = mp.conj(m_ref[0][0]), mp.conj(m_ref[1][0])
    static = b1 * a1 - b2 * a2

    def quadratic_form(om):
        k = mp.mpf(om) / C_EXACT
        roundtrip = mp.expj(rt + 2 * k * op.lc)
        imbalance = mp.expj(op.psi + k * op.delta_l)
        common = rm * r_sr * roundtrip / op.denominator(srm_detuning, om)
        x11, x12, x22 = common * rb**2 / imbalance, -common * rb * tb, common * tb**2 * imbalance
        return static - 2 * (b1 * (x11 * a1 + x12 * a2) + b2 * (x12 * a1 + x22 * a2))

    scale = 2j * op.k0 / C_EXACT * rm * op.power
    return scale * (quadratic_form(omega) - mp.conj(quadratic_form(-omega)))


CAVITY_BOUND = 1e-14


def _cavity(op, srm_detuning):
    """The seven ``EffectiveCavity`` fields of the operating point, by their
    defining formulas: rates from |tau|^2, the exact half-linewidth from
    1 - R_sr*|rho2| and the membrane detuning from arg(rho2*conj(rho2_dp)).
    exp(-i*psi) is taken as conj(exp(i*psi)), so a membrane detuning that
    vanishes by symmetry is exactly 0."""
    rm, tm, rb, tb = op.rm, op.tm, op.rb, op.tb

    def rho2(psi):
        p = mp.expj(psi)
        return rm * (tb**2 * p - rb**2 * mp.conj(p)) - 2 * tm * rb * tb

    p = mp.expj(op.psi)
    tau = (rm * rb * tb * (p + mp.conj(p)) + tm * (tb**2 - rb**2)).real
    rate = C_EXACT / (4 * op.lc)
    gamma_sr, gamma_m = rate * op.t_sr**2, rate * tau**2
    delta_m = 2 * rate * mp.arg(rho2(op.psi) * mp.conj(rho2(op.psi_dp)))
    srm_detuning = mp.mpf(srm_detuning)
    return {
        "detuning": srm_detuning + delta_m,
        "srm_detuning": srm_detuning,
        "membrane_detuning": delta_m,
        "half_linewidth": gamma_sr + gamma_m,
        "half_linewidth_exact": 2 * rate * (1 - op.r_sr * abs(rho2(op.psi))),
        "srm_half_linewidth": gamma_sr,
        "membrane_half_linewidth": gamma_m,
    }


def cavity_errors(name):
    """Relative error of each ``EffectiveCavity`` field of a preset's
    resolved operating point.

    The total detuning is the sum of the resolved ``srm_detuning`` and the
    membrane detuning, and the presets resolve ``srm_detuning`` so that the
    sum is a chosen value, often 0: it is measured relative to
    |srm_detuning| + |membrane_detuning|, the scale of its terms.  A field
    whose true value is 0 is measured relative to the half-linewidth.
    """
    run = load_config(preset_path(name))
    config, cavity = run.interferometer()
    with mp.workdps(DIGITS):
        reference = _cavity(_Operating(run, config), config.srm_detuning)
        scales = {field: abs(value) for field, value in reference.items()}
        scales["detuning"] = scales["srm_detuning"] + scales["membrane_detuning"]
        return {
            field: float(
                abs(mp.mpf(getattr(cavity, field)) - value)
                / (scales[field] or reference["half_linewidth"])
            )
            for field, value in reference.items()
        }


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_effective_cavity_matches_reference(name):
    errors = cavity_errors(name)
    assert max(errors.values()) <= CAVITY_BOUND, errors


class _Rates:
    """Effective-cavity rates and the kernel gain from the program's doubles."""

    def __init__(self, config):
        cavity = cav.effective_cavity(config)
        mpf = mp.mpf
        self.gamma = mpf(cavity.half_linewidth)
        self.gamma_sr = mpf(cavity.srm_half_linewidth)
        self.gamma_m = mpf(cavity.membrane_half_linewidth)
        self.delta_m = mpf(cavity.membrane_detuning)
        geom = config.geometry
        rm = mpf(config.membrane.reflectivity)
        self.gain = (
            4 * mpf(geom.carrier_omega) * rm**2 * mpf(config.input_power)
            / (C_EXACT * mpf(geom.cavity_length))
        )


def _narrowband_kernel(rates, delta, omega):
    """Narrow-band kernel at total detuning delta and sideband frequency omega."""
    gamma, gamma_sr, gamma_m, delta_m = rates.gamma, rates.gamma_sr, rates.gamma_m, rates.delta_m
    delta, omega = mp.mpf(delta), mp.mpf(omega)
    delta_sr = delta - delta_m
    lorentz = gamma**2 + delta**2
    braces = (
        delta_sr * (lorentz - 4 * (gamma * gamma_m + delta * delta_m))
        + 2j * (gamma_sr * delta_m + gamma_m * delta_sr) * omega
        + delta_m * omega**2
    ) / lorentz
    return rates.gain * braces / (delta**2 + (gamma - 1j * omega) ** 2)


def _free_mass(rates, delta):
    """Quasi-static spring and damping of the fully reflective-membrane limit."""
    gamma, gamma_m = rates.gamma, rates.gamma_m
    delta = mp.mpf(delta)
    lorentz = gamma**2 + delta**2
    spring = rates.gain * delta / lorentz * (1 - 4 * gamma * gamma_m / lorentz)
    damping = -rates.gain * gamma * delta / lorentz**2 * (
        1 - gamma_m / gamma * (3 * gamma**2 - delta**2) / lorentz
    )
    return spring, damping


def _normalized(values, peak_of=None):
    peak = max(abs(v) for v in (values if peak_of is None else peak_of))
    return [v / peak for v in values] if peak > 0 else list(values)


def reference_columns(name):
    """Reference output columns of a preset, normalised as the CLI does.

    Returns ``(header, columns, scales)``.  Abscissa columns are the
    program's own doubles, the others lists of mpf values.  ``scales`` holds
    the peak each column's error is measured against: its own peak for an
    abscissa, else the peak of the column that sets its normalisation (1
    after normalisation; the spectrum shares the peak of s_f).
    """
    run = load_config(preset_path(name))
    config, cavity = run.interferometer()
    sweep = run.sweeps[0]
    gamma = cavity.half_linewidth
    grid = sweep.grid()
    with mp.workdps(DIGITS):
        op = _Operating(run, config)
        if PRESET_SUBCOMMANDS[name] == "spectrum":
            omegas = grid * gamma if sweep.variable == "omega_over_gamma" else grid
            laser, detector = _spectrum(op, config.srm_detuning, omegas)
            total = [a + b for a, b in zip(laser, detector)]
            header = ["omega_rad_s", "s_f", "laser_part", "detector_part"]
            columns = [list(omegas)] + [_normalized(c, total) for c in (total, laser, detector)]
        else:
            method = PRESET_METHODS[name]
            assert sweep.variable == "detuning_over_gamma"
            omega = 2 * np.pi * run.physical.get("mech_freq_hz", 0.0)
            deltas = grid * gamma
            rates = _Rates(config)
            if method == "freemass":
                spring, damping = zip(*(_free_mass(rates, d) for d in deltas))
                k_re, k_im = spring, [mp.mpf(0)] * len(spring)
            else:
                if method == "exact":
                    kernels = [
                        _kernel(op, cav.with_total_detuning(config, d).srm_detuning, omega)
                        for d in deltas
                    ]
                else:
                    kernels = [_narrowband_kernel(rates, d, omega) for d in deltas]
                k_re = [k.real for k in kernels]
                k_im = [k.imag for k in kernels]
                spring, damping = k_re, [-v / (2 * mp.mpf(omega)) for v in k_im]
            header = ["sweep_var", "k_re", "k_im", "spring_n_per_m", "damping_ns_per_m"]
            columns = [list(grid)] + [_normalized(c) for c in (k_re, k_im, spring, damping)]
    scales = [float(np.max(np.abs(columns[0])))] + [1.0] * (len(columns) - 1)
    return header, columns, scales


def column_errors(path, reference):
    """Worst |value - reference| / scale, per column of a CSV output."""
    ref_header, ref_columns, scales = reference
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",") == ref_header
    values = list(zip(*(line.split(",") for line in lines[1:])))
    errors = {}
    with mp.workdps(DIGITS):
        for name, got, ref, scale in zip(ref_header, values, ref_columns, scales):
            assert len(got) == len(ref)
            worst = max(abs(mp.mpf(float(g)) - mp.mpf(r)) for g, r in zip(got, ref))
            errors[name] = float(worst / scale)
    return errors


@pytest.mark.parametrize("index", [1, 3, 5, 7])
@pytest.mark.parametrize("power_r, asymmetry", [(0.17, 0.0), (0.3, -0.3), (1.0, 0.0), (1.0, -0.3)])
def test_dark_port_constants_are_exact_to_a_few_ulp(power_r, asymmetry, index):
    """At the stored p_dp the 50-digit cross-coupling tau vanishes to a few ulp
    of its two terms (exactly, where they are 0), and |rho2_dp| = 1 to a few ulp.

    Amplitudes are built from the power values at 50 digits, as in
    :class:`_Operating`.  A p_dp rotated by the rounding of the double psi_dp
    leaves tau = rm*Re(p_dp) = -7.6e-17 on fig2d's dark port (index 3)."""
    membrane = MirrorParams.from_power_reflectivity(power_r)
    bs = BeamsplitterParams(asymmetry)
    dark = cav._dark_port_carrier(membrane, bs, index)
    eps = np.finfo(float).eps
    with mp.workdps(DIGITS):
        rm, tm = mp.sqrt(mp.mpf(power_r)), mp.sqrt(1 - mp.mpf(power_r))
        a = mp.mpf(asymmetry)
        rb, tb = mp.sqrt((1 - a) / 2), mp.sqrt((1 + a) / 2)
        p = mp.mpc(dark.p)
        terms = (rm * rb * tb * (p + mp.conj(p)), tm * (tb**2 - rb**2))
        tau = terms[0] + terms[1]
        assert abs(tau) <= 4 * eps * (abs(terms[0]) + abs(terms[1])), float(tau)
        assert abs(abs(mp.mpc(dark.rho2)) - 1) <= 4 * eps
        rho2 = rm * (tb**2 * p - rb**2 * mp.conj(p)) - 2 * tm * rb * tb
        assert abs(mp.mpc(dark.rho2) - rho2) <= 4 * eps


def lib_point(seed):
    """A seeded operating point drawn from the ranges of the lib-sweeps
    benchmark, as ``(run, config)`` with ``run.physical`` holding the power
    values :class:`_Operating` builds its amplitudes from.  The total
    detuning is at least 0.2 gamma away from 0, so that one sideband of a
    0.01-5 gamma sweep meets the recycling resonance, omega = |srm_detuning|."""
    rng = np.random.default_rng(seed)
    physical = {
        "membrane_power_reflectivity": rng.uniform(0.12, 0.3),
        "sr_power_transmissivity": rng.uniform(1e-4, 6e-4),
        "bs_asymmetry": rng.uniform(-0.05, 0.05),
    }
    geometry = Geometry(0.05, 0.027, 0.01, 1064e-9)
    base = InterferometerConfig(
        geometry=geometry,
        membrane=MirrorParams.from_power_reflectivity(physical["membrane_power_reflectivity"]),
        srm=MirrorParams.from_power_transmissivity(physical["sr_power_transmissivity"]),
        bs=BeamsplitterParams(physical["bs_asymmetry"]),
        input_power=rng.uniform(0.05, 0.4),
        dark_port_index=int(rng.choice([1, 3, 5])),
        offset=rng.choice([-1.0, 1.0]) * rng.uniform(0.004, 0.015) * geometry.wavelength,
    )
    gamma = cav.effective_cavity(base).half_linewidth
    detuning = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0) * gamma
    return SimpleNamespace(physical=physical), cav.with_total_detuning(base, detuning)


def lib_kernel_errors(seed):
    """Worst error of the real and imaginary part of ``kernel_exact`` at a
    :func:`lib_point`, relative to the part's peak, over 0.01-5 gamma and
    five frequencies within 1e-3 of the sideband resonance."""
    run, config = lib_point(seed)
    gamma = cav.effective_cavity(config).half_linewidth
    near = abs(config.srm_detuning) * (1.0 + np.array([-1e-3, -1e-7, 0.0, 1e-7, 1e-3]))
    omega = np.concatenate([np.linspace(0.01, 5.0, 25) * gamma, near])
    got = ba.kernel_exact(config, omega)
    with mp.workdps(DIGITS):
        op = _Operating(run, config)
        ref = [_kernel(op, config.srm_detuning, w) for w in omega]
        errors = {}
        for part in ("real", "imag"):
            values = [getattr(k, part) for k in ref]
            peak = max(abs(v) for v in values)
            worst = max(abs(mp.mpf(float(getattr(g, part))) - v) for g, v in zip(got, values))
            errors[part] = float(worst / peak)
    return errors


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_exact_kernel_matches_reference_off_the_presets(seed):
    errors = lib_kernel_errors(seed)
    assert max(errors.values()) <= BOUNDS["fig2d"], errors


def _run_preset(name, out):
    """Write a preset's CLI output to ``out``, as its golden was written."""
    argv = [PRESET_SUBCOMMANDS[name], "--config", preset_path(name), "--out", str(out)]
    if name in PRESET_METHODS:
        argv += ["--method", PRESET_METHODS[name]]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_preset_columns_match_reference(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    _run_preset(name, out)
    errors = column_errors(out, reference_columns(name))
    assert max(errors.values()) <= BOUNDS[name], errors


def main():
    """Print, per preset and column, the error against the reference of the
    committed golden and of fresh CLI output: the evidence a regenerated
    golden needs.  Run as ``PYTHONPATH=src python tests/test_oracle.py``."""
    import tempfile

    golden_dir = Path(__file__).parent / "golden"
    print(f"{'preset':7}{'column':18}{'golden':>13}{'fresh':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(BOUNDS):
            reference = reference_columns(name)
            out = Path(tmp) / f"{name}.csv"
            _run_preset(name, out)
            committed = column_errors(golden_dir / f"{name}.csv", reference)
            fresh = column_errors(out, reference)
            for column in reference[0]:
                print(f"{name:7}{column:18}{committed[column]:13.6g}{fresh[column]:13.6g}")


if __name__ == "__main__":
    main()
