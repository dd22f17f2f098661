import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import ospring
from ospring import backaction as ba
from ospring import cavity as cav
from ospring import checks
from ospring import cli
from ospring import noise as noi
from ospring import stability as st
from ospring.params import C_LIGHT
from ospring.presets import PRESET_METHODS, PRESET_NAMES, PRESET_SUBCOMMANDS, preset_path
from ospring.runconfig import PHYSICAL_KEYS, REQUIRED_PHYSICAL, RunConfig, load_config

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv_columns(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, list(zip(*rows))


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
@pytest.mark.parametrize(
    "line",
    [
        "points = 241",
        "dark_port_index = 3",
        "wavelength_nm = 1064",
        "input_power_mw = 200",
        "offset_xi_lambda0 = 0.01",
        "mass_kg = 8e-11",
        "start = -3",
        "stop = 3",
    ],
)
def test_non_finite_integer_is_validation_exit(tmp_path, capsys, line, value):
    text = Path(preset_path("fig2c")).read_text()
    assert line in text
    key = line.split(" = ")[0]
    cfg = write_cfg(tmp_path, text.replace(line, f"{key} = {value}"))
    assert run_cli("backaction", "--config", cfg, "--method", "narrowband") == 2
    err = capsys.readouterr().err
    assert err.startswith("ospring:") and f"'{key}'" in err


def _cfg_sections(text):
    """A config's ``[(section, [(key, value), ...]), ...]``, comments dropped."""
    sections = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            sections.append((line[1:-1], []))
        elif line:
            key, value = line.split("=", 1)
            sections[-1][1].append((key.strip(), value.strip()))
    return sections


# faults of the file's grammar (exit 1) and of its content (exit 2)
PARSE_FAULTS = ("duplicate_key", "duplicate_section", "key_before_header", "line_without_delimiter")
VALIDATION_FAULTS = ("unknown_key", "unknown_section", "missing_key", "bad_value", "both_detunings")


@hst.composite
def malformed_cfg(draw):
    """A shipped preset with one to three faults; returns (text, exit code).
    Content faults are applied first, so that a grammar fault is not undone,
    and every added key or section name is new: a repeat would be a grammar
    fault of its own."""
    preset = draw(hst.sampled_from(PRESET_NAMES))
    sections = _cfg_sections(Path(preset_path(preset)).read_text())
    fault = hst.sampled_from(PARSE_FAULTS + VALIDATION_FAULTS)
    faults = draw(hst.lists(fault, min_size=1, max_size=3))
    faults.sort(key=PARSE_FAULTS.__contains__)
    word = hst.from_regex(r"[a-z][a-z_]{0,10}", fullmatch=True)
    physical = dict(sections)["physical"]
    head = []
    for i, fault in enumerate(faults):
        keys = [key for key, _ in physical]
        if fault == "unknown_key":
            physical.append((f"{draw(word)}{i}", "1.0"))
        elif fault == "unknown_section":
            sections.append((f"{draw(word)}{i}", [("key", "1")]))
        elif fault == "missing_key":
            gone = draw(hst.sampled_from([key for key in REQUIRED_PHYSICAL if key in keys]))
            physical[:] = [item for item in physical if item[0] != gone]
        elif fault == "bad_value":
            j = draw(hst.integers(0, len(physical) - 1))
            physical[j] = (physical[j][0], draw(hst.from_regex(r"[a-z]{1,8}", fullmatch=True)))
        elif fault == "both_detunings":
            for key in ("detuning_over_gamma", "detuning_rad_s"):
                if key not in keys:
                    physical.append((key, "0.0"))
        elif fault == "duplicate_key":
            name, items = draw(hst.sampled_from([s for s in sections if s[1]]))
            items.append(draw(hst.sampled_from(items)))
        elif fault == "duplicate_section":
            sections.append((draw(hst.sampled_from(sections))[0], []))
        elif fault == "key_before_header":
            head.append(f"{draw(hst.sampled_from(sorted(PHYSICAL_KEYS)))} = 1.0")
        else:
            draw(hst.sampled_from(sections))[1].append((draw(word), None))
    lines = list(head)
    for name, items in sections:
        lines.append(f"[{name}]")
        lines += [key if value is None else f"{key} = {value}" for key, value in items]
    expected = 1 if any(fault in PARSE_FAULTS for fault in faults) else 2
    return "\n".join(lines) + "\n", expected


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=malformed_cfg())
def test_malformed_config_exit_codes(tmp_path, case):
    """A grammar fault of the file exits 1 and a bad, missing or surplus key
    or section exits 2, whatever the preset and however the faults combine."""
    text, expected = case
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli("cavity", "--config", str(cfg)) == expected, text


def test_darkport_and_cavity_output(tmp_path):
    out = tmp_path / "dp.txt"
    assert run_cli("darkport", "--config", preset_path("fig2c"), "--out", str(out)) == 0
    values = dict(
        line.split(" = ") for line in out.read_text().splitlines()
    )
    assert float(values["dark_port_offset_m"]) == pytest.approx(3 * 1064e-9 / 4)
    assert float(values["tau_residual"]) < 1e-12

    out = tmp_path / "cav.txt"
    assert run_cli("cavity", "--config", preset_path("fig2c"), "--out", str(out)) == 0
    values = {k: float(v) for k, v in
              (line.split(" = ") for line in out.read_text().splitlines())}
    # unit safety: printed values reparse and satisfy the decompositions
    assert values["total_detuning_rad_s"] == (
        values["srm_detuning_rad_s"] + values["membrane_detuning_rad_s"]
    )
    assert values["half_linewidth_rad_s"] == (
        values["srm_half_linewidth_rad_s"] + values["membrane_half_linewidth_rad_s"]
    )
    assert values["half_linewidth_rad_s"] == pytest.approx(2 * math.pi * 133e3, rel=0.02)


def _reference_point_rows(config, cavity):
    """The rows ``darkport`` and ``cavity`` printed from their own field lists,
    before both read the JSON ``meta`` block, in their order."""
    geom = config.geometry
    offset_dp = cav.dark_port_offset(
        config.membrane, config.bs, geom.wavelength, config.dark_port_index
    )
    darkport = [
        ("dark_port_offset_m", offset_dp),
        ("offset_m", config.offset),
        ("arm_imbalance_m", offset_dp + config.offset),
        ("tau_residual", checks.dark_port(config, cavity)[0][0]),
    ]
    cavity_rows = [
        ("total_detuning_rad_s", cavity.detuning),
        ("srm_detuning_rad_s", cavity.srm_detuning),
        ("membrane_detuning_rad_s", cavity.membrane_detuning),
        ("half_linewidth_rad_s", cavity.half_linewidth),
        ("half_linewidth_exact_rad_s", cavity.half_linewidth_exact),
        ("srm_half_linewidth_rad_s", cavity.srm_half_linewidth),
        ("membrane_half_linewidth_rad_s", cavity.membrane_half_linewidth),
    ]
    return {"darkport": darkport, "cavity": cavity_rows}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_darkport_and_cavity_print_rows_of_the_meta_block(capsys, name):
    run = load_config(preset_path(name))
    config, cavity = run.interferometer()
    meta = cli._meta(run, config, cavity)
    for command, rows in _reference_point_rows(config, cavity).items():
        assert run_cli(command, "--config", preset_path(name)) == 0
        lines = capsys.readouterr().out.splitlines()
        # every line keeps the bits and the place its own field list gave it
        assert lines == [f"{key} = {_reference_fmt(value)}" for key, value in rows]
        # and each row that the JSON meta block holds reads the same there
        shared = rows[:2] if command == "darkport" else rows
        for line, (key, _) in zip(lines, shared):
            assert line == f"{key} = {cli._fmt(meta[key])}"


@pytest.mark.parametrize("command", list(cli.HANDLERS))
def test_every_subcommand_writes_to_out_or_stdout(monkeypatch, tmp_path, capsys, command):
    # fig2d, with a frequency sweep for spectrum and an offset axis for map
    text = Path(preset_path("fig2d")).read_text()
    if command == "spectrum":
        text = text.replace("variable = detuning_over_gamma\nstart = -3",
                            "variable = omega_over_gamma\nstart = 0.1")
    cfg = write_cfg(tmp_path, text + (MAP_OFFSETS if command == "map" else ""))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run_cli(command, "--config", cfg) == 0
    stdout = capsys.readouterr().out
    assert stdout and not any(work.iterdir())
    assert run_cli(command, "--config", cfg, "--out", "given") == 0
    assert capsys.readouterr().out == ""
    assert (work / "given").read_bytes() == stdout.encode("utf-8")


def test_spectrum_zero_power_all_zero(tmp_path, capsys):
    text = Path(preset_path("fig4a")).read_text()
    text = text.replace("input_power_mw = 200", "input_power_mw = 0")
    # normalized too: a zero peak leaves the columns as they are, without a warning
    for normalize in ("false", "true"):
        cfg = write_cfg(tmp_path, text.replace("normalize = true", f"normalize = {normalize}"))
        out = tmp_path / "zero.csv"
        assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
        header, columns = read_csv_columns(out)
        assert header == ["omega_rad_s", "s_f", "laser_part", "detector_part"]
        assert {v for column in columns[1:] for v in column} == {"0.0"}, normalize
        assert capsys.readouterr().err == ""


def test_normalized_spectrum_peak_is_one(tmp_path):
    # fig4b sets normalize: the parts are divided by the peak of the total, so they still sum to it
    out = tmp_path / "fig4b.csv"
    assert run_cli("spectrum", "--config", preset_path("fig4b"), "--out", str(out)) == 0
    total, laser, detector = (np.array(c, dtype=float) for c in read_csv_columns(out)[1][1:])
    assert total.max() == 1.0
    assert np.max(np.abs(laser + detector - total)) < 1e-12


def test_freemass_spring_sign_changes_at_linewidth(tmp_path):
    out = tmp_path / "f3d.csv"
    assert run_cli(
        "backaction", "--config", preset_path("fig3d"), "--method", "freemass",
        "--out", str(out),
    ) == 0
    header, columns = read_csv_columns(out)
    sweep = np.array([float(v) for v in columns[0]])
    spring = np.array([float(v) for v in columns[header.index("spring_n_per_m")]])
    signs = np.sign(spring)
    strict = sweep[:-1][signs[:-1] * signs[1:] < 0]
    step = sweep[1] - sweep[0]
    # two strict crossings within a step of the unit-linewidth points, and an
    # exact zero on the resonance node with a sign flip through it
    assert strict.size == 2
    assert np.allclose(np.abs(strict), 1.0, atol=step)
    node = np.flatnonzero(sweep == 0.0)[0]
    assert spring[node] == 0.0
    assert signs[node - 1] * signs[node + 1] < 0


def _fig2c_sweeping(variable, start, stop, points=41, extra=""):
    """fig2c, unnormalized, with its [sweep] on ``variable``, then ``extra``."""
    text = Path(preset_path("fig2c")).read_text().replace("normalize = true", "normalize = false")
    text = text.replace(
        "variable = detuning_over_gamma\nstart = -3\nstop = 3\npoints = 241",
        f"variable = {variable}\nstart = {start}\nstop = {stop}\npoints = {points}",
    )
    return text + extra


def _column_values(columns, header, name):
    return np.array([float(v) for v in columns[header.index(name)]])


SWEEP_RANGES = {  # a (start, stop) that each subcommand taking the variable accepts
    "detuning_over_gamma": (-3, 3),
    "detuning_rad_s": (-2.5e6, 2.5e6),
    "omega_rad_s": (1e5, 3e6),
    "omega_over_gamma": (0.1, 3),
    "offset_xi_lambda0": (0.002, 0.014),
}
MAP_OFFSETS = "\n[sweep2]\nvariable = offset_xi_lambda0\nstart = 0.002\nstop = 0.014\npoints = 7\n"


@pytest.mark.parametrize(
    "command, variable",
    [
        ("spectrum", "omega_rad_s"),
        ("spectrum", "omega_over_gamma"),
        ("backaction", "detuning_over_gamma"),
        ("backaction", "detuning_rad_s"),
        ("backaction", "omega_rad_s"),
        ("backaction", "omega_over_gamma"),
        ("stability", "detuning_over_gamma"),
        ("stability", "detuning_rad_s"),
        ("map", "detuning_over_gamma"),
        ("map", "detuning_rad_s"),
    ],
)
def test_sweep_axes_are_the_file_grid_in_si(tmp_path, command, variable):
    """Each sweep variable runs on each subcommand that takes it, and each SI
    axis column is the file's grid times its unit bit for bit: the
    half-linewidth for ``*_over_gamma``, the wavelength for the offset, none
    for ``*_rad_s``.  ``backaction``'s ``sweep_var`` is the file's own grid,
    and its kernel is the exact one on the SI grid."""
    extra = MAP_OFFSETS if command == "map" else ""
    cfg = write_cfg(tmp_path, _fig2c_sweeping(variable, *SWEEP_RANGES[variable], extra=extra))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
    header, columns = read_csv_columns(out)
    run = load_config(cfg)
    config, cavity = run.interferometer()
    file_grid = run.sweeps[0].grid()
    si = file_grid * cavity.half_linewidth if variable.endswith("_over_gamma") else file_grid
    if command == "spectrum":
        assert _column_values(columns, header, "omega_rad_s").tobytes() == si.tobytes()
    elif command == "stability":
        assert _column_values(columns, header, "delta_rad_s").tobytes() == si.tobytes()
    elif command == "map":
        offsets = run.sweeps[1].grid() * config.geometry.wavelength
        delta = _column_values(columns, header, "delta")
        assert delta.tobytes() == np.tile(si, offsets.size).tobytes()
        xi = _column_values(columns, header, "xi")
        assert xi.tobytes() == np.repeat(offsets, si.size).tobytes()
    else:
        assert _column_values(columns, header, "sweep_var").tobytes() == file_grid.tobytes()
        if variable.startswith("omega"):
            kernel = ba.kernel_exact(config, si)
        else:
            omega = 2.0 * math.pi * 133000
            kernel = ba.kernel_exact(cav.with_total_detuning(config, si), omega)
        assert _column_values(columns, header, "k_re").tobytes() == kernel.real.tobytes()
        assert _column_values(columns, header, "k_im").tobytes() == kernel.imag.tobytes()


KIND_MISMATCHES = [  # (argv, sweep variable, the variables that argv accepts)
    (("spectrum",), "offset_xi_lambda0", "omega_rad_s, omega_over_gamma"),
    (("backaction",), "offset_xi_lambda0",
     "detuning_over_gamma, detuning_rad_s, omega_rad_s, omega_over_gamma"),
    (("stability",), "offset_xi_lambda0", "detuning_over_gamma, detuning_rad_s"),
    (("backaction", "--method", "freemass"), "omega_over_gamma",
     "detuning_over_gamma, detuning_rad_s"),
]


@pytest.mark.parametrize(
    "argv, variable, accepted",
    KIND_MISMATCHES,
    ids=[f"{argv[-1]}-{accepted}" for argv, _, accepted in KIND_MISMATCHES],
)
def test_sweep_of_another_kind_is_refused_with_the_accepted_list(
    tmp_path, capsys, argv, variable, accepted
):
    cfg = write_cfg(tmp_path, _fig2c_sweeping(variable, *SWEEP_RANGES[variable]))
    assert run_cli(*argv, "--config", cfg, "--out", str(tmp_path / "out.csv")) == 2
    assert capsys.readouterr() == ("", (
        f"ospring: sweep variable '{variable}' is not supported here "
        f"(expected one of {accepted})\n"
    ))
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", list(cli.HANDLERS))
def test_sweep_variable_outside_the_table_is_refused_at_load(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, _fig2c_sweeping("wavelength_nm", 500, 1500))
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err == (
        "ospring: unknown sweep variable 'wavelength_nm' in [sweep]\n"
    )


@pytest.mark.parametrize("frequency", ["133000", "0"])
def test_stability_and_map_share_the_analysis_frequency(tmp_path, frequency):
    """``stability`` and the first offset row of a ``map`` starting at the
    run's own offset take the analysis frequency by one route: the same
    delta, spring and damping cells, byte for byte, at a finite frequency
    and in the quasi-static limit."""
    text = _fig2c_sweeping("detuning_over_gamma", -3, 3, points=241).replace(
        "mech_freq_hz = 133000", f"mech_freq_hz = {frequency}"
    )
    stability_cfg = write_cfg(tmp_path, text, "stability.cfg")
    map_cfg = write_cfg(
        tmp_path,
        text + "\n[sweep2]\nvariable = offset_xi_lambda0\nstart = 0.01\nstop = 0.02\npoints = 3\n",
        "map.cfg",
    )
    assert run_cli("stability", "--config", stability_cfg, "--out", str(tmp_path / "s.csv")) == 0
    assert run_cli("map", "--config", map_cfg, "--out", str(tmp_path / "m.csv")) == 0
    stability_rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
    map_rows = (tmp_path / "m.csv").read_text().splitlines()[1 : 1 + len(stability_rows)]
    assert [row.split(",")[:3] for row in stability_rows] == [
        row.split(",")[0:1] + row.split(",")[2:4] for row in map_rows
    ]
    offset = load_config(map_cfg).interferometer()[0].offset
    assert {row.split(",")[1] for row in map_rows} == {repr(offset)}


def test_json_output_mirrors_columns(tmp_path):
    out = tmp_path / "f2c.json"
    assert run_cli(
        "backaction", "--config", preset_path("fig2c"), "--method", "narrowband",
        "--out", str(out), "--format", "json",
    ) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "meta", "sweep_var", "k_re", "k_im", "spring_n_per_m", "damping_ns_per_m"
    }
    assert payload["meta"]["cavity_length_m"] == pytest.approx(0.087)
    assert payload["meta"]["input_power_w"] == pytest.approx(0.2)
    assert len(payload["k_re"]) == 241
    golden = (GOLDEN_DIR / "fig2c.csv").read_text().splitlines()
    spring_csv = [float(line.split(",")[3]) for line in golden[1:]]
    assert payload["spring_n_per_m"] == pytest.approx(spring_csv, rel=1e-15)


def test_map_subcommand_long_format(tmp_path):
    text = Path(preset_path("fig3d")).read_text() + textwrap.dedent(
        """
        [sweep2]
        variable = offset_xi_lambda0
        start = 0.0003
        stop = 0.003
        points = 5
        """
    )
    text = text.replace("points = 241", "points = 41")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "map.csv"
    assert run_cli("map", "--config", cfg, "--out", str(out)) == 0
    header, columns = read_csv_columns(out)
    assert header == ["delta", "xi", "spring", "damping", "regime_label"]
    assert len(columns[0]) == 41 * 5
    labels = set(columns[4])
    assert labels <= {"cooling", "heating", "stable_spring", "unstable_spring", "neutral"}
    assert "stable_spring" in labels


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_sweep_order_does_not_matter(tmp_path, fmt):
    text = Path(preset_path("fig3d")).read_text()
    physical, output = text[: text.index("[sweep]")], text[text.index("[output]") :]
    detuning = "variable = detuning_over_gamma\nstart = -3\nstop = 3\npoints = 41\n"
    offset = "variable = offset_xi_lambda0\nstart = 0.0003\nstop = 0.003\npoints = 5\n"
    outputs = []
    for first, second in ((detuning, offset), (offset, detuning)):
        cfg = write_cfg(tmp_path, f"{physical}[sweep]\n{first}\n[sweep2]\n{second}\n{output}")
        out = tmp_path / "map"
        assert run_cli("map", "--config", cfg, "--format", fmt, "--out", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_stability_subcommand_columns(tmp_path):
    text = Path(preset_path("fig3d")).read_text().replace(
        "detuning_over_gamma = 0.0",
        "detuning_over_gamma = 0.0\nmass_kg = 1e-7\nmech_freq_hz = 0",
    )
    text = text.replace("points = 241", "points = 61")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "stab.csv"
    assert run_cli("stability", "--config", cfg, "--out", str(out)) == 0
    header, columns = read_csv_columns(out)
    assert header == ["delta_rad_s", "spring", "damping", "regime_label", "rh_stable"]
    assert set(columns[4]) == {"true", "false"}
    stable_labels = [
        label for label, verdict in zip(columns[3], columns[4]) if verdict == "true"
    ]
    assert stable_labels and set(stable_labels) == {"stable_spring"}


def test_stability_json_booleans(tmp_path):
    text = Path(preset_path("fig3d")).read_text().replace(
        "detuning_over_gamma = 0.0",
        "detuning_over_gamma = 0.0\nmass_kg = 1e-7",
    ).replace("points = 241", "points = 21")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "stab.json"
    assert run_cli("stability", "--config", cfg, "--out", str(out), "--format", "json") == 0
    payload = json.loads(out.read_text())
    assert set(map(type, payload["rh_stable"])) == {bool}
    assert set(map(type, payload["regime_label"])) == {str}


VALIDATE_CHECKS = [
    "unitarity_and_energy_closure",
    "dark_port_residual",
    "carrier_loop_fixed_point",
    "narrowband_linewidth_gap",
    "noise_closure_and_positivity",
    "carrier_mean_fields",
    "exact_vs_narrowband_kernel",
]
# the line shape of a passing check: each part "<residual> <= <bound>", joined by "; "
PASS_LINE = re.compile(r"^PASS: [a-z_]+: [^ ]+ <= [^ ;]+(; [^ ]+ <= [^ ;]+)*$")
# every check's bounds but the linewidth gap's, which the configuration sets
VALIDATE_BOUNDS = {
    "unitarity_and_energy_closure": ["1e-12"],
    "dark_port_residual": ["1e-12"],
    "carrier_loop_fixed_point": ["1e-12"],
    "noise_closure_and_positivity": ["1e-12", "0.0"],
    "carrier_mean_fields": ["1e-12"],
    "exact_vs_narrowband_kernel": ["1e-08", "0.05"],
}
# the presets outside the narrow-band regime, where the kernel check has no narrow-band part
WIDE_BAND = ("fig4a", "fig4b")


def run_validate(tmp_path, name):
    out = tmp_path / "validate.txt"
    config = name if os.path.isabs(name) else preset_path(name)
    code = run_cli("validate", "--config", config, "--out", str(out))
    return code, out.read_text().splitlines()


def verdicts(lines):
    """Each line's verdict and check name, ``PASS: <name>``, without its numbers."""
    return [": ".join(line.split(": ")[:2]) for line in lines]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_validate_passes_reference_preset(tmp_path, name):
    code, lines = run_validate(tmp_path, name)
    assert code == 0 and verdicts(lines) == [f"PASS: {check}" for check in VALIDATE_CHECKS]
    assert all(PASS_LINE.match(line) for line in lines), lines
    for check, line in zip(VALIDATE_CHECKS, lines):
        bounds = [part.split(" <= ")[1] for part in line.split(": ", 2)[2].split("; ")]
        expected = VALIDATE_BOUNDS.get(check, bounds)
        if check == "exact_vs_narrowband_kernel" and name in WIDE_BAND:
            expected = expected[:1]
        assert bounds == expected, (check, line)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_validate_residuals_per_preset(name):
    # rounding-level residuals stay at rounding, the bounds are those documented,
    # and the narrow-band part runs exactly inside its regime
    config, cavity = load_config(preset_path(name)).interferometer()
    parts = {check: fn(config, cavity) for check, fn in checks.CHECKS}
    assert list(parts) == VALIDATE_CHECKS
    for check in VALIDATE_CHECKS[:3] + VALIDATE_CHECKS[5:6]:
        [(residual, bound)] = parts[check]
        assert residual <= 2e-15 and bound == 1e-12, (check, residual)
    (closure, closure_bound), (count, count_bound) = parts["noise_closure_and_positivity"]
    assert closure <= 2e-15 and closure_bound == 1e-12 and count == count_bound == 0.0
    [(gap, gap_bound)] = parts["narrowband_linewidth_gap"]
    _, rho2, tau = ospring.effective_mirror(config.membrane, config.bs, cav.imbalance_phase(config))
    width = config.srm.transmissivity**2 + abs(tau) ** 2
    assert gap_bound == 2.0 * width / (1.0 + config.srm.reflectivity * abs(rho2)) ** 2 + 1e-14
    assert gap <= gap_bound
    (static, static_bound), *narrowband = parts["exact_vs_narrowband_kernel"]
    assert static <= 1e-9 and static_bound == 1e-8
    assert len(narrowband) == (0 if name in WIDE_BAND else 1)
    for residual, bound in narrowband:
        assert residual <= 5e-3 and bound == 0.05


def test_validate_passes_at_zero_power(tmp_path):
    # a zero kernel gap over a zero peak reads 0, not NaN, and warns nothing
    text = Path(preset_path("fig2c")).read_text()
    cfg = write_cfg(tmp_path, text.replace("input_power_mw = 200", "input_power_mw = 0"))
    proc = run_cli_process("validate", "--config", cfg)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert verdicts(lines) == [f"PASS: {check}" for check in VALIDATE_CHECKS]


def test_validate_fail_line_carries_a_nan_residual(tmp_path, monkeypatch):
    spectrum = noi.back_action_spectrum

    def one_nan(config, omega):
        result = spectrum(config, omega)
        total = result.total.copy()
        total[0] = np.nan
        return replace(result, total=total)

    monkeypatch.setattr(noi, "back_action_spectrum", one_nan)
    code, lines = run_validate(tmp_path, "fig2c")
    assert code == 2
    assert lines[4].startswith("FAIL: noise_closure_and_positivity: nan > 1e-12"), lines[4]
    assert all(PASS_LINE.match(line) for line in lines[:4] + lines[5:]), lines


def test_validate_fail_line_at_the_narrowband_gate(tmp_path):
    # a real operating point with tau^2 = 0.0098, inside the 0.01 gate, where
    # the narrow-band kernel is 5.8 % off the exact one: no mutant needed
    text = Path(preset_path("fig2c")).read_text()
    for old, new in [
        ("membrane_power_reflectivity = 0.17", "membrane_power_reflectivity = 0.10783680438723978"),
        ("sr_power_transmissivity = 3e-4", "sr_power_transmissivity = 0.0008093698172414308"),
        ("dark_port_index = 3", "dark_port_index = 1"),
        ("offset_xi_lambda0 = 0.01", "offset_xi_lambda0 = -0.048764990558743795"),
        ("detuning_over_gamma = 0.0", "detuning_over_gamma = 0.3055377449154806"),
    ]:
        assert old in text
        text = text.replace(old, new)
    config, cavity = load_config(write_cfg(tmp_path, text)).interferometer()
    tau_sq = 4.0 * cavity.membrane_half_linewidth * config.geometry.cavity_length / C_LIGHT
    assert 0.0097 < tau_sq < 0.01
    code, lines = run_validate(tmp_path, str(tmp_path / "run.cfg"))
    assert code == 2 and all(PASS_LINE.match(line) for line in lines[:-1]), lines
    pattern = r"^FAIL: exact_vs_narrowband_kernel: [^ ]+ <= 1e-08; 0\.0576\d* > 0\.05$"
    assert re.match(pattern, lines[-1]), lines[-1]


@pytest.mark.parametrize("offset, parts", [(0.045, 1), (0.0385, 2)])
def test_validate_kernel_parts_at_the_narrowband_gate(tmp_path, offset, parts):
    # fig2c (balanced beamsplitter, T_sr^2 = 3e-4) moved out to tau^2 = 0.0132,
    # then to 0.0098: the narrow-band part runs only from tau^2 <= 0.01
    text = Path(preset_path("fig2c")).read_text()
    line = "offset_xi_lambda0 = 0.01\n"
    assert line in text
    cfg = write_cfg(tmp_path, text.replace(line, f"offset_xi_lambda0 = {offset}\n"))
    config, cavity = load_config(cfg).interferometer()
    tau_sq = 4.0 * cavity.membrane_half_linewidth * config.geometry.cavity_length / C_LIGHT
    assert (0.01 < tau_sq < 0.02) if parts == 1 else (0.0095 < tau_sq < 0.01), tau_sq
    code, lines = run_validate(tmp_path, cfg)
    assert code == 0 and lines[-1].startswith("PASS: exact_vs_narrowband_kernel: "), lines
    assert len(lines[-1].split("; ")) == parts, lines[-1]


def test_validate_scans_the_noise_out_to_three_linewidths(tmp_path, monkeypatch):
    # one negative density, its parts negated with it so the closure holds,
    # planted only beyond 2 gamma: the positivity count must still see it
    gamma = load_config(preset_path("fig2c")).interferometer()[1].half_linewidth
    spectrum = noi.back_action_spectrum

    def negative_far_out(config, omega):
        result = spectrum(config, omega)
        far = np.flatnonzero(np.abs(omega) > 2.0 * gamma)[:1]
        flipped = {}
        for name in ("total", "laser_part", "detector_part"):
            flipped[name] = getattr(result, name).copy()
            flipped[name][far] *= -1.0
        return replace(result, **flipped)

    monkeypatch.setattr(noi, "back_action_spectrum", negative_far_out)
    code, lines = run_validate(tmp_path, "fig2c")
    assert code == 2
    pattern = r"^FAIL: noise_closure_and_positivity: [^ ]+ <= 1e-12; 1\.0 > 0\.0$"
    assert re.match(pattern, lines[4]), lines[4]
    assert all(PASS_LINE.match(line) for line in lines[:4] + lines[5:]), lines


def test_validate_catches_a_wrong_narrowband_damping(tmp_path, monkeypatch):
    # the exact-vs-narrow-band check is normalised by the peak of a detuning
    # sweep; it must still see a narrow-band kernel whose damping has the wrong sign
    narrowband = ba.kernel_narrowband
    monkeypatch.setattr(ba, "kernel_narrowband", lambda *a, **k: np.conj(narrowband(*a, **k)))
    code, lines = run_validate(tmp_path, "fig2c")
    assert code == 2 and "FAIL: exact_vs_narrowband_kernel" in verdicts(lines)


@pytest.mark.parametrize(
    "fault, check",
    [
        # a detector-port carrier one part in 1e6 off no longer closes the carrier loop
        (lambda y, interference: (y * (1.0 + 1e-6), interference), "carrier_loop_fixed_point"),
        (lambda y, interference: (y, -interference), "carrier_mean_fields"),
    ],
    ids=["scaled_amplitude", "flipped_interference"],
)
def test_validate_catches_a_wrong_carrier(tmp_path, monkeypatch, fault, check):
    carrier = ba._carrier
    monkeypatch.setattr(ba, "_carrier", lambda *args: fault(*carrier(*args)))
    code, lines = run_validate(tmp_path, "fig2c")
    assert code == 2 and f"FAIL: {check}" in verdicts(lines)


@pytest.mark.parametrize("name", ["fig2c", "fig4b"])
def test_validate_catches_a_wrong_sideband_composition(tmp_path, monkeypatch, name):
    # the sideband phase added to the operating point's without the cross term
    # e_a*e_b: off by (k0*x)*h, 1e-12 to 1e-8 on the presets, which no other check sees
    monkeypatch.setattr(cav, "_compose", lambda e_a, e_b: e_a + e_b)
    code, lines = run_validate(tmp_path, name)
    assert code == 2 and "FAIL: unitarity_and_energy_closure" in verdicts(lines)


def test_validate_catches_a_wrong_exact_linewidth(tmp_path, monkeypatch):
    # the recycling mirror's share of the exact width taken with T_sr^2, where
    # 1 - R_sr = T_sr^2/(1 + R_sr) belongs
    effective_cavity = cav.effective_cavity

    def wrong(config):
        cavity = effective_cavity(config)
        return replace(
            cavity, half_linewidth_exact=cavity.half_linewidth_exact + cavity.srm_half_linewidth
        )

    monkeypatch.setattr(cav, "effective_cavity", wrong)
    code, lines = run_validate(tmp_path, "fig2c")
    assert code == 2 and "FAIL: narrowband_linewidth_gap" in verdicts(lines)


def test_validate_reports_a_crashing_check_as_an_error(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("no spectrum")

    monkeypatch.setattr(noi, "back_action_spectrum", crash)
    code, lines = run_validate(tmp_path, "fig2c")
    assert code == 2
    expected = [f"PASS: {check}" for check in VALIDATE_CHECKS]
    expected[4] = "ERROR: noise_closure_and_positivity"
    assert verdicts(lines) == expected
    assert lines[4] == "ERROR: noise_closure_and_positivity: ZeroDivisionError: no spectrum"


@pytest.mark.parametrize("name", ["fig4a", "fig4b"])
def test_validate_catches_a_wrong_static_kernel(tmp_path, monkeypatch, name):
    # kernel_exact with the sign of its mean-field term 2j*interference flipped, and
    # nothing else: outside the narrow-band regime only the static limit sees it
    source = inspect.getsource(ba)
    mutated = source.replace("out += 2j * interference", "out -= 2j * interference")
    assert mutated != source
    mutant = types.ModuleType("ospring._mutant_backaction")
    mutant.__package__ = "ospring"
    exec(compile(mutated, ba.__file__, "exec"), mutant.__dict__)
    monkeypatch.setattr(ba, "kernel_exact", mutant.kernel_exact)
    expected = [f"PASS: {check}" for check in VALIDATE_CHECKS]
    expected[-1] = "FAIL: exact_vs_narrowband_kernel"
    code, lines = run_validate(tmp_path, name)
    assert (code, verdicts(lines)) == (2, expected)


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c", "fig3d"])
def test_validate_mean_field_check_on_free_mass_presets(tmp_path, name):
    assert "PASS: carrier_mean_fields" in verdicts(run_validate(tmp_path, name)[1])


def test_cli_annotations_resolve():
    # every annotation of a function cli defines names something cli imports
    functions = [
        f for f in vars(cli).values() if inspect.isfunction(f) and f.__module__ == cli.__name__
    ]
    assert cli._single_sweep in functions
    for function in functions:
        typing.get_type_hints(function)


def test_deterministic_output(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        assert run_cli(
            "backaction", "--config", preset_path("fig2d"), "--method", "exact",
            "--out", str(target),
        ) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_golden_presets_regenerate_bit_exactly(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    argv = [PRESET_SUBCOMMANDS[name], "--config", preset_path(name), "--out", str(out)]
    if name in PRESET_METHODS:
        argv += ["--method", PRESET_METHODS[name]]
    assert run_cli(*argv) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


NO_SCIPY_SCRIPT = """
import runpy, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import ospring.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert loaded == ["scipy"], loaded  # only the blocking placeholder
sys.argv = ["ospring"] + sys.argv[1:]
runpy.run_module("ospring.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("name", ["fig2c", "fig2d"])
def test_runtime_needs_no_scipy(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    argv = [PRESET_SUBCOMMANDS[name], "--config", preset_path(name), "--out", str(out),
            "--method", PRESET_METHODS[name]]
    src = str(Path(ospring.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


# The row-wise, one-shot emitter that the streamed one replaced, kept
# verbatim as the byte contract of the CSV, JSON and scalar outputs.
def _reference_write(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _reference_fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _contract_values():
    """Seeded random float64 bit patterns (every sign, exponent and payload)
    and the edges of orjson's layouts: each side of 1e-9, 1e-5, 1e-4 and 1e16,
    exponents -6 to -9, the extremes, signed zeros and non-finite values."""
    rng = np.random.default_rng(37)
    edges = [5e-324, -5e-324, 0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308,
             np.nan, np.inf, -np.inf]
    edges += [m * 10.0**e for e in (-6, -7, -8, -9) for m in (1.0, 2.5, 9.999999999999999)]
    for edge in (1e-9, 1e-5, 1e-4, 1e16):
        below, above = np.full(40, edge), np.full(40, edge)
        for i in range(1, 40):
            below[i], above[i] = np.nextafter(below[i - 1], 0.0), np.nextafter(above[i - 1], np.inf)
        edges += [*below, *above[1:]]
    edges = np.array(edges + [-x for x in edges])
    sweep = 10.0 ** rng.uniform(-11.0, 18.0, 10**5)  # every decimal exponent around the edges
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    return edges, np.concatenate([edges, sweep, -sweep, bits])


def test_float_cells_are_float_repr():
    # float.__repr__, with json's spelling of nan and inf in JSON, is the
    # byte contract; orjson's float writer must give the same digits
    in_json = {text: json.dumps(float(text)) for text in ("nan", "inf", "-inf")}
    edges, values = _contract_values()
    texts = list(map(float.__repr__, values.tolist()))
    assert cli._float_cells(values, False) == texts
    assert cli._float_cells(values, True) == [in_json.get(text, text) for text in texts]
    for value in edges.tolist():  # one-element blocks: each gate on its own value
        text = repr(value)
        assert cli._float_cells(np.array([value]), False) == [text], value
        assert cli._float_cells(np.array([value]), True) == [in_json.get(text, text)], value
    assert cli._float_cells(np.array([]), False) == cli._float_cells(np.array([]), True) == []
    assert cli._fmt(np.float64(1e-7)) == "1e-07" and cli._fmt(2) == "2.0"


def _reference_emit_table(header, columns, run, config, cavity, out, fmt, normalized=()):
    columns = [  # each categorical column spelled out in full
        np.asarray(c.categories)[np.ravel(c.codes)] if isinstance(c, cli._Categorical) else c
        for c in columns
    ]
    if run.normalize:  # each named column by the peak |value| of its divisor, whole
        given, divisor = dict(zip(header, columns)), dict(normalized)
        columns = list(columns)
        for i, name in enumerate(header):
            if name in divisor:
                peak = np.max(np.abs(given[divisor[name]]))
                if peak > 0.0:
                    columns[i] = np.asarray(columns[i]) / peak
    if fmt == "csv":
        lines = [",".join(header)]
        rows = zip(*columns)
        lines.extend(",".join(_reference_fmt(v) for v in row) for row in rows)
        _reference_write(out, "\n".join(lines) + "\n")
        return
    payload = {"meta": cli._meta(run, config, cavity)}
    for name, column in zip(header, columns):
        payload[name] = [
            v if isinstance(v, str) else (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
            for v in column
        ]
    _reference_write(out, json.dumps(payload, indent=2) + "\n")


def _reference_and_columnwise(monkeypatch, tmp_path, *argv):
    """Exit code and output bytes of one CLI run under each emitter."""
    results = []
    for reference in (True, False):
        out = tmp_path / ("reference" if reference else "columnwise")
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(cli, "_emit_table", _reference_emit_table)
                patch.setattr(cli, "_fmt", _reference_fmt)
            code = run_cli(*argv, "--out", str(out))
        results.append((code, out.read_bytes() if out.exists() else None))
    return results


def _synthetic_table(rows):
    """Columns of every kind ``_emit_table`` takes, whose fifteen-row pattern
    of awkward values straddles the first block edge, six rows before it and
    nine after, and the same table with each categorical column spelled out."""
    pattern = (np.arange(rows) - (cli._BLOCK - 6)) % 15
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, 0.1, -0.0, 1e16, 2.5,
                       1.5e-05, -2.5e-07, 1e+300])
    labels = np.array(["cooling", "heating", 'say "hi"', "héating", "neutral", "stable_spring"] * 2,
                      dtype="U15")
    header = ["float", "strided", "np_bool", "py_bool", "label", "float_codes", "label_codes"]
    columns = [
        floats[pattern],
        (np.linspace(-1.0, 1.0, rows) * (1.0 - 2.0j)).imag,  # non-contiguous view
        pattern % 3 == 0,
        [i % 2 == 0 for i in pattern.tolist()],
        labels[pattern % 12],
        cli._Categorical(floats, pattern.astype(np.uint8)),
        cli._Categorical(list(labels[:6]), np.broadcast_to(pattern[:, None] % 6, (rows, 1))),
    ]
    spelled = columns[:5] + [floats[pattern], labels[pattern % 6]]
    return header, columns, spelled


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitter_bytes_on_synthetic_table(tmp_path, capsys, fmt):
    run = load_config(preset_path("fig2c"))
    config, cavity = run.interferometer()
    for rows in (0, 12, cli._BLOCK, 5 * cli._BLOCK // 2):
        header, columns, spelled = _synthetic_table(rows)
        outputs = []
        for emit, table in ((_reference_emit_table, spelled), (cli._emit_table, columns)):
            out = tmp_path / f"{emit.__name__}.{fmt}"
            emit(header, table, run, config, cavity, str(out), fmt)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], rows
        if fmt == "json":
            payload = json.loads(outputs[1])
            assert str(payload["float"]) == str(columns[0].tolist())  # nan, inf, -0.0 spelled
            assert str(payload["float_codes"]) == str(columns[0].tolist())
            assert payload["label"] == columns[4].tolist()
    # the last table again, to stdout: no --out
    capsys.readouterr()
    cli._emit_table(header, columns, run, config, cavity, None, fmt)
    assert capsys.readouterr().out.encode("utf-8") == outputs[1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("short", range(7))
def test_unequal_columns_raise_before_output(tmp_path, fmt, short):
    # CSV once wrote rows up to the shortest column, and JSON every column whole
    run = load_config(preset_path("fig2c"))
    config, cavity = run.interferometer()
    header, columns, _ = _synthetic_table(24)
    columns[short] = _synthetic_table(23)[1][short]
    out = tmp_path / f"table.{fmt}"
    with pytest.raises(ValueError, match="differ in length"):
        cli._emit_table(header, columns, run, config, cavity, str(out), fmt)
    assert not out.exists()


def test_unequal_columns_are_a_validation_exit(monkeypatch, tmp_path, capsys):
    emit = cli._emit_table

    def emit_short(header, columns, *args):
        emit(header, [columns[0][:-1], *columns[1:]], *args)

    monkeypatch.setattr(cli, "_emit_table", emit_short)
    out = tmp_path / "out.csv"
    assert run_cli("stability", "--config", preset_path("fig2c"), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("ospring: table columns differ in length")
    assert not out.exists()


def _emit_peak(tmp_path, rows):
    """tracemalloc's peak during one CSV emission of a float and a label
    column of ``rows`` rows, less the bytes of the two columns."""
    run = load_config(preset_path("fig2c"))
    config, cavity = run.interferometer()
    tracemalloc.start()
    try:
        floats = np.linspace(-1.0, 1.0, rows) ** 3  # distinct, mostly 19-22 characters
        labels = np.array(["cooling", "heating", "stable_spring", "unstable_spring"], dtype="U15")
        columns = [floats, labels[np.arange(rows) % 4]]
        tracemalloc.reset_peak()  # the peak from here on holds the columns
        cli._emit_table(["x", "label"], columns, run, config, cavity, str(tmp_path / "t.csv"), "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(column.nbytes for column in columns)


def test_emission_memory_is_bounded(tmp_path):
    small, large = _emit_peak(tmp_path, 50_000), _emit_peak(tmp_path, 200_000)
    # one block of cell and row strings, ~0.4 MiB here;
    # the whole 200,000-row table would take ~45 MiB
    assert small < 4 * 2**20 and large < 4 * 2**20, (small, large)
    assert large - small < cli._BLOCK * 256, (small, large)  # less than one block's worth


MAP_MEMORY_CFG = """\
[physical]
wavelength_nm = 1064
input_power_mw = 200
arm_length_m = 0.05
half_arm_m = 0.027
sr_distance_m = 0.01
membrane_power_reflectivity = 0.2
sr_power_transmissivity = 3e-4
bs_asymmetry = 0.0
dark_port_index = 1
offset_xi_lambda0 = 0.0
detuning_over_gamma = 0.0
mass_kg = 8e-11
mech_freq_hz = 130000
mech_damping_hz = 0.1

[sweep]
variable = detuning_over_gamma
start = -3
stop = 3
points = {n}

[sweep2]
variable = offset_xi_lambda0
start = -0.015
stop = 0.015
points = {n}

[output]
normalize = {normalize}
"""


def _map_peak(tmp_path, n, fmt, normalize="false"):
    """tracemalloc's peak during one ``map`` run on an n x n grid."""
    text = MAP_MEMORY_CFG.format(n=n, normalize=normalize)
    cfg = write_cfg(tmp_path, text, f"map{n}.cfg")
    out = tmp_path / f"map{n}.{fmt}"
    tracemalloc.start()
    try:
        assert run_cli("map", "--config", cfg, "--format", fmt, "--out", str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_memory_per_cell(tmp_path, fmt):
    def per_cell(normalize):
        small = _map_peak(tmp_path, 60, fmt, normalize)
        large = _map_peak(tmp_path, 300, fmt, normalize)
        return (large - small) / (300**2 - 60**2)

    plain, normalized = per_cell("false"), per_cell("true")
    # the map keeps two float64 and one uint8 per cell (17 B) beside a block's
    # working memory; whole-grid temporaries, U15 labels (60 B a cell) and
    # tiled axis columns took ~111 B a cell
    assert plain <= 48, plain
    # normalization divides each emitted block and copies no column (16 B a cell)
    assert normalized <= plain + 4, (plain, normalized)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_normalized_spectrum_memory(monkeypatch, tmp_path, fmt):
    """tracemalloc's peak while ``spectrum`` writes a 10**5-point fig4b
    spectrum computed beforehand: normalized, as plain.  The exact spectrum's
    own block temporaries would set the peak of a whole traced run."""
    text = Path(preset_path("fig4b")).read_text().replace("points = 501", "points = 100000")
    run = load_config(write_cfg(tmp_path, text))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fig4b is outside the narrow-band regime
        config, cavity = run.interferometer()
    spectrum = noi.back_action_spectrum(config, run.sweep_grid(run.sweeps[0], config, cavity))
    monkeypatch.setattr(noi, "back_action_spectrum", lambda config, omega: spectrum)
    peaks = {}
    for normalize in ("false", "true"):
        cfg = write_cfg(tmp_path, text.replace("normalize = true", f"normalize = {normalize}"))
        argv = ["spectrum", "--config", cfg, "--format", fmt, "--out", str(tmp_path / "s")]
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peaks[normalize] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # normalization divides each emitted block; a copy of the three densities takes 2.3 MiB
    assert peaks["true"] <= peaks["false"] + 2**19, peaks


EMITTING_COMMANDS = (
    ("darkport",),
    ("cavity",),
    ("spectrum",),
    ("backaction", "--method", "exact"),
    ("backaction", "--method", "narrowband"),
    ("backaction", "--method", "freemass"),
    ("stability",),
)
TEXT_COMMANDS = ("darkport", "cavity", "validate")


def _argv(command, name, fmt):
    """A subcommand's argv on a preset, with ``--format`` where it writes a table."""
    argv = [*command, "--config", preset_path(name)]
    return argv if command[0] in TEXT_COMMANDS else argv + ["--format", fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", TEXT_COMMANDS)
def test_text_subcommands_take_no_format(tmp_path, capsys, command, fmt):
    # only the table writers read --format; argparse refuses it elsewhere
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", preset_path("fig2c"), "--format", fmt, "--out", str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_emitter_bytes_on_presets(monkeypatch, tmp_path, name, fmt):
    accepted = set()
    for command in EMITTING_COMMANDS:
        argv = _argv(command, name, fmt)
        reference, columnwise = _reference_and_columnwise(monkeypatch, tmp_path, *argv)
        assert reference == columnwise, argv
        if reference[0] == 0:
            accepted.add(command[0] if len(command) == 1 else command[2])
    own = PRESET_METHODS.get(name, PRESET_SUBCOMMANDS[name])
    assert {"darkport", "cavity", own} <= accepted


def _reference_map(run, config, cavity, out, fmt):
    """The map table as whole columns (tiled and repeated axes, label
    strings), written by the reference emitter."""
    by_variable = {sweep.variable: sweep.grid() for sweep in run.sweeps}
    deltas = by_variable["detuning_over_gamma"] * cavity.half_linewidth
    offsets = by_variable["offset_xi_lambda0"] * config.geometry.wavelength
    grid = st.regime_map(config, deltas, offsets, 2.0 * math.pi * run.physical.get("mech_freq_hz", 0.0))
    spring, damping = grid.spring.ravel(), grid.damping.ravel()
    if run.normalize:
        spring, damping = (x / np.max(np.abs(x)) for x in (spring, damping))
    columns = [
        np.tile(deltas, offsets.size),
        np.repeat(offsets, deltas.size),
        spring,
        damping,
        grid.labels.ravel(),
    ]
    header = ["delta", "xi", "spring", "damping", "regime_label"]
    _reference_emit_table(header, columns, run, config, cavity, out, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "offsets",
    # (start, stop, points) of the offset sweep, the detuning points and
    # [output] normalize; the 97 x 101 grids span two row blocks of
    # regime_map and ~10 blocks of emission, and 97-cell rows divide neither
    [
        (0.0003, 0.003, 5, 41, "true"),
        (0.001, 0.001, 3, 41, "true"),
        (-0.004, 0.004, 101, 97, "true"),
        (-0.004, 0.004, 101, 97, "false"),
    ],
)
def test_emitter_bytes_on_map(tmp_path, offsets, fmt):
    start, stop, n_x, points, normalize = offsets
    text = Path(preset_path("fig3d")).read_text().replace("points = 241", f"points = {points}")
    text = text.replace("normalize = true", f"normalize = {normalize}")
    text += f"\n[sweep2]\nvariable = offset_xi_lambda0\nstart = {start}\nstop = {stop}\npoints = {n_x}\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "columnwise"
    assert run_cli("map", "--config", cfg, "--format", fmt, "--out", str(out)) == 0
    run = load_config(cfg)
    config, cavity = run.interferometer()
    _reference_map(run, config, cavity, str(tmp_path / "reference"), fmt)
    assert out.read_bytes() == (tmp_path / "reference").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("mass_kg", "-1"),
        ("mass_kg", "0"),
        ("mech_freq_hz", "-133000"),
        ("mech_damping_hz", "-5"),
        ("mech_damping_hz", "-0.5"),
    ],
)
def test_mechanical_keys_are_validated_in_every_format(tmp_path, capsys, key, value, fmt):
    text = Path(preset_path("fig2c")).read_text()
    line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    cfg = write_cfg(tmp_path, text.replace(line, f"{key} = {value}"))
    out = tmp_path / "out"
    assert run_cli(
        "backaction", "--config", cfg, "--method", "narrowband", "--format", fmt, "--out", str(out)
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("ospring:") and f"'{key}'" in err
    assert not out.exists()


REDUCING_COMMANDS = EMITTING_COMMANDS + (("validate",),)


def _count_reductions(monkeypatch):
    """Wrap the configuration and cavity reductions with call counters.

    Returns the counters and the list of reductions made inside each
    ``stability_report`` call.
    """
    counts = {"interferometer": 0, "cavity": 0}
    inside_report = []

    def counting(key, real):
        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return counted

    interferometer = counting("interferometer", RunConfig.interferometer)
    monkeypatch.setattr(RunConfig, "interferometer", interferometer)
    monkeypatch.setattr(cav, "effective_cavity", counting("cavity", cav.effective_cavity))
    real_report = st.stability_report

    def report(*args, **kwargs):
        before = counts["cavity"]
        result = real_report(*args, **kwargs)
        inside_report.append(counts["cavity"] - before)
        return result

    monkeypatch.setattr(st, "stability_report", report)
    return counts, inside_report


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_each_run_reduces_its_operating_point_once(monkeypatch, tmp_path, name, fmt):
    # one reduction in RunConfig.interferometer, and one more in stability_report
    counts, inside_report = _count_reductions(monkeypatch)
    for command in REDUCING_COMMANDS:
        counts.update(interferometer=0, cavity=0)
        reports = len(inside_report)
        argv = _argv(command, name, fmt)
        run_cli(*argv, "--out", str(tmp_path / "out"))
        assert counts["interferometer"] == 1, argv
        assert counts["cavity"] == 1 + sum(inside_report[reports:]), argv
    assert inside_report == ([1] if name in ("fig2c", "fig2d") else [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_reduces_once_for_all_offset_rows(monkeypatch, tmp_path, fmt):
    text = Path(preset_path("fig3d")).read_text().replace("points = 241", "points = 21")
    text += "\n[sweep2]\nvariable = offset_xi_lambda0\nstart = 0.0003\nstop = 0.003\npoints = 5\n"
    cfg = write_cfg(tmp_path, text)
    counts, _ = _count_reductions(monkeypatch)
    assert run_cli("map", "--config", cfg, "--format", fmt, "--out", str(tmp_path / "map")) == 0
    assert counts["interferometer"] == 1
    assert counts["cavity"] == 2  # the operating point, then the whole offset column


NARROWBAND_WARNING = (
    "narrow-band decomposition is unreliable: recycling-mirror or "
    "interferometer power transmittance exceeds 0.1"
)
OFFSET_WARNING = (
    "membrane offset exceeds an eighth wavelength; the near-dark-fringe "
    "analysis is unreliable this far out"
)


def run_cli_process(*argv):
    # a subprocess sees the warnings as a user does; pytest's capture records every call
    src = str(Path(ospring.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "ospring.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_offset_warning_names_its_source_once(tmp_path):
    # the run states the warning as it states errors, named for ospring, not a source path
    text = Path(preset_path("fig2c")).read_text()
    start = text.index("offset_xi_lambda0")
    line = text[start:text.index("\n", start)]
    cfg = write_cfg(tmp_path, text.replace(line, "offset_xi_lambda0 = 0.2"))
    argv = ["backaction", "--method", "narrowband", "--config", cfg, "--out", str(tmp_path / "out")]
    proc = run_cli_process(*argv)
    assert proc.returncode == 0, proc.stderr
    # this far out the line is wide as well, which the reduction states next
    assert proc.stderr == (
        f"ospring: warning: {OFFSET_WARNING}\nospring: warning: {NARROWBAND_WARNING}\n"
    )


@pytest.mark.parametrize(
    "command", [("spectrum",), ("spectrum", "--format", "json"), ("cavity",), ("validate",)]
)
def test_narrowband_warning_shows_once_per_run(tmp_path, command):
    argv = [*command, "--config", preset_path("fig4b"), "--out", str(tmp_path / "out")]
    proc = run_cli_process(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"ospring: warning: {NARROWBAND_WARNING}\n"


def test_warning_line_follows_an_error(tmp_path):
    # the warnings a failed run raised are stated too, after its error
    argv = ["backaction", "--method", "freemass", "--config", preset_path("fig4b")]
    proc = run_cli_process(*argv, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == (
        "ospring: sweep variable 'omega_over_gamma' is not supported here "
        "(expected one of detuning_over_gamma, detuning_rad_s)\n"
        f"ospring: warning: {NARROWBAND_WARNING}\n"
    )


def test_a_warning_raised_twice_is_stated_once(monkeypatch, capsys):
    # the same message from two source lines is two records, and one stderr line
    def handler(run, config, cavity, args):
        warnings.warn("twice over", UserWarning)
        warnings.warn("twice over", UserWarning)
        return 0

    monkeypatch.setitem(cli.HANDLERS, "cavity", handler)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert run_cli("cavity", "--config", preset_path("fig2c")) == 0
    assert capsys.readouterr().err == "ospring: warning: twice over\n"


def _set(key, value):
    """An edit of a preset's text that sets its one ``key = ...`` line to ``value``."""

    def edit(text):
        text, edits = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert edits == 1
        return text

    return edit


def _add(line):
    """An edit that adds ``line`` at the head of ``[physical]``."""
    return lambda text: text.replace("[physical]\n", f"[physical]\n{line}\n", 1)


def _append(extra):
    return lambda text: text + extra


def _refusal(name, argv, preset, edits, code, line, out="out"):
    """A table row: ``argv`` on ``preset`` (None: no file) after ``edits``
    exits ``code`` with the one stderr ``line``, ``{cfg}`` and ``{out}`` its paths."""
    return pytest.param(argv.split(), preset, edits, out, code, line, id=name)


# a lossless recycling mirror with the membrane on its node: gamma = 0
ZERO_LINEWIDTH = (_set("sr_power_transmissivity", "0"), _set("offset_xi_lambda0", "0"))
ZERO_OFFSETS = "\n[sweep2]\nvariable = offset_xi_lambda0\nstart = 0\nstop = 0\npoints = 3\n"
# a lossless recycling mirror and three offset rows about the node: gamma = 0 on the middle one
NODE_OFFSETS = (
    "\n[sweep2]\nvariable = offset_xi_lambda0\nstart = -0.001\nstop = 0.001\npoints = 3\n"
)
SWEEP2_DETUNING = "\n[sweep2]\nvariable = detuning_rad_s\nstart = -1e6\nstop = 1e6\npoints = 3\n"
NO_LINEWIDTH = "ospring: the narrow-band laws need a positive half-linewidth"
NO_FREQUENCY = (
    "ospring: detuning sweeps need 'mech_freq_hz' (the analysis frequency) and it must be positive"
)
NEGATIVE_FREQUENCY = (
    "ospring: invalid value for key 'mech_freq_hz' in [physical]: '{value}' is negative"
)
IO_ERROR = "ospring: i/o error: [Errno 2] No such file or directory: {out!r}"
GRID_TOO_LARGE = "ospring: sweep grid too large: "  # numpy's allocation message follows

REFUSALS = [
    # ranges are checked when the operating point is resolved, after the file loads
    *(
        _refusal(name, "backaction", "fig2c", (_set(key, value),), 2, f"ospring: {message}")
        for name, key, value, message in [
            ("reflectivity", "membrane_power_reflectivity", "1.5",
             "power reflectivity must lie in [0, 1]"),
            ("transmissivity", "sr_power_transmissivity", "-0.1",
             "power transmissivity must lie in [0, 1]"),
            ("half_arm", "half_arm_m", "0", "half_arm must be positive"),
            ("wavelength", "wavelength_nm", "0", "wavelength must be positive"),
            ("input_power", "input_power_mw", "-1", "input power must be non-negative"),
            ("dark_port_index", "dark_port_index", "2",
             "dark port index must be a positive odd integer"),
            ("bs_asymmetry", "bs_asymmetry", "1.0",
             "beamsplitter asymmetry must lie strictly in (-1, 1)"),
            ("transparent_membrane", "membrane_power_reflectivity", "0.0",
             "a fully transmissive membrane has no dark output"),
            ("no_dark_output", "bs_asymmetry", "0.9",
             "no dark output: required cosine -4.56226 falls outside [-1, 1]"),
        ]
    ),
    _refusal("missing_config_file", "cavity", None, (), 1,
             "ospring: parse error: cannot read {cfg}: No such file or directory"),
    _refusal("duplicate_key", "cavity", "fig2c", (_add("wavelength_nm = 1064"),), 1,
             "ospring: parse error: line 5: duplicate key 'wavelength_nm' in [physical]"),
    _refusal("duplicate_section", "cavity", "fig2c", (_append("\n[physical]\n"),), 1,
             "ospring: parse error: line 29: duplicate section [physical]"),
    _refusal("no_physical", "cavity", "fig2c", (lambda text: text[text.index("[sweep]") :],), 2,
             "ospring: missing required section [physical]"),
    _refusal("spectrum_requires_a_sweep", "spectrum", "fig4a",
             (lambda text: text[: text.index("[sweep]")],), 2,
             "ospring: this subcommand needs exactly one [sweep] section"),
    _refusal("backaction_two_sweeps", "backaction", "fig2c", (_append(MAP_OFFSETS),), 2,
             "ospring: this subcommand needs exactly one [sweep] section"),
    _refusal("map_one_sweep", "map", "fig3d", (), 2,
             "ospring: the map subcommand needs [sweep] and [sweep2] sections"),
    _refusal("map_two_detunings", "map", "fig3d", (_append(SWEEP2_DETUNING),), 2,
             "ospring: map sweeps must cover a detuning key and offset_xi_lambda0"),
    _refusal("stability_requires_mass", "stability", "fig3d", (), 2,
             "ospring: missing required key 'mass_kg' for this subcommand"),
    _refusal("frequency_sweep_must_stay_positive", "backaction --method exact", "fig2c",
             (_set("variable", "omega_rad_s"), _set("start", "0")), 2,
             "ospring: frequency sweeps for backaction must stay positive"),
    *(
        _refusal(f"analysis_frequency_{name}-{method}", f"backaction --method {method}", "fig3d",
                 edits, 2, line)
        for method in ("exact", "narrowband")
        for name, edits, line in [
            ("missing", (), NO_FREQUENCY),
            ("0", (_add("mech_freq_hz = 0"),), NO_FREQUENCY),
            ("-5", (_add("mech_freq_hz = -5"),), NEGATIVE_FREQUENCY.format(value="-5")),
            ("-0.5", (_add("mech_freq_hz = -0.5"),), NEGATIVE_FREQUENCY.format(value="-0.5")),
        ]
    ),
    *(
        _refusal(f"map_negative_frequency-{fmt}", f"map --format {fmt}", "fig3d",
                 (_add("mech_freq_hz = -133000"), _append(MAP_OFFSETS)), 2,
                 NEGATIVE_FREQUENCY.format(value="-133000"))
        for fmt in ("csv", "json")
    ),
    # 1e15 float64 points is 7.1 PiB, beyond the x86-64 user address space:
    # the allocation fails at once and never touches memory
    _refusal("oversized_sweep", "backaction --method narrowband", "fig2c",
             (_set("points", "1000000000000000"),), 2, GRID_TOO_LARGE),
    # the narrow-band laws divide by gamma^2 + delta^2: refused before any output is opened
    _refusal("zero_linewidth_stability", "stability", "fig2c", ZERO_LINEWIDTH, 2, NO_LINEWIDTH),
    *(
        _refusal(f"zero_linewidth_{method}-{fmt}", f"backaction --method {method} --format {fmt}",
                 "fig2c", ZERO_LINEWIDTH, 2, NO_LINEWIDTH)
        for method in ("narrowband", "freemass")
        for fmt in ("csv", "json")
    ),
    *(
        _refusal(f"zero_linewidth_map-{fmt}", f"map --format {fmt}", "fig2c",
                 (*ZERO_LINEWIDTH, _append(ZERO_OFFSETS)), 2, NO_LINEWIDTH)
        for fmt in ("csv", "json")
    ),
    *(
        _refusal(f"zero_linewidth_map_row-{fmt}", f"map --format {fmt}", "fig2c",
                 (ZERO_LINEWIDTH[0], _append(NODE_OFFSETS)), 2, NO_LINEWIDTH)
        for fmt in ("csv", "json")
    ),
    _refusal("spectrum_out", "spectrum", "fig4a", (), 1, IO_ERROR, out="absent/out"),
    _refusal("darkport_out", "darkport", "fig2c", (), 1, IO_ERROR, out="absent/out"),
]


@pytest.mark.parametrize("argv, preset, edits, out, code, line", REFUSALS)
def test_operating_point_faults_state_one_line(
    tmp_path, capsys, argv, preset, edits, out, code, line
):
    """Each refusal of a run exits with its code, states its one stderr line,
    prints nothing and opens no output."""
    cfg, out = tmp_path / "run.cfg", tmp_path / out
    if preset is not None:
        text = Path(preset_path(preset)).read_text()
        for edit in edits:
            text = edit(text)
        cfg.write_text(text, encoding="utf-8")
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == code
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    if line == GRID_TOO_LARGE:
        assert stderr.startswith(line) and stderr.count("\n") == 1, stderr
    else:
        assert stderr == line.format(cfg=str(cfg), out=str(out)) + "\n"
    assert not out.exists()
