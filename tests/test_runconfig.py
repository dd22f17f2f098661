import math
import textwrap
from dataclasses import astuple

import numpy as np
import pytest

from ospring import cavity as cav
from ospring import runconfig as rc
from ospring.presets import PRESET_NAMES, preset_path

MINIMAL = """
[physical]
wavelength_nm = 1064
input_power_mw = 200
arm_length_m = 0.05
half_arm_m = 0.027
sr_distance_m = 0.01
membrane_power_reflectivity = 0.17
sr_power_transmissivity = 3e-4
dark_port_index = 3
offset_xi_lambda0 = 0.01
detuning_over_gamma = 0.0
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def test_reference_preset_resolves_to_si_values():
    run = rc.load_config(preset_path("fig2c"))
    config, cavity = run.interferometer()
    geom = config.geometry
    assert config.input_power == pytest.approx(0.2)
    assert geom.wavelength == pytest.approx(1064e-9)
    assert geom.cavity_length == pytest.approx(0.087)
    assert config.membrane.reflectivity**2 == pytest.approx(0.17)
    assert config.srm.transmissivity**2 == pytest.approx(3e-4)
    assert config.dark_port_index == 3
    assert config.offset == pytest.approx(0.01 * 1064e-9)
    assert cavity.detuning == pytest.approx(0.0, abs=1e-9)
    oscillator = run.oscillator()
    assert oscillator is not None
    assert oscillator.resonance_frequency == pytest.approx(2 * math.pi * 133e3)


def test_minimal_config_loads(tmp_path):
    run = rc.load_config(write(tmp_path, MINIMAL))
    assert run.sweeps == ()
    assert run.output.fmt == "csv" and run.output.path is None
    assert run.oscillator() is None
    config, _ = run.interferometer()
    assert config.bs.asymmetry == 0.0  # default


def test_duplicate_key_is_parse_error_with_line(tmp_path):
    bad = MINIMAL + "wavelength_nm = 532\n"
    with pytest.raises(rc.ParseError) as err:
        rc.load_config(write(tmp_path, bad))
    assert err.value.line is not None
    assert "wavelength_nm" in str(err.value)


def test_unknown_key_is_validation_error(tmp_path):
    bad = MINIMAL + "finesse = 100\n"
    with pytest.raises(rc.ValidationError, match="finesse"):
        rc.load_config(write(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    bad = MINIMAL + "\n[plotting]\ncolor = red\n"
    with pytest.raises(rc.ValidationError, match="plotting"):
        rc.load_config(write(tmp_path, bad))


def test_missing_required_key_names_it(tmp_path):
    bad = MINIMAL.replace("arm_length_m = 0.05\n", "")
    with pytest.raises(rc.ValidationError, match="arm_length_m"):
        rc.load_config(write(tmp_path, bad))


def test_exactly_one_detuning_key(tmp_path):
    with pytest.raises(rc.ValidationError, match="detuning"):
        rc.load_config(write(tmp_path, MINIMAL + "detuning_rad_s = 0.0\n"))
    with pytest.raises(rc.ValidationError, match="detuning"):
        rc.load_config(write(tmp_path, MINIMAL.replace("detuning_over_gamma = 0.0\n", "")))


def test_bad_value_names_key(tmp_path):
    bad = MINIMAL.replace("input_power_mw = 200", "input_power_mw = twenty")
    with pytest.raises(rc.ValidationError, match="input_power_mw"):
        rc.load_config(write(tmp_path, bad))
    bad = MINIMAL.replace("dark_port_index = 3", "dark_port_index = 2.5")
    with pytest.raises(rc.ValidationError, match="dark_port_index"):
        rc.load_config(write(tmp_path, bad))


def test_sweep_validation(tmp_path):
    base = MINIMAL + "\n[sweep]\nvariable = detuning_over_gamma\nstart = -2\nstop = 2\npoints = 11\n"
    run = rc.load_config(write(tmp_path, base))
    assert run.sweeps[0].grid().size == 11

    with pytest.raises(rc.ValidationError, match="unknown sweep variable"):
        rc.load_config(write(tmp_path, base.replace("detuning_over_gamma\n", "voltage\n")))
    with pytest.raises(rc.ValidationError, match="points"):
        rc.load_config(write(tmp_path, base.replace("points = 11", "points = 1")))
    with pytest.raises(rc.ValidationError, match="scale"):
        rc.load_config(write(tmp_path, base + "scale = cubic\n"))
    with pytest.raises(rc.ValidationError, match="same-sign"):
        rc.load_config(write(tmp_path, base + "scale = log\n"))
    with pytest.raises(rc.ValidationError, match="missing required key 'stop'"):
        rc.load_config(write(tmp_path, base.replace("stop = 2\n", "")))


def test_sweep2_requires_sweep(tmp_path):
    bad = MINIMAL + "\n[sweep2]\nvariable = offset_xi_lambda0\nstart = 0\nstop = 0.01\npoints = 5\n"
    with pytest.raises(rc.ValidationError, match="sweep2"):
        rc.load_config(write(tmp_path, bad))


def test_output_block(tmp_path):
    good = MINIMAL + "\n[output]\npath = out.csv\nformat = json\nnormalize = true\n"
    run = rc.load_config(write(tmp_path, good))
    assert run.output.path == "out.csv"
    assert run.output.fmt == "json"
    assert run.output.normalize is True
    with pytest.raises(rc.ValidationError, match="format"):
        rc.load_config(write(tmp_path, good.replace("format = json", "format = xml")))
    with pytest.raises(rc.ValidationError, match="normalize"):
        rc.load_config(write(tmp_path, good.replace("normalize = true", "normalize = 1")))


# every section with a valid value per key; FAULTS names, per section, a key
# given an invalid value, that value and a required key (None: none required)
SECTIONS = {
    "physical": dict(line.split(" = ") for line in MINIMAL.strip().splitlines()[1:]),
    "sweep": {"variable": "detuning_over_gamma", "start": "-2", "stop": "2", "points": "11"},
    "sweep2": {"variable": "offset_xi_lambda0", "start": "0.001", "stop": "0.01", "points": "3"},
    "output": {"format": "json", "normalize": "true"},
}
FAULTS = {
    "physical": ("input_power_mw", "twenty", "arm_length_m"),
    "sweep": ("start", "nan", "stop"),
    "sweep2": ("points", "2.5", "variable"),
    "output": ("normalize", "maybe", None),
}


def load_edited(tmp_path, section, **edits):
    """load_config of SECTIONS with ``section``'s keys updated (None deletes one)."""
    sections = {name: dict(keys) for name, keys in SECTIONS.items()}
    sections[section].update(edits)
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None) + "\n"
        for name, keys in sections.items()
    )
    return rc.load_config(write(tmp_path, text))


@pytest.mark.parametrize("section", FAULTS)
def test_every_section_states_its_faults_alike(tmp_path, section):
    key, invalid, required = FAULTS[section]
    assert len(load_edited(tmp_path, section).sweeps) == 2
    with pytest.raises(rc.ValidationError) as err:
        load_edited(tmp_path, section, bogus="1")
    assert str(err.value) == f"unknown key 'bogus' in [{section}]"
    with pytest.raises(rc.ValidationError) as err:
        load_edited(tmp_path, section, **{key: invalid})
    assert str(err.value).startswith(f"invalid value for key '{key}' in [{section}]: ")
    if required is not None:
        with pytest.raises(rc.ValidationError) as err:
            load_edited(tmp_path, section, **{required: None})
        assert str(err.value) == f"missing required key '{required}' in [{section}]"


@pytest.mark.parametrize("section", FAULTS)
def test_invalid_value_is_reported_before_missing_keys_and_value_checks(tmp_path, section):
    # one fault order per section: the keys in file order, unknown or invalid,
    # then the missing keys, then the section's own checks ([output]'s csv|json)
    key, invalid, required = FAULTS[section]
    later = {required: None} if required is not None else {"format": "xml"}
    with pytest.raises(rc.ValidationError) as err:
        load_edited(tmp_path, section, **{key: invalid}, **later)
    assert str(err.value).startswith(f"invalid value for key '{key}' in [{section}]: ")


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(rc.ParseError):
        rc.load_config(tmp_path / "nope.cfg")


def test_key_outside_section_is_parse_error(tmp_path):
    with pytest.raises(rc.ParseError):
        rc.load_config(write(tmp_path, "wavelength_nm = 1064\n" + MINIMAL))


def test_detuning_in_linewidth_units(tmp_path):
    text = MINIMAL.replace("detuning_over_gamma = 0.0", "detuning_over_gamma = -1.5")
    run = rc.load_config(write(tmp_path, text))
    _, cavity = run.interferometer()
    assert cavity.detuning == pytest.approx(-1.5 * cavity.half_linewidth, rel=1e-9)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_interferometer_cavity_is_the_reduction_of_its_config(name):
    # the base reduction with its srm_detuning retuned has every bit of a
    # second reduction of the resolved configuration (the total detuning
    # and the narrow-band width are sums of these fields)
    config, cavity = rc.load_config(preset_path(name)).interferometer()
    assert config.srm_detuning == cavity.srm_detuning
    reduced = cav.effective_cavity(config)
    assert np.array(astuple(cavity)).tobytes() == np.array(astuple(reduced)).tobytes()


def test_require_helper(tmp_path):
    run = rc.load_config(write(tmp_path, MINIMAL))
    with pytest.raises(rc.ValidationError, match="mass_kg"):
        run.require("mass_kg")
