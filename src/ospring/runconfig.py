"""Run-configuration files: parsing, validation and unit resolution.

The format is line oriented ``key = value`` under ``[section]`` headers:
``[physical]`` (required), ``[sweep]`` and ``[sweep2]`` (optional grids) and
``[output]`` (optional; its one key is ``normalize``: the destination and the
format of a run's output are set on the command line only).  Unknown sections
are errors and duplicate keys are parse errors with a line number.  Each
section is read against its table (``_SECTIONS``) in one fault order: the keys
in file order, each unknown or with an invalid value, then a missing required
key, then the checks across its values.  Values are stored in the units of the
file, and :class:`RunConfig` takes every one to SI: :meth:`~RunConfig.interferometer`
and :meth:`~RunConfig.oscillator` the physical keys (None without ``mass_kg``,
which ``stability`` needs), :meth:`~RunConfig.analysis_frequency` ``mech_freq_hz``
and :meth:`~RunConfig.sweep_grid` a sweep by its unit in ``SWEEP_VARIABLES``, whose
kind decides the subcommands that take it (a freemass ``backaction``: detunings).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import cavity as cav
from .params import (
    BeamsplitterParams,
    Geometry,
    InterferometerConfig,
    MechanicalOscillator,
    MirrorParams,
)


class ParseError(Exception):
    """Malformed configuration text; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ValidationError(Exception):
    """Well-formed text with an invalid, missing, unknown or surplus key."""


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_int(text: str) -> int:
    value = _parse_float(text)
    if value != int(value):
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _parse_positive(text: str) -> float:
    value = _parse_float(text)
    if not value > 0.0:
        raise ValueError(f"{text!r} is not positive")
    return value


def _parse_nonnegative(text: str) -> float:
    value = _parse_float(text)
    if value < 0.0:
        raise ValueError(f"{text!r} is negative")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return lowered == "true"


PHYSICAL_KEYS = {
    "wavelength_nm": _parse_float,
    "input_power_mw": _parse_float,
    "arm_length_m": _parse_float,
    "half_arm_m": _parse_float,
    "sr_distance_m": _parse_float,
    "membrane_power_reflectivity": _parse_float,
    "sr_power_transmissivity": _parse_float,
    "bs_asymmetry": _parse_float,
    "dark_port_index": _parse_int,
    "offset_xi_lambda0": _parse_float,
    "detuning_over_gamma": _parse_float,
    "detuning_rad_s": _parse_float,
    "mass_kg": _parse_positive,
    "mech_freq_hz": _parse_nonnegative,
    "mech_damping_hz": _parse_nonnegative,
}

REQUIRED_PHYSICAL = (
    "wavelength_nm",
    "input_power_mw",
    "arm_length_m",
    "half_arm_m",
    "sr_distance_m",
    "membrane_power_reflectivity",
    "sr_power_transmissivity",
    "dark_port_index",
    "offset_xi_lambda0",
)

DETUNING_KEYS = ("detuning_over_gamma", "detuning_rad_s")

# the variables a subcommand sweeps: the kind of each and its SI unit at the
# resolved operating point (config, cavity), None where the file gives SI
SWEEP_VARIABLES = {
    "detuning_over_gamma": ("detuning", lambda config, cavity: cavity.half_linewidth),
    "detuning_rad_s": ("detuning", None),
    "omega_rad_s": ("omega", None),
    "omega_over_gamma": ("omega", lambda config, cavity: cavity.half_linewidth),
    "offset_xi_lambda0": ("offset", lambda config, cavity: config.geometry.wavelength),
}
SWEEP_SECTIONS = ("sweep", "sweep2")

# each section's converter per key and required keys; a sweep's keys are SweepSpec's fields
_SWEEP = ({"variable": str, "start": _parse_float, "stop": _parse_float,
           "points": _parse_int, "scale": str}, ("variable", "start", "stop", "points"))
_SECTIONS = {
    "physical": (PHYSICAL_KEYS, REQUIRED_PHYSICAL),
    "sweep": _SWEEP,
    "sweep2": _SWEEP,
    "output": ({"normalize": _parse_bool}, ()),
}


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    scale: str = "lin"

    def grid(self) -> np.ndarray:
        if self.scale == "lin":
            return np.linspace(self.start, self.stop, self.points)
        return np.geomspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunConfig:
    physical: dict
    sweeps: tuple[SweepSpec, ...] = ()
    normalize: bool = False

    def interferometer(self) -> tuple[InterferometerConfig, cav.EffectiveCavity]:
        """Resolved interferometer operating point (detuning in rad/s) and its
        effective cavity, from one reduction."""
        p = self.physical
        wavelength = p["wavelength_nm"] * 1e-9
        geometry = Geometry(
            arm_length=p["arm_length_m"],
            half_arm=p["half_arm_m"],
            sr_distance=p["sr_distance_m"],
            wavelength=wavelength,
        )
        base = InterferometerConfig(
            geometry=geometry,
            membrane=MirrorParams.from_power_reflectivity(p["membrane_power_reflectivity"]),
            srm=MirrorParams.from_power_transmissivity(p["sr_power_transmissivity"]),
            bs=BeamsplitterParams(p.get("bs_asymmetry", 0.0)),
            input_power=p["input_power_mw"] * 1e-3,
            dark_port_index=p["dark_port_index"],
            offset=p["offset_xi_lambda0"] * wavelength,
        )
        # one reduction: it gives the linewidth unit of the detuning, and the
        # recycling tuning moves only its srm_detuning (the total follows)
        cavity = cav.effective_cavity(base)
        total = p.get("detuning_rad_s")
        if total is None:
            total = p["detuning_over_gamma"] * cavity.half_linewidth
        config = cav.with_total_detuning(base, total)
        return config, replace(cavity, srm_detuning=config.srm_detuning)

    def sweep_grid(self, sweep: SweepSpec, config, cavity) -> np.ndarray:
        """The grid of ``sweep`` in SI (rad/s or metres) at the resolved
        operating point ``(config, cavity)``."""
        unit = SWEEP_VARIABLES[sweep.variable][1]
        return sweep.grid() if unit is None else sweep.grid() * unit(config, cavity)

    def analysis_frequency(self) -> float:
        """2π·``mech_freq_hz`` in rad/s; 0 without the key."""
        return 2.0 * math.pi * self.physical.get("mech_freq_hz", 0.0)

    def oscillator(self) -> MechanicalOscillator | None:
        if "mass_kg" not in self.physical:
            return None
        return MechanicalOscillator(
            mass=self.physical["mass_kg"],
            resonance_frequency=self.analysis_frequency(),
            damping_rate=2.0 * math.pi * self.physical.get("mech_damping_hz", 0.0),
        )


def _section(parser: configparser.RawConfigParser, name: str) -> dict:
    """The converted values of section ``name``: each key in file order is
    unknown or converted, then the first missing required key is reported."""
    converters, required = _SECTIONS[name]
    values = {}
    for key, raw in parser.items(name):
        if key not in converters:
            raise ValidationError(f"unknown key '{key}' in [{name}]")
        try:
            values[key] = converters[key](raw)
        except ValueError as exc:
            raise ValidationError(f"invalid value for key '{key}' in [{name}]: {exc}") from exc
    for key in required:
        if key not in values:
            raise ValidationError(f"missing required key '{key}' in [{name}]")
    return values


def _sweep_from_section(name: str, values: dict) -> SweepSpec:
    spec = SweepSpec(**values)
    if spec.variable not in SWEEP_VARIABLES:
        raise ValidationError(f"unknown sweep variable '{spec.variable}' in [{name}]")
    if spec.points < 2:
        raise ValidationError(f"key 'points' in [{name}] must be at least 2")
    if spec.scale not in ("lin", "log"):
        raise ValidationError(f"key 'scale' in [{name}] must be lin or log")
    if spec.scale == "log" and (np.sign(spec.start) * np.sign(spec.stop) <= 0.0):
        raise ValidationError(f"log sweep in [{name}] needs nonzero same-sign endpoints")
    return spec


def load_config(path) -> RunConfig:
    """Parse and validate a run-configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc

    parser = configparser.RawConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        strict=True,
        default_section="",
    )
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.DuplicateOptionError as exc:
        raise ParseError(f"duplicate key '{exc.option}' in [{exc.section}]", exc.lineno) from exc
    except configparser.DuplicateSectionError as exc:
        raise ParseError(f"duplicate section [{exc.section}]", exc.lineno) from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError("key outside of any [section]", exc.lineno) from exc
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None) or next(iter(getattr(exc, "errors", [])), (None,))[0]
        raise ParseError(str(exc), line) from exc

    sections = parser.sections()
    for section in sections:
        if section not in _SECTIONS:
            raise ValidationError(f"unknown section [{section}]")
    if "physical" not in sections:
        raise ValidationError("missing required section [physical]")

    physical = _section(parser, "physical")
    if sum(key in physical for key in DETUNING_KEYS) != 1:
        raise ValidationError(
            "exactly one of detuning_over_gamma / detuning_rad_s must be present"
        )

    sweeps = tuple(_sweep_from_section(name, _section(parser, name))
                   for name in SWEEP_SECTIONS if name in sections)
    if "sweep2" in sections and "sweep" not in sections:
        raise ValidationError("[sweep2] requires a [sweep] section")

    output = _section(parser, "output") if "output" in sections else {}
    return RunConfig(physical=physical, sweeps=sweeps, **output)
