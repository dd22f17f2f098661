"""Run-configuration files: parsing, validation and unit resolution.

The format is line oriented ``key = value`` under ``[section]`` headers.
Sections: ``[physical]`` (required), ``[sweep]`` and ``[sweep2]`` (optional
grids), ``[output]`` (optional emission settings).  Unknown sections or
keys are hard errors; duplicate keys are parse errors with a line number.
All values are converted to SI on load.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
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
OMEGA_SWEEP_KEYS = ("omega_rad_s", "omega_over_gamma")
SWEEP_VARIABLES = tuple(PHYSICAL_KEYS) + OMEGA_SWEEP_KEYS
SWEEP_SECTIONS = ("sweep", "sweep2")


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
class OutputSpec:
    path: str | None = None
    fmt: str = "csv"
    normalize: bool = False


@dataclass(frozen=True)
class RunConfig:
    physical: dict
    sweeps: tuple[SweepSpec, ...] = ()
    output: OutputSpec = field(default_factory=OutputSpec)

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

    def oscillator(self) -> MechanicalOscillator | None:
        if "mass_kg" not in self.physical:
            return None
        return MechanicalOscillator(
            mass=self.physical["mass_kg"],
            resonance_frequency=2.0 * math.pi * self.physical.get("mech_freq_hz", 0.0),
            damping_rate=2.0 * math.pi * self.physical.get("mech_damping_hz", 0.0),
        )

    def require(self, *keys: str) -> None:
        for key in keys:
            if key not in self.physical:
                raise ValidationError(f"missing required key '{key}' for this subcommand")


def _convert(section: str, key: str, raw: str, converter):
    try:
        return converter(raw)
    except ValueError as exc:
        raise ValidationError(f"invalid value for key '{key}' in [{section}]: {exc}") from exc


def _sweep_from_section(name: str, items: dict) -> SweepSpec:
    allowed = {"variable": str, "start": _parse_float, "stop": _parse_float,
               "points": _parse_int, "scale": str}
    for key in items:
        if key not in allowed:
            raise ValidationError(f"unknown key '{key}' in [{name}]")
    for key in ("variable", "start", "stop", "points"):
        if key not in items:
            raise ValidationError(f"missing required key '{key}' in [{name}]")
    spec = SweepSpec(
        variable=items["variable"].strip(),
        start=_convert(name, "start", items["start"], _parse_float),
        stop=_convert(name, "stop", items["stop"], _parse_float),
        points=_convert(name, "points", items["points"], _parse_int),
        scale=items.get("scale", "lin").strip(),
    )
    if spec.variable not in SWEEP_VARIABLES:
        raise ValidationError(f"unknown sweep variable '{spec.variable}' in [{name}]")
    if spec.points < 2:
        raise ValidationError(f"key 'points' in [{name}] must be at least 2")
    if spec.scale not in ("lin", "log"):
        raise ValidationError(f"key 'scale' in [{name}] must be lin or log")
    if spec.scale == "log" and (spec.start * spec.stop <= 0.0):
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
        if section not in ("physical", "output") + SWEEP_SECTIONS:
            raise ValidationError(f"unknown section [{section}]")
    if "physical" not in sections:
        raise ValidationError("missing required section [physical]")

    physical = {}
    for key, raw in parser.items("physical"):
        if key not in PHYSICAL_KEYS:
            raise ValidationError(f"unknown key '{key}' in [physical]")
        physical[key] = _convert("physical", key, raw, PHYSICAL_KEYS[key])
    for key in REQUIRED_PHYSICAL:
        if key not in physical:
            raise ValidationError(f"missing required key '{key}' in [physical]")
    n_detuning = sum(key in physical for key in DETUNING_KEYS)
    if n_detuning != 1:
        raise ValidationError(
            "exactly one of detuning_over_gamma / detuning_rad_s must be present"
        )

    sweeps = []
    for name in SWEEP_SECTIONS:
        if name in sections:
            sweeps.append(_sweep_from_section(name, dict(parser.items(name))))
    if "sweep2" in sections and "sweep" not in sections:
        raise ValidationError("[sweep2] requires a [sweep] section")

    output = OutputSpec()
    if "output" in sections:
        items = dict(parser.items("output"))
        for key in items:
            if key not in ("path", "format", "normalize"):
                raise ValidationError(f"unknown key '{key}' in [output]")
        fmt = items.get("format", "csv").strip()
        if fmt not in ("csv", "json"):
            raise ValidationError("key 'format' in [output] must be csv or json")
        output = OutputSpec(
            path=items.get("path", "").strip() or None,
            fmt=fmt,
            normalize=_convert("output", "normalize", items.get("normalize", "false"), _parse_bool),
        )

    return RunConfig(physical=physical, sweeps=tuple(sweeps), output=output)
