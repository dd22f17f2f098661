"""Command-line interface: parameter sweeps and CSV/JSON emission.

Exit codes: 0 success, 1 I/O or parse errors, 2 validation failures, such as a
sweep whose kind :func:`_single_sweep` refuses (``backaction --method freemass``
takes only detunings) or ``stability`` without ``mass_kg``.
``darkport`` and ``cavity`` print named rows of the JSON ``meta`` block (same
keys, same values) as ``<key> = <value>`` lines, ``darkport`` adding
``arm_imbalance_m`` and ``tau_residual`` (:func:`cmd_point`).
``validate`` prints a line per check of ``checks.CHECKS``: its verdict, its name
and its parts, each ``<residual> <= <bound>`` (``>`` where it fails), joined by ``; ``.
Errors and the warnings a run raises go to stderr as ``ospring: <error>``
and ``ospring: warning: <message>``, each distinct warning once.
CSV contract: comma separator, dot decimal, LF line endings, UTF-8, one
header row, shortest round-trip float formatting.  Every float, in a table
or a text line, is ``float.__repr__``'s bytes, formed from orjson's digits
(:func:`_float_cells`).  JSON output mirrors the
CSV columns as arrays next to a ``meta`` block with the resolved SI
parameters, laid out exactly as ``json.dumps(indent=2)`` would write it: one
array element per line, non-finite floats spelled ``NaN``/``Infinity``/
``-Infinity`` as ``json`` spells them.  Both formats are written in blocks
of rows as they are formatted, same bytes.  Columns of a table must be
equally long, or nothing is written (exit 2).  A column may be categorical,
its distinct values formatted once: ``stability`` and ``map`` pass their
regime labels so, as uint8 codes into ``stability.REGIME_LABELS``, and ``map``
its ``delta`` and ``xi`` axes too, holding two floats and one byte per grid cell.
Every subcommand writes to ``--out``, or to stdout without it; the tables
(``spectrum``, ``backaction``, ``stability`` and ``map``; :func:`_emit_table`)
take ``--format`` too, ``csv`` by default.  The configuration file names no
destination or format: its ``[output]`` holds only ``normalize``.

``main`` resolves the configuration's operating point and its effective
cavity once (:meth:`ospring.runconfig.RunConfig.interferometer`) and hands
both to the subcommand's handler and on to the JSON ``meta`` block.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from . import backaction as ba
from . import cavity as cav
from . import checks
from . import noise as noi
from . import stability as st
from .runconfig import (
    SWEEP_VARIABLES, ParseError, RunConfig, SweepSpec, ValidationError, load_config
)


_BLOCK = 1024  # table rows formatted, then written, at a time
_NON_FINITE = {False: ("nan", "inf", "-inf"), True: ("NaN", "Infinity", "-Infinity")}
# orjson writes the shortest round-trip digits that float.__repr__ does, laid
# out otherwise in three ranges: 1e16 for 1e+16, 1e-7 for 1e-07 and, in
# [1e-5, 1e-4), 0.0000123 for 1.23e-05 (and null for every non-finite value)
_POSITIVE_EXPONENT = re.compile(r"e(?=\d)")


def _fifth_place(cell: str) -> str:
    """repr's layout of orjson's ``0.0000123`` or ``-0.0000123``."""
    sign, _, digits = cell.partition("0.0000")
    return f"{sign}{digits[0]}.{digits[1:]}e-05" if len(digits) > 1 else f"{sign}{digits}e-05"


def _float_cells(arr: np.ndarray, as_json: bool) -> list[str]:
    """``float.__repr__`` of each element of a float64 array, formed from
    orjson's output, with non-finite values spelled as ``json`` spells them
    when ``as_json``.  Each rewrite runs only where the array holds a value of
    its range: on the whole text for the common one-digit exponents, cell by
    cell for the rest."""
    if not arr.size:
        return []
    text = orjson.dumps(np.ascontiguousarray(arr), option=orjson.OPT_SERIALIZE_NUMPY).decode()
    magnitude = np.abs(arr)
    if (magnitude >= 1e16).any():
        text = _POSITIVE_EXPONENT.sub("e+", text)
    exponent = (magnitude > 0.0) & (magnitude < 1e-5)
    if exponent.any():
        text = text.replace("e-", "e-0")  # right for -6 to -9; below -9 undone per cell
    cells = text[1:-1].split(",")
    for i in np.flatnonzero(exponent & (magnitude < 1e-9)).tolist():
        cells[i] = cells[i].replace("e-0", "e-")
    for i in np.flatnonzero((magnitude >= 1e-5) & (magnitude < 1e-4)).tolist():
        cells[i] = _fifth_place(cells[i])
    finite = np.isfinite(arr)
    if not finite.all():
        nan, inf, minus_inf = _NON_FINITE[as_json]
        for i in np.flatnonzero(~finite).tolist():
            cells[i] = nan if np.isnan(arr[i]) else inf if arr[i] > 0.0 else minus_inf
    return cells


def _fmt(value) -> str:
    return _float_cells(np.array([value], dtype=np.float64), False)[0]


def _open(path: str | None):
    """The output destination: the file at ``path``, or stdout (left open)."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(dest, text: str) -> None:
    """Every byte of output passes through here, to an open destination."""
    dest.write(text)


def _write_lines(path: str | None, lines) -> None:
    with _open(path) as dest:
        _write_text(dest, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class _Categorical:
    """A table column given as its categories and, per row, an index into
    them: the rows are the elements of ``codes`` in C order, so a broadcast
    view of an index range stands for a repeated axis without its memory.
    Each category is formatted once."""

    categories: object
    codes: np.ndarray

    def __len__(self) -> int:
        return self.codes.size


def _column(column):
    """A column as an array of a kind that ``_cells`` formats (bool, str or
    float64), or a ``_Categorical`` with its categories so converted, before
    any output is opened."""
    if isinstance(column, _Categorical):
        return _Categorical(_column(column.categories), column.codes)
    arr = np.asarray(column)
    return arr if arr.dtype.kind in "bU" else np.asarray(arr, dtype=np.float64)


def _cells(arr: np.ndarray, as_json: bool) -> list[str]:
    """A block of a ``_column`` array as cell strings, its type dispatched
    once.  JSON spells non-finite values as ``json`` does."""
    kind = arr.dtype.kind
    if kind == "b":
        return ["true" if v else "false" for v in arr.tolist()]
    if kind == "U":
        return list(map(encode_basestring_ascii, arr.tolist())) if as_json else arr.tolist()
    return _float_cells(arr, as_json)


def _blocks(column, as_json: bool, peak=None):
    """The cell strings of a ``_column``, ``_BLOCK`` rows at a time, each
    block divided by ``peak`` when one is given."""
    if isinstance(column, _Categorical):
        texts = _cells(column.categories, as_json)
        rows = column.codes.flat
        for start in range(0, len(column), _BLOCK):
            yield list(map(texts.__getitem__, rows[start : start + _BLOCK].tolist()))
        return
    for start in range(0, len(column), _BLOCK):
        block = column[start : start + _BLOCK]
        yield _cells(block if peak is None else block / peak, as_json)


def _emit_table(
    header, columns, run: RunConfig, config, cavity, out: str | None, fmt: str, normalized=()
) -> None:
    """Write a table of equally long columns (arrays, sequences or
    ``_Categorical`` columns) to ``out``, or stdout when it is None, in
    ``fmt``, csv or json.  Under ``run.normalize`` each block of a float
    column that ``normalized`` maps to a column name (itself, or the
    spectrum's ``s_f`` for its parts) is divided by that column's peak |value|."""
    columns = [_column(column) for column in columns]
    lengths = sorted({len(column) for column in columns})
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    divisor = dict(normalized) if run.normalize else {}
    peak_of = {name: st._peak(c) for name, c in zip(header, columns) if name in divisor.values()}
    # an all-zero or a NaN column is written as it is
    peak_of = {name: peak if peak > 0.0 else None for name, peak in peak_of.items()}
    peaks = [peak_of[divisor[name]] if name in divisor else None for name in header]
    if fmt == "csv":
        with _open(out) as dest:
            _write_text(dest, ",".join(header) + "\n")
            for block in zip(*(_blocks(c, False, peak) for c, peak in zip(columns, peaks))):
                _write_text(dest, "\n".join(map(",".join, zip(*block))) + "\n")
        return
    # the layout json.dumps(payload, indent=2) writes, one array element per line
    prefix = json.dumps({"meta": _meta(run, config, cavity)}, indent=2)[: -len("\n}")]
    with _open(out) as dest:
        _write_text(dest, prefix)
        for name, column, peak in zip(header, columns, peaks):
            _write_text(dest, f",\n  {encode_basestring_ascii(name)}: [")
            for i, cells in enumerate(_blocks(column, True, peak)):
                _write_text(dest, (",\n    " if i else "\n    ") + ",\n    ".join(cells))
            _write_text(dest, "\n  ]" if len(column) else "]")
        _write_text(dest, "\n}\n")


def _meta(run: RunConfig, config, cavity) -> dict:
    geom = config.geometry
    meta = {
        "wavelength_m": geom.wavelength,
        "carrier_omega_rad_s": geom.carrier_omega,
        "input_power_w": config.input_power,
        "arm_length_m": geom.arm_length,
        "half_arm_m": geom.half_arm,
        "sr_distance_m": geom.sr_distance,
        "cavity_length_m": geom.cavity_length,
        "membrane_amplitude_reflectivity": config.membrane.reflectivity,
        "srm_amplitude_transmissivity": config.srm.transmissivity,
        "bs_asymmetry": config.bs.asymmetry,
        "dark_port_index": config.dark_port_index,
        "dark_port_offset_m": cav.dark_port_offset(
            config.membrane, config.bs, geom.wavelength, config.dark_port_index
        ),
        "offset_m": config.offset,
        "srm_detuning_rad_s": cavity.srm_detuning,
        "membrane_detuning_rad_s": cavity.membrane_detuning,
        "total_detuning_rad_s": cavity.detuning,
        "half_linewidth_rad_s": cavity.half_linewidth,
        "half_linewidth_exact_rad_s": cavity.half_linewidth_exact,
        "srm_half_linewidth_rad_s": cavity.srm_half_linewidth,
        "membrane_half_linewidth_rad_s": cavity.membrane_half_linewidth,
    }
    oscillator = run.oscillator()
    if oscillator is not None:
        meta["mass_kg"] = oscillator.mass
        meta["mech_freq_rad_s"] = oscillator.resonance_frequency
        meta["mech_damping_rad_s"] = oscillator.damping_rate
    return meta


def _single_sweep(run: RunConfig, kinds) -> SweepSpec:
    """The run's one sweep, whose variable must be of one of ``kinds``."""
    if len(run.sweeps) != 1:
        raise ValidationError("this subcommand needs exactly one [sweep] section")
    sweep = run.sweeps[0]
    accepted = [name for name, (kind, _) in SWEEP_VARIABLES.items() if kind in kinds]
    if sweep.variable not in accepted:
        raise ValidationError(
            f"sweep variable '{sweep.variable}' is not supported here "
            f"(expected one of {', '.join(accepted)})"
        )
    return sweep


# the rows of the operating point that each text subcommand prints, in its order
_POINT_ROWS = {
    "darkport": ("dark_port_offset_m", "offset_m", "arm_imbalance_m", "tau_residual"),
    "cavity": (
        "total_detuning_rad_s", "srm_detuning_rad_s", "membrane_detuning_rad_s",
        "half_linewidth_rad_s", "half_linewidth_exact_rad_s",
        "srm_half_linewidth_rad_s", "membrane_half_linewidth_rad_s",
    ),
}


def cmd_point(run: RunConfig, config, cavity, args) -> int:
    """``darkport`` and ``cavity``: their ``_POINT_ROWS`` of the JSON ``meta``
    block, plus the arm imbalance and the dark port's cross-coupling residual."""
    point = _meta(run, config, cavity)
    point["arm_imbalance_m"] = point["dark_port_offset_m"] + point["offset_m"]
    point["tau_residual"] = checks.dark_port(config, cavity)[0][0]
    _write_lines(args.out, [f"{key} = {_fmt(point[key])}" for key in _POINT_ROWS[args.command]])
    return 0


def cmd_spectrum(run: RunConfig, config, cavity, args) -> int:
    omega = run.sweep_grid(_single_sweep(run, ("omega",)), config, cavity)
    spectrum = noi.back_action_spectrum(config, omega)
    columns = [spectrum.omega, spectrum.total, spectrum.laser_part, spectrum.detector_part]
    header = ["omega_rad_s", "s_f", "laser_part", "detector_part"]
    by_total = dict.fromkeys(header[1:], "s_f")  # the parts share the total's peak
    _emit_table(header, columns, run, config, cavity, args.out, args.format, by_total)
    return 0


def cmd_backaction(run: RunConfig, config, cavity, args) -> int:
    kinds = ("detuning",) if args.method == "freemass" else ("detuning", "omega")
    sweep = _single_sweep(run, kinds)
    if args.method != "exact":
        st._require_linewidth(cavity)  # the narrow-band laws divide by gamma^2 + delta^2
    grid = run.sweep_grid(sweep, config, cavity)
    if SWEEP_VARIABLES[sweep.variable][0] == "omega":
        if np.any(grid <= 0.0):
            raise ValidationError("frequency sweeps for backaction must stay positive")
        omega, deltas = grid, None
    elif args.method != "freemass":
        omega, deltas = run.analysis_frequency(), grid
        if not omega > 0.0:
            raise ValidationError(
                "detuning sweeps need 'mech_freq_hz' (the analysis frequency) "
                "and it must be positive"
            )

    if args.method == "freemass":
        spring, damping = ba.free_mass_spring_damping(cavity, *ba._gain_inputs(config), grid)
        kernel = spring.astype(complex)
    else:
        if args.method == "exact":
            swept = config if deltas is None else cav.with_total_detuning(config, deltas)
            kernel = ba.kernel_exact(swept, omega)
        else:
            kernel = ba.kernel_narrowband(cavity, *ba._gain_inputs(config), omega, detuning=deltas)
        spring, damping = ba.spring_damping(kernel, omega)

    header = ["sweep_var", "k_re", "k_im", "spring_n_per_m", "damping_ns_per_m"]
    columns = [sweep.grid(), kernel.real, kernel.imag, spring, damping]
    by_itself = {name: name for name in header[1:]}
    _emit_table(header, columns, run, config, cavity, args.out, args.format, by_itself)
    return 0


def cmd_stability(run: RunConfig, config, cavity, args) -> int:
    oscillator = run.oscillator()
    if oscillator is None:
        raise ValidationError("missing required key 'mass_kg' for this subcommand")
    deltas = run.sweep_grid(_single_sweep(run, ("detuning",)), config, cavity)
    report = st.stability_report(config, oscillator, deltas, oscillator.resonance_frequency)

    header = ["delta_rad_s", "spring", "damping", "regime_label", "rh_stable"]
    labels = _Categorical(st.REGIME_LABELS, report.codes)
    columns = [report.deltas, report.spring, report.damping, labels, report.rh_verdicts]
    by_itself = {name: name for name in header[1:3]}
    _emit_table(header, columns, run, config, cavity, args.out, args.format, by_itself)
    return 0


def cmd_map(run: RunConfig, config, cavity, args) -> int:
    if len(run.sweeps) != 2:
        raise ValidationError("the map subcommand needs [sweep] and [sweep2] sections")
    by_kind = {SWEEP_VARIABLES[sweep.variable][0]: sweep for sweep in run.sweeps}
    if set(by_kind) != {"detuning", "offset"}:
        raise ValidationError("map sweeps must cover a detuning key and offset_xi_lambda0")
    deltas = run.sweep_grid(by_kind["detuning"], config, cavity)
    offsets = run.sweep_grid(by_kind["offset"], config, cavity)

    grid = st.regime_map(config, deltas, offsets, run.analysis_frequency())
    n_d, n_x = deltas.size, offsets.size
    header = ["delta", "xi", "spring", "damping", "regime_label"]
    columns = [
        _Categorical(deltas, np.broadcast_to(np.arange(n_d), (n_x, n_d))),
        _Categorical(offsets, np.broadcast_to(np.arange(n_x)[:, None], (n_x, n_d))),
        grid.spring.ravel(),
        grid.damping.ravel(),
        _Categorical(st.REGIME_LABELS, grid.codes),
    ]
    by_itself = {name: name for name in header[2:4]}
    _emit_table(header, columns, run, config, cavity, args.out, args.format, by_itself)
    return 0


def cmd_validate(run: RunConfig, config, cavity, args) -> int:
    lines = []
    for name, check in checks.CHECKS:
        try:
            parts = [(_fmt(r), "<=" if r <= b else ">", _fmt(b)) for r, b in check(config, cavity)]
        except Exception as exc:  # a crash is reported as such, not as a missed bound
            lines.append(f"ERROR: {name}: {type(exc).__name__}: {exc}")
            continue
        verdict = "PASS" if all(op == "<=" for _, op, _ in parts) else "FAIL"
        lines.append(f"{verdict}: {name}: " + "; ".join(map(" ".join, parts)))
    _write_lines(args.out, lines)
    return 0 if all(line.startswith("PASS: ") for line in lines) else 2


HANDLERS = {
    "darkport": cmd_point,
    "cavity": cmd_point,
    "spectrum": cmd_spectrum,
    "backaction": cmd_backaction,
    "stability": cmd_stability,
    "map": cmd_map,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospring",
        description="Optical spring, damping and back-action noise sweeps "
        "for signal-recycled interferometers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run-configuration file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name not in ("darkport", "cavity", "validate"):  # these print text lines
            p.add_argument("--format", default="csv", choices=("csv", "json"))
        if name == "backaction":
            p.add_argument(
                "--method", default="exact", choices=("exact", "narrowband", "freemass")
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the library warns through ``warnings``; a run states each distinct message
    # once, as it states errors, so stderr names no source file
    with warnings.catch_warnings(record=True) as caught:
        try:
            run = load_config(args.config)
            config, cavity = run.interferometer()
            return HANDLERS[args.command](run, config, cavity, args)
        except ParseError as exc:
            print(f"ospring: parse error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"ospring: i/o error: {exc}", file=sys.stderr)
            return 1
        except (
            ValidationError,
            cav.DegenerateResonanceError,
            st.DegenerateLeadingCoefficientError,
            ValueError,
        ) as exc:
            print(f"ospring: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            print(f"ospring: sweep grid too large: {exc}", file=sys.stderr)
            return 2
        finally:
            for message in dict.fromkeys(str(warning.message) for warning in caught):
                print(f"ospring: warning: {message}", file=sys.stderr)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
