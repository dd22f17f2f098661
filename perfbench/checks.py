"""Output checks.  Each returns ``None`` when the output is right and a
one-line reason when it is not; an op that fails its check counts in
``failed_frac`` and is never dropped.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Mirrors ospring.stability.REGIME_LABELS; the cold client does not import ospring.
REGIME_LABELS = ("cooling", "heating", "stable_spring", "unstable_spring", "neutral")

# Preset outputs may differ from tests/golden by this much relative to the
# column peak.  It admits the known last-bits drift of fig2d, fig4a and fig4b
# (at most 1.6e-12 of the peak) and nothing of physical size; the bit-exact
# golden tests of the test suite stay the strict contract.
GOLDEN_REL_TOL = 1e-10
CLOSURE_TOL = 1e-12

BACKACTION_HEADER = ["sweep_var", "k_re", "k_im", "spring_n_per_m", "damping_ns_per_m"]
SPECTRUM_HEADER = ["omega_rad_s", "s_f", "laser_part", "detector_part"]
STABILITY_HEADER = ["delta_rad_s", "spring", "damping", "regime_label", "rh_stable"]
MAP_HEADER = ["delta", "xi", "spring", "damping", "regime_label"]
TEXT_COLUMNS = {"regime_label", "rh_stable"}


def read_table(path: Path, fmt: str) -> tuple[list[str], list[list]]:
    """Header and columns of a CSV or JSON table (numbers as floats)."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        payload = json.loads(text)
        if "meta" not in payload:
            raise ValueError("JSON output has no meta block")
        header = [k for k in payload if k != "meta"]
        return header, [payload[k] for k in header]
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV output does not end in a newline")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    columns = [list(col) for col in zip(*rows)] if rows else [[] for _ in header]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV row")
    for i, name in enumerate(header):
        if name not in TEXT_COLUMNS:
            columns[i] = [float(v) for v in columns[i]]
    return header, columns


def check_table(header, columns, expected_header, n_rows) -> str | None:
    """Header, row count, finite numbers and known labels."""
    if header != expected_header:
        return f"header {header} != {expected_header}"
    for name, col in zip(header, columns):
        if len(col) != n_rows:
            return f"column {name} has {len(col)} rows, expected {n_rows}"
        if name == "regime_label":
            bad = set(col) - set(REGIME_LABELS)
            if bad:
                return f"unknown regime labels {sorted(bad)[:3]}"
        elif name == "rh_stable":
            if set(map(str, col)) - {"true", "false", "True", "False"}:
                return "rh_stable is not boolean"
        elif not all(math.isfinite(v) for v in col):
            return f"non-finite value in {name}"
    return None


def check_spectrum(header, columns) -> str | None:
    """s_f = laser part + detector part within 1e-12 of the peak, none negative."""
    cols = dict(zip(header, columns))
    total, laser, detector = cols["s_f"], cols["laser_part"], cols["detector_part"]
    peak = max(total)
    worst = max(abs(t - a - b) for t, a, b in zip(total, laser, detector))
    if worst > CLOSURE_TOL * peak:
        return f"noise closure off by {worst / peak:.3g} of the peak"
    if min(min(total), min(laser), min(detector)) < 0.0:
        return "negative spectral density"
    return None


def golden_deviation(header, columns, golden_path: Path) -> tuple[float, str | None]:
    """Worst |value - golden| relative to the golden column peak."""
    g_header, g_columns = read_table(golden_path, "csv")
    if header != g_header:
        return math.inf, f"header {header} != golden {g_header}"
    if len(columns[0]) != len(g_columns[0]):
        return math.inf, f"{len(columns[0])} rows, golden has {len(g_columns[0])}"
    worst = 0.0
    for col, ref in zip(columns, g_columns):
        peak = max(abs(v) for v in ref)
        for v, r in zip(col, ref):
            if v != r:
                worst = max(worst, abs(v - r) / peak if peak else math.inf)
    if worst > GOLDEN_REL_TOL:
        return worst, f"deviates from golden by {worst:.3g} of the column peak"
    return worst, None


def _key_values(text: str) -> dict[str, float]:
    pairs = (line.split(" = ") for line in text.splitlines())
    return {key: float(value) for key, value in pairs}


def check_cavity(text: str) -> str | None:
    values = _key_values(text)
    if len(values) != 7 or not all(map(math.isfinite, values.values())):
        return "cavity output is not 7 finite values"
    split = values["srm_detuning_rad_s"] + values["membrane_detuning_rad_s"]
    if values["total_detuning_rad_s"] != split:
        return "total detuning is not srm + membrane detuning"
    return None


def check_darkport(text: str) -> str | None:
    values = _key_values(text)
    if len(values) != 4 or not all(map(math.isfinite, values.values())):
        return "darkport output is not 4 finite values"
    if values["tau_residual"] >= 1e-12:
        return f"dark-port residual {values['tau_residual']:.3g}"
    return None


def check_validate(text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) != 7 or not all(line.startswith("PASS: ") for line in lines):
        return "validate did not pass all 7 checks"
    return None


def check_lib_op(result: dict) -> str | None:
    """lib-sweeps: finite kernels and spectrum, spectrum closure, RH verdicts ==
    root verdicts."""
    import numpy as np

    for name in ("kernel", "detuning_kernel"):
        if not np.all(np.isfinite(result[name])):
            return f"non-finite {name}"
    spectrum = result["spectrum"]
    parts = (spectrum.total, spectrum.laser_part, spectrum.detector_part)
    if not all(np.all(np.isfinite(part)) for part in parts):
        return "non-finite spectrum"
    peak = np.max(spectrum.total)
    closure = np.max(np.abs(spectrum.total - spectrum.laser_part - spectrum.detector_part))
    if closure > CLOSURE_TOL * peak:
        return f"noise closure off by {closure / peak:.3g} of the peak"
    if np.any(spectrum.laser_part < 0.0) or np.any(spectrum.detector_part < 0.0):
        return "negative spectral density"
    report = result["report"]
    if not np.array_equal(report.rh_verdicts, report.root_verdicts):
        where = np.flatnonzero(report.rh_verdicts != report.root_verdicts)
        return f"Routh and root verdicts differ at {where.size} detunings"
    if not np.all(np.isfinite(report.spring)) or not np.all(np.isfinite(report.damping)):
        return "non-finite spring or damping"
    return None
