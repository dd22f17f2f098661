"""Seeded inputs of the three workloads.

Everything the program sees is generated here from the workload seed and
written as files: run-configuration files for the CLI workloads, and for
``lib-sweeps`` the operating points in ``ops.json``.  The same seed gives
byte-identical files.  Only the standard library is used, so the cold-CLI
client never imports numpy or ospring itself.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

PRESET_RUNS = {
    # name -> (subcommand, --method or None)
    "fig2c": ("backaction", "narrowband"),
    "fig2d": ("backaction", "exact"),
    "fig3a": ("backaction", "freemass"),
    "fig3b": ("backaction", "freemass"),
    "fig3c": ("backaction", "freemass"),
    "fig3d": ("backaction", "freemass"),
    "fig4a": ("spectrum", None),
    "fig4b": ("spectrum", None),
}
FIG2D_SUBCOMMANDS = ("stability", "cavity", "darkport", "validate")
JSON_VARIANTS = 3  # of the 8 preset variants, this many emit JSON

MAP_SHAPES = ((160, 150), (150, 160), (170, 140), (140, 170), (155, 155), (165, 145)) * 2
KERNEL_POINTS = (12_000, 24_000, 36_000, 48_000, 60_000, 72_000, 84_000, 96_000) * 2
SPECTRUM_POINTS = (10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000) * 2
DETUNING_POINTS = 241  # the fig2d sweep shape


def _set_keys(cfg_text: str, values: dict) -> str:
    """Replace ``key = value`` lines of a run-configuration file."""
    for key, value in values.items():
        pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
        cfg_text, count = pattern.subn(f"{key} = {value!r}", cfg_text)
        if count != 1:
            raise KeyError(f"key {key!r} occurs {count} times")
    return cfg_text


def _variant_values(name: str, rng: random.Random, preset_text: str) -> dict:
    """New operating point and reflectivities for a preset; sweeps unchanged."""
    u = rng.uniform
    if name.startswith("fig2"):
        return {
            "membrane_power_reflectivity": u(0.12, 0.25),
            "sr_power_transmissivity": u(1.5e-4, 6e-4),
            "offset_xi_lambda0": u(0.006, 0.014),
            "detuning_over_gamma": u(-0.3, 0.3),
            "mech_freq_hz": u(1.0e5, 1.6e5),
        }
    if name.startswith("fig3"):
        offset = float(re.search(r"^offset_xi_lambda0\s*=\s*(\S+)", preset_text, re.M).group(1))
        return {
            "sr_power_transmissivity": u(5e-5, 2e-4),
            "offset_xi_lambda0": offset * u(0.8, 1.2),
            "detuning_over_gamma": u(-0.2, 0.2),
        }
    values = {
        "membrane_power_reflectivity": u(0.25, 0.35),
        "bs_asymmetry": u(-0.35, -0.25),
        "offset_xi_lambda0": u(0.006, 0.010),
    }
    if name == "fig4b":
        values["sr_power_transmissivity"] = u(0.2, 0.4)
    return values


def _cold_ops(seed: int, presets_dir: Path, out_dir: Path) -> list[dict]:
    rng = random.Random(seed)
    json_variants = set(rng.sample(sorted(PRESET_RUNS), JSON_VARIANTS))
    ops = []

    def add(kind, preset, sub, method, fmt, text):
        cfg = out_dir / f"{len(ops):02d}-{kind}-{preset}-{sub}.cfg"
        cfg.write_text(text, encoding="utf-8")
        # table outputs have one row per point of the [sweep] section
        rows = 0 if fmt == "text" else int(re.search(r"^points\s*=\s*(\d+)", text, re.M)[1])
        ops.append({"kind": kind, "preset": preset, "subcommand": sub,
                    "method": method, "format": fmt, "cfg": cfg.name, "rows": rows})

    for name, (sub, method) in PRESET_RUNS.items():
        text = (presets_dir / f"{name}.cfg").read_text(encoding="utf-8")
        add("preset", name, sub, method, "csv", text)
        variant = _set_keys(text, _variant_values(name, rng, text))
        add("variant", name, sub, method, "json" if name in json_variants else "csv", variant)
    fig2d = (presets_dir / "fig2d.cfg").read_text(encoding="utf-8")
    for sub in FIG2D_SUBCOMMANDS:
        add("fig2d", "fig2d", sub, None, "csv" if sub == "stability" else "text", fig2d)
    return ops


MAP_TEMPLATE = """# seeded regime map
[physical]
wavelength_nm = 1064
input_power_mw = {power!r}
arm_length_m = 0.05
half_arm_m = 0.027
sr_distance_m = 0.01
membrane_power_reflectivity = {r_m!r}
sr_power_transmissivity = {t_sr!r}
bs_asymmetry = 0.0
dark_port_index = {index}
offset_xi_lambda0 = 0.0
detuning_over_gamma = 0.0
mass_kg = 8e-11
mech_freq_hz = {f_mech!r}
mech_damping_hz = 0.1

[sweep]
variable = detuning_over_gamma
start = {d_lo!r}
stop = {d_hi!r}
points = {n_d}

[sweep2]
variable = offset_xi_lambda0
start = {x_lo!r}
stop = {x_hi!r}
points = {n_x}
"""


def _map_ops(seed: int, out_dir: Path) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for i, (n_d, n_x) in enumerate(MAP_SHAPES):
        u = rng.uniform
        text = MAP_TEMPLATE.format(
            power=u(50.0, 400.0), r_m=u(0.12, 0.3), t_sr=u(1e-4, 6e-4),
            index=rng.choice((1, 3, 5)), f_mech=u(1.0e5, 1.6e5),
            d_lo=-u(2.5, 4.0), d_hi=u(2.5, 4.0), n_d=n_d,
            x_lo=-u(0.01, 0.02), x_hi=u(0.01, 0.02), n_x=n_x,
        )
        cfg = out_dir / f"{i:02d}-map.cfg"
        cfg.write_text(text, encoding="utf-8")
        ops.append({"kind": "map", "cfg": cfg.name, "rows": n_d * n_x,
                    "format": "json" if i % 3 == 2 else "csv"})
    return ops


def _lib_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    kernel_points = rng.sample(KERNEL_POINTS, len(KERNEL_POINTS))
    spectrum_points = rng.sample(SPECTRUM_POINTS, len(SPECTRUM_POINTS))
    ops = []
    for n_k, n_s in zip(kernel_points, spectrum_points):
        u = rng.uniform
        ops.append({
            "kind": "sweep",
            "membrane_power_reflectivity": u(0.12, 0.3),
            "sr_power_transmissivity": u(1e-4, 6e-4),
            "bs_asymmetry": u(-0.05, 0.05),
            "dark_port_index": rng.choice((1, 3, 5)),
            "offset_xi_lambda0": rng.choice((-1.0, 1.0)) * u(0.004, 0.015),
            "input_power_w": u(0.05, 0.4),
            "detuning_over_gamma": u(-1.0, 1.0),
            "mass_kg": 8e-11 * u(0.5, 2.0),
            "mech_freq_hz": u(1.0e5, 1.6e5),
            "mech_damping_hz": u(0.05, 0.5),
            "kernel_points": n_k,
            "spectrum_points": n_s,
            "detuning_points": DETUNING_POINTS,
        })
    return ops


def generate(workload: str, seed: int, presets_dir: Path, out_dir: Path) -> list[dict]:
    """Write the seeded inputs of one workload into out_dir; return its op pool.

    The pool is written to ``ops.json`` as well; ops run in pool order,
    cycle after cycle.  cli-cold reshuffles each cycle with :func:`cycle_order`.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "cli-cold":
        ops = _cold_ops(seed, presets_dir, out_dir)
    elif workload == "cli-map":
        ops = _map_ops(seed, out_dir)
    elif workload == "lib-sweeps":
        ops = _lib_ops(seed)
    else:
        raise KeyError(f"unknown workload {workload!r}")
    (out_dir / "ops.json").write_text(json.dumps(ops, indent=1) + "\n", encoding="utf-8")
    return ops


def cycle_order(seed: int, cycle: int, n: int) -> list[int]:
    """Seeded permutation of the op pool for one cycle (cli-cold mix)."""
    return random.Random(seed * 1_000_003 + cycle).sample(range(n), n)
