"""Seed determinism of the generated inputs.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
PRESETS = HERE.parent / "src" / "ospring" / "presets"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spec  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    a = inputs.generate(workload, 11, PRESETS, tmp_path / "a")
    b = inputs.generate(workload, 11, PRESETS, tmp_path / "b")
    inputs.generate(workload, 12, PRESETS, tmp_path / "c")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    files_a, files_c = _files(tmp_path / "a"), _files(tmp_path / "c")
    assert files_a.keys() == files_c.keys()  # same shapes of work ...
    assert files_a != files_c                # ... on other numbers


def test_cold_pool_holds_the_fixed_mix(tmp_path):
    pool = inputs.generate("cli-cold", 3, PRESETS, tmp_path)
    kinds = [(op["kind"], op["preset"], op["subcommand"]) for op in pool]
    assert sorted(k for k in kinds if k[0] == "preset") == sorted(
        ("preset", name, sub) for name, (sub, _) in inputs.PRESET_RUNS.items())
    assert sum(k[0] == "variant" for k in kinds) == len(inputs.PRESET_RUNS)
    assert sorted(k[2] for k in kinds if k[0] == "fig2d") == sorted(inputs.FIG2D_SUBCOMMANDS)
    assert sum(op["format"] == "json" for op in pool) == inputs.JSON_VARIANTS
    # presets are copied byte for byte; variants keep the sweep sections
    for op in pool:
        text = (tmp_path / op["cfg"]).read_text(encoding="utf-8")
        preset = (PRESETS / f"{op['preset']}.cfg").read_text(encoding="utf-8")
        if op["kind"] != "variant":
            assert text == preset
        else:
            assert text != preset
            assert text[text.index("[sweep]"):] == preset[preset.index("[sweep]"):]


def test_cycle_order_is_a_seeded_permutation():
    assert inputs.cycle_order(5, 1, 20) == inputs.cycle_order(5, 1, 20)
    assert sorted(inputs.cycle_order(5, 1, 20)) == list(range(20))
    assert inputs.cycle_order(5, 1, 20) != inputs.cycle_order(5, 2, 20)
    assert inputs.cycle_order(5, 1, 20) != inputs.cycle_order(6, 1, 20)
