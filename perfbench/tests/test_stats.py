"""Self-tests of the benchmark's statistics, names and failure accounting.

    python3 -m pytest perfbench/tests
"""

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("pct", sorted({p for p, _ in spec.WORKLOADS.values()}))
def test_tail_and_p50_come_from_one_sample_set(pct):
    rng = random.Random(pct)
    for n in range(10, 400, 7):
        # heavy right tail, ties, and a few fast outliers
        samples = [rng.lognormvariate(0.0, 0.6) for _ in range(n)] + [0.01] * (n % 3)
        if not stats.enough_samples(len(samples), pct):
            with pytest.raises(ValueError):
                stats.p50_and_tail(samples, pct)
            continue
        p50, tail = stats.p50_and_tail(samples, pct)
        assert p50 == statistics.median(samples)
        assert tail in samples
        assert tail >= p50


@pytest.mark.parametrize("pct", [50, 75, 80, 90, 95, 99])
def test_tail_percentile_leaves_ten_samples_beyond(pct):
    for n in range(1, 2000):
        samples = list(range(n))  # distinct values: "beyond" is unambiguous
        if stats.enough_samples(n, pct):
            _, tail = stats.p50_and_tail(samples, pct)
            assert sum(v > tail for v in samples) >= stats.MIN_BEYOND
            assert tail >= pct / 100.0 * n - 1  # it is the pct-th percentile
        else:
            assert stats.beyond(n, pct) < stats.MIN_BEYOND


def test_every_name_and_unit_is_well_formed():
    names = list(spec.WORKLOADS) + list(spec.END_TO_END) + list(spec.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    units = [u for u, *_ in spec.END_TO_END.values()] + [u for u, _ in spec.PER_LAYER.values()]
    for unit in units:
        assert len(unit) <= 16 and all(c.isalnum() or c in "_/%.-" for c in unit), unit


def test_benchmark_json_is_written_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark_json()
    assert 2 <= len(committed["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert str(spec.HOLDOUT_SEED) in committed["workloads"][0]["why"]


def test_self_time_subtracts_the_union_of_children():
    # parent 0..100 with two overlapping children (thread pool) and one nested
    records = [
        [0, "parent", 0, 100, None, 0, {}],
        [1, "child", 10, 40, 0, 0, {}],
        [2, "child", 30, 60, 0, 0, {}],
        [3, "leaf", 35, 45, 2, 0, {}],
    ]
    own = spans.self_times(records)
    assert own == {0: 50, 1: 30, 2: 20, 3: 10}
    assert spans.aggregate(records)["child"] == {"calls": 2, "self_ns": 50, "wall_ns": 60}


def test_scipy_share_counts_outermost_scipy_imports_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |       numpy.core",
        "import time:        20 |         20 |     scipy._lib",
        "import time:       100 |        170 |   scipy.constants",
        "import time:        30 |        200 | ospring.params",
        "import time:        40 |         40 |   scipy.optimize",
        "import time:        10 |        250 | ospring",
    ])
    assert run.scipy_import_us(log) == 170 + 40


MAP_CFG = """[physical]
wavelength_nm = 1064
input_power_mw = 200
arm_length_m = 0.05
half_arm_m = 0.027
sr_distance_m = 0.01
membrane_power_reflectivity = 0.17
sr_power_transmissivity = 3e-4
dark_port_index = 3
offset_xi_lambda0 = 0.0
detuning_over_gamma = 0.0
mech_freq_hz = 133000

[sweep]
variable = detuning_over_gamma
start = -3
stop = 3
points = 4

[sweep2]
variable = offset_xi_lambda0
start = -0.01
stop = 0.01
points = 3
"""


def test_fault_injected_op_counts_in_failed_frac(tmp_path):
    import ospring.cli

    (tmp_path / "good.cfg").write_text(MAP_CFG, encoding="utf-8")
    (tmp_path / "bad.cfg").write_text("[physical]\nwavelength_nm = 1064\nwavelength_nm = 1\n",
                                      encoding="utf-8")
    pool = [{"kind": "map", "cfg": "good.cfg", "rows": 12, "format": "csv"},
            {"kind": "map", "cfg": "bad.cfg", "rows": 12, "format": "csv"}]
    result = worker.timed_loop(worker.MapOps(ospring, pool, tmp_path), 0.0, 50)
    timed = len(result["samples_ms"])
    assert result["attempted"] == worker.WARMUP_OPS + timed
    bad = [f for f in result["failures"] if "bad.cfg" in f]
    assert bad and all("exit code 1" in f for f in bad)
    assert len(result["failures"]) == len(bad) == result["attempted"] // 2
    assert result["points"] == 12 * timed // 2  # only the good op emits rows


def test_fault_injected_cold_op_counts_as_attempted_and_failed(tmp_path):
    (tmp_path / "inputs").mkdir()
    (tmp_path / "inputs" / "bad.cfg").write_text("no section header\n", encoding="utf-8")
    op = {"kind": "variant", "preset": "fig2c", "subcommand": "backaction",
          "method": "narrowband", "format": "csv", "cfg": "bad.cfg"}
    client = run.ColdClient(tmp_path, [op])
    _, rows = client.run(0, "op 0")
    assert (client.attempted, len(client.failures), rows) == (1, 1, 0)
    assert "exit code 1" in client.failures[0]
