"""Self-tests of the output checks and of the per-child process accounting.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from ospring.noise import NoiseSpectrum  # noqa: E402


def _lib_result(laser=(1.0, 2.0, 1.0), detector=(0.5, 0.5, 0.5)):
    laser, detector = np.array(laser), np.array(detector)
    verdicts = np.array([True, False, True])
    return {
        "kernel": np.array([1 + 1j, 2 - 1j]),
        "detuning_kernel": np.array([0.5 + 0.1j]),
        "spectrum": NoiseSpectrum(np.array([-1.0, 0.0, 1.0]), laser + detector, laser,
                                  detector),
        "report": SimpleNamespace(rh_verdicts=verdicts, root_verdicts=verdicts.copy(),
                                  spring=np.ones(3), damping=np.ones(3)),
    }


def test_lib_check_passes_a_right_result():
    assert checks.check_lib_op(_lib_result()) is None


@pytest.mark.parametrize("part", ["laser", "detector"])
def test_lib_check_fails_a_nan_spectrum(part):
    # NaN compares false with everything, so closure and sign tests alone pass it
    values = {"laser": (1.0, 2.0, 1.0), "detector": (0.5, 0.5, 0.5)}
    values[part] = (1.0, np.nan, 1.0)
    assert checks.check_lib_op(_lib_result(**values)) == "non-finite spectrum"


def test_lib_check_fails_a_broken_closure_and_differing_verdicts():
    result = _lib_result()
    result["spectrum"].total[1] *= 1.0 + 1e-9
    assert "closure" in checks.check_lib_op(result)
    result = _lib_result()
    result["report"].root_verdicts[0] = False
    assert "verdicts differ at 1" in checks.check_lib_op(result)


def test_wait_child_reports_the_childs_own_peak_rss():
    # Linux starts a child's ru_maxrss at the RSS of the process that started
    # it, so the children are started from a small interpreter like run.py,
    # not from this test process, which holds numpy and ospring.
    grow = "b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096])"
    script = f"""
import sys
import run
small = run.subprocess.Popen([sys.executable, "-c", "pass"])
print(*run.wait_child(small, 60))
big = run.subprocess.Popen([sys.executable, "-c", {grow!r}])
print(*run.wait_child(big, 60))
"""
    proc = run.subprocess.run([sys.executable, "-c", script], cwd=HERE, capture_output=True,
                              text=True, timeout=120, check=True)
    (rc_small, rss_small), (rc_big, rss_big) = [
        line.split() for line in proc.stdout.splitlines()]
    assert (rc_small, rc_big) == ("0", "0")
    assert float(rss_big) - float(rss_small) > 50  # MiB: the big child touched 64


def test_wait_child_kills_a_child_past_its_timeout():
    proc = run.subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    rc, _ = run.wait_child(proc, 0.2)
    assert rc < 0
