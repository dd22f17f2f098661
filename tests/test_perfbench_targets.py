"""The layer tracer of ``perfbench`` wraps ospring entry points by name and
reads some of their arguments by position.  A deletion or a signature change
in the package must not break ``perfbench/run.py --trace 1`` unnoticed."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# positional arguments the tracer's counters read (perfbench/spans.py PREPARE)
COUNTED_ARGUMENTS = {
    ("cavity", "resonance_denominator"): {1: "omega"},
    ("backaction", "kernel_exact"): {1: "omega"},
    ("noise", "back_action_spectrum"): {1: "omega"},
    ("backaction", "kernel_narrowband"): {5: "omega", 6: "detuning"},
    ("stability", "regime_map"): {2: "offsets"},
    ("cli", "_emit_table"): {0: "header", 1: "columns"},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(f"ospring.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_trace_targets_resolve():
    spans = _load_spans()
    assert ("runconfig", "RunConfig.interferometer") in spans.TARGETS
    for module_name, attr in spans.TARGETS + spans.COUNTED:
        assert callable(_resolve(module_name, attr)), f"ospring.{module_name}.{attr}"
    assert callable(_resolve("cli", "_write_text"))
    assert callable(_resolve("cavity", "warnings").warn)
    for (module_name, attr), positions in COUNTED_ARGUMENTS.items():
        names = list(inspect.signature(_resolve(module_name, attr)).parameters)
        for index, name in positions.items():
            assert names[index] == name, f"ospring.{module_name}.{attr} argument {index}"
