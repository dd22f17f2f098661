"""The README documents the package as it is: its export table names every
public name of ``import ospring``, and its Python examples run."""

import re
import types
from pathlib import Path

import ospring

README = Path(__file__).resolve().parents[1] / "README.md"


def test_export_table_matches_package():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("`import ospring` exports:"):]
    documented = []
    for line in table.splitlines()[4:]:  # the rows after the header and its rule
        if not line.startswith("|"):
            break
        documented += re.findall(r"`(\w+)`", line.split("|")[2])
    exported = [
        name for name, value in vars(ospring).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(documented) == len(set(documented))
    assert sorted(documented) == sorted(exported)


def test_python_examples_run_as_one_script():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    exec(compile("\n".join(blocks), str(README), "exec"), {"__name__": "readme"})
