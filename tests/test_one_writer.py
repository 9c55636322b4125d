"""Only ``dataset`` writes files.

Every artifact goes through ``dataset.write_table``, ``dataset.write_json``
or ``dataset.staged``, so its format and its replace-when-complete step
live in one module.  The check is syntactic: outside ``dataset.py`` no
module of the package may call ``open`` (or ``X.open``) with a mode that
writes, appends or creates, ``json.dump``, or ``write_text`` /
``write_bytes``.  The mode is a string literal among the first two
positional arguments (``open(path, mode)``, ``path.open(mode)``) or the
``mode`` keyword.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "expertmap"
WRITER = "dataset.py"


def _opens_for_writing(call: ast.Call) -> bool:
    modes = call.args[:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and re.fullmatch("[rwxabt+]+", m.value) and re.search("[wax+]", m.value)
               for m in modes)


def file_writes(path: Path) -> list[str]:
    """``path:line call`` for every call in ``path`` that writes a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value.id if isinstance(func, ast.Attribute) \
            and isinstance(func.value, ast.Name) else None
        if (name == "open" and _opens_for_writing(node)
                or name == "dump" and owner in ("json", None)
                or name in ("write_text", "write_bytes")):
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_only_dataset_writes_files():
    found = [hit for path in sorted(LIBRARY.glob("*.py")) if path.name != WRITER
             for hit in file_writes(path)]
    assert not found, f"file writes outside {WRITER}: {found}"


def test_the_check_sees_each_kind_of_write(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import json\n"
                      "open(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')\n"
                      "open(p, 'w')\nopen(p, mode='ab')\np.open('r+')\n"
                      "json.dump(x, fh)\njson.dumps(x)\np.write_text(s)\n")
    assert file_writes(module) == ["probe.py:5 open", "probe.py:6 open", "probe.py:7 open",
                                   "probe.py:8 dump", "probe.py:10 write_text"]
