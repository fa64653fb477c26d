"""Cross-file contracts the code cannot check on its own.

- Every ``(module, attribute)`` that ``perfbench/layers.py`` wraps must
  exist, or ``perfbench/run.py --trace 1`` breaks on the next rename.
- Every ``REPRO_*`` environment variable the package reads must have a
  row in a README/DESIGN knob table, and every row must name a variable
  the package still reads.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: A whole environment-variable name (not a prefix such as
#: ``"REPRO_SERVE_"``).
_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


def _perfbench_layers() -> dict:
    # Executed from its source so no bytecode cache lands in perfbench/.
    path = ROOT / "perfbench" / "layers.py"
    namespace = {"__name__": "perfbench_layers"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_perfbench_layer_entry_resolves():
    missing = []
    for layer, entries in _perfbench_layers().items():
        for module_name, attr in entries:
            module = importlib.import_module(module_name)
            if "." in attr:
                # layers.install patches the method on the class itself.
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and callable(
                    vars(cls).get(meth)
                )
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{layer}: {module_name}.{attr}")
    assert not missing, missing


def _env_names_read() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _ENV_NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _env_names_documented() -> set[str]:
    names = set()
    for doc in ("README.md", "DESIGN.md"):
        for line in (ROOT / doc).read_text().splitlines():
            if not line.startswith("|"):
                continue
            first_cell = line.split("|")[1]
            names.update(
                m.group(0)
                for m in re.finditer(r"REPRO_[A-Z0-9_]+", first_cell)
                if _ENV_NAME.fullmatch(m.group(0))
            )
    return names


def test_env_knob_tables_match_the_variables_read():
    read = _env_names_read()
    documented = _env_names_documented()
    assert read - documented == set(), "read but not in a knob table"
    assert documented - read == set(), "in a knob table but never read"
