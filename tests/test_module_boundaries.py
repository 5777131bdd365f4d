"""No leaklab module reads another's private names.

A name with a leading underscore belongs to its module: another module
that needs it asks for a public name instead (``lang.as_bool``, not
``lang._as_bool``).  The scan reads each module's source: every
``module._name`` attribute on a name bound to a leaklab module, and every
``_name`` imported from one.  Attributes of other objects
(``program._control_table``) and dunder names are not reads of a module's
private name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import leaklab

PACKAGE = Path(leaklab.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str, own: str) -> list[str]:
    """``module._name`` for each private name of another leaklab module
    that ``source``, the text of module ``own``, reads."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # bound name -> leaklab module
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None or node.module == "leaklab"
            module = (node.module if node.level == 1 else
                      node.module[len("leaklab."):] if (node.module or "").startswith("leaklab.")
                      else None)
            for alias in node.names:
                if package:
                    modules[alias.asname or alias.name] = alias.name
                elif module is not None and _private(alias.name):
                    reads.append(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("leaklab.") and alias.asname:
                    modules[alias.asname] = alias.name[len("leaklab."):]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)
                and modules[node.value.id] != own):
            reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    found = {path.name: private_reads(path.read_text(encoding="utf-8"), path.stem)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "explorer.py" in found and "semantics.py" in found
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_the_scan_sees_each_form_of_read():
    source = ("from . import explorer, lang as L\n"
              "from .semantics import _REGION, step\n"
              "import leaklab.proofs as P\n"
              "def f(program):\n"
              "    explorer._class_of(program, {})\n"
              "    program._control_table, L.__name__, L.as_bool, P._walk\n"
              "    return L._as_bool\n")
    assert sorted(private_reads(source, "assertions")) == [
        "explorer._class_of", "lang._as_bool", "proofs._walk", "semantics._REGION"]
    assert private_reads("from . import lang\nlang._own\n", "lang") == []
