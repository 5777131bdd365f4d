"""No leaklab module reads another's private names, and one interprets steps.

A name with a leading underscore belongs to its module: another module
that needs it asks for a public name instead (``lang.as_bool``, not
``lang._as_bool``).  The scan reads each module's source: every
``module._name`` attribute on a name bound to a leaklab module, and every
``_name`` imported from one.  Attributes of other objects
(``program._control_table``) and dunder names are not reads of a module's
private name.

``semantics`` is also the one interpreter of steps: no other module calls
``semantics.step`` or ``semantics.enabled`` or builds a
``semantics.Configuration`` or ``semantics.StepChoice``, in any of the
forms the scan of imports above binds, so every analysis steps through the
move table.  Nor does another module call
``semantics.initial_configuration``: a walk starts from the control table.
And ``explorer`` alone starts a search, from one function: another module
that needs one asks ``explorer.kept_search``, and so does every function
of ``explorer`` itself, ``explore`` included, so each search runs once per
program and is kept.  The scan names the function that holds each call of
``search``.

``lang`` imports no leaklab module but ``errors``: a program's static
facts (its locations, its domains) need no other module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import leaklab

PACKAGE = Path(leaklab.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def bindings(tree: ast.AST) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """The names a module binds to leaklab modules (name -> module), and
    those it imports from one (name -> (module, imported name))."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and node.module is None or node.module == "leaklab"
            module = (node.module if node.level == 1 else
                      node.module[len("leaklab."):] if (node.module or "").startswith("leaklab.")
                      else None)
            for alias in node.names:
                if package:
                    modules[alias.asname or alias.name] = alias.name
                elif module is not None:
                    names[alias.asname or alias.name] = (module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("leaklab.") and alias.asname:
                    modules[alias.asname] = alias.name[len("leaklab."):]
    return modules, names


def private_reads(source: str, own: str) -> list[str]:
    """``module._name`` for each private name of another leaklab module
    that ``source``, the text of module ``own``, reads."""
    tree = ast.parse(source)
    modules, names = bindings(tree)
    reads = [f"{module}.{name}" for module, name in names.values() if _private(name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)
                and modules[node.value.id] != own):
            reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


INTERPRETER = {("semantics", "step"), ("semantics", "enabled"), ("semantics", "Configuration"),
               ("semantics", "StepChoice")}
SEARCH = {("explorer", "search")}


def interpreter_calls(source: str, own: str, watched: set = INTERPRETER) -> list[str]:
    """``module.name`` for each call in ``source``, the text of module
    ``own``, of a name in ``watched`` (by default ``INTERPRETER``) that
    another module defines."""
    tree = ast.parse(source)
    modules, names = bindings(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            called = (modules[func.value.id], func.attr)
        elif isinstance(func, ast.Name) and func.id in names:
            called = names[func.id]
        else:
            continue
        if called in watched and called[0] != own:
            calls.append(".".join(called))
    return calls


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


def test_only_semantics_steps_or_builds_a_configuration():
    found = {path.name: interpreter_calls(path.read_text(encoding="utf-8"), path.stem)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "explorer.py" in found and "semantics.py" in found
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_only_semantics_builds_an_initial_configuration():
    start = {("semantics", "initial_configuration")}
    found = {path.name: interpreter_calls(path.read_text(encoding="utf-8"), path.stem, start)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "explorer.py" in found and "semantics.py" in found
    assert {name: calls for name, calls in found.items() if calls} == {}


def imported_modules(source: str) -> set[str]:
    """The leaklab modules that ``source`` imports, in any form."""
    modules, names = bindings(ast.parse(source))
    return set(modules.values()) | {module for module, _ in names.values()}


def test_lang_imports_only_errors():
    assert imported_modules((PACKAGE / "lang.py").read_text(encoding="utf-8")) == {"errors"}


def test_the_import_scan_sees_each_form_of_import():
    source = ("from .errors import ParseError\n"
              "from . import lattice\n"
              "import leaklab.proofs as P\n"
              "def labels(program):\n"
              "    from .semantics import control_table\n")
    assert imported_modules(source) == {"errors", "lattice", "proofs", "semantics"}


def test_the_interpreter_scan_sees_each_form_of_call():
    source = ("from . import semantics\n"
              "from .semantics import step as advance, Configuration, enabled, StepChoice\n"
              "import leaklab.semantics as S\n"
              "def f(program, config, choice):\n"
              "    semantics.step(program, config, choice)\n"
              "    advance(program, config, choice)\n"
              "    S.Configuration((), (), 0, (), ())\n"
              "    Configuration((), (), 0, (), ())\n"
              "    semantics.enabled(program, config), enabled(program, config)\n"
              "    S.StepChoice(0), StepChoice(1)\n"
              "    semantics.move(program, 0, 1, (), None), semantics.step, S.enabled\n")
    assert sorted(interpreter_calls(source, "explorer")) == [
        "semantics.Configuration", "semantics.Configuration", "semantics.StepChoice",
        "semantics.StepChoice", "semantics.enabled", "semantics.enabled",
        "semantics.step", "semantics.step"]
    assert interpreter_calls(source, "semantics") == []


def test_only_explorer_starts_a_search():
    found = {path.name: interpreter_calls(path.read_text(encoding="utf-8"), path.stem, SEARCH)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "assertions.py" in found and "explorer.py" in found
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_the_search_scan_sees_each_form_of_call():
    source = ("from . import explorer as E\n"
              "from .explorer import search as walk\n"
              "def f(program, store, bounds, costs):\n"
              "    E.search(program, store, bounds, costs, frozenset(), print)\n"
              "    walk(program, store, bounds, costs, frozenset(), print)\n"
              "    E.kept_search(program, store, bounds, costs, frozenset()), E.search\n")
    assert interpreter_calls(source, "assertions", SEARCH) == ["explorer.search"] * 2
    assert interpreter_calls(source, "explorer", SEARCH) == []


def search_holders(source: str) -> list[str]:
    """The name of the innermost function that holds each call of
    ``search`` in ``source``, the text of ``explorer``, or ``<module>``."""
    holders = []

    def scan(node: ast.AST, holder: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scan(child, getattr(child, "name", "<lambda>"))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "search"):
                holders.append(holder)
            scan(child, holder)

    scan(ast.parse(source), "<module>")
    return holders


def test_inside_explorer_only_kept_search_calls_search():
    source = (PACKAGE / "explorer.py").read_text(encoding="utf-8")
    assert search_holders(source) == ["kept_search"]


def test_the_holder_scan_names_each_holder():
    source = ("def search(program): pass\n"
              "search(None)\n"
              "def kept_search(program):\n"
              "    def collect(key): search(key)\n"
              "    return search(program), search\n"
              "def explore(program):\n"
              "    return [search(p) for p in program], (lambda: search(program))()\n")
    assert search_holders(source) == [
        "<module>", "collect", "kept_search", "explore", "<lambda>"]
