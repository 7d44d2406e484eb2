"""The rule that no module imports another module's private helpers: an
``ast`` scan of every Python file of the package, its tests, its scripts and
the benchmark harness (``perfbench/``) for ``from tbma[.<module>] import
_name`` (and, inside the package, the relative form ``from .<module> import
_name``).  Dunder names are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src/tbma", "tests", "scripts", "perfbench")
SOURCES = sorted(path for folder in FOLDERS for path in (ROOT / folder).rglob("*.py"))


def private_imports(source: str):
    """(line, name) of each private name ``source`` imports from tbma."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "tbma":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield node.lineno, name


def test_no_module_imports_a_private_tbma_name():
    assert {path.parent.name for path in SOURCES} >= {"tbma", "tests", "scripts", "perfbench"}
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in private_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, found


def test_the_scan_sees_every_import_form():
    source = (
        "from tbma.conditionals import TAIL_SWITCH, _std_trunc_lower\n"
        "from tbma import (\n    __version__,\n    _private,\n)\n"
        "from .core import _frozen_array\n"
        "from numpy import _globals\n"
    )
    assert list(private_imports(source)) == [(1, "_std_trunc_lower"), (2, "_private"), (6, "_frozen_array")]
