"""Package structure: a pufstat module uses only the public names of another."""

import ast
from pathlib import Path

import pufstat

SOURCES = sorted(Path(pufstat.__file__).parent.glob("*.py"))


def _private_imports(source: str) -> list[tuple[str, str]]:
    """``(module, name)`` for each underscore name that ``source`` imports from
    a pufstat module, ``from .x import _name`` or ``from pufstat.x import
    _name``. Dunder names such as ``__version__`` are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level or module.split(".")[0] == "pufstat":
            found += [(module, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_another_modules_private_names():
    assert len(SOURCES) > 10
    private = {path.name: _private_imports(path.read_text(encoding="utf-8"))
               for path in SOURCES}
    assert {name: names for name, names in private.items() if names} == {}


def test_private_import_check_sees_every_form():
    source = (
        "from . import __version__, _cpus\n"
        "from .output import format_table, _columns\n"
        "from pufstat.decimals import _E8 as e8\n"
        "from numpy import _core\n"
        "def f():\n"
        "    from ..x.y import _z\n"
    )
    assert _private_imports(source) == [(".", "_cpus"), (".output", "_columns"),
                                        ("pufstat.decimals", "_E8"), ("..x.y", "_z")]


def test_only_matrices_raises_the_matrix_shape_error():
    # The rule that an analysis input is a 2-D matrix has one owner,
    # matrices.as_matrix.
    raisers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and "2-dimensional" in ast.unparse(node):
                raisers.add(path.name)
    assert raisers == {"matrices.py"}
