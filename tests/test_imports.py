"""Every name a library module imports is used in it (``__init__.py``,
which imports to re-export, is left out)."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).parent.parent / "src" / "fcone"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it never reads,
    quoted annotations included; ``from __future__`` is left out."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_finds_a_leftover_import():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from .exactlin import parse_rational, primitive as prim\n"
              "def f(x: 'Fraction') -> 'os.PathLike':\n    return parse_rational(x)\n")
    assert unused_imports(source) == ["json", "prim"]


def test_the_guard_sees_every_library_module():
    assert {p.name for p in MODULES} >= {"cli.py", "cones.py", "covers.py", "eigenforms.py",
                                         "exactlin.py", "moduli.py", "tables.py"}
