"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "satkg"


def _imported_top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_the_stdlib_and_satkg():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in _imported_top_level_names(path)
        if name != "satkg" and name not in sys.stdlib_module_names
    }
    assert not outside
