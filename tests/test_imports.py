"""Every name a module imports is used in that module.

No linter is a dependency, so this walks the syntax trees with `ast`.
`__init__.py` is skipped: its imports are the package's public surface.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "mucofix"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom x import a, b as c\nimport p.q\n\nprint(a, p.q)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
