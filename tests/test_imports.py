"""Every name a module imports is used in that module, every
module-level private name is used somewhere in the package, and no
module reads the process environment.

No linter is a dependency, so this walks the syntax trees with `ast`.
`__init__.py` is skipped for imports: they are the package's public
surface.
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


def private_definitions(source: str) -> dict[str, int]:
    'Module-level private names (one leading underscore, not dunder) and their lines.'
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def referenced_names(source: str) -> set[str]:
    'Names read, attributes taken, and names imported anywhere in the source.'
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    used = set().union(*(referenced_names(text) for text in sources.values()))
    return [f"{module}: {name} (line {line})" for module, text in sources.items()
            for name, line in private_definitions(text).items() if name not in used]


def test_the_check_sees_an_unreferenced_private_name():
    sources = {"a.py": "_A = 1\n_B = 2\ndef _helper():\n    return _A\n",
               "b.py": "from a import _B\nclass _Unused:\n    pass\n"}
    assert unreferenced_privates(sources) == ["a.py: _helper (line 3)",
                                              "b.py: _Unused (line 2)"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Every read of the process environment: an attribute such as
    os.environ or os.getenv, under any alias of os, or one of those names
    imported from os. Settings come in through arguments, so a size cap
    or a mode cannot change behind a caller's back."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in ENVIRONMENT_NAMES)
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_check_sees_an_environment_read():
    source = ("import os\nimport os as o\nfrom os import getenv, path\n"
              "a = os.environ.get('X')\nb = o.getenv('Y')\nc = os.path.join('p')\n")
    assert environment_reads(source) == ["getenv (line 3)", "environ (line 4)",
                                         "getenv (line 5)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []
