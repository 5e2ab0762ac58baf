"""Every name a module imports is used in that module, every
module-level private name is used somewhere in the package, every
exception class the package defines can be raised, no module reads
the process environment, the Tarski oracle folds take nothing from
the point-classification kernels or numpy that they are meant to check,
in lattice.py only the order checks square an order, only compose casts
to float32 and no hashed bound proposer is left, no lattice builder
names a dtype wider than a bound table's but where it makes edges or
masks, no two exported dataclasses share a field list, the names
that only repeated others stay gone, in textio.py only the witness
helpers and the emitters loop in Python, and in verifier.py only the
per-shape helper builds a mask_lattice.

No linter is a dependency, so this walks the syntax trees with `ast`.
`__init__.py` is skipped for imports: they are the package's public
surface.
"""
import ast
import builtins
import re
from pathlib import Path

import pytest

import mucofix

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


def raised_name(node: ast.Raise):
    'The class or function name a raise statement names, or None for a bare raise.'
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    return exc.attr if isinstance(exc, ast.Attribute) else None


def dead_exceptions(sources: dict[str, str]) -> list[str]:
    """Exception classes that are neither raised anywhere in the sources
    nor the base, at any depth, of one that is."""
    classes, raised = {}, set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))]
                classes[node.name] = (module, node.lineno, bases)
            elif isinstance(node, ast.Raise):
                raised.add(raised_name(node))

    def is_exception(name):
        if name in classes:
            return any(is_exception(b) for b in classes[name][2])
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    live = set()
    todo = [name for name in raised if name in classes]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(b for b in classes[name][2] if b in classes)
    return [f"{module}: {name} (line {line})" for name, (module, line, _) in classes.items()
            if is_exception(name) and name not in live]


def test_the_check_sees_a_dead_exception_class():
    sources = {"a.py": ("class Base(Exception):\n    pass\nclass Used(Base):\n    pass\n"
                        "class Dead(ValueError):\n    pass\nclass Plain:\n    pass\n"),
               "b.py": ("import a\nclass Unraised(a.Used):\n    pass\nclass Late(Base):\n"
                        "    pass\ndef f():\n    raise a.Used('x')\n")}
    assert dead_exceptions(sources) == ["a.py: Dead (line 5)", "b.py: Unraised (line 2)",
                                        "b.py: Late (line 4)"]


def test_every_exception_class_is_raised():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_exceptions(sources) == []


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


ROOT = SRC.parent.parent


def public_names(init_source: str) -> list[str]:
    'The names the package imports into its namespace, which its __all__ exports.'
    return [alias.asname or alias.name for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def readme_names(text: str) -> set[str]:
    'Identifiers inside the inline code spans and code blocks of a markdown text.'
    return {name for span in re.findall(r"`+([^`]+)`+", text)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def unused_exports(init_source: str, sources: dict[str, str], readme: str) -> list[str]:
    """Exported names that no source reads, imports or names in a string
    constant (the benchmark patches functions by name), and that the
    README does not show as code."""
    used = readme_names(readme)
    for text in sources.values():
        used |= referenced_names(text)
        used |= {node.value for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [name for name in public_names(init_source) if name not in used]


def test_the_check_sees_an_unused_export():
    init = "from .a import (used, patched, shown, hidden)\nfrom .b import Alone as Alias\n"
    sources = {"a.py": "def used():\n    pass\n\ndef hidden():\n    return 1\n",
               "c.py": "from .a import used\nHOOKS = [('a', 'patched')]\nprint('hidden here')\n"}
    readme = "Call `shown(x)` as a library.\n\n```python\nfrom pkg import Alias\n```\n"
    assert unused_exports(init, sources, readme) == ["hidden"]
    assert unused_exports(init, sources, "") == ["shown", "hidden", "Alias"]


def test_every_export_has_a_caller_or_a_readme_mention():
    sources = {str(p): p.read_text() for p in sorted(SRC.glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py")) if p.name != "__init__.py"}
    init = (SRC / "__init__.py").read_text()
    assert unused_exports(init, sources, (ROOT / "README.md").read_text()) == []


ORACLE_FOLDS = ("_tarski_meet", "lsfp_tarski_oracle", "gsfp_tarski_oracle")


def oracle_leaks(source: str, roots=ORACLE_FOLDS) -> list[str]:
    """What the Tarski folds take from the code they check: any name
    imported from simpoints but PairPoint, and any call of a numpy
    function. The roots are checked together with every module-level
    function or class they name, at any depth, so a helper cannot carry
    a kernel in. Methods of arrays, such as tolist, are not numpy calls."""
    tree = ast.parse(source)
    # names bound to simpoints members, to the simpoints module, and to numpy
    # or its members (for numpy the two kinds are flagged alike)
    simpoints, modules, numpy = set(), set(), {"np", "numpy"}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        origin = (node.module or "").split(".")[-1] if isinstance(node, ast.ImportFrom) else ""
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[-1]
            if origin == "simpoints":
                simpoints.add(bound)
            elif "numpy" in (origin, alias.name):
                numpy.add(bound)
            elif alias.name.split(".")[-1] == "simpoints":
                modules.add(bound)
    simpoints.discard("PairPoint")
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo, seen, found = list(roots), set(), []
    while todo:
        name = todo.pop(0)
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
            if isinstance(node, ast.Name) and node.id in simpoints:
                found.append(f"{name}: {node.id} (line {node.lineno})")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr != "PairPoint"):
                found.append(f"{name}: {node.value.id}.{node.attr} (line {node.lineno})")
            elif isinstance(node, ast.Call):
                root = node.func
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in numpy:
                    found.append(f"{name}: call of {ast.unparse(node.func)} (line {node.lineno})")
    return found


def test_the_check_sees_an_oracle_leak():
    source = ("import numpy as np\nfrom . import simpoints as sp\n"
              "from .simpoints import PairPoint, component_sets\n"
              "def _fold(mp):\n    rows = mp.leq[0].tolist()\n    return PairPoint(0, 0)\n"
              "def _helper(mp):\n    return component_sets(mp)\n"
              "def oracle(mp):\n    _fold(mp)\n    np.asarray(mp.f)\n    _helper(mp)\n"
              "    return sp.PairPoint(0, sp.fibers(mp))\n"
              "def unchecked(mp):\n    return np.linalg.norm(component_sets(mp))\n")
    assert oracle_leaks(source, ("oracle",)) == [
        "oracle: call of np.asarray (line 11)", "oracle: sp.fibers (line 13)",
        "_helper: component_sets (line 8)"]
    assert oracle_leaks(source, ("unchecked",)) == [
        "unchecked: call of np.linalg.norm (line 15)", "unchecked: component_sets (line 15)"]


def test_the_tarski_folds_share_no_code_with_simpoints():
    assert oracle_leaks((SRC / "solvers.py").read_text()) == []


COMPOSE_READERS = ("transitivity_gap", "cover_edges")


def name_reads(source: str, name: str, allowed) -> list[str]:
    """Every read of name outside the module-level functions allowed to
    read it. A call, an alias or an attribute of a module all count."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "module")
        if owner in allowed:
            continue
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == name
                 and isinstance(node.ctx, ast.Load))
                    or (isinstance(node, ast.Attribute) and node.attr == name)):
                found.append(f"{owner}: {name} (line {node.lineno})")
    return found


def test_the_check_sees_a_squaring_fallback():
    source = ("def compose(a, b):\n    return a @ b\n"
              "def transitivity_gap(leq):\n    return compose(leq, leq)\n"
              "def closure(rel):\n    while True:\n        rel = rel | compose(rel, rel)\n"
              "square = compose\n"
              "class Poset:\n    def close(self, lattice):\n        return lattice.compose(1, 2)\n")
    assert name_reads(source, "compose", COMPOSE_READERS) == [
        "closure: compose (line 7)", "module: compose (line 8)", "Poset: compose (line 11)"]


def test_only_the_order_checks_compose_in_lattice():
    # closing an order cannot fall back to squaring: closure is one linear
    # walk for cyclic and acyclic relations alike
    assert name_reads((SRC / "lattice.py").read_text(), "compose", COMPOSE_READERS) == []


def test_one_bound_search_builds_joins_and_no_table_is_a_callable():
    # a meet table is the join table of the transposed order, so the search
    # takes the order alone; a table not yet built is None, not a function
    # kept under a second name
    source = (SRC / "lattice.py").read_text()
    search = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_bound_search")
    assert [a.arg for a in search.args.args] == ["leq"]
    assert not (search.args.vararg or search.args.kwarg or search.args.kwonlyargs)
    assert "_pending_" not in source


def dtype_names(source: str, dtype: str) -> list[str]:
    """Where source names dtype, as an attribute (np.int32) or a bare
    name, by the qualified name of the innermost enclosing function or
    class ("module" outside any)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner != "module" else child.name)
                continue
            if ((isinstance(child, ast.Attribute) and child.attr == dtype)
                    or (isinstance(child, ast.Name) and child.id == dtype)):
                found.append(f"{owner} (line {child.lineno})")
            visit(child, owner)
    visit(ast.parse(source), "module")
    return found


def test_the_check_sees_a_wide_dtype():
    source = ("import numpy as np\nfrom numpy import int64\nW = np.int32\n"
              "class L:\n    def __post_init__(self):\n        return np.int32\n"
              "def build(n):\n    def inner():\n        return np.zeros(n, int64)\n"
              "    return inner, np.uint64\n")
    assert dtype_names(source, "int32") == ["module (line 3)", "L.__post_init__ (line 6)"]
    assert dtype_names(source, "int64") == ["build.inner (line 9)"]


# the lattice builders that make edges or masks, which stay int32
EDGE_MAKERS = {"FiniteLattice.__post_init__", "powerset_lattice", "mask_lattice"}


@pytest.mark.parametrize("name", ["lattice.py", "fixtures.py"])
def test_no_builder_makes_a_table_wider_than_its_ids(name):
    # _frozen copies a table of another dtype down to int16 without a word,
    # so a wider table would cost a copy and twice the memory unseen
    source = (SRC / name).read_text()
    assert dtype_names(source, "int64") == []
    assert {where.split(" ")[0] for where in dtype_names(source, "int32")} <= EDGE_MAKERS


# the hashed bound proposer and its keys, which the exact bit-row search replaced
HASHED = ("_hash_weights", "_set_keys", "_bound_proposer")


def names_any(source: str, names) -> list[str]:
    'The names that source mentions anywhere, as whole words.'
    return [name for name in names if re.search(rf"\b{name}\b", source)]


def test_the_check_sees_a_float32_order_copy_and_a_hashed_proposer():
    source = ("import numpy as np\ndef compose(a, b):\n    return a.astype(np.float32)\n"
              "def _bound_search(leq):\n    u = leq.astype(np.float32)\n"
              "    return _bound_proposer(u, _set_keys)\n")
    assert dtype_names(source, "float32") == ["compose (line 3)", "_bound_search (line 5)"]
    assert names_any(source, HASHED) == ["_set_keys", "_bound_proposer"]


def test_the_bound_search_keeps_no_float32_order_and_no_hash():
    # a join is the first member of an up-set intersection along a linear
    # extension, read off bit rows and checked by its size, so no bound
    # search hashes a set or casts the order; compose alone counts paths
    source = (SRC / "lattice.py").read_text()
    assert {where.split(" ")[0] for where in dtype_names(source, "float32")} == {"compose"}
    assert names_any(source, HASHED) == []


def dataclass_fields(source: str) -> dict[str, tuple[str, ...]]:
    'The annotated field names, in order, of each module-level class made by dataclass.'
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            deco = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(deco, "id", getattr(deco, "attr", None)) == "dataclass":
                found[node.name] = tuple(item.target.id for item in node.body
                                         if isinstance(item, ast.AnnAssign)
                                         and isinstance(item.target, ast.Name))
    return found


def shared_field_lists(init_source: str, sources: dict[str, str]) -> list[str]:
    """Exported dataclasses with one field list, as "A = B" groups: two
    records of the same fields say one thing twice."""
    exported, groups = set(public_names(init_source)), {}
    for text in sources.values():
        for name, fields in dataclass_fields(text).items():
            if name in exported:
                groups.setdefault(fields, []).append(name)
    return [" = ".join(names) for names in groups.values() if len(names) > 1]


def test_the_check_sees_two_dataclasses_with_one_field_list():
    init = "from .a import Failure, Finding, Report, Point\n"
    record = "    instance: str\n    witness: str\n"
    sources = {"a.py": ("import dataclasses\nfrom dataclasses import dataclass\n"
                        f"@dataclass(frozen=True)\nclass Failure:\n{record}"
                        f"@dataclass\nclass Finding:\n{record}"
                        f"@dataclass\nclass Hidden:\n{record}"
                        f"class Report:\n{record}"
                        "@dataclasses.dataclass\nclass Point:\n    witness: str\n    instance: str\n")}
    assert shared_field_lists(init, sources) == ["Failure = Finding"]


def test_no_two_exported_dataclasses_share_a_field_list():
    sources = {p.name: p.read_text() for p in MODULES}
    assert shared_field_lists((SRC / "__init__.py").read_text(), sources) == []


# a fiber record that repeated its call's arguments, a lemma failure record
# that repeated Finding, a mode parser that only called ContinuityMode, a
# second memo per closed family beside its lattice's, a fallback memo
# beside the pool's, and per-pair witnesses that the block check never read
REMOVED = ("FiberSet", "LemmaFailure", "parse_mode", "_family", "_memo_flat_product",
           "_monotone_failures", "L4_SIZE_CAP", "is_subtype", "is_contained", "_related",
           "_splitmix")


def test_the_removed_duplicates_are_neither_defined_nor_exported():
    for path in sorted(SRC.glob("*.py")):
        assert names_any(path.read_text(), REMOVED) == [], path.name
    assert not set(REMOVED) & set(mucofix.__all__)


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def python_loops(source: str, allowed) -> list[str]:
    """Every for or while loop and every comprehension outside the
    module-level functions allowed to loop, by owner and line."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "module")
        if owner not in allowed:
            found += [f"{owner} (line {line})" for line in sorted(
                node.lineno for node in ast.walk(top) if isinstance(node, LOOPS))]
    return found


def test_the_check_sees_a_python_loop():
    source = ("def parse(pairs):\n    ids = [idx[a] for a, b in pairs]\n"
              "    while ids:\n        ids.pop()\n"
              "def _witness(pairs):\n    for e in pairs:\n        raise ValueError(e)\n"
              "NAMES = {x: i for i, x in enumerate('ab')}\n"
              "def bulk(pairs):\n    return all(map(len, pairs)), sum(len(e) for e in pairs)\n")
    assert python_loops(source, {"_witness"}) == ["parse (line 2)", "parse (line 3)",
                                                 "module (line 8)", "bulk (line 10)"]


# the witness helpers name the first bad order pair or table entry once the
# bulk pass has refused; the emitters write documents rather than read them
TEXTIO_LOOPERS = {"_pair_witness", "_table_witness", "emit_lattice_doc", "emit_pair_doc"}


def test_only_the_witness_helpers_loop_over_what_a_document_lists():
    # a valid document's order pairs and table entries are read by C-level
    # passes (map, all, array), never item by item in Python
    assert python_loops((SRC / "textio.py").read_text(), TEXTIO_LOOPERS) == []


def callers(source: str, name: str) -> list[str]:
    """Every call of name, bare (f(...)) or as an attribute (m.f(...)), by
    the module-level function or class it is in ("module" outside any) and line."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "module")
        found += [f"{owner} (line {node.lineno})" for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return found


def test_the_check_sees_a_call_outside_its_helper():
    source = ("from .lattice import mask_lattice\nimport mucofix.lattice as lattice\n"
              "def _shape(masks):\n    return mask_lattice(masks, masks)\n"
              "def draw(rng):\n    return [lattice.mask_lattice(m, m) for m in rng]\n"
              "FAMILY = mask_lattice\nLAT = mask_lattice([0, 1], 'ab')\n")
    assert callers(source, "mask_lattice") == ["_shape (line 4)", "draw (line 6)",
                                               "module (line 8)"]


def test_only_the_shape_helper_builds_a_mask_lattice_in_the_verifier():
    # a drawn family takes its tables and lists from the one lattice of its
    # order, so a mask_lattice per draw would build them all again unseen
    found = callers((SRC / "verifier.py").read_text(), "mask_lattice")
    assert [where.split(" ")[0] for where in found] == ["_closed_lattice"]


def lru_caches(source: str) -> list[int]:
    'The lines that import or use functools.lru_cache, under any spelling.'
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None))
                   or isinstance(node, ast.ImportFrom)
                   and any(alias.name == "lru_cache" for alias in node.names)})


def test_the_check_sees_a_memo_of_guessed_size():
    source = ("import functools\nfrom functools import cache, lru_cache as memo\n"
              "@functools.lru_cache(maxsize=16)\ndef chain(n):\n    return n\n"
              "@cache\ndef pools():\n    return {}\n"
              "# a comment may name lru_cache\nshapes = memo(maxsize=1)(dict)\n")
    assert lru_caches(source) == [2, 3]


def test_every_memo_in_the_package_is_exact():
    # each memo's keys are bounded by a cap that bounds its inputs (sizes of
    # at most INSTANCE_SIZE_CAP, or no argument at all), so functools.cache
    # holds every key; a guessed maxsize of 16 once made a row over 58
    # chain sizes build 126 chains
    for path in sorted(SRC.parent.rglob("*.py")):
        assert lru_caches(path.read_text()) == [], path.name
