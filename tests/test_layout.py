"""The package's layout rules: the public surface resolves, and the
independent references in oracles.py stay out of the production modules
(ROADMAP aim 2: one production implementation per stage plus one
reference). Only the CLI's verify subcommand reads an oracle, and every
reference in oracles.py has a reader. No production module keeps a
process-wide memo, so no state outlives a solve, and none calls np.unique,
whose first call leaves numpy.ma resident. The instance layer reads each
item once per solve (item_columns), so the partition and the combiner read
no item's profit or weight, and no production module heaps Fractions.
Every top-level name a production module defines is read by production,
from the public names or the CLI's entry points, and every method, class
attribute and self attribute of a production class is read in production
or the benchmark; what only tests read lives in oracles.py or the tests.
No production class defines equality, hashing or a descriptor's get and
set: values compare by identity, and tests compare their fields."""

import ast
import re
from pathlib import Path

import kknapsack

PACKAGE = Path(kknapsack.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
ORACLE_READERS = {"cli.py", "oracles.py"}
# Past the instance model a candidate is a row of the solve's candidate
# view; only these modules build or read Item objects.
ITEM_READERS = {"__init__.py", "generator.py", "instance_model.py", "oracles.py"}


def test_every_public_name_resolves():
    missing = [name for name in kknapsack.__all__ if not hasattr(kknapsack, name)]
    assert not missing, missing


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracles":
                return True
            if any(alias.name == "oracles" for alias in node.names):
                return True
    return False


def test_production_modules_do_not_import_oracles():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5, sources
    readers = {path.name for path in sources if _imports_oracles(ast.parse(path.read_text()))}
    assert readers <= ORACLE_READERS, readers - ORACLE_READERS


def _oracle_imports(tree: ast.AST):
    """The names a module imports from oracles, in any scope."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "oracles":
            yield from (alias.name for alias in node.names)


def test_every_oracle_has_a_reader():
    # Start from the names tests, demos, perfbench and cli.py import from
    # oracles.py, and follow the names each top-level definition uses. A
    # definition left unreached is a reference that outlived its readers.
    readers = [PACKAGE / "cli.py"]
    for folder in ("tests", "demos", "perfbench"):
        readers += sorted((ROOT / folder).rglob("*.py"))
    assert len(readers) > 10, readers
    roots = {name for path in readers for name in _oracle_imports(ast.parse(path.read_text()))}
    uses = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in ast.parse((PACKAGE / "oracles.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached, todo = set(), [name for name in roots if name in uses]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [used for used in uses[name] if used in uses]
    unread = sorted(set(uses) - reached)
    assert not unread, unread


def _imports_item(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.ImportFrom) and any(alias.name == "Item" for alias in node.names)
        for node in ast.walk(tree)
    )


def test_only_the_instance_layer_imports_item():
    sources = sorted(PACKAGE.glob("*.py"))
    readers = {path.name for path in sources if _imports_item(ast.parse(path.read_text()))}
    assert readers <= ITEM_READERS, readers - ITEM_READERS


ITEM_FIELDS = {"profit", "weight"}


def _item_field_reads(tree: ast.AST) -> set[str]:
    """The Item value fields a module reads as attributes, on any object."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ITEM_FIELDS
    }


def test_solver_layers_read_no_item_values():
    # Past the instance layer a candidate is a row of the solve's view, whose
    # integers come from the one read of the items (item_columns).
    for name in ("preprocessing.py", "combiner.py"):
        assert not _item_field_reads(ast.parse((PACKAGE / name).read_text())), name
    assert _item_field_reads(ast.parse("[it.profit for it in items]")) == {"profit"}


def _imports_heapq(tree: ast.AST) -> bool:
    return any(
        (isinstance(node, ast.Import) and any(alias.name == "heapq" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "heapq")
        for node in ast.walk(tree)
    )


def test_no_production_module_imports_heapq():
    # The K lightest come from np.partition on integer weights; a heap of
    # Fractions (oracles.reference_candidates) is the reference only.
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"]
    assert len(sources) > 5, sources
    importers = {path.name for path in sources if _imports_heapq(ast.parse(path.read_text()))}
    assert not importers, importers
    assert _imports_heapq(ast.parse("from heapq import nsmallest"))


MEMO_DECORATORS = {"lru_cache", "cache"}


def _memoises(tree: ast.AST) -> bool:
    """Whether a module imports functools' lru_cache or cache, or reads
    either off the functools module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in MEMO_DECORATORS for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr in MEMO_DECORATORS:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                return True
    return False


def test_no_production_module_memoises_across_solves():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"]
    assert len(sources) > 5, sources
    memos = {path.name for path in sources if _memoises(ast.parse(path.read_text()))}
    assert not memos, memos


def _calls_unique(tree: ast.AST) -> bool:
    """Whether a module reads unique off numpy (np.unique, numpy.unique) or
    imports it from numpy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            if any(alias.name == "unique" for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "unique":
            if isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}:
                return True
    return False


def test_no_production_module_calls_np_unique():
    # np.unique imports numpy.ma on its first call, and the module stays
    # resident (about 0.5 MiB) in every process that solves; class order
    # and sorted runs give the same groups without it.
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"]
    assert len(sources) > 5, sources
    callers = {path.name for path in sources if _calls_unique(ast.parse(path.read_text()))}
    assert not callers, callers
    assert _calls_unique(ast.parse("import numpy as np\nnp.unique([1])"))
    assert _calls_unique(ast.parse("from numpy import unique"))


def _top_level_definitions(tree: ast.Module) -> dict:
    """name -> node of every top-level function, class and assigned name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _unread_definitions(sources: dict, roots) -> list:
    """The (module, name) top-level definitions of the modules in sources
    (module name -> source text) that no root reaches. Roots are (module,
    name) pairs, plus every top-level statement that defines nothing; a
    definition reaches the names it reads, in its own module or imported
    from a sibling by a relative import."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {module: _top_level_definitions(tree) for module, tree in trees.items()}
    imported = {}
    for module, tree in trees.items():
        table = imported[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                for alias in node.names:
                    table[alias.asname or alias.name] = (node.module, alias.name)

    def reads(module, node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                if n.id in defined[module]:
                    yield module, n.id
                elif n.id in imported[module]:
                    yield imported[module][n.id]

    todo = list(roots)
    quiet = (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign, ast.Import, ast.ImportFrom)
    for module, tree in trees.items():
        todo += (ref for node in tree.body if not isinstance(node, quiet) for ref in reads(module, node))
    reached = set()
    while todo:
        module, name = todo.pop()
        if (module, name) not in reached and name in defined.get(module, {}):
            reached.add((module, name))
            todo += reads(module, defined[module][name])
    return sorted(
        (module, name)
        for module, names in defined.items()
        for name in names
        if (module, name) not in reached and not name.startswith("__")
    )


def test_every_production_name_has_a_production_reader():
    # Start from the public names, the CLI's entry points and the modules'
    # top-level statements, and follow the names each top-level definition
    # reads. A definition left unreached serves only the tests or the
    # oracles, and belongs in oracles.py or a test.
    sources = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oracles.py"
    }
    assert len(sources) > 5, sources
    init = ast.parse(sources["__init__"])
    public = {
        alias.asname or alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    roots = [(public[name], name) for name in kknapsack.__all__ if name in public]
    # The [project.scripts] entry points of pyproject.toml, "module:function".
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    roots += re.findall(r'=\s*"[\w.]*?(\w+):(\w+)"', scripts)
    assert ("cli", "main") in roots and ("combiner", "solve") in roots, roots
    unread = _unread_definitions(sources, roots)
    assert not unread, unread
    fake = {"a": "from .b import used\nused()\n", "b": "def used():\n    pass\ndef unused():\n    pass\n"}
    assert _unread_definitions(fake, []) == [("b", "unused")]


def _class_members(tree: ast.AST) -> set:
    """(class, name) of every method, property and plain class attribute a
    class in tree defines, and of every self.<name> its methods assign.
    Annotated class-body names, the fields of dataclasses and NamedTuples,
    are public records and left out, and so are dunder names."""
    out = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add((cls.name, node.name))
                out.update(
                    (cls.name, n.attr)
                    for n in ast.walk(node)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                )
            elif isinstance(node, ast.Assign):
                out.update((cls.name, t.id) for t in node.targets if isinstance(t, ast.Name))
    return {(cls, name) for cls, name in out if not name.startswith("__")}


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Every name tree reads as an attribute, on any object."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _unread_members(sources: list[str], readers: list[str]) -> list:
    """The (class, name) members of the classes in sources that no reader
    reads as an attribute."""
    reads = set().union(*(_attribute_reads(ast.parse(text)) for text in readers))
    members = set().union(*(_class_members(ast.parse(text)) for text in sources))
    return sorted((cls, name) for cls, name in members if name not in reads)


def test_every_production_member_has_a_reader():
    # The top-level rule above cannot see inside a class. Every method,
    # property and class attribute of a production class, and every
    # attribute a production method sets on self, must be read, by name, in
    # production or in the benchmark (whose tracer reads, for one, the
    # small pool's exact flag). A member only tests or oracles read belongs
    # with them.
    production = [
        path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"
    ]
    benchmark = [path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert len(production) > 5 and benchmark
    unread = _unread_members(production, production + benchmark)
    assert not unread, unread
    planted = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    field: int\n"
        "    flag = True\n"
        "    def used(self):\n"
        "        self.kept = self.field\n"
        "        self.dropped = 1\n"
        "    @property\n"
        "    def unused(self):\n"
        "        return self.kept\n"
        "A(1).used()\n"
    )
    assert _unread_members([planted], [planted]) == [("A", "dropped"), ("A", "flag"), ("A", "unused")]


PROTOCOL_METHODS = {"__eq__", "__hash__", "__get__", "__set__"}


def _protocol_methods(tree: ast.AST) -> set:
    """(class, name) of every __eq__, __hash__, __get__ or __set__ a class
    in tree defines, as a method or a class-body assignment."""
    out = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add((cls.name, node.name))
            elif isinstance(node, ast.Assign):
                out.update((cls.name, t.id) for t in node.targets if isinstance(t, ast.Name))
    return {(cls, name) for cls, name in out if name in PROTOCOL_METHODS}


def test_no_production_class_defines_equality_or_descriptors():
    # Equality that only tests read lives in the tests (conftest's
    # partition_fields compares partitions field by field), and a field
    # holds its value as given, with no descriptor converting it on read.
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"]
    assert len(sources) > 5, sources
    found = set().union(*(_protocol_methods(ast.parse(path.read_text())) for path in sources))
    assert not found, sorted(found)
    planted = (
        "class A:\n"
        "    __hash__ = None\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def __get__(self, obj, owner=None):\n"
        "        return 1\n"
        "    def __repr__(self):\n"
        "        return 'A'\n"
    )
    assert _protocol_methods(ast.parse(planted)) == {("A", "__hash__"), ("A", "__eq__"), ("A", "__get__")}
