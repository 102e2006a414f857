"""The package's layout rules: the public surface resolves, and the
independent references in oracles.py stay out of the production modules
(ROADMAP aim 2: one production implementation per stage plus one
reference). Only the CLI's verify subcommand reads an oracle."""

import ast
from pathlib import Path

import kknapsack

PACKAGE = Path(kknapsack.__file__).resolve().parent
ORACLE_READERS = {"cli.py", "oracles.py"}


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
