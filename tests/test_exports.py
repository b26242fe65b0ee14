"""The package exports only what an entry point runs: every name that
ncspaces/__init__.py imports is read, as a name, an attribute or an attribute
name in a string (the benchmark tracer patches by name), by the criteria
(checks.py), the CLI (cli.py) or the benchmark (perfbench/*.py).  Reads files
only."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncspaces"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def names_read(path: Path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_is_read_by_a_criterion_the_cli_or_the_benchmark():
    readers = [PACKAGE / "checks.py", PACKAGE / "cli.py", *(ROOT / "perfbench").glob("*.py")]
    read = set().union(*map(names_read, readers))
    exports = exported_names()
    assert exports and [name for name in exports if name not in read] == []
