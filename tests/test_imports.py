"""Every name a module of the package imports is used in that module."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mfinv"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_package():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    unused = {}
    for path in modules:
        found = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if found:
            unused[path.name] = found
    assert unused == {}


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(d)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "b")]
