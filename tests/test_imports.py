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


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unreferenced_privates(trees: dict) -> list:
    """(module, line, name) of each module-level `_name` that no statement
    of the package other than its own definition refers to."""
    statements = [(mod, stmt) for mod, tree in trees.items() for stmt in tree.body]
    refs = [(mod, stmt, _referenced_names(stmt)) for mod, stmt in statements]
    found = []
    for mod, stmt in statements:
        for name in _defined_names(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in names for m, s, names in refs if s is not stmt):
                found.append((mod, stmt.lineno, name))
    return sorted(found)


def test_every_private_name_is_referenced_in_package():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    assert _unreferenced_privates(trees) == []


def test_unreferenced_private_is_reported():
    trees = {
        "a.py": ast.parse(
            "def _used():\n    pass\n"
            "def _recursive():\n    return _recursive()\n"
            "_TABLE = {}\n_dead = 1\n"
            "class _Kept:\n    pass\n"
            "x = _used() or _Kept\n"
        ),
        "b.py": ast.parse("from a import _TABLE\nprint(_TABLE)\n"),
    }
    assert _unreferenced_privates(trees) == [("a.py", 3, "_recursive"), ("a.py", 6, "_dead")]
