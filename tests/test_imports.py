"""Every name a module of the package, the tests or the scripts imports is
used in that module."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mfinv"


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


def _unused_imports_in(paths) -> dict:
    unused = {}
    for path in paths:
        found = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if found:
            unused[path.name] = found
    return unused


def test_no_unused_imports_in_package():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert _unused_imports_in(modules) == {}


def test_no_unused_imports_in_tests_and_scripts():
    modules = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(modules) >= 15
    assert _unused_imports_in(modules) == {}


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


# --- cold start: no generated code, and only the layers a command uses -----


def test_no_dataclasses_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append((path.name, node.lineno))
    assert found == []


_FOOTPRINT = """
import contextlib, io, sys
from mfinv.cli import main

d4 = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["--input", d4, "--json", "milnor"])]
    after_milnor = sorted(m for m in sys.modules if m.startswith("mfinv."))
    codes.append(main(["--input", d4, "chern", "E"]))
    after_chern = sorted(m for m in sys.modules if m.startswith("mfinv."))
    heavy = sorted(m for m in ("dataclasses", "mfinv.oracle", "mfinv.equivariant",
                               "mfinv.homology") if m in sys.modules)
    codes.append(main(["--input", d4, "verify", "--check"]))
print(repr((codes, after_milnor, after_chern, heavy)))
"""


def test_light_commands_load_only_their_layers():
    import os
    import subprocess
    import sys

    d4 = SRC.parent.parent / "scripts" / "sessions" / "d4.json"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    # -S: no site hooks, so nothing but the command decides what is loaded
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, str(d4)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, after_milnor, after_chern, heavy = ast.literal_eval(proc.stdout)
    core = ["mfinv.cli", "mfinv.groebner", "mfinv.mfcore", "mfinv.milnor", "mfinv.poly",
            "mfinv.scalar"]
    assert after_milnor == core
    assert after_chern == sorted(core + ["mfinv.invariants"])
    assert heavy == []
    assert codes == [0, 0, 0]


_PARSER = """
import sys
import mfinv.cli

parser = mfinv.cli.build_parser()
built = "shutil" in sys.modules
print(repr((built, parser.format_help())))
"""


def test_building_the_parser_does_not_import_shutil():
    import os
    import subprocess
    import sys

    helps = []
    for columns in ("40", "200"):
        env = dict(os.environ, PYTHONPATH=str(SRC.parent), COLUMNS=columns)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _PARSER],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        built, text = ast.literal_eval(proc.stdout)
        assert built is False
        helps.append(text)
    # help is still laid out at the terminal's width
    assert "Exact invariants of matrix\nfactorizations" in helps[0]
    assert "Exact invariants of matrix factorizations from a session file." in helps[1]


def _frozen_instances() -> list:
    from fractions import Fraction

    from mfinv.equivariant import GradedStructure, Sector, SectorClass
    from mfinv.groebner import GroebnerBasis, ModuleGB
    from mfinv.homology import CohomologyBasis, ParityCohomology
    from mfinv.mfcore import EquivariantMF, MatFac, MorphismCocycle
    from mfinv.milnor import MilnorClass, MilnorRing
    from mfinv.oracle import DiagonalChern, DiagonalData, DTensor
    from mfinv.poly import PolyRing
    from mfinv.scalar import CyclotomicContext, Scalar

    ring = PolyRing(("x",))
    empty = MatFac(ring, ring.zero(), (), ())
    return [
        CyclotomicContext(3),
        Scalar(None, (Fraction(1),)),
        ring,
        GroebnerBasis(ring, ()),
        ModuleGB(ring, 1, ()),
        MilnorRing(ring, ring.zero(), None, (), 0, 1, ring.one()),
        MilnorClass(None, ring.zero(), 0),
        empty,
        MorphismCocycle(empty, empty, 0, ()),
        EquivariantMF(empty, ()),
        ParityCohomology(0, None, None, ()),
        CohomologyBasis(empty, empty, None, None),
        DiagonalData(None, ring, ring.zero(), (), None, ring.zero()),
        DTensor(ring, empty, ()),
        DiagonalChern(None, None, True),
        Sector((), (), None),
        SectorClass(None, ring.zero(), 0),
        GradedStructure(ring, ring.zero(), (1,), 1, (), False),
    ]


def test_value_classes_reject_assignment():
    import pytest

    from mfinv.scalar import Frozen

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    instances = _frozen_instances()
    assert {type(obj) for obj in instances} == set(subclasses(Frozen))
    for obj in instances:
        for name in ("ring", "context", "coeffs", "parity", "source", "new_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)


def test_rings_and_fields_compare_by_value():
    from mfinv.poly import PolyRing
    from mfinv.scalar import CyclotomicContext

    assert CyclotomicContext(5) == CyclotomicContext(5)
    assert hash(CyclotomicContext(5)) == hash(CyclotomicContext(5))
    assert CyclotomicContext(5) != CyclotomicContext(10)
    R = PolyRing(("x", "y"), CyclotomicContext(3))
    same = PolyRing(("x", "y"), CyclotomicContext(3))
    assert R == same and hash(R) == hash(same) and {R: 1}[same] == 1
    assert R != PolyRing(("x", "y")) and R != PolyRing(("y", "x"), CyclotomicContext(3))
    assert R != ("x", "y")


def test_value_classes_copy_and_pickle():
    import copy
    import pickle

    from mfinv.groebner import buchberger
    from mfinv.poly import PolyRing
    from mfinv.scalar import CyclotomicContext

    R = PolyRing(("x", "y"), CyclotomicContext(3))
    z = R.context.zeta()
    gb = buchberger([R.parse("x^2"), R.parse("y^3")])
    gb._module  # a cached property lands in the instance __dict__
    for obj in (R, z, gb):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
    assert pickle.loads(pickle.dumps(R)) == R and copy.deepcopy(z) == z
    twin = pickle.loads(pickle.dumps(gb))
    assert [str(g) for g in twin.generators] == [str(g) for g in gb.generators]
    assert len(twin._module.generators) == 2
    for obj in _frozen_instances():
        assert type(copy.deepcopy(obj)) is type(obj)
