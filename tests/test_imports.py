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


def _names_at(node) -> list:
    """The names this one node refers to (not those of its children)."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def _unreferenced(trees: dict, definitions) -> list:
    """(module, line, name) of each (module, node, name) in `definitions`
    that no node of `trees` outside the defining node refers to."""
    refs = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            for name in _names_at(node):
                refs.setdefault(name, []).append(node)
    found = []
    for mod, node, name in definitions:
        inside = {id(sub) for sub in ast.walk(node)}
        if all(id(ref) in inside for ref in refs.get(name, ())):
            found.append((mod, node.lineno, name))
    return sorted(found)


def _unreferenced_privates(trees: dict) -> list:
    """(module, line, name) of each module-level `_name` that no statement
    of the package other than its own definition refers to."""
    return _unreferenced(trees, [
        (mod, stmt, name)
        for mod, tree in trees.items()
        for stmt in tree.body
        for name in _defined_names(stmt)
        if name.startswith("_") and not name.startswith("__")
    ])


def _unreferenced_definitions(trees: dict, package: str) -> list:
    """(module, line, name) of each def or class at module level, and each
    method other than a dunder, in the modules under `package` that no
    node of `trees` outside its own definition names."""
    defs = []
    for mod, tree in trees.items():
        if not mod.startswith(package):
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((mod, stmt, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                defs += [
                    (mod, sub, sub.name)
                    for sub in stmt.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                ]
    return _unreferenced(trees, defs)


def _parsed(paths) -> dict:
    return {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(), filename=str(path))
        for path in paths
    }


def test_every_private_name_is_referenced_in_package():
    assert _unreferenced_privates(_parsed(sorted(SRC.glob("*.py")))) == []


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


def test_every_package_function_and_class_is_referenced():
    # a helper left behind when its last caller goes is dead code, and one
    # that only tests call is test code: each one must be named somewhere in
    # the package, the scripts or the benchmark harness.  The match is by
    # name, so it cannot see a dunder, or a definition whose name some other
    # identifier also has (``dual``, ``shift``, ``twist``, ``top``).
    paths = sorted(
        path
        for folder in ("src", "scripts", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
    )
    assert len(paths) >= 20
    package = str(SRC.relative_to(ROOT))
    assert _unreferenced_definitions(_parsed(paths), package) == []


def test_unreferenced_definition_is_reported():
    trees = {
        "pkg/a.py": ast.parse(
            "def used():\n    pass\n"
            "def recursive():\n    return recursive()\n"
            "class Kept:\n"
            "    def __init__(self):\n        pass\n"
            "    def method(self):\n        return Kept()\n"
            "    def dead(self):\n        return self.dead()\n"
        ),
        "tests/b.py": ast.parse(
            "from pkg.a import used, Kept\nused()\nKept().method()\n"
            "def unused_test_helper():\n    pass\n"
        ),
    }
    assert _unreferenced_definitions(trees, "pkg") == [
        ("pkg/a.py", 3, "recursive"), ("pkg/a.py", 10, "dead"),
    ]


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

    from mfinv.equivariant import GradedStructure, Sector, close_group
    from mfinv.groebner import module_gb
    from mfinv.homology import CohomologyBasis, ParityCohomology
    from mfinv.mfcore import EquivariantMF, MatFac, MorphismCocycle
    from mfinv.milnor import MilnorClass, MilnorRing
    from mfinv.oracle import DiagonalChern, DiagonalData, DTensor
    from mfinv.poly import PolyRing
    from mfinv.scalar import CyclotomicContext, Scalar

    ring = PolyRing(("x",))
    empty = MatFac(ring, ring.zero(), (), 0)
    return [
        CyclotomicContext(3),
        Scalar(None, (Fraction(1),)),
        ring,
        module_gb((), 1, ring),
        MilnorRing(ring, ring.zero(), None, (), (), 0, 1, ring.one()),
        MilnorClass(None, ring.zero(), 0),
        empty,
        MorphismCocycle(empty, empty, 0, ()),
        EquivariantMF(empty, ()),
        ParityCohomology(0, None, None, None),
        CohomologyBasis(empty, empty, None, None),
        DiagonalData(None, ring, ring.zero(), (), None, ring.zero()),
        DTensor(ring, empty, ()),
        DiagonalChern(None, None, True),
        Sector((), None),
        close_group(1, [(Scalar(None, (Fraction(-1),)),)]),
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
    from mfinv.mfcore import koszul
    from mfinv.poly import PolyRing
    from mfinv.scalar import CyclotomicContext

    R = PolyRing(("x", "y"), CyclotomicContext(3))
    z = R.context.zeta()
    gb = buchberger([R.parse("x^2"), R.parse("y^3")])
    gb.generators  # a cached property lands in the instance __dict__
    E = koszul([R.parse("x")], [R.parse("x^2 + y^2")])
    E.partials
    for obj in (R, z, gb, E):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
    assert pickle.loads(pickle.dumps(R)) == R and copy.deepcopy(z) == z
    twin = pickle.loads(pickle.dumps(gb))
    assert [str(g) for g, in twin.generators] == [str(g) for g, in gb.generators]
    assert len(twin._divisors.entries) == 2
    for twin in (copy.deepcopy(E), pickle.loads(pickle.dumps(E))):
        assert "partials" in vars(twin) and twin == E and twin.partials == E.partials
    for obj in _frozen_instances():
        assert type(copy.deepcopy(obj)) is type(obj)


# --- value classes name each field once, in __slots__ ------------------------


def _own_field_stores(tree: ast.Module, exempt=("Scalar",)) -> list:
    """(class, line) of each object.__setattr__ call in the own __init__ of
    a slotted Frozen subclass not in ``exempt``: such a class leaves the
    stores to Frozen.__init__."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name in exempt:
            continue
        assigned = {
            t.id for s in cls.body if isinstance(s, ast.Assign)
            for t in s.targets if isinstance(t, ast.Name)
        }
        if "Frozen" not in map(ast.unparse, cls.bases) or "__slots__" not in assigned:
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                found.extend(
                    (cls.name, node.lineno) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "object.__setattr__"
                )
    return found


def test_value_classes_store_fields_only_through_frozen_init():
    trees = _parsed(sorted(SRC.glob("*.py")))
    assert [found for tree in trees.values() for found in _own_field_stores(tree)] == []
    # the exemption is what lets Scalar through: its two stores are seen
    scalar = trees["src/mfinv/scalar.py"]
    assert [name for name, _line in _own_field_stores(scalar, exempt=())] == ["Scalar"] * 2


def test_own_field_store_is_reported():
    tree = ast.parse(
        "class Kept(Frozen):\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        super().__init__(a)\n"
        "class Planted(Frozen):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a):\n"
        "        if a:\n"
        "            object.__setattr__(self, 'a', a)\n"
        "class Unslotted(Frozen):\n"
        "    def __init__(self, a):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "class Scalar(Frozen):\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        object.__setattr__(self, 'a', a)\n"
    )
    assert _own_field_stores(tree) == [("Planted", 9)]


_WRONG_COUNT = """
from mfinv.equivariant import Sector
from mfinv.oracle import DiagonalChern
for cls, fields in ((Sector, ((0,), None)), (DiagonalChern, (None, None, True))):
    print(cls.__name__, [getattr(cls(*fields), name) for name in cls.__slots__])
    for args in (fields[:-1], fields + (None,)):
        try:
            cls(*args)
        except ValueError:
            print("raised on", len(args))
"""


def test_value_classes_reject_a_wrong_field_count():
    # the count check is zip(strict=True), not an assert, so python -O keeps it
    import os
    import subprocess
    import sys

    import pytest

    from mfinv.scalar import Frozen

    inherited = [obj for obj in _frozen_instances() if type(obj).__init__ is Frozen.__init__]
    assert len(inherited) == 10
    for obj in inherited:
        fields = tuple(getattr(obj, name) for name in obj.__slots__)
        twin = type(obj)(*fields)
        assert all(getattr(twin, name) is value for name, value in zip(obj.__slots__, fields))
        for args in (fields[:-1], fields + (None,)):
            with pytest.raises(ValueError):
                type(obj)(*args)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    want = [
        "Sector [(0,), None]", "raised on 1", "raised on 3",
        "DiagonalChern [None, None, True]", "raised on 2", "raised on 4",
    ]
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", _WRONG_COUNT],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.splitlines() == want
