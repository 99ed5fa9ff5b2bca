"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import diskfill

SOURCES = sorted(Path(diskfill.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips asserts, so invariants the results rest on
    # must be explicit raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _called_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded_cache(decorator):
    """True for ``cache`` and ``lru_cache(maxsize=None)``, however imported."""
    if not isinstance(decorator, ast.Call):
        return _called_name(decorator) == "cache"
    maxsize = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return _called_name(decorator.func) == "lru_cache" and any(
        isinstance(v, ast.Constant) and v.value is None for v in maxsize
    )


def unbounded_caches(source):
    """(name, takes arguments) for each function under an unbounded cache."""
    return [
        (node.name, bool(node.args.posonlyargs or node.args.args or node.args.vararg
                         or node.args.kwonlyargs or node.args.kwarg))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_unbounded_cache(d) for d in node.decorator_list)
    ]


def test_unbounded_caches_take_no_arguments():
    # every benchmark operation runs in one process under a peak-memory
    # gate, so a cache must not grow with the inputs it has seen
    found = [(path.name, name, takes) for path in SOURCES
             for name, takes in unbounded_caches(path.read_text())]
    assert ("cli.py", "_build_parser", False) in found
    assert not [entry for entry in found if entry[2]], found


def test_unbounded_cache_detection():
    source = (
        "@functools.cache\ndef a(x): pass\n"
        "@lru_cache(maxsize=None)\ndef b(*xs): pass\n"
        "@functools.lru_cache(None)\ndef c(): pass\n"
        "@lru_cache(maxsize=256)\ndef d(k): pass\n"
        "@lru_cache\ndef e(k): pass\n"
    )
    assert unbounded_caches(source) == [("a", True), ("b", True), ("c", False)]


def generator_tuples(source):
    """Line numbers of ``tuple(<generator expression>)`` calls."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called_name(node.func) == "tuple"
        and node.args and isinstance(node.args[0], ast.GeneratorExp)
    ]


def test_skein_engine_builds_no_tuple_from_a_generator():
    # CPython builds such a tuple by resizing, so freeing it adds one to
    # the per-size tuple free list with none taken out: the skein engine
    # builds diagrams by the hundred per evaluation, and in one process
    # that ratchets about 2 MB of dead tuples into the free lists
    kauffman = [path for path in SOURCES if path.name == "kauffman.py"]
    assert kauffman and generator_tuples(kauffman[0].read_text()) == []


def test_generator_tuple_detection():
    source = "a = tuple(x for x in y)\nb = tuple([x for x in y])\nc = tuple(y)\nd = set(x for x in y)\n"
    assert generator_tuples(source) == [1]


def _names(node):
    """Every name and attribute name read or bound under ``node``."""
    return [_called_name(n) for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def unreferenced_private_names(sources):
    """Module-level ``_name`` functions and classes that no code in
    ``sources`` (a list of source texts) refers to outside their own
    definition."""
    trees = [ast.parse(source) for source in sources]
    defined = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    used = [name for tree in trees for name in _names(tree)]
    return [node.name for node in defined
            if used.count(node.name) == _names(node).count(node.name)]


def test_every_private_helper_is_used_in_the_package():
    # a helper only the tests call belongs in the tests
    assert unreferenced_private_names([path.read_text() for path in SOURCES]) == []


def test_unreferenced_private_detection():
    sources = [
        "def _used(): pass\ndef _dead(): pass\ndef _recursive(n): return _recursive(n - 1)\n"
        "class _Kept: pass\ndef __dunder__(): pass\n",
        "from m import _used\nx = _used() + m._Kept\n",
    ]
    assert unreferenced_private_names(sources) == ["_dead", "_recursive"]


def _exported(tree):
    """The names a module's ``__all__`` lists, or none."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)), [])


def _bound(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced_exports(sources):
    """(module, name) for each name in a module's ``__all__`` that no code
    in ``sources`` (module name -> source text) refers to outside its own
    definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = [name for tree in trees.values() for name in _names(tree)]
    found = []
    for module, tree in trees.items():
        definitions = {name: node for node in tree.body for name in _bound(node)}
        for name in _exported(tree):
            own = _names(definitions[name]).count(name) if name in definitions else 0
            if used.count(name) == own:
                found.append((module, name))
    return found


# Public names with no caller in the package.  perfbench's tracer wraps
# the front ones, and the CI console-script step imports render_pd to
# write a PD file.
ENTRY_POINTS = [
    ("front", "validate"),
    ("front", "apply_move"),
    ("front", "pinch"),
    ("front", "death"),
    ("front", "connected_sum"),
    ("kauffman", "render_pd"),
]


def test_every_public_name_is_used_in_the_package():
    # a public function only the tests call belongs in the tests
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert sorted(unreferenced_exports(sources)) == sorted(ENTRY_POINTS)


def test_unreferenced_export_detection():
    sources = {
        "a": '__all__ = ["used", "dead", "LIMIT", "recursive"]\n'
             "def used(): pass\ndef dead(): pass\nLIMIT = 1\n"
             "def recursive(n): return recursive(n - 1)\n",
        "b": '__all__ = ["Kept"]\nfrom a import used\nclass Kept: pass\nx = used() + LIMIT\n',
    }
    assert unreferenced_exports(sources) == [("a", "dead"), ("a", "recursive"), ("b", "Kept")]


def unused_imports(source):
    """Names that a module-level import of ``source`` binds and nothing in
    it reads; ``__future__`` imports and names in ``__all__`` are exempt."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read and name not in _exported(tree)]


def test_every_import_is_used():
    # no linter runs on the package, so a leftover import shows here
    found = [(path.name, name) for path in SOURCES for name in unused_imports(path.read_text())]
    assert not found, found


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\nimport os\nimport a.b\n"
        "from fractions import Fraction\nfrom m import x as y, z\nfrom n import w\n"
        '__all__ = ["w"]\nprint(a.b.c, y)\n'
    )
    assert unused_imports(source) == ["os", "Fraction", "z"]


def test_cli_import_loads_no_heavy_stdlib_module():
    # each command is a fresh process, so what importing the CLI drags in
    # is paid on every call; -S keeps site's .pth files from loading these
    # modules first
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import diskfill.cli; "
             "print(*sorted({'dataclasses', 'importlib.resources'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SOURCES[0].parent.parent)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"
