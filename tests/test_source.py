"""Checks on the package source itself."""

import ast
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


def unreferenced_private_names(sources):
    """Module-level ``_name`` functions and classes that no code in
    ``sources`` (a list of source texts) refers to outside their own
    definition."""
    trees = [ast.parse(source) for source in sources]
    defined = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]

    def names(node):
        return [_called_name(n) for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]

    used = [name for tree in trees for name in names(tree)]
    return [node.name for node in defined
            if used.count(node.name) == names(node).count(node.name)]


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
