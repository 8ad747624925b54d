"""Source hygiene: every name a package module imports is used in it,
no module imports another module's underscore name or imports inside a
function, every memo is a bounded lru_cache rather than a module-level
container, the README names every memo with its bound, every Karoubi hom space and every
hom space of presented functors is built through its memo, only split_solve
reads the memo of split witnesses, every partition
diagram is built through the canonical memo, every Karoubi object through
the intern memo with its cut set only by its checking constructor or
_kar_object, every Karoubi and presented morphism through its checking
constructor or its module's one unchecked builder, and every Cobordism
through its checking constructor or _cobordism, no namedtuple `_make` or
`_replace` rebuilds a diagram or a cobordism, no call passes a `validate`
flag, no hash, equality, key or __new__ renders a value as text, no
LinMorphism's terms change after it is built, no sum of
composites is accumulated one composite at a time, the Karoubi hom
space and the split solver compose their columns through one kernel,
every elimination outside the hom spaces reads an ExactMatrix, and an
ExactMatrix feeds its columns to its Subspace from one method alone, and
the benchmark's tracer still finds every binding it wraps and its hooks
still read what they read."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import diagcat

MODULES = sorted(
    p for p in Path(diagcat.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
EMPTY_CALLS = ("dict", "list", "set")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]


def function_imports(source: str) -> list:
    """Line numbers of each import statement inside a function."""
    return sorted(
        {
            node.lineno
            for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    """Every module imports at its top; no import cycle needs a late one."""
    assert function_imports(path.read_text()) == []


def test_the_guard_sees_an_import_inside_a_function():
    snippet = (
        "import re\n"
        "def parse(text):\n"
        "    from .scalar import parse_field_element\n"
        "    return re.split(text)\n"
        "class Datum:\n"
        "    def describe(self):\n"
        "        def inner():\n"
        "            import json\n"
        "        return inner\n"
        "async def fetch():\n"
        "    import asyncio\n"
    )
    assert function_imports(snippet) == [3, 8, 11]


def private_imports(source: str) -> list:
    """(line, name) of each underscore name imported from another module."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_the_guard_sees_a_private_import():
    snippet = (
        "from __future__ import annotations\n"
        "from .partition import PartitionDiagram, _UnionFind\n"
        "from .homspace import hom_basis as _basis\n"
        "from . import _private\n"
    )
    assert private_imports(snippet) == [(2, "_UnionFind"), (4, "_private")]


def empty_module_containers(source: str) -> list:
    """Names bound at module level to an empty {}, [], set(), dict() or list()."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, ast.List) and not value.elts)
            or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in EMPTY_CALLS
                and not value.args
                and not value.keywords
            )
        )
        if empty:
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def lru_caches(namespace: dict):
    """(label, wrapper) for each lru_cache wrapper among the values of a
    module namespace and the dicts of its classes, classmethods included."""
    for name, value in namespace.items():
        members = [(name, value)]
        if isinstance(value, type):
            members += [(f"{name}.{k}", v) for k, v in vars(value).items()]
        for label, member in members:
            member = getattr(member, "__func__", member)
            if hasattr(member, "cache_parameters"):
                yield label, member


def unbounded_caches(namespace: dict) -> list:
    """lru_cache wrappers without a finite maxsize in a module namespace."""
    return [
        label
        for label, member in lru_caches(namespace)
        if member.cache_parameters()["maxsize"] is None
    ]


def package_bounds() -> dict:
    """The maxsize of every lru_cache of the package, by defining module and
    qualified name (a memo imported into another module is the same memo)."""
    found = {}
    for path in MODULES:
        if path.stem != "__main__":  # importing it runs the command line
            module = importlib.import_module(f"diagcat.{path.stem}")
            for _, member in lru_caches(vars(module)):
                name = f"{member.__module__.removeprefix('diagcat.')}.{member.__qualname__}"
                found[name] = member.cache_parameters()["maxsize"]
    return found


def caching_paragraph(text: str) -> str:
    return text.split("## Caching", 1)[1].split("\n\n", 2)[1]


def is_package_name(name: str) -> bool:
    return "." in name and name.split(".")[0] in {path.stem for path in MODULES}


def readme_memos(text: str) -> set:
    """The dotted package names in backticks in the README's Caching paragraph."""
    return {
        name
        for name in re.findall(r"`([\w.]+)`", caching_paragraph(text))
        if is_package_name(name)
    }


def readme_bounds(text: str) -> dict:
    """The bound in the Caching paragraph of each package name, the number
    opening the parenthesis after it, or after a run of names joined by
    "and", which then share it."""
    runs = re.findall(
        r"((?:`[\w.]+`\s+and\s+)*`[\w.]+`)\s+\((\d+)", caching_paragraph(text)
    )
    return {
        name: int(bound)
        for names, bound in runs
        for name in re.findall(r"`([\w.]+)`", names)
        if is_package_name(name)
    }


def test_the_readme_lists_every_memo():
    readme = Path(diagcat.__file__).parents[2] / "README.md"
    assert readme_memos(readme.read_text()) == set(package_bounds())


def test_the_guard_sees_an_unlisted_memo():
    text = (
        "## Caching\n\n"
        "Every memo is a `functools.lru_cache`. There are two:\n"
        "`partition.compose` (4096 pairs) and `scalar.Poly.x_power` (64),\n"
        "see `tests/test_hygiene.py`.\n\n"
        "`karoubi.kar_hom` is in the next paragraph.\n"
    )
    assert readme_memos(text) == {"partition.compose", "scalar.Poly.x_power"}


def test_the_readme_gives_every_memo_its_bound():
    readme = Path(diagcat.__file__).parents[2] / "README.md"
    assert readme_bounds(readme.read_text()) == package_bounds()


def test_the_guard_sees_a_stale_bound():
    text = (
        "## Caching\n\n"
        "There are three: `partition.compose` (256 diagram pairs),\n"
        "`cobordism.st_datum` and `cobordism.fibonacci_datum`\n"
        "(64 Frobenius data each) and `cli.build_parser` (1 entry), see\n"
        "`tests/test_hygiene.py` (3 guards).\n\n"
        "`karoubi.kar_hom` (9 hom spaces) is in the next paragraph.\n"
    )
    bounds = readme_bounds(text)
    assert bounds == {
        "partition.compose": 256,
        "cobordism.st_datum": 64,
        "cobordism.fibonacci_datum": 64,
        "cli.build_parser": 1,
    }
    actual = package_bounds()
    stale = {name: (n, actual[name]) for name, n in bounds.items() if n != actual[name]}
    assert stale == {"partition.compose": (256, 4096)}


def test_every_memo_is_bounded():
    found = []
    for path in MODULES:
        names = empty_module_containers(path.read_text())
        if path.stem != "__main__":  # importing it runs the command line
            names += unbounded_caches(vars(importlib.import_module(f"diagcat.{path.stem}")))
        found += [f"{path.stem}.{name}" for name in names]
    assert found == []


def test_the_guard_sees_an_unbounded_memo():
    snippet = (
        "from functools import lru_cache\n"
        "_memo: dict = {}\n"
        "_seen = set()\n"
        "@lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    return x\n"
        "class K:\n"
        "    @classmethod\n"
        "    @lru_cache(maxsize=None)\n"
        "    def g(cls, x):\n"
        "        return x\n"
        "    @lru_cache(maxsize=8)\n"
        "    def h(self, x):\n"
        "        return x\n"
    )
    assert empty_module_containers(snippet) == ["_memo", "_seen"]
    namespace = {}
    exec(snippet, namespace)
    assert unbounded_caches(namespace) == ["f", "K.g"]


def nodes_inside(tree, scopes) -> set:
    """ids of the nodes inside the named scopes: "name" for a module-level
    function or a whole class, "Class.method" for one method."""
    inside = set()
    for node in tree.body:
        named = [(getattr(node, "name", None), node)]
        if isinstance(node, ast.ClassDef):
            named += [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
        for name, scope in named:
            if name in scopes:
                inside.update(id(n) for n in ast.walk(scope))
    return inside


def calls_outside(source: str, callee: str, scopes) -> list:
    """Line numbers of calls to callee (by name or as an attribute) anywhere
    but inside the named scopes (see nodes_inside)."""
    tree = ast.parse(source)
    inside = nodes_inside(tree, scopes)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and id(node) not in inside
    )


def test_every_hom_space_goes_through_the_memo():
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in calls_outside(path.read_text(), "KarHom", ("kar_hom",))
    ]
    assert found == []


def test_the_guard_sees_a_direct_build():
    snippet = (
        "def kar_hom(a, b):\n"
        "    return KarHom(a, b)\n"
        "def solve(f):\n"
        "    return KarHom(f.cod, f.dom), kar_hom(f.dom, f.cod)\n"
    )
    assert calls_outside(snippet, "KarHom", ("kar_hom",)) == [4]


def test_every_split_reads_the_witness_memo_through_split_solve():
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in calls_outside(path.read_text(), "_split_witness", ("split_solve",))
    ]
    assert found == []


def test_the_guard_sees_a_direct_witness_lookup():
    snippet = (
        "def split_solve(f):\n"
        "    return _split_witness(f)\n"
        "def weak_kernel(s_theta):\n"
        "    return karoubi._split_witness(s_theta), split_solve(s_theta)\n"
    )
    assert calls_outside(snippet, "_split_witness", ("split_solve",)) == [4]


def test_every_presented_hom_space_goes_through_the_memo():
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in calls_outside(path.read_text(), "FpHomSpace", ("fp_hom_space",))
    ]
    assert found == []


def test_the_guard_sees_a_direct_presented_build():
    snippet = (
        "def fp_hom_space(a, b):\n"
        "    return FpHomSpace(a, b)\n"
        "def vanish(phi, probe):\n"
        "    hs = fp_hom_space(phi.dst, probe)\n"
        "    return hs, FpHomSpace(phi.src, probe)\n"
    )
    assert calls_outside(snippet, "FpHomSpace", ("fp_hom_space",)) == [5]


def direct_builds(source: str, class_name: str, scopes=()) -> list:
    """Line numbers of each __new__ call given the named class (by name or
    as an attribute), outside the named module-level functions."""
    tree = ast.parse(source)
    inside = {
        id(n)
        for node in tree.body
        if getattr(node, "name", None) in scopes
        for n in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "__new__"
        and any(
            class_name in (getattr(arg, "id", None), getattr(arg, "attr", None))
            for arg in node.args
        )
        and id(node) not in inside
    )


def test_every_diagram_goes_through_the_canonical_memo():
    """partition._canonical hands out one instance per diagram; only it
    builds one."""
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in direct_builds(
            path.read_text(),
            "PartitionDiagram",
            ("_canonical",) if path.stem == "partition" else (),
        )
    ]
    assert found == []


def test_the_guard_sees_a_direct_diagram_build():
    snippet = (
        "def _canonical(m, n, blocks):\n"
        "    return tuple.__new__(PartitionDiagram, (m, n, blocks))\n"
        "def tensor(f, g):\n"
        "    return object.__new__(partition.PartitionDiagram)\n"
        "out = object.__new__(LinMorphism)\n"
        "d = PartitionDiagram(1, 1, [(1, 2)])\n"
        "e = object.__new__(PartitionDiagram)\n"
        "u = tuple.__new__(PartitionDiagram, (1, 0, ((1,),)))\n"
        "w = tuple.__new__(partition.PartitionDiagram, (0, 0, ()))\n"
    )
    assert direct_builds(snippet, "PartitionDiagram", ("_canonical",)) == [4, 7, 8, 9]


def test_every_karoubi_object_goes_through_the_intern_memo():
    """karoubi._interned hands out one instance per key and names; only it
    builds one."""
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in direct_builds(
            path.read_text(),
            "KarObject",
            ("_interned",) if path.stem == "karoubi" else (),
        )
    ]
    assert found == []


def test_the_guard_sees_a_direct_karoubi_object_build():
    snippet = (
        "def _interned(key, names):\n"
        "    obj = object.__new__(KarObject)\n"
        "def weak_kernel(theta):\n"
        "    return object.__new__(karoubi.KarObject)\n"
        "d = object.__new__(PartitionDiagram)\n"
        "k = KarObject(cls, field, (1,), cut)\n"
        "e = object.__new__(KarObject)\n"
    )
    assert direct_builds(snippet, "KarObject", ("_interned",)) == [4, 7]


UNCHECKED_BUILDERS = {
    "LinMorphism": ("homspace", "derived_lin"),
    "KarMorphism": ("karoubi", "_kar_morphism"),
    "FpMorphism": ("fpfun", "_fp_morphism"),
    "Cobordism": ("cobordism", "_cobordism"),
}


@pytest.mark.parametrize("class_name", sorted(UNCHECKED_BUILDERS))
def test_only_the_unchecked_builder_skips_the_checked_constructor(class_name):
    """A LinMorphism, KarMorphism, FpMorphism or Cobordism built from
    outside values goes through its checking constructor; only its module's
    builder (derived_lin, _kar_morphism, _fp_morphism, _cobordism), for
    values that are right by construction, skips it."""
    home, builder = UNCHECKED_BUILDERS[class_name]
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in direct_builds(
            path.read_text(), class_name, (builder,) if path.stem == home else ()
        )
    ]
    assert found == []


def named_functions(tree) -> dict:
    """The module's functions by name, and its classes' methods as
    "Class.method"."""
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    functions[f"{node.name}.{item.name}"] = item
    return functions


def cut_assignments(source: str, scopes=()) -> list:
    """Line numbers of each assignment to a .cut or .plain attribute, and of
    each setattr of one, outside the named functions ("name" at module
    level, "Class.method" in a class)."""
    tree = ast.parse(source)
    functions = named_functions(tree)
    inside = {id(n) for name in scopes if name in functions for n in ast.walk(functions[name])}
    found = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names = {node.attr}
        elif isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)
        ) in ("setattr", "__setattr__"):
            names = {a.value for a in node.args if isinstance(a, ast.Constant)}
        else:
            continue
        if names & {"cut", "plain"}:
            found.add(node.lineno)
    return sorted(found)


def test_only_the_constructor_and_the_builder_set_a_cut():
    """A KarObject's cut and plain are set by KarObject.__init__, after its
    checks, or by karoubi._kar_object, for a cut right by construction."""
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in cut_assignments(
            path.read_text(),
            ("KarObject.__init__", "_kar_object") if path.stem == "karoubi" else (),
        )
    ]
    assert found == []


def test_the_guard_sees_a_cut_set_elsewhere():
    snippet = (
        "class KarObject:\n"
        "    def __init__(self, cut):\n"
        "        self.plain = False\n"
        "        self.cut = cut\n"
        "def _kar_object(obj, cut):\n"
        "    obj.plain, obj.cut = True, cut\n"
        "def weak_kernel(k, e):\n"
        "    k.cut = e\n"
        "    k.plain, n = True, 0\n"
        "    setattr(k, 'cut', e)\n"
        "    object.__setattr__(k, 'plain', True)\n"
        "class Other:\n"
        "    def __init__(self, cut):\n"
        "        self.cut = cut\n"
        "x = k.cut\n"
        "setattr(k, 'names', ())\n"
    )
    assert cut_assignments(snippet, ("KarObject.__init__", "_kar_object")) == [8, 9, 10, 11, 14]


def tuple_rebuilds(source: str) -> list:
    """Line numbers of each ._make(...) or ._replace(...) call: namedtuple's
    own constructors, which would build a PartitionDiagram or a Cobordism
    past its checks and past the canonical memo."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("_make", "_replace")
    )


def test_no_diagram_or_cobordism_is_rebuilt_as_a_tuple():
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in tuple_rebuilds(path.read_text())
    ]
    assert found == []


def test_the_guard_sees_a_tuple_rebuild():
    snippet = (
        "d = PartitionDiagram._make((1, 1, ((1, 2),)))\n"
        "e = d._replace(n=0)\n"
        "c = cobordism.Cobordism._make(fields)\n"
        "x = make(d)\n"
        "y = d.replace_blocks(b)\n"
    )
    assert tuple_rebuilds(snippet) == [1, 2, 3]


IDENTITIES = ("__hash__", "__eq__", "key", "__new__")
RENDERERS = ("to_text", "poly_text")


def identity_renderings(source: str) -> list:
    """("Class.method", line) of each to_text or poly_text call that a
    __hash__, __eq__, key or __new__ reaches: in its own body, in a
    module-level function it calls by name, or in a method of its class
    it calls as an attribute, followed to any depth."""
    tree = ast.parse(source)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    found = set()
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
        for name in IDENTITIES:
            if name not in methods:
                continue
            pending, seen = [methods[name]], set()
            while pending:
                scope = pending.pop()
                if id(scope) in seen:
                    continue
                seen.add(id(scope))
                for node in ast.walk(scope):
                    func = getattr(node, "func", None)
                    if isinstance(func, ast.Name):
                        callee, target = func.id, functions.get(func.id)
                    elif isinstance(func, ast.Attribute):
                        callee, target = func.attr, methods.get(func.attr)
                    else:
                        continue
                    if callee in RENDERERS:
                        found.add((f"{cls.name}.{name}", node.lineno))
                    elif target is not None:
                        pending.append(target)
    return sorted(found)


def test_no_identity_renders_text():
    """A value's hash, equality and key are built from the values
    themselves, never from their printed text."""
    found = [
        f"{path.stem}:{scope}:{line}"
        for path in MODULES
        for scope, line in identity_renderings(path.read_text())
    ]
    assert found == []


def test_the_guard_sees_an_identity_that_renders_text():
    snippet = (
        "def _mat_key(a):\n"
        "    return tuple(sorted((d, c.to_text()) for d, c in a))\n"
        "class KarObject:\n"
        "    def __new__(cls, cut):\n"
        "        return _interned((cls, _mat_key(cut)))\n"
        "class KarMorphism:\n"
        "    def key(self):\n"
        "        return (self.dom.key(), _mat_key(self.entries))\n"
        "    def __hash__(self):\n"
        "        return hash(self.key())\n"
        "    def __repr__(self):\n"
        "        return self.to_text()\n"
        "class Poly:\n"
        "    def __eq__(self, other):\n"
        "        return poly_text(self) == poly_text(other)\n"
        "    def __hash__(self):\n"
        "        return hash((self.nums, self.den))\n"
    )
    assert identity_renderings(snippet) == [
        ("KarMorphism.__hash__", 2),
        ("KarMorphism.key", 2),
        ("KarObject.__new__", 2),
        ("Poly.__eq__", 15),
    ]


def keyword_calls(source: str, keyword: str) -> list:
    """Line numbers of each call that passes the named keyword argument."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and any(k.arg == keyword for k in node.keywords)
    )


def test_no_call_passes_a_validate_flag():
    """Each constructor checks what it is given; there is no switch."""
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in keyword_calls(path.read_text(), "validate")
    ]
    assert found == []


def test_the_guards_see_an_unchecked_morphism_build():
    snippet = (
        "def _kar_morphism(dom, cod, entries):\n"
        "    m = object.__new__(KarMorphism)\n"
        "def kar_row(ms):\n"
        "    return object.__new__(karoubi.KarMorphism)\n"
        "def fp_identity(m):\n"
        "    return FpMorphism(m, m, a, o, validate=False)\n"
        "sq = object.__new__(FpMorphism)\n"
        "k = KarMorphism(dom, cod, entries)\n"
        "def _cobordism(m, n, components):\n"
        "    c = object.__new__(Cobordism)\n"
        "    return tuple.__new__(Cobordism, (m, n, tuple(components)))\n"
        "glued = object.__new__(cobordism.Cobordism)\n"
        "c = Cobordism(1, 1, [((1, 2), 0)])\n"
        "e = tuple.__new__(cobordism.Cobordism, (0, 0, ()))\n"
    )
    assert direct_builds(snippet, "KarMorphism", ("_kar_morphism",)) == [4]
    assert direct_builds(snippet, "FpMorphism", ("_fp_morphism",)) == [7]
    assert direct_builds(snippet, "Cobordism", ("_cobordism",)) == [12, 14]
    assert keyword_calls(snippet, "validate") == [6]


MUTATING = ("clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__")
TERMS_WRITERS = {"homspace": ("LinMorphism.__init__", "derived_lin")}


def assigned(target):
    """The single targets of an assignment target, unpacking tuples."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from assigned(elt)
    elif isinstance(target, ast.Starred):
        yield from assigned(target.value)
    else:
        yield target


def terms_mutations(source: str, scopes=()) -> list:
    """Line numbers of each assignment or deletion of .terms or
    .terms[...], and each mutating dict method called on .terms, outside
    the named scopes (see nodes_inside)."""

    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    tree = ast.parse(source)
    inside = nodes_inside(tree, scopes)
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING and is_terms(node.func.value):
                found.append(node.lineno)
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(
            is_terms(t) or (isinstance(t, ast.Subscript) and is_terms(t.value))
            for target in targets
            for t in assigned(target)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_no_shared_terms_are_mutated():
    """Memoised morphisms (x_j e_j, x and x', hom-space elements) are shared
    by every caller, so a LinMorphism's terms are set once, where it is
    built, and never changed."""
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in terms_mutations(path.read_text(), TERMS_WRITERS.get(path.stem, ()))
    ]
    assert found == []


def test_the_guard_sees_a_terms_mutation():
    snippet = (
        "class LinMorphism:\n"
        "    def __init__(self, dom, cod, terms):\n"
        "        self.terms = dict(terms)\n"
        "def scale_in_place(lin, c):\n"
        "    lin.terms = {d: c * v for d, v in lin.terms.items()}\n"
        "    lin.terms[d] = c\n"
        "    del lin.terms[d]\n"
        "    lin.terms.update(other.terms)\n"
        "    lin.terms.pop(d)\n"
        "    out.dom, out.terms = 1, {}\n"
        "    lin.terms |= other.terms\n"
        "    terms = dict(lin.terms)\n"
        "    terms[d] = lin.terms.get(d)\n"
        "    x[lin.terms] = 1\n"
    )
    assert terms_mutations(snippet, ("LinMorphism.__init__",)) == [5, 6, 7, 8, 9, 10, 11]


SUBSPACE_BUILDERS = {
    "homspace": ("ExactMatrix",),
    "karoubi": ("KarHom.__init__",),
    "fpfun": ("FpHomSpace.__init__",),
}


def test_only_matrices_and_hom_spaces_build_a_subspace():
    """Every other elimination reads an ExactMatrix, which eliminates each
    column once, left to right as far as its queries need."""
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in calls_outside(
            path.read_text(), "Subspace", SUBSPACE_BUILDERS.get(path.stem, ())
        )
    ]
    assert found == []


def test_the_guard_sees_a_subspace_built_elsewhere():
    snippet = (
        "class ExactMatrix:\n"
        "    def __init__(self, rows, columns, field):\n"
        "        self._space = Subspace(field)\n"
        "class KarHom:\n"
        "    def __init__(self, dom, cod):\n"
        "        self.space = Subspace(dom.field)\n"
        "    def span(self):\n"
        "        return homspace.Subspace(self.field)\n"
        "def check_uex(u, field):\n"
        "    image = Subspace(field)\n"
    )
    allowed = ("ExactMatrix", "KarHom.__init__")
    assert calls_outside(snippet, "Subspace", allowed) == [8, 10]


def method_calls(source: str, cls: str, callee: str) -> list:
    """(method, line) of each call to callee (by name or as an attribute)
    inside the methods of class cls."""
    tree = ast.parse(source)
    return sorted(
        (item.name, node.lineno)
        for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == cls
        for item in top.body
        if isinstance(item, ast.FunctionDef)
        for node in ast.walk(item)
        if isinstance(node, ast.Call)
        and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_a_matrix_eliminates_in_one_place():
    """ExactMatrix inserts a column into its Subspace only in the step that
    draws it, so solve cannot grow an elimination loop of its own."""
    source = (Path(diagcat.__file__).parent / "homspace.py").read_text()
    calls = method_calls(source, "ExactMatrix", "_insert")
    assert [method for method, _ in calls] == ["_draw"]


def test_the_guard_sees_a_second_elimination():
    snippet = (
        "class ExactMatrix:\n"
        "    def _draw(self):\n"
        "        return self._space._insert(next(self._pending))\n"
        "    def solve(self, b):\n"
        "        for col in self._pending:\n"
        "            self._space._insert(col)\n"
        "class Subspace:\n"
        "    def add(self, vec):\n"
        "        return self._insert(vec) is None\n"
    )
    assert method_calls(snippet, "ExactMatrix", "_insert") == [("_draw", 3), ("solve", 6)]


def summed_composites(source: str) -> list:
    """Line numbers of each + (binary or augmented) that takes a
    .compose(...) or glue(...) call, or a .scale(...) of one, as an
    operand."""

    def is_compose(node):
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "scale" and isinstance(node.func, ast.Attribute):
            return is_compose(node.func.value)
        return name == "glue" or name == "compose" and isinstance(node.func, ast.Attribute)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            operands = (node.value,)
        else:
            continue
        if any(is_compose(x) for x in operands):
            found.append(node.lineno)
    return sorted(found)


def test_no_sum_of_composites_is_built_term_by_term():
    """A sum of composites is one homspace.compose_sum, which normalises
    each coefficient once."""
    found = [
        f"{path.stem}:{line}"
        for path in MODULES
        for line in summed_composites(path.read_text())
    ]
    assert found == []


def test_the_guard_sees_a_summed_composite():
    snippet = (
        "acc = LinMorphism.zero(1, 0)\n"
        "acc = acc + p.compose(x, field)\n"
        "acc += q.compose(y, field)\n"
        "total = a.compose(b, field) + c\n"
        "ok = compose_sum(zip(ps, xs), 1, 0, field) + a.tensor(b, field)\n"
        "fine = a.compose(b, field) - c.compose(d, field)\n"
        "out = out + glue(cg, cf, datum).scale(af * ag)\n"
    )
    assert summed_composites(snippet) == [2, 3, 4, 7]


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def calls_in_loops(source: str, functions, callee: str) -> list:
    """Line numbers of calls to callee inside a loop or comprehension of
    the named functions ("name" at module level, "Class.method" in a
    class)."""
    scopes = named_functions(ast.parse(source))
    found = set()
    for name in functions:
        for loop in ast.walk(scopes[name]):
            if isinstance(loop, LOOPS):
                for node in ast.walk(loop):
                    func = getattr(node, "func", None)
                    if isinstance(node, ast.Call) and callee in (
                        getattr(func, "id", None),
                        getattr(func, "attr", None),
                    ):
                        found.add(node.lineno)
    return sorted(found)


def test_hom_spaces_and_splits_compose_through_the_kernel():
    """Each L . U . R of a Karoubi hom space or a split is one column of
    karoubi._sandwich, never a kar_compose per unit."""
    source = (Path(diagcat.__file__).parent / "karoubi.py").read_text()
    scopes = ("KarHom.__init__", "split_solve", "_split_witness")
    assert calls_in_loops(source, scopes, "kar_compose") == []


def test_the_guard_sees_a_composite_per_unit():
    snippet = (
        "class KarHom:\n"
        "    def __init__(self, dom, cod):\n"
        "        for u in units:\n"
        "            kar_compose(cut, kar_compose(u, cut))\n"
        "def split_solve(f):\n"
        "    gf = kar_compose(g, f)\n"
        "    return [karoubi.kar_compose(f, u) for u in gh.units]\n"
    )
    assert calls_in_loops(snippet, ("KarHom.__init__", "split_solve"), "kar_compose") == [4, 7]


def kernel_callees(monkeypatch, run):
    """The names among partition.compose and karoubi.sum_products that
    the kernel, karoubi._sandwich as it is when this is called, reached
    through those module attributes while run ran.  perfbench's tracer wraps a function at every module attribute
    that holds it, so the kernel must call what the attributes hold when
    it runs, not what they held when it was defined."""
    from diagcat import karoubi, partition

    kernel = karoubi._sandwich.__code__
    seen = set()
    for module, name in ((partition, "compose"), (karoubi, "sum_products")):
        original = getattr(module, name)

        def wrapper(*args, _original=original, _name=name):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not kernel:
                frame = frame.f_back
            if frame is not None:
                seen.add(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, wrapper)
    run()
    return seen


def split_of_x_tensor_f():
    """A split_solve over Q(t) whose kernel draws several columns, with its
    hom spaces built beforehand so that only the split's kernel runs, and
    the witness memo emptied before and after each run, so that the kernel
    runs and no witness of a replaced kernel is kept."""
    from diagcat import karoubi, moebius, partition
    from diagcat.homspace import parse_linmorphism
    from diagcat.scalar import FieldSpec

    field, everything = FieldSpec.generic(), partition.DiagramClass.ALL
    x2 = karoubi.kar_object(2, moebius.x_e(2, field), everything, field)
    g = parse_linmorphism("(1)/(t-1) * 1 | 2 | 1' + (t+2) * 1 2 | 1'", field)
    f = karoubi.kar_tensor(
        karoubi.KarMorphism.identity(x2), karoubi.KarMorphism.from_lin(g, everything, field)
    )
    karoubi.kar_hom(f.cod, f.dom)
    karoubi.kar_hom(f.dom, f.cod)

    def split():
        karoubi._split_witness.cache_clear()
        try:
            return karoubi.split_solve(f)
        finally:
            karoubi._split_witness.cache_clear()

    return split


def test_the_kernel_reaches_its_callees_at_call_time(monkeypatch):
    from diagcat import karoubi, partition
    from diagcat.homspace import hom_basis
    from diagcat.scalar import FieldSpec

    field = FieldSpec.generic()
    obj = karoubi.KarObject.word(1, partition.DiagramClass.ALL, field)
    cut = obj.cut
    slots = {(0, 0): hom_basis(partition.DiagramClass.ALL, 1, 1)}
    units = [((0, 0), d) for d in slots[0, 0]]

    def hom_space_style():
        list(karoubi._sandwich(cut, cut, units, slots, field))

    assert kernel_callees(monkeypatch, hom_space_style) == {"compose", "sum_products"}
    split = split_of_x_tensor_f()
    assert kernel_callees(monkeypatch, split) == {"compose", "sum_products"}


def test_the_guard_sees_a_kernel_that_bypasses_the_attributes(monkeypatch):
    from diagcat import karoubi, partition

    split = split_of_x_tensor_f()
    compose, sum_products = partition.compose, karoubi.sum_products

    def bound_early(left, right, units, slot_index, field):
        # a kernel that reaches callees bound before any wrapper was set
        for (i, j), d in units:
            for y in right[j]:
                for dy in y.terms:
                    compose(d, dy)
            yield sum_products({}, field)

    monkeypatch.setattr(karoubi, "_sandwich", bound_early)
    assert kernel_callees(monkeypatch, split) == set()


def test_the_benchmark_tracer_reaches_every_traced_binding():
    """perfbench/pb_trace.py wraps package functions and class methods by
    name; a refactor that drops, renames or rebinds one of them must fail
    here, not only in a traced benchmark run."""
    from diagcat import fpfun, karoubi, partition
    from diagcat.scalar import FieldSpec

    path = Path(diagcat.__file__).parents[2] / "perfbench" / "pb_trace.py"
    spec = importlib.util.spec_from_file_location("pb_trace", path)
    pb_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pb_trace)
    tracer = pb_trace.Tracer()
    installation = pb_trace.Installation(tracer)
    try:
        assert installation.escapes() == []
        # the hooks of these two layers read KarObject.key and
        # KarMorphism.to_text; a fresh build of each runs them
        karoubi.kar_hom.cache_clear()
        fpfun.fp_hom_space.cache_clear()
        a = karoubi.KarObject.word(1, partition.DiagramClass.ALL, FieldSpec.generic())
        karoubi.kar_hom(a, a)
        fpfun.fp_hom_space(fpfun.yoneda(a), fpfun.yoneda(a))
    finally:
        installation.remove()
    for layer in ("karoubi.kar_hom", "fpfun.fp_hom_space"):
        assert tracer.layers[layer].calls >= 1
        assert tracer.layers[layer].extra["repeats"] == 0
