"""Every module-level private name in the package is used somewhere in the
package outside its own definition: a private helper, table or constant
that nothing reads any more is dead code, and so is a private method,
class attribute, slot or self attribute of a class that nothing in the
package reads.  Every name a module imports is used in that module (the
package's __init__ only re-exports).  Immutability is written once, in
`scalar.Frozen`, and every slotted class derives from it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "operadlab"


def _defined(stmt):
    """The private names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _mentions(tree):
    """(identifier, node) for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def dead_private_names(modules):
    """module name -> parsed source; returns 'module.name' for each
    private definition that is mentioned nowhere outside itself."""
    mentions = [(ident, node) for tree in modules.values()
                for ident, node in _mentions(tree)]
    dead = []
    for mod, tree in sorted(modules.items()):
        for stmt in tree.body:
            inside = {id(n) for n in ast.walk(stmt)}
            for name in _defined(stmt):
                if not any(ident == name and id(node) not in inside
                           for ident, node in mentions):
                    dead.append(f"{mod}.{name}")
    return dead


def test_every_private_name_is_used():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(modules) == []


def test_the_guard_finds_a_leftover():
    tree = ast.parse("import re\n"
                     "_PUNCT = set('{}')\n"
                     "_TOKEN = re.compile('x')\n"
                     "def _walk(n):\n    return _walk(n - 1)\n"
                     "def scan(t):\n    return _TOKEN.finditer(t)\n")
    assert dead_private_names({"m": tree}) == ["m._PUNCT", "m._walk"]


BENCH = SRC.parent.parent / "bench"

# public names that nothing in the package or the benchmark reaches, each
# kept for a reason; anything else that only the tests reach is dead code
KEPT = {
    # reference oracles the tests check the decision procedures against
    "checkers.check_coassoc": "the coassociativity equations, checked directly",
    "checkers.check_counit": "the counit equations, checked directly",
    "checkers.coassoc_family": "names the coassociative family of a diagonal",
    "checkers.DiagonalCandidate.numeric": "a diagonal with rational entries",
    "checkers.DiagonalCandidate.at": "the family at a given B, to re-check a witness",
    "quantize.TPoly.dx": "the x-derivative behind the Moyal formula's oracle",
    "quantize.TPoly.dp": "the p-derivative behind the Moyal formula's oracle",
    "rep.verify_table": "the character table's orthogonality relations",
    # the paper's vocabulary, in which the acceptance suite states its criteria
    "checkers.check_implies": "criterion 3: one relation space implies a relation",
    "checkers.verify_identity": "criterion 3: two expressions are one vector",
    "presentation.parse_relation": "criteria 3 and 6 write relations as text",
    "presentation.RelationExpr.of": "a single monomial as a relation",
    "quantize.classical_limit": "criterion 7: the star product at t = 0",
    "mlab.bracket": "criterion 8: the commutator of the composition",
    "mlab.master_residual": "criterion 8d: the graded pieces of the master equation",
    # constructors
    "free3.basis_vector": "the i-th basis vector of a shape",
    "mlab.MultiMap.identity": "the identity map on V",
    "quantize.TPoly.truncated": "an element cut at t^n, as the tests build partial data",
    "scalar.Scalar.as_fraction": "a rational Scalar as a Fraction",
}


def _public_definitions(tree):
    """(qualified name, definition) for each public module-level function
    and class and each public method of a module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not stmt.name.startswith("_"):
                yield stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                for m in stmt.body:
                    if (isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not m.name.startswith("_")):
                        yield f"{stmt.name}.{m.name}", m


def unreached_public_names(modules, bench):
    """module name -> parsed source of the package, and the parsed sources
    of the benchmark; returns 'module.name' for each public definition that
    neither the package, outside the definition itself and the re-exports
    of __init__, nor the benchmark mentions.  Any mention of a function's
    or class's name reaches it; a method is reached only through an
    attribute, and not through `D.name` with D another package class, so a
    local of the same name or another class's method does not hide it.
    The tracer names its targets in strings, so each dotted part of a
    benchmark string is a mention."""
    classes = {stmt.name for tree in modules.values() for stmt in tree.body
               if isinstance(stmt, ast.ClassDef)}
    sources = [tree for mod, tree in modules.items() if mod != "__init__"] + bench
    mentions = {}
    for tree in sources:
        for ident, node in _mentions(tree):
            mentions.setdefault(ident, []).append(node)
    strings = {part for tree in bench for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)
               for part in n.value.split(".")}

    def reaches(node, owner, inside):
        if id(node) in inside:
            return False
        return not owner or (isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and node.value.id in classes - {owner}))

    unreached = []
    for mod, tree in sorted(modules.items()):
        for qual, stmt in _public_definitions(tree):
            owner, _, name = qual.rpartition(".")
            inside = {id(n) for n in ast.walk(stmt)}
            if name not in strings and not any(
                    reaches(node, owner, inside) for node in mentions.get(name, ())):
                unreached.append(f"{mod}.{qual}")
    return unreached


def test_every_public_name_is_reached_or_kept():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(BENCH.glob("*.py"))]
    assert sorted(unreached_public_names(modules, bench)) == sorted(KEPT)


def test_the_public_guard_finds_a_leftover():
    tree = ast.parse("class Box:\n"
                     "    def __init__(self):\n"
                     "        self.fill()\n"
                     "    def fill(self):\n"
                     "        return 1\n"
                     "    def spare(self):\n"
                     "        return self.spare()\n"
                     "    def traced(self):\n"
                     "        pass\n"
                     "    def shadowed(self):\n"
                     "        pass\n"
                     "    def lid(self):\n"
                     "        pass\n"
                     "    def made(self):\n"
                     "        pass\n"
                     "class Crate:\n"
                     "    def lid(self):\n"
                     "        return Box.made()\n"
                     "def tested_only(b):\n"
                     "    shadowed = Crate.lid(b)\n"
                     "    return Box(), shadowed\n")
    reexport = ast.parse("from .m import Box, tested_only\n")
    bench = ast.parse("TARGETS = [('m.Box.traced', None, 'traced')]\n")
    # a local named like a method, and another class's method called
    # through its class, reach neither Box.shadowed nor Box.lid
    assert unreached_public_names({"m": tree, "__init__": reexport}, [bench]) == [
        "m.Box.spare", "m.Box.shadowed", "m.Box.lid", "m.tested_only"]


# the private names one package module takes from another, each with its
# reason; ROADMAP item 26 (one elimination core) is the plan for all five
CROSSING = {
    "checkers -> free3._eliminate": "reduces the Hopf images against R's echelon rows",
    "checkers -> free3._rref": "echelons the Hopf constraints in B",
    "presentation -> free3._normalize": "a monomial's canonical basis index and sign",
    "presentation -> free3._residues": "the specialisation certificate's residues",
    "presentation -> free3._residue_rank": "the specialisation certificate's rank",
}


def private_crossings(modules):
    """module name -> parsed source; returns 'importer -> m._x' for each
    `from .m import _x` and each `m._x` in a module other than m."""
    found = set()
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in modules:
                names = [(node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            else:
                names = []
            found |= {f"{mod} -> {m}.{name}" for m, name in names
                      if m in modules and m != mod and name.startswith("_")
                      and not name.endswith("__")}
    return found


def test_private_names_cross_modules_only_as_listed():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py"))}
    assert private_crossings(modules) == set(CROSSING)


def test_the_crossing_guard_finds_a_new_one():
    user = ast.parse("from . import free3\n"
                     "from .free3 import EShape, _rref\n"
                     "from .scalar import _peval\n"
                     "def f(s):\n"
                     "    return free3._normalize(s), free3.__name__, s._own\n")
    own = ast.parse("def _own():\n    return _own\n")
    assert private_crossings({"checkers": user, "free3": own, "scalar": own}) == {
        "checkers -> free3._rref", "checkers -> scalar._peval",
        "checkers -> free3._normalize"}


def _members(cls):
    """(name, definition) for each private method, class attribute, slot
    and self attribute a class defines."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id == "__slots__" and stmt.value:
                    for n in ast.walk(stmt.value):
                        if isinstance(n, ast.Constant) and isinstance(n.value, str):
                            yield n.value, stmt
                elif isinstance(t, ast.Name):
                    yield t.id, stmt
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr, node


def dead_private_members(modules):
    """module name -> parsed source; returns 'module.Class.name' for each
    private method, class attribute, slot or self attribute of a class
    that nothing in the package reads outside its own definition."""
    reads = [(node.attr, node) for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)]
    dead = []
    for mod, tree in sorted(modules.items()):
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for name, where in _members(cls):
                inside = {id(n) for n in ast.walk(where)}
                if (name.startswith("_") and not name.endswith("__")
                        and f"{mod}.{cls.name}.{name}" not in dead
                        and not any(attr == name and id(node) not in inside
                                    for attr, node in reads)):
                    dead.append(f"{mod}.{cls.name}.{name}")
    return dead


def test_every_private_member_is_read():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py"))}
    assert dead_private_members(modules) == []


def test_the_member_guard_finds_a_leftover():
    tree = ast.parse("class Box:\n"
                     "    __slots__ = ('_kept', '_lost')\n"
                     "    _CACHE = {}\n"
                     "    def __init__(self):\n"
                     "        self._kept = self._spare = 1\n"
                     "    def _walk(self, n):\n"
                     "        return self._walk(n - 1)\n"
                     "    def _read(self):\n"
                     "        return self._kept\n"
                     "    def value(self):\n"
                     "        return self._read()\n")
    assert dead_private_members({"m": tree}) == [
        "m.Box._lost", "m.Box._CACHE", "m.Box._walk", "m.Box._spare"]


def unused_imports(tree):
    """The names the module's imports bind that the module never reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(name)
    return unused


def test_every_import_is_used():
    unused = {p.stem: unused_imports(ast.parse(p.read_text(encoding="utf-8")))
              for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert {mod: names for mod, names in unused.items() if names} == {}


def test_the_import_guard_finds_a_leftover():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import re as regex\n"
                     "from .scalar import Scalar, as_scalar\n"
                     "def f(x):\n"
                     "    import math\n"
                     "    return as_scalar(x)\n")
    assert unused_imports(tree) == ["os", "regex", "Scalar", "math"]


def frozen_policy_breaches(modules):
    """module name -> parsed source; returns 'module.Class' for each class
    other than scalar.Frozen that defines __setattr__, and for each class
    with a non-empty __slots__ that does not have Frozen as a base."""
    breaches = []
    for mod, tree in sorted(modules.items()):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bound = {}
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    bound[stmt.name] = stmt
                elif isinstance(stmt, ast.Assign):
                    for t in stmt.targets:
                        if isinstance(t, ast.Name):
                            bound[t.id] = stmt.value
            slots = bound.get("__slots__")
            slotted = slots is not None and not (
                isinstance(slots, (ast.Tuple, ast.List)) and not slots.elts)
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                     for b in node.bases}
            if ("__setattr__" in bound and (mod, node.name) != ("scalar", "Frozen")
                    or slotted and "Frozen" not in bases):
                breaches.append(f"{mod}.{node.name}")
    return breaches


def test_only_frozen_guards_assignment():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py"))}
    assert frozen_policy_breaches(modules) == []


def test_the_frozen_guard_finds_a_copy():
    tree = ast.parse("class Frozen:\n"
                     "    __slots__ = ()\n"
                     "    def __setattr__(self, name, value):\n"
                     "        raise AttributeError(name)\n"
                     "class Kept(Frozen):\n    __slots__ = ('a',)\n"
                     "class Loose:\n    __slots__ = ('b',)\n"
                     "class Guarded(scalar.Frozen):\n"
                     "    __slots__ = 'c'\n"
                     "    __setattr__ = Frozen.__setattr__\n"
                     "class Empty:\n    __slots__ = ()\n"
                     "class Plain:\n"
                     "    def __setattr__(self, *a):\n        pass\n")
    assert frozen_policy_breaches({"scalar": tree}) == [
        "scalar.Loose", "scalar.Guarded", "scalar.Plain"]
    assert frozen_policy_breaches({"free3": tree}) == [
        "free3.Frozen", "free3.Loose", "free3.Guarded", "free3.Plain"]
