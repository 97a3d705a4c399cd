"""Every public function, class and method of sketchpca has a caller.

A module-level function or class counts as used when code under src/ or
perfbench/ refers to it outside its own definition: as a Name, an
Attribute, or a string constant naming it (bare or dotted, as in
"Cluster.map_machines").

A method C.m counts as used only through a reference that can reach C:
- self.m or cls.m inside C;
- X.m where X is C itself, a call of C, or a name or attribute bound to one;
- X.m where X is a call of a function annotated -> C, or X is annotated C;
- X.m on a receiver the check cannot resolve, which counts for every class
  that has a method m;
- the dotted string "C.m".
A receiver bound to a value from outside sketchpca (a literal, or a
hashlib, numpy or other stdlib call) reaches no class, and no other string
counts.  A name bound several times holds every kind of value it is bound
to.

Names that only tests reach are listed below with the reason they stay;
anything else that loses its last caller should be deleted, not added here.
"""

import ast
import builtins
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sketchpca"

# qualified name -> why it stays without a caller in src/ or perfbench/
KEPT = {
    "arbitrary_partition.rank_test":
        "acceptance contract test_rank_probe_classifies_boundary_ranks imports it",
    "column_select.adaptive_cols":
        "acceptance contract test_adaptive_sampling_expectation_bound imports it",
    "linalg.residual_ratio":
        "test reference: the ratio tests compare protocol output against",
    "column_select.SamplingMatrix.materialize":
        "test reference: the dense S that apply_to is checked against",
    "sparse.SparseColMatrix.from_columns":
        "test reference: the per-column loop the vectorized storage is checked against",
    "sparse.SparseColMatrix.col_sqnorms":
        "kept with its loop by a ROADMAP decision (vectorizing it changes the bits)",
    "cluster.CommLedger.to_json_lines":
        "the planned --trace output builds on it (ROADMAP item 8)",
    "cluster.Cluster.machine_of_column":
        "test reference: locates a shipped column's source for the verbatim-copy checks",
    "column_select_sparse.TouchCounter.reset":
        "the pinned entry-touch tests zero the process-wide counter with it",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _references(node) -> Counter:
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and _DOTTED.fullmatch(n.value)):
            out.update(n.value.split("."))
    return out


def _public_definitions():
    """(qualified name, bare name, definition node) for module-level public
    functions and classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name, node


# -- the class-aware method check ------------------------------------------
#
# The kinds of a value are a frozenset of tuples: ("cls", C) for package
# class C or an instance of it, ("mod", name) for a package module,
# ("fn", def, scope) for a function, ("meth", C, m) for method C.m, and ANY
# for a value the check cannot resolve.  The empty set is a value from
# outside the package.

ANY = ("any",)
_EXTERNAL = frozenset()
_UNKNOWN = frozenset({ANY})
# builtins whose result may be one of their arguments
_PASSTHROUGH = {"getattr", "max", "min", "next", "super"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = _FUNCTIONS + _COMPREHENSIONS + (ast.ClassDef,)
_LITERALS = _COMPREHENSIONS + (ast.Constant, ast.Dict, ast.List, ast.Set, ast.Tuple,
                               ast.JoinedStr, ast.Compare)


def _own_nodes(node):
    """The nodes under node in its own scope: nested scopes are yielded but
    not entered."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _decorated(fn, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name
               for d in getattr(fn, "decorator_list", ()))


class _Scope:
    """The bindings of one module, function or comprehension: name -> its
    sources, each ("value", expr), ("ann", annotation), ("from", module,
    name) or ("kinds", frozenset)."""

    def __init__(self, parent):
        self.parent = parent
        self.names: dict[str, list] = {}

    def bind(self, name: str, source) -> None:
        self.names.setdefault(name, []).append(source)

    def lookup(self, name: str):
        scope = self
        while scope is not None and name not in scope.names:
            scope = scope.parent
        return scope


class _Surface:
    """The classes of the package modules, and the kinds of value that any
    module's expressions can hold, so that each method reference is counted
    for the classes its receiver can reach."""

    def __init__(self, package: dict[str, ast.Module]):
        self.classes = {node.name: (mod, node) for mod, tree in package.items()
                        for node in tree.body if isinstance(node, ast.ClassDef)}
        self._scopes: dict[ast.AST, _Scope] = {}
        self._memo: dict = {}
        self.scopes = {mod: self._scope(tree, None, None) for mod, tree in package.items()}

    # -- scopes -----------------------------------------------------------

    def _scope(self, node, parent, cls) -> _Scope:
        """The scope node opens.  cls names the class whose body holds a
        method node, so its first parameter is an instance of cls: a package
        class, or "" for a class from outside the package."""
        if node in self._scopes:
            return self._scopes[node]
        scope = self._scopes[node] = _Scope(parent)
        if isinstance(node, _FUNCTIONS):
            args = node.args
            for i, a in enumerate(args.posonlyargs + args.args + args.kwonlyargs):
                if i == 0 and cls is not None and not _decorated(node, "staticmethod"):
                    scope.bind(a.arg, ("kinds", frozenset({("cls", cls)}) if cls else _EXTERNAL))
                else:
                    scope.bind(a.arg, ("ann", a.annotation))
            for a in (args.vararg, args.kwarg):
                if a is not None:
                    scope.bind(a.arg, ("kinds", _UNKNOWN))
        for n in _own_nodes(node):
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                self._import(scope, n)
            elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.bind(n.name, ("kinds", frozenset({("fn", n, scope)})))
            elif isinstance(n, ast.ClassDef):
                known = self.classes.get(n.name, (None, None))[1] is n
                scope.bind(n.name, ("kinds", frozenset({("cls", n.name)}) if known else _EXTERNAL))
            elif isinstance(n, (ast.Assign, ast.NamedExpr)):
                for t in n.targets if isinstance(n, ast.Assign) else [n.target]:
                    if isinstance(t, ast.Name):
                        scope.bind(t.id, ("value", n.value))
                    else:
                        self._bind_unknown(scope, t)
            elif isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
                scope.bind(n.target.id, ("ann", n.annotation))
            elif isinstance(n, (ast.For, ast.AsyncFor, ast.comprehension)):
                self._bind_unknown(scope, n.target)
            elif isinstance(n, ast.withitem) and n.optional_vars is not None:
                self._bind_unknown(scope, n.optional_vars)
            elif isinstance(n, ast.ExceptHandler) and n.name:
                scope.bind(n.name, ("kinds", _UNKNOWN))
        return scope

    @classmethod
    def _bind_unknown(cls, scope: _Scope, target) -> None:
        """Bind the names an unpacking target assigns; a subscript or
        attribute target binds none."""
        if isinstance(target, ast.Name):
            scope.bind(target.id, ("kinds", _UNKNOWN))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                cls._bind_unknown(scope, e)
        elif isinstance(target, ast.Starred):
            cls._bind_unknown(scope, target.value)

    def _import(self, scope: _Scope, node) -> None:
        if isinstance(node, ast.Import):
            for a in node.names:
                inside = a.name.split(".")[0] == "sketchpca"
                kinds = (_EXTERNAL if not inside else _UNKNOWN if not a.asname
                         else frozenset({("mod", a.name.split(".")[-1])}))
                scope.bind(a.asname or a.name.split(".")[0], ("kinds", kinds))
            return
        src = node.module or ""
        inside = node.level > 0 or src.split(".")[0] == "sketchpca"
        src = "" if src == "sketchpca" else src.split(".")[-1]
        for a in node.names:
            name = a.asname or a.name
            if not inside:
                scope.bind(name, ("kinds", _EXTERNAL))
            elif a.name in self.classes:
                scope.bind(name, ("kinds", frozenset({("cls", a.name)})))
            elif not src:
                scope.bind(name, ("kinds", frozenset({("mod", a.name)})))
            else:
                scope.bind(name, ("from", src, a.name))

    # -- kinds of values ----------------------------------------------------

    def _name(self, name: str, scope: _Scope) -> frozenset:
        owner = scope.lookup(name)
        if owner is None:
            return _EXTERNAL if hasattr(builtins, name) else _UNKNOWN
        key = (owner, name)
        if key not in self._memo:
            self._memo[key] = _UNKNOWN      # a binding that refers to itself
            self._memo[key] = frozenset().union(
                *(self._source(s, owner) for s in owner.names[name]))
        return self._memo[key]

    def _source(self, source, scope: _Scope) -> frozenset:
        kind, *rest = source
        if kind == "kinds":
            return rest[0]
        if kind == "value":
            return self.kinds(rest[0], scope)
        if kind == "ann":
            return self.annotation(rest[0], scope)
        mod, name = rest
        return self._name(name, self.scopes[mod]) if mod in self.scopes else _UNKNOWN

    def annotation(self, node, scope: _Scope) -> frozenset:
        if node is None:
            return _UNKNOWN
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body, scope)
        if isinstance(node, ast.BinOp):
            return self.annotation(node.left, scope) | self.annotation(node.right, scope)
        if isinstance(node, ast.Subscript):
            return self.annotation(node.value, scope)
        return self.kinds(node, scope)

    def _method(self, cls: str, name: str):
        """(owner class, definition) of cls.name, looked up through the
        package bases, or None."""
        todo = [cls]
        while todo:
            mod, node = self.classes.get(todo.pop(0), (None, None))
            for sub in node.body if node else ():
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.name == name:
                    return node.name, sub
            todo += [b.id for b in node.bases if isinstance(b, ast.Name)] if node else []
        return None

    def _returns(self, cls: str, fn) -> frozenset:
        return self.annotation(fn.returns, self.scopes[self.classes[cls][0]])

    def _attribute(self, cls: str, name: str) -> frozenset:
        """Kinds of attribute name of an instance of cls: a method, a
        property's annotation, a field's annotation, or what the methods
        assign to self.name."""
        found = self._method(cls, name)
        if found is not None:
            owner, fn = found
            if _decorated(fn, "property"):
                return self._returns(owner, fn)
            return frozenset({("meth", owner, name)})
        mod, node = self.classes[cls]
        out = set()
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and getattr(sub.target, "id", None) == name:
                out |= self.annotation(sub.annotation, self.scopes[mod])
            if isinstance(sub, ast.FunctionDef) and sub.args.args:
                me = sub.args.args[0].arg
                for n in _own_nodes(sub):
                    if isinstance(n, ast.Assign) and any(
                            isinstance(t, ast.Attribute) and t.attr == name
                            and getattr(t.value, "id", None) == me for t in n.targets):
                        out |= self.kinds(n.value, self._scope(sub, self.scopes[mod], cls))
        return frozenset(out) or _UNKNOWN

    def kinds(self, node, scope: _Scope) -> frozenset:
        if isinstance(node, ast.Name):
            return self._name(node.id, scope)
        if isinstance(node, ast.Attribute):
            if node.attr in self.classes:
                return frozenset({("cls", node.attr)})
            out = set()
            for k in self.kinds(node.value, scope):
                if k[0] == "cls":
                    out |= self._attribute(k[1], node.attr)
                elif k[0] == "mod" and k[1] in self.scopes:
                    out |= self._name(node.attr, self.scopes[k[1]])
                else:
                    out.add(ANY)
            return frozenset(out)
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in _PASSTHROUGH and scope.lookup(f.id) is None:
                return _UNKNOWN
            out = set()
            for k in self.kinds(f, scope):
                if k[0] == "cls":
                    out.add(k)
                elif k[0] == "fn":
                    out |= self.annotation(k[1].returns, k[2])
                elif k[0] == "meth":
                    out |= self._returns(k[1], self._method(k[1], k[2])[1])
                else:
                    out.add(ANY)
            return frozenset(out)
        if isinstance(node, (ast.IfExp, ast.BoolOp)):
            parts = node.values if isinstance(node, ast.BoolOp) else [node.body, node.orelse]
            return frozenset().union(*(self.kinds(p, scope) for p in parts))
        return _EXTERNAL if isinstance(node, _LITERALS) else _UNKNOWN

    # -- references ----------------------------------------------------------

    def uses(self, tree, scope: _Scope) -> Counter:
        """(class, method) -> the references to it in tree, outside the
        method's own definition."""
        out = Counter()
        self._visit(tree, scope, None, None, out)
        return out

    def _visit(self, node, scope, cls, own, out) -> None:
        """Count the references under node.  cls names the class whose body
        holds node (as in _scope), own the (class, method) whose definition
        holds it."""
        if isinstance(node, _FUNCTIONS):
            args = node.args
            for d in (getattr(node, "decorator_list", []) + args.defaults
                      + [d for d in args.kw_defaults if d is not None]):
                self._visit(d, scope, None, own, out)
            inner = self._scope(node, scope, cls)
            if cls is not None and not isinstance(node, ast.Lambda):
                own = (cls, node.name)
            for stmt in node.body if isinstance(node.body, list) else [node.body]:
                self._visit(stmt, inner, None, own, out)
            return
        if isinstance(node, ast.ClassDef):
            known = self.classes.get(node.name, (None, None))[1] is node
            for stmt in node.bases + node.decorator_list:
                self._visit(stmt, scope, None, own, out)
            for stmt in node.body:
                self._visit(stmt, scope, node.name if known else "", own, out)
            return
        if isinstance(node, _COMPREHENSIONS):
            scope = self._scope(node, scope, None)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            for k in self.kinds(node.value, scope):
                if k[0] == "cls":
                    found = self._method(k[1], node.attr)
                    hits = [found[0]] if found else []
                elif k is ANY:
                    hits = [c for c in self.classes if self._method(c, node.attr)
                            and self._method(c, node.attr)[0] == c]
                else:
                    hits = []
                for c in hits:
                    if (c, node.attr) != own:
                        out[c, node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = tuple(node.value.split("."))
            if len(parts) == 2 and parts[0] in self.classes and parts != own:
                out[parts] += 1
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope, None, own, out)


def unused_methods(package: dict[str, str], callers: dict[str, str]) -> set[str]:
    """Qualified names (module.Class.method) of the public methods of the
    package's public classes that no caller module reaches.  Both maps take
    a module name to its source; a caller that is also a package module is
    read in the package's own scope."""
    trees = {mod: ast.parse(text) for mod, text in package.items()}
    surface = _Surface(trees)
    used = Counter()
    for mod, text in callers.items():
        if mod in trees:
            used += surface.uses(trees[mod], surface.scopes[mod])
        else:
            tree = ast.parse(text)
            used += surface.uses(tree, surface._scope(tree, None, None))
    return {f"{mod}.{c}.{sub.name}"
            for c, (mod, node) in surface.classes.items() if not c.startswith("_")
            for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not sub.name.startswith("_") and not used[c, sub.name]}


def test_every_public_name_has_a_caller_or_a_reason():
    total = Counter()
    callers = {}
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            text = path.read_text()
            total += _references(ast.parse(text))
            callers[path.stem if path.parent == PACKAGE else f"{tree}/{path.stem}"] = text
    unused = {qual for qual, name, node in _public_definitions()
              if total[name] - _references(node)[name] <= 0}
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unused |= unused_methods(package, callers)
    assert unused == set(KEPT), (
        f"no caller and no reason: {sorted(unused - set(KEPT))}; "
        f"listed but now called or gone: {sorted(set(KEPT) - unused)}")


# A class whose update() nothing reaches, next to the things named update
# that a bare-name match counts as its callers: a hashlib digest, a dict
# literal, names bound to each, and strings.
_SYNTHETIC = """
import hashlib

class C:
    def update(self, x):
        return x

    def other(self):
        return 0

def uses():
    hashlib.blake2b().update(b"")
    {}.update({})
    digest = hashlib.blake2b()
    digest.update(b"")
    table = {}
    table.update({})
    return ("C", "update"), "update"
"""


def _flagged(text: str) -> set[str]:
    return unused_methods({"synthetic": text}, {"synthetic": text})


def test_names_that_cannot_reach_the_class_do_not_count():
    assert _flagged(_SYNTHETIC) == {"synthetic.C.update", "synthetic.C.other"}


@pytest.mark.parametrize("reference", [
    "self",
    "\ndef call():\n    return C().update(1)\n",
    "\ndef bound():\n    c = C()\n    return c.update(1)\n",
    "\nREF = C.update\n",
    "\ndef param(c: C):\n    return c.update(1)\n",
    "\ndef make() -> 'C':\n    return C()\n\ndef made():\n    return make().update(1)\n",
    "\ndef blind(c):\n    return c.update(1)\n",
    "\nNAMES = ['C.update']\n",
], ids=["self", "call", "bound", "class", "annotated", "returns", "unresolved", "dotted"])
def test_a_reference_that_reaches_the_class_counts(reference):
    if reference == "self":
        text = _SYNTHETIC.replace("return 0", "return self.update(0)")
    else:
        text = _SYNTHETIC + reference
    assert _flagged(text) == {"synthetic.C.other"}
