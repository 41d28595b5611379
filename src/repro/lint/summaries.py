"""Interprocedural function summaries and the shared abstract evaluator.

The determinism pass (:mod:`repro.lint.determinism`) is a per-function
dataflow walk; what makes it *interprocedural* is the summary table built
here.  For every function in the linted file set we compute, to a fixed
point over the call graph, ``returns_unordered``: the return value is an
unordered collection (``set``/``frozenset``), so iterating it is
nondeterministic.

Calls are resolved across modules through each file's import graph
(relative imports are resolved against the module name derived from the
file's path under ``src/``).  An unresolved call returns an ordered value.

The value lattice (:class:`ValueInfo`) tracks, per abstract value:

* ``unordered`` / ``reason`` — iteration order is nondeterministic and why
  (``"set"``, ``"dict"`` for nondeterministically-keyed dicts, ``"id"``
  for ``id()``-keyed containers);
* ``element_unordered`` — an ordered container whose *elements* are
  unordered collections (``[set() for _ in ...]``: indexing yields a set);
* ``tainted`` — the value is an element drawn from an unordered iteration
  (keying a dict with it makes the dict's order nondeterministic).

``list``/``tuple``/``dict``/``sorted`` results are treated as ordered.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

# -- call classification tables ---------------------------------------------

#: accessor methods: the result is an element or view of the receiver
ACCESSOR_METHODS = frozenset({"get", "items", "keys", "values"})

#: methods returning a fresh buffer / immutable scalar
FRESH_METHODS = frozenset({
    "copy", "deepcopy", "tobytes", "tolist", "item", "sum", "min", "max",
    "mean", "dot", "astype", "flatten", "conj", "cumsum", "prod",
    "nbytes", "count", "index", "hexdigest", "digest", "format", "join",
})

#: builtins returning an immutable scalar or a new ordered container
FRESH_BUILTINS = frozenset({
    "float", "int", "str", "bool", "bytes", "len", "abs", "round",
    "repr", "hash", "sum", "min", "max", "divmod", "pow", "ord", "chr",
    "isinstance", "issubclass", "any", "all", "id", "range",
    "list", "tuple", "dict", "sorted",
})

#: builtins yielding the argument's own elements, in the argument's order
ELEMENT_BUILTINS = frozenset({
    "reversed", "zip", "enumerate", "iter", "next", "filter", "map",
})

#: builtins returning unordered collections
UNORDERED_BUILTINS = frozenset({"set", "frozenset"})


def flatten_dotted(expr):
    """``a.b.c`` -> ["a", "b", "c"]; None if not a pure name chain."""
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        parts.reverse()
        return parts
    return None


def module_name_for_path(path: str) -> str:
    """Dotted module name from a file path (rooted at a ``src/`` component,
    else the file stem)."""
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "<module>"


def build_import_env(tree: ast.AST, modname: str,
                     is_package: bool = False) -> dict:
    """Map local names to dotted targets from the module's imports and
    top-level function defs.

    ``is_package`` means the tree is a package ``__init__`` whose dotted
    name already lost its ``__init__`` component, so relative imports
    resolve against the package itself (``from .tasks import f`` in
    ``repro/numfact/__init__.py`` targets ``repro.numfact.tasks.f``).
    """
    env = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    env[alias.asname] = alias.name
                else:
                    first = alias.name.split(".")[0]
                    env[first] = first
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = modname.split(".")
                drop = node.level - (1 if is_package else 0)
                base = base[: len(base) - drop] if drop else base
                base = base or [""]
                target = ".".join(base)
                if node.module:
                    target = f"{target}.{node.module}" if target else node.module
            else:
                target = node.module or ""
            for alias in node.names:
                bound = alias.asname or alias.name
                env[bound] = f"{target}.{alias.name}" if target else alias.name
    for node in tree.body if hasattr(tree, "body") else []:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env.setdefault(node.name, f"{modname}.{node.name}")
    return env


@dataclass
class FunctionSummary:
    """Computed summary of one function."""

    returns_unordered: bool = False


class ProjectSummaries:
    """Summary table plus per-module call-resolution environments."""

    def __init__(self):
        self.functions = {}      # qualname -> FunctionSummary
        self.module_env = {}     # path -> {local name -> dotted target}
        self.module_name = {}    # path -> dotted module name
        self.env_by_module = {}  # dotted module name -> its import env

    def canonicalize(self, qual: str) -> str:
        """Follow package re-exports: ``repro.numfact.factor_block_column``
        resolves through ``repro/numfact/__init__.py``'s imports to the
        defining module's qualname."""
        for _ in range(5):
            if qual in self.functions:
                return qual
            if "." not in qual:
                return qual
            mod, leaf = qual.rsplit(".", 1)
            target = self.env_by_module.get(mod, {}).get(leaf)
            if target is None or target == qual:
                return qual
            qual = target
        return qual

    def resolve_qualname(self, func_expr, path: str):
        """Dotted target of a call's ``func`` expression, or None."""
        parts = flatten_dotted(func_expr)
        if not parts:
            return None
        env = self.module_env.get(path, {})
        base = env.get(parts[0])
        if base is not None:
            return self.canonicalize(".".join([base] + parts[1:]))
        if len(parts) == 1:
            return self.canonicalize(
                f"{self.module_name.get(path, '<module>')}.{parts[0]}")
        return None


# -- the value lattice -------------------------------------------------------


class ValueInfo:
    """Abstract value: order provenance."""

    __slots__ = ("unordered", "reason", "element_unordered", "tainted")

    def __init__(self, unordered=False, reason="set",
                 element_unordered=False, tainted=False):
        self.unordered = unordered
        self.reason = reason
        self.element_unordered = element_unordered
        self.tainted = tainted

    def union(self, other: "ValueInfo") -> "ValueInfo":
        return ValueInfo(
            self.unordered or other.unordered,
            other.reason if other.unordered else self.reason,
            self.element_unordered or other.element_unordered,
            self.tainted or other.tainted,
        )


#: expressions whose value is fresh and ordered; their operands are
#: evaluated for their own findings
_FRESH_EXPRS = (ast.Attribute, ast.BinOp, ast.UnaryOp, ast.Compare,
                ast.BoolOp, ast.JoinedStr, ast.Slice, ast.Yield,
                ast.YieldFrom)


class AbstractEvaluator:
    """Flow-ordered abstract walk of one function ``fn`` (or, for
    ``fn=None``, the module body).

    Subclasses hook the iteration points, the call sites, dict keying and
    augmented assignment.  Branches are walked sequentially — a
    may-analysis over a linear approximation of control flow.
    """

    def __init__(self, fn, summaries: ProjectSummaries, path: str):
        self.summaries = summaries
        self.path = path
        self.env = {}
        self.returns = []
        if fn is not None:
            for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
                self.env[a.arg] = ValueInfo()

    # -- expressions --------------------------------------------------------

    def eval(self, node) -> ValueInfo:
        if isinstance(node, ast.Name):
            info = self.env.get(node.id)
            return ValueInfo() if info is None else info
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            out = ValueInfo()
            if base.element_unordered:
                out.unordered, out.reason = True, base.reason
            return out
        if isinstance(node, (ast.Starred, ast.Await)):
            return self.eval(node.value)
        if isinstance(node, _FRESH_EXPRS):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.expr):
                    self.eval(sub)
            return ValueInfo()
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body).union(self.eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List)):
            out = ValueInfo()
            for e in node.elts:
                ei = self.eval(e)
                out.element_unordered = (out.element_unordered
                                         or ei.unordered)
                out.tainted = out.tainted or ei.tainted
            return out
        if isinstance(node, ast.Set):
            for e in node.elts:
                self.eval(e)
            return ValueInfo(unordered=True, reason="set")
        if isinstance(node, ast.Dict):
            out = ValueInfo()
            for k in node.keys:
                if k is not None:
                    self.eval(k)
            for v in node.values:
                out.element_unordered = (out.element_unordered
                                         or self.eval(v).unordered)
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            return self.eval_comp(node)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.FormattedValue):
            self.eval(node.value)
        return ValueInfo()

    def eval_comp(self, node) -> ValueInfo:
        """Comprehensions: bind targets to iterated elements, then evaluate
        the element expression in that environment."""
        saved = dict(self.env)
        try:
            for gen in node.generators:
                it = self.eval_iteration(gen.iter, node)
                self.bind_names(gen.target, _element_of(it))
                for cond in gen.ifs:
                    self.eval(cond)
            if isinstance(node, ast.DictComp):
                self.eval(node.key)
                return ValueInfo(
                    element_unordered=self.eval(node.value).unordered)
            out = ValueInfo(element_unordered=self.eval(node.elt).unordered)
            if isinstance(node, ast.SetComp):
                out.unordered, out.reason = True, "set"
            return out
        finally:
            self.env = saved

    def eval_iteration(self, iter_node, ctx_node) -> ValueInfo:
        """Hook: evaluate the iterable of a ``for``/comprehension.  The
        determinism pass overrides this to flag unordered iteration."""
        return self.eval(iter_node)

    def eval_call(self, node: ast.Call) -> ValueInfo:
        all_args = ValueInfo()
        for a in node.args:
            all_args = all_args.union(
                self.eval(a.value if isinstance(a, ast.Starred) else a))
        for k in node.keywords:
            all_args = all_args.union(self.eval(k.value))

        func = node.func
        qual = self.summaries.resolve_qualname(func, self.path)

        # numpy / math module-level calls
        if qual and (qual.startswith("numpy.") or qual.startswith("math.")):
            return ValueInfo()

        # plain-name builtins
        if isinstance(func, ast.Name):
            if func.id in FRESH_BUILTINS:
                return ValueInfo()
            if func.id in UNORDERED_BUILTINS:
                return ValueInfo(unordered=True, reason="set")
            if func.id in ELEMENT_BUILTINS:
                return ValueInfo(all_args.unordered, all_args.reason,
                                 tainted=all_args.tainted)

        # method calls (receiver not resolvable to a module/function)
        if isinstance(func, ast.Attribute) and (
            qual is None or qual not in self.summaries.functions
        ):
            recv = self.eval(func.value)
            if func.attr in FRESH_METHODS:
                return ValueInfo()
            if func.attr in ACCESSOR_METHODS:
                out = ValueInfo(tainted=recv.tainted)
                if func.attr == "get":
                    # element access, like a subscript
                    if recv.element_unordered:
                        out.unordered, out.reason = True, recv.reason
                else:
                    # ordered container views: items()/keys()/values() of a
                    # dict iterate in insertion order; the elements they
                    # yield may still be unordered collections
                    out.element_unordered = recv.element_unordered
                return out
            return recv.union(all_args)

        # project function with a computed summary
        summary = self.summaries.functions.get(qual) if qual else None
        if summary is not None:
            return ValueInfo(unordered=summary.returns_unordered,
                             reason="set")
        return ValueInfo()

    # -- statements ---------------------------------------------------------

    def bind_names(self, target, info: ValueInfo):
        """Bind plain-name targets only (no store side effects)."""
        if isinstance(target, ast.Name):
            self.env[target.id] = info
        elif isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self.bind_names(e, _unpacked(info))
        elif isinstance(target, ast.Starred):
            self.bind_names(target.value, info)

    def bind_target(self, target, info: ValueInfo, node):
        if isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self.bind_target(e, _unpacked(info), node)
        elif isinstance(target, ast.Starred):
            self.bind_target(target.value, info, node)
        elif isinstance(target, ast.Name):
            self.env[target.id] = info
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self.eval(target.value)
            if isinstance(target, ast.Subscript):
                self.note_keying(target, self.eval(target.slice), node)

    def note_keying(self, target, key_info: ValueInfo, node) -> None:
        """Hook: a subscript store keys a container; the determinism pass
        marks dicts keyed by tainted values or ``id()``."""
        pass

    def walk(self, stmts):
        for s in stmts:
            self.stmt(s)

    def stmt(self, s):
        if isinstance(s, ast.Assign):
            info = self.eval(s.value)
            for t in s.targets:
                self.bind_target(t, info, s)
        elif isinstance(s, ast.AnnAssign):
            if s.value is not None:
                self.bind_target(s.target, self.eval(s.value), s)
        elif isinstance(s, ast.AugAssign):
            info = self.eval(s.value)
            self.eval(s.target)
            self.note_aug_assign(s, info)
        elif isinstance(s, ast.Return):
            self.returns.append(self.eval(s.value))
        elif isinstance(s, (ast.Expr, ast.Assert)):
            self.eval(s.value if isinstance(s, ast.Expr) else s.test)
        elif isinstance(s, (ast.For, ast.AsyncFor)):
            it = self.eval_iteration(s.iter, s)
            self.bind_names(s.target, _element_of(it))
            self.walk(s.body)
            self.walk(s.orelse)
        elif isinstance(s, ast.While):
            self.eval(s.test)
            self.walk(s.body)
            self.walk(s.orelse)
        elif isinstance(s, ast.If):
            self.eval(s.test)
            self.walk(s.body)
            self.walk(s.orelse)
        elif isinstance(s, (ast.With, ast.AsyncWith)):
            for item in s.items:
                info = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind_target(item.optional_vars, info, s)
            self.walk(s.body)
        elif isinstance(s, ast.Try):
            self.walk(s.body)
            for h in s.handlers:
                self.walk(h.body)
            self.walk(s.orelse)
            self.walk(s.finalbody)
        elif isinstance(s, ast.Raise):
            if s.exc is not None:
                self.eval(s.exc)
        # nested defs/classes are analyzed as their own units, not inline

    def note_aug_assign(self, s, value_info: ValueInfo) -> None:
        """Hook: the determinism pass flags order-tainted accumulation."""
        pass


def _element_of(iterable: ValueInfo) -> ValueInfo:
    """An element drawn from iterating ``iterable``."""
    return ValueInfo(iterable.element_unordered,
                     tainted=iterable.unordered or iterable.tainted)


def _unpacked(info: ValueInfo) -> ValueInfo:
    """One name of a tuple target bound to ``info``."""
    return ValueInfo(info.unordered, info.reason, tainted=info.tainted)


def build_project_summaries(modules, iterations: int = 3) -> ProjectSummaries:
    """Fixed-point summary computation over all functions."""
    ps = ProjectSummaries()
    funcs = []  # (qualname, fn node, path)
    for m in modules:
        name = module_name_for_path(m.path)
        ps.module_name[m.path] = name
        is_pkg = m.path.replace("\\", "/").endswith("/__init__.py")
        env = build_import_env(m.tree, name, is_package=is_pkg)
        ps.module_env[m.path] = env
        ps.env_by_module[name] = env
        top = set()
        for node in m.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs.append((f"{name}.{node.name}", node, m.path))
                top.add(node.name)
        # nested functions too (helpers defined inside rank programs);
        # resolvable by the ``modname.name`` fallback, top-level names win
        for node in ast.walk(m.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name not in top \
                    and node not in m.tree.body:
                funcs.append((f"{name}.{node.name}", node, m.path))
                top.add(node.name)
    for qual, _, _ in funcs:
        ps.functions[qual] = FunctionSummary()
    for _ in range(iterations):
        for qual, fn, path in funcs:
            ev = AbstractEvaluator(fn, ps, path)
            ev.walk(fn.body)
            ps.functions[qual] = FunctionSummary(
                any(r.unordered for r in ev.returns))
    return ps


def iter_code_units(tree):
    """Yield ``(fn_node_or_None, is_generator)`` for the module body and
    every (arbitrarily nested) function definition."""
    yield None, False
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, _is_generator(node)


def _is_generator(fn) -> bool:
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # ast.walk still descends, so filter by ownership below
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if _owner(fn, node):
                return True
    return False


def _owner(fn, node) -> bool:
    """Is ``node`` owned by ``fn`` directly (not via a nested def)?"""
    # cheap ownership test: walk fn's body skipping nested defs
    stack = list(fn.body)
    while stack:
        s = stack.pop()
        if s is node:
            return True
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for child in ast.iter_child_nodes(s):
            stack.append(child)
    return False
