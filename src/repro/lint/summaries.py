"""Interprocedural function summaries and the shared abstract evaluator.

The passes in :mod:`repro.lint.determinism` and :mod:`repro.lint.aliasing`
are per-function dataflow walks; what makes them *interprocedural* is the
summary table built here.  For every top-level function in the linted file
set we compute, to a fixed point over the call graph:

* ``returns_fresh`` — every return value is a newly allocated buffer that
  aliases no argument (e.g. ``row_payload`` returning ``seg[i].copy()``);
* ``returns_alias_of`` — the set of parameter names the return value may
  alias, tracked through subscripts, attributes, container stores and
  conditional returns (e.g. ``_pack_row`` returning a dict of row views);
* ``returns_unordered`` — the return value is an unordered collection
  (``set``/``frozenset``), so iterating it is nondeterministic;
* ``mutates_params`` — parameters whose reachable memory the function may
  write (e.g. ``update_block_column`` solving into ``m.blocks``).

Calls are resolved across modules through each file's import graph
(relative imports are resolved against the module name derived from the
file's path under ``src/``).  Unresolved calls are treated conservatively
for aliasing (result may alias every argument) and optimistically for
mutation (assumed not to mutate) — the combination that keeps the
codebase-level false-positive rate near zero.

The value lattice (:class:`ValueInfo`) tracks, per abstract value:

* ``roots`` — the memory regions the value may reach: ``("param", name)``
  for parameters, ``("free", name)`` for closure/global names,
  ``("alloc", n)`` for allocation sites (a new token per evaluation, so a
  rebound loop-local buffer is distinct from last iteration's), and
  ``("recv", line)`` for received payloads (attached by the aliasing pass);
* ``unordered`` / ``reason`` — iteration order is nondeterministic and why
  (``"set"``, ``"dict"`` for nondeterministically-keyed dicts, ``"id"``
  for ``id()``-keyed containers);
* ``element_unordered`` — an ordered container whose *elements* are
  unordered collections (``[set() for _ in ...]``: indexing yields a set);
* ``tainted`` — the value is an element drawn from an unordered iteration
  (keying a dict with it makes the dict's order nondeterministic).

Known model approximations (all biased against false positives, with the
dynamic sanitizer as the runtime backstop): ``list``/``tuple``/``dict``/
``sorted`` results are treated as fresh shallow copies of scalar
containers, and dict *keys* are assumed immutable (key expressions do not
contribute roots).
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field

# -- call classification tables ---------------------------------------------

#: methods that mutate their receiver in place
MUTATOR_METHODS = frozenset({
    "fill", "sort", "reverse", "append", "extend", "insert", "add",
    "update", "discard", "remove", "setdefault", "pop", "popitem",
    "clear", "resize", "itemset", "put", "byteswap",
})

#: numpy module-level functions that mutate their first argument
NP_MUTATING_FUNCS = frozenset({
    "copyto", "put", "place", "putmask", "fill_diagonal",
})

#: numpy module-level functions whose result may be a view of an argument
NP_VIEW_FUNCS = frozenset({
    "asarray", "asanyarray", "ascontiguousarray", "atleast_1d",
    "atleast_2d", "ravel", "reshape", "transpose", "squeeze",
    "broadcast_to", "frombuffer", "swapaxes", "moveaxis", "split",
})

#: accessor methods: the result aliases the receiver only — key/index
#: arguments select *within* the container and do not flow into the result
ACCESSOR_METHODS = frozenset({"get", "items", "keys", "values"})

#: methods returning a fresh buffer / immutable scalar (never a view)
FRESH_METHODS = frozenset({
    "copy", "deepcopy", "tobytes", "tolist", "item", "sum", "min", "max",
    "mean", "dot", "astype", "flatten", "conj", "cumsum", "prod",
    "nbytes", "count", "index", "hexdigest", "digest", "format", "join",
})

#: builtins returning immutable scalars (never alias, never unordered)
SCALAR_BUILTINS = frozenset({
    "float", "int", "str", "bool", "bytes", "len", "abs", "round",
    "repr", "hash", "sum", "min", "max", "divmod", "pow", "ord", "chr",
    "isinstance", "issubclass", "any", "all", "id", "range",
})

#: builtins modeled as fresh shallow copies (scalar-container assumption)
SHALLOW_FRESH_BUILTINS = frozenset({"list", "tuple", "dict", "sorted"})

#: builtins yielding the argument's own elements (aliasing iterators)
ALIASING_BUILTINS = frozenset({
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
    """Computed effect summary for one top-level function."""

    qualname: str
    params: list
    returns_fresh: bool = False
    returns_alias_of: set = field(default_factory=set)
    returns_unordered: bool = False
    mutates_params: set = field(default_factory=set)


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

    def lookup_call(self, func_expr, path: str):
        """FunctionSummary for a call target, or None if unresolved."""
        qual = self.resolve_qualname(func_expr, path)
        if qual is None:
            return None
        return self.functions.get(qual)


# -- the value lattice -------------------------------------------------------


class ValueInfo:
    """Abstract value: reachable roots plus order provenance."""

    __slots__ = ("roots", "unordered", "reason", "element_unordered",
                 "tainted", "numeric")

    def __init__(self, roots=(), unordered=False, reason="set",
                 element_unordered=False, tainted=False, numeric=False):
        self.roots = set(roots)
        self.unordered = unordered
        self.reason = reason
        self.element_unordered = element_unordered
        self.tainted = tainted
        #: an immutable number (numeric literal, or arithmetic over
        #: numbers): ``+=`` on it rebinds the name, it never extends
        self.numeric = numeric

    @staticmethod
    def fresh():
        return ValueInfo()

    def union(self, other: "ValueInfo") -> "ValueInfo":
        out = ValueInfo(self.roots | other.roots)
        out.unordered = self.unordered or other.unordered
        out.reason = other.reason if other.unordered else self.reason
        out.element_unordered = (self.element_unordered
                                 or other.element_unordered)
        out.tainted = self.tainted or other.tainted
        out.numeric = self.numeric and other.numeric
        return out


def param_root(name):
    return ("param", name)


class AbstractEvaluator:
    """Flow-ordered abstract walk of one function (or the module body).

    Subclasses hook :meth:`note_mutation` (aliasing pass), the iteration
    points (determinism pass) and the call sites.  Branches are walked
    sequentially — a may-analysis over a linear approximation of control
    flow, which is what both passes want.
    """

    def __init__(self, fn, summaries: ProjectSummaries, path: str):
        self.fn = fn  # FunctionDef/AsyncFunctionDef or None for module body
        self.summaries = summaries
        self.path = path
        self.env = {}
        self.returns = []
        self._alloc_counter = itertools.count()
        if fn is not None:
            for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
                self.env[a.arg] = ValueInfo({param_root(a.arg)})

    def alloc(self):
        return ("alloc", next(self._alloc_counter))

    # overridden by the aliasing pass to record event locations
    def note_mutation(self, roots, node) -> None:
        pass

    # -- expressions --------------------------------------------------------

    def eval(self, node) -> ValueInfo:
        if node is None:
            return ValueInfo.fresh()
        if isinstance(node, ast.Constant):
            return ValueInfo(numeric=isinstance(node.value, (int, float, complex)))
        if isinstance(node, ast.Name):
            info = self.env.get(node.id)
            if info is None:
                return ValueInfo({("free", node.id)})
            return info
        if isinstance(node, ast.Attribute):
            return ValueInfo(self.eval(node.value).roots)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            out = ValueInfo(base.roots)
            if base.element_unordered:
                out.unordered, out.reason = True, base.reason
            return out
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            operands = [self.eval(sub) for sub in ast.iter_child_nodes(node)
                        if isinstance(sub, ast.expr)]
            if all(o.numeric for o in operands):
                return ValueInfo(numeric=True)
            return ValueInfo({self.alloc()})  # array arithmetic allocates
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.expr):
                    self.eval(sub)
            return ValueInfo.fresh()
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body).union(self.eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List)):
            out = ValueInfo({self.alloc()} if isinstance(node, ast.List)
                            else ())
            for e in node.elts:
                ei = self.eval(e)
                out.roots |= ei.roots
                out.element_unordered = (out.element_unordered
                                         or ei.unordered)
                out.tainted = out.tainted or ei.tainted
            return out
        if isinstance(node, ast.Set):
            out = ValueInfo({self.alloc()}, unordered=True, reason="set")
            for e in node.elts:
                out.roots |= self.eval(e).roots
            return out
        if isinstance(node, ast.Dict):
            out = ValueInfo({self.alloc()})
            for k in node.keys:
                if k is not None:
                    self.eval(k)  # keys assumed immutable: no roots taken
            for v in node.values:
                vi = self.eval(v)
                out.roots |= vi.roots
                out.element_unordered = out.element_unordered or vi.unordered
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            return self.eval_comp(node)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self.eval(node.value)
            return ValueInfo.fresh()
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            return ValueInfo.fresh()
        if isinstance(node, ast.JoinedStr):
            for v in node.values:
                self.eval(v)
            return ValueInfo.fresh()
        if isinstance(node, ast.FormattedValue):
            self.eval(node.value)
            return ValueInfo.fresh()
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part)
            return ValueInfo.fresh()
        return ValueInfo.fresh()

    def eval_comp(self, node) -> ValueInfo:
        """Comprehensions: bind targets to iterated elements, then evaluate
        the element expression in that environment."""
        saved = dict(self.env)
        try:
            for gen in node.generators:
                it = self.eval_iteration(gen.iter, node)
                elem = ValueInfo(it.roots, tainted=it.unordered or it.tainted)
                elem.unordered = it.element_unordered
                self.bind_names(gen.target, elem)
                for cond in gen.ifs:
                    self.eval(cond)
            if isinstance(node, ast.DictComp):
                self.eval(node.key)  # keys assumed immutable
                vi = self.eval(node.value)
                out = ValueInfo({self.alloc()} | vi.roots)
                out.element_unordered = vi.unordered
            else:
                ei = self.eval(node.elt)
                out = ValueInfo({self.alloc()} | ei.roots)
                out.element_unordered = ei.unordered
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
        args = [a.value if isinstance(a, ast.Starred) else a
                for a in node.args]
        arg_infos = [self.eval(a) for a in args]
        kw_infos = [self.eval(k.value) for k in node.keywords]
        all_args = ValueInfo.fresh()
        for i in arg_infos + kw_infos:
            all_args = all_args.union(i)

        func = node.func
        qual = self.summaries.resolve_qualname(func, self.path)

        # numpy / math module-level calls
        if qual and (qual.startswith("numpy.") or qual.startswith("math.")):
            leaf = qual.rsplit(".", 1)[-1]
            if leaf in NP_MUTATING_FUNCS:
                if arg_infos:
                    self.note_mutation(arg_infos[0].roots, node)
                return ValueInfo({self.alloc()})
            if leaf in NP_VIEW_FUNCS:
                return ValueInfo(all_args.roots)
            return ValueInfo({self.alloc()})

        # plain-name builtins
        if isinstance(func, ast.Name):
            if func.id in SCALAR_BUILTINS:
                return ValueInfo.fresh()
            if func.id in UNORDERED_BUILTINS:
                return ValueInfo({self.alloc()} | all_args.roots,
                                 unordered=True, reason="set")
            if func.id in SHALLOW_FRESH_BUILTINS:
                return ValueInfo({self.alloc()})
            if func.id in ALIASING_BUILTINS:
                out = ValueInfo(all_args.roots)
                out.unordered = all_args.unordered
                out.reason = all_args.reason
                out.tainted = all_args.tainted
                return out

        # method calls (receiver not resolvable to a module/function)
        if isinstance(func, ast.Attribute) and (
            qual is None or qual not in self.summaries.functions
        ):
            recv = self.eval(func.value)
            if func.attr in MUTATOR_METHODS:
                self.note_mutation(recv.roots, node)
                self.note_retention(recv, all_args, node)
                return recv.union(all_args)
            if func.attr in FRESH_METHODS:
                return ValueInfo({self.alloc()})
            if func.attr in ACCESSOR_METHODS:
                out = ValueInfo(recv.roots)
                if func.attr == "get":
                    # element access, like a subscript
                    if recv.element_unordered:
                        out.unordered, out.reason = True, recv.reason
                else:
                    # ordered container views: items()/keys()/values() of a
                    # dict iterate in insertion order; the elements they
                    # yield may still be unordered collections
                    out.element_unordered = recv.element_unordered
                out.tainted = recv.tainted
                return out
            out = recv.union(all_args)
            return out

        # project function with a computed summary
        summary = self.summaries.functions.get(qual) if qual else None
        if summary is not None:
            pos = {p: i for i, p in enumerate(summary.params)}
            for p in summary.mutates_params:
                i = pos.get(p)
                if i is not None and i < len(arg_infos):
                    self.note_mutation(arg_infos[i].roots, node)
                else:
                    for k, ki in zip(node.keywords, kw_infos):
                        if k.arg == p:
                            self.note_mutation(ki.roots, node)
            if summary.returns_fresh:
                return ValueInfo(
                    {self.alloc()},
                    unordered=summary.returns_unordered, reason="set",
                )
            roots = set()
            for p in summary.returns_alias_of:
                i = pos.get(p)
                if i is not None and i < len(arg_infos):
                    roots |= arg_infos[i].roots
                for k, ki in zip(node.keywords, kw_infos):
                    if k.arg == p:
                        roots |= ki.roots
            return ValueInfo(roots, unordered=summary.returns_unordered,
                             reason="set")

        # unresolved: may alias any argument, assumed non-mutating
        return ValueInfo(all_args.roots)

    def note_retention(self, container: ValueInfo, value: ValueInfo,
                       node) -> None:
        """Hook: ``value`` becomes reachable from ``container`` (store or
        append).  The aliasing pass uses this for recv-retention."""
        pass

    # -- statements ---------------------------------------------------------

    def bind_names(self, target, info: ValueInfo):
        """Bind plain-name targets only (no store side effects)."""
        if isinstance(target, ast.Name):
            self.env[target.id] = info
        elif isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self.bind_names(e, ValueInfo(
                    info.roots, unordered=info.unordered, reason=info.reason,
                    tainted=info.tainted))
        elif isinstance(target, ast.Starred):
            self.bind_names(target.value, info)

    def bind_target(self, target, info: ValueInfo, node):
        if isinstance(target, (ast.Name, ast.Tuple, ast.List, ast.Starred)) \
                and not isinstance(target, (ast.Subscript, ast.Attribute)):
            if isinstance(target, (ast.Tuple, ast.List)):
                for e in target.elts:
                    self.bind_target(e, ValueInfo(
                        info.roots, unordered=info.unordered,
                        reason=info.reason, tainted=info.tainted), node)
            elif isinstance(target, ast.Starred):
                self.bind_target(target.value, info, node)
            else:
                self.env[target.id] = info
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = self.eval(target.value)
            if isinstance(target, ast.Subscript):
                key = self.eval(target.slice)
                self.note_keying(target, key, node)
            self.note_mutation(base.roots, node)
            self.note_retention(base, info, node)
            # the container now reaches the stored value (recv tokens are
            # tracked via note_retention instead: structural mutation of a
            # cache dict does not mutate the received buffers it holds)
            if isinstance(target.value, ast.Name):
                cur = self.env.get(target.value.id)
                if cur is not None:
                    cur.roots |= {t for t in info.roots if t[0] != "recv"}

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
            base = self.eval(s.target)
            self.note_aug_assign(s, info)
            if isinstance(s.target, ast.Name) and base.numeric:
                # a number accumulator: the statement rebinds the name to a
                # new number, whatever the RHS was unpacked from
                return
            self.note_mutation(base.roots, s)
            # only ``+=`` can graft the RHS into the target (list extend);
            # ``-=``/``*=``/... read their RHS without retaining it
            if isinstance(s.target, ast.Name) and isinstance(s.op, ast.Add):
                cur = self.env.get(s.target.id)
                if cur is not None:
                    cur.roots |= {t for t in info.roots if t[0] != "recv"}
                else:
                    self.env[s.target.id] = ValueInfo(info.roots)
        elif isinstance(s, ast.Return):
            self.returns.append(self.eval(s.value))
        elif isinstance(s, (ast.Expr, ast.Assert)):
            self.eval(s.value if isinstance(s, ast.Expr) else s.test)
        elif isinstance(s, ast.Delete):
            pass
        elif isinstance(s, (ast.For, ast.AsyncFor)):
            it = self.eval_iteration(s.iter, s)
            elem = ValueInfo(it.roots, tainted=it.unordered or it.tainted)
            elem.unordered = it.element_unordered
            self.bind_names(s.target, elem)
            self.loop_body(s)
        elif isinstance(s, ast.While):
            self.eval(s.test)
            self.loop_body(s)
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

    def loop_body(self, s):
        """Hook: the aliasing pass walks loop bodies twice (wrap-around)."""
        self.walk(s.body)
        self.walk(s.orelse)


class SummaryEvaluator(AbstractEvaluator):
    """Computes a :class:`FunctionSummary` for one top-level function."""

    def __init__(self, fn, summaries, path):
        super().__init__(fn, summaries, path)
        self.mutated_roots = set()

    def note_mutation(self, roots, node):
        self.mutated_roots |= roots

    def summary(self, qualname) -> FunctionSummary:
        self.walk(self.fn.body)
        params = [a.arg for a in
                  self.fn.args.posonlyargs + self.fn.args.args
                  + self.fn.args.kwonlyargs]
        alias = set()
        fresh = True
        unordered = False
        for r in self.returns:
            alias |= {n for kind, n in r.roots if kind == "param"}
            if any(kind != "alloc" for kind, _ in r.roots):
                fresh = False
            unordered = unordered or r.unordered
        mutated = {n for kind, n in self.mutated_roots if kind == "param"}
        return FunctionSummary(
            qualname, params,
            returns_fresh=fresh,
            returns_alias_of=alias,
            returns_unordered=unordered,
            mutates_params=mutated,
        )


def build_project_summaries(modules, iterations: int = 3) -> ProjectSummaries:
    """Fixed-point summary computation over all top-level functions."""
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
    # conservative seed: return may alias every parameter
    for qual, fn, _ in funcs:
        params = [a.arg for a in
                  fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
        ps.functions[qual] = FunctionSummary(
            qual, params, returns_alias_of=set(params))
    for _ in range(iterations):
        for qual, fn, path in funcs:
            ps.functions[qual] = SummaryEvaluator(fn, ps, path).summary(qual)
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
