"""The communication-protocol pass (``Y01``/``T0x`` rules).

Flags, in the *source* of SPMD rank programs (the codes under
:mod:`repro.parallel`), the bug classes the simulator cannot diagnose at
runtime — or diagnoses only as an opaque deadlock:

* ``Y01`` (error) — a ``recv``/``barrier`` call that is not the direct
  operand of a ``yield``.  ``env.recv(tag)`` merely *builds* a request
  object; without ``yield`` it is a silent no-op and the message leaks.
* ``T01`` (error) — a tag kind whose send-side and recv-side tuple arities
  differ (the two sides can never match: a deadlock or a leak).
* ``T02`` (warning) — a tag kind that is only ever sent, or only ever
  received, within the module (an unconsumed multicast or an unsatisfiable
  wait; the matching site may live in another module, hence a warning).
* ``T03`` (warning) — a comm call lexically inside a ``for`` loop whose tag
  does not vary with that loop (no name derived from the loop target
  appears in the tag expression): successive iterations would reuse one
  ``(dest, tag)`` pair, violating the tags-identify-a-logical-transfer
  discipline.

The pass is deliberately conservative about receivers: only attribute calls
on the SPMD handle names (``env`` by default, ``lint_paths(env_names=)``)
are communication sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .core import FindingCollector, Severity, register_pass, register_rule

register_rule(
    "Y01", Severity.ERROR, "unyielded-request",
    "recv/barrier request built but not yielded",
)
register_rule(
    "T01", Severity.ERROR, "tag-arity-mismatch",
    "send-side and recv-side tag tuples of one kind differ in arity",
)
register_rule(
    "T02", Severity.WARNING, "one-sided-tag",
    "tag kind only ever sent, or only ever received, in its module",
)
register_rule(
    "T03", Severity.WARNING, "loop-invariant-tag",
    "comm call in a for loop whose tag does not vary with the loop",
)

#: the rules of this pass, for ``select=``
PROTOCOL_RULES = ("Y01", "T01", "T02", "T03")

#: methods of the Env handle that constitute communication sites
SEND_OPS = ("send", "multicast")
YIELD_OPS = ("recv", "barrier")


@dataclass
class _CommSite:
    """A send/multicast/recv call site with its extracted tag info."""

    op: str
    node: ast.Call
    tag_kind: object  # leading literal of the tag tuple (or scalar tag)
    tag_arity: int  # number of elements after the kind; -1 = not literal

    @property
    def line(self) -> int:
        return self.node.lineno


def _names_in(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _tag_expr(call: ast.Call, op: str):
    """The tag argument of a comm call (positional or ``tag=`` keyword)."""
    idx = 0 if op == "recv" else 1
    for kw in call.keywords:
        if kw.arg == "tag":
            return kw.value
    if len(call.args) > idx:
        return call.args[idx]
    return None


def _tag_shape(tag):
    """(kind, arity) of a tag expression; kind None when undecidable."""
    if isinstance(tag, ast.Constant):
        return tag.value, 0
    if isinstance(tag, ast.Tuple) and tag.elts:
        head = tag.elts[0]
        if isinstance(head, ast.Constant):
            return head.value, len(tag.elts) - 1
        return None, len(tag.elts) - 1
    return None, -1


class _ProtocolWalker:
    def __init__(self, module, collector: FindingCollector):
        self.env_names = set(module.env_names)
        self.tree = module.tree
        self._emit = collector.emit
        self.sites = []
        # calls appearing directly as the operand of a yield
        self.yielded = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
                self.yielded.add(id(node.value))

    def _comm_op(self, call: ast.Call):
        f = call.func
        if (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id in self.env_names
            and f.attr in SEND_OPS + YIELD_OPS
        ):
            return f.attr
        return None

    # -- traversal ---------------------------------------------------------

    def run(self):
        self._walk_body(self.tree.body, loops=())
        self._check_pairing()

    def _walk_body(self, body, loops):
        """``loops``: one ``(line, tainted)`` per enclosing ``for`` — the set
        of names whose values derive from that loop's target."""
        for stmt in body:
            self._walk_stmt(stmt, loops)

    def _walk_stmt(self, stmt, loops):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested SPMD (sub)program: its parameters are external
            # discriminators, loop tracking restarts inside it
            self._walk_body(stmt.body, loops=())
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                and stmt.value is not None:
            # taint propagates through straight-line assignments
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            self._propagate_taint(targets, stmt.value, loops)
            self._scan_exprs(stmt.value, loops)
            return
        # no taint can be established for a while loop: comm calls in its
        # body are checked against the loops *outside* it only
        body_loops = loops
        if isinstance(stmt, ast.For):
            body_loops = loops + ((stmt.lineno, _names_in(stmt.target)),)
        for name, value in ast.iter_fields(stmt):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                    self._walk_stmt(child, body_loops if name == "body" else loops)
                elif isinstance(child, ast.AST):
                    self._scan_exprs(child, loops)

    def _propagate_taint(self, targets, value, loops):
        value_names = _names_in(value)
        for _, tainted in loops:
            if value_names & tainted:
                for t in targets:
                    tainted |= _names_in(t)

    def _scan_exprs(self, node, loops):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                op = self._comm_op(sub)
                if op:
                    self._check_site(sub, op, loops)

    # -- per-site checks ---------------------------------------------------

    def _check_site(self, call: ast.Call, op: str, loops):
        if op in YIELD_OPS and id(call) not in self.yielded:
            self._emit(
                "Y01",
                call,
                f"`{op}` is not yielded — `env.{op}(...)` only builds a "
                "request; without `yield` it is a silent no-op",
            )
        if op == "barrier":
            return
        tag = _tag_expr(call, op)
        if tag is None:
            return
        kind, arity = _tag_shape(tag)
        self.sites.append(_CommSite(op, call, kind, arity))
        tag_names = _names_in(tag)
        for line, tainted in loops:
            if not (tag_names & tainted):
                self._emit(
                    "T03",
                    call,
                    f"tag of `{op}` does not vary with the enclosing "
                    f"for loop at line {line} (loop names: {sorted(tainted)}) — "
                    "iterations reuse one (dest, tag) pair",
                )

    # -- module-level pairing ----------------------------------------------

    def _check_pairing(self):
        kinds = {}
        for s in self.sites:
            if s.tag_kind is None:
                continue
            kinds.setdefault(s.tag_kind, []).append(s)
        for kind, sites in sorted(kinds.items(), key=lambda kv: repr(kv[0])):
            sends = [s for s in sites if s.op in SEND_OPS]
            recvs = [s for s in sites if s.op == "recv"]
            node = sites[0].node
            if sends and not recvs:
                self._emit(
                    "T02", node,
                    f"tag kind {kind!r} is sent (line"
                    f" {', '.join(str(s.line) for s in sends)}) but never "
                    "received in this module — messages would leak",
                )
            elif recvs and not sends:
                self._emit(
                    "T02", node,
                    f"tag kind {kind!r} is received (line"
                    f" {', '.join(str(s.line) for s in recvs)}) but never "
                    "sent in this module — the wait cannot be satisfied",
                )
            elif sends and recvs:
                sa = {s.tag_arity for s in sends}
                ra = {s.tag_arity for s in recvs}
                if sa != ra:
                    self._emit(
                        "T01", node,
                        f"tag kind {kind!r}: send-side arities {sorted(sa)} "
                        f"!= recv-side arities {sorted(ra)} — the tag "
                        "tuples can never match",
                    )


def run(module, summaries):
    col = FindingCollector(module)
    _ProtocolWalker(module, col).run()
    return col.findings


register_pass("protocol", run)
