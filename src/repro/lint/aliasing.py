"""The zero-copy aliasing pass (``Z2xx`` rules).

The simulator's ``env.send``/``env.multicast`` model RMA-style one-sided
puts: the sender must not mutate the posted payload until the receiver
has consumed it (the real machine transfers the bytes asynchronously).
The simulator delivers by reference and makes every payload array
read-only at its send, so such a write fails when a run reaches it, and
``Simulator(sanitize=True)`` catches one through another view of the
same memory; this pass finds them without a run.

* ``Z201`` (error) — **write-after-send**: a buffer reachable from a
  posted payload is mutated later in the function.  Loop bodies are
  walked twice so a send in iteration *i* followed by a mutation in
  iteration *i+1* (the wrap-around case) is caught; rebinding a name to
  a fresh allocation correctly kills the alias.
* ``Z202`` (warning) — **recv-alias-retained**: a received payload is
  retained (stored into a container or attribute, or appended) *and*
  mutated in place — the mutation is visible through the retained
  reference, breaking replay of any consumer that reads it later.

Both rules ride on the interprocedural summaries: a payload built by a
helper that returns views of its argument (``_pack_row``) aliases the
caller's storage, while a helper returning ``.copy()``-fresh buffers
(``row_payload``) is clean.
"""

from __future__ import annotations

import ast

from .core import FindingCollector, Severity, register_pass, register_rule
from .summaries import AbstractEvaluator, ValueInfo, iter_code_units

register_rule(
    "Z201", Severity.ERROR, "write-after-send",
    "payload buffer mutated after being posted by a send/multicast",
)
register_rule(
    "Z202", Severity.WARNING, "recv-alias-retained",
    "received buffer mutated in place while also retained elsewhere",
)

#: Env methods that post a payload (zero-copy put semantics); the payload
#: is the third positional argument: send(dest, tag, payload) /
#: multicast(dests, tag, payload) / put(dest, tag, payload)
SEND_METHODS = frozenset({"send", "multicast", "put"})
PAYLOAD_ARG_INDEX = 2


class AliasWalker(AbstractEvaluator):
    """One code unit's walk, emitting Z2xx findings."""

    def __init__(self, fn, summaries, path, collector: FindingCollector,
                 env_names):
        super().__init__(fn, summaries, path)
        self.col = collector
        self.env_names = frozenset(env_names)
        self.sends = []            # (send Call node, payload root set)
        self.recv_mutations = []   # (recv token, mutation node)
        self.retained = set()      # recv tokens stored beyond a local name
        self._emitted = set()

    # -- recv values --------------------------------------------------------

    def eval(self, node) -> ValueInfo:
        if isinstance(node, (ast.Yield, ast.YieldFrom)) \
                and node.value is not None and self._is_recv(node.value):
            for a in node.value.args:
                super().eval(a)
            return ValueInfo({("recv", node.value.lineno)})
        return super().eval(node)

    def _is_recv(self, call) -> bool:
        return (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "recv"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id in self.env_names)

    # -- send sites ---------------------------------------------------------

    def eval_call(self, node: ast.Call) -> ValueInfo:
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in SEND_METHODS
                and isinstance(f.value, ast.Name)
                and f.value.id in self.env_names):
            arg_infos = [self.eval(a) for a in node.args]
            kw_infos = {k.arg: self.eval(k.value) for k in node.keywords}
            payload = None
            if len(arg_infos) > PAYLOAD_ARG_INDEX:
                payload = arg_infos[PAYLOAD_ARG_INDEX]
            elif "payload" in kw_infos:
                payload = kw_infos["payload"]
            if payload is not None and payload.roots:
                self.sends.append((node, set(payload.roots)))
            return ValueInfo.fresh()
        return super().eval_call(node)

    # -- mutation / retention events ----------------------------------------

    def note_mutation(self, roots, node):
        for send_node, sroots in self.sends:
            if sroots & roots:
                key = ("Z201", send_node.lineno, node.lineno,
                       node.col_offset)
                if key not in self._emitted:
                    self._emitted.add(key)
                    self.col.emit(
                        "Z201", node,
                        "mutates a buffer reachable from the payload "
                        f"posted at line {send_node.lineno}; under "
                        "zero-copy put semantics the receiver may observe "
                        "the mutation (send a defensive .copy())",
                    )
        for tok in roots:
            if tok[0] == "recv":
                self.recv_mutations.append((tok, node))

    def note_retention(self, container: ValueInfo, value: ValueInfo, node):
        for tok in value.roots:
            if tok[0] == "recv":
                self.retained.add(tok)

    def finish(self):
        for tok, node in self.recv_mutations:
            if tok in self.retained:
                key = ("Z202", node.lineno, node.col_offset)
                if key not in self._emitted:
                    self._emitted.add(key)
                    self.col.emit(
                        "Z202", node,
                        "mutates a received payload in place while a "
                        f"reference from the recv at line {tok[1]} is "
                        "retained elsewhere (mutate a .copy() instead)",
                    )

    # wrap-around: a send in iteration i, mutation in iteration i+1
    def loop_body(self, s):
        self.walk(s.body)
        self.walk(s.orelse)
        self.walk(s.body)


def run(module, summaries):
    col = FindingCollector(module)
    for fn, _ in iter_code_units(module.tree):
        w = AliasWalker(fn, summaries, module.path, col, module.env_names)
        w.walk(module.tree.body if fn is None else fn.body)
        w.finish()
    return col.findings


register_pass("aliasing", run)
