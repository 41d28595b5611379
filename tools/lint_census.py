"""Mutation census of the ``repro lint`` rules against the dynamic gates.

    python tools/lint_census.py                 # every mutant, writes the record
    python tools/lint_census.py --only D103-1   # re-run some rows of the record
    python tools/lint_census.py --jobs 2        # two mutants at a time

Each mutant is a ``(path, old text, new text)`` triple seeded into real
``src/repro`` code: one instance of one rule's bug class.  The tree the
mutants go into is ``git archive REV``, the last commit that had all ten
rules (D101-D106 of the determinism pass, Y01 and T01-T03 of the protocol
pass), so the census re-runs the same way after rules are deleted.  Every
mutant is applied alone to a throwaway copy of that tree, and the copy
runs:

* the rule itself: ``repro lint <file> --select <rule> --json``; the rule
  kills the mutant when it reports more findings at ``warning`` or above
  (the threshold CI failed on) than on the unmutated file;
* the gate modules (``GATE_MODULES``) plus every tier-1 module that imports
  the mutated module (or imports ``repro.cli`` when ``cli.py`` imports it:
  the verbs import their modules inside the verb), under the default hash
  seed and under
  ``PYTHONHASHSEED=987654``, counting failing tests per module; this
  checkout's run-time RNG watch (``tests/call_watch.py``, which fails a test
  that draws from an unseeded or global RNG) is laid over them as a pytest
  plugin; the tests that run the lint itself (``LINT_MODULE``,
  ``LINT_CLASS``) are left out, since they are the rule and not a dynamic
  gate;
* ``repro verify-comm``, ``tools/check_e2e_exact.py`` and ``repro chaos
  --budget 70 --seed 1 --fail-on failure``.

A mutant no gate fails is a real bug only if something observable moves.
Where a mutant could make run-to-run differences no gate looks at, it
carries a *witness*: a short script run twice in fresh processes (default
hash seed, then 987654) on the mutated copy; different outputs, with equal
outputs on the unmutated tree, show the mutant is not equivalent.  Verdicts:

* ``dynamic`` — some gate fails;
* ``rule only`` — no gate fails, the witness differs and the rule kills;
* ``missed`` — no gate fails, the witness differs and the rule is silent;
* ``equivalent`` — nothing fails and nothing observable moves.

Whether the mutated line runs under that mutant's own gate modules is read
from ``sys.settrace`` line traces of the unmutated tree, one per test
module, each module traced once however many mutants it gates.

The record goes to ``benchmarks/results/BENCH_mutation.json`` (``--only``
replaces the rows it re-runs in an existing record); ``python
tools/make_experiments.py`` renders it into EXPERIMENTS.md.  A full run takes about an hour and a half on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "results" / "BENCH_mutation.json"

#: the last commit with all ten rules registered
REV = "1d471d0"

#: this checkout's RNG watch, copied into the archived tree as a plugin
WATCH = ROOT / "tests" / "call_watch.py"

#: the tier-1 modules every mutant is run against (the importers of the
#: mutated module are added per mutant)
GATE_MODULES = (
    "test_parallel_1d", "test_parallel_2d", "test_trisolve",
    "test_numeric_golden", "test_trace_golden", "test_host_perf",
    "test_resilience", "test_service", "test_api",
    "test_analysis_golden", "test_verify",
)

SEEDS = (("default", None), ("987654", "987654"))

#: the tests that run the lint itself are the rules, not a dynamic gate:
#: this module is never a gate module, and this class is deselected
LINT_MODULE = "test_lint"
LINT_CLASS = "tests/test_verify.py::TestCommLint"

#: per-process limits: a mutant that hangs fails the gate it hangs in
PYTEST_TIMEOUT = 1200
TOOL_TIMEOUT = 600

_TUNE_WITNESS = (
    "from repro.machine import T3E\n"
    "from repro.matrices.suite import get_matrix\n"
    "from repro.tune import Tuner\n"
    "r = Tuner(spec=T3E, nprocs=4, budget='auto', seed=0)"
    ".tune(get_matrix('sherman5', 'small'))\n"
    "print(r.to_json())\n"
)


def _m(mid, rule, origin, path, old, new, note="", witness=None):
    return {"id": mid, "rule": rule, "origin": origin, "path": path,
            "old": old, "new": new, "note": note, "witness": witness}


MUTANTS = [
    # -- D101: iteration over a set ------------------------------------------
    _m("D101-1", "D101", "past true positive", "src/repro/ordering/mindeg.py",
       "            nb = sorted(clique)\n",
       "            nb = list(clique)\n",
       "the clique's neighbours in set order"),
    _m("D101-2", "D101", "past true positive", "src/repro/ordering/mindeg.py",
       "            nb = sorted(clique)\n",
       "            nb = [u for u in clique]\n",
       "the same, through a comprehension"),
    _m("D101-3", "D101", "past true positive",
       "src/repro/baselines/superlu_like.py",
       "        cand_rows, cand_vals = [], []\n"
       "        for r in sorted(nonzero_rows):\n",
       "        cand_rows, cand_vals = [], []\n"
       "        for r in nonzero_rows:\n",
       "the column merge splits U and candidate rows in set order"),
    _m("D101-4", "D101", "comm site", "src/repro/parallel/oned.py",
       "        out.append(sorted(ranks))\n",
       "        out.append([r for r in ranks])\n",
       "1D multicast destinations in set order"),
    # -- D102: iteration over a dict keyed in nondeterministic order ---------
    _m("D102-1", "D102", "numerics site", "src/repro/numfact/counter.py",
       "        for k, v in other.by_gran.items():\n"
       "            self.by_gran[k] = self.by_gran.get(k, 0.0) + v\n",
       "        for k in set(other.by_gran):\n"
       "            self.by_gran[k] = self.by_gran.get(k, 0.0) + other.by_gran[k]\n",
       "a merged tally's by_gran keys inserted in set order"),
    _m("D102-2", "D102", "numerics site", "src/repro/parallel/twod.py",
       "        lblocks = {I: blocks[(I, K)] for I in myI if I > K}\n",
       "        lblocks = {I: blocks[(I, K)] for I in set(myI) if I > K}\n",
       "the 2D lcol payload's L blocks keyed in set order"),
    _m("D102-3", "D102", "numerics site",
       "src/repro/scheduling/graph_schedule.py",
       "    indeg = {t: len(tg.pred.get(t, ())) for t in tg.tasks}\n",
       "    indeg = {t: len(tg.pred.get(t, ())) for t in set(tg.tasks)}\n",
       "the scheduler's in-degree table keyed in set order"),
    # -- D103: unseeded RNG ----------------------------------------------------
    _m("D103-1", "D103", "numerics site", "src/repro/verify/replay.py",
       "    rng = np.random.default_rng(seed)\n",
       "    rng = np.random.default_rng()\n",
       "replay's shuffled host orders drawn unseeded",
       witness="from repro.verify import host_orders\n"
               "print(host_orders(8, 5))\n"),
    _m("D103-2", "D103", "numerics site", "src/repro/api/validate.py",
       "        rng = np.random.default_rng(0)\n",
       "        rng = np.random.default_rng()\n",
       "the validation solve's right-hand side drawn unseeded",
       witness="from repro.api import validate_matrix\n"
               "from repro.matrices.suite import get_matrix\n"
               "A = get_matrix('sherman5', 'small')\n"
               "print([c.detail for c in validate_matrix(A, check_parallel=False)])\n"),
    _m("D103-3", "D103", "numerics site", "src/repro/tune/tuner.py",
       "        rng = np.random.default_rng(self.seed)\n",
       "        rng = np.random.default_rng()\n",
       "the tuner's tie-breaking jitter drawn unseeded",
       witness=_TUNE_WITNESS),
    _m("D103-4", "D103", "numerics site", "src/repro/matrices/generators.py",
       "    rng = np.random.default_rng(seed)\n    n = nx * ny\n",
       "    rng = np.random.default_rng()\n    n = nx * ny\n",
       "the convection-diffusion generator drawn unseeded"),
    # -- D104: wall-clock reads ----------------------------------------------
    _m("D104-1", "D104", "numerics site", "src/repro/parallel/oned.py",
       "            fc = factor_block_column(\n"
       "                m, k, pivot_threshold=pivot_threshold, monitor=monitor)\n"
       "            charge(seconds[a:b], spans and spans[a:b])\n",
       "            import time\n"
       "            t_host = time.perf_counter()\n"
       "            fc = factor_block_column(\n"
       "                m, k, pivot_threshold=pivot_threshold, monitor=monitor)\n"
       "            env.compute(\"dgemv\", 1e9 * (time.perf_counter() - t_host))\n",
       "1D Factor(K) charged its host seconds, not its model"),
    _m("D104-2", "D104", "numerics site", "src/repro/parallel/trisolve.py",
       "            upper_solve(blocks[(K, K)], xk)\n"
       "            kernel, gran, flops = upper_solve_charge(psize(K), nrhs)\n"
       "            env.compute(kernel, flops, gran=gran)\n",
       "            import time\n"
       "            t_host = time.perf_counter()\n"
       "            upper_solve(blocks[(K, K)], xk)\n"
       "            env.compute(\"dgemv\", 1e9 * (time.perf_counter() - t_host))\n",
       "the backward block solve charged its host seconds"),
    _m("D104-3", "D104", "numerics site", "src/repro/service/service.py",
       "        submitted = self._counter(\"jobs.submitted\")\n"
       "        job = SolveJob(\n"
       "            job_id=self._next_id,\n"
       "            A=A,\n"
       "            b=b,\n"
       "            opts_key=opts_key,\n"
       "            arrival=submitted.value * self.inter_arrival,\n",
       "        import time\n"
       "        submitted = self._counter(\"jobs.submitted\")\n"
       "        job = SolveJob(\n"
       "            job_id=self._next_id,\n"
       "            A=A,\n"
       "            b=b,\n"
       "            opts_key=opts_key,\n"
       "            arrival=time.monotonic(),\n",
       "service jobs stamped with wall-clock arrival times"),
    _m("D104-4", "D104", "numerics site", "src/repro/tune/tuner.py",
       "                probe = self.simulate_plan(state, r.plan, fraction)\n"
       "                if r.plan.method != \"sequential\":\n"
       "                    # sequential plans are priced analytically (the static\n"
       "                    # tally is exact), so they never consume probe budget\n"
       "                    spent += probe[\"seconds\"]\n",
       "                import time\n"
       "                t_host = time.perf_counter()\n"
       "                probe = self.simulate_plan(state, r.plan, fraction)\n"
       "                if r.plan.method != \"sequential\":\n"
       "                    # sequential plans are priced analytically (the static\n"
       "                    # tally is exact), so they never consume probe budget\n"
       "                    spent += time.perf_counter() - t_host\n",
       "the tuner's probe budget spent in host seconds",
       witness=_TUNE_WITNESS),
    # -- D105: iteration over an id()-keyed container ------------------------
    _m("D105-1", "D105", "numerics site", "src/repro/tune/tuner.py",
       "            key=lambda r: (r.model_seconds, jitter[id(r)])\n",
       "            key=lambda r: (r.model_seconds, id(r))\n",
       "the tuner breaks model-time ties by address",
       witness=_TUNE_WITNESS),
    _m("D105-2", "D105", "numerics site", "src/repro/parallel/resilience.py",
       "    for blk in merged.blocks.values():\n"
       "        blk.flags.writeable = True\n",
       "    thaw = {id(blk): blk for blk in merged.blocks.values()}\n"
       "    for key in thaw:\n"
       "        thaw[key].flags.writeable = True\n",
       "the returned factor thawed through an id()-keyed dict"),
    _m("D105-3", "D105", "numerics site", "src/repro/tune/tuner.py",
       "        survivors.sort(\n"
       "            key=lambda r: (r.model_seconds, jitter[id(r)])\n"
       "        )\n",
       "        by_id = {id(r): r for r in survivors}\n"
       "        survivors = [by_id[i] for i in by_id]\n"
       "        survivors.sort(\n"
       "            key=lambda r: (r.model_seconds, jitter[id(r)])\n"
       "        )\n",
       "the tuner's survivors rebuilt from an id()-keyed dict"),
    # -- D106: order-sensitive reduction over an unordered collection --------
    _m("D106-1", "D106", "numerics site", "src/repro/parallel/trisolve.py",
       "            for J, producer in u_from[K]:  # ascending J: bitwise order\n",
       "            for J, producer in set(u_from[K]):\n",
       "backward-solve contributions subtracted in set order"),
    _m("D106-2", "D106", "numerics site", "src/repro/parallel/trisolve.py",
       "        for I in l_wait.get(K, ()):\n",
       "        for I in set(l_wait.get(K, ())):\n",
       "forward-solve contributions absorbed in set order"),
    _m("D106-3", "D106", "numerics site", "src/repro/numfact/counter.py",
       "        return sum(self.flops.values())\n",
       "        return sum(self.flops[k] for k in set(self.flops))\n",
       "a tally's flop total summed in (str-hash) set order"),
    _m("D106-4", "D106", "numerics site", "src/repro/tune/space.py",
       "    col_total = float(sum(tg.col_bytes.values()))\n",
       "    col_total = float(sum(tg.col_bytes[k] for k in set(tg.col_bytes)))\n",
       "the tuner's message-volume estimate summed in set order"),
    # -- Y01: a recv/barrier request that is not yielded ---------------------
    _m("Y01-1", "Y01", "comm site", "src/repro/parallel/oned.py",
       "                    payload = yield env.recv((\"col\", k))\n"
       "                    fc = received[k] = _receive_column(\n",
       "                    payload = env.recv((\"col\", k))\n"
       "                    fc = received[k] = _receive_column(\n",
       "1D consumer's column receive not yielded"),
    _m("Y01-2", "Y01", "comm site", "src/repro/parallel/twod.py",
       "            update_stage(k, urow_cache[k], k)\n"
       "            yield env.barrier()\n",
       "            update_stage(k, urow_cache[k], k)\n"
       "            env.barrier()\n",
       "2d-sync's stage barrier not yielded"),
    _m("Y01-3", "Y01", "comm site", "src/repro/parallel/trisolve.py",
       "            xk = yield env.recv((\"xk\", K))\n",
       "            xk = env.recv((\"xk\", K))\n",
       "trisolve's forward x_K receive not yielded"),
    _m("Y01-4", "Y01", "comm site", "src/repro/parallel/twod.py",
       "            last = yield env.recv((\"lcol\", N - 1))\n",
       "            last = env.recv((\"lcol\", N - 1))\n",
       "2D's drain of the last L panel not yielded"),
    # -- T01: send and recv tags of one kind differ in arity -----------------
    _m("T01-1", "T01", "comm site", "src/repro/parallel/oned.py",
       "                          (\"col\", k), payload, nbytes=wire[k])\n",
       "                          (\"col\", k, 0), payload, nbytes=wire[k])\n",
       "1D column multicast tag gains an element"),
    _m("T01-2", "T01", "comm site", "src/repro/parallel/twod.py",
       "                    (\"pbest\", K, m),\n",
       "                    (\"pbest\", K, m, r),\n",
       "2D pivot-row multicast tag gains the sender's row"),
    _m("T01-3", "T01", "comm site", "src/repro/parallel/trisolve.py",
       "                env.multicast(group[K], (\"xb\", K), xk)\n",
       "                env.multicast(group[K], (\"xb\", K, me), xk)\n",
       "trisolve's backward x_K multicast tag gains the sender"),
    # -- T02: a tag kind only ever sent, or only ever received ---------------
    _m("T02-1", "T02", "comm site", "src/repro/parallel/oned.py",
       "                          (\"col\", k), payload, nbytes=wire[k])\n",
       "                          (\"column\", k), payload, nbytes=wire[k])\n",
       "1D column multicast under a kind nobody receives"),
    _m("T02-2", "T02", "comm site", "src/repro/parallel/twod.py",
       "            env.multicast(grid.col_ranks(c), (\"urow\", K, c), scaled, nbytes=nb)\n",
       "            env.multicast(grid.col_ranks(c), (\"urows\", K, c), scaled, nbytes=nb)\n",
       "2D U-row multicast under a kind nobody receives"),
    _m("T02-3", "T02", "comm site", "src/repro/parallel/trisolve.py",
       "                env.send(dest, (\"fwd\", K, I), contrib)\n",
       "                env.send(dest, (\"fw\", K, I), contrib)\n",
       "trisolve's forward contribution under a kind nobody receives"),
    _m("T02-4", "T02", "comm site", "src/repro/parallel/oned.py",
       "            if owner[k] != rank and k not in seen:\n"
       "                payload = yield env.recv((\"col\", k))\n"
       "                _check_column(payload, plan, abft, env.metrics)\n",
       "            if owner[k] != rank and k not in seen:\n"
       "                pass\n",
       "1d-ca never drains the columns it did not consume (unconsumed multicast)"),
    _m("T02-5", "T02", "comm site", "src/repro/parallel/twod.py",
       "            last = yield env.recv((\"lcol\", N - 1))\n"
       "            if abft:\n"
       "                verify_payload(last, where=f\"payload:lcol({N - 1})\",\n"
       "                               column=N - 1, metrics=env.metrics)\n"
       "            lcol_cache[N - 1] = last\n",
       "            pass\n",
       "2D never drains the last L panel (unconsumed multicast)"),
    # -- T03: a tag in a for loop that does not vary with the loop -----------
    _m("T03-1", "T03", "comm site", "src/repro/parallel/trisolve.py",
       "                env.send(dest, (\"fwd\", K, I), contrib)\n"
       "        # absorb contributions into my segments (ascending I: bitwise order)\n"
       "        for I in l_wait.get(K, ()):\n"
       "            contrib = yield env.recv((\"fwd\", K, I))\n",
       "                env.send(dest, (\"fwd\", K), contrib)\n"
       "        # absorb contributions into my segments (ascending I: bitwise order)\n"
       "        for I in l_wait.get(K, ()):\n"
       "            contrib = yield env.recv((\"fwd\", K))\n",
       "trisolve's forward contributions lose the segment index"),
    _m("T03-2", "T03", "comm site", "src/repro/parallel/twod.py",
       "                env.send(peer, (\"swap\", K, step, r), outrow, nbytes=nb)\n"
       "                incoming = yield env.recv((\"swap\", K, step, (r2 if r1 == r else r1)))\n",
       "                env.send(peer, (\"swap\", K, r), outrow, nbytes=nb)\n"
       "                incoming = yield env.recv((\"swap\", K, (r2 if r1 == r else r1)))\n",
       "2D row-swap messages lose the interchange step"),
    _m("T03-3", "T03", "comm site", "src/repro/parallel/trisolve.py",
       "                env.send(o_t, (\"fswap\", K, step, \"m\"), row_payload(x[K], lm))\n"
       "                x[K][lm] = yield env.recv((\"fswap\", K, step, \"t\"))\n"
       "            elif me == o_t:\n"
       "                lt = t - bounds[It]\n"
       "                env.send(o_m, (\"fswap\", K, step, \"t\"), row_payload(x[It], lt))\n"
       "                x[It][lt] = yield env.recv((\"fswap\", K, step, \"m\"))\n",
       "                env.send(o_t, (\"fswap\", K, \"m\"), row_payload(x[K], lm))\n"
       "                x[K][lm] = yield env.recv((\"fswap\", K, \"t\"))\n"
       "            elif me == o_t:\n"
       "                lt = t - bounds[It]\n"
       "                env.send(o_m, (\"fswap\", K, \"t\"), row_payload(x[It], lt))\n"
       "                x[It][lt] = yield env.recv((\"fswap\", K, \"m\"))\n",
       "trisolve's pivot swaps lose the interchange step"),
    _m("T03-4", "T03", "comm site", "src/repro/parallel/twod.py",
       "                    (\"pmax\", K, m, r),\n",
       "                    (\"pmax\", K, r),\n",
       "2D pivot candidates lose the column index (send side only: also T01)"),
]


# -- running things ------------------------------------------------------------


def _env(tree: Path, hash_seed=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env.pop("PYTHONHASHSEED", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    env["REPRO_BENCH_RESULTS"] = str(tree / "bench-results")
    return env


def _run(cmd, tree: Path, timeout: int, hash_seed=None):
    """``(returncode, stdout)``; a timeout reads as returncode None."""
    try:
        p = subprocess.run(cmd, cwd=tree, env=_env(tree, hash_seed),
                           capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, ""
    return p.returncode, p.stdout


def make_tree(dest: Path) -> Path:
    """``git archive REV`` unpacked into ``dest``, with ``WATCH`` beside
    its tests."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", REV], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.copy(WATCH, dest / "tests" / WATCH.name)
    return dest


def apply_mutant(tree: Path, mutant: dict) -> int:
    """Seed ``mutant`` into ``tree``; returns the 1-based line it starts on."""
    path = tree / mutant["path"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['id']}: old text occurs "
                         f"{text.count(mutant['old'])} times in {mutant['path']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    return text[: text.index(mutant["old"])].count("\n") + 1


def module_name(path: str) -> str:
    return path[len("src/"):-len(".py")].replace("/", ".").removesuffix(".__init__")


def importers(tree: Path, path: str) -> list:
    """Tier-1 test modules whose source imports the mutated module or its
    package (importing a package runs its submodules), or imports
    ``repro.cli`` when ``cli.py`` imports one of those (its verbs import
    their modules inside the verb function)."""
    mod = module_name(path)
    pkg = mod.rsplit(".", 1)[0]
    names = "|".join(re.escape(m) for m in (mod, pkg))
    pat = re.compile(rf"^\s*(from|import)\s+({names})\b", re.M)
    rel = "|".join(re.escape(m.removeprefix("repro")) for m in (mod, pkg)
                   if m != "repro")
    cli = (tree / "src" / "repro" / "cli.py").read_text()
    if re.search(rf"^\s*from\s+({rel})\b", cli, re.M):
        pat = re.compile(rf"{pat.pattern}|^\s*from\s+repro\.cli\b", re.M)
    return sorted(p.stem for p in (tree / "tests").glob("test_*.py")
                  if pat.search(p.read_text()) and p.stem != LINT_MODULE)


def rule_findings(tree: Path, path: str, rule: str) -> dict:
    rc, out = _run([sys.executable, "-m", "repro", "lint", path, "--select",
                    rule, "--json", "--fail-on=never"], tree, TOOL_TIMEOUT)
    findings = json.loads(out)["findings"] if rc == 0 else []
    blocking = [f for f in findings if f["severity"] in ("warning", "error")]
    return {"blocking": len(blocking), "notes": len(findings) - len(blocking),
            "lines": sorted({f["line"] for f in findings})}


def pytest_gate(tree: Path, modules, hash_seed) -> dict:
    """Failing tests per module (failures and errors) of one pytest run."""
    xml = tree / f"junit-{hash_seed or 'default'}.xml"
    rc, _ = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "-p", f"tests.{WATCH.stem}", f"--junitxml={xml}",
                  "--deselect", LINT_CLASS,
                  *(f"tests/{m}.py" for m in modules)], tree, PYTEST_TIMEOUT,
                 hash_seed)
    if rc is None or not xml.exists():
        return {"failed": None, "by_module": {}}
    by_module = {}
    for case in ET.parse(xml).getroot().iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            mod = case.get("classname", "").split(".")
            name = next((p for p in mod if p.startswith("test_")), mod[-1])
            by_module[name] = by_module.get(name, 0) + 1
    return {"failed": sum(by_module.values()), "by_module": by_module}


def witness_outputs(tree: Path, script: str) -> list:
    return [_run([sys.executable, "-c", script], tree, TOOL_TIMEOUT, seed)[1]
            for _, seed in SEEDS]


def run_gates(tree: Path, modules) -> dict:
    gates = {f"pytest[{label}]": pytest_gate(tree, modules, seed)
             for label, seed in SEEDS}
    for name, cmd in (
        ("verify-comm", ["-m", "repro", "verify-comm"]),
        ("e2e-exact", ["tools/check_e2e_exact.py"]),
        ("chaos", ["-m", "repro", "chaos", "--budget", "70", "--seed", "1",
                   "--fail-on", "failure"]),
    ):
        rc, _ = _run([sys.executable, *cmd], tree, TOOL_TIMEOUT)
        gates[name] = {"failed": None if rc is None else int(rc != 0)}
    return gates


# -- the line trace --------------------------------------------------------------

_TRACER = r"""
import json, sys, threading
import pytest

src = sys.argv[1]
hit = {}

def local(frame, event, arg):
    if event == "line":
        hit[frame.f_code.co_filename].add(frame.f_lineno)
    return local

def tracer(frame, event, arg):
    fn = frame.f_code.co_filename
    if not fn.startswith(src):
        return None
    hit.setdefault(fn, set()).add(frame.f_lineno)
    return local

sys.settrace(tracer)
threading.settrace(tracer)
pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", sys.argv[3],
             *sys.argv[4:]])
sys.settrace(None)
with open(sys.argv[2], "w") as f:
    json.dump({k[len(src) + 1:]: sorted(v) for k, v in hit.items()}, f)
"""


def line_trace(tree: Path, module: str) -> dict:
    """``{path under src/: [executed lines]}`` of one test module on
    ``tree``."""
    out = tree / f"lines-{module}.json"
    src = str(tree / "src")
    subprocess.run([sys.executable, "-c", _TRACER, src, str(out), LINT_CLASS,
                    f"tests/{module}.py"],
                   cwd=tree, env=_env(tree), capture_output=True,
                   timeout=PYTEST_TIMEOUT)
    return json.loads(out.read_text())


# -- one mutant --------------------------------------------------------------------


def census_row(mutant: dict, base: Path, work: Path, executed: dict,
               baseline_findings: dict) -> dict:
    tree = work / mutant["id"]
    shutil.copytree(base, tree)
    try:
        line = apply_mutant(tree, mutant)
        modules = sorted(set(GATE_MODULES) | set(importers(tree, mutant["path"])))
        found = rule_findings(tree, mutant["path"], mutant["rule"])
        base_found = baseline_findings[(mutant["path"], mutant["rule"])]
        gates = run_gates(tree, modules)
        witness = None
        if mutant["witness"]:
            outs = witness_outputs(tree, mutant["witness"])
            witness = {"differs": len(set(outs)) > 1,
                       "base_stable": len(set(witness_outputs(
                           base, mutant["witness"]))) == 1}
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    rel = mutant["path"][len("src/"):]
    runs = any(line in executed[m].get(rel, ()) for m in modules)
    rule_kills = found["blocking"] > base_found["blocking"]
    failing = {k: v["failed"] for k, v in gates.items() if v["failed"] != 0}
    if failing:
        verdict = "dynamic"
    elif witness and witness["differs"] and witness["base_stable"]:
        verdict = "rule only" if rule_kills else "missed"
    else:
        verdict = "equivalent"
    return {
        "id": mutant["id"], "rule": mutant["rule"], "origin": mutant["origin"],
        "site": f"{mutant['path']}:{line}", "change": mutant["note"],
        "line_runs": runs, "modules": modules,
        "rule_findings": found, "rule_findings_unmutated": base_found,
        "rule_kills": rule_kills, "gates": gates, "witness": witness,
        "verdict": verdict,
    }


def table_row(r: dict) -> dict:
    """The flat row EXPERIMENTS.md shows."""
    fails = []
    runs = [(label, r["gates"][f"pytest[{label}]"]) for label, _ in SEEDS]
    if runs[0][1] == runs[1][1]:
        runs = [("both seeds", runs[0][1])]
    for label, g in runs:
        if g["failed"] is None:
            fails.append(f"pytest timeout ({label})")
        elif g["failed"]:
            fails.append(", ".join(f"{m} {n}" for m, n in
                                   sorted(g["by_module"].items()))
                         + f" ({label})")
    for name, g in r["gates"].items():
        if not name.startswith("pytest") and g["failed"] != 0:
            fails.append(f"{name} timeout" if g["failed"] is None else name)
    rule = (f"{r['rule_findings']['blocking']} finding(s)" if r["rule_kills"]
            else "silent" if not r["rule_findings"]["notes"]
            else f"note only ({r['rule_findings']['notes']})")
    return {"mutant": r["id"], "site": r["site"], "change": r["change"],
            "line runs": "yes" if r["line_runs"] else "no",
            "rule": rule, "failing gates (tests)": ", ".join(fails) or "none",
            "verdict": r["verdict"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", default=None,
                    help="comma-separated mutant ids (default: all)")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    chosen = MUTANTS if args.only is None else [
        m for m in MUTANTS if m["id"] in args.only.split(",")]
    with tempfile.TemporaryDirectory(prefix="lint-census-") as tmp:
        work = Path(tmp)
        base = make_tree(work / "base")
        for m in chosen:  # every triple must apply before anything runs
            if (base / m["path"]).read_text().count(m["old"]) != 1:
                raise SystemExit(f"{m['id']}: old text not found once")
        traced = sorted(set(GATE_MODULES).union(
            *(importers(base, m["path"]) for m in chosen)))
        executed = {module: line_trace(base, module) for module in traced}
        baseline = {(m["path"], m["rule"]): rule_findings(base, m["path"], m["rule"])
                    for m in chosen}
        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            rows = list(pool.map(
                lambda m: census_row(m, base, work, executed, baseline), chosen))
    for r in rows:
        print(json.dumps(table_row(r)), flush=True)
    if args.only is not None:
        if not OUT.exists():
            return 0
        # re-run rows replace their old ones in the full record
        fresh = {r["id"]: r for r in rows}
        rows = [fresh.get(r["id"], r)
                for r in json.loads(OUT.read_text())["detail"]]
    OUT.write_text(json.dumps({
        "scale": "census",
        "rev": REV,
        "gate_modules": list(GATE_MODULES),
        "rows": [table_row(r) for r in rows],
        "detail": rows,
    }, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
