"""The repro.lint analyzers: seeded-bug corpus + clean near-misses.

Each seeded-bug test injects exactly one defect of one rule's class into a
toy snippet and asserts the rule fires at the right line; each is paired
with a near-miss snippet that is semantically adjacent but clean, so the
false-positive surface is pinned down too.  The sanitizer tests drive
``Simulator(sanitize=True)`` with a genuinely mutated payload and assert
the typed error (and the MUTATE trace rule) fire.
"""

import json

import numpy as np
import pytest

from repro import lint
from repro.cli import main
from repro.lint import (
    RULES,
    Severity,
    count_at_or_above,
    lint_paths,
    max_severity,
    render_json,
    render_text,
)
from repro.machine import GENERIC, PayloadMutationError, Simulator
from repro.verify import check_messages


def rules_of(findings):
    return [f.rule for f in findings]


#: the dataflow rules: what this file's toy programs are about (send-only
#: toys would otherwise also report the protocol pass's T02; that pass is
#: tested in tests/test_verify.py::TestCommLint)
DATAFLOW_RULES = tuple(r for r in RULES if r[0] in "DZ")


def lint_source(src, **kw):
    return lint.lint_source(src, select=DATAFLOW_RULES, **kw)


def lint_rules(src, **kw):
    return rules_of(lint_source(src, **kw))


# ---------------------------------------------------------------------------
# framework: registry, severities, suppression, rendering
# ---------------------------------------------------------------------------


class TestFramework:
    def test_registry_has_all_rules(self):
        for rule in ["D101", "D102", "D103", "D104", "D105", "D106",
                     "Z201", "Z202"]:
            assert rule in RULES
        assert RULES["D103"].severity == Severity.ERROR
        assert RULES["Z201"].severity == Severity.ERROR
        assert RULES["Z202"].severity == Severity.WARNING

    def test_suppression_single_rule(self):
        src = (
            "def f():\n"
            "    s = {1, 2}\n"
            "    for x in s:  # lint: disable=D101\n"
            "        print(x)\n"
        )
        assert lint_rules(src) == []

    def test_suppression_all(self):
        src = (
            "def f():\n"
            "    s = {1, 2}\n"
            "    for x in s:  # lint: disable\n"
            "        print(x)\n"
        )
        assert lint_rules(src) == []

    def test_suppression_other_rule_does_not_mask(self):
        src = (
            "def f():\n"
            "    s = {1, 2}\n"
            "    for x in s:  # lint: disable=Z201\n"
            "        print(x)\n"
        )
        assert lint_rules(src) == ["D101"]

    def test_severity_aggregation(self):
        src = (
            "import random\n"
            "def f():\n"
            "    s = {1, 2}\n"
            "    for x in s:\n"
            "        random.random()\n"
        )
        findings = lint_source(src)
        assert max_severity(findings) == Severity.ERROR
        assert count_at_or_above(findings, Severity.ERROR) >= 1
        assert count_at_or_above(findings, Severity.NOTE) == len(findings)

    def test_render_text_and_json(self):
        src = "def f():\n    for x in {1}:\n        print(x)\n"
        findings = lint_source(src, path="toy.py")
        text = render_text(findings)
        assert "toy.py:2" in text and "D101" in text
        doc = json.loads(render_json(findings, fail_on="warning"))
        assert doc["counts"]["warning"] == 1
        assert doc["failures"] == 1
        assert doc["findings"][0]["rule"] == "D101"
        assert "D101" in doc["rules"]

    def test_parse_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([bad])
        assert rules_of(findings) == ["PARSE"]
        assert findings[0].severity == Severity.ERROR

    def test_parse_error_survives_any_select(self, tmp_path):
        # "no Z201 finding" must not read as "clean" for a file never analysed
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert rules_of(lint_paths([bad], select=["Z201"])) == ["PARSE"]
        assert rules_of(lint_paths([bad], select=[])) == ["PARSE"]

    def test_unparseable_module_is_not_certified_clean(self, tmp_path):
        from repro.lint.certify import build_certificate

        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "good.py").write_text("def f(xs):\n    return sorted(xs)\n")
        cert = build_certificate([tmp_path])
        assert cert.clean_modules() == ["good"]
        assert cert.dirty_modules() == ["bad"]
        (finding,) = cert.modules["bad"]["findings"]
        assert finding.startswith("PARSE bad.py:1:0 cannot lint")
        assert not cert.covers("bad")


# ---------------------------------------------------------------------------
# determinism pass: D101..D106
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_d101_set_iteration(self):
        src = "def f(xs):\n    s = set(xs)\n    for x in s:\n        print(x)\n"
        findings = lint_source(src)
        assert rules_of(findings) == ["D101"]
        assert findings[0].line == 3

    def test_d101_clean_sorted_iteration(self):
        src = (
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    for x in sorted(s):\n"
            "        print(x)\n"
        )
        assert lint_rules(src) == []

    def test_d101_clean_membership_and_reducers(self):
        src = (
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    n = len(s)\n"
            "    lo = min(s)\n"
            "    ok = 3 in s\n"
            "    return n, lo, ok\n"
        )
        assert lint_rules(src) == []

    def test_d101_comprehension_over_set(self):
        src = "def f(xs):\n    s = frozenset(xs)\n    return [x + 1 for x in s]\n"
        assert lint_rules(src) == ["D101"]

    def test_d101_sorted_comprehension_clean(self):
        src = "def f(xs):\n    s = set(xs)\n    return sorted(x for x in s)\n"
        assert lint_rules(src) == []

    def test_d102_dict_keyed_from_set_iteration(self):
        src = (
            "def f(xs):\n"
            "    d = {}\n"
            "    for k in set(xs):\n"
            "        d[k] = 0\n"
            "    out = []\n"
            "    for k in d:\n"
            "        out.append(k)\n"
            "    return out\n"
        )
        rules = lint_rules(src)
        assert "D102" in rules  # the second loop
        assert "D101" in rules  # the first loop is itself unordered

    def test_d102_clean_insertion_ordered_dict(self):
        src = (
            "def f(xs):\n"
            "    d = {}\n"
            "    for k in xs:\n"
            "        d[k] = 0\n"
            "    return [k for k in d]\n"
        )
        assert lint_rules(src) == []

    def test_d103_module_level_rng(self):
        src = "import random\ndef f():\n    return random.random()\n"
        assert lint_rules(src) == ["D103"]

    def test_d103_numpy_global_rng(self):
        src = "import numpy as np\ndef f():\n    return np.random.rand(3)\n"
        assert lint_rules(src) == ["D103"]

    def test_d103_unseeded_default_rng(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )
        assert lint_rules(src) == ["D103"]

    def test_d103_clean_seeded_rng(self):
        src = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng\n"
        )
        assert lint_rules(src) == []

    def test_d104_wall_clock_in_generator_is_warning(self):
        src = (
            "import time\n"
            "def prog(env):\n"
            "    t0 = time.perf_counter()\n"
            "    yield env.recv(('x', 0))\n"
        )
        findings = lint_source(src)
        assert rules_of(findings) == ["D104"]
        assert findings[0].severity == Severity.WARNING

    def test_d104_wall_clock_in_host_code_is_note(self):
        src = "import time\ndef bench():\n    return time.perf_counter()\n"
        findings = lint_source(src)
        assert rules_of(findings) == ["D104"]
        assert findings[0].severity == Severity.NOTE

    def test_d105_id_keyed_iteration(self):
        src = (
            "def f(xs):\n"
            "    d = {}\n"
            "    for x in xs:\n"
            "        d[id(x)] = x\n"
            "    return [d[k] for k in d]\n"
        )
        assert lint_rules(src) == ["D105"]

    def test_d105_clean_id_keyed_membership(self):
        src = (
            "def f(xs, y):\n"
            "    d = {}\n"
            "    for x in xs:\n"
            "        d[id(x)] = x\n"
            "    return id(y) in d\n"
        )
        assert lint_rules(src) == []

    def test_d106_sum_over_set(self):
        src = "def f(xs):\n    s = set(xs)\n    return sum(s)\n"
        assert "D106" in lint_rules(src)

    def test_d106_accumulation_from_set_iteration(self):
        src = (
            "def f(xs):\n"
            "    acc = 0.0\n"
            "    for x in set(xs):\n"
            "        acc += x\n"
            "    return acc\n"
        )
        assert "D106" in lint_rules(src)

    def test_d106_clean_fsum(self):
        src = "import math\ndef f(xs):\n    s = set(xs)\n    return math.fsum(s)\n"
        assert lint_rules(src) == []

    def test_d106_clean_sum_over_sorted(self):
        src = "def f(xs):\n    s = set(xs)\n    return sum(sorted(s))\n"
        assert lint_rules(src) == []


# ---------------------------------------------------------------------------
# aliasing pass: Z201 / Z202
# ---------------------------------------------------------------------------


class TestAliasing:
    def test_z201_write_after_send(self):
        src = (
            "import numpy as np\n"
            "def prog(env):\n"
            "    buf = np.zeros(4)\n"
            "    env.send(1, ('t', 0), buf)\n"
            "    buf[0] = 1.0\n"
            "    yield env.recv(('u', 0))\n"
        )
        findings = lint_source(src)
        assert rules_of(findings) == ["Z201"]
        assert findings[0].line == 5
        assert "line 4" in findings[0].message

    def test_z201_clean_copy_on_send(self):
        src = (
            "import numpy as np\n"
            "def prog(env):\n"
            "    buf = np.zeros(4)\n"
            "    env.send(1, ('t', 0), buf.copy())\n"
            "    buf[0] = 1.0\n"
            "    yield env.recv(('u', 0))\n"
        )
        assert lint_rules(src) == []

    def test_z201_clean_rebind_kills_alias(self):
        src = (
            "import numpy as np\n"
            "def prog(env):\n"
            "    buf = np.zeros(4)\n"
            "    env.send(1, ('t', 0), buf)\n"
            "    buf = np.zeros(4)\n"
            "    buf[0] = 1.0\n"
            "    yield env.recv(('u', 0))\n"
        )
        assert lint_rules(src) == []

    def test_z201_loop_wraparound(self):
        src = (
            "import numpy as np\n"
            "def prog(env):\n"
            "    buf = np.zeros(4)\n"
            "    for k in range(3):\n"
            "        env.send(1, ('t', k), buf)\n"
            "        buf[0] = k\n"
            "    yield env.recv(('u', 0))\n"
        )
        assert "Z201" in lint_rules(src)

    def test_z201_multicast_payload_in_dict(self):
        src = (
            "import numpy as np\n"
            "def prog(env):\n"
            "    buf = np.zeros(4)\n"
            "    env.multicast([1, 2], ('t', 0), {'b': buf})\n"
            "    buf.fill(1.0)\n"
            "    yield env.recv(('u', 0))\n"
        )
        assert lint_rules(src) == ["Z201"]

    def test_z201_interprocedural_view_helper(self):
        src = (
            "import numpy as np\n"
            "def pack(b):\n"
            "    return b[0]\n"
            "def prog(env):\n"
            "    b = np.zeros((2, 4))\n"
            "    env.send(1, ('t', 0), pack(b))\n"
            "    b[0, 0] = 1.0\n"
            "    yield env.recv(('u', 0))\n"
        )
        assert lint_rules(src) == ["Z201"]

    def test_z201_interprocedural_copy_helper_clean(self):
        src = (
            "import numpy as np\n"
            "def pack(b):\n"
            "    return b[0].copy()\n"
            "def prog(env):\n"
            "    b = np.zeros((2, 4))\n"
            "    env.send(1, ('t', 0), pack(b))\n"
            "    b[0, 0] = 1.0\n"
            "    yield env.recv(('u', 0))\n"
        )
        assert lint_rules(src) == []

    def test_z202_recv_alias_retained_and_mutated(self):
        src = (
            "def prog(env, cache):\n"
            "    msg = yield env.recv(('t', 0))\n"
            "    cache[0] = msg\n"
            "    msg.fill(0.0)\n"
        )
        findings = lint_source(src)
        assert rules_of(findings) == ["Z202"]
        assert findings[0].line == 4

    def test_z202_clean_number_accumulator_fed_from_payload(self):
        # ``rows += nrows`` rebinds an int: it neither extends ``rows`` with
        # the payload's values nor writes to the payload
        src = (
            "def tally(fc):\n"
            "    rows = 0\n"
            "    for blk, nrows in fc['sweep']:\n"
            "        rows += nrows\n"
            "        if nrows > 1:\n"
            "            rows += 2 * nrows\n"
            "    return rows\n"
            "def prog(env, cache):\n"
            "    msg = yield env.recv(('t', 0))\n"
            "    cache[0] = msg\n"
            "    tally(msg)\n"
        )
        assert lint_rules(src) == []

    @pytest.mark.parametrize("init", ["[]", "2 * [None]"])
    def test_z202_list_extended_with_payload_still_flagged(self, init):
        src = (
            "def stash(items):\n"
            f"    acc = {init}\n"
            "    acc += items\n"
            "    acc[-1].fill(0.0)\n"
            "def prog(env, cache):\n"
            "    msg = yield env.recv(('t', 0))\n"
            "    cache[0] = msg\n"
            "    stash(msg)\n"
        )
        findings = lint_source(src)
        assert rules_of(findings) == ["Z202"]
        assert findings[0].line == 8

    def test_z202_clean_mutate_without_retention(self):
        src = (
            "def prog(env):\n"
            "    msg = yield env.recv(('t', 0))\n"
            "    msg.fill(0.0)\n"
            "    return msg\n"
        )
        assert lint_rules(src) == []

    def test_z202_clean_retain_without_mutation(self):
        src = (
            "def prog(env, cache):\n"
            "    msg = yield env.recv(('t', 0))\n"
            "    cache[0] = msg\n"
            "    return cache\n"
        )
        assert lint_rules(src) == []

    def test_custom_env_name(self):
        src = (
            "import numpy as np\n"
            "def prog(comm):\n"
            "    buf = np.zeros(4)\n"
            "    comm.send(1, ('t', 0), buf)\n"
            "    buf[0] = 1.0\n"
            "    yield comm.recv(('u', 0))\n"
        )
        assert lint_rules(src) == []  # default handle name is 'env'
        assert lint_rules(src, env_names=("comm",)) == ["Z201"]


# ---------------------------------------------------------------------------
# the codebase itself must be clean (the analyzers' standing regression)
# ---------------------------------------------------------------------------


class TestCodebaseClean:
    def test_src_repro_has_no_warnings_or_errors(self):
        import repro
        from pathlib import Path

        root = Path(repro.__file__).parent
        findings = lint_paths([root])
        bad = [f for f in findings
               if Severity.rank(f.severity) >= Severity.rank(Severity.WARNING)]
        assert bad == [], "\n".join(str(f) for f in bad)


# ---------------------------------------------------------------------------
# dynamic sanitizer: Simulator(sanitize=True)
# ---------------------------------------------------------------------------


def _mutating_program(env):
    if env.rank == 0:
        buf = np.ones(4)
        env.send(1, ("m", 0), buf)
        buf[0] = 99.0  # lint: disable=Z201 -- the seeded write-after-send
    else:
        msg = yield env.recv(("m", 0))
        assert msg[0] == 1.0  # the defensive copy hid the mutation
    yield env.barrier()


def _clean_program(env):
    if env.rank == 0:
        buf = np.ones(4)
        env.send(1, ("m", 0), buf.copy())
        buf[0] = 99.0
    else:
        msg = yield env.recv(("m", 0))
        assert msg[0] == 1.0
    yield env.barrier()


class TestSanitizer:
    def test_write_after_send_raises(self):
        sim = Simulator(2, GENERIC, _mutating_program, sanitize=True)
        with pytest.raises(PayloadMutationError) as ei:
            sim.run()
        err = ei.value
        assert err.src == 0 and err.dest == 1
        assert err.tag == ("m", 0)
        assert "write-after-send" in str(err)

    def test_copy_on_send_is_clean(self):
        Simulator(2, GENERIC, _clean_program, sanitize=True).run()

    def test_sanitize_off_hides_the_bug(self):
        # the defensive deep copy means the run "succeeds" — exactly why
        # the sanitizer exists
        Simulator(2, GENERIC, _mutating_program, sanitize=False).run()

    def test_mutated_record_flagged_in_trace(self):
        sim = Simulator(2, GENERIC, _mutating_program, trace=True,
                        sanitize=True)
        with pytest.raises(PayloadMutationError):
            sim.run()
        mutated = [r for r in sim.trace.records if r.mutated]
        assert len(mutated) == 1
        violations = check_messages(sim.trace, spec=GENERIC)
        assert any(v.rule == "MUTATE" for v in violations)

    def test_undelivered_mutation_detected_at_exit(self):
        def leaky(env):
            if env.rank == 0:
                buf = np.ones(2)
                env.send(1, ("never", 0), buf)
                buf[0] = 7.0  # lint: disable=Z201 -- seeded bug
            yield env.barrier()

        sim = Simulator(2, GENERIC, leaky, sanitize=True)
        with pytest.raises(PayloadMutationError) as ei:
            sim.run()
        assert "the run ended" in str(ei.value)

    def test_dict_payload_mutation_detected(self):
        def prog(env):
            if env.rank == 0:
                blocks = {0: np.ones(3), 1: np.zeros(3)}
                env.send(1, ("d", 0), blocks)
                blocks[1][2] = 5.0  # lint: disable=Z201 -- seeded bug
            else:
                yield env.recv(("d", 0))
            yield env.barrier()

        with pytest.raises(PayloadMutationError):
            Simulator(2, GENERIC, prog, sanitize=True).run()

    def test_sending_span_named_in_error(self):
        def prog(env):
            if env.rank == 0:
                t0 = env.clock
                buf = np.ones(4)
                env.send(1, ("m", 0), buf)
                env.span("F7", t0)
                buf[0] = -1.0  # lint: disable=Z201 -- seeded bug
            else:
                yield env.recv(("m", 0))
            yield env.barrier()

        with pytest.raises(PayloadMutationError) as ei:
            Simulator(2, GENERIC, prog, sanitize=True).run()
        assert ei.value.span == "F7"
        assert "'F7'" in str(ei.value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _seeded(self, tmp_path):
        p = tmp_path / "seeded.py"
        p.write_text(
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    for x in s:\n"
            "        print(x)\n"
        )
        return p

    def test_lint_exit_nonzero_at_warning(self, tmp_path, capsys):
        p = self._seeded(tmp_path)
        assert main(["lint", str(p)]) == 1
        out = capsys.readouterr().out
        assert "D101" in out and "1 finding(s)" in out

    def test_lint_fail_on_never(self, tmp_path):
        p = self._seeded(tmp_path)
        assert main(["lint", str(p), "--fail-on=never"]) == 0

    def test_lint_fail_on_error(self, tmp_path):
        p = self._seeded(tmp_path)  # D101 is a warning
        assert main(["lint", str(p), "--fail-on=error"]) == 0

    def test_lint_json(self, tmp_path, capsys):
        p = self._seeded(tmp_path)
        assert main(["lint", str(p), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 1
        assert doc["findings"][0]["rule"] == "D101"

    def test_lint_select(self, tmp_path, capsys):
        p = self._seeded(tmp_path)
        assert main(["lint", str(p), "--select", "Z201"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_clean_file(self, tmp_path, capsys):
        p = tmp_path / "clean.py"
        p.write_text("def f(xs):\n    return sorted(set(xs))\n")
        assert main(["lint", str(p)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_verify_comm_static_json(self, capsys):
        rc = main(["verify-comm", "--static-only", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["ok"] is True
        assert "oned.py" in doc["static"]

    def test_verify_comm_fail_on_threshold(self, tmp_path, capsys):
        bad = tmp_path / "badmod.py"
        bad.write_text(
            "def prog(env):\n"
            "    env.recv(('x', 0))\n"   # Y01: recv not yielded (error)
            "    yield env.barrier()\n"
        )
        rc = main(["verify-comm", "--module", str(bad), "--static-only"])
        assert rc == 1
        assert "Y01" in capsys.readouterr().out
        rc = main(["verify-comm", "--module", str(bad), "--static-only",
                   "--fail-on=never"])
        assert rc == 0

    def test_verify_comm_fails_on_a_module_it_cannot_parse(self, tmp_path, capsys):
        bad = tmp_path / "badmod.py"
        bad.write_text("def prog(env:\n    yield env.barrier()\n")
        rc = main(["verify-comm", "--module", str(bad), "--static-only", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1 and doc["ok"] is False
        assert [f["rule"] for f in doc["static"]["badmod.py"]] == ["PARSE"]
