"""The repro.lint framework and its rule, D103: seeded-bug corpus + near-misses.

Each seeded-bug test injects exactly one defect of one rule's class into a
toy snippet and asserts the rule fires at the right line; each is paired
with a near-miss snippet that is semantically adjacent but clean, so the
false-positive surface is pinned down too.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import lint
from repro.cli import main
from repro.lint import (
    RULES,
    Severity,
    count_at_or_above,
    lint_paths,
    lint_source,
    max_severity,
    render_json,
    render_text,
)


def rules_of(findings):
    return [f.rule for f in findings]


def lint_rules(src, **kw):
    return rules_of(lint_source(src, **kw))


#: a draw from numpy's global RNG: one D103 error, on line 3
GLOBAL_RNG_PROGRAM = (
    "import numpy as np\n"
    "def jitter(n):\n"
    "    return np.random.rand(n)\n"
)


# ---------------------------------------------------------------------------
# framework: registry, severities, suppression, rendering
# ---------------------------------------------------------------------------


class TestFramework:
    def test_registry_has_all_rules(self):
        assert sorted(RULES) == ["D103"]
        assert RULES["D103"].severity == Severity.ERROR

    def test_suppression_single_rule(self):
        src = (
            "import random\n"
            "def f():\n"
            "    return random.random()  # lint: disable=D103\n"
        )
        assert lint_rules(src) == []

    def test_suppression_all(self):
        src = (
            "import random\n"
            "def f():\n"
            "    return random.random()  # lint: disable\n"
        )
        assert lint_rules(src) == []

    def test_suppression_other_rule_does_not_mask(self):
        src = (
            "import random\n"
            "def f():\n"
            "    return random.random()  # lint: disable=D101\n"
        )
        assert lint_rules(src) == ["D103"]

    def test_severity_aggregation(self):
        src = (
            "import random\n"
            "def f():\n"
            "    return random.random(), random.randint(0, 9)\n"
        )
        findings = lint_source(src)
        assert max_severity(findings) == Severity.ERROR
        assert count_at_or_above(findings, Severity.ERROR) == 2
        assert count_at_or_above(findings, Severity.NOTE) == len(findings)
        assert max_severity([]) is None

    def test_render_text_and_json(self):
        findings = lint_source(GLOBAL_RNG_PROGRAM, path="toy.py")
        text = render_text(findings)
        assert "toy.py:3" in text and "D103" in text
        doc = json.loads(render_json(findings, fail_on="warning"))
        assert doc["counts"]["error"] == 1
        assert doc["failures"] == 1
        assert doc["findings"][0]["rule"] == "D103"
        assert list(doc["rules"]) == ["D103"]

    def test_parse_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([bad])
        assert rules_of(findings) == ["PARSE"]
        assert findings[0].severity == Severity.ERROR

    def test_parse_error_survives_any_select(self, tmp_path):
        # "no D103 finding" must not read as "clean" for a file never analysed
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert rules_of(lint_paths([bad], select=["D103"])) == ["PARSE"]
        assert rules_of(lint_paths([bad], select=[])) == ["PARSE"]
        assert rules_of(lint_paths([bad], select=["PARSE"])) == ["PARSE"]

    def test_select_names_unknown_rules(self, tmp_path):
        with pytest.raises(ValueError, match=r"unknown rule id\(s\): Q9, Z201$"):
            lint.lint_source("x = 1\n", select=["D103", "Z201", "Q9"])
        with pytest.raises(ValueError, match="D101"):
            lint_paths([tmp_path], select=["D101"])


# ---------------------------------------------------------------------------
# determinism pass: D103
# ---------------------------------------------------------------------------

#: one defect each: global RNG state, reached through every import form the
#: pass resolves, or a seedable constructor called without a seed
D103_SEEDED = {
    "unseeded_random_Random": (
        "import random\ndef f():\n    return random.Random()\n"),
    "unseeded_RandomState": (
        "import numpy as np\ndef f():\n    return np.random.RandomState()\n"),
    "unseeded_bit_generator": (
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.Generator(np.random.PCG64())\n"),
    "from_import_default_rng": (
        "from numpy.random import default_rng\n"
        "def f():\n"
        "    return default_rng()\n"),
    "numpy_random_module_alias": (
        "import numpy.random as npr\ndef f(x):\n    npr.shuffle(x)\n"),
    "from_random_import_shuffle": (
        "from random import shuffle\ndef f(x):\n    shuffle(x)\n"),
    "unaliased_numpy": (
        "import numpy\ndef f():\n    return numpy.random.normal()\n"),
    "global_seed_call": (
        "import numpy as np\ndef f():\n    np.random.seed(0)\n"),
}

#: near misses: seeded constructors (positional, keyword, a seeded bit
#: generator), draws from a generator object, and a name ``random`` that is
#: not the standard library's
D103_CLEAN = {
    "seed_keyword": (
        "import numpy as np\ndef f():\n    return np.random.default_rng(seed=3)\n"),
    "seeded_random_Random": (
        "import random\ndef f():\n    return random.Random(7)\n"),
    "seeded_bit_generator": (
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.Generator(np.random.PCG64(1))\n"),
    "seeded_seed_sequence": (
        "import numpy as np\n"
        "def f(seed):\n"
        "    return np.random.default_rng(np.random.SeedSequence(seed))\n"),
    "draws_from_a_seeded_generator": (
        "import numpy as np\n"
        "def f():\n"
        "    rng = np.random.default_rng(0)\n"
        "    return rng.permutation(5)\n"),
    "draws_from_a_passed_generator": (
        "def f(rng):\n    return rng.random(3)\n"),
    "relative_module_named_random": (
        "from . import random\ndef f():\n    return random.random()\n"),
}


class TestDeterminism:
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

    @pytest.mark.parametrize("case", list(D103_SEEDED))
    def test_d103_seeded(self, case):
        findings = lint_source(D103_SEEDED[case])
        assert [(f.rule, f.line) for f in findings] == [("D103", 3)]

    @pytest.mark.parametrize("case", list(D103_CLEAN))
    def test_d103_near_miss_clean(self, case):
        assert lint_rules(D103_CLEAN[case]) == []


# ---------------------------------------------------------------------------
# the census rows that keep a rule: mutants no dynamic gate catches
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _census():
    """``tools/lint_census.py``'s mutants by id, and the ids of the census
    record's rows that only a rule killed."""
    spec = importlib.util.spec_from_file_location(
        "lint_census", ROOT / "tools" / "lint_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    rows = json.loads(census.OUT.read_text())["rows"]
    return ({m["id"]: m for m in census.MUTANTS},
            [r["mutant"] for r in rows if r["verdict"] == "rule only"])


MUTANTS, RULE_ONLY = _census()


class TestCensusRows:
    def test_every_rule_only_row_names_a_kept_rule(self):
        assert RULE_ONLY
        assert {MUTANTS[m]["rule"] for m in RULE_ONLY} <= set(RULES)

    @pytest.mark.parametrize("mid", RULE_ONLY)
    def test_rule_only_mutant_is_still_flagged(self, mid):
        """Seeded into today's source, the mutant the dynamic gates miss
        still draws its rule's finding, one more than the clean file."""
        m = MUTANTS[mid]
        src = (ROOT / m["path"]).read_text()
        assert src.count(m["old"]) == 1, f"{mid}: the mutated text moved"
        mutated = src.replace(m["old"], m["new"])
        before = lint_source(src, m["path"], select=[m["rule"]])
        after = lint_source(mutated, m["path"], select=[m["rule"]])
        assert len(after) == len(before) + 1, mid


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
# memory: one file's tree alive at a time
# ---------------------------------------------------------------------------


class TestMemory:
    def test_peak_does_not_grow_with_the_file_count(self, tmp_path):
        """``lint_paths`` parses, checks and drops one file at a time:
        linting a tree of a few hundred files peaks near linting one."""
        import tracemalloc

        src = "import numpy as np\n\n" + "".join(
            f"def f{i}(xs, seed):\n"
            f"    rng = np.random.default_rng(seed)\n"
            f"    return sorted(set(xs)), rng.random({i})\n\n"
            for i in range(20))
        one = tmp_path / "one"
        one.mkdir()
        (one / "m.py").write_text(src)
        tree = tmp_path / "tree"
        for k in range(300):
            pkg = tree / f"pkg{k % 12}"
            pkg.mkdir(parents=True, exist_ok=True)
            (pkg / f"m{k}.py").write_text(src)

        def peak(path):
            tracemalloc.start()
            try:
                assert lint_paths([path]) == []
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(tree) < 3 * peak(one)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _seeded(self, tmp_path):
        p = tmp_path / "seeded.py"
        p.write_text(GLOBAL_RNG_PROGRAM)
        return p

    def test_lint_exit_nonzero_at_warning(self, tmp_path, capsys):
        p = self._seeded(tmp_path)
        assert main(["lint", str(p)]) == 1
        out = capsys.readouterr().out
        assert "D103" in out and "1 finding(s)" in out

    def test_lint_fail_on_never(self, tmp_path):
        p = self._seeded(tmp_path)
        assert main(["lint", str(p), "--fail-on=never"]) == 0

    def test_lint_fail_on_error(self, tmp_path):
        p = self._seeded(tmp_path)  # D103 is an error
        assert main(["lint", str(p), "--fail-on=error"]) == 1

    def test_lint_json(self, tmp_path, capsys):
        p = self._seeded(tmp_path)
        assert main(["lint", str(p), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 1
        assert doc["findings"][0]["rule"] == "D103"

    def test_lint_select(self, tmp_path, capsys):
        p = self._seeded(tmp_path)
        assert main(["lint", str(p), "--select", "PARSE"]) == 0
        assert "0 findings" in capsys.readouterr().out

    @pytest.mark.parametrize("select, unknown", [
        ("Z201", "Z201"), ("D101", "D101"), ("D103,Q999", "Q999")])
    def test_lint_select_unknown_rule_is_a_usage_error(
            self, tmp_path, capsys, select, unknown):
        # a retired or mistyped id must not read as a clean run
        p = self._seeded(tmp_path)
        assert main(["lint", str(p), "--select", select]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown rule id(s): {unknown}" in captured.err

    def test_lint_clean_file(self, tmp_path, capsys):
        p = tmp_path / "clean.py"
        p.write_text("def f(xs):\n    return sorted(set(xs))\n")
        assert main(["lint", str(p)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_fails_on_a_module_it_cannot_parse(self, tmp_path, capsys):
        bad = tmp_path / "badmod.py"
        bad.write_text("def prog(env:\n    yield env.barrier()\n")
        rc = main(["lint", str(bad), "--select", "D103", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1 and doc["failures"] == 1
        assert [f["rule"] for f in doc["findings"]] == ["PARSE"]
