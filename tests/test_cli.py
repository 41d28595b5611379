"""The ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.matrices import get_matrix
from repro.sparse import write_matrix_market


@pytest.fixture(scope="module")
def mtx_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "m.mtx"
    write_matrix_market(p, get_matrix("jpwh991", "small"))
    return str(p)


BAD_VALUES = [
    ["serve-demo", "--burst", "0"],
    ["serve-demo", "--workers", "0"],
    ["serve-demo", "--jobs", "-1"],
    ["serve-demo", "--nrhs", "0"],
    ["serve-demo", "--max-queue", "0"],
    ["serve-demo", "--max-batch", "0"],
    ["serve-demo", "--inter-arrival", "-1"],
    ["serve-demo", "--inter-arrival", "nan"],
    ["factor", "M", "--threshold", "0"],
    ["factor", "M", "--threshold", "1.5"],
    ["factor", "M", "--threshold", "nan"],
    ["factor", "M", "--block-size", "-3"],
    ["factor", "M", "--amalgamation", "-1"],
    ["solve", "M", "--threshold", "-1"],
    ["tune", "sherman5", "--budget", "abc"],
    ["tune", "sherman5", "--budget", "-1"],
    ["verify-comm", "--replays", "-1"],
    ["verify-comm", "--block-size", "0"],
    ["verify-comm", "--n", "9"],
    ["chaos", "--budget", "-3"],
    ["trace", "M", "--top", "-1"],
]


@pytest.mark.parametrize("argv", BAD_VALUES, ids=" ".join)
def test_bad_value_is_a_usage_error(argv, mtx_path, capsys):
    """A count, threshold or budget no run can honour exits 2 with a usage
    message naming the flag, before any work and without a traceback."""
    argv = [mtx_path if a == "M" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.fixture
def bad_inputs(tmp_path, mtx_path):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "bad.mtx").write_text("hello\n")
    (tmp_path / "bad.txt").write_text("1 2\nthree\n")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "rule.json").write_text('{"rules": [{}]}')
    return {"MISSING": str(tmp_path / "nonexist.mtx"), "BADMTX": str(tmp_path / "bad.mtx"),
            "BADRHS": str(tmp_path / "bad.txt"), "BADJSON": str(tmp_path / "bad.json"),
            "LIST": str(tmp_path / "list.json"), "EMPTY": str(tmp_path / "empty.json"),
            "RULE": str(tmp_path / "rule.json"), "M": mtx_path}


@pytest.mark.parametrize("argv", [
    ["info", "MISSING"],
    ["info", "BADMTX"],
    ["solve", "M", "--rhs", "BADRHS"],
    ["factor", "M", "--faults", "BADJSON"],
    ["trace", "--load", "BADJSON"],
    # JSON of the wrong shape
    ["factor", "M", "--faults", "LIST"],
    ["factor", "M", "--faults", "RULE"],
    ["trace", "--load", "LIST"],
    ["trace", "--load", "EMPTY"],
], ids=" ".join)
def test_bad_input_file_is_a_usage_error(argv, bad_inputs, capsys):
    """A file that cannot be opened or parsed ends the verb with exit 2 and
    ``repro <verb>: error: <path>: <reason>``, not a traceback."""
    argv = [bad_inputs.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"repro {argv[0]}: error: {argv[-1]}: ")


class TestGenerate:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "g.mtx"
        assert main(["generate", "orsreg1", "-o", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_unknown_name(self, tmp_path, capsys):
        assert main(["generate", "nosuch", "-o", str(tmp_path / "x.mtx")]) == 2


class TestInfo:
    def test_prints_statistics(self, mtx_path, capsys):
        assert main(["info", mtx_path]) == 0
        out = capsys.readouterr().out
        assert "overestimation ratio" in out
        assert "symmetry" in out

    def test_skip_dynamic(self, mtx_path, capsys):
        assert main(["info", mtx_path, "--skip-dynamic"]) == 0
        assert "overestimation" not in capsys.readouterr().out

    def test_alternative_ordering(self, mtx_path, capsys):
        assert main(["info", mtx_path, "--ordering", "mindeg-aplusat"]) == 0


class TestFactor:
    def test_reports(self, mtx_path, capsys):
        assert main(["factor", mtx_path]) == 0
        out = capsys.readouterr().out
        assert "dgemm fraction" in out
        assert "interchanges" in out
        assert "modeled parallel time" not in out

    def test_threshold_flag(self, mtx_path, capsys):
        assert main(["factor", mtx_path, "--threshold", "0.5"]) == 0

    @pytest.mark.parametrize("method", ["1d-rapid", "2d"])
    def test_parallel_method(self, mtx_path, method, capsys):
        assert main(["factor", mtx_path, "--nprocs", "4", "--method", method]) == 0
        out = capsys.readouterr().out
        assert f"method={method} machine=T3E P=4" in out
        assert "modeled parallel time" in out and "interchanges" in out

    @pytest.mark.parametrize("extra", [
        [], ["--reliable"], ["--reliable", "--ckpt-interval", "4"]])
    def test_sequential_with_faults_runs_on_the_simulated_machine(
            self, mtx_path, tmp_path, capsys, extra):
        """Faults need the simulated machine: a sequential ``factor --faults``
        runs 1d-ca on at least 4 ranks with retries (as ``solve`` does),
        with or without ``--reliable``, instead of raising.  A checkpointed
        run reports the faults of its committed rounds."""
        from repro.machine import FaultPlan

        plan = tmp_path / "plan.json"
        FaultPlan.drops(0.05, seed=3).to_json(plan)
        assert main(["factor", mtx_path, "--faults", str(plan),
                     "--nprocs", "2", *extra]) == 0
        out = capsys.readouterr().out
        assert "method=1d-ca machine=T3E P=4" in out
        assert "faults injected" in out and "retransmits" in out


class TestSolve:
    def test_random_rhs(self, mtx_path, capsys):
        assert main(["solve", mtx_path]) == 0
        out = capsys.readouterr().out
        assert "relative residual" in out

    def test_rhs_file_and_output(self, mtx_path, tmp_path, capsys):
        n = 220
        rhs = tmp_path / "b.txt"
        np.savetxt(rhs, np.ones(n))
        out = tmp_path / "x.txt"
        assert main(["solve", mtx_path, "--rhs", str(rhs), "-o", str(out)]) == 0
        x = np.loadtxt(out)
        assert x.shape == (n,)

    def test_refinement(self, mtx_path, capsys):
        assert main(["solve", mtx_path, "--refine"]) == 0
        assert "refinement backward errors" in capsys.readouterr().out


class TestSuite:
    def test_lists_matrices(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "sherman5" in out and "vavasis3" in out


class TestValidate:
    def test_all_checks_pass(self, mtx_path, capsys):
        assert main(["validate", mtx_path, "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_skip_parallel(self, mtx_path, capsys):
        assert main(["validate", mtx_path, "--skip-parallel"]) == 0
        out = capsys.readouterr().out
        assert "parallel agreement" not in out

    def test_structurally_singular_fails(self, tmp_path, capsys):
        p = tmp_path / "sing.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n1 1 1.0\n2 1 1.0\n3 1 1.0\n"
        )
        assert main(["validate", str(p)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestServeDemo:
    def test_small_workload(self, capsys):
        assert main(
            [
                "serve-demo",
                "--jobs", "6",
                "--workers", "2",
                "--patterns", "1",
                "--burst", "3",
                "--max-queue", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "hit rate" in out
        assert "worst |Ax-b|" in out

    def test_multi_rhs_jobs(self, capsys):
        assert main(
            ["serve-demo", "--jobs", "4", "--patterns", "1", "--nrhs", "2"]
        ) == 0
        assert "completed" in capsys.readouterr().out


class TestVerifyComm:
    def test_full_small_run(self, capsys):
        assert main(
            [
                "verify-comm",
                "--n", "60",
                "--block-size", "6",
                "--codes", "1d-rapid",
                "--replays", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "dynamic trace check" in out
        assert "determinism replay" in out
        assert "PASS: 0 violation(s)" in out

    def test_unknown_code_rejected(self, capsys):
        assert main(["verify-comm", "--codes", "nosuch", "--n", "40"]) == 2


class TestChaos:
    def test_drop_and_crash_campaign(self, capsys):
        """The fault cases ``verify-comm`` used to run are ``repro chaos``
        runs: seeded drops under reliable delivery and crash recovery, every
        check of every run green."""
        import json

        assert main(["chaos", "--campaign", "drop,crash", "--budget", "12",
                     "--seed", "42", "--fail-on", "failure", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["runs"] == 12 and doc["failures"] == []
        cov = doc["coverage"]
        assert set(cov["families"]) == {"drop", "crash"}
        assert cov["actions"].get("drop", 0) > 0 and cov["crashes"] >= 1
