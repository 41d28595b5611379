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

    def test_threshold_flag(self, mtx_path, capsys):
        assert main(["factor", mtx_path, "--threshold", "0.5"]) == 0


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


class TestSimulate:
    @pytest.mark.parametrize("method", ["1d-rapid", "2d"])
    def test_runs(self, mtx_path, method, capsys):
        assert main(["simulate", mtx_path, "--nprocs", "4", "--method", method]) == 0
        out = capsys.readouterr().out
        assert "modeled parallel time" in out


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


class TestBenchService:
    def test_reports_amortization(self, capsys):
        assert main(
            ["bench-service", "--name", "jpwh991", "--repeats", "1",
             "--nrhs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "analyze amortization" in out
        assert "multi-RHS" in out


class TestVerifyComm:
    def test_static_only_all_modules(self, capsys):
        assert main(["verify-comm", "--static-only"]) == 0
        out = capsys.readouterr().out
        assert "static comm-lint" in out
        assert "PASS" in out

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
