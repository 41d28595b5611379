"""Parallelism profiling of the task DAG."""

import json


from repro.machine import T3E
from repro.matrices import dense_matrix, random_nonsymmetric
from repro.ordering import prepare_matrix
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization
from repro.taskgraph import build_task_graph, parallelism_profile


def _tg(n=70, seed=3, block=6):
    A = random_nonsymmetric(n, density=0.08, seed=seed)
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=block, amalgamation=4)
    return build_task_graph(build_block_structure(sym, part))


class TestProfile:
    def test_basic_invariants(self):
        tg = _tg()
        p = parallelism_profile(tg, T3E)
        assert p.ntasks == len(tg.tasks)
        assert 0 < p.critical_path_seconds <= p.total_seconds
        assert p.average_parallelism >= 1.0
        assert 1 <= p.depth <= p.ntasks
        assert 1 <= p.max_width <= p.ntasks

    def test_sparse_has_more_parallelism_than_dense_chain(self):
        """A sparse DAG's average parallelism exceeds the dense matrix's
        heavily chained one at equal block granularity."""
        tg_sparse = _tg(n=80, seed=5, block=4)
        A = dense_matrix(80, seed=5)
        sym = static_symbolic_factorization(A)
        part = build_partition(sym, max_size=4, amalgamation=0)
        tg_dense = build_task_graph(build_block_structure(sym, part))
        ps = parallelism_profile(tg_sparse, T3E)
        pd = parallelism_profile(tg_dense, T3E)
        assert ps.average_parallelism > 1.0
        assert pd.depth >= tg_dense.N  # the dense pipeline chains every stage

    def test_mixed_granularities(self):
        """The paper's 'mixed granularities': task durations spread widely."""
        p = parallelism_profile(_tg(n=90, seed=7), T3E)
        assert p.granularity_spread > 2.0


class TestChromeTrace:
    def test_export(self, tmp_path):
        from repro.obs import to_chrome_trace, validate_trace
        from repro.machine import T3E as spec
        from repro.parallel import run_2d
        from repro.matrices import random_nonsymmetric
        from repro.ordering import prepare_matrix
        from repro.supernodes import build_block_structure, build_partition
        from repro.symbolic import static_symbolic_factorization

        A = random_nonsymmetric(50, density=0.1, seed=8)
        om = prepare_matrix(A)
        sym = static_symbolic_factorization(om.A)
        part = build_partition(sym, max_size=5, amalgamation=2)
        bstruct = build_block_structure(sym, part)
        res = run_2d(om.A, part, bstruct, 4, spec)
        out = tmp_path / "trace.json"
        out.write_text(json.dumps(to_chrome_trace(res.sim.spans)))
        data = json.loads(out.read_text())
        assert validate_trace(data) == []
        tasks = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(tasks) == len(res.sim.spans)
        assert {e["pid"] for e in tasks} == {s.track for s in res.sim.spans}
