"""Communication-volume analysis and the delayed-pivoting aggregation."""

import pytest

from repro.analysis.comm import (
    CommReport,
    comm_report_from_envs,
    predicted_1d_volume,
)
from repro.machine import Simulator, T3E
from repro.matrices import get_matrix
from repro.ordering import prepare_matrix
from repro.parallel import run_1d
from repro.scheduling import graph_schedule
from repro.supernodes import build_block_structure, build_partition
from repro.symbolic import static_symbolic_factorization
from repro.taskgraph import build_task_graph


@pytest.fixture(scope="module")
def pipeline():
    A = get_matrix("sherman5", "small")
    om = prepare_matrix(A)
    sym = static_symbolic_factorization(om.A)
    part = build_partition(sym, max_size=8, amalgamation=4)
    bstruct = build_block_structure(sym, part)
    tg = build_task_graph(bstruct)
    return om, part, bstruct, tg


class TestCommReport:
    def test_mean_message_size(self):
        r = CommReport(4, 4096, [2, 2], [2048, 2048])
        assert r.mean_message_bytes == 1024
        assert r.imbalance() == pytest.approx(1.0)

    def test_imbalance(self):
        r = CommReport(2, 300, [1, 1], [100, 200])
        assert r.imbalance() == pytest.approx(200 / 150)

    def test_empty(self):
        r = CommReport(0, 0, [], [])
        assert r.mean_message_bytes == 0.0
        assert r.imbalance() == 1.0

    def test_from_envs(self):
        def prog(env):
            if env.rank == 0:
                env.send(1, "x", 1.0)
            else:
                yield env.recv("x")

        sim = Simulator(2, T3E, prog)
        sim.run()
        rep = comm_report_from_envs(sim.envs)
        assert rep.messages == 1
        assert rep.per_rank_messages[0] == 1


class TestPredictedVolume:
    def test_matches_actual_rapid_bytes(self, pipeline):
        """The 1D RAPID executor must move exactly the predicted factor-
        column bytes (delayed pivoting aggregates everything else away)."""
        om, part, bstruct, tg = pipeline
        sched = graph_schedule(tg, 4, T3E)
        predicted = predicted_1d_volume(tg, sched)
        res = run_1d(om.A, part, bstruct, 4, T3E, method="rapid", tg=tg)
        # the executor sizes messages with NumericPlan.column_nbytes(K),
        # which counts the same panels plus small pivot metadata
        assert res.sim.bytes_sent == pytest.approx(predicted, rel=0.25)

    def test_single_proc_zero(self, pipeline):
        om, part, bstruct, tg = pipeline
        sched = graph_schedule(tg, 1, T3E)
        assert predicted_1d_volume(tg, sched) == 0
