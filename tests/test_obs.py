"""repro.obs: tracing, metrics, exporters and critical-path profiling.

Acceptance-criteria coverage for ISSUE 7: span emission is deterministic
across permuted host orders (the PR-1 replay promise extends to traces);
the Chrome/Perfetto export round-trips through ``from_chrome_trace`` and
passes schema validation; the critical path recovered from the span +
message graph matches the simulator's total virtual time to 1e-9 on both
the 1D and 2D codes and reconciles against the task-graph model; the
metrics registry mirrors simulator/service/cache accounting; and the
``repro trace`` / ``repro profile`` CLI verbs run end to end.
"""

import json

import numpy as np
import pytest

from repro.api import SStarSolver
from repro.machine import GENERIC, Simulator
from repro.obs import (
    BARRIER_WAIT,
    COMPUTE,
    PHASE,
    PIPELINE_PHASES,
    RECV_WAIT,
    SEND,
    TASK,
    Counter,
    Gauge,
    Histogram,
    MessageRecord,
    MetricsRegistry,
    Tracer,
    analyze_phase_spans,
    as_tracer,
    from_chrome_trace,
    profile_trace,
    reconcile,
    render_summary,
    tag_label,
    to_chrome_trace,
    validate_trace,
)
from repro.parallel import run_1d, run_2d
from repro.scheduling import gantt_from_trace
from repro.sparse import csr_matvec
from repro.taskgraph import build_task_graph
from repro.verify.replay import host_orders


MATRIX = "sherman5"


@pytest.fixture(scope="module")
def ctx(contexts):
    return contexts(MATRIX)


def traced_1d(p, host_order=None):
    tr = Tracer()
    opts = {"tracer": tr}
    if host_order is not None:
        opts["host_order"] = host_order
    res = run_1d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                 method="ca", sim_opts=opts)
    return res, tr


def traced_2d(p, host_order=None):
    tr = Tracer()
    opts = {"tracer": tr}
    if host_order is not None:
        opts["host_order"] = host_order
    res = run_2d(p["om"].A, p["part"], p["bstruct"], 4, GENERIC,
                 sim_opts=opts)
    return res, tr


class TestMetrics:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_track_max(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1
        m = Gauge("peak")
        m.track_max(2)
        m.track_max(5)
        m.track_max(4)
        assert m.value == 5

    def test_histogram_percentiles_exact(self):
        h = Histogram("lat")
        vals = [0.5, 1.5, 2.5, 3.5, 4.5]
        for v in vals:
            h.observe(v)
        # nearest-rank percentiles over retained samples
        assert h.percentile(0.50) == 2.5
        assert h.percentile(0.95) == 4.5
        assert h.count == 5
        assert h.mean == pytest.approx(2.5)
        d = h.as_dict()
        assert d["count"] == 5 and "buckets" in d

    def test_histogram_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 1.0))

    def test_registry_get_or_create_and_as_dict(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        r.counter("b.z").inc(2)
        r.gauge("b.g").set(7)
        r.histogram("h").observe(1.0)
        assert r.value("b.z") == 2
        d = r.as_dict()
        assert list(d["counters"]) == sorted(d["counters"])
        assert d["gauges"]["b.g"] == 7
        with pytest.raises(TypeError):
            r.gauge("b.z")  # name already registered as a counter


class TestTracer:
    def test_span_and_track_end(self):
        tr = Tracer()
        tr.span(0, "k", COMPUTE, 0.0, 1.0)
        tr.span("pipeline/main", "ordering", PHASE, 0.0, 2.0)
        assert tr.track_end(0) == 1.0
        assert tr.track_end("pipeline/main") == 2.0
        assert tr.track_end("missing") == 0.0

    def test_offset_proxy_shifts_and_shares(self):
        tr = Tracer()
        off = tr.offset(10.0)
        off.span(0, "k", COMPUTE, 0.0, 1.0)
        rec = MessageRecord(0, 1, ("t",), 0.5, arrival=0.6, nbytes=64,
                            t_recv=0.8)
        off.message(rec)
        assert tr.spans[-1].start == 10.0 and tr.spans[-1].end == 11.0
        assert tr.messages[-1].t_send == 10.5
        assert tr.messages[-1].t_recv == 10.8
        assert rec.t_send == 0.5  # the run's own record is not shifted
        off.metrics.counter("x").inc()
        assert tr.metrics.value("x") == 1
        # nested offsets compose
        off2 = off.offset(5.0)
        off2.span(0, "k2", COMPUTE, 0.0, 1.0)
        assert tr.spans[-1].start == 15.0

    def test_as_tracer(self):
        tr = Tracer()
        assert as_tracer(None) is None
        assert as_tracer(False) is None
        assert as_tracer(tr) is tr
        assert isinstance(as_tracer(True), Tracer)

    def test_tag_label(self):
        assert tag_label(("col", 3, 1)) == "col:3:1"
        assert tag_label("done") == "done"


class TestSimulatorSpans:
    def test_spans_tile_each_rank_timeline(self, ctx):
        res, tr = traced_1d(ctx)
        total = res.sim.total_time
        for r in range(4):
            spans = sorted(
                (s for s in tr.spans
                 if s.track == r and s.cat != TASK),
                key=lambda s: (s.start, s.end),
            )
            assert spans, f"rank {r} emitted no spans"
            cursor = 0.0
            for s in spans:
                assert s.start == pytest.approx(cursor, abs=1e-12)
                cursor = s.end
            assert cursor == pytest.approx(res.sim.rank_clocks[r], abs=1e-12)
        assert total == max(res.sim.rank_clocks)

    def test_trace_deterministic_across_host_orders(self, ctx):
        runs = [traced_1d(ctx, order) for order in host_orders(4, 3)]
        base_spans = [s.key() for s in runs[0][1].spans]
        base_msgs = sorted(m.key() for m in runs[0][1].messages)
        for res, tr in runs[1:]:
            assert sorted(s.key() for s in tr.spans) == sorted(base_spans)
            assert sorted(m.key() for m in tr.messages) == base_msgs
            assert res.sim.total_time == runs[0][0].sim.total_time

    def test_message_records_match_sim_counts(self, ctx):
        res, tr = traced_2d(ctx)
        assert len(tr.messages) == res.sim.messages
        assert sum(m.nbytes for m in tr.messages) == res.sim.bytes_sent
        assert tr.metrics.value("sim.messages") == res.sim.messages
        assert tr.metrics.value("sim.bytes") == res.sim.bytes_sent

    def test_barrier_wait_spans(self):
        def prog(env):
            if env.rank == 0:
                env.compute("dgemm", 1e6)
            yield env.barrier()

        tr = Tracer()
        Simulator(2, GENERIC, prog, tracer=tr).run()
        waits = [s for s in tr.spans if s.cat == BARRIER_WAIT]
        assert any(s.track == 1 for s in waits)  # rank 1 waited for rank 0


class TestChromeExport:
    def test_round_trip_and_schema(self, ctx):
        res, tr = traced_2d(ctx)
        doc = to_chrome_trace(tr)
        assert validate_trace(doc) == []
        spans, messages = from_chrome_trace(doc)
        # timestamps round-trip through microseconds at float precision
        got = sorted(s.key() for s in spans)
        want = sorted(s.key() for s in tr.spans)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[:3] == w[:3]
            assert g[3] == pytest.approx(w[3], rel=1e-12, abs=1e-15)
            assert g[4] == pytest.approx(w[4], rel=1e-12, abs=1e-15)
        assert len(messages) == len(tr.messages)
        assert sorted((m.src, m.dest) for m in messages) == \
            sorted((m.src, m.dest) for m in tr.messages)

    def test_flow_events_pair_per_message(self, ctx):
        res, tr = traced_2d(ctx)
        doc = to_chrome_trace(tr)
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) == len(tr.messages) > 0
        assert all(e["bp"] == "e" for e in finishes)

    def test_validator_catches_problems(self):
        doc = {"traceEvents": [
            {"ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "name": "a",
             "cat": "compute"},  # missing dur
            {"ph": "q", "pid": 0, "tid": 0, "ts": 0.0, "name": "b"},
        ]}
        problems = validate_trace(doc)
        assert problems

    def test_summary_mentions_every_rank(self, ctx):
        res, tr = traced_1d(ctx)
        text = render_summary(tr)
        for r in range(4):
            assert f"rank {r}" in text
        assert "sim.messages" in text


class TestProfile:
    @pytest.mark.parametrize("runner", [traced_1d, traced_2d])
    def test_critical_path_matches_total_time(self, ctx, runner):
        res, tr = runner(ctx)
        prof = profile_trace(tr, total_time=res.sim.total_time)
        assert abs(prof.critical_path_seconds - res.sim.total_time) <= 1e-9
        for rb in prof.ranks:
            parts = rb.pct(rb.busy) + rb.pct(rb.comm) + rb.pct(rb.idle)
            assert parts == pytest.approx(100.0, abs=1e-6)
        assert 0.0 <= prof.overlap_ratio <= 1.0
        assert prof.top_spans(3)
        assert "critical path" in prof.render()

    def test_reconciles_against_model(self, ctx):
        res, tr = traced_1d(ctx)
        prof = profile_trace(tr, total_time=res.sim.total_time)
        tg = build_task_graph(ctx["bstruct"])
        rec = reconcile(prof, tg, GENERIC)
        assert rec["model_critical_path_seconds"] > 0
        assert np.isfinite(rec["drift"])
        # the simulated run can't beat the model's critical path by much
        assert rec["observed_critical_path_seconds"] >= \
            0.5 * rec["model_critical_path_seconds"]


class TestPipelinePhases:
    @pytest.mark.parametrize("method", ["sequential", "1d-ca", "2d"])
    def test_all_phases_in_order(self, ctx, method):
        solver = SStarSolver(nprocs=4, method=method, trace=True)
        solver.factor(ctx["A"])
        x = solver.solve(np.ones(ctx["A"].nrows))
        assert np.isfinite(x).all()
        tr = solver.tracer
        phases = [s for s in tr.spans
                  if s.track == "pipeline/main" and s.cat == PHASE]
        assert [s.name for s in phases] == list(PIPELINE_PHASES)
        for a, b in zip(phases, phases[1:]):
            assert b.start >= a.end - 1e-15  # contiguous, non-overlapping

    def test_analysis_reuse_emits_instant(self, ctx):
        solver = SStarSolver(method="sequential", trace=True)
        solver.factor(ctx["A"])
        solver.refactor(ctx["A"])  # same pattern: analysis reused
        marks = [s for s in solver.tracer.spans if s.name == "analysis reused"]
        assert marks

    def test_analyze_phase_spans_standalone(self):
        tr = Tracer()
        analyze_phase_spans(tr, nnz=100, n=10, factor_entries=200)
        names = [s.name for s in tr.spans]
        assert names == ["transversal", "ordering", "symbolic", "partition"]
        assert tr.spans[0].start == 0.0
        assert all(b.start == a.end
                   for a, b in zip(tr.spans, tr.spans[1:]))


class TestGanttFromTrace:
    def test_task_spans_render(self, ctx):
        res, tr = traced_1d(ctx)
        chart = gantt_from_trace(tr, total_time=res.sim.total_time)
        assert chart.nprocs == 4
        assert chart.makespan == res.sim.total_time
        names = {t for _, t, _, _ in chart.intervals}
        assert any(n.startswith("F") for n in names)
        out = chart.render()
        assert out.count("\n") >= 4  # one row per rank + makespan


class TestServiceObservability:
    def test_job_spans_and_metrics(self, ctx):
        from repro.service import SolveService

        A = ctx["A"]
        tr = Tracer()
        svc = SolveService(workers=2, max_queue=16, tracer=tr)
        rng = np.random.default_rng(7)
        # same pattern, distinct values: no value-batching, so jobs after
        # the first exercise the analysis cache
        work = [
            A.with_values(A.data * (1.0 + 0.05 * rng.uniform(-1, 1, A.nnz)))
            for _ in range(3)
        ]
        ids = [svc.submit(Ai, np.ones(A.nrows)) for Ai in work]
        svc.drain()
        for jid, Ai in zip(ids, work):
            x = svc.result(jid)
            assert np.linalg.norm(
                csr_matvec(Ai, x) - np.ones(A.nrows)) < 1e-6
        jobs = [s for s in tr.spans if s.name == "solve"]
        assert len(jobs) == 3
        assert all(s.args["status"] == "done" for s in jobs)
        # same-pattern jobs after the first hit the analysis cache
        assert tr.metrics.value("cache.hits") >= 1
        assert tr.metrics.value("service.jobs.submitted") == 3
        snap = svc.metrics()
        assert snap.jobs_submitted == 3
        assert snap.latency_p50 > 0
        assert snap.cache_hits == tr.metrics.value("cache.hits")

    def test_shared_registry_without_tracer(self, ctx):
        from repro.service import SolveService

        reg = MetricsRegistry()
        svc = SolveService(workers=1, max_queue=4, metrics=reg)
        svc.submit(ctx["A"], np.ones(ctx["A"].nrows))
        svc.drain()
        assert reg.value("service.jobs.submitted") == 1


class TestCLI:
    def test_trace_and_profile_verbs(self, tmp_path, capsys):
        from repro.cli import main
        from repro.matrices import get_matrix
        from repro.sparse import write_matrix_market

        mtx = tmp_path / "m.mtx"
        write_matrix_market(str(mtx), get_matrix(MATRIX, "small"))
        out = tmp_path / "trace.json"
        rc = main(["trace", str(mtx), "--mode", "2d", "--nprocs", "4",
                   "--out", str(out), "--check"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_trace(doc) == []
        assert capsys.readouterr().out.count("schema: OK") == 1

        rc = main(["profile", str(mtx), "--mode", "1d", "--nprocs", "4"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "|diff| = 0.000e+00" in text
        assert "busy" in text

        rc = main(["profile", "--trace", str(out)])
        assert rc == 0
        assert "critical path" in capsys.readouterr().out

    def test_profile_needs_input(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 2


class TestZeroOverheadDisabled:
    def test_no_tracer_attribute_cost(self, ctx):
        # tracing off: simulator carries tracer=None and emits nothing
        res = run_1d(ctx["om"].A, ctx["part"], ctx["bstruct"], 4, GENERIC,
                     method="ca")
        assert res.sim.total_time > 0
        solver = SStarSolver(method="sequential")
        assert solver.tracer is None
