"""Chaos campaign harness: seeded fault sweeps, oracles and the shrinker.

Acceptance criteria under test:

* a seeded campaign of >= 200 runs over the 1D/2D codes (and the
  checkpoint/restart and service scenarios) comes back **all green** —
  every (scenario, family) pair is capability-compatible, so every
  oracle violation would be a real robustness bug;
* an intentionally-unrecoverable corruption (ABFT without transport
  protection or checkpointing) **shrinks** to a schedule of <= 2 fault
  events whose JSON artifact replays to the *same* typed failure
  bit-for-bit;
* :class:`repro.machine.FaultPlan` round-trips through JSON — rules,
  crashes and explicit events — with identical replay decisions
  (the shrinker's artifacts depend on this);
* a crash while blocked closes the open ``RECV_WAIT`` span, so every
  rank's non-task spans tile its timeline (the regression behind the
  ``span_tiling`` oracle).
"""

import json

import pytest

from repro.chaos import (
    DEFAULT_SCENARIOS,
    FAMILIES,
    Campaign,
    Scenario,
    build_context,
    compatible,
    family_cells,
    make_plan,
    replay_artifact,
    run_case,
    shrink_failure,
)
from repro.verify.checks import check_span_tiling
from repro.machine import GENERIC, FaultPlan, Simulator
from repro.machine.faults import (
    CORRUPT,
    DELAY,
    DROP,
    DUPLICATE,
    CrashFault,
    FaultEvent,
    MessageFaultRule,
)
from repro.obs import PHASE, RECV_WAIT, Tracer


@pytest.fixture(scope="module")
def ctx():
    return build_context()


# ---------------------------------------------------------------------------
# the compatibility matrix: every campaign case is *expected* green
# ---------------------------------------------------------------------------


class TestCompatibility:
    def test_pairs_are_recoverable_by_construction(self, ctx):
        camp = Campaign(ctx)
        pairs = camp.pairs()
        assert pairs, "empty campaign"
        for scenario, family in pairs:
            assert compatible(family, scenario.capabilities)

    def test_corrupt_needs_checksums_or_abft_plus_restart(self):
        bare = Scenario("bare", "1d", reliable=False)
        acked = Scenario("acked", "1d", reliable=True, checksum=True)
        abft_only = Scenario("a", "1d", reliable=False, abft=True)
        abft_ckpt = Scenario("ac", "resilient-1d", reliable=False, abft=True)
        assert not compatible("corrupt", bare.capabilities)
        assert compatible("corrupt", acked.capabilities)
        assert not compatible("corrupt", abft_only.capabilities)
        assert compatible("corrupt", abft_ckpt.capabilities)

    def test_crash_needs_restart(self):
        assert not compatible("crash", Scenario("s", "1d").capabilities)
        assert compatible(
            "crash", Scenario("s", "resilient-2d").capabilities)
        # job-level retry is the service's restart analogue
        assert compatible("crash", Scenario("s", "service").capabilities)

    def test_plan_grids_are_deterministic(self, ctx):
        for family in FAMILIES:
            cells = family_cells(family, 4, tscale=ctx.tscale)
            assert cells
            a = make_plan(family, 3, 7, 4, tscale=ctx.tscale)
            b = make_plan(family, 3, 7, 4, tscale=ctx.tscale)
            assert a.to_dict() == b.to_dict()
            c = make_plan(family, 4, 7, 4, tscale=ctx.tscale)
            assert c.to_dict() != a.to_dict() or len(cells) == 1


# ---------------------------------------------------------------------------
# the acceptance sweep: >= 200 seeded runs, every oracle green
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_seeded_campaign_all_green(self, ctx):
        camp = Campaign(ctx, budget=210, seed=7)
        report = camp.run()
        assert report.runs == 210
        assert report.ok, report.summary()
        # observability: the counters and spans tell the same story
        assert camp.metrics.counter("chaos.runs").value == 210
        assert camp.metrics.counter("chaos.failures").value == 0
        phase_spans = [s for s in camp.tracer.spans if s.cat == PHASE]
        assert len(phase_spans) == 210
        # coverage: every family ran, every message action was injected,
        # crashes actually killed ranks
        cov = report.coverage
        assert set(cov["families"]) == set(FAMILIES)
        assert {DROP, DUPLICATE, DELAY, CORRUPT} <= set(cov["actions"])
        assert cov["crashes"] >= 1
        assert cov["total_injected"] >= 100
        assert len(cov["pairs"]) >= 4  # several distinct src->dest routes
        # the report is a JSON document (CI consumes --json output)
        json.dumps(report.as_dict())

    def test_failing_run_is_reported_with_key(self, ctx):
        """A deliberately unprotected scenario turns the campaign red and
        the failure lands in the report with its shrinkable key."""
        bare = Scenario("1d-bare-corrupt", "1d", method="ca", nprocs=4,
                        reliable=False, checksum=False, abft=True)
        # pair it with the corrupt family only (bypassing compatibility
        # by constructing the campaign's sweep by hand)
        camp = Campaign(ctx, scenarios=[bare], families=["corrupt"],
                        budget=8, seed=1)
        camp.pairs = lambda: [(bare, "corrupt")]
        report = camp.run()
        assert not report.ok
        f = report.failures[0]
        assert f["scenario"] == "1d-bare-corrupt"
        assert f["failure_key"][0] == "SilentCorruptionError"


# ---------------------------------------------------------------------------
# the shrinker: minimal schedules, replayable artifacts
# ---------------------------------------------------------------------------


def _find_failing(ctx, scenario, rule, seeds=range(12)):
    for seed in seeds:
        plan = FaultPlan(rules=[rule], seed=seed)
        out = run_case(ctx, scenario, plan)
        if out.failure_key() is not None:
            return plan, out
    raise AssertionError("no failing seed found")


class TestShrinker:
    def test_unrecoverable_corruption_shrinks_to_two_events(self, ctx,
                                                            tmp_path):
        """The acceptance case: ABFT detects a corrupted payload but with
        no transport protection and no checkpointing the run dies with a
        typed error; the shrinker reduces the realised schedule to <= 2
        events and the saved artifact replays to the same failure."""
        scenario = Scenario("1d-ca-abft-bare", "1d", method="ca", nprocs=4,
                            reliable=False, checksum=False, abft=True)
        rule = MessageFaultRule(CORRUPT, rate=0.4, tag_prefix=("col",))
        plan, out = _find_failing(ctx, scenario, rule)
        assert out.failure_key()[0] == "SilentCorruptionError"

        sr = shrink_failure(ctx, scenario, plan, outcome=out)
        assert sr.shrunk_events <= 2
        assert sr.shrunk_events <= sr.original_events
        assert sr.failure_key == out.failure_key()

        path = tmp_path / "chaos_repro.json"
        sr.save(path)
        art = json.loads(path.read_text())
        assert art["kind"] == "repro.chaos.repro"
        replayed, matches = replay_artifact(str(path), ctx=ctx)
        assert matches, (replayed.failure_key(), sr.failure_key)
        # bit-for-bit: the typed error's float discrepancy survives the
        # JSON round trip exactly
        assert replayed.failure_key() == art["failure_key"]

    def test_silent_wrong_result_shrinks(self, ctx):
        """Corruption the oracles (not a typed error) catch: an entirely
        unprotected 2D run completes with a wrong factor; the shrinker
        works from the red oracle key."""
        scenario = Scenario("2d-bare", "2d", method="async", nprocs=4,
                            reliable=False, checksum=False, abft=False)
        rule = MessageFaultRule(CORRUPT, rate=0.5, tag_prefix=("urow",))
        plan, out = _find_failing(ctx, scenario, rule)
        assert out.failure_key()[0] == "oracle"

        sr = shrink_failure(ctx, scenario, plan, outcome=out)
        assert sr.shrunk_events <= 2
        replayed, matches = replay_artifact(sr.artifact, ctx=ctx)
        assert matches

    def test_green_case_refuses_to_shrink(self, ctx):
        scenario = DEFAULT_SCENARIOS[1]  # 1d-ca, fully protected
        plan = FaultPlan(rules=[MessageFaultRule(DROP, rate=0.1)], seed=0)
        with pytest.raises(ValueError, match="green"):
            shrink_failure(ctx, scenario, plan)

    def test_resilient_scenarios_are_rejected(self, ctx):
        scenario = Scenario("r", "resilient-1d")
        with pytest.raises(ValueError, match="single-simulator"):
            shrink_failure(ctx, scenario, FaultPlan())


# ---------------------------------------------------------------------------
# FaultPlan JSON round trip (rules + crashes + explicit events)
# ---------------------------------------------------------------------------


class TestFaultPlanRoundTrip:
    def _random_plan(self, rng):
        actions = [DROP, DUPLICATE, DELAY, CORRUPT]
        tags = [None, ("col",), ("urow", 3), ("swap",)]
        rules = [
            MessageFaultRule(
                actions[rng.integers(len(actions))],
                rate=float(rng.uniform(0.01, 1.0)),
                src=None if rng.integers(2) else int(rng.integers(4)),
                dest=None if rng.integers(2) else int(rng.integers(4)),
                tag_prefix=tags[rng.integers(len(tags))],
                delay_s=float(rng.uniform(0, 1e-4)),
            )
            for _ in range(rng.integers(0, 4))
        ]
        crashes = [
            CrashFault(int(r), float(rng.uniform(0, 1e-3)))
            for r in rng.choice(4, size=rng.integers(0, 3), replace=False)
        ]
        events = [
            FaultEvent(
                actions[rng.integers(len(actions))],
                int(rng.integers(4)), int(rng.integers(4)),
                tags[rng.integers(1, len(tags))],
                attempt=int(rng.integers(3)),
                delay_s=float(rng.uniform(0, 1e-4)),
            )
            for _ in range(rng.integers(0, 4))
        ]
        return FaultPlan(rules=rules, crashes=crashes,
                         seed=int(rng.integers(2**31)), events=events)

    def test_json_round_trip_preserves_plan(self):
        import numpy as np
        rng = np.random.default_rng(5)
        for _ in range(25):
            plan = self._random_plan(rng)
            back = FaultPlan.from_json(plan.to_json())
            assert back.to_dict() == plan.to_dict()
            assert len(back.rules) == len(plan.rules)
            assert len(back.crashes) == len(plan.crashes)
            assert len(back.events) == len(plan.events)

    def test_round_trip_preserves_decisions(self):
        """The reloaded plan makes bitwise-identical fault decisions —
        the property the shrinker's replayable artifacts rest on."""
        import numpy as np
        rng = np.random.default_rng(6)
        tags = [("col", 0), ("urow", 3, 1), ("swap",), ("lcol", 2), "misc"]
        for _ in range(10):
            plan = self._random_plan(rng)
            back = FaultPlan.from_json(plan.to_json())
            for r in range(4):
                assert back.crash_time(r) == plan.crash_time(r)
            for _ in range(60):
                src = int(rng.integers(4))
                dest = int(rng.integers(4))
                tag = tags[rng.integers(len(tags))]
                attempt = int(rng.integers(3))
                a = plan.message_fault(src, dest, tag, attempt)
                b = back.message_fault(src, dest, tag, attempt)
                if a is None:
                    assert b is None
                else:
                    assert b is not None
                    assert (a.action, a.delay_s) == (b.action, b.delay_s)

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan(
            rules=[MessageFaultRule(DROP, rate=0.2, tag_prefix=("col",))],
            seed=9,
            events=[FaultEvent(CORRUPT, 0, 2, ("col", 1), attempt=1)],
        ).with_crash(3, 5e-4)
        path = tmp_path / "plan.json"
        plan.to_json(path)
        back = FaultPlan.from_json(str(path))
        assert back.to_dict() == plan.to_dict()


# ---------------------------------------------------------------------------
# crash-while-blocked closes its wait span
# ---------------------------------------------------------------------------


class TestWaitSpanClosure:
    def test_crash_while_blocked_closes_wait_span(self):
        """A rank that dies inside a blocking recv must still close the
        open RECV_WAIT span (tagged ``crashed``)."""
        def prog(env):
            if env.rank == 1:
                yield env.recv("never")  # blocks until the crash
            else:
                t0 = env.clock
                env.compute("blas1", 1e5)
                env.span("work", t0)
            return env.rank

        plan = FaultPlan().with_crash(1, 2e-4)
        tr = Tracer()
        res = Simulator(2, GENERIC, prog, tracer=tr, faults=plan).run()
        assert res.crashed == [1]
        waits = [s for s in tr.spans
                 if s.cat == RECV_WAIT and s.track == 1]
        assert any(s.args and s.args.get("crashed") for s in waits)
        rep = check_span_tiling(tr, res)
        assert rep.ok, rep.detail
