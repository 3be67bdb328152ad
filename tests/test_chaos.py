"""Chaos layer: fault schedules, runtime injection, graceful degradation.

Covers the full path from spec strings to mid-run capacity mutation:
parsing and validation, network-level consistency after faults, reroute
and strand semantics, ResilientScheduler containment, engine/CLI-level
wiring, and the observability/diagnosis surface.
"""

import json

import pytest

from repro import Engine, two_hosts
from repro.core.flow import Flow
from repro.core.units import gbps
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpecError,
    ResilientScheduler,
    find_resilient,
    parse_fault_spec,
)
from repro.scheduling import (
    EchelonMaddScheduler,
    FairSharingScheduler,
    make_scheduler,
)
from repro.scheduling.base import Scheduler
from repro.topology import leaf_spine
from repro.workloads import (
    build_pipeline_segment,
    degrade_link,
    fail_link,
    pause_device,
    run_spec,
)

_SPEC = (
    "link_down:h1-h2@2.5+1.0; degrade:h2-h3@4.0,factor=0.5; "
    "flap:h0-h1@1.0,period=0.2,count=6; crash_scheduler@3.0"
)


def _fig2_job(name="fig2"):
    return build_pipeline_segment(
        name, "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
    )


class TestFaultSpecParsing:
    def test_issue_example_expands_to_primitives(self):
        schedule = parse_fault_spec(_SPEC)
        # link_down+restore (2) + permanent degrade (1) + 6 flap cycles
        # (12) + crash (1)
        assert len(schedule) == 16
        assert schedule.has_crashes
        times = [event.time for event in schedule]
        assert times == sorted(times)

    def test_duplex_hits_both_directions(self):
        (event,) = parse_fault_spec("link_down:a-b@1.0").events
        assert set(event.links) == {("a", "b"), ("b", "a")}

    def test_directed_hits_one_direction(self):
        (event,) = parse_fault_spec("link_down:a->b@1.0").events
        assert event.links == (("a", "b"),)

    def test_permanent_outage_has_no_restore(self):
        schedule = parse_fault_spec("link_down:a-b@1.0")
        assert [e.action for e in schedule] == ["link_down"]

    def test_duration_appends_restore_at_nominal(self):
        schedule = parse_fault_spec("degrade:a-b@2.0+0.5,factor=0.25")
        assert [(e.action, e.time) for e in schedule] == [
            ("degrade", 2.0),
            ("link_restore", 2.5),
        ]
        assert schedule.events[0].factor == 0.25

    def test_flap_cycles(self):
        schedule = parse_fault_spec("flap:a-b@1.0,period=0.2,count=3")
        actions = [(e.action, pytest.approx(e.time)) for e in schedule]
        assert actions == [
            ("link_down", 1.0),
            ("link_restore", 1.1),
            ("link_down", 1.2),
            ("link_restore", 1.3),
            ("link_down", 1.4),
            ("link_restore", 1.5),
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:a-b@1.0",  # unknown action
            "link_down:a-b",  # missing @time
            "link_down@1.0",  # link action without links
            "link_down:ab@1.0",  # bad linkspec
            "link_down:a-b@-1.0",  # negative time
            "link_down:a-b@1.0,factor=0.5",  # unknown param
            "degrade:a-b@1.0",  # degrade without factor
            "degrade:a-b@1.0,factor=1.5",  # factor out of range
            "degrade:a-b@1.0,factor=0",  # factor out of range
            "flap:a-b@1.0,period=0.2",  # flap without count
            "flap:a-b@1.0,period=0,count=2",  # non-positive period
            "crash_scheduler:a-b@1.0",  # crash takes no links
            "crash_scheduler@1.0+2.0",  # crash takes no duration
            "link_down:a-b@1.0+0",  # non-positive duration
            "link_down:h0-core@nan",  # non-finite time
            "link_down:h0-core@inf",  # non-finite time
            "",  # no clauses
        ],
    )
    def test_rejected_specs(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_json_round_trip(self):
        schedule = parse_fault_spec(_SPEC)
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_json_clause_form(self):
        schedule = FaultSchedule.from_json(
            json.dumps(
                {
                    "faults": [
                        {"action": "link_down", "link": "a-b", "time": 1.0,
                         "duration": 0.5},
                        {"action": "crash_scheduler", "time": 2.0},
                    ]
                }
            )
        )
        assert [e.action for e in schedule] == [
            "link_down",
            "link_restore",
            "crash_scheduler",
        ]

    def test_json_rejects_non_list(self):
        with pytest.raises(FaultSpecError):
            FaultSchedule.from_json('"link_down"')

    def test_event_validation(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(time=1.0, action="link_down")  # no links
        with pytest.raises(FaultSpecError):
            FaultEvent(time=1.0, action="link_restore", links=(("a", "b"),),
                       factor=0.5)


class TestInjectorWiring:
    def test_unknown_link_rejected_at_attach(self):
        with pytest.raises(KeyError):
            Engine(
                two_hosts(1.0),
                FairSharingScheduler(),
                faults="link_down:h0-h9@1.0",
            )

    def test_crash_without_resilient_rejected_at_attach(self):
        with pytest.raises(ValueError, match="ResilientScheduler"):
            Engine(
                two_hosts(1.0),
                FairSharingScheduler(),
                faults="crash_scheduler@1.0",
            )

    def test_injector_is_single_use(self):
        injector = FaultInjector("link_down:h0-h1@1.0")
        Engine(two_hosts(1.0), FairSharingScheduler(), faults=injector)
        with pytest.raises(ValueError, match="already attached"):
            injector.attach(Engine(two_hosts(1.0), FairSharingScheduler()))

    def test_engine_accepts_schedule_string_and_json_list(self):
        schedule = parse_fault_spec("link_down:h0-h1@1.0+0.5")
        for faults in (schedule, "link_down:h0-h1@1.0+0.5",
                       json.loads(schedule.to_json())):
            engine = Engine(
                two_hosts(1.0), FairSharingScheduler(), faults=faults
            )
            assert isinstance(engine.faults, FaultInjector)
            assert len(engine.faults.schedule) == 2

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            FaultInjector(42)


class TestLinkFaultSemantics:
    def test_outage_stalls_single_path_job(self):
        # two_hosts has exactly one path: a 1s outage while flows are in
        # flight costs exactly 1s end to end.
        nominal = Engine(two_hosts(1.0), EchelonMaddScheduler())
        _fig2_job().submit_to(nominal)
        baseline = nominal.run().last_compute_end()

        faulted = Engine(
            two_hosts(1.0),
            EchelonMaddScheduler(),
            faults="link_down:h0-h1@2.0+1.0",
        )
        _fig2_job().submit_to(faulted)
        assert faulted.run().last_compute_end() == pytest.approx(
            baseline + 1.0
        )
        actions = [r["action"] for r in faulted.faults.fired]
        assert actions == ["link_down", "link_restore"]

    def test_degrade_halves_throughput(self):
        engine = Engine(
            two_hosts(1.0),
            FairSharingScheduler(),
            faults="degrade:h0-h1@0.0,factor=0.5",
        )
        engine.inject_background_flow(Flow("h0", "h1", 1.0), at_time=0.0)
        trace = engine.run()
        assert trace.flow_records[0].finish == pytest.approx(2.0)

    def test_restore_returns_to_nominal(self):
        engine = Engine(
            two_hosts(1.0),
            FairSharingScheduler(),
            faults="degrade:h0-h1@0.0+1.0,factor=0.5",
        )
        # 1s at rate 0.5 moves 0.5; the remaining 0.5 drains at rate 1.
        engine.inject_background_flow(Flow("h0", "h1", 1.0), at_time=0.0)
        trace = engine.run()
        assert trace.flow_records[0].finish == pytest.approx(1.5)
        link = engine.topology.link("h0", "h1")
        assert link.capacity == pytest.approx(link.nominal_capacity)

    def test_shrink_rescales_in_flight_rates(self):
        engine = Engine(two_hosts(1.0), FairSharingScheduler())
        engine.inject_background_flow(Flow("h0", "h1", 10.0), at_time=0.0)
        injector = degrade_link(engine, "h0", "h1", at_time=1.0, factor=0.5)
        engine.run()
        network = engine.network
        assert network.verify_accounting() == []
        assert injector.fired[0]["capacities"]["h0->h1"] == pytest.approx(0.5)

    def test_reroute_migrates_across_equal_cost_paths(self):
        # leaf-spine has two spine paths; killing one migrates the flow
        # with zero completion-time loss.
        engine = Engine(
            leaf_spine(2, 2, gbps(10)),
            FairSharingScheduler(),
            faults="link_down:leaf0-spine0@0.5",
        )
        flow = Flow("h0", "h2", 2.0 * gbps(10))
        engine.inject_background_flow(flow, at_time=0.0)
        trace = engine.run()
        assert trace.flow_records[0].finish == pytest.approx(2.0)
        record = engine.faults.fired[0]
        assert record["migrated"] == [flow.flow_id]
        assert record["stranded"] == []

    def test_blocked_router_avoids_downed_link(self):
        engine = Engine(
            leaf_spine(2, 2, gbps(10)),
            FairSharingScheduler(),
            faults="link_down:leaf0-spine0@0.5",
        )
        engine.inject_background_flow(
            Flow("h0", "h2", 2.0 * gbps(10)), at_time=0.0
        )
        engine.run()
        assert ("leaf0", "spine0") in engine.network.router.blocked_links

    def test_stranded_flow_resumes_after_restore(self):
        engine = Engine(
            two_hosts(1.0),
            FairSharingScheduler(),
            faults="link_down:h0-h1@0.5+1.0",
        )
        flow = Flow("h0", "h1", 1.0)
        engine.inject_background_flow(flow, at_time=0.0)
        trace = engine.run()
        # 0.5 moved before the outage, 1s stalled, 0.5 after restore.
        assert trace.flow_records[0].finish == pytest.approx(2.0)
        record = engine.faults.fired[0]
        assert record["stranded"] == [flow.flow_id]
        assert record["migrated"] == []

    def test_flap_under_strict_sanitizer(self):
        engine = Engine(
            two_hosts(1.0),
            EchelonMaddScheduler(),
            sanitizer="strict",
            faults="flap:h0-h1@1.0,period=0.2,count=6",
        )
        _fig2_job().submit_to(engine)
        engine.run()
        assert engine.check.violation_count == 0
        assert len(engine.faults.fired) == 12


class TestWorkloadWrappers:
    def test_fail_link_wrapper(self):
        engine = Engine(two_hosts(1.0), FairSharingScheduler())
        engine.inject_background_flow(Flow("h0", "h1", 1.0), at_time=0.0)
        injector = fail_link(engine, "h0", "h1", at_time=0.5, duration=1.0)
        trace = engine.run()
        assert trace.flow_records[0].finish == pytest.approx(2.0)
        assert [r["action"] for r in injector.fired] == [
            "link_down",
            "link_restore",
        ]

    def test_degrade_link_wrapper_directed(self):
        engine = Engine(two_hosts(1.0), FairSharingScheduler())
        engine.inject_background_flow(Flow("h0", "h1", 1.0), at_time=0.0)
        degrade_link(
            engine, "h0", "h1", at_time=0.0, factor=0.5, directed=True
        )
        trace = engine.run()
        assert trace.flow_records[0].finish == pytest.approx(2.0)
        # the reverse direction is untouched
        assert engine.topology.link("h1", "h0").capacity == pytest.approx(1.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_wrappers_reject_bad_durations(self, duration):
        engine = Engine(two_hosts(1.0), FairSharingScheduler())
        with pytest.raises(ValueError):
            fail_link(engine, "h0", "h1", at_time=0.5, duration=duration)
        with pytest.raises(ValueError):
            degrade_link(
                engine, "h0", "h1", at_time=0.5, factor=0.5, duration=duration
            )


class _ExplodingScheduler(Scheduler):
    name = "exploding"

    def __init__(self, explode_at=1.0):
        self.explode_at = explode_at

    def allocate(self, view):
        if view.now >= self.explode_at:
            raise RuntimeError("boom")
        return FairSharingScheduler().allocate(view)


class _OverclaimingScheduler(Scheduler):
    name = "overclaiming"

    def allocate(self, view):
        return {
            state.flow.flow_id: 1e9 for state in view.active_states()
        }


class TestResilientScheduler:
    def test_crash_contained_and_recorded(self):
        engine = Engine(
            two_hosts(1.0),
            ResilientScheduler(EchelonMaddScheduler()),
            faults="crash_scheduler@3.0",
        )
        _fig2_job().submit_to(engine)
        trace = engine.run()
        resilient = find_resilient(engine.scheduler)
        assert trace.last_compute_end() > 0
        assert resilient.fallback_invocations == 1
        (record,) = resilient.fallback_records
        assert record["kind"] == "crash"
        assert "crash_scheduler" in record["error"]

    def test_exception_contained(self):
        engine = Engine(
            two_hosts(1.0),
            ResilientScheduler(_ExplodingScheduler(explode_at=1.0)),
        )
        _fig2_job().submit_to(engine)
        trace = engine.run()
        resilient = engine.scheduler
        assert trace.last_compute_end() > 0
        assert resilient.fallback_invocations >= 1
        assert all(
            r["kind"] == "exception" for r in resilient.fallback_records
        )

    def test_infeasible_allocation_contained(self):
        engine = Engine(
            two_hosts(1.0),
            ResilientScheduler(_OverclaimingScheduler()),
        )
        _fig2_job().submit_to(engine)
        trace = engine.run()
        resilient = engine.scheduler
        assert trace.last_compute_end() > 0
        assert resilient.fallback_invocations >= 1
        assert all(
            r["kind"] == "infeasible" for r in resilient.fallback_records
        )

    def test_clean_inner_never_degrades(self):
        engine = Engine(
            two_hosts(1.0), ResilientScheduler(EchelonMaddScheduler())
        )
        _fig2_job().submit_to(engine)
        engine.run()
        assert engine.scheduler.fallback_invocations == 0
        assert not engine.scheduler.last_allocation_was_fallback

    def test_crash_run_matches_fallback_policy_completion(self):
        # Fair fallback on a single-link fabric: containing one crash of a
        # fair-equivalent invocation must not corrupt the run.
        engine = Engine(
            two_hosts(1.0),
            ResilientScheduler(FairSharingScheduler()),
            faults="crash_scheduler@1.0",
            sanitizer="strict",
        )
        _fig2_job().submit_to(engine)
        trace = engine.run()
        assert engine.check.violation_count == 0

        nominal = Engine(two_hosts(1.0), FairSharingScheduler())
        _fig2_job().submit_to(nominal)
        assert trace.last_compute_end() == pytest.approx(
            nominal.run().last_compute_end()
        )

    def test_work_conserving_needs_both(self):
        resilient = ResilientScheduler(EchelonMaddScheduler())
        assert resilient.work_conserving == (
            EchelonMaddScheduler().work_conserving
            and FairSharingScheduler().work_conserving
        )

    def test_find_resilient_through_wrappers(self):
        from repro.scheduling.cache import MemoizingScheduler

        resilient = ResilientScheduler(FairSharingScheduler())
        wrapped = MemoizingScheduler(resilient)
        assert find_resilient(wrapped) is resilient
        assert find_resilient(FairSharingScheduler()) is None


class TestObservabilityAndDiagnosis:
    def _chaos_run(self):
        from repro.obs import Instrumentation, JsonlEventLog

        obs = Instrumentation(event_log=JsonlEventLog())
        engine = Engine(
            two_hosts(1.0),
            ResilientScheduler(EchelonMaddScheduler()),
            instrumentation=obs,
            faults="link_down:h0-h1@2.0+1.0; crash_scheduler@3.0",
        )
        _fig2_job().submit_to(engine)
        trace = engine.run()
        return engine, trace, obs

    def test_fault_events_in_instrumentation(self):
        engine, _trace, obs = self._chaos_run()
        actions = [r["action"] for r in obs.fault_events]
        assert actions == ["link_down", "link_restore", "crash_scheduler"]
        assert len(obs.scheduler_fallbacks) == 1
        kinds = {e["ev"] for e in obs.event_log.events}
        assert "fault" in kinds and "scheduler_fallback" in kinds

    def test_fault_counters(self):
        _engine, _trace, obs = self._chaos_run()
        assert (
            obs.registry.counter(
                "faults_injected_total", action="link_down"
            ).value
            == 1
        )
        assert (
            obs.registry.counter(
                "scheduler_fallbacks_total", kind="crash"
            ).value
            == 1
        )

    def test_diagnosis_from_run_surfaces_faults(self):
        from repro.obs.diagnosis import (
            RunArtifacts,
            diagnose,
            render_diagnosis,
        )

        _engine, trace, obs = self._chaos_run()
        artifacts = RunArtifacts.from_run(trace, obs)
        assert [f["action"] for f in artifacts.faults] == [
            "link_down",
            "link_restore",
            "crash_scheduler",
        ]
        assert len(artifacts.scheduler_fallbacks) == 1
        report = diagnose(artifacts)
        assert len(report["robustness"]["faults"]) == 3
        rendered = render_diagnosis(report)
        assert "injected faults" in rendered
        assert "scheduler fallbacks" in rendered

    def test_diagnosis_from_jsonl_round_trip(self, tmp_path):
        from repro.obs.diagnosis import RunArtifacts, diagnose

        _engine, _trace, obs = self._chaos_run()
        path = tmp_path / "events.jsonl"
        obs.event_log.write(str(path))
        artifacts = RunArtifacts.from_jsonl(str(path))
        assert [f["action"] for f in artifacts.faults] == [
            "link_down",
            "link_restore",
            "crash_scheduler",
        ]
        report = diagnose(artifacts)
        assert len(report["robustness"]["scheduler_fallbacks"]) == 1

    def test_reroute_recorded(self):
        from repro.obs import Instrumentation, JsonlEventLog
        from repro.obs.diagnosis import RunArtifacts

        obs = Instrumentation(event_log=JsonlEventLog())
        engine = Engine(
            leaf_spine(2, 2, gbps(10)),
            FairSharingScheduler(),
            instrumentation=obs,
            faults="link_down:leaf0-spine0@0.5",
        )
        flow = Flow("h0", "h2", 2.0 * gbps(10))
        engine.inject_background_flow(flow, at_time=0.0)
        trace = engine.run()
        assert obs.reroutes == {flow.flow_id: 1}
        artifacts = RunArtifacts.from_run(trace, obs)
        assert artifacts.reroutes == {flow.flow_id: 1}


class TestSyntheticJobFiltering:
    def test_pause_jobs_excluded_from_completed(self):
        engine = Engine(two_hosts(1.0), EchelonMaddScheduler())
        _fig2_job("real").submit_to(engine)
        pause_device(engine, "h1", at_time=0.0, duration=0.5)
        engine.run()
        assert engine.completed_jobs == ["real"]
        assert set(engine.all_completed_jobs) == {
            "real",
            "_pause/h1/0.0",
        }


class TestRunSpecFaults:
    _SPEC_DICT = {
        "topology": {"kind": "big_switch", "hosts": 2, "bandwidth_gbps": 10},
        "scheduler": {"name": "fair"},
        "jobs": [
            {
                "name": "j",
                "paradigm": "dp-allreduce",
                "model": "tiny_mlp",
                "workers": 2,
            }
        ],
    }

    def test_spec_key_wraps_and_injects(self):
        spec = dict(self._SPEC_DICT)
        spec["faults"] = "degrade:h0-core@0.0,factor=0.5"
        results, _trace, engine = run_spec(spec, detail=True)
        assert isinstance(engine.scheduler, ResilientScheduler)
        assert [r["action"] for r in engine.faults.fired] == ["degrade"]
        assert results["jobs"]["j"]["completion_time"] > 0

    def test_kwarg_overrides_spec_key(self):
        spec = dict(self._SPEC_DICT)
        spec["faults"] = "degrade:h0-core@0.0,factor=0.5"
        _results, _trace, engine = run_spec(
            spec, faults="link_down:h0-core@0.1+0.1", detail=True
        )
        assert [r["action"] for r in engine.faults.fired] == [
            "link_down",
            "link_restore",
        ]

    def test_no_faults_no_wrapper(self):
        _results, _trace, engine = run_spec(
            dict(self._SPEC_DICT), detail=True
        )
        assert find_resilient(engine.scheduler) is None
        assert engine.faults is None


class TestAcceptanceFig2Strict:
    def test_fig2_with_outage_and_reroute_zero_violations(self):
        # The PR's acceptance gate: a fig2-style run with a link_down on
        # a multipath fabric completes under strict with 0 violations.
        engine = Engine(
            leaf_spine(2, 2, gbps(10)),
            make_scheduler("echelon"),
            sanitizer="strict:twin=1.0,seed=3",
            faults="link_down:leaf0-spine0@0.5+1.0",
        )
        job = build_pipeline_segment(
            "fig2",
            "h0",
            "h2",
            [0.0, 1.0, 2.0],
            [2.0 * gbps(10)] * 3,
            [2.0] * 3,
        )
        job.submit_to(engine)
        engine.run()
        assert engine.check.violation_count == 0
        assert engine.check.checks
