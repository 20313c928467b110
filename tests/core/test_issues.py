"""Tests for §III-F performance-issue detection."""

import pytest

from repro.core.attribution import attribute
from repro.core.bottlenecks import find_bottlenecks
from repro.core.demand import estimate_demand
from repro.core.issues import (
    detect_bottleneck_issues,
    detect_imbalance_issues,
    detect_issues,
)
from repro.core.phases import ExecutionModel
from repro.core.resources import ResourceModel
from repro.core.rules import RuleMatrix
from repro.core.timeline import TimeGrid
from repro.core.traces import ExecutionTrace, ResourceTrace
from repro.core.upsample import upsample


def simple_model() -> ExecutionModel:
    m = ExecutionModel("m")
    m.add_phase("/Compute", concurrent=True)
    return m


def full_pipeline(trace, rules, measurements, resources=None, n_slices=4, model=None):
    if resources is None:
        resources = ResourceModel("test")
        resources.add_consumable("cpu", 100.0)
        resources.add_blocking("gc")
    grid = TimeGrid(0.0, 1.0, n_slices)
    demand = estimate_demand(trace, resources, rules, grid)
    rt = ResourceTrace()
    for res, s, e, v in measurements:
        rt.add_measurement(res, s, e, v)
    up = upsample(rt, demand, grid)
    attr = attribute(up, demand, trace)
    report = find_bottlenecks(trace, up, attr)
    return trace, model, report, up, attr


class TestBottleneckIssues:
    def test_blocking_issue_recovers_blocked_time(self):
        trace = ExecutionTrace()
        inst = trace.record("/Compute", 0.0, 4.0, instance_id="c")
        inst.add_blocking("gc", 1.0, 3.0)
        args = full_pipeline(trace, RuleMatrix(), [])
        issues = detect_bottleneck_issues(*args)
        gc_issues = issues.by_subject("gc")
        assert len(gc_issues) == 1
        assert gc_issues[0].makespan_reduction == pytest.approx(2.0)
        assert gc_issues[0].improvement == pytest.approx(0.5)

    def test_saturation_issue_bounded_by_next_bottleneck(self):
        """A slice bottlenecked on cpu can compress until net saturates."""
        resources = ResourceModel("test")
        resources.add_consumable("cpu", 100.0)
        resources.add_consumable("net", 100.0)
        trace = ExecutionTrace()
        trace.record("/Compute", 0.0, 2.0, instance_id="c")
        rules = RuleMatrix()  # implicit variable on both
        args = full_pipeline(
            trace,
            rules,
            [("cpu", 0.0, 2.0, 100.0), ("net", 0.0, 2.0, 60.0)],
            resources=resources,
            n_slices=2,
        )
        issues = detect_bottleneck_issues(*args)
        cpu_issues = issues.by_subject("cpu")
        assert len(cpu_issues) == 1
        # Each saturated slice can shrink to 60% of its width: recover 0.4*2.
        assert cpu_issues[0].makespan_reduction == pytest.approx(0.8)

    def test_no_issue_below_threshold(self):
        trace = ExecutionTrace()
        inst = trace.record("/Compute", 0.0, 100.0, instance_id="c")
        inst.add_blocking("gc", 1.0, 1.2)
        args = full_pipeline(trace, RuleMatrix(), [])
        issues = detect_bottleneck_issues(*args, min_improvement=0.01)
        assert issues.by_subject("gc") == []

    def test_reduction_never_exceeds_phase_duration(self):
        trace = ExecutionTrace()
        inst = trace.record("/Compute", 0.0, 1.0, instance_id="c")
        # Blocking events longer than the phase (clock skew in logs).
        inst.add_blocking("gc", 0.0, 5.0)
        args = full_pipeline(trace, RuleMatrix(), [])
        issues = detect_bottleneck_issues(*args)
        assert issues.by_subject("gc")[0].makespan_reduction <= 1.0 + 1e-9


class TestImbalanceIssues:
    def test_imbalanced_computes_rebalanced(self):
        trace = ExecutionTrace()
        trace.record("/Compute", 0.0, 6.0, instance_id="slow", thread="t0")
        trace.record("/Compute", 0.0, 2.0, instance_id="fast", thread="t1")
        issues = detect_imbalance_issues(trace, simple_model())
        assert len(issues.issues) == 1
        issue = issues.issues[0]
        # Balanced duration is 4s; baseline makespan 6s → reduction 2s.
        assert issue.makespan_reduction == pytest.approx(2.0)
        assert issue.improvement == pytest.approx(2.0 / 6.0)

    def test_balanced_group_reports_nothing(self):
        trace = ExecutionTrace()
        trace.record("/Compute", 0.0, 4.0, instance_id="a", thread="t0")
        trace.record("/Compute", 0.0, 4.0, instance_id="b", thread="t1")
        issues = detect_imbalance_issues(trace, simple_model())
        assert len(issues.issues) == 0

    def test_non_concurrent_type_skipped_with_model(self):
        m = ExecutionModel("m")
        m.add_phase("/Seq", concurrent=False)
        trace = ExecutionTrace()
        trace.record("/Seq", 0.0, 6.0, instance_id="a", thread="t0")
        trace.record("/Seq", 0.0, 2.0, instance_id="b", thread="t1")
        issues = detect_imbalance_issues(trace, m)
        assert len(issues.issues) == 0

    def test_all_groups_considered_without_model(self):
        trace = ExecutionTrace()
        trace.record("/X", 0.0, 6.0, instance_id="a", thread="t0")
        trace.record("/X", 0.0, 2.0, instance_id="b", thread="t1")
        issues = detect_imbalance_issues(trace, None)
        assert len(issues.issues) == 1

    def test_groups_not_merged_across_parents(self):
        """Work is only interchangeable within one superstep (§III-F)."""
        m = ExecutionModel("m")
        m.add_phase("/SS", repeatable=True)
        m.add_phase("/SS/Compute", concurrent=True)
        trace = ExecutionTrace()
        ss0 = trace.record("/SS", 0.0, 4.0, instance_id="ss0")
        trace.record("/SS/Compute", 0.0, 4.0, parent=ss0, instance_id="a0", thread="t0")
        trace.record("/SS/Compute", 0.0, 2.0, parent=ss0, instance_id="a1", thread="t1")
        ss1 = trace.record("/SS", 4.0, 6.0, instance_id="ss1")
        trace.record("/SS/Compute", 4.0, 6.0, parent=ss1, instance_id="b0", thread="t0")
        trace.record("/SS/Compute", 4.0, 5.0, parent=ss1, instance_id="b1", thread="t1")
        issues = detect_imbalance_issues(trace, m)
        assert len(issues.issues) == 1
        issue = issues.issues[0]
        # ss0 balances 4,2 → 3; ss1 balances 2,1 → 1.5: makespan 6 → 4.5.
        assert issue.makespan_reduction == pytest.approx(1.5)


class TestDetectIssues:
    def test_merged_report(self):
        trace = ExecutionTrace()
        slow = trace.record("/Compute", 0.0, 6.0, instance_id="slow", thread="t0")
        slow.add_blocking("gc", 0.0, 1.0)
        trace.record("/Compute", 0.0, 2.0, instance_id="fast", thread="t1")
        t, m, report, up, attr = full_pipeline(trace, RuleMatrix(), [], model=simple_model())
        issues = detect_issues(t, m, report, up, attr)
        kinds = {i.kind for i in issues}
        assert kinds == {"resource-bottleneck", "imbalance"}

    def test_top_sorted_by_reduction(self):
        trace = ExecutionTrace()
        slow = trace.record("/Compute", 0.0, 10.0, instance_id="slow", thread="t0")
        slow.add_blocking("gc", 0.0, 1.0)
        trace.record("/Compute", 0.0, 2.0, instance_id="fast", thread="t1")
        t, m, report, up, attr = full_pipeline(trace, RuleMatrix(), [], model=simple_model())
        issues = detect_issues(t, m, report, up, attr)
        top = issues.top(2)
        assert top[0].makespan_reduction >= top[1].makespan_reduction

    def test_one_baseline_and_one_batched_replay(self, monkeypatch):
        """Both detectors share one baseline replay and one what-if sweep,
        and the batched makespans equal one replay per scenario."""
        from repro.core.simulation import ReplaySimulator

        trace = ExecutionTrace()
        slow = trace.record("/Compute", 0.0, 6.0, instance_id="slow", thread="t0")
        slow.add_blocking("gc", 0.0, 1.0)
        trace.record("/Compute", 0.0, 2.0, instance_id="fast", thread="t1")
        t, m, report, up, attr = full_pipeline(trace, RuleMatrix(), [], model=simple_model())
        calls = {"simulate": 0, "makespans": []}
        simulate, makespans = ReplaySimulator.simulate, ReplaySimulator.makespans

        def counted_simulate(self, durations=None):
            calls["simulate"] += 1
            return simulate(self, durations)

        def counted_makespans(self, scenarios):
            calls["makespans"].append(list(scenarios))
            return makespans(self, scenarios)

        monkeypatch.setattr(ReplaySimulator, "simulate", counted_simulate)
        monkeypatch.setattr(ReplaySimulator, "makespans", counted_makespans)
        issues = detect_issues(t, m, report, up, attr)
        assert calls["simulate"] == 1
        assert len(calls["makespans"]) == 1
        scenarios = calls["makespans"][0]
        assert len(scenarios) == 2  # gc bottleneck + /Compute imbalance
        sim = ReplaySimulator(t, m)
        by_subject = {i.subject: i.optimistic_makespan for i in issues}
        assert by_subject["gc"] == simulate(sim, scenarios[0]).makespan
        assert by_subject["/Compute"] == simulate(sim, scenarios[1]).makespan
