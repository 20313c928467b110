"""Tests for attribution rules and the rule matrix."""

import dataclasses
import fnmatch
import math

import pytest

from repro.core.rules import ExactRule, NoneRule, RuleMatrix, VariableRule
from repro.core.traces import PhaseInstance


def make_instance(path="/Execute/Superstep/Compute", machine="node0", thread="t0"):
    return PhaseInstance(
        instance_id="i0",
        phase_path=path,
        t_start=0.0,
        t_end=1.0,
        machine=machine,
        worker="w0",
        thread=thread,
    )


class TestRuleValidation:
    def test_exact_proportion_bounds(self):
        ExactRule(1.0)
        ExactRule(0.01)
        with pytest.raises(ValueError):
            ExactRule(0.0)
        with pytest.raises(ValueError):
            ExactRule(1.5)

    def test_variable_weight_positive(self):
        with pytest.raises(ValueError):
            VariableRule(0.0)
        with pytest.raises(ValueError):
            VariableRule(-1.0)


class TestRuleMatrix:
    def test_implicit_variable_rule(self):
        """With no rules, Grade10 assumes Variable(1x) for every phase (§IV-B)."""
        rules = RuleMatrix()
        rule = rules.rule_for(make_instance(), "cpu@node0")
        assert isinstance(rule, VariableRule)
        assert rule.weight == 1.0

    def test_exact_match(self):
        rules = RuleMatrix().set_exact("/Execute/Superstep/Compute", "cpu@node0", 0.5)
        rule = rules.rule_for(make_instance(), "cpu@node0")
        assert isinstance(rule, ExactRule)
        assert rule.proportion == 0.5

    def test_phase_glob(self):
        rules = RuleMatrix().set_none("/Execute/*", "net@*")
        assert isinstance(rules.rule_for(make_instance("/Execute/Superstep"), "net@node0"), NoneRule)
        # Glob * does not cross path separators for fnmatchcase? It does — so
        # deep paths also match, which is the documented behaviour.
        assert isinstance(
            rules.rule_for(make_instance("/Execute/Superstep/Compute"), "net@node0"), NoneRule
        )

    def test_machine_placeholder(self):
        rules = RuleMatrix().set_exact("/Execute/Superstep/Compute", "cpu@{machine}", 0.25)
        inst = make_instance(machine="node3")
        assert isinstance(rules.rule_for(inst, "cpu@node3"), ExactRule)
        assert isinstance(rules.rule_for(inst, "cpu@node4"), VariableRule)  # implicit

    def test_placeholder_with_missing_attr_defaults_to_wildcard(self):
        rules = RuleMatrix().set_exact("/P", "cpu@{machine}", 0.5)
        inst = PhaseInstance("i", "/P", 0.0, 1.0)  # no machine
        assert isinstance(rules.rule_for(inst, "cpu@anything"), ExactRule)

    def test_unknown_placeholder_rejected(self):
        rules = RuleMatrix().set_variable("/P", "cpu@{nope}")
        with pytest.raises(ValueError, match="placeholder"):
            rules.rule_for(make_instance("/P"), "cpu@node0")

    def test_later_entries_override(self):
        rules = (
            RuleMatrix()
            .set_variable("/P", "*", 1.0)
            .set_none("/P", "net@*")
        )
        assert isinstance(rules.rule_for(make_instance("/P"), "net@node0"), NoneRule)
        assert isinstance(rules.rule_for(make_instance("/P"), "cpu@node0"), VariableRule)

    def test_set_default_rule(self):
        rules = RuleMatrix().set_default_rule(NoneRule())
        assert isinstance(rules.rule_for(make_instance(), "cpu@node0"), NoneRule)

    def test_len_counts_entries(self):
        rules = RuleMatrix().set_none("/a", "*").set_exact("/b", "*", 0.5)
        assert len(rules) == 2


def reference_rule_for(rules: RuleMatrix, instance, resource_name: str):
    """Uncached resolution: the last entry matching both patterns wins."""
    attrs = {
        "machine": instance.machine or "*",
        "worker": instance.worker or "*",
        "thread": instance.thread or "*",
    }
    chosen = rules.implicit_rule
    for entry in rules._entries:
        if fnmatch.fnmatchcase(instance.phase_path, entry.phase_path) and fnmatch.fnmatchcase(
            resource_name, entry.resource_pattern.format(**attrs)
        ):
            chosen = entry.rule
    return chosen


class TestCachedResolution:
    """``RuleMatrix.resolve`` caches per location and forgets on every change."""

    @pytest.mark.parametrize(
        "change, expected",
        [
            (lambda r: r.set_rule("/Execute/*", "cpu@*", NoneRule()), NoneRule()),
            (lambda r: r.set_none("/Execute/*", "cpu@*"), NoneRule()),
            (lambda r: r.set_exact("/Execute/*", "cpu@{machine}", 0.5), ExactRule(0.5)),
            (lambda r: r.set_variable("/Execute/*", "cpu@*", 3.0), VariableRule(3.0)),
            (lambda r: r.set_default_rule(ExactRule(0.25)), ExactRule(0.25)),
        ],
        ids=["set_rule", "set_none", "set_exact", "set_variable", "set_default_rule"],
    )
    def test_every_change_invalidates(self, change, expected):
        rules = RuleMatrix()
        inst = make_instance()
        assert rules.resolve(inst, "cpu@node0") == VariableRule(1.0)
        assert rules.rule_for(inst, "cpu@node0") == VariableRule(1.0)
        change(rules)
        # Both the per-location cache and the per-phase-path entry memo
        # forget the old matrix.
        assert rules.rule_for(inst, "cpu@node0") == expected
        assert rules.resolve(inst, "cpu@node0") == expected

    def test_phase_path_matched_once_per_entry(self, monkeypatch):
        rules = (
            RuleMatrix()
            .set_exact("/Execute/Superstep/Compute", "cpu@{machine}", 0.5)
            .set_variable("/Execute/*", "net@*", 2.0)
            .set_none("/Load/*", "*")
        )
        calls = []
        original = fnmatch.fnmatchcase
        monkeypatch.setattr(
            fnmatch, "fnmatchcase", lambda name, pat: calls.append((name, pat)) or original(name, pat)
        )
        inst = make_instance()
        for resource in ("cpu@node0", "cpu@node1", "net@node0", "disk@node0"):
            assert rules.rule_for(inst, resource) == reference_rule_for(rules, inst, resource)
        phase_matches = [c for c in calls if c[0] == inst.phase_path]
        # One memo fill by rule_for (3 entries), plus 3 per reference call.
        assert len(phase_matches) == 3 + 3 * 4
        rules.set_none("/Execute/*", "disk@*")
        assert rules.rule_for(inst, "disk@node0") == NoneRule()

    def test_implicit_rule_assignment_invalidates(self):
        rules = RuleMatrix()
        inst = make_instance()
        assert rules.resolve(inst, "cpu@node0") == VariableRule(1.0)
        rules.implicit_rule = NoneRule()
        assert rules.resolve(inst, "cpu@node0") == NoneRule()

    def test_resolves_once_per_location(self, monkeypatch):
        rules = RuleMatrix().set_exact("/Execute/Superstep/Compute", "cpu@{machine}", 0.5)
        calls = []
        original = RuleMatrix.rule_for
        monkeypatch.setattr(
            RuleMatrix, "rule_for", lambda self, i, r: calls.append(r) or original(self, i, r)
        )
        for k in range(5):  # distinct ids, one location
            inst = PhaseInstance(f"i{k}", "/Execute/Superstep/Compute", 0.0, 1.0, machine="node0")
            assert rules.resolve(inst, "cpu@node0") == ExactRule(0.5)
        assert rules.resolve(make_instance(machine="node1"), "cpu@node0") == VariableRule(1.0)
        assert calls == ["cpu@node0", "cpu@node0"]

    def test_unknown_placeholder_still_rejected(self):
        rules = RuleMatrix().set_variable("/P", "cpu@{nope}")
        for _ in range(2):  # a failed lookup is not cached
            with pytest.raises(ValueError, match="placeholder"):
                rules.resolve(make_instance("/P"), "cpu@node0")
            with pytest.raises(ValueError, match="placeholder"):
                rules.rule_for(make_instance("/P"), "cpu@node0")
        # An entry whose phase pattern does not match is never formatted.
        assert rules.rule_for(make_instance("/Q"), "cpu@node0") == VariableRule(1.0)

    def test_live_rows_resolve_like_instances(self):
        # The live plane keeps an open phase as a PhaseInstance whose end
        # is not known yet; it resolves like the closed instance.
        rules = (
            RuleMatrix(implicit_rule=NoneRule())
            .set_exact("/Execute/Superstep/Compute", "cpu@{machine}", 0.5)
            .set_variable("/Execute/*", "net@*", 2.0)
        )
        inst = make_instance()
        row = dataclasses.replace(inst, t_end=math.inf)
        for resource in ("cpu@node0", "cpu@node1", "net@node0", "disk@node0"):
            assert rules.resolve(row, resource) == rules.rule_for(inst, resource)
            assert rules.resolve(inst, resource) == rules.rule_for(inst, resource)

    @pytest.mark.parametrize("system", ["giraph", "powergraph", "sparklike"])
    def test_shipped_models_match_uncached_reference(self, system):
        from pathlib import Path

        from repro.adapters import parse_execution_trace
        from repro.core.model_io import load_models
        from repro.workloads.archive import _models_for
        from repro.workloads.runner import WorkloadSpec, run_workload

        run = run_workload(WorkloadSpec(system, "graph500", "pr", preset="tiny")).system_run
        trace = parse_execution_trace(run.log)
        _, resources, built = _models_for(run)
        _, _, shipped = load_models(Path(__file__).parents[2] / "models" / f"{system}.json")
        names = list(resources.consumable) + list(resources.blocking)
        for rules in (built, shipped):
            for inst in trace.instances():
                for name in names:
                    expected = reference_rule_for(rules, inst, name)
                    assert rules.resolve(inst, name) == expected
                    assert rules.resolve(inst, name) == expected  # from the cache
                    assert rules.rule_for(inst, name) == expected  # from the memo
