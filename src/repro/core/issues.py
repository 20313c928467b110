"""Performance-issue detection (paper §III-F).

For each candidate issue Grade10 determines how fixing it would change the
durations of a specific set of phases, replays the trace with the adjusted
durations (:mod:`repro.core.simulation`), and reports the difference between
the optimistic makespan and the baseline simulated makespan — an upper
bound on the achievable improvement.  Issues below a minimum improvement
threshold are suppressed.

Two issue classes are implemented, matching the paper:

* **Extensive resource bottlenecks** — for each resource, estimate how much
  shorter each bottlenecked phase could become *until another resource
  becomes the bottleneck*: a slice bottlenecked on resource ``r`` can only
  compress until the busiest other resource used by the phase saturates.
  Blocking-resource bottlenecks compress by the full blocked time.

* **Imbalanced execution** — sets of concurrent phases of the same type
  (same parent) are assumed to have interchangeable work; the what-if
  scenario gives every phase in the set the mean duration (total duration
  preserved) and replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .attribution import AttributionResult
from .bottlenecks import BottleneckKind, BottleneckReport
from .phases import ExecutionModel
from .simulation import ReplaySimulator
from .traces import ExecutionTrace
from .upsample import UpsampledTrace

__all__ = [
    "PerformanceIssue",
    "IssueReport",
    "detect_bottleneck_issues",
    "detect_imbalance_issues",
    "detect_issues",
    "DEFAULT_MIN_IMPROVEMENT",
]

#: Issues improving the makespan by less than this fraction are suppressed.
DEFAULT_MIN_IMPROVEMENT = 0.01
#: Concurrent groups smaller than this are never considered imbalanced.
_MIN_GROUP_SIZE = 2
_EPS = 1e-12


@dataclass(frozen=True)
class PerformanceIssue:
    """One detected issue with its optimistic impact estimate.

    ``makespan_reduction`` is in seconds; ``improvement`` is the fractional
    reduction relative to the baseline simulated makespan.
    """

    kind: str
    subject: str
    description: str
    affected_instances: tuple[str, ...]
    baseline_makespan: float
    optimistic_makespan: float

    @property
    def makespan_reduction(self) -> float:
        return self.baseline_makespan - self.optimistic_makespan

    @property
    def improvement(self) -> float:
        if self.baseline_makespan <= _EPS:
            return 0.0
        return self.makespan_reduction / self.baseline_makespan


@dataclass
class IssueReport:
    """All performance issues detected in one run, sorted by impact."""

    baseline_makespan: float
    issues: list[PerformanceIssue] = field(default_factory=list)

    def __iter__(self):
        return iter(self.issues)

    def __len__(self) -> int:
        return len(self.issues)

    def top(self, n: int = 10) -> list[PerformanceIssue]:
        """The ``n`` highest-impact issues, by absolute makespan reduction."""
        return sorted(self.issues, key=lambda i: i.makespan_reduction, reverse=True)[:n]

    def by_kind(self, kind: str) -> list[PerformanceIssue]:
        """Issues of one kind (``resource-bottleneck`` / ``imbalance``)."""
        return [i for i in self.issues if i.kind == kind]

    def by_subject(self, subject: str) -> list[PerformanceIssue]:
        """Issues about one subject (a resource name or phase path)."""
        return [i for i in self.issues if i.subject == subject]


@dataclass(frozen=True)
class _WhatIf:
    """One what-if scenario: the durations it changes and how to report it."""

    kind: str
    subject: str
    action: str
    affected: tuple[str, ...]
    durations: dict[str, float]


def _replay_what_ifs(
    sim: ReplaySimulator, what_ifs: list[_WhatIf], min_improvement: float
) -> IssueReport:
    """Replay the baseline once and every scenario in one batched sweep;
    report the scenarios that improve the makespan enough."""
    baseline = sim.baseline().makespan
    optimistic = sim.makespans([w.durations for w in what_ifs]).tolist() if what_ifs else []
    issues: list[PerformanceIssue] = []
    for w, opt in zip(what_ifs, optimistic):
        issue = PerformanceIssue(
            kind=w.kind,
            subject=w.subject,
            description=(
                f"{w.action} could reduce the makespan by {baseline - opt:.3f}s "
                f"({(baseline - opt) / max(baseline, _EPS):.1%})"
            ),
            affected_instances=w.affected,
            baseline_makespan=baseline,
            optimistic_makespan=opt,
        )
        if issue.improvement >= min_improvement:
            issues.append(issue)
    return IssueReport(baseline_makespan=baseline, issues=issues)


_Envelope = Callable[[str], list[tuple[str, np.ndarray]]]


def _utilization_envelopes(
    upsampled: UpsampledTrace, attribution: AttributionResult | None
) -> _Envelope:
    """Per instance, the ``where(demand > eps, utilization, 0)`` row of each
    resource it uses — computed once per instance and then reused."""
    if attribution is None:
        return lambda instance_id: []
    cache: dict[str, list[tuple[str, np.ndarray]]] = {}

    def envelope(instance_id: str) -> list[tuple[str, np.ndarray]]:
        rows = cache.get(instance_id)
        if rows is None:
            rows = cache[instance_id] = []
            for resource in attribution.resources_of(instance_id):
                used = attribution.demand_of(instance_id, resource) > _EPS
                if resource in upsampled and np.any(used):
                    rows.append((resource, np.where(used, upsampled[resource].utilization, 0.0)))
        return rows

    return envelope


def _bottleneck_reductions(
    resource: str,
    trace: ExecutionTrace,
    report: BottleneckReport,
    envelope: _Envelope,
) -> dict[str, float]:
    """Per-instance duration reductions from removing bottlenecks on ``resource``.

    For blocking resources, a phase recovers its full blocked time.  For
    consumable resources, each bottlenecked slice compresses until the
    busiest *other* resource the phase uses would saturate: a slice where
    another resource runs at utilization ``u`` can shrink to ``u`` of its
    width, recovering ``(1 - u) × slice_duration``.
    """
    grid = report.grid
    reductions: dict[str, float] = {}
    for b in report.for_resource(resource):
        if b.kind == BottleneckKind.BLOCKING:
            reductions[b.instance_id] = reductions.get(b.instance_id, 0.0) + b.duration
            continue
        if b.slices is None:
            continue
        # Utilization of the other resources this instance uses, per slice.
        next_util = np.zeros(grid.n_slices)
        for other, util in envelope(b.instance_id):
            if other != resource:
                np.maximum(next_util, util, out=next_util)
        recovered = float(np.sum((1.0 - np.minimum(next_util[b.slices], 1.0)))) * grid.slice_duration
        if recovered > 0.0:
            reductions[b.instance_id] = reductions.get(b.instance_id, 0.0) + recovered
    # A phase can never shrink below zero.
    for iid, red in list(reductions.items()):
        reductions[iid] = min(red, trace[iid].duration)
    return reductions


def _bottleneck_what_ifs(
    trace: ExecutionTrace,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None,
    resource_groups: dict[str, list[str]] | None,
) -> list[_WhatIf]:
    """One scenario per resource (group): all its bottlenecks removed."""
    if resource_groups is None:
        groups: dict[str, list[str]] = {r: [r] for r in sorted({b.resource for b in report})}
    else:
        groups = dict(resource_groups)
    envelope = _utilization_envelopes(upsampled, attribution)
    what_ifs: list[_WhatIf] = []
    for subject, members in groups.items():
        reductions: dict[str, float] = {}
        for resource in members:
            for iid, red in _bottleneck_reductions(resource, trace, report, envelope).items():
                reductions[iid] = reductions.get(iid, 0.0) + red
        if not reductions:
            continue
        what_ifs.append(_WhatIf(
            kind="resource-bottleneck",
            subject=subject,
            action=f"Removing all bottlenecks on {subject!r}",
            affected=tuple(sorted(reductions)),
            durations={
                iid: max(trace[iid].duration - red, 0.0) for iid, red in reductions.items()
            },
        ))
    return what_ifs


def _imbalance_what_ifs(
    trace: ExecutionTrace, model: ExecutionModel | None, min_group_size: int
) -> list[_WhatIf]:
    """One scenario per balanceable phase type: all its groups rebalanced."""
    # Collect candidate groups per phase type.
    groups_by_type: dict[str, list[list[str]]] = {}
    for (parent_id, phase_path), insts in trace.concurrent_groups().items():
        if len(insts) < min_group_size:
            continue
        if model is not None:
            try:
                node = model[phase_path]
            except KeyError:
                continue
            if not node.concurrent or not node.balanceable:
                continue
        groups_by_type.setdefault(phase_path, []).append([i.instance_id for i in insts])

    what_ifs: list[_WhatIf] = []
    for phase_path, groups in sorted(groups_by_type.items()):
        durations: dict[str, float] = {}
        affected: list[str] = []
        for group in groups:
            mean = float(np.mean([trace[iid].duration for iid in group]))
            for iid in group:
                inst = trace[iid]
                kids = trace.children_of(inst)
                if not kids:
                    durations[iid] = mean
                else:
                    # Inner instance (e.g. a per-worker Compute wrapping its
                    # threads): equalize by scaling every leaf descendant —
                    # "perfectly balanced" across workers while leaf totals
                    # shrink/grow proportionally.
                    scale = mean / inst.duration if inst.duration > 0 else 1.0
                    for desc in trace.descendants_of(inst):
                        if not trace.children_of(desc):
                            durations[desc.instance_id] = desc.duration * scale
                affected.append(iid)
        what_ifs.append(_WhatIf(
            kind="imbalance",
            subject=phase_path,
            action=(
                f"Perfectly balancing {len(affected)} {phase_path!r} phases across "
                f"{len(groups)} group(s)"
            ),
            affected=tuple(affected),
            durations=durations,
        ))
    return what_ifs


def detect_bottleneck_issues(
    trace: ExecutionTrace,
    model: ExecutionModel | None,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None = None,
    *,
    min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
    simulator: ReplaySimulator | None = None,
    resource_groups: dict[str, list[str]] | None = None,
) -> IssueReport:
    """Estimate the impact of removing all bottlenecks on each resource.

    ``resource_groups`` evaluates named groups of resources jointly instead
    of single resources — e.g. ``{"compute": ["cpu@m0", "cpu@m1", ...]}``
    simulates eliminating *all* CPU bottlenecks cluster-wide, which is how
    Figure 4 reports bottleneck impact per resource class.
    """
    return _replay_what_ifs(
        simulator or ReplaySimulator(trace, model),
        _bottleneck_what_ifs(trace, report, upsampled, attribution, resource_groups),
        min_improvement,
    )


def detect_imbalance_issues(
    trace: ExecutionTrace,
    model: ExecutionModel | None,
    *,
    min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
    min_group_size: int = _MIN_GROUP_SIZE,
    simulator: ReplaySimulator | None = None,
) -> IssueReport:
    """Estimate the impact of perfectly balancing concurrent same-type phases.

    Groups are (parent instance, phase type) sets; only groups whose phase
    type is marked ``concurrent`` in the model (or any group when no model
    is given) are considered, and only work within one group is treated as
    interchangeable — e.g. compute phases of one superstep, never across
    supersteps.  Issues are reported per phase *type*, rebalancing all of
    that type's groups at once, which is how Figure 5 aggregates them.
    """
    return _replay_what_ifs(
        simulator or ReplaySimulator(trace, model),
        _imbalance_what_ifs(trace, model, min_group_size),
        min_improvement,
    )


def detect_issues(
    trace: ExecutionTrace,
    model: ExecutionModel | None,
    report: BottleneckReport,
    upsampled: UpsampledTrace,
    attribution: AttributionResult | None = None,
    *,
    min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
) -> IssueReport:
    """Run all issue detectors and merge their reports.

    Both detectors share one simulator and one baseline replay, and all of
    their what-if scenarios replay together in one batched sweep.
    """
    what_ifs = _bottleneck_what_ifs(trace, report, upsampled, attribution, None)
    what_ifs += _imbalance_what_ifs(trace, model, _MIN_GROUP_SIZE)
    return _replay_what_ifs(ReplaySimulator(trace, model), what_ifs, min_improvement)
