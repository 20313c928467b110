"""Scalar reference implementations of the batched pipeline kernels.

Each function here processes one instance, one window or one row at a
time, in the order the paper describes the stage:

* :func:`iter_attributable_instances` rasterizes every instance on its own
  and subtracts its children's activity one child at a time;
* :func:`estimate_demand` accumulates every (instance, resource) demand
  row into its total with a separate ``+=``;
* :func:`upsample` distributes one measurement window at a time
  (:func:`upsample_window`, :func:`water_fill`);
* :func:`find_bottlenecks` tests one attribution row at a time.

The kernels in ``src/`` (one rasterization sweep, ordered ``np.add.at``
scatters, padded window matrices, whole-matrix masks) must reproduce these
outputs bit for bit; ``test_kernel_oracle_equivalence.py`` checks it.
"""

from __future__ import annotations

import numpy as np

from repro.core.attribution import AttributionResult
from repro.core.bottlenecks import (
    EXACT_CAP_THRESHOLD,
    SATURATION_THRESHOLD,
    Bottleneck,
    BottleneckKind,
    BottleneckReport,
)
from repro.core.demand import DemandEntry, DemandEstimate, ResourceDemand
from repro.core.resources import ResourceModel
from repro.core.rules import ExactRule, NoneRule, RuleMatrix, VariableRule
from repro.core.timeline import TimeGrid, interval_slice_overlap
from repro.core.traces import ExecutionTrace, ResourceTrace
from repro.core.upsample import UpsampledResource, UpsampledTrace

_EPS = 1e-12


def iter_attributable_instances(trace: ExecutionTrace, grid: TimeGrid):
    """Yield ``(instance, attributable activity)`` one instance at a time."""
    for inst in trace.instances():
        frac = trace.activity_fraction(inst, grid)
        kids = trace.children_of(inst)
        if kids:
            child_activity = np.zeros(grid.n_slices)
            for kid in kids:
                child_activity += trace.activity_fraction(kid, grid)
            frac = np.clip(frac - child_activity, 0.0, 1.0)
        if np.any(frac > 0.0):
            yield inst, frac


def estimate_demand(
    trace: ExecutionTrace,
    resources: ResourceModel,
    rules: RuleMatrix,
    grid: TimeGrid,
) -> DemandEstimate:
    """Per-instance demand loop: one ``+=`` per (instance, resource) entry."""
    per_resource = {
        name: ResourceDemand(
            resource=name,
            capacity=res.capacity,
            exact_total=np.zeros(grid.n_slices),
            variable_total=np.zeros(grid.n_slices),
            entries=[],
        )
        for name, res in resources.consumable.items()
    }
    for inst, activity in iter_attributable_instances(trace, grid):
        for name, res in resources.consumable.items():
            rule = rules.rule_for(inst, name)
            if isinstance(rule, NoneRule):
                continue
            if isinstance(rule, ExactRule):
                entry = DemandEntry(inst, True, rule.proportion * res.capacity, activity)
            else:
                assert isinstance(rule, VariableRule)
                entry = DemandEntry(inst, False, rule.weight, activity)
            rdemand = per_resource[name]
            if entry.is_exact:
                rdemand.exact_total += entry.demand()
            else:
                rdemand.variable_total += entry.demand()
            rdemand.entries.append(entry)
    for name, res in resources.consumable.items():
        np.minimum(per_resource[name].exact_total, res.capacity, out=per_resource[name].exact_total)
    return DemandEstimate(grid=grid, per_resource=per_resource)


def water_fill(amount: float, weights: np.ndarray, headroom: np.ndarray) -> np.ndarray:
    """Distribute ``amount`` proportionally to ``weights``, capped by ``headroom``."""
    alloc = np.zeros_like(weights)
    if amount <= _EPS:
        return alloc
    active = (weights > _EPS) & (headroom > _EPS)
    remaining = amount
    while remaining > _EPS and np.any(active):
        w_sum = weights[active].sum()
        if w_sum <= _EPS:
            break
        share = remaining * weights / w_sum
        share[~active] = 0.0
        room = headroom - alloc
        over = share > room
        take = np.where(over, room, share)
        take[~active] = 0.0
        alloc += take
        remaining -= take.sum()
        newly_capped = over & active
        if not np.any(newly_capped):
            break
        active &= ~newly_capped
    return alloc


def upsample_window(
    demand: ResourceDemand, lo: int, frac: np.ndarray, total: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distribute one window's ``total`` over slices ``lo .. lo+len(frac)``.

    Returns ``(allocation, unexplained)`` in rate×slice units.
    """
    n = frac.size
    sl = slice(lo, lo + n)
    cap = demand.capacity * frac
    exact = np.minimum(demand.exact_total[sl] * frac, cap)
    var_w = demand.variable_total[sl] * frac

    alloc = np.zeros(n)
    unexplained = np.zeros(n)
    remaining = total

    # Step 1: satisfy exact demand proportionally.
    exact_sum = exact.sum()
    if exact_sum > _EPS:
        if remaining >= exact_sum:
            alloc += exact
            remaining -= exact_sum
        else:
            alloc += exact * (remaining / exact_sum)
            remaining = 0.0

    # Step 2: water-fill the remainder over variable demand.
    if remaining > _EPS:
        filled = water_fill(remaining, var_w, cap - alloc)
        alloc += filled
        remaining -= filled.sum()

    # Step 3: unexplained residue over the coverage, capacity first, then
    # uniform overflow.
    if remaining > _EPS:
        filled = water_fill(remaining, frac.astype(np.float64), cap - alloc)
        alloc += filled
        unexplained += filled
        remaining -= filled.sum()
        if remaining > _EPS:
            cover = frac.sum()
            if cover > _EPS:
                extra = remaining * frac / cover
                alloc += extra
                unexplained += extra
    return alloc, unexplained


def upsample(
    resource_trace: ResourceTrace, demand: DemandEstimate, grid: TimeGrid
) -> UpsampledTrace:
    """One measurement window at a time."""
    per_resource: dict[str, UpsampledResource] = {}
    for name in resource_trace.measured_resources():
        if name not in demand:
            continue
        rdemand = demand[name]
        amount = np.zeros(grid.n_slices)
        unexplained = np.zeros(grid.n_slices)
        coverage = np.zeros(grid.n_slices)
        for m in resource_trace.measurements(name):
            lo, hi, frac = interval_slice_overlap(grid, m.t_start, m.t_end)
            if hi == lo:
                continue
            total = m.value * (m.t_end - m.t_start) / grid.slice_duration
            alloc, unexp = upsample_window(rdemand, lo, frac, total)
            amount[lo:hi] += alloc
            unexplained[lo:hi] += unexp
            coverage[lo:hi] += frac
        rate = np.divide(amount, coverage, out=np.zeros_like(amount), where=coverage > _EPS)
        unexp_rate = np.divide(
            unexplained, coverage, out=np.zeros_like(unexplained), where=coverage > _EPS
        )
        per_resource[name] = UpsampledResource(
            resource=name,
            capacity=rdemand.capacity,
            rate=rate,
            coverage=np.clip(coverage, 0.0, 1.0),
            unexplained=unexp_rate,
        )
    return UpsampledTrace(grid=grid, per_resource=per_resource)


def find_bottlenecks(
    trace: ExecutionTrace,
    upsampled: UpsampledTrace,
    attribution: AttributionResult,
    *,
    saturation_threshold: float = SATURATION_THRESHOLD,
    exact_cap_threshold: float = EXACT_CAP_THRESHOLD,
    min_duration: float = 0.0,
) -> BottleneckReport:
    """One attribution row at a time."""
    grid = upsampled.grid
    report = BottleneckReport(grid=grid)
    for inst in trace.instances():
        per_resource: dict[str, float] = {}
        for ev in inst.blocking:
            per_resource[ev.resource] = per_resource.get(ev.resource, 0.0) + ev.duration
        for res, dur in per_resource.items():
            if dur >= max(min_duration, _EPS):
                report.bottlenecks.append(
                    Bottleneck(BottleneckKind.BLOCKING, inst.instance_id, inst.phase_path, res, dur)
                )
    for resource in upsampled.resources():
        if resource not in attribution:
            continue
        ra = attribution[resource]
        saturated = upsampled[resource].utilization >= saturation_threshold
        for row, iid in enumerate(ra.instance_ids):
            active = ra.demand[row] > _EPS
            phase_path = trace[iid].phase_path
            sat_mask = saturated & active
            sat_time = float(sat_mask.sum()) * grid.slice_duration
            if sat_time >= max(min_duration, grid.slice_duration / 2):
                report.bottlenecks.append(
                    Bottleneck(
                        BottleneckKind.SATURATION, iid, phase_path, resource, sat_time, sat_mask
                    )
                )
            if ra.is_exact[row]:
                capped = (
                    active & (ra.usage[row] >= exact_cap_threshold * ra.demand[row]) & ~saturated
                )
                cap_time = float(capped.sum()) * grid.slice_duration
                if cap_time >= max(min_duration, grid.slice_duration / 2):
                    report.bottlenecks.append(
                        Bottleneck(
                            BottleneckKind.EXACT_CAP, iid, phase_path, resource, cap_time, capped
                        )
                    )
    return report
