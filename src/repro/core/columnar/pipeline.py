"""Batched columnar fast paths for the hottest pipeline stages.

Selected through ``Grade10(..., profile_backend="columnar")``, these
replace the per-instance / per-window Python loops of
:mod:`repro.core.demand` and :mod:`repro.core.upsample` with dense 2-D
kernels:

* :func:`rasterize_rows` rasterizes *all* instances' active intervals onto
  an ``(n_instances, n_slices)`` matrix in one difference-array sweep;
* :func:`attributable_activity` derives the attributable set with one
  scatter-add for the parent/child subtraction;
* :func:`upsample_columnar` lays every measurement window of a resource
  into a padded ``(n_windows, max_width)`` matrix and runs the 3-step
  water-filling distribution (§III-D2) across all windows at once
  (:func:`_water_fill_batch`).

Equivalence contract: each kernel replicates the scalar path's operation
order element-for-element (sequential ``np.add.at`` scatters, masked sums
that only append exact ``+0.0`` terms), so on realistic window widths the
outputs are bit-identical; the differential suite additionally tolerates
the tiny reassociation drift wider-than-pairwise-block rows could
introduce (see ``docs/columnar.md``).
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..attribution import AttributionResult
from ..bottlenecks import (
    EXACT_CAP_THRESHOLD,
    SATURATION_THRESHOLD,
    Bottleneck,
    BottleneckKind,
    BottleneckReport,
)
from ..demand import DemandEntry, DemandEstimate, ResourceDemand
from ..resources import ResourceModel
from ..rules import ExactRule, NoneRule, RuleMatrix, VariableRule
from ..timeline import TimeGrid
from ..traces import ExecutionTrace, PhaseInstance, ResourceTrace
from ..upsample import UpsampledResource, UpsampledTrace

__all__ = [
    "attributable_activity",
    "estimate_demand_columnar",
    "find_bottlenecks_columnar",
    "rasterize_rows",
    "upsample_columnar",
]

_EPS = 1e-12


def rasterize_rows(
    grid: TimeGrid,
    rows: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """Fractional interval rasterization onto an ``(n_rows, n_slices)`` matrix.

    The 2-D analogue of :func:`repro.core.timeline.rasterize_intervals`
    with unit weights: interval ``k`` accumulates its per-slice overlap
    fraction into row ``rows[k]``.  Operation order matches the scalar
    path per row (same/head/tail scatter-adds, then a per-row cumsum of
    the body difference array), so each row is bit-identical to
    rasterizing that row's intervals alone.
    """
    n = grid.n_slices
    out = np.zeros((n_rows, n), dtype=np.float64)
    if len(starts) == 0:
        return out
    rows = np.asarray(rows, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)

    a = np.clip((starts - grid.t0) / grid.slice_duration, 0.0, n)
    b = np.clip((ends - grid.t0) / grid.slice_duration, 0.0, n)
    a, b = np.minimum(a, b), np.maximum(a, b)
    ia = np.floor(a).astype(np.int64)
    ib = np.floor(b).astype(np.int64)

    flat = out.ravel()
    same = ia == ib
    np.add.at(flat, rows[same] * n + np.clip(ia[same], 0, n - 1), b[same] - a[same])

    multi = ~same
    if np.any(multi):
        r_m, ia_m, ib_m = rows[multi], ia[multi], ib[multi]
        a_m, b_m = a[multi], b[multi]
        np.add.at(flat, r_m * n + ia_m, ia_m + 1 - a_m)
        tail = ib_m < n
        np.add.at(flat, r_m[tail] * n + ib_m[tail], b_m[tail] - ib_m[tail])
        body = ib_m > ia_m + 1
        if np.any(body):
            diff = np.zeros((n_rows, n + 1), dtype=np.float64)
            dflat = diff.ravel()
            np.add.at(dflat, r_m[body] * (n + 1) + ia_m[body] + 1, 1.0)
            np.add.at(dflat, r_m[body] * (n + 1) + np.minimum(ib_m[body], n), -1.0)
            out += np.cumsum(diff, axis=1)[:, :-1]
    return out


def attributable_activity(
    trace: ExecutionTrace, grid: TimeGrid
) -> list[tuple[PhaseInstance, np.ndarray]]:
    """Columnar form of :meth:`ExecutionTrace.attributable_instances`.

    One batched rasterization for every instance's active intervals, one
    ``np.add.at`` scatter for the per-parent child-activity sums (applied
    in insertion order, exactly like the scalar per-kid loop), and the
    same ``clip(raw - children, 0, 1)`` only where children exist.
    """
    insts = trace.instances()
    n = len(insts)
    if n == 0:
        return []
    row_of = {inst.instance_id: r for r, inst in enumerate(insts)}
    rows: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    for r, inst in enumerate(insts):
        for s, e in inst.active_intervals():
            rows.append(r)
            starts.append(s)
            ends.append(e)
    raw = rasterize_rows(
        grid,
        np.asarray(rows, dtype=np.int64),
        np.asarray(starts, dtype=np.float64),
        np.asarray(ends, dtype=np.float64),
        n,
    )
    parent = np.fromiter(
        (row_of[i.parent_id] if i.parent_id is not None else -1 for i in insts),
        dtype=np.int64,
        count=n,
    )
    child_sum = np.zeros_like(raw)
    has_child = np.zeros(n, dtype=bool)
    is_kid = parent >= 0
    if np.any(is_kid):
        np.add.at(child_sum, parent[is_kid], raw[is_kid])
        has_child[parent[is_kid]] = True
    attr = np.where(has_child[:, None], np.clip(raw - child_sum, 0.0, 1.0), raw)
    return [(insts[r], attr[r]) for r in range(n) if np.any(attr[r] > 0.0)]


def estimate_demand_columnar(
    trace: ExecutionTrace,
    resources: ResourceModel,
    rules: RuleMatrix,
    grid: TimeGrid,
) -> DemandEstimate:
    """Demand estimation (§III-D1) over the batched activity matrix.

    Rule resolution and the per-resource accumulation order are identical
    to :func:`repro.core.demand.estimate_demand`; only the activity
    rasterization is batched, so the resulting totals and entries carry
    the same float bits.
    """
    attributable = attributable_activity(trace, grid)
    per_resource: dict[str, ResourceDemand] = {}
    for name, res in resources.consumable.items():
        exact_total = np.zeros(grid.n_slices)
        variable_total = np.zeros(grid.n_slices)
        entries: list[DemandEntry] = []
        for inst, activity in attributable:
            rule = rules.resolve(inst, name)
            if isinstance(rule, NoneRule):
                continue
            if isinstance(rule, ExactRule):
                magnitude = rule.proportion * res.capacity
                entry = DemandEntry(inst, True, magnitude, activity)
                exact_total += entry.demand()
            elif isinstance(rule, VariableRule):
                entry = DemandEntry(inst, False, rule.weight, activity)
                variable_total += entry.demand()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown rule type {type(rule).__name__}")
            entries.append(entry)
        np.minimum(exact_total, res.capacity, out=exact_total)
        per_resource[name] = ResourceDemand(
            resource=name,
            capacity=res.capacity,
            exact_total=exact_total,
            variable_total=variable_total,
            entries=entries,
        )
    return DemandEstimate(grid=grid, per_resource=per_resource)


def find_bottlenecks_columnar(
    trace: ExecutionTrace,
    upsampled: UpsampledTrace,
    attribution: AttributionResult,
    *,
    saturation_threshold: float = SATURATION_THRESHOLD,
    exact_cap_threshold: float = EXACT_CAP_THRESHOLD,
    min_duration: float = 0.0,
) -> BottleneckReport:
    """Array form of :func:`repro.core.bottlenecks.find_bottlenecks` (§III-E).

    The per-row Python loop of the scalar detector becomes whole-matrix
    masks and one integer reduction per resource; because the per-slice
    masks and counts are exact (booleans and integers), the emitted
    report — kinds, order, durations, masks — is bit-identical to the
    scalar detector's.
    """
    with obs.span("bottlenecks"):
        grid = upsampled.grid
        report = BottleneckReport(grid=grid)
        sd = grid.slice_duration

        # Blocking bottlenecks read straight off the trace; the scalar loop
        # is already minimal (no per-slice work), so it is kept verbatim.
        for inst in trace.instances():
            per_resource: dict[str, float] = {}
            for ev in inst.blocking:
                per_resource[ev.resource] = per_resource.get(ev.resource, 0.0) + ev.duration
            for res, dur in per_resource.items():
                if dur >= max(min_duration, _EPS):
                    report.bottlenecks.append(
                        Bottleneck(
                            BottleneckKind.BLOCKING, inst.instance_id, inst.phase_path, res, dur
                        )
                    )

        sat_floor = max(min_duration, sd / 2)
        for resource in upsampled.resources():
            if resource not in attribution:
                continue
            ra = attribution[resource]
            if not ra.instance_ids:
                continue
            saturated = upsampled[resource].utilization >= saturation_threshold
            active = ra.demand > _EPS  # (n_instances, n_slices)
            sat = active & saturated[None, :]
            sat_times = sat.sum(axis=1).astype(np.float64) * sd
            capped = (
                active
                & (ra.usage >= exact_cap_threshold * ra.demand)
                & ~saturated[None, :]
            )
            cap_times = capped.sum(axis=1).astype(np.float64) * sd
            for row, iid in enumerate(ra.instance_ids):
                phase_path = trace[iid].phase_path
                if sat_times[row] >= sat_floor:
                    report.bottlenecks.append(
                        Bottleneck(
                            BottleneckKind.SATURATION,
                            iid,
                            phase_path,
                            resource,
                            float(sat_times[row]),
                            sat[row],
                        )
                    )
                if ra.is_exact[row] and cap_times[row] >= sat_floor:
                    report.bottlenecks.append(
                        Bottleneck(
                            BottleneckKind.EXACT_CAP,
                            iid,
                            phase_path,
                            resource,
                            float(cap_times[row]),
                            capped[row],
                        )
                    )
        return report


def _water_fill_batch(
    amount: np.ndarray, weights: np.ndarray, headroom: np.ndarray
) -> np.ndarray:
    """Row-wise water-filling: every row replays ``upsample._water_fill``.

    ``amount`` is ``(n_windows,)``; ``weights``/``headroom`` are
    ``(n_windows, width)``.  Rows iterate together but each follows the
    scalar algorithm's exact branch structure via masks (a row that would
    have exited the scalar loop goes inert), so allocations match the
    per-window calls element-for-element.
    """
    alloc = np.zeros_like(weights)
    if weights.shape[0] == 0 or weights.shape[1] == 0:
        return alloc
    remaining = np.asarray(amount, dtype=np.float64).copy()
    active = (weights > _EPS) & (headroom > _EPS)
    live = (remaining > _EPS) & active.any(axis=1)
    # Each iteration caps at least one cell per live row, so the loop is
    # bounded by the row width; the guard is purely defensive.
    for _ in range(weights.shape[1] + 1):
        if not np.any(live):
            break
        w_sum = np.where(active, weights, 0.0).sum(axis=1)
        live &= w_sum > _EPS
        if not np.any(live):
            break
        act = live[:, None] & active
        safe = np.where(w_sum > _EPS, w_sum, 1.0)
        share = np.where(act, remaining[:, None] * weights / safe[:, None], 0.0)
        room = headroom - alloc
        over = share > room
        take = np.where(act, np.where(over, room, share), 0.0)
        alloc += take
        remaining = np.where(live, remaining - take.sum(axis=1), remaining)
        newly_capped = over & act
        live &= newly_capped.any(axis=1)
        active &= ~newly_capped
        live &= remaining > _EPS
    return alloc


def upsample_columnar(
    resource_trace: ResourceTrace,
    demand: DemandEstimate,
    grid: TimeGrid,
) -> UpsampledTrace:
    """Upsampling (§III-D2) with all of a resource's windows batched."""
    with obs.span("upsample", n_slices=grid.n_slices):
        return _upsample_columnar(resource_trace, demand, grid)


def _upsample_columnar(
    resource_trace: ResourceTrace,
    demand: DemandEstimate,
    grid: TimeGrid,
) -> UpsampledTrace:
    n = grid.n_slices
    sd = grid.slice_duration
    per_resource: dict[str, UpsampledResource] = {}
    for name in resource_trace.measured_resources():
        if name not in demand:
            # Monitored but not modelled: no capacity or demand to guide
            # upsampling (same skip as the scalar path).
            continue
        rdemand = demand[name]
        amount = np.zeros(n)
        unexplained = np.zeros(n)
        coverage = np.zeros(n)
        ms = resource_trace.measurements(name)
        if ms:
            starts = np.array([m.t_start for m in ms], dtype=np.float64)
            ends = np.array([m.t_end for m in ms], dtype=np.float64)
            values = np.array([m.value for m in ms], dtype=np.float64)
            lo, hi = grid.slice_range_batch(starts, ends)
            width = hi - lo
            max_w = int(width.max())
            if max_w > 0:
                offs = np.arange(max_w)
                idx = lo[:, None] + offs[None, :]
                valid = offs[None, :] < width[:, None]
                idxc = np.clip(idx, 0, n - 1)
                # Slice edges computed exactly as interval_slice_overlap
                # does (t0 + k*sd for integer k), so fractions carry the
                # same bits as the scalar path.
                edge_lo = grid.t0 + idx * sd
                edge_hi = grid.t0 + (idx + 1) * sd
                frac = np.clip(
                    (np.minimum(edge_hi, ends[:, None]) - np.maximum(edge_lo, starts[:, None]))
                    / sd,
                    0.0,
                    1.0,
                )
                frac = np.where(valid, frac, 0.0)
                # The window's full consumption is distributed over its
                # in-grid slices (total preserved, not in-grid duration).
                total = values * (ends - starts) / sd

                exact_total = np.asarray(rdemand.exact_total)
                variable_total = np.asarray(rdemand.variable_total)
                cap = rdemand.capacity * frac
                exact = np.minimum(exact_total[idxc] * frac, cap)
                var_w = variable_total[idxc] * frac

                # Step 1: satisfy exact demand proportionally.
                remaining = total.copy()
                exact_sum = exact.sum(axis=1)
                has_exact = exact_sum > _EPS
                full = has_exact & (remaining >= exact_sum)
                partial = has_exact & ~full
                scale = np.zeros(len(ms))
                scale[full] = 1.0
                np.divide(remaining, exact_sum, out=scale, where=partial)
                alloc = exact * scale[:, None]
                remaining = np.where(full, remaining - exact_sum, remaining)
                remaining = np.where(partial, 0.0, remaining)

                # Step 2: water-fill the remainder over variable demand.
                filled = _water_fill_batch(remaining, var_w, cap - alloc)
                alloc = alloc + filled
                remaining = remaining - filled.sum(axis=1)

                # Step 3: unexplained residue over coverage, then uniform
                # overflow when even capacity cannot absorb it.
                filled = _water_fill_batch(remaining, frac, cap - alloc)
                alloc = alloc + filled
                unexp = filled.copy()
                remaining = remaining - filled.sum(axis=1)
                overflow = remaining > _EPS
                cover = frac.sum(axis=1)
                spread = overflow & (cover > _EPS)
                if np.any(spread):
                    extra = np.where(
                        spread[:, None],
                        remaining[:, None] * frac / np.where(cover > _EPS, cover, 1.0)[:, None],
                        0.0,
                    )
                    alloc = alloc + extra
                    unexp = unexp + extra

                # Scatter back in window order — the same per-slice
                # accumulation order as the scalar per-window loop.
                np.add.at(amount, idxc[valid], alloc[valid])
                np.add.at(unexplained, idxc[valid], unexp[valid])
                np.add.at(coverage, idxc[valid], frac[valid])
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
