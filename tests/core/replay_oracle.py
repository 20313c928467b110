"""Scalar reference replay for :class:`repro.core.simulation.ReplaySimulator`.

The oracle builds the uncompressed dependency graph — one predecessor set
per leaf, every barrier expanded to all of its ``|P| × |S|`` edges — and
replays it one leaf at a time in trace order.  The array simulator (join
nodes, level sweep, scenario axis) must reproduce its predecessor lists
and its schedules bit for bit.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.phases import ExecutionModel
from repro.core.simulation import SimulationResult
from repro.core.traces import ExecutionTrace, PhaseInstance


def _order_key(inst: PhaseInstance) -> tuple[float, float, str]:
    return (inst.t_start, inst.t_end, inst.instance_id)


def replay_order(trace: ExecutionTrace) -> list[PhaseInstance]:
    """Leaf instances in replay order."""
    leaves = [i for i in trace.instances() if not trace.children_of(i)]
    return sorted(leaves, key=_order_key)


def wait_paths(model: ExecutionModel | None) -> set[str]:
    """Phase types replayed as elastic (zero-duration) waits."""
    if model is None:
        return set()
    return {path for path, node in model.root.walk() if node.wait}


def _leaves_of(trace: ExecutionTrace, inst: PhaseInstance) -> list[PhaseInstance]:
    if not trace.children_of(inst):
        return [inst]
    return [d for d in trace.descendants_of(inst) if not trace.children_of(d)]


def _sibling_predecessor_types(
    model: ExecutionModel | None, parent_path: str | None, phase_path: str
) -> set[str]:
    if model is None:
        return set()
    name = phase_path.rsplit("/", 1)[-1]
    if parent_path is None:
        node, prefix = model.root, ""
    else:
        try:
            node = model[parent_path]
        except KeyError:
            return set()
        prefix = parent_path
    return {f"{prefix}/{p}" for p, succs in node.successors.items() if name in succs}


def reference_predecessors(
    trace: ExecutionTrace, model: ExecutionModel | None
) -> dict[str, list[str]]:
    """Leaf id -> sorted ids of every leaf it structurally waits for."""
    deps: dict[str, set[str]] = {i.instance_id: set() for i in replay_order(trace)}

    by_parent: dict[str | None, list[PhaseInstance]] = {}
    for inst in trace.instances():
        by_parent.setdefault(inst.parent_id, []).append(inst)
    for parent_id, group in by_parent.items():
        parent_path = None if parent_id is None else trace[parent_id].phase_path
        by_type: dict[str, list[PhaseInstance]] = {}
        for inst in group:
            by_type.setdefault(inst.phase_path, []).append(inst)
        for phase_path, insts in by_type.items():
            insts = sorted(insts, key=_order_key)
            pred_types = _sibling_predecessor_types(model, parent_path, phase_path)
            pred_instances = [p for t in pred_types for p in by_type.get(t, [])]
            last_on_key: dict[tuple, PhaseInstance] = {}
            for inst in insts:
                effective = pred_instances
                if inst.machine is not None:
                    local = [p for p in pred_instances if p.machine == inst.machine]
                    effective = local or pred_instances
                pred_ids = [leaf.instance_id for p in effective for leaf in _leaves_of(trace, p)]
                key = (inst.machine, inst.worker, inst.thread)
                prev = last_on_key.get(key)
                if prev is not None:
                    pred_ids.extend(leaf.instance_id for leaf in _leaves_of(trace, prev))
                last_on_key[key] = inst
                for leaf in _leaves_of(trace, inst):
                    deps[leaf.instance_id].update(pred_ids)

    last_on_thread: dict[tuple, PhaseInstance] = {}
    for inst in replay_order(trace):
        if inst.thread is None or inst.machine is None:
            continue
        key = (inst.machine, inst.worker, inst.thread)
        if key in last_on_thread:
            deps[inst.instance_id].add(last_on_thread[key].instance_id)
        last_on_thread[key] = inst

    for inst in trace.instances():
        pred_ids = [
            leaf.instance_id
            for pid in inst.depends_on
            if pid in trace
            for leaf in _leaves_of(trace, trace[pid])
        ]
        for leaf in _leaves_of(trace, inst):
            deps[leaf.instance_id].update(pred_ids)

    return {iid: sorted(s) for iid, s in deps.items()}


def reference_replay(
    trace: ExecutionTrace,
    model: ExecutionModel | None,
    durations: Mapping[str, float] | None = None,
    preds: dict[str, list[str]] | None = None,
) -> SimulationResult:
    """Replay one leaf at a time, in trace order, over every explicit edge.

    A predecessor whose end time is not known yet (it replays later) is
    ignored.  Pass ``preds`` to reuse a :func:`reference_predecessors`
    result across scenarios.
    """
    if preds is None:
        preds = reference_predecessors(trace, model)
    waits = wait_paths(model)
    start: dict[str, float] = {}
    end: dict[str, float] = {}
    for inst in replay_order(trace):
        if inst.phase_path in waits:
            dur = 0.0
        else:
            dur = inst.duration
            if durations is not None:
                dur = durations.get(inst.instance_id, dur)
        s = 0.0
        for pid in preds[inst.instance_id]:
            e = end.get(pid)
            if e is not None and e > s:
                s = e
        start[inst.instance_id] = s
        end[inst.instance_id] = s + max(dur, 0.0)
    return SimulationResult(start=start, end=end)
