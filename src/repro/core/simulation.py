"""Trace-replay simulation (paper §III-F).

Grade10 estimates the impact of performance issues by *replaying* the
captured execution trace under a simplified system model:

* each phase instance has a fixed duration (as recorded, or as adjusted by
  an issue detector's what-if scenario);
* there are no delays between phases — an instance starts as soon as all of
  its predecessors have finished;
* precedence constraints come from the execution model's sibling DAGs
  (phase type A → B means every B instance under a parent waits for all A
  instances under the same parent — barrier semantics matching BSP
  frameworks);
* scheduling/locality constraints are honoured: instances of the same type
  under the same parent on the same thread replay sequentially on that
  thread (compute tasks cannot migrate between machines), while instances
  on different threads replay concurrently.

Replaying the unmodified trace yields the baseline simulated makespan; an
issue detector replays with shortened/rebalanced durations and compares.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import obs
from .phases import ExecutionModel
from .traces import ExecutionTrace, PhaseInstance

__all__ = [
    "SimulationError",
    "UnknownInstanceError",
    "SimulationResult",
    "ReplaySimulator",
]


class SimulationError(Exception):
    """A replay simulation cannot answer the question it was asked."""


class UnknownInstanceError(SimulationError, KeyError):
    """A schedule lookup named an instance id the simulation never saw.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working; the message names the offending id and the nearest
    known ids.  The CLI maps :class:`SimulationError` to exit code 2,
    like the :class:`~repro.workloads.archive.ArchiveError` family.
    """

    def __init__(self, instance_id: str, known_ids: "list[str] | tuple[str, ...]") -> None:
        near = difflib.get_close_matches(str(instance_id), [str(k) for k in known_ids], n=3)
        hint = f"; nearest known ids: {', '.join(near)}" if near else ""
        message = (
            f"unknown instance id {instance_id!r}: not in the simulated "
            f"schedule ({len(known_ids)} instances){hint}"
        )
        super().__init__(message)
        self.instance_id = instance_id
        self.nearest = tuple(near)

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


@dataclass
class SimulationResult:
    """Outcome of one replay: per-instance schedule and makespan."""

    start: dict[str, float]
    end: dict[str, float]

    @property
    def makespan(self) -> float:
        if not self.end:
            return 0.0
        return max(self.end.values()) - min(self.start.values())

    def _lookup(self, table: dict[str, float], instance_id: str) -> float:
        try:
            return table[instance_id]
        except KeyError:
            raise UnknownInstanceError(instance_id, sorted(self.end)) from None

    def start_of(self, instance_id: str) -> float:
        """Simulated start time of one instance."""
        return self._lookup(self.start, instance_id)

    def end_of(self, instance_id: str) -> float:
        """Simulated end time of one instance."""
        return self._lookup(self.end, instance_id)

    def duration_of(self, instance_id: str) -> float:
        """Simulated duration of one instance."""
        return self._lookup(self.end, instance_id) - self._lookup(self.start, instance_id)


class ReplaySimulator:
    """Replays an execution trace with (optionally adjusted) phase durations.

    The dependency graph is built once from the trace and the execution
    model.  Barriers — every leaf of a predecessor set ``P`` precedes every
    leaf of a successor set ``S`` — are routed through one zero-duration
    *join node* (``|P| + |S|`` edges instead of ``|P| × |S|``), so the
    graph stays linear in the number of leaves.  The graph is compiled into
    level-scheduled index arrays (level = longest predecessor chain) and a
    replay is one sweep over the levels: a segmented max-reduce over the
    in-edges of each level, with what-if scenarios as a second array axis
    (:meth:`makespans`).  :meth:`simulate` and :meth:`baseline` are its
    one-scenario case.  ``n_nodes`` (leaves plus join nodes), ``n_edges``
    and ``n_join_nodes`` report the compiled graph's size.
    """

    def __init__(self, trace: ExecutionTrace, model: ExecutionModel | None = None) -> None:
        self.trace = trace
        self.model = model
        self._leaf_cache: dict[str, list[PhaseInstance]] = {}
        #: Phase types whose instances are elastic waits (replayed at 0 s).
        self.wait_paths: frozenset[str] = frozenset(
            () if model is None else (path for path, node in model.root.walk() if node.wait)
        )
        with obs.span("simulate.build", n_instances=len(trace)):
            self._build_dependencies()
            self._compile()

    # ------------------------------------------------------------------ #
    # Dependency construction
    # ------------------------------------------------------------------ #
    def _sibling_predecessor_types(self, parent_path: str | None, phase_path: str) -> set[str]:
        """Phase-type paths that must fully precede ``phase_path`` (same parent)."""
        if self.model is None:
            return set()
        name = phase_path.rsplit("/", 1)[-1]
        if parent_path is None:
            node = self.model.root
            prefix = ""
        else:
            try:
                node = self.model[parent_path]
            except KeyError:
                return set()
            prefix = parent_path
        preds: set[str] = set()
        for pred_name, succs in node.successors.items():
            if name in succs:
                preds.add(f"{prefix}/{pred_name}")
        return preds

    def _build_dependencies(self) -> None:
        # Only leaf instances carry durations; parents are aggregates whose
        # precedence relations are projected onto their leaf descendants.
        leaves = [i for i in self.trace.instances() if not self.trace.children_of(i)]
        leaves.sort(key=lambda i: (i.t_start, i.t_end, i.instance_id))
        self._ids = [inst.instance_id for inst in leaves]
        self._idx = {iid: k for k, iid in enumerate(self._ids)}

        # Barrier blocks: all leaves of ``_block_preds[b]`` precede every
        # leaf listed under ``b`` in ``_blocks_of``.  Successors that wait
        # for the same predecessor set share one block, keyed by what
        # determines the set.
        block_of: dict[tuple, int] = {}
        self._block_preds: list[list[int]] = []
        self._blocks_of: list[list[int]] = [[] for _ in leaves]

        def depend(key: tuple, preds: list[PhaseInstance], inst: PhaseInstance) -> None:
            b = block_of.get(key)
            if b is None:
                b = block_of[key] = len(self._block_preds)
                self._block_preds.append([
                    self._idx[leaf.instance_id]
                    for p in preds
                    for leaf in self._leaf_descendants(p)
                ])
            if self._block_preds[b]:
                for leaf in self._leaf_descendants(inst):
                    self._blocks_of[self._idx[leaf.instance_id]].append(b)

        by_parent: dict[str | None, list[PhaseInstance]] = {}
        for inst in self.trace.instances():
            by_parent.setdefault(inst.parent_id, []).append(inst)

        for parent_id, group in by_parent.items():
            parent_path = None if parent_id is None else self.trace[parent_id].phase_path
            by_type: dict[str, list[PhaseInstance]] = {}
            for inst in group:
                by_type.setdefault(inst.phase_path, []).append(inst)
            for insts in by_type.values():
                insts.sort(key=lambda i: (i.t_start, i.t_end, i.instance_id))

            for phase_path, insts in by_type.items():
                pred_types = tuple(sorted(self._sibling_predecessor_types(parent_path, phase_path)))
                pred_instances = [p for t in pred_types for p in by_type.get(t, [])]
                on_machine: dict[str | None, list[PhaseInstance]] = {}
                for p in pred_instances:
                    on_machine.setdefault(p.machine, []).append(p)
                # Same-location sequencing (no task migration): consecutive
                # same-type instances on the same machine/worker/thread chain
                # up; instances on different locations replay concurrently.
                last_on_key: dict[tuple[str | None, str | None, str | None], PhaseInstance] = {}
                for inst in insts:
                    # Locality: a per-machine phase waits only for same-
                    # machine predecessors (its own worker's pipeline); it
                    # waits for all of them when it has no machine, or when
                    # no predecessor shares its machine (global steps).
                    local = inst.machine if inst.machine in on_machine else None
                    if pred_instances:
                        preds = pred_instances if local is None else on_machine[local]
                        depend(("barrier", parent_id, pred_types, local), preds, inst)
                    key = (inst.machine, inst.worker, inst.thread)
                    prev = last_on_key.get(key)
                    if prev is not None:
                        depend(("previous", prev.instance_id), [prev], inst)
                    last_on_key[key] = inst

        # Explicit instance-level dependencies (e.g. a dataflow stage DAG),
        # projected onto leaf descendants like the structural ones.
        for inst in self.trace.instances():
            if inst.depends_on:
                preds = [self.trace[pid] for pid in inst.depends_on if pid in self.trace]
                depend(("depends_on", tuple(inst.depends_on)), preds, inst)

        # Global same-thread sequencing: a named execution thread (core) runs
        # one leaf at a time, even across different parents — concurrent
        # dataflow stages sharing executor cores serialize on them.  This is
        # the "scheduling constraints related to concurrency" of §III-F.
        self._thread_prev = np.full(len(leaves), -1, dtype=np.intp)
        last_leaf_on_thread: dict[tuple[str, str | None, str], int] = {}
        for k, inst in enumerate(leaves):
            if inst.thread is None or inst.machine is None:
                continue
            key = (inst.machine, inst.worker, inst.thread)
            prev_k = last_leaf_on_thread.get(key)
            if prev_k is not None:
                self._thread_prev[k] = prev_k
            last_leaf_on_thread[key] = k

        n = len(leaves)
        base = np.zeros(n, dtype=np.float64)
        wait = np.zeros(n, dtype=bool)
        for k, inst in enumerate(leaves):
            if inst.phase_path in self.wait_paths:
                wait[k] = True
            else:
                base[k] = inst.duration
        self._base_dur = base
        self._is_wait = wait

    def _leaf_descendants(self, inst: PhaseInstance) -> list[PhaseInstance]:
        cached = self._leaf_cache.get(inst.instance_id)
        if cached is not None:
            return cached
        kids = self.trace.children_of(inst)
        if not kids:
            result = [inst]
        else:
            result = [
                d for d in self.trace.descendants_of(inst) if not self.trace.children_of(d)
            ]
        self._leaf_cache[inst.instance_id] = result
        return result

    def _compile(self) -> None:
        """Compile the blocks into edges and level-scheduled index arrays.

        Leaves are nodes ``0..n-1`` in replay order; join nodes follow.  An
        edge is kept only when the predecessor precedes the successor in
        that order (a replay ignores predecessors it has not reached yet).
        A block whose predecessor leaves all come before a successor leaf
        reaches it through the block's join node, so every such edge is
        kept.  Successor leaves that replay before some predecessor leaf,
        and blocks too small to gain from a join node, get their kept
        edges explicitly — the schedules are identical either way.
        """
        n = len(self._ids)
        n_blocks = len(self._block_preds)
        sizes = np.fromiter(map(len, self._block_preds), dtype=np.intp, count=n_blocks)
        indptr = np.zeros(n_blocks + 1, dtype=np.intp)
        np.cumsum(sizes, out=indptr[1:])
        members = np.fromiter(
            (p for ps in self._block_preds for p in ps), dtype=np.intp, count=int(indptr[-1])
        )

        # One (block, successor leaf) pair per barrier membership.
        counts = np.fromiter(map(len, self._blocks_of), dtype=np.intp, count=n)
        pair_block = np.fromiter(
            (b for bs in self._blocks_of for b in bs), dtype=np.intp, count=int(counts.sum())
        )
        pair_succ = np.repeat(np.arange(n, dtype=np.intp), counts)
        nonempty = sizes > 0
        last = np.full(n_blocks, -1, dtype=np.intp)
        if members.size:
            last[nonempty] = np.maximum.reduceat(members, indptr[:-1][nonempty])
        late = pair_succ > last[pair_block]
        n_late = np.bincount(pair_block[late], minlength=n_blocks)
        joined = (sizes > 1) & (n_late > 1)
        join_id = np.full(n_blocks, -1, dtype=np.intp)
        join_id[joined] = n + np.arange(int(joined.sum()), dtype=np.intp)
        self.n_join_nodes = int(joined.sum())
        via_join = late & joined[pair_block]

        # Expand (block, target) pairs into member -> target edges, keeping
        # only the forward ones; join targets sit after every leaf.
        blocks = np.concatenate([np.flatnonzero(joined), pair_block[~via_join]])
        targets = np.concatenate([join_id[joined], pair_succ[~via_join]])
        reps = sizes[blocks]
        total = int(reps.sum())
        within = np.arange(total, dtype=np.intp) - np.repeat(np.cumsum(reps) - reps, reps)
        exp_pred = members[np.repeat(indptr[blocks], reps) + within]
        exp_succ = np.repeat(targets, reps)
        forward = exp_pred < exp_succ

        chained = np.flatnonzero(self._thread_prev >= 0)
        pred = np.concatenate([
            exp_pred[forward], join_id[pair_block[via_join]], self._thread_prev[chained]
        ])
        succ = np.concatenate([exp_succ[forward], pair_succ[via_join], chained])
        self.n_nodes = n + self.n_join_nodes
        self.n_edges = int(pred.size)

        level = self._levels(pred, succ)
        # Sort the edges by (successor level, successor): each level's
        # in-edges form one contiguous slice, segmented by successor.
        by_succ = np.lexsort((succ, level[succ]))
        pred, succ = pred[by_succ], succ[by_succ]
        self._edge_pred = pred
        depth = int(level.max()) + 1 if self.n_nodes else 0
        bounds = np.searchsorted(level[succ], np.arange(depth + 1, dtype=np.intp))
        seg_start = np.ones(succ.size, dtype=bool)
        seg_start[1:] = succ[1:] != succ[:-1]
        # Level 0 has no in-edges; every node of a later level has at least
        # one, so a level's nodes are exactly its segments' successors.
        self._sweep_levels: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        for d in range(1, depth):
            lo, hi = int(bounds[d]), int(bounds[d + 1])
            seg = np.flatnonzero(seg_start[lo:hi])
            self._sweep_levels.append((lo, hi, succ[lo:hi][seg], seg))

    def _levels(self, pred: np.ndarray, succ: np.ndarray) -> np.ndarray:
        """Longest-chain level of every node, by vectorized Kahn peeling.

        A node enters the frontier when its last predecessor is removed,
        i.e. at ``1 + max(pred levels)``.
        """
        n = self.n_nodes
        indeg = np.bincount(succ, minlength=n).astype(np.intp)
        by_pred = np.argsort(pred, kind="stable")
        out_succ = succ[by_pred]
        out_indptr = np.searchsorted(pred[by_pred], np.arange(n + 1, dtype=np.intp))
        level = np.zeros(n, dtype=np.intp)
        frontier = np.flatnonzero(indeg == 0)
        depth = 0
        while frontier.size:
            level[frontier] = depth
            depth += 1
            c = out_indptr[frontier + 1] - out_indptr[frontier]
            starts = np.repeat(out_indptr[frontier], c)
            within = np.arange(int(c.sum()), dtype=np.intp) - np.repeat(np.cumsum(c) - c, c)
            succs = out_succ[starts + within]
            np.subtract.at(indeg, succs, 1)
            frontier = np.unique(succs[indeg[succs] == 0])
        return level

    def predecessors(self, instance_id: str) -> list[str]:
        """Sorted ids of the leaves ``instance_id`` waits for, join nodes expanded.

        Lists every structural predecessor, including ones that replay
        later and are therefore ignored by the replay.
        """
        k = self._idx.get(instance_id)
        if k is None:
            raise UnknownInstanceError(instance_id, self._ids)
        preds = {p for b in self._blocks_of[k] for p in self._block_preds[b]}
        if self._thread_prev[k] >= 0:
            preds.add(int(self._thread_prev[k]))
        return sorted(self._ids[p] for p in preds)

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def simulate(self, durations: Mapping[str, float] | None = None) -> SimulationResult:
        """Replay with optional per-instance duration overrides.

        ``durations`` maps instance id → new duration in seconds; instances
        not in the map keep their recorded duration.  The instance order was
        topologically sorted at construction (observed start times are
        consistent with the dependency graph, since dependencies were
        derived from an actually-observed schedule).
        """
        with obs.span("simulate", n_overrides=0 if durations is None else len(durations)):
            start, end = self._sweep([durations])
        return SimulationResult(
            start=dict(zip(self._ids, start[:, 0].tolist())),
            end=dict(zip(self._ids, end[:, 0].tolist())),
        )

    def makespans(self, scenarios: Sequence[Mapping[str, float] | None]) -> np.ndarray:
        """Makespan of each what-if scenario, all replayed in one sweep.

        Each scenario is a ``durations`` override map as in
        :meth:`simulate` (``None`` replays the recorded durations); entry
        ``k`` equals ``simulate(scenarios[k]).makespan`` bit for bit.
        """
        with obs.span("simulate", n_scenarios=len(scenarios)):
            start, end = self._sweep(scenarios)
        if not self._ids:
            return np.zeros(len(scenarios))
        return end.max(axis=0) - start.min(axis=0)

    def _sweep(
        self, scenarios: Sequence[Mapping[str, float] | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Leaf start and end times, one column per scenario."""
        n = len(self._ids)
        dur = np.zeros((self.n_nodes, len(scenarios)), dtype=np.float64)
        dur[:n] = self._base_dur[:, None]
        for k, overrides in enumerate(scenarios):
            for iid, d in (overrides or {}).items():
                pos = self._idx.get(iid)
                # Unknown ids and wait-path instances are ignored (wait
                # phases always replay at 0).
                if pos is not None and not self._is_wait[pos]:
                    dur[pos, k] = d
        np.maximum(dur, 0.0, out=dur)

        start = np.zeros_like(dur)
        end = start + dur  # final for level 0, which has no in-edges
        for lo, hi, nodes, seg in self._sweep_levels:
            s = np.maximum.reduceat(end[self._edge_pred[lo:hi]], seg, axis=0)
            start[nodes] = s
            end[nodes] = s + dur[nodes]
        return start[:n], end[:n]

    def baseline(self) -> SimulationResult:
        """Replay with the recorded durations (the comparison baseline)."""
        return self.simulate(None)
