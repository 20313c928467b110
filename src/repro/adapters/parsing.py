"""Parsing system artifacts into Grade10 traces.

The simulated systems emit JSONL event logs and monitoring CSVs; this
module turns them into the :class:`~repro.core.traces.ExecutionTrace` /
:class:`~repro.core.traces.ResourceTrace` pair the Grade10 core consumes.

:class:`TraceBuilder` is the single path from log events to phase
instances and blocking intervals: the batch functions below feed it a
whole log, and :class:`~repro.core.incremental.IncrementalProfile` feeds
it as the log arrives and reads its instances meanwhile.

Two parsing knobs correspond to the paper's tuned-vs-untuned model
comparison (§IV-B):

* ``include_blocking`` — whether the expert model knows about blocking
  events (GC pauses, queue stalls).  An untuned model does not.
* ``include_gc_phases`` — whether stop-the-world collections appear as
  first-class ``/GC`` phases that demand CPU (an Exact rule in the tuned
  model).  Without them, the CPU the collector burns is unexplained and
  smears across the measurement window — the untuned model's 91 % error.
"""

from __future__ import annotations

import math
from typing import Any

from .. import obs
from ..core.traces import ExecutionTrace, PhaseInstance, ResourceTrace
from ..systems.logging import EventLog

__all__ = [
    "parse_execution_trace",
    "merge_blocking_into_resource_trace",
    "GC_PHASE_PATH",
    "TraceBuilder",
]

#: Phase path under which tuned models expose stop-the-world collections.
GC_PHASE_PATH = "/GC"

#: Events stamped when written, hence logged in stamp order (as is a
#: ``phase_end`` after its start); a ``block_end`` may be logged early.
_PRESENT_TIME_EVENTS = frozenset({"phase_start", "block_start", "gc"})

#: Log events that open, close or carry a blocking or GC interval.
_INTERVAL_EVENTS = frozenset({"block_start", "block_end", "gc"})


class TraceBuilder:
    """Fold log events, one at a time, into an execution trace.

    The emitting systems write parents before children, every instance
    exactly once, and close every phase they open — but *degraded* logs
    (truncated, reordered, or with dropped events; see :mod:`repro.faults`)
    break each of those guarantees, so the builder repairs rather than
    assumes:

    * duplicate ``phase_start`` events for one instance id keep the first;
    * the last ``phase_end`` wins, even one logged before the start, and a
      block resolved before its phase starts is attached at the start;
    * :meth:`close` ends unmatched starts at the log's horizon, adds
      children after their parents regardless of log order, and promotes
      instances whose parent never starts to top-level (the hierarchy
      above them was lost, not their work).

    An instance is a :class:`~repro.core.traces.PhaseInstance` from its
    start, with ``t_end = inf`` while open, so a live reader sees the
    final trace's objects.  :meth:`feed` never raises: it keeps the first
    malformed event's error for :meth:`close` to raise.
    """

    def __init__(self, *, include_blocking: bool = True, include_gc_phases: bool = False) -> None:
        self.include_blocking = include_blocking
        self.include_gc_phases = include_gc_phases
        #: Phase instances by id, in first-start order.
        self.instances: dict[str, PhaseInstance] = {}
        #: ``/GC`` phases in log order (only with ``include_gc_phases``).
        self.gc_phases: list[PhaseInstance] = []
        #: Unresolved ``block_start`` stamps by ``(instance id, resource)``.
        self.pending_blocks: dict[tuple[str, str], float] = {}
        #: Resolved blocking and GC intervals ``(resource, t0, t1)`` in log order.
        self.blocking: list[tuple[str, float, float]] = []
        #: Newest stamp of any kind: where unmatched starts end.
        self.horizon = 0.0
        #: Newest present-time stamp (see ``_PRESENT_TIME_EVENTS``).
        self.now = -math.inf
        self._ends: dict[str, float] = {}  # ends logged before their start
        self._held: dict[str, list[tuple[str, float, float]]] = {}  # blocks, likewise
        self._n_gc = 0  # numbers every gc event, for the /GC instance ids
        self._error: Exception | None = None

    def feed(self, ev: dict[str, Any]) -> PhaseInstance | None:
        """Fold one event; returns the instance it started or blocked, if any."""
        try:
            kind = ev["event"]
            t = float(ev.get("t", 0.0))
            self.horizon = max(self.horizon, t, float(ev.get("t_end", 0.0)))
            if kind in _PRESENT_TIME_EVENTS and t > self.now:
                self.now = t
            if kind == "phase_start":
                iid = ev["id"]
                if iid in self.instances:
                    return None
                inst = PhaseInstance(
                    iid, ev["path"], float(ev["t"]), self._ends.pop(iid, math.inf),
                    ev.get("parent"), ev.get("machine"), ev.get("worker"), ev.get("thread"),
                    depends_on=list(ev.get("depends_on", ())),
                )
                for block in self._held.pop(iid, ()):
                    inst.add_blocking(*block)
                self.instances[iid] = inst
                return inst
            if kind == "phase_end":
                inst = self.instances.get(ev["id"])
                if inst is None:  # out of order: its stamp says nothing of the rest
                    self._ends[ev["id"]] = t
                else:
                    inst.t_end = t
                    self.now = max(self.now, t)
            elif kind == "block_start":
                self.pending_blocks[(ev["id"], ev["resource"])] = t
            elif kind == "block_end":
                iid, resource = ev["id"], ev["resource"]
                t0 = self.pending_blocks.pop((iid, resource), None)
                if t0 is None:
                    return None
                self.blocking.append((resource, t0, t))
                if not self.include_blocking:
                    return None
                inst = self.instances.get(iid)
                if inst is None:
                    self._held.setdefault(iid, []).append((resource, t0, t))
                    return None
                inst.add_blocking(resource, t0, t)
                return inst
            elif kind == "gc":
                machine, t_end = ev["machine"], float(ev["t_end"])
                k, self._n_gc = self._n_gc, self._n_gc + 1
                self.blocking.append((f"gc@{machine}", t, t_end))
                if self.include_gc_phases:
                    inst = PhaseInstance(
                        f"{GC_PHASE_PATH}#{machine}#{k}", GC_PHASE_PATH, t, t_end,
                        machine=machine, worker=machine,
                    )
                    self.gc_phases.append(inst)
                    return inst
        except (KeyError, TypeError, ValueError) as exc:
            if self._error is None:
                self._error = exc
        return None

    def close(self) -> ExecutionTrace:
        """Assemble the repaired trace; call once, after the last event.

        Raises the first error :meth:`feed` kept, or ``ValueError`` for an
        instance that ends before it starts.  ``/GC`` phases come last.
        """
        if self._error is not None:
            raise self._error
        trace = ExecutionTrace()

        def add(inst: PhaseInstance, parent_id: str | None) -> None:
            if inst.t_end == math.inf:
                inst.t_end = self.horizon
            inst.parent_id = parent_id
            inst.__post_init__()  # the end is final only now: validate it
            trace.add(inst)

        # Multi-pass insertion: each pass adds every instance whose parent is
        # already placed (or provably absent).  A well-formed log completes in
        # one pass in emission order; a reordered log needs at most depth
        # passes; a cyclic (corrupt) remainder is promoted to top-level.
        pending = list(self.instances.values())
        while pending:
            deferred: list[PhaseInstance] = []
            for inst in pending:
                parent_id = inst.parent_id
                if parent_id is None or parent_id in trace:
                    add(inst, parent_id)
                elif parent_id not in self.instances:
                    add(inst, None)  # hierarchy above was lost
                else:
                    deferred.append(inst)
            if len(deferred) == len(pending):
                for inst in deferred:  # parent cycle: sever it
                    add(inst, None)
                break
            pending = deferred

        for inst in self.gc_phases:
            trace.add(inst)
        return trace


def parse_execution_trace(
    log: EventLog,
    *,
    include_blocking: bool = True,
    include_gc_phases: bool = False,
) -> ExecutionTrace:
    """Build an execution trace from a structured event log (see :class:`TraceBuilder`)."""
    with obs.span("parse", n_events=len(log.events)):
        builder = TraceBuilder(
            include_blocking=include_blocking, include_gc_phases=include_gc_phases
        )
        for ev in log.events:
            builder.feed(ev)
        return builder.close()


def merge_blocking_into_resource_trace(log: EventLog, resource_trace: ResourceTrace) -> ResourceTrace:
    """Register the log's blocking and GC intervals on the resource trace.

    The resource trace's blocking-event list is the §III-C "framework
    specific resource usage metrics extracted from execution logs".
    """
    # Phase events make no interval, so only the others are fed.
    builder = TraceBuilder(include_blocking=False)
    for ev in log.events:
        if ev["event"] in _INTERVAL_EVENTS:
            builder.feed(ev)
    for resource, t0, t1 in builder.blocking:
        resource_trace.add_blocking_event(resource, t0, t1)
    return resource_trace
