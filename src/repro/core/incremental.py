"""Live incremental characterization: streaming ingest, windowed analysis.

Grade10's batch pipeline characterizes a run only once its log is
complete.  :class:`IncrementalProfile` is the streaming counterpart: it
consumes log-event chunks as they arrive — raw text via
:meth:`IncrementalProfile.feed_text` (backed by
:class:`~repro.systems.logging.JsonlStream`) or decoded events via
:meth:`IncrementalProfile.feed` — and keeps two planes of state:

* the **trace builder** of the batch parser,
  :class:`~repro.adapters.parsing.TraceBuilder`, which folds each event
  into phase instances, resolved blocking intervals and GC phases as it
  arrives (each decoded event is then dropped), and
* a **windowed live analyzer** that, as the *sealed watermark* advances,
  runs the batch stages — :func:`~repro.core.demand.estimate_demand`,
  :func:`~repro.core.upsample.upsample`,
  :func:`~repro.core.attribution.attribute` and
  :func:`~repro.core.bottlenecks.find_bottlenecks` — on a window-local
  trace: the builder's instances overlapping the window, clipped to it,
  and the monitoring samples that start in it.  Instances that ended
  before the window are pruned, so a window never re-walks the full
  history.

Both planes are exact:

* **Live windows sum to the batch report.**  Demand and attribution work
  slice by slice, and the upsampler spreads each monitoring sample over
  the slices it covers independently of every other sample and of every
  other resource.  A window therefore reproduces the batch profile on its
  slices as long as no sample is split between two windows, so each
  resource's part of a window ends on a *clean cut*: a slice edge none of
  that resource's samples straddles.  ``window_slices`` is the minimum
  width; each resource extends it to its own next sample boundary (a
  multiple of 40 slices with 0.4 s monitoring and 10 ms slices), so
  exporters that sample at different phases on different machines still
  seal windows.  The window's frontier advances to the first slice an
  unanalyzed sample covers.  Summed over a run, the live saturation and
  exact-cap seconds equal the batch report's.  Blocking seconds
  accumulate as each block is attached to its instance, and a resolved
  block's raw duration is final.
* **The final profile is bit-identical to batch.**
  :meth:`IncrementalProfile.finalize` analyzes the remaining windows,
  closes the builder — the batch parser's repair passes — and runs
  :class:`~repro.core.profile.Grade10` on that trace, so feeding a log in
  chunks of *any* size — including 1-event chunks and mid-record byte
  splits — yields the one-shot batch output, and each event is decoded
  once.  The differential suite in ``tests/core/test_incremental.py``
  enforces this on all three golden systems.

A window is analyzed once, when every event that can affect it has
necessarily arrived, and never revisited.  The emitters write events in
the order of their *present-time* stamps — the ``t`` of ``phase_start``,
``phase_end``, ``block_start`` and ``gc`` — so the watermark is the newest
such stamp, floored at the earliest unresolved ``block_start``.  A
``block_end`` and the ``t_end`` of a ``gc`` event may be written ahead of
time and do not move the watermark, nor does a ``phase_end`` that arrives
before its phase's start.  When machine clocks disagree, the
fast machines' stamps move the watermark ahead of the slow machines'
events, so the live seconds drift from the batch report (the final
profile does not).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterable

from .bottlenecks import EXACT_CAP_THRESHOLD, SATURATION_THRESHOLD, BottleneckKind
from .outliers import DEFAULT_MIN_PHASE_DURATION
from .phases import ExecutionModel
from .profile import DEFAULT_SLICE_DURATION, Grade10, PerformanceProfile
from .resources import ResourceModel
from .rules import RuleMatrix
from .timeline import TimeGrid
from .traces import ExecutionTrace, PhaseInstance, ResourceMeasurement, ResourceTrace
from ..systems.logging import JsonlStream

__all__ = [
    "DEFAULT_WINDOW_SLICES",
    "IncrementalProfile",
    "LiveBottleneck",
    "WindowSummary",
]

#: Default minimum analysis window width, in timeslices (0.64 s at the
#: default 10 ms slice; with 0.4 s monitoring a window then spans two
#: samples, 0.8 s): wide enough to amortize the per-window stage calls,
#: narrow enough that the follow table refreshes several times per run.
DEFAULT_WINDOW_SLICES = 64

#: Length of the reference grid that numbers slices from the live origin:
#: longer than any run (about 350 years of 10 ms slices).
_REFERENCE_SLICES = 2**40


@dataclass(frozen=True)
class LiveBottleneck:
    """One bottleneck observation from the live plane.

    ``kind`` matches the batch detector's vocabulary (``blocking`` /
    ``saturation`` / ``exact-cap``); ``duration`` is the seconds this
    observation adds — summing a run's observations per ``(resource,
    kind)`` reproduces :attr:`IncrementalProfile.bottleneck_seconds`.
    """

    kind: str
    instance_id: str
    phase_path: str
    resource: str
    duration: float
    window: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, as carried by ``bottleneck.detected`` events."""
        return asdict(self)


@dataclass(frozen=True)
class WindowSummary:
    """Result of analyzing one sealed window."""

    index: int
    t_start: float
    t_end: float
    n_rows: int
    bottlenecks: tuple[LiveBottleneck, ...]
    lag_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, as carried by ``window.analyzed`` events."""
        return {**asdict(self), "bottlenecks": [b.to_dict() for b in self.bottlenecks]}


class IncrementalProfile:
    """Streaming profile: feed log chunks, watch bottlenecks form, finalize.

    Parameters mirror :class:`~repro.core.profile.Grade10` plus the parse
    knobs of :func:`~repro.adapters.parsing.parse_execution_trace` (events
    fold into the same :class:`~repro.adapters.parsing.TraceBuilder`) and
    the live-plane controls:

    ``window_slices``
        Minimum width of each live analysis window, in timeslices; each
        resource's part of a window extends to the next slice edge none
        of its monitoring samples straddles.
    ``on_window`` / ``on_bottleneck``
        Callbacks invoked synchronously from :meth:`advance` — the hook
        points the serving layer uses to publish ``window.analyzed`` /
        ``bottleneck.detected`` progress events.
    """

    def __init__(
        self,
        execution_model: ExecutionModel,
        resource_model: ResourceModel,
        rules: RuleMatrix | None = None,
        *,
        slice_duration: float = DEFAULT_SLICE_DURATION,
        saturation_threshold: float = SATURATION_THRESHOLD,
        exact_cap_threshold: float = EXACT_CAP_THRESHOLD,
        min_phase_duration: float = DEFAULT_MIN_PHASE_DURATION,
        include_blocking: bool = True,
        include_gc_phases: bool = False,
        window_slices: int = DEFAULT_WINDOW_SLICES,
        on_window: Callable[[WindowSummary], None] | None = None,
        on_bottleneck: Callable[[LiveBottleneck], None] | None = None,
    ) -> None:
        if window_slices <= 0:
            raise ValueError(f"window_slices must be > 0, got {window_slices}")
        #: The batch pipeline every window and :meth:`finalize` run through.
        self.grade10 = Grade10(
            execution_model,
            resource_model,
            rules,
            slice_duration=slice_duration,
            saturation_threshold=saturation_threshold,
            exact_cap_threshold=exact_cap_threshold,
            min_phase_duration=min_phase_duration,
        )
        self.slice_duration = slice_duration
        self.window_slices = window_slices
        self.on_window = on_window
        self.on_bottleneck = on_bottleneck

        self._stream = JsonlStream()
        # Imported here: repro.adapters imports repro.core at package init.
        from ..adapters.parsing import TraceBuilder

        self._builder = TraceBuilder(
            include_blocking=include_blocking, include_gc_phases=include_gc_phases
        )

        # Live analysis plane.
        self._live: list[PhaseInstance] = []  # instances not yet behind the frontier
        # Unanalyzed monitoring samples per consumable resource, by start.
        self._samples: dict[str, list[ResourceMeasurement]] = {}
        self._resource_trace = ResourceTrace()  # every sample, for finalize
        self._t0: float | None = None  # live grid origin
        self._analyzed_slices = 0
        self._finalized = False

        # Read-side counters (what RunStatus / /metrics consume).
        self.windows_analyzed = 0
        self.events_ingested = 0
        self.bottleneck_seconds: dict[tuple[str, str], float] = {}
        self.last_bottleneck: LiveBottleneck | None = None

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def feed_text(self, chunk: str | bytes) -> list[WindowSummary]:
        """Feed one raw JSONL chunk (any split, including mid-record)."""
        return self.feed(self._stream.feed(chunk))

    def feed(self, events: Iterable[dict[str, Any]]) -> list[WindowSummary]:
        """Ingest decoded events, then analyze any newly sealed windows."""
        if self._finalized:
            raise RuntimeError("IncrementalProfile already finalized")
        for ev in events:
            self._ingest(ev)
        return self.advance()

    def feed_measurement(self, resource: str, t_start: float, t_end: float, value: float) -> None:
        """Feed one monitoring sample (average rate over ``[t_start, t_end)``)."""
        self._resource_trace.add_measurement(resource, t_start, t_end, value)
        if resource in self.grade10.resource_model.consumable:
            insort(
                self._samples.setdefault(resource, []),
                ResourceMeasurement(resource, t_start, t_end, value),
                key=lambda m: m.t_start,
            )

    def feed_resource_trace(self, resource_trace: ResourceTrace) -> None:
        """Bulk-feed monitoring samples from a resource trace."""
        for name in resource_trace.measured_resources():
            for m in resource_trace.measurements(name):
                self.feed_measurement(name, m.t_start, m.t_end, m.value)

    def _ingest(self, ev: dict[str, Any]) -> None:
        self.events_ingested += 1
        inst = self._builder.feed(ev)
        if inst is None:
            return
        started = ev["event"] != "block_end"
        # A start brings the blocks resolved before it; a block_end adds one.
        for b in inst.blocking if started else inst.blocking[-1:]:
            self._note(
                BottleneckKind.BLOCKING, inst.instance_id, inst.phase_path, b.resource, b.duration
            )
        if started:
            self._live.append(inst)
            # The origin is fixed once a window is sealed: moving it would
            # renumber slices already analyzed.
            if self._t0 is None or (inst.t_start < self._t0 and not self.windows_analyzed):
                self._t0 = inst.t_start

    # ------------------------------------------------------------------ #
    # Live windowed analysis
    # ------------------------------------------------------------------ #
    @property
    def lag_seconds(self) -> float:
        """How far the analyzed frontier trails the newest event."""
        if self._t0 is None:
            return 0.0
        frontier = self._t0 + self._analyzed_slices * self.slice_duration
        return max(0.0, self._builder.now - frontier)

    def _safe_time(self) -> float:
        """Largest time every relevant event has necessarily arrived for.

        Nothing earlier than the newest present-time stamp can still
        arrive; an unresolved block makes activity unknowable from its
        start onward, so the watermark also floors at the earliest pending
        ``block_start``.
        """
        return min([self._builder.now, *self._builder.pending_blocks.values()])

    def _reference_grid(self) -> TimeGrid:
        """Slices numbered from the live origin, as the batch grid numbers them."""
        assert self._t0 is not None
        return TimeGrid(self._t0, self.slice_duration, _REFERENCE_SLICES)

    def _next_window(self, limit: int = _REFERENCE_SLICES) -> tuple[int, int, dict[str, int]]:
        """Plan the window that starts at the analyzed frontier.

        Each resource takes its pending samples that start before the
        minimum end, ``window_slices`` past the frontier, and every later
        sample that overlaps the ones taken, so none of its samples is
        split between two windows.  Cuts are per resource: monitoring
        that is not phase-aligned across machines never forces a window
        to grow.  Returns the window grid's end (past every taken sample,
        capped at ``limit``), the new frontier (the first slice an untaken
        sample covers: every resource's slices before it are final), and
        how many samples each resource takes.
        """
        ref = self._reference_grid()
        hi = self._analyzed_slices + self.window_slices
        end, frontier = hi, limit
        taken: dict[str, int] = {}
        for resource, samples in self._samples.items():
            n, cut = 0, hi
            for m in samples:  # sorted by start: one scan per resource
                m_lo, m_hi = ref.slice_range(m.t_start, m.t_end)
                if m_lo >= cut:
                    frontier = min(frontier, m_lo)
                    break
                n, cut = n + 1, max(cut, m_hi)
            taken[resource] = n
            end = max(end, cut)
        end = min(end, limit)
        return end, min(frontier, end), taken

    def advance(self) -> list[WindowSummary]:
        """Analyze every window now fully behind the sealed watermark."""
        if self._t0 is None:
            return []
        sd = self.slice_duration
        safe = self._safe_time()
        out: list[WindowSummary] = []
        while self._t0 + (self._analyzed_slices + self.window_slices) * sd <= safe:
            end, frontier, taken = self._next_window()
            if self._t0 + end * sd > safe:
                break
            out.append(self._analyze_window(end, frontier, taken))
        return out

    def _note(
        self, kind: BottleneckKind, instance_id: str, phase_path: str, resource: str, duration: float
    ) -> LiveBottleneck:
        b = LiveBottleneck(
            kind.value, instance_id, phase_path, resource, duration, self.windows_analyzed
        )
        key = (b.resource, b.kind)
        self.bottleneck_seconds[key] = self.bottleneck_seconds.get(key, 0.0) + b.duration
        self.last_bottleneck = b
        if self.on_bottleneck is not None:
            self.on_bottleneck(b)
        return b

    def _analyze_window(self, end: int, frontier: int, taken: dict[str, int]) -> WindowSummary:
        """Run the batch stages on slices ``[analyzed, end)``, up to ``frontier``.

        Slices past ``frontier`` are in the grid for the resources whose
        taken samples cover them; every other resource has no sample
        there, so they count toward no bottleneck until a later window.
        """
        assert self._t0 is not None
        lo, sd = self._analyzed_slices, self.slice_duration
        grid = TimeGrid(t0=self._t0 + lo * sd, slice_duration=sd, n_slices=end - lo)
        t_lo, t_hi = grid.t0, grid.t_end

        # The window's execution trace: every instance overlapping it,
        # clipped to it.  Instances that ended before it are never needed
        # again, which keeps a window's work proportional to live
        # concurrency, not to run length.
        self._live = [inst for inst in self._live if inst.t_end > t_lo]
        trace = ExecutionTrace()
        for inst in self._live:
            t_start, t_end = max(inst.t_start, t_lo), min(inst.t_end, t_hi)
            if t_end <= t_start:
                continue  # starts after the window, or a malformed end stamp
            parent = inst.parent_id if inst.parent_id in trace else None
            trace.add(replace(inst, t_start=t_start, t_end=t_end, parent_id=parent))

        # The window's samples, each upsampled whole.
        samples = ResourceTrace()
        for resource, n in taken.items():
            for m in self._samples[resource][:n]:
                samples.add_measurement(resource, m.t_start, m.t_end, m.value)
            del self._samples[resource][:n]

        *_, report = self.grade10.detect(trace, samples, grid)
        bottlenecks = [
            self._note(b.kind, b.instance_id, b.phase_path, b.resource, b.duration)
            for b in report
            if b.kind is not BottleneckKind.BLOCKING  # counted as blocks attach
        ]

        self._analyzed_slices = frontier
        self.windows_analyzed += 1
        t_frontier = self._t0 + frontier * sd
        summary = WindowSummary(
            index=self.windows_analyzed - 1,
            t_start=t_lo,
            t_end=t_frontier,
            n_rows=len(trace),
            bottlenecks=tuple(bottlenecks),
            lag_seconds=max(0.0, self._builder.now - t_frontier),
        )
        if self.on_window is not None:
            self.on_window(summary)
        return summary

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #
    def close(self) -> tuple[ExecutionTrace, ResourceTrace]:
        """End the stream and return the run's final traces.

        The remaining span, up to the batch grid's end (the latest stamp
        of any kind), is analyzed in windows first, so the live counters
        cover the run; then the builder closes.  Returns its execution
        trace and the fed monitoring samples with the log's blocking and
        GC intervals.  Raises what
        :func:`~repro.adapters.parsing.parse_execution_trace` raises on
        the same log.
        """
        if self._finalized:
            raise RuntimeError("IncrementalProfile already finalized")
        for ev in self._stream.close():
            self._ingest(ev)
        if self._t0 is not None:
            horizon, sd = self._builder.horizon, self.slice_duration
            n_slices = TimeGrid.covering(self._t0, horizon, sd).n_slices
            while self._analyzed_slices < n_slices:
                self._analyze_window(*self._next_window(n_slices))
        self._finalized = True
        trace = self._builder.close()
        for resource, t0, t1 in self._builder.blocking:
            self._resource_trace.add_blocking_event(resource, t0, t1)
        return trace, self._resource_trace

    def finalize(self, resource_trace: ResourceTrace | None = None) -> PerformanceProfile:
        """Close the stream and produce the exact batch profile.

        Runs :class:`~repro.core.profile.Grade10` on the traces of
        :meth:`close` (or on ``resource_trace``, when given).  The result
        is bit-identical to a one-shot ``Grade10.characterize`` on the
        same log — the convergence invariant the differential suite pins
        down.
        """
        trace, merged = self.close()
        return self.grade10.characterize(
            trace, merged if resource_trace is None else resource_trace
        )
