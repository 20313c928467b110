"""Timing wrappers around the program's public stage functions.

The traced run swaps each :data:`PIPELINE_TARGETS` name for a wrapper that
records one span per call (or, for the per-instance hot paths, one count
per call) into a :class:`SpanRecorder`.  The benchmark adds no tracing to
the program itself: it replaces the names the program resolves at call
time and puts the originals back afterwards.

Failures are loud.  :func:`install` raises :class:`WrapperError` when a
target name no longer exists, and :meth:`Patch.check_called` raises it
when a target was never called during an operation, so a renamed stage
surfaces as an error instead of a silent zero in the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from .stats import tree_self_times

__all__ = [
    "PIPELINE_TARGETS",
    "Patch",
    "Span",
    "SpanRecorder",
    "Target",
    "WrapperError",
    "install",
    "self_times_by_name",
]


class WrapperError(RuntimeError):
    """A wrapped public function is missing or was never called."""


@dataclass(frozen=True)
class Target:
    """One public name to wrap: ``module``'s ``attr`` (``Class.method`` allowed).

    ``kind`` is ``"span"`` (one span per call) or ``"count"`` (one count
    per call, for functions called per phase instance).  ``result`` maps
    the return value to extra counts recorded under ``name + "." + key``.
    """

    module: str
    attr: str
    name: str
    kind: str = "span"
    result: Callable[[Any], dict[str, float]] | None = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


def _upsample_cells(upsampled: Any) -> dict[str, float]:
    return {"cells": upsampled.grid.n_slices * len(upsampled.per_resource)}


def _bottlenecks_found(report: Any) -> dict[str, float]:
    return {"found": len(report.bottlenecks)}


#: The stage functions ``characterize_archive`` reaches, by the module
#: whose namespace resolves them at call time.
PIPELINE_TARGETS = (
    Target("repro.workloads.archive", "load_run", "archive.load"),
    Target("repro.workloads.archive", "parse_execution_trace", "adapters.parse"),
    Target(
        "repro.workloads.archive",
        "merge_blocking_into_resource_trace",
        "adapters.merge_blocking",
    ),
    Target("repro.core.profile", "Grade10.characterize", "profile"),
    Target("repro.core.profile", "estimate_demand", "demand"),
    Target("repro.core.profile", "upsample", "upsample", result=_upsample_cells),
    Target("repro.core.profile", "attribute", "attribute"),
    Target("repro.core.profile", "find_bottlenecks", "bottlenecks", result=_bottlenecks_found),
    Target("repro.core.profile", "detect_issues", "issues"),
    Target("repro.core.profile", "find_outliers", "outliers"),
    Target("repro.core.issues", "ReplaySimulator", "simulation.build"),
    Target("repro.core.simulation", "ReplaySimulator.simulate", "simulation.replay"),
    Target("repro.core.rules", "RuleMatrix.rule_for", "rules.rule_for", kind="count"),
)


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span or ``None``."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class SpanRecorder:
    """In-memory spans and counts of one thread, grouped by operation id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.op = 0
        self._stack: list[int] = []

    def begin_op(self, op: int) -> None:
        """Start attributing spans and counts to operation ``op``."""
        self.op = op
        self.counts.setdefault(op, Counter())

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` of the current operation."""
        self.counts.setdefault(self.op, Counter())[name] += n

    def open(self, name: str) -> int:
        """Open a span; returns its index for :meth:`close`."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close the span opened as ``index`` (spans nest strictly)."""
        if not self._stack or self._stack[-1] != index:
            raise WrapperError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def called(self, op: int) -> Counter:
        """Calls per span/count name during operation ``op``."""
        calls = Counter(s.name for s in self.spans if s.op == op)
        calls.update(self.counts.get(op, Counter()))
        return calls


def self_times_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name: each span minus what its children cover."""
    nodes = [(i, s.parent, s.start, s.end, 0) for i, s in enumerate(spans)]
    totals: dict[str, float] = {}
    for span, own in zip(spans, tree_self_times(nodes)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """The object holding ``target``'s last attribute, that attribute, and its value."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError as exc:
        raise WrapperError(f"cannot wrap {target.qualname}: {exc}") from exc
    *path, leaf = target.attr.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise WrapperError(f"cannot wrap {target.qualname}: no attribute {part!r}")
        owner = getattr(owner, part)
    if leaf not in vars(owner) and not hasattr(owner, leaf):
        raise WrapperError(f"cannot wrap {target.qualname}: no attribute {leaf!r}")
    original = vars(owner)[leaf] if leaf in vars(owner) else getattr(owner, leaf)
    if not callable(original):
        raise WrapperError(f"cannot wrap {target.qualname}: not callable")
    return owner, leaf, original


def _wrapper(target: Target, original: Callable, recorder: SpanRecorder) -> Callable:
    if target.kind == "count":

        @functools.wraps(original, updated=())
        def counted(*args: Any, **kwargs: Any) -> Any:
            recorder.count(target.name)
            return original(*args, **kwargs)

        return counted

    @functools.wraps(original, updated=())
    def timed(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(target.name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if target.result is not None:
            for key, value in target.result(result).items():
                recorder.count(f"{target.name}.{key}", value)
        return result

    return timed


class Patch:
    """Installed wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, targets: tuple[Target, ...], recorder: SpanRecorder) -> None:
        self.targets = targets
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def _install(self) -> None:
        resolved = [_resolve(t) for t in self.targets]  # all-or-nothing
        for target, (owner, leaf, original) in zip(self.targets, resolved):
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, _wrapper(target, original, self.recorder))

    def uninstall(self) -> None:
        """Put every original back, last wrapped first."""
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def check_called(self, op: int) -> None:
        """Raise :class:`WrapperError` naming every target not called during ``op``."""
        calls = self.recorder.called(op)
        missing = [t.qualname for t in self.targets if calls[t.name] == 0]
        if missing:
            raise WrapperError(
                "wrapped function(s) never called during operation "
                f"{op}: {', '.join(missing)}"
            )

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def install(targets: tuple[Target, ...], recorder: SpanRecorder) -> Patch:
    """Wrap every target or none; raises :class:`WrapperError` on a missing name."""
    patch = Patch(targets, recorder)
    patch._install()
    return patch
