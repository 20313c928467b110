"""Bounded outbound message queues (Giraph-style backpressure).

Giraph workers buffer outgoing messages in bounded per-worker queues that a
network sender drains; when a queue fills, compute threads *stall* until
space frees up.  Those stalls are the ``queue@<machine>`` blocking resource
in the paper's tuned Giraph model and one of its two dominant Giraph
bottlenecks (Figure 4).

:class:`BoundedMessageQueue` models the queue in bytes with a dedicated
drainer process pushing chunks through the machine's NIC; producers use
``yield from queue.put(n)`` and measure their own stall time.
"""

from __future__ import annotations

from ..cluster.events import Event, Simulator
from ..cluster.machine import Machine

__all__ = ["BoundedMessageQueue"]


class BoundedMessageQueue:
    """A bounded byte queue drained through a machine's NIC."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        *,
        capacity_bytes: float = 64e6,
        drain_chunk_bytes: float = 4e6,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0, got {capacity_bytes}")
        if drain_chunk_bytes <= 0:
            raise ValueError(f"drain_chunk_bytes must be > 0, got {drain_chunk_bytes}")
        self.sim = sim
        self.machine = machine
        self.capacity = capacity_bytes
        self.drain_chunk = drain_chunk_bytes
        self.occupied = 0.0
        self.total_stall_time = 0.0
        self._waiters: list[Event] = []
        self._drainer_running = False

    @property
    def resource_name(self) -> str:
        return f"queue@{self.machine.name}"

    @property
    def free(self) -> float:
        return self.capacity - self.occupied

    def put(self, n_bytes: float):
        """Producer coroutine: enqueue ``n_bytes``, stalling while full.

        Use as ``yield from queue.put(n)`` inside a process generator.  A
        single put larger than the whole queue is admitted in capacity-sized
        pieces (as a real buffered sender would split it).
        """
        t0 = self.sim.now
        remaining = self.offer(n_bytes)
        while remaining > 0:
            ev = self.sim.event()
            self._waiters.append(ev)
            yield ev
            remaining = self.offer(remaining)
        self.total_stall_time += self.sim.now - t0
        return self.sim.now - t0  # stall duration, for the caller's logging

    def offer(self, n_bytes: float) -> float:
        """Enqueue as much of ``n_bytes`` as fits now; returns the rest.

        A producer that gets a positive rest back stalls while it puts the rest.
        """
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        remaining = n_bytes
        while remaining > 0 and self.free > 0:
            chunk = min(remaining, self.free)
            self.occupied += chunk
            remaining -= chunk
            self._ensure_drainer()
        return remaining

    def _ensure_drainer(self) -> None:
        if not self._drainer_running and self.occupied > 0:
            self._drainer_running = True
            self.sim.process(self._drain())

    def _drain(self):
        while self.occupied > 0:
            chunk = min(self.occupied, self.drain_chunk)
            yield self.machine.send(chunk)
            self.occupied -= chunk
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                ev.succeed()
        self._drainer_running = False

    def drained(self) -> Event:
        """Event that fires once the queue is fully empty (for flush phases)."""
        ev = self.sim.event()
        self.sim.process(self._watch_empty(ev))
        return ev

    def _watch_empty(self, ev: Event):
        while self.occupied > 0 or self._drainer_running:
            yield self.sim.timeout(0.001)
        ev.succeed()
