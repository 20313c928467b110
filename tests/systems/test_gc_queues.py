"""Tests for the GC model and bounded message queues."""

import pytest

from repro.cluster import Cluster
from repro.systems.gc import GarbageCollector
from repro.systems.logging import EventLog
from repro.systems.queues import BoundedMessageQueue


def make_gc(cluster, **kwargs):
    return GarbageCollector(
        cluster.sim, cluster[0], cluster.recorder, EventLog(), **kwargs
    )


class TestGarbageCollector:
    def test_no_pause_under_budget(self):
        cluster = Cluster(1)
        gc = make_gc(cluster, young_gen_bytes=1000.0)
        assert gc.allocate(500.0) == cluster.sim.now
        assert gc.collections == 0

    def test_pause_when_budget_exceeded(self):
        cluster = Cluster(1)
        gc = make_gc(cluster, young_gen_bytes=1000.0, base_pause=0.1)
        until = gc.allocate(1200.0)
        assert until > cluster.sim.now
        assert gc.collections == 1
        assert gc.total_pause >= 0.1

    def test_gc_event_logged(self):
        cluster = Cluster(1)
        log = EventLog()
        gc = GarbageCollector(cluster.sim, cluster[0], cluster.recorder, log, young_gen_bytes=100.0)
        gc.allocate(200.0)
        events = log.of_kind("gc")
        assert len(events) == 1
        assert events[0]["machine"] == "m0"

    def test_pause_scales_with_live_bytes(self):
        cluster = Cluster(1)
        gc = make_gc(
            cluster, young_gen_bytes=100.0, base_pause=0.01, pause_per_byte=1e-3
        )
        gc.allocate(200.0)
        first = gc.total_pause
        # More accumulated live data → longer second pause.
        gc._pause_until = 0.0  # pretend time passed
        gc.allocate(500.0)
        assert gc.total_pause - first > first

    def test_safepoint_reflects_pause(self):
        cluster = Cluster(1)
        gc = make_gc(cluster, young_gen_bytes=100.0, base_pause=0.2)
        until = gc.allocate(150.0)
        assert gc.safepoint() == until

    def test_gc_cpu_recorded(self):
        cluster = Cluster(1, n_cores=4)
        gc = make_gc(cluster, young_gen_bytes=100.0, base_pause=0.1)
        gc.allocate(150.0)
        from repro.core.timeline import TimeGrid

        grid = TimeGrid(0.0, 0.05, 2)
        usage = cluster.recorder.rate_on_grid("cpu@m0", grid)
        assert usage[0] > 0.0
        assert usage.max() <= 4.0 + 1e-9

    def test_validation(self):
        cluster = Cluster(1)
        with pytest.raises(ValueError):
            make_gc(cluster, young_gen_bytes=0.0)
        gc = make_gc(cluster)
        with pytest.raises(ValueError):
            gc.allocate(-1.0)


class TestBoundedMessageQueue:
    def test_put_without_pressure_is_instant(self):
        cluster = Cluster(1, net_bandwidth=1e9)
        q = BoundedMessageQueue(cluster.sim, cluster[0], capacity_bytes=1000.0)
        stalls = []

        def producer():
            stall = yield from q.put(500.0)
            stalls.append((stall, cluster.sim.now))

        cluster.sim.process(producer())
        cluster.sim.run()
        assert stalls == [(0.0, 0.0)]

    def test_put_stalls_when_full(self):
        cluster = Cluster(1, net_bandwidth=100.0)  # 100 B/s: slow drain
        q = BoundedMessageQueue(
            cluster.sim, cluster[0], capacity_bytes=100.0, drain_chunk_bytes=50.0
        )
        stalls = []

        def producer():
            yield from q.put(100.0)  # fills the queue
            stall = yield from q.put(100.0)  # must wait for drain
            stalls.append(stall)

        cluster.sim.process(producer())
        cluster.sim.run()
        assert stalls[0] > 0.0
        assert q.total_stall_time == pytest.approx(stalls[0])

    def test_offer_admits_what_fits_and_returns_the_rest(self):
        cluster = Cluster(1, net_bandwidth=100.0)
        q = BoundedMessageQueue(cluster.sim, cluster[0], capacity_bytes=100.0)
        assert q.offer(60.0) == 0.0
        assert q.offer(70.0) == pytest.approx(30.0)
        assert q.free == pytest.approx(0.0)
        with pytest.raises(ValueError):
            q.offer(-1.0)

    def test_oversized_put_admitted_in_pieces(self):
        cluster = Cluster(1, net_bandwidth=1000.0)
        q = BoundedMessageQueue(cluster.sim, cluster[0], capacity_bytes=100.0)
        done = []

        def producer():
            yield from q.put(350.0)
            done.append(cluster.sim.now)

        cluster.sim.process(producer())
        cluster.sim.run()
        assert done  # completed despite exceeding capacity
        assert q.occupied == pytest.approx(0.0, abs=1e-9)

    def test_drained_event(self):
        cluster = Cluster(1, net_bandwidth=1000.0)
        q = BoundedMessageQueue(cluster.sim, cluster[0], capacity_bytes=500.0)
        drained_at = []

        def producer():
            yield from q.put(400.0)
            yield q.drained()
            drained_at.append(cluster.sim.now)

        cluster.sim.process(producer())
        cluster.sim.run()
        # 400 bytes at 1000 B/s => ~0.4s (plus watch poll granularity).
        assert drained_at[0] >= 0.4

    def test_nic_traffic_recorded(self):
        cluster = Cluster(1, net_bandwidth=1000.0)
        q = BoundedMessageQueue(cluster.sim, cluster[0], capacity_bytes=500.0)

        def producer():
            yield from q.put(400.0)

        cluster.sim.process(producer())
        cluster.sim.run()
        from repro.core.timeline import TimeGrid

        grid = TimeGrid(0.0, 0.4, 1)
        assert cluster.recorder.rate_on_grid("net@m0", grid)[0] == pytest.approx(1000.0)

    def test_validation(self):
        cluster = Cluster(1)
        with pytest.raises(ValueError):
            BoundedMessageQueue(cluster.sim, cluster[0], capacity_bytes=0.0)
        with pytest.raises(ValueError):
            BoundedMessageQueue(cluster.sim, cluster[0], drain_chunk_bytes=0.0)
        q = BoundedMessageQueue(cluster.sim, cluster[0])
        with pytest.raises(ValueError):
            list(q.put(-1.0))
