"""Tests for the Giraph and PowerGraph engine simulations."""

import numpy as np
import pytest

from repro.algorithms import bfs, pagerank
from repro.graph import rmat
from repro.systems import (
    GiraphConfig,
    PowerGraphConfig,
    SyncBug,
    run_giraph,
    run_powergraph,
)


@pytest.fixture(scope="module")
def graph():
    return rmat(11, edge_factor=12, seed=3)


@pytest.fixture(scope="module")
def pr(graph):
    return pagerank(graph, iterations=4)


class TestGiraphEngine:
    def test_run_completes_with_positive_makespan(self, graph, pr):
        run = run_giraph(graph, pr)
        assert run.makespan > 0.0
        assert run.n_supersteps == 4

    def test_deterministic(self, graph, pr):
        a = run_giraph(graph, pr, seed=1)
        b = run_giraph(graph, pr, seed=1)
        assert a.makespan == b.makespan
        assert a.log.events == b.log.events

    def test_seed_changes_run(self, graph, pr):
        a = run_giraph(graph, pr, seed=1)
        b = run_giraph(graph, pr, seed=2)
        assert a.makespan != b.makespan

    def test_phase_structure(self, graph, pr):
        run = run_giraph(graph, pr)
        paths = {e["path"] for e in run.log.of_kind("phase_start")}
        assert paths == {
            "/Load",
            "/Load/LoadWorker",
            "/Execute",
            "/Execute/Superstep",
            "/Execute/Superstep/Prepare",
            "/Execute/Superstep/Compute",
            "/Execute/Superstep/Compute/ComputeThread",
            "/Execute/Superstep/Communicate",
            "/Execute/Superstep/Flush",
            "/Execute/Superstep/WorkerBarrier",
            "/Store",
            "/Store/StoreWorker",
        }

    def test_every_phase_closed(self, graph, pr):
        run = run_giraph(graph, pr)
        started = {e["id"] for e in run.log.of_kind("phase_start")}
        ended = {e["id"] for e in run.log.of_kind("phase_end")}
        assert started == ended

    def test_superstep_count_matches_algorithm(self, graph):
        frontier = bfs(graph, int(np.argmax(graph.out_degree())))
        run = run_giraph(graph, frontier)
        assert run.n_supersteps == frontier.n_iterations

    def test_thread_count_per_superstep(self, graph, pr):
        cfg = GiraphConfig(n_machines=2, threads_per_machine=3)
        run = run_giraph(graph, pr, cfg)
        threads = [
            e for e in run.log.of_kind("phase_start")
            if e["path"].endswith("ComputeThread")
        ]
        assert len(threads) == 4 * 2 * 3  # supersteps x machines x threads

    def test_cpu_usage_recorded_within_capacity(self, graph, pr):
        run = run_giraph(graph, pr)
        from repro.core.timeline import TimeGrid

        grid = TimeGrid.covering(0.0, run.makespan, 0.05)
        for m in run.machine_names:
            usage = run.recorder.rate_on_grid(f"cpu@{m}", grid)
            assert usage.max() <= run.config.threads_per_machine * 1.25

    def test_gc_disabled(self, graph, pr):
        cfg = GiraphConfig(gc_enabled=False)
        run = run_giraph(graph, pr, cfg)
        assert run.gc_collections == 0
        assert run.log.of_kind("gc") == []

    def test_gc_enabled_on_heavy_run(self, graph):
        heavy = pagerank(graph, iterations=10)
        cfg = GiraphConfig(young_gen_bytes=4e6)
        run = run_giraph(graph, heavy, cfg)
        assert run.gc_collections > 0

    def test_queue_stalls_under_slow_network(self, graph):
        heavy = pagerank(graph, iterations=6)
        cfg = GiraphConfig(net_bandwidth=5e6, queue_capacity_bytes=0.05e6)
        run = run_giraph(graph, heavy, cfg)
        assert run.queue_stall_time > 0.0

    def test_partition_mismatch_rejected(self, graph, pr):
        from repro.graph import hash_edge_cut

        part = hash_edge_cut(graph, 8)
        with pytest.raises(ValueError):
            run_giraph(graph, pr, GiraphConfig(n_machines=4), partition=part)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GiraphConfig(n_machines=0)
        with pytest.raises(ValueError):
            GiraphConfig(threads_per_machine=0)
        with pytest.raises(ValueError):
            GiraphConfig(chunk_vertices=0)
        with pytest.raises(ValueError):
            GiraphConfig(combiner_ratio=0.0)
        with pytest.raises(ValueError):
            GiraphConfig(combiner_ratio=1.5)
        with pytest.raises(ValueError):
            GiraphConfig(partitions_per_thread=0)

    def test_per_phase_truth_recording(self, graph, pr):
        run = run_giraph(graph, pr, GiraphConfig(record_per_phase_truth=True))
        assert run.truth_recorder is not None
        recorded = run.truth_recorder.resources()
        thread_ids = {
            e["id"]
            for e in run.log.of_kind("phase_start")
            if e["path"].endswith("ComputeThread")
        }
        # Every recorded truth series names a real thread instance.
        assert recorded
        assert set(recorded) <= thread_ids
        # Off by default: no memory overhead in normal runs.
        assert run_giraph(graph, pr).truth_recorder is None

    def test_combiner_reduces_network_traffic(self, graph):
        heavy = pagerank(graph, iterations=6)
        base = run_giraph(graph, heavy, GiraphConfig())
        combined = run_giraph(graph, heavy, GiraphConfig(combiner_ratio=0.25))
        from repro.core.timeline import TimeGrid

        def net_total(run):
            grid = TimeGrid.covering(0.0, run.makespan, 0.05)
            return sum(
                run.recorder.rate_on_grid(f"net@{m}", grid).sum()
                for m in run.machine_names
            )

        assert net_total(combined) < 0.5 * net_total(base)
        assert combined.makespan <= base.makespan

    def test_partition_pull_balances_threads(self, graph):
        """LPT over many partitions equalizes per-thread durations."""
        heavy = pagerank(graph, iterations=3)

        def thread_spread(run):
            starts = {e["id"]: e for e in run.log.of_kind("phase_start")}
            ends = {e["id"]: e["t"] for e in run.log.of_kind("phase_end")}
            durs = [
                ends[i] - ev["t"]
                for i, ev in starts.items()
                if ev["path"].endswith("ComputeThread")
            ]
            return max(durs) - min(durs)

        coarse = run_giraph(graph, heavy, GiraphConfig(partitions_per_thread=1))
        fine = run_giraph(graph, heavy, GiraphConfig(partitions_per_thread=16))
        assert thread_spread(fine) <= thread_spread(coarse)

    def test_lpt_split_conserves_work(self):
        from repro.systems.giraph import _per_thread_work

        ids = np.arange(100)
        out_deg = np.arange(100, dtype=float)
        remote = out_deg / 2
        flat = _per_thread_work(ids, out_deg, remote, 4, 1)
        lpt = _per_thread_work(ids, out_deg, remote, 4, 8)
        for result in (flat, lpt):
            assert sum(t[0] for t in result) == 100
            assert sum(t[1] for t in result) == pytest.approx(out_deg.sum())
            assert sum(t[2] for t in result) == pytest.approx(remote.sum())
        # LPT spread is no worse than the contiguous split's.
        spread = lambda r: max(t[1] for t in r) - min(t[1] for t in r)
        assert spread(lpt) <= spread(flat)

    def test_present_time_stamps_are_logged_in_order(self):
        # A live reader's watermark trusts every present-time stamp; a
        # queue stall logged only once it ended would land behind it.
        from repro.workloads import WorkloadSpec, run_workload

        spec = WorkloadSpec("giraph", "graph500", "pr", preset="small", seed=0)
        log = run_workload(spec).system_run.log
        newest, behind = float("-inf"), []
        for ev in log.events:
            if ev["event"] in ("phase_start", "phase_end", "block_start", "gc"):
                if ev["t"] < newest:
                    behind.append(ev)
                newest = max(newest, ev["t"])
        assert log.of_kind("block_start"), "the run should block at least once"
        assert behind == []


class TestPowerGraphEngine:
    def test_run_completes(self, graph, pr):
        run = run_powergraph(graph, pr)
        assert run.makespan > 0.0
        assert run.n_iterations == 4

    def test_deterministic(self, graph, pr):
        a = run_powergraph(graph, pr, seed=1)
        b = run_powergraph(graph, pr, seed=1)
        assert a.makespan == b.makespan
        assert a.log.events == b.log.events

    def test_phase_structure(self, graph, pr):
        run = run_powergraph(graph, pr)
        paths = {e["path"] for e in run.log.of_kind("phase_start")}
        assert paths == {
            "/Load",
            "/Load/LoadWorker",
            "/Execute",
            "/Execute/Iteration",
            "/Execute/Iteration/Gather",
            "/Execute/Iteration/Apply",
            "/Execute/Iteration/Scatter",
            "/Execute/Iteration/Sync",
            "/Execute/Iteration/SyncBarrier",
        }

    def test_no_gc_or_queue_blocking(self, graph, pr):
        """The cross-system contrast of Figure 4: PowerGraph has neither."""
        run = run_powergraph(graph, pr)
        assert run.log.of_kind("gc") == []
        assert run.log.of_kind("block_start") == []

    def test_bug_disabled_by_default(self, graph, pr):
        run = run_powergraph(graph, pr)
        assert run.bug_injections == 0

    def test_bug_injection_extends_threads(self, graph, pr):
        cfg = PowerGraphConfig(sync_bug=SyncBug(enabled=True, probability=1.0, seed=1))
        bugged = run_powergraph(graph, pr, cfg)
        clean = run_powergraph(graph, pr)
        assert bugged.bug_injections > 0
        assert bugged.makespan > clean.makespan

    def test_bug_determinism(self, graph, pr):
        cfg = lambda: PowerGraphConfig(sync_bug=SyncBug(enabled=True, probability=0.5, seed=9))
        a = run_powergraph(graph, pr, cfg())
        b = run_powergraph(graph, pr, cfg())
        assert a.bug_injections == b.bug_injections
        assert a.makespan == b.makespan

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PowerGraphConfig(n_machines=0)
        with pytest.raises(ValueError):
            PowerGraphConfig(chunk_edges=0)
        with pytest.raises(ValueError):
            SyncBug(probability=2.0)
        with pytest.raises(ValueError):
            SyncBug(min_factor=0.0)
