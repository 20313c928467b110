"""Tests for the §III-F trace-replay simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phases import ExecutionModel
from repro.core.simulation import (
    ReplaySimulator,
    SimulationError,
    UnknownInstanceError,
)
from repro.core.traces import ExecutionTrace

from .replay_oracle import reference_predecessors, reference_replay


def bsp_model() -> ExecutionModel:
    m = ExecutionModel("bsp")
    m.add_phase("/Load")
    m.add_phase("/Execute", after="Load")
    m.add_phase("/Execute/Superstep", repeatable=True)
    m.add_phase("/Execute/Superstep/Compute", concurrent=True)
    m.add_phase("/Execute/Superstep/Barrier", after="Compute")
    return m


def make_bsp_trace(compute_durations: list[list[float]]) -> ExecutionTrace:
    """Build a BSP-style trace: per superstep, concurrent computes then a barrier."""
    tr = ExecutionTrace()
    t = 0.0
    load = tr.record("/Load", 0.0, 1.0, instance_id="load")
    t = 1.0
    execute = tr.record(
        "/Execute", t, t + 1.0, instance_id="exec"
    )  # end adjusted below
    for s, durs in enumerate(compute_durations):
        ss = tr.record(
            "/Execute/Superstep", t, t + max(durs) + 0.5, parent=execute, instance_id=f"ss{s}"
        )
        for k, d in enumerate(durs):
            tr.record(
                "/Execute/Superstep/Compute",
                t,
                t + d,
                parent=ss,
                machine=f"m{k % 2}",
                thread=f"t{k}",
                instance_id=f"ss{s}-c{k}",
            )
        t += max(durs)
        tr.record(
            "/Execute/Superstep/Barrier", t, t + 0.5, parent=ss, instance_id=f"ss{s}-b"
        )
        t += 0.5
    execute.t_end = t
    return tr


class TestReplaySimulator:
    def test_baseline_matches_observed_makespan(self):
        trace = make_bsp_trace([[2.0, 3.0], [1.0, 4.0]])
        sim = ReplaySimulator(trace, bsp_model())
        base = sim.baseline()
        # Load(1) + ss0(3 + 0.5) + ss1(4 + 0.5) = 9.0
        assert base.makespan == pytest.approx(trace.makespan)

    def test_concurrent_computes_overlap(self):
        trace = make_bsp_trace([[2.0, 3.0]])
        sim = ReplaySimulator(trace, bsp_model())
        base = sim.baseline()
        assert base.start["ss0-c0"] == base.start["ss0-c1"]

    def test_barrier_waits_for_all_computes(self):
        trace = make_bsp_trace([[2.0, 3.0]])
        base = ReplaySimulator(trace, bsp_model()).baseline()
        assert base.start["ss0-b"] == pytest.approx(max(base.end["ss0-c0"], base.end["ss0-c1"]))

    def test_supersteps_chain_sequentially(self):
        trace = make_bsp_trace([[1.0, 1.0], [1.0, 1.0]])
        base = ReplaySimulator(trace, bsp_model()).baseline()
        assert base.start["ss1-c0"] == pytest.approx(base.end["ss0-b"])

    def test_shortening_critical_path_reduces_makespan(self):
        trace = make_bsp_trace([[2.0, 5.0]])
        sim = ReplaySimulator(trace, bsp_model())
        base = sim.baseline().makespan
        shorter = sim.simulate({"ss0-c1": 2.0}).makespan
        assert shorter == pytest.approx(base - 3.0)

    def test_shortening_non_critical_phase_is_free(self):
        trace = make_bsp_trace([[2.0, 5.0]])
        sim = ReplaySimulator(trace, bsp_model())
        base = sim.baseline().makespan
        same = sim.simulate({"ss0-c0": 0.5}).makespan
        assert same == pytest.approx(base)

    def test_same_thread_sequencing_without_model(self):
        """Two same-type phases on one thread replay sequentially (no migration)."""
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 2.0, thread="t0", instance_id="a")
        tr.record("/C", 2.0, 4.0, thread="t0", instance_id="b")
        tr.record("/C", 0.0, 1.0, thread="t1", instance_id="c")
        sim = ReplaySimulator(tr, None)
        base = sim.baseline()
        assert base.start["b"] == pytest.approx(base.end["a"])
        assert base.start["c"] == 0.0
        assert base.makespan == pytest.approx(4.0)

    def test_rebalancing_same_thread_work(self):
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 6.0, thread="t0", instance_id="big")
        tr.record("/C", 0.0, 2.0, thread="t1", instance_id="small")
        sim = ReplaySimulator(tr, None)
        balanced = sim.simulate({"big": 4.0, "small": 4.0})
        assert balanced.makespan == pytest.approx(4.0)

    def test_negative_duration_clamped(self):
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 2.0, instance_id="x")
        sim = ReplaySimulator(tr, None)
        assert sim.simulate({"x": -5.0}).makespan == 0.0

    def test_empty_trace(self):
        sim = ReplaySimulator(ExecutionTrace(), None)
        assert sim.baseline().makespan == 0.0

    def test_duration_of(self):
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 2.0, instance_id="x")
        res = ReplaySimulator(tr, None).simulate({"x": 1.5})
        assert res.duration_of("x") == pytest.approx(1.5)


class TestUnknownInstanceError:
    def _result(self):
        tr = ExecutionTrace()
        tr.record("/C", 0.0, 2.0, instance_id="ss0-c0")
        tr.record("/C", 2.0, 3.0, instance_id="ss0-c1")
        tr.record("/C", 3.0, 4.0, instance_id="barrier")
        return ReplaySimulator(tr, None).baseline()

    def test_lookup_names_the_id_and_nearest_known(self):
        res = self._result()
        with pytest.raises(UnknownInstanceError) as excinfo:
            res.duration_of("ss0-c9")
        message = str(excinfo.value)
        assert "ss0-c9" in message
        assert "ss0-c0" in message or "ss0-c1" in message
        assert "3 instances" in message
        assert excinfo.value.instance_id == "ss0-c9"
        assert set(excinfo.value.nearest) <= {"ss0-c0", "ss0-c1", "barrier"}

    def test_start_and_end_lookups_raise_too(self):
        res = self._result()
        with pytest.raises(UnknownInstanceError):
            res.start_of("nope")
        with pytest.raises(UnknownInstanceError):
            res.end_of("nope")

    def test_no_nearest_for_utterly_unrelated_id(self):
        res = self._result()
        with pytest.raises(UnknownInstanceError) as excinfo:
            res.duration_of("zzzzzzzzzzz")
        assert not excinfo.value.nearest

    def test_is_a_keyerror_and_a_simulation_error(self):
        """Typed, but backward compatible with ``except KeyError`` callers."""
        res = self._result()
        with pytest.raises(KeyError):
            res.duration_of("missing")
        with pytest.raises(SimulationError):
            res.duration_of("missing")
        # KeyError normally reprs its argument; the override keeps the
        # human-readable message intact.
        try:
            res.duration_of("missing")
        except UnknownInstanceError as exc:
            assert not str(exc).startswith("'")

    def test_known_ids_still_resolve(self):
        res = self._result()
        assert res.duration_of("ss0-c0") == pytest.approx(2.0)
        assert res.start_of("ss0-c1") == pytest.approx(res.end_of("ss0-c0"))


def assert_matches_oracle(sim: ReplaySimulator, scenarios) -> None:
    """Predecessors, schedules and batched makespans equal the scalar oracle."""
    preds = reference_predecessors(sim.trace, sim.model)
    for iid, expected in preds.items():
        assert sim.predecessors(iid) == expected
    refs = [reference_replay(sim.trace, sim.model, ov, preds) for ov in scenarios]
    for ov, ref in zip(scenarios, refs):
        fast = sim.simulate(ov)
        assert fast.start == ref.start
        assert fast.end == ref.end
    assert sim.makespans(scenarios).tolist() == [ref.makespan for ref in refs]


def random_overrides(sim: ReplaySimulator, rng: random.Random, k: int = 25) -> dict:
    ids = [i.instance_id for i in sim.trace.instances()]
    overrides = {ids[rng.randrange(len(ids))]: rng.uniform(-0.5, 2.0) for _ in range(min(k, len(ids)))}
    overrides["no-such-instance"] = 1.0  # silently ignored by both
    return overrides


class TestVectorizedReplayEquivalence:
    """The join-node level sweep must match the scalar per-edge oracle."""

    def _simulator(self) -> ReplaySimulator:
        from repro.adapters import giraph_execution_model, parse_execution_trace
        from repro.workloads.runner import WorkloadSpec, run_workload

        run = run_workload(WorkloadSpec("giraph", "datagen", "bfs", preset="tiny", seed=5))
        trace = parse_execution_trace(
            run.system_run.log, include_blocking=True, include_gc_phases=True
        )
        return ReplaySimulator(trace, giraph_execution_model())

    def test_baseline_matches_scalar_reference(self):
        assert_matches_oracle(self._simulator(), [None])

    def test_overrides_match_scalar_reference(self):
        sim = self._simulator()
        rng = random.Random(11)
        assert_matches_oracle(sim, [None] + [random_overrides(sim, rng) for _ in range(3)])

    def test_synthetic_bsp_matches_scalar_reference(self):
        sim = ReplaySimulator(make_bsp_trace([[1.0, 3.0], [2.0, 0.5]]), bsp_model())
        assert_matches_oracle(
            sim, [None, {"ss0-c0": 0.1}, {"ss1-c1": 4.0, "ss0-c1": -1.0}]
        )

    def test_sparklike_stage_dag_matches_scalar_reference(self):
        from repro.adapters import parse_execution_trace, sparklike_execution_model
        from repro.workloads.runner import WorkloadSpec, run_workload

        run = run_workload(WorkloadSpec("sparklike", "graph500", "pr", preset="tiny", seed=3))
        sim = ReplaySimulator(parse_execution_trace(run.system_run.log), sparklike_execution_model())
        rng = random.Random(5)
        assert_matches_oracle(sim, [None, random_overrides(sim, rng)])

    def test_barrier_with_late_predecessor_falls_back_to_explicit_edges(self):
        """A successor leaf replaying before a predecessor leaf must not
        wait for it, so that block cannot go through a join node."""
        m = ExecutionModel("m")
        m.add_phase("/A", concurrent=True)
        m.add_phase("/B", after="A", concurrent=True)
        tr = ExecutionTrace()
        tr.record("/A", 0.0, 1.0, thread="t0", instance_id="a0")
        tr.record("/A", 0.0, 1.5, thread="t1", instance_id="a1")
        tr.record("/A", 2.0, 5.0, thread="t2", instance_id="a2")  # after b0
        tr.record("/B", 1.5, 2.5, thread="t0", instance_id="b0")
        tr.record("/B", 3.0, 4.0, thread="t1", instance_id="b1")
        tr.record("/B", 3.0, 3.5, thread="t2", instance_id="b2")
        sim = ReplaySimulator(tr, m)
        assert sim.predecessors("b0") == ["a0", "a1", "a2"]
        base = sim.baseline()
        assert base.start["b0"] == 1.5  # a2 replays later: ignored
        assert base.start["b1"] == 3.0  # waits for a2 (replayed at 0-3)
        assert_matches_oracle(sim, [None, {"a2": 0.1, "a1": 5.0}])


# ---------------------------------------------------------------------- #
# Property test: random traces that exercise every dependency kind
# ---------------------------------------------------------------------- #
def property_model() -> ExecutionModel:
    m = ExecutionModel("prop")
    m.add_phase("/Load", concurrent=True)
    m.add_phase("/Run", after="Load")
    m.add_phase("/Run/Step", repeatable=True)
    m.add_phase("/Run/Step/Work", concurrent=True)
    m.add_phase("/Run/Step/Work/Thread", concurrent=True)
    m.add_phase("/Run/Step/Sync", after="Work", concurrent=True, wait=True)
    m.add_phase("/Run/Step/Post", after="Sync", concurrent=True)
    m.add_phase("/Stage", repeatable=True, concurrent=True)
    m.add_phase("/Stage/Task", concurrent=True)
    return m


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
_DURS = st.sampled_from([0.0, 0.25, 1.0, 1.0, 2.0])
_MACHINES = st.sampled_from(["m0", "m1", None])
_THREADS = st.sampled_from(["t0", "t1", None])


@st.composite
def replay_traces(draw) -> ExecutionTrace:
    """Small traces with coarse times, so equal ``t_start`` ties and
    successors that start before their predecessors are common."""
    tr = ExecutionTrace()
    counter = iter(range(10_000))

    def rec(path, parent=None, depends_on=None):
        t0 = draw(_TIMES)
        return tr.record(
            path, t0, t0 + draw(_DURS), parent=parent, machine=draw(_MACHINES),
            thread=draw(_THREADS), instance_id=f"i{next(counter):03d}",
            depends_on=depends_on,
        )

    for _ in range(draw(st.integers(0, 2))):
        rec("/Load")
    run = rec("/Run")
    for _ in range(draw(st.integers(0, 3))):
        step = rec("/Run/Step", parent=run)
        for _ in range(draw(st.integers(0, 3))):
            work = rec("/Run/Step/Work", parent=step)
            for _ in range(draw(st.integers(0, 2))):
                rec("/Run/Step/Work/Thread", parent=work)
        for path in ("/Run/Step/Sync", "/Run/Step/Post"):
            for _ in range(draw(st.integers(0, 2))):
                rec(path, parent=step)
    stages: list[str] = []
    for _ in range(draw(st.integers(0, 3))):
        parents = draw(st.lists(st.sampled_from(stages), unique=True)) if stages else []
        stage = rec("/Stage", depends_on=parents)
        for _ in range(draw(st.integers(0, 3))):
            rec("/Stage/Task", parent=stage)
        stages.append(stage.instance_id)
    return tr


class TestReplayProperties:
    @settings(max_examples=150, deadline=None)
    @given(trace=replay_traces(), seed=st.integers(0, 2**16))
    def test_matches_scalar_oracle(self, trace, seed):
        sim = ReplaySimulator(trace, property_model())
        rng = random.Random(seed)
        scenarios = [None]
        if len(trace):
            scenarios += [random_overrides(sim, rng, k=5) for _ in range(2)]
        assert_matches_oracle(sim, scenarios)


def make_grid_bsp_trace(workers: int, threads: int, supersteps: int) -> ExecutionTrace:
    """Giraph-shaped trace: per superstep, per-worker Compute phases with
    one ComputeThread leaf per thread, then a per-worker barrier."""
    tr = ExecutionTrace()
    execute = tr.record("/Execute", 0.0, float(supersteps), instance_id="exec")
    for s in range(supersteps):
        ss = tr.record("/Execute/Superstep", s, s + 1.0, parent=execute, instance_id=f"ss{s}")
        for w in range(workers):
            machine = f"m{w}"
            comp = tr.record(
                "/Execute/Superstep/Compute", s, s + 0.8, parent=ss,
                machine=machine, worker=f"w{w}", instance_id=f"ss{s}-c{w}",
            )
            for t in range(threads):
                tr.record(
                    "/Execute/Superstep/Compute/ComputeThread", s, s + 0.5 + 0.01 * t,
                    parent=comp, machine=machine, worker=f"w{w}", thread=f"{machine}-t{t}",
                    instance_id=f"ss{s}-c{w}-t{t}",
                )
            tr.record(
                "/Execute/Superstep/Barrier", s + 0.8, s + 1.0, parent=ss,
                machine=machine, worker=f"w{w}", instance_id=f"ss{s}-b{w}",
            )
    return tr


def grid_bsp_model() -> ExecutionModel:
    m = ExecutionModel("grid-bsp")
    m.add_phase("/Execute")
    m.add_phase("/Execute/Superstep", repeatable=True)
    m.add_phase("/Execute/Superstep/Compute", concurrent=True)
    m.add_phase("/Execute/Superstep/Compute/ComputeThread", concurrent=True)
    m.add_phase("/Execute/Superstep/Barrier", after="Compute", concurrent=True)
    return m


class TestLinearReplayGraph:
    def test_edge_count_linear_in_leaves(self):
        """Barriers go through join nodes: the compiled graph has O(leaves)
        edges, where the expanded superstep chain alone is quadratic."""
        trace = make_grid_bsp_trace(workers=8, threads=8, supersteps=6)
        sim = ReplaySimulator(trace, grid_bsp_model())
        n_leaves = sum(1 for i in trace.instances() if not trace.children_of(i))
        bound = 4 * (n_leaves + sim.n_join_nodes)
        assert sim.n_edges <= bound
        expanded = sum(len(p) for p in reference_predecessors(trace, grid_bsp_model()).values())
        assert expanded > bound  # the uncompressed graph would fail the bound
        assert_matches_oracle(sim, [None, {"ss2-c3-t1": 3.0}])
