"""Edge-case tests for the upsampling window allocation.

The window-level cases run the scalar oracle
(:func:`tests.core.pipeline_oracle.upsample_window`), and the batched
kernel behind :func:`repro.core.upsample.upsample` must reproduce the
oracle bit for bit on the same windows.
"""

import numpy as np
import pytest

from repro.core.demand import DemandEstimate, estimate_demand
from repro.core.resources import ResourceModel
from repro.core.rules import RuleMatrix
from repro.core.timeline import TimeGrid
from repro.core.traces import ExecutionTrace, ResourceTrace
from repro.core.upsample import upsample

from . import pipeline_oracle as oracle


def demand_for(phases, rules, cap=100.0, n_slices=4):
    resources = ResourceModel("t")
    resources.add_consumable("cpu", cap)
    trace = ExecutionTrace()
    for k, (path, s, e) in enumerate(phases):
        trace.record(path, s, e, instance_id=f"i{k}", thread=f"t{k}")
    grid = TimeGrid(0.0, 1.0, n_slices)
    return estimate_demand(trace, resources, rules, grid)["cpu"], grid


class TestUpsampleWindow:
    def test_zero_total_allocates_nothing(self):
        rdemand, _ = demand_for([("/P", 0.0, 2.0)], RuleMatrix())
        alloc, unexp = oracle.upsample_window(rdemand, 0, np.ones(2), 0.0)
        np.testing.assert_allclose(alloc, 0.0)
        np.testing.assert_allclose(unexp, 0.0)

    def test_partial_coverage_scales_demand(self):
        """A half-covered slice offers only half its demand and capacity."""
        rdemand, _ = demand_for(
            [("/P", 0.0, 2.0)], RuleMatrix().set_exact("/P", "cpu", 0.5)
        )
        frac = np.array([1.0, 0.5])
        # Exact demand: 50 + 25 = 75; give exactly that.
        alloc, unexp = oracle.upsample_window(rdemand, 0, frac, 75.0)
        np.testing.assert_allclose(alloc, [50.0, 25.0])
        np.testing.assert_allclose(unexp, 0.0)

    def test_overflow_beyond_capacity_flagged(self):
        rdemand, _ = demand_for(
            [("/P", 0.0, 1.0)], RuleMatrix().set_variable("/P", "cpu"), cap=50.0, n_slices=1
        )
        alloc, unexp = oracle.upsample_window(rdemand, 0, np.ones(1), 80.0)
        # 50 fits under capacity via demand; 30 is unexplained overflow.
        assert alloc[0] == pytest.approx(80.0)
        assert unexp[0] == pytest.approx(30.0)

    def test_unexplained_respects_capacity_first(self):
        """Residual consumption fills capacity headroom before overflowing."""
        rdemand, _ = demand_for(
            [("/P", 0.0, 1.0)],
            RuleMatrix().set_exact("/P", "cpu", 0.2),
            cap=100.0,
            n_slices=2,
        )
        # Window covers both slices; P active only in slice 0 (demand 20).
        alloc, unexp = oracle.upsample_window(rdemand, 0, np.ones(2), 60.0)
        assert alloc.sum() == pytest.approx(60.0)
        assert alloc[0] >= 20.0  # exact demand satisfied
        assert unexp.sum() == pytest.approx(40.0)
        assert (alloc <= 100.0 + 1e-9).all()


@pytest.mark.parametrize(
    "phases, rules, cap, n_slices, windows",
    [
        ([("/P", 0.0, 2.0)], RuleMatrix(), 100.0, 4, [(0.0, 2.0, 0.0)]),
        ([("/P", 0.0, 2.0)], RuleMatrix().set_exact("/P", "cpu", 0.5), 100.0, 4,
         [(0.0, 1.5, 50.0)]),
        ([("/P", 0.0, 1.0)], RuleMatrix().set_variable("/P", "cpu"), 50.0, 1, [(0.0, 1.0, 80.0)]),
        ([("/P", 0.0, 1.0)], RuleMatrix().set_exact("/P", "cpu", 0.2), 100.0, 2,
         [(0.0, 2.0, 30.0)]),
        ([("/P", 0.0, 2.0), ("/Q", 0.5, 3.5)],
         RuleMatrix().set_exact("/P", "cpu", 0.3).set_variable("/Q", "cpu", 2.0), 100.0, 4,
         [(0.0, 1.5, 40.0), (1.5, 3.0, 120.0), (3.0, 5.0, 10.0), (0.25, 0.75, 7.0)]),
    ],
    ids=["zero", "partial-coverage", "overflow", "unexplained", "overlapping-mixed"],
)
def test_kernel_matches_oracle_on_edge_windows(phases, rules, cap, n_slices, windows):
    rdemand, grid = demand_for(phases, rules, cap=cap, n_slices=n_slices)
    demand = DemandEstimate(grid=grid, per_resource={"cpu": rdemand})
    rt = ResourceTrace()
    for t_start, t_end, value in windows:
        rt.add_measurement("cpu", t_start, t_end, value)
    expected = oracle.upsample(rt, demand, grid)["cpu"]
    actual = upsample(rt, demand, grid)["cpu"]
    assert np.array_equal(actual.rate, expected.rate)
    assert np.array_equal(actual.coverage, expected.coverage)
    assert np.array_equal(actual.unexplained, expected.unexplained)


class TestUpsampleIntegration:
    def test_overlapping_windows_average(self):
        """Overlapping measurements blend by coverage instead of crashing."""
        resources = ResourceModel("t")
        resources.add_consumable("cpu", 100.0)
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 2.0)
        grid = TimeGrid(0.0, 1.0, 2)
        demand = estimate_demand(trace, resources, RuleMatrix(), grid)
        rt = ResourceTrace()
        rt.add_measurement("cpu", 0.0, 2.0, 10.0)
        rt.add_measurement("cpu", 0.0, 2.0, 30.0)  # duplicate collector
        up = upsample(rt, demand, grid)
        np.testing.assert_allclose(up["cpu"].rate, [20.0, 20.0])

    def test_window_extending_past_grid_preserves_total(self):
        """A trailing window's full consumption lands on its in-grid slices.

        Real monitors emit a final window extending past the run's end; its
        average is diluted by idle tail time, but every unit it reports was
        consumed inside the run, so the total is preserved (not the rate).
        """
        resources = ResourceModel("t")
        resources.add_consumable("cpu", 100.0)
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 2.0)
        grid = TimeGrid(0.0, 1.0, 2)
        demand = estimate_demand(trace, resources, RuleMatrix(), grid)
        rt = ResourceTrace()
        # 10 units avg over [0, 4): 40 unit-seconds total, grid spans [0, 2).
        rt.add_measurement("cpu", 0.0, 4.0, 10.0)
        up = upsample(rt, demand, grid)
        assert up["cpu"].rate.sum() == pytest.approx(40.0)

    def test_window_entirely_outside_grid(self):
        resources = ResourceModel("t")
        resources.add_consumable("cpu", 100.0)
        trace = ExecutionTrace()
        trace.record("/P", 0.0, 1.0)
        grid = TimeGrid(0.0, 1.0, 1)
        demand = estimate_demand(trace, resources, RuleMatrix(), grid)
        rt = ResourceTrace()
        rt.add_measurement("cpu", 5.0, 6.0, 10.0)
        up = upsample(rt, demand, grid)
        np.testing.assert_allclose(up["cpu"].rate, [0.0])
