"""Differential suite: the batched pipeline kernels vs their scalar oracles.

The pipeline has one implementation: batched array kernels for activity
rasterization, demand, upsampling and bottleneck detection (the kernels
the former columnar backend introduced).  The scalar one-instance /
one-window / one-row versions live in :mod:`tests.core.pipeline_oracle`
as oracles.  This suite characterizes the cells the golden-profile
fixtures pin — every simulated system's ``graph500/pr`` tiny run — once
through the kernels and once with the oracle stage functions swapped into
:class:`~repro.core.profile.Grade10`, and requires **bit-identical**
results: demand totals and entries, upsampled arrays, bottleneck reports
and the exported profile all compare exactly (``np.array_equal``, ``==``).

A Hypothesis property extends the check to generated nested traces with
blocking gaps, several active intervals per instance, zero-length
instances and children that overhang their parent: activity, demand and
bottleneck reports stay bit-identical there too, and upsampled arrays
agree to 1e-12 (numpy's pairwise row sums may group a padded window row's
terms differently from the oracle's per-window sums).

The suite also extends the fault-injection acceptance criterion: every
shipped :class:`repro.faults.FaultSpec`, applied to the tiny archive, must
degrade identically under kernels and oracles — same typed error, or same
invariant-violation set — and the CLI's ``analyze --check-invariants``
exit-3 contract holds on the pipeline.
"""

import contextlib
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribution import attribute
from repro.core.bottlenecks import find_bottlenecks
from repro.core.demand import estimate_demand
from repro.core.export import profile_to_dict
from repro.core.invariants import INVARIANTS
from repro.core.resources import ResourceModel
from repro.core.rules import RuleMatrix
from repro.core.traces import ExecutionTrace, ResourceTrace
from repro.core.upsample import upsample
from repro.faults import FAULTS, ClockSkew, apply_faults, fault_at
from repro.workloads import WorkloadSpec, characterize_run, run_workload
from repro.workloads.archive import ArchiveError, characterize_archive

from . import pipeline_oracle as oracle

#: The pinned differential cells — same as the golden-profile fixtures.
SYSTEMS = ("giraph", "powergraph", "sparklike")


@contextlib.contextmanager
def oracle_stages():
    """Run :class:`~repro.core.profile.Grade10` with the scalar stages."""
    with mock.patch.multiple(
        "repro.core.profile",
        estimate_demand=oracle.estimate_demand,
        upsample=oracle.upsample,
        find_bottlenecks=oracle.find_bottlenecks,
    ):
        yield


@functools.lru_cache(maxsize=None)
def _run(system: str):
    return run_workload(WorkloadSpec(system, "graph500", "pr", preset="tiny", seed=0))


@functools.lru_cache(maxsize=None)
def _profile(system: str, implementation: str):
    if implementation == "oracle":
        with oracle_stages():
            return characterize_run(_run(system), tuned=True)
    return characterize_run(_run(system), tuned=True)


def _assert_identical(oracle_doc, kernel_doc, path="$"):
    """Structural comparison: every value equal, floats to the bit."""
    if isinstance(oracle_doc, dict):
        assert isinstance(kernel_doc, dict), f"{path}: kernel changed the type"
        assert sorted(oracle_doc) == sorted(kernel_doc), (
            f"{path}: keys differ: {sorted(set(oracle_doc) ^ set(kernel_doc))}"
        )
        for k in oracle_doc:
            _assert_identical(oracle_doc[k], kernel_doc[k], f"{path}.{k}")
    elif isinstance(oracle_doc, list):
        assert isinstance(kernel_doc, list), f"{path}: kernel changed the type"
        assert len(oracle_doc) == len(kernel_doc), (
            f"{path}: length {len(kernel_doc)} != {len(oracle_doc)}"
        )
        for i, (o, k) in enumerate(zip(oracle_doc, kernel_doc)):
            _assert_identical(o, k, f"{path}[{i}]")
    elif isinstance(oracle_doc, float) and math.isnan(oracle_doc):
        assert isinstance(kernel_doc, float) and math.isnan(kernel_doc), f"{path}: expected NaN"
    else:
        assert kernel_doc == oracle_doc, f"{path}: kernel {kernel_doc!r} != oracle {oracle_doc!r}"


def assert_demand_identical(oracle_demand, kernel_demand):
    assert list(oracle_demand.per_resource) == list(kernel_demand.per_resource)
    for name, o in oracle_demand.per_resource.items():
        k = kernel_demand.per_resource[name]
        assert np.array_equal(k.exact_total, o.exact_total), name
        assert np.array_equal(k.variable_total, o.variable_total), name
        assert [(e.instance.instance_id, e.is_exact, e.magnitude) for e in o.entries] == [
            (e.instance.instance_id, e.is_exact, e.magnitude) for e in k.entries
        ]
        for eo, ek in zip(o.entries, k.entries):
            assert np.array_equal(ek.activity, eo.activity), (name, eo.instance.instance_id)


def assert_upsampled_identical(oracle_up, kernel_up):
    assert oracle_up.resources() == kernel_up.resources()
    for name in oracle_up.resources():
        o, k = oracle_up[name], kernel_up[name]
        assert np.array_equal(k.rate, o.rate), name
        assert np.array_equal(k.coverage, o.coverage), name
        assert np.array_equal(k.unexplained, o.unexplained), name


def assert_bottlenecks_identical(oracle_report, kernel_report):
    def key(b):
        return (b.kind.value, b.instance_id, b.phase_path, b.resource, b.duration)

    assert [key(b) for b in oracle_report] == [key(b) for b in kernel_report]
    for bo, bk in zip(oracle_report, kernel_report):
        if bo.slices is None:
            assert bk.slices is None
        else:
            assert np.array_equal(bk.slices, bo.slices)


@pytest.mark.parametrize("system", SYSTEMS)
class TestBackendEquivalence:
    """Full-pipeline differential checks on each system's golden cell."""

    def test_exported_profiles_equivalent(self, system):
        expected = profile_to_dict(_profile(system, "oracle"), series=True)
        actual = profile_to_dict(_profile(system, "kernel"), series=True)
        _assert_identical(expected, actual)

    def test_demand_arrays_equivalent(self, system):
        assert_demand_identical(
            _profile(system, "oracle").demand, _profile(system, "kernel").demand
        )

    def test_upsampled_arrays_equivalent(self, system):
        assert_upsampled_identical(
            _profile(system, "oracle").upsampled, _profile(system, "kernel").upsampled
        )

    def test_reports_equivalent(self, system):
        o, k = _profile(system, "oracle"), _profile(system, "kernel")
        assert_bottlenecks_identical(o.bottlenecks, k.bottlenecks)
        assert [(i.kind, i.subject, i.optimistic_makespan) for i in o.issues] == [
            (i.kind, i.subject, i.optimistic_makespan) for i in k.issues
        ]
        assert [g.phase_path for g in o.outliers] == [g.phase_path for g in k.outliers]

    def test_invariants_hold_under_columnar(self, system):
        report = _profile(system, "kernel").check_invariants()
        assert report.ok, report.render()


class TestFaultEquivalence:
    """Every shipped fault degrades identically under kernels and oracles."""

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_outcome_matches_objects_backend(self, tiny_archive, tmp_path, name):
        dest = tmp_path / name
        apply_faults(tiny_archive, dest, [fault_at(name, 1.0)], seed=11)
        outcomes = {}
        for implementation, stages in (("oracle", oracle_stages), ("kernel", contextlib.nullcontext)):
            try:
                with stages():
                    profile = characterize_archive(dest)
            except ArchiveError as exc:
                outcomes[implementation] = ("error", type(exc).__name__)
                continue
            report = profile.check_invariants()
            assert all(v.invariant in INVARIANTS for v in report)
            assert math.isfinite(profile.makespan) and profile.makespan > 0
            outcomes[implementation] = ("profile", sorted({v.invariant for v in report}))
        assert outcomes["kernel"] == outcomes["oracle"]

    def test_analyze_cli_exit_3_with_columnar_backend(self, tiny_archive, tmp_path, capsys):
        from repro.cli import main

        dest = tmp_path / "skewed"
        apply_faults(tiny_archive, dest, [ClockSkew(delta=1.0, machines=("m0",))], seed=0)
        code = main(["analyze", str(dest), "--check-invariants"])
        assert code == 3
        assert "[nesting]" in capsys.readouterr().out

    def test_analyze_cli_clean_exit_0_with_columnar_backend(self, tiny_archive, capsys):
        from repro.cli import main

        code = main(["analyze", str(tiny_archive), "--check-invariants"])
        assert code == 0
        assert "invariant check: OK" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# Generated traces
# ---------------------------------------------------------------------- #

_times = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
_lengths = st.just(0.0) | st.floats(min_value=0.0, max_value=1.2, allow_nan=False)


@st.composite
def nested_traces(draw):
    """Traces up to three levels deep, every instance placed independently.

    Children may start before or end after their parent; blocking events
    fall anywhere (inside, straddling or outside the instance), so an
    instance can have several active intervals; lengths may be zero.
    """
    trace = ExecutionTrace()

    def add(path, parent, depth):
        start = draw(_times)
        inst = trace.record(
            path,
            start,
            start + draw(_lengths),
            parent=parent,
            machine=draw(st.sampled_from(["m0", "m1"])),
            thread=draw(st.sampled_from(["t0", "t1"])),
        )
        for _ in range(draw(st.integers(0, 3))):
            b0 = draw(_times)
            inst.add_blocking(draw(st.sampled_from(["gc", "queue"])), b0, b0 + draw(_lengths))
        if depth < 2:
            for _ in range(draw(st.integers(0, 3))):
                add(f"{path}/C", inst, depth + 1)

    for _ in range(draw(st.integers(1, 3))):
        add("/P", None, 0)
    return trace


@st.composite
def measurement_traces(draw, t_end):
    """Monitoring windows of varying width over ``[0, t_end + 0.5)``."""
    rt = ResourceTrace()
    for name in ("cpu@m0", "cpu@m1", "net"):
        width = draw(st.sampled_from([0.1, 0.3, 0.4, 0.75]))
        t = 0.0
        while t < t_end + 0.5:
            rt.add_measurement(name, t, t + width, draw(st.floats(0.0, 6.0, allow_nan=False)))
            t += width
    return rt


def _model():
    resources = ResourceModel("generated")
    resources.add_consumable("cpu@m0", 4.0)
    resources.add_consumable("cpu@m1", 4.0)
    resources.add_consumable("net", 2.0)
    rules = (
        RuleMatrix()
        .set_none("/P", "net")
        .set_exact("/P/C", "cpu@{machine}", 0.25)
        .set_exact("/P/C/C", "cpu@{machine}", 0.75)
        .set_variable("/P/C/C", "net", 2.0)
    )
    return resources, rules


class TestGeneratedTraces:
    """Kernels equal their oracles bit for bit on generated nested traces."""

    @given(trace=nested_traces(), slice_duration=st.sampled_from([0.01, 0.07, 0.1, 0.25]))
    @settings(max_examples=80, deadline=None)
    def test_attributable_activity_matches_oracle(self, trace, slice_duration):
        grid = trace.grid(slice_duration)
        expected = list(oracle.iter_attributable_instances(trace, grid))
        insts, activity = trace.attributable_activity(grid)
        assert [i.instance_id for i in insts] == [i.instance_id for i, _ in expected]
        assert activity.shape == (len(expected), grid.n_slices)
        for row, (_, frac) in zip(activity, expected):
            assert np.array_equal(row, frac)

    @given(data=st.data(), trace=nested_traces(), slice_duration=st.sampled_from([0.07, 0.1]))
    @settings(max_examples=60, deadline=None)
    def test_pipeline_stages_match_oracle(self, data, trace, slice_duration):
        resources, rules = _model()
        grid = trace.grid(slice_duration)
        demand = estimate_demand(trace, resources, rules, grid)
        expected_demand = oracle.estimate_demand(trace, resources, rules, grid)
        assert_demand_identical(expected_demand, demand)

        rt = data.draw(measurement_traces(trace.t_end))
        upsampled = upsample(rt, demand, grid)
        expected_up = oracle.upsample(rt, demand, grid)
        # Window rows padded past a multiple of 8 cells can make numpy's
        # pairwise row sums group terms differently from the oracle's
        # unpadded sums, so generated windows agree to within rounding.
        for name in expected_up.resources():
            for field in ("rate", "coverage", "unexplained"):
                np.testing.assert_allclose(
                    getattr(upsampled[name], field),
                    getattr(expected_up[name], field),
                    rtol=1e-12,
                    atol=1e-12,
                )

        attribution = attribute(upsampled, demand, trace)
        for threshold in (0.93, 0.5):
            assert_bottlenecks_identical(
                oracle.find_bottlenecks(
                    trace, upsampled, attribution, saturation_threshold=threshold
                ),
                find_bottlenecks(trace, upsampled, attribution, saturation_threshold=threshold),
            )
