"""Property-based tests for :mod:`repro.core.columnar`.

Three contracts, each exercised with Hypothesis-generated inputs:

* **Lossless conversion** — ``from_profile`` followed by ``to_profile``
  reproduces the exported profile exactly (byte-identical JSON), because
  the trace/demand/upsample columns are stored losslessly and the
  derived reports are recomputed deterministically from them.
* **Storage round-trip** — ``save`` followed by ``open`` (memmap or
  eager) yields an equal :class:`ColumnarProfile`, and re-saving the
  opened profile reproduces the file byte for byte (the canonical JSON
  header plus raw little-endian column bytes admit exactly one
  serialization).
* **Batched grid lookups** — ``TimeGrid.slice_range_batch`` agrees with
  the scalar ``slice_range`` on every timestamp, including dyadic
  slice widths, non-representable widths like ``1/3``, and timestamps
  perturbed by sub-tolerance jitter around slice boundaries (the
  boundary-snapping path).

Plus direct unit tests of the on-disk format's failure modes: wrong
magic, truncated data, and unknown/missing columns all raise the typed
:class:`ColumnarFormatError`.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionModel, Grade10, ResourceModel, RuleMatrix
from repro.core.columnar import (
    COLUMN_SPECS,
    COLUMNAR_MAGIC,
    ColumnarFormatError,
    ColumnarProfile,
    open_columnar,
)
from repro.core.export import profile_to_dict
from repro.core.timeline import TimeGrid
from repro.core.traces import ExecutionTrace, ResourceTrace

# ---------------------------------------------------------------------------
# Generated profiles: a small but fully featured pipeline run whose shape
# (durations, thread counts, capacities, measurements) Hypothesis controls.
# ---------------------------------------------------------------------------

_dur = st.floats(0.25, 3.0, allow_nan=False, allow_infinity=False)
_value = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)

profile_inputs = st.fixed_dictionaries(
    {
        "load_dur": _dur,
        "compute_durs": st.lists(_dur, min_size=1, max_size=4),
        "barrier_dur": st.floats(0.25, 1.0, allow_nan=False),
        "capacity": st.floats(1.0, 8.0, allow_nan=False),
        "values": st.tuples(_value, _value),
        "block": st.booleans(),
        "slice_duration": st.sampled_from([0.5, 0.25, 0.2]),
    }
)


def build_profile(p):
    """One full Grade10 run over a synthetic trace shaped by ``p``."""
    model = ExecutionModel("bsp")
    model.add_phase("/Load")
    model.add_phase("/Execute", after="Load")
    model.add_phase("/Execute/Superstep", repeatable=True)
    model.add_phase("/Execute/Superstep/Compute", concurrent=True)
    model.add_phase("/Execute/Superstep/Barrier", after="Compute")

    resources = ResourceModel("cluster")
    resources.add_consumable("cpu@m0", p["capacity"], unit="cores")
    resources.add_blocking("gc@m0")

    rules = (
        RuleMatrix()
        .set_none("/*", "cpu@*")
        .set_exact("/Execute/Superstep/Compute", "cpu@{machine}", 0.25)
        .set_variable("/Load", "cpu@*", 1.0)
    )

    t_load = p["load_dur"]
    compute_end = t_load + max(p["compute_durs"])
    t_end = compute_end + p["barrier_dur"]

    trace = ExecutionTrace()
    trace.record("/Load", 0.0, t_load, instance_id="load", machine="m0")
    ex = trace.record("/Execute", t_load, t_end, instance_id="exec")
    ss = trace.record("/Execute/Superstep", t_load, t_end, parent=ex, instance_id="ss0")
    for i, dur in enumerate(p["compute_durs"]):
        inst = trace.record(
            "/Execute/Superstep/Compute", t_load, t_load + dur, parent=ss,
            machine="m0", thread=f"t{i}", instance_id=f"c{i}",
        )
        if p["block"] and i == 0:
            inst.add_blocking("gc@m0", t_load + dur / 4, t_load + dur / 2)
    trace.record(
        "/Execute/Superstep/Barrier", compute_end, t_end, parent=ss, instance_id="b0"
    )

    rtrace = ResourceTrace()
    mid = t_end / 2
    rtrace.add_measurement("cpu@m0", 0.0, mid, p["values"][0])
    rtrace.add_measurement("cpu@m0", mid, t_end, p["values"][1])

    g10 = Grade10(model, resources, rules, slice_duration=p["slice_duration"])
    return g10.characterize(trace, rtrace)


def _export(profile) -> str:
    return json.dumps(profile_to_dict(profile, series=True), sort_keys=True)


class TestConversionRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(profile_inputs)
    def test_from_to_profile_is_lossless(self, p):
        profile = build_profile(p)
        cp = ColumnarProfile.from_profile(profile)
        assert _export(cp.to_profile()) == _export(profile)

    @settings(max_examples=25, deadline=None)
    @given(profile_inputs)
    def test_save_open_round_trip_and_byte_stability(self, p):
        cp = ColumnarProfile.from_profile(build_profile(p))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.g10col"
            cp.save(path)
            first = path.read_bytes()
            for mmap in (True, False):
                reopened = ColumnarProfile.open(path, mmap=mmap)
                assert reopened.equals(cp)
                assert _export(reopened.to_profile()) == _export(cp.to_profile())
            # Re-saving what was read back reproduces the file exactly.
            again = Path(tmp) / "q.g10col"
            ColumnarProfile.open(path).save(again)
            assert again.read_bytes() == first

    def test_to_profile_requires_execution_model(self):
        profile = build_profile(
            {
                "load_dur": 1.0, "compute_durs": [1.0], "barrier_dur": 0.5,
                "capacity": 4.0, "values": (2.0, 1.0), "block": True,
                "slice_duration": 0.5,
            }
        )
        cp = ColumnarProfile.from_profile(profile)
        cp.meta["execution_model"] = None
        with pytest.raises(ValueError, match="execution model"):
            cp.to_profile()

    def test_files_with_a_stored_profile_backend_still_open(self, tmp_path):
        """Files written while the parameters named a pipeline backend open
        unchanged: the stored key is ignored."""
        profile = build_profile(
            {
                "load_dur": 1.0, "compute_durs": [1.0, 0.5], "barrier_dur": 0.5,
                "capacity": 4.0, "values": (2.0, 1.0), "block": True,
                "slice_duration": 0.25,
            }
        )
        params = dict(profile.analysis_params, profile_backend="columnar")
        path = tmp_path / "old.g10col"
        ColumnarProfile.from_profile(profile, analysis_params=params).save(path)
        with ColumnarProfile.open(path) as stored:
            assert stored.meta["params"]["profile_backend"] == "columnar"
            assert _export(stored.to_profile()) == _export(profile)


# ---------------------------------------------------------------------------
# TimeGrid: batched lookups agree with the scalar path everywhere.
# ---------------------------------------------------------------------------

#: Grid origins and widths chosen to stress both exactly representable
#: (dyadic) and non-representable arithmetic.
_origins = st.sampled_from([0.0, 0.1, 1.0 / 3.0, 2.5, -1.25])
_widths = st.sampled_from([0.125, 0.25, 0.01, 0.1, 1.0 / 3.0, 0.0003])
_jitters = st.sampled_from([0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8])

_timestamps = st.tuples(
    st.integers(-2, 60),
    st.sampled_from([0.0, 0.25, 0.5, 1.0 - 1e-12]),
    _jitters,
)


class TestSliceRangeBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        _origins, _widths,
        st.lists(st.tuples(_timestamps, _timestamps), min_size=1, max_size=8),
    )
    def test_batch_matches_scalar(self, t0, sd, pairs):
        grid = TimeGrid(t0, sd, 40)

        def ts(spec):
            k, frac, jitter = spec
            return t0 + (k + frac) * sd + jitter * sd

        starts, ends = [], []
        for a, b in pairs:
            x, y = sorted((ts(a), ts(b)))
            starts.append(x)
            ends.append(y)
        lo, hi = grid.slice_range_batch(np.asarray(starts), np.asarray(ends))
        assert lo.dtype == np.int64 and hi.dtype == np.int64
        for i, (s, e) in enumerate(zip(starts, ends)):
            assert (lo[i], hi[i]) == grid.slice_range(s, e), (
                f"batch disagrees with scalar at t0={t0} sd={sd} [{s}, {e})"
            )

    def test_batch_rejects_inverted_intervals(self):
        grid = TimeGrid(0.0, 0.5, 10)
        with pytest.raises(ValueError):
            grid.slice_range_batch(np.array([1.0]), np.array([0.5]))

    def test_batch_empty_input(self):
        grid = TimeGrid(0.0, 0.5, 10)
        lo, hi = grid.slice_range_batch(np.array([]), np.array([]))
        assert lo.size == 0 and hi.size == 0


# ---------------------------------------------------------------------------
# On-disk format failure modes: every corruption is a typed error.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    profile = build_profile(
        {
            "load_dur": 1.0, "compute_durs": [1.5, 0.75], "barrier_dur": 0.5,
            "capacity": 4.0, "values": (2.0, 1.0), "block": True,
            "slice_duration": 0.5,
        }
    )
    path = tmp_path_factory.mktemp("columnar") / "p.g10col"
    ColumnarProfile.from_profile(profile).save(path)
    return path


class TestStorageFailureModes:
    def test_wrong_magic_rejected(self, saved, tmp_path):
        data = bytearray(saved.read_bytes())
        data[:8] = b"NOTMAGIC"
        bad = tmp_path / "bad-magic"
        bad.write_bytes(bytes(data))
        with pytest.raises(ColumnarFormatError):
            open_columnar(bad)

    def test_truncated_data_rejected(self, saved, tmp_path):
        data = saved.read_bytes()
        bad = tmp_path / "truncated"
        bad.write_bytes(data[: len(data) - 16])
        with pytest.raises(ColumnarFormatError):
            open_columnar(bad, mmap=False)

    def test_truncated_header_rejected(self, saved, tmp_path):
        bad = tmp_path / "short"
        bad.write_bytes(saved.read_bytes()[:12])
        with pytest.raises(ColumnarFormatError):
            open_columnar(bad)

    def test_unknown_column_rejected(self, saved, tmp_path):
        data = saved.read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16 : 16 + header_len].decode())
        header["columns"]["bogus_column"] = dict(
            next(iter(header["columns"].values()))
        )
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "unknown-col"
        bad.write_bytes(
            COLUMNAR_MAGIC + len(blob).to_bytes(8, "little") + blob
            + data[16 + header_len :]
        )
        with pytest.raises(ColumnarFormatError):
            open_columnar(bad)

    def test_missing_column_rejected(self, saved, tmp_path):
        data = saved.read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16 : 16 + header_len].decode())
        victim = next(iter(COLUMN_SPECS))
        del header["columns"][victim]
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "missing-col"
        bad.write_bytes(
            COLUMNAR_MAGIC + len(blob).to_bytes(8, "little") + blob
            + data[16 + header_len :]
        )
        with pytest.raises(ColumnarFormatError):
            open_columnar(bad)

    def test_equals_detects_column_mutation(self, saved):
        a = ColumnarProfile.open(saved, mmap=False)
        b = ColumnarProfile.open(saved, mmap=False)
        assert a.equals(b)
        b.columns["meas_value"] = b.columns["meas_value"] + 1.0
        assert not a.equals(b)


# ---------------------------------------------------------------------------
# Durability and descriptor lifetime of the on-disk layer.
# ---------------------------------------------------------------------------


def _open_fd_count() -> int:
    import os

    return len(os.listdir("/proc/self/fd"))


class TestDurabilityAndFdLifetime:
    def test_save_fsyncs_file_and_parent_directory(self, saved, tmp_path, monkeypatch):
        import os
        import stat

        import repro.core.columnar.storage as storage

        file_syncs = []
        dir_syncs = []
        real_fsync = os.fsync

        def fsync_spy(fd):
            if stat.S_ISREG(os.fstat(fd).st_mode):
                file_syncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(storage.os, "fsync", fsync_spy)
        monkeypatch.setattr(storage, "fsync_dir", dir_syncs.append)
        cp = ColumnarProfile.open(saved, mmap=False)
        cp.save(tmp_path / "copy.g10col")
        assert len(file_syncs) == 1  # payload flushed before the rename
        assert dir_syncs == [tmp_path]  # rename flushed after it

    @pytest.mark.skipif(
        not Path("/proc/self/fd").exists(), reason="needs /proc fd accounting"
    )
    def test_mmap_open_holds_one_fd_and_close_releases_it(self, saved):
        baseline = _open_fd_count()
        for _ in range(20):
            cp = ColumnarProfile.open(saved, mmap=True)
            assert _open_fd_count() == baseline + 1  # one mapping, not one per column
            # Touch several columns: all views share the single mapping.
            for name in ("meas_value", "inst_t_start", "dep_indptr"):
                np.asarray(cp.columns[name]).sum()
            cp.close()
            assert _open_fd_count() == baseline
        assert _open_fd_count() == baseline

    @pytest.mark.skipif(
        not Path("/proc/self/fd").exists(), reason="needs /proc fd accounting"
    )
    def test_context_manager_releases_the_mapping(self, saved):
        baseline = _open_fd_count()
        with ColumnarProfile.open(saved, mmap=True) as cp:
            assert cp.n_instances > 0
            assert _open_fd_count() == baseline + 1
        assert _open_fd_count() == baseline

    def test_close_is_idempotent_and_safe_for_in_memory_profiles(self, saved):
        cp = ColumnarProfile.open(saved, mmap=True)
        cp.close()
        cp.close()  # second close is a no-op
        eager = ColumnarProfile.open(saved, mmap=False)
        eager.close()  # no mapping to release
        assert eager.n_instances > 0  # eager columns survive close

    def test_mmap_and_eager_opens_agree(self, saved):
        with ColumnarProfile.open(saved, mmap=True) as mapped:
            eager = ColumnarProfile.open(saved, mmap=False)
            assert eager.equals(mapped)

    def test_truncated_data_rejected_under_mmap_without_leaking(self, saved, tmp_path):
        data = saved.read_bytes()
        bad = tmp_path / "truncated-mmap"
        bad.write_bytes(data[: len(data) - 16])
        baseline = _open_fd_count() if Path("/proc/self/fd").exists() else None
        with pytest.raises(ColumnarFormatError):
            open_columnar(bad, mmap=True)
        if baseline is not None:
            assert _open_fd_count() == baseline
