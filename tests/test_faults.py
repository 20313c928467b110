"""Tests for the fault-injection layer (:mod:`repro.faults`).

Covers the structural behavior of every shipped :class:`FaultSpec`, the
graceful-degradation guarantee (perturbed archives analyze cleanly, raise
a typed error, or surface invariant violations — never an unhandled
exception), the fault grid, and the ``faults`` CLI.
"""

import json
import math

import pytest

from repro.core.invariants import INVARIANTS
from repro.faults import (
    FAULTS,
    PROVENANCE_FILE,
    ClockSkew,
    DropPhaseBoundaries,
    DropSamples,
    DuplicateSamples,
    FaultError,
    ReorderEvents,
    TruncateLog,
    ZeroResource,
    apply_faults,
    fault_at,
    fault_names,
    parse_fault,
    read_artifacts,
    run_fault_grid,
    write_artifacts,
)
from repro.workloads.archive import (
    ArchiveCorruptError,
    ArchiveError,
    ArchiveNotFoundError,
    characterize_archive,
)

from .conftest import ARCHIVE_FILES, archive_bytes


@pytest.fixture()
def artifacts(tiny_archive):
    """A fresh in-memory copy of the tiny archive for each test."""
    return read_artifacts(tiny_archive)


def make_rng(n=0):
    import random

    return random.Random(n)


class TestArtifactsRoundTrip:
    def test_unperturbed_round_trip_is_byte_identical(self, tiny_archive, tmp_path):
        """write(read(archive)) reproduces every file exactly."""
        write_artifacts(read_artifacts(tiny_archive), tmp_path / "copy")
        assert archive_bytes(tmp_path / "copy") == archive_bytes(tiny_archive)

    def test_missing_archive_raises_typed(self, tmp_path):
        with pytest.raises(ArchiveNotFoundError):
            read_artifacts(tmp_path / "nope")

    def test_incomplete_archive_raises_typed(self, tiny_archive, tmp_path):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "events.jsonl").write_bytes((tiny_archive / "events.jsonl").read_bytes())
        with pytest.raises(ArchiveNotFoundError) as exc_info:
            read_artifacts(partial)
        assert "monitoring.csv" in str(exc_info.value)

    def test_machines_and_resources_enumerated(self, artifacts):
        assert artifacts.machines == ["m0", "m1", "m2", "m3"]
        resources = artifacts.resources()
        assert any(r.startswith("cpu@") for r in resources)
        assert artifacts.instance_machines()


class TestDropSamples:
    def test_drops_expected_share(self, artifacts):
        before = len(artifacts.monitoring)
        DropSamples(fraction=0.5).apply(artifacts, make_rng())
        after = len(artifacts.monitoring)
        assert after < before
        assert abs(after / before - 0.5) < 0.2

    def test_pattern_restricts_losses(self, artifacts):
        others_before = [r for r in artifacts.monitoring if not r[0].startswith("cpu@")]
        DropSamples(fraction=1.0, pattern="cpu@*").apply(artifacts, make_rng())
        assert not any(r[0].startswith("cpu@") for r in artifacts.monitoring)
        assert [r for r in artifacts.monitoring if not r[0].startswith("cpu@")] == others_before

    def test_zero_fraction_is_identity(self, artifacts):
        before = [list(r) for r in artifacts.monitoring]
        DropSamples(fraction=0.0).apply(artifacts, make_rng())
        assert artifacts.monitoring == before

    def test_bad_fraction_rejected(self):
        with pytest.raises(FaultError):
            DropSamples(fraction=1.5)


class TestDuplicateSamples:
    def test_duplicates_are_adjacent_copies(self, artifacts):
        before = [list(r) for r in artifacts.monitoring]
        DuplicateSamples(fraction=0.5).apply(artifacts, make_rng())
        assert len(artifacts.monitoring) > len(before)
        # Removing adjacent duplicates recovers the original sequence.
        deduped = [
            row
            for i, row in enumerate(artifacts.monitoring)
            if i == 0 or row != artifacts.monitoring[i - 1]
        ]
        assert deduped == before

    def test_bad_fraction_rejected(self):
        with pytest.raises(FaultError):
            DuplicateSamples(fraction=-0.1)


class TestTruncateLog:
    def test_keeps_exact_prefix(self, artifacts):
        before = [dict(ev) for ev in artifacts.events]
        TruncateLog(fraction=0.25).apply(artifacts, make_rng())
        keep = round(len(before) * 0.75)
        assert artifacts.events == before[:keep]

    def test_full_truncation_empties_the_log(self, artifacts):
        TruncateLog(fraction=1.0).apply(artifacts, make_rng())
        assert artifacts.events == []


class TestReorderEvents:
    def test_permutes_within_aligned_windows(self, artifacts):
        window = 8
        before = [json.dumps(ev, sort_keys=True) for ev in artifacts.events]
        ReorderEvents(window=window).apply(artifacts, make_rng())
        after = [json.dumps(ev, sort_keys=True) for ev in artifacts.events]
        assert after != before  # the shuffle actually moved something
        for lo in range(0, len(before), window):
            assert sorted(after[lo : lo + window]) == sorted(before[lo : lo + window])

    def test_window_one_is_identity(self, artifacts):
        before = [dict(ev) for ev in artifacts.events]
        ReorderEvents(window=1).apply(artifacts, make_rng())
        assert artifacts.events == before

    def test_bad_window_rejected(self):
        with pytest.raises(FaultError):
            ReorderEvents(window=0)


class TestClockSkew:
    def test_shifts_only_affected_machines(self, artifacts):
        delta = 0.75
        owner = artifacts.instance_machines()
        before_events = [dict(ev) for ev in artifacts.events]
        before_rows = [list(r) for r in artifacts.monitoring]
        ClockSkew(delta=delta, machines=("m0",)).apply(artifacts, make_rng())
        shifted = 0
        for old, new in zip(before_events, artifacts.events):
            machine = old.get("machine") or owner.get(old.get("id", ""))
            if machine == "m0":
                if "t" in old:
                    assert new["t"] == old["t"] + delta
                    shifted += 1
            else:
                assert new == old
        assert shifted > 0
        for old, new in zip(before_rows, artifacts.monitoring):
            if old[0].endswith("@m0"):
                assert new[1] == old[1] + delta and new[2] == old[2] + delta
            else:
                assert new == old

    def test_unknown_machine_rejected(self, artifacts):
        with pytest.raises(FaultError) as exc_info:
            ClockSkew(delta=0.5, machines=("mars",)).apply(artifacts, make_rng())
        assert "mars" in str(exc_info.value)

    def test_default_picks_half_the_cluster(self, artifacts):
        before = [dict(ev) for ev in artifacts.events]
        ClockSkew(delta=0.5).apply(artifacts, make_rng())
        assert artifacts.events != before

    def test_zero_delta_is_identity(self, artifacts):
        before = [dict(ev) for ev in artifacts.events]
        ClockSkew(delta=0.0).apply(artifacts, make_rng())
        assert artifacts.events == before


class TestZeroResource:
    def test_flatlines_matching_streams(self, artifacts):
        ZeroResource(fraction=1.0, pattern="cpu@*").apply(artifacts, make_rng())
        cpu = [r for r in artifacts.monitoring if r[0].startswith("cpu@")]
        rest = [r for r in artifacts.monitoring if not r[0].startswith("cpu@")]
        assert cpu and all(r[3] == 0.0 for r in cpu)
        assert any(r[3] != 0.0 for r in rest)

    def test_fraction_selects_stream_count(self, artifacts):
        n_streams = len(artifacts.resources())
        ZeroResource(fraction=0.5).apply(artifacts, make_rng())
        zeroed = {r[0] for r in artifacts.monitoring} - {
            r[0] for r in artifacts.monitoring if r[3] != 0.0
        }
        assert len(zeroed) == math.ceil(n_streams * 0.5)


class TestDropPhaseBoundaries:
    @pytest.mark.parametrize("kind,survivor", [("start", "phase_end"), ("end", "phase_start")])
    def test_kind_limits_the_damage(self, artifacts, kind, survivor):
        before = sum(1 for ev in artifacts.events if ev["event"] == survivor)
        DropPhaseBoundaries(fraction=1.0, kind=kind).apply(artifacts, make_rng())
        assert sum(1 for ev in artifacts.events if ev["event"] == survivor) == before
        dropped = "phase_start" if kind == "start" else "phase_end"
        assert not any(ev["event"] == dropped for ev in artifacts.events)

    def test_bad_kind_rejected(self):
        with pytest.raises(FaultError):
            DropPhaseBoundaries(kind="sideways")


class TestFaultConstruction:
    def test_registry_is_complete(self):
        assert fault_names() == (
            "drop_samples",
            "duplicate_samples",
            "truncate_log",
            "reorder_events",
            "clock_skew",
            "zero_resource",
            "drop_phase_boundaries",
        )
        assert all(FAULTS[name].name == name for name in FAULTS)

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_at_covers_every_fault(self, name):
        spec = fault_at(name, 0.5)
        assert spec.name == name
        assert spec.describe().startswith(f"{name}(")

    def test_fault_at_rejects_unknown_and_out_of_range(self):
        with pytest.raises(FaultError):
            fault_at("bitrot", 0.5)
        with pytest.raises(FaultError):
            fault_at("drop_samples", 1.5)

    def test_parse_fault_accepts_hyphens_and_severity(self):
        assert parse_fault("clock-skew:0.4") == ClockSkew(delta=0.4)
        assert parse_fault("drop_samples") == DropSamples(fraction=0.3)
        with pytest.raises(FaultError):
            parse_fault("drop_samples:much")


class TestApplyFaults:
    def test_source_left_untouched(self, tiny_archive, tmp_path):
        before = archive_bytes(tiny_archive)
        apply_faults(tiny_archive, tmp_path / "out", [DropSamples(fraction=0.5)], seed=1)
        assert archive_bytes(tiny_archive) == before

    def test_in_place_perturbation_refused(self, tiny_archive):
        with pytest.raises(FaultError):
            apply_faults(tiny_archive, tiny_archive, [DropSamples(fraction=0.5)])

    def test_provenance_records_the_faults(self, tiny_archive, tmp_path):
        faults = [DropSamples(fraction=0.2), ClockSkew(delta=0.5, machines=("m1",))]
        dest = apply_faults(tiny_archive, tmp_path / "out", faults, seed=42)
        record = json.loads((dest / PROVENANCE_FILE).read_text())
        assert record["seed"] == 42
        assert [f["name"] for f in record["faults"]] == ["drop_samples", "clock_skew"]
        assert record["faults"][0]["params"]["fraction"] == 0.2

    def test_faults_compose(self, tiny_archive, tmp_path):
        dest = apply_faults(
            tiny_archive,
            tmp_path / "out",
            [DropSamples(fraction=0.3), TruncateLog(fraction=0.1)],
            seed=0,
        )
        src = read_artifacts(tiny_archive)
        out = read_artifacts(dest)
        assert len(out.monitoring) < len(src.monitoring)
        assert len(out.events) < len(src.events)


class TestGracefulDegradation:
    """The acceptance criterion: every fault degrades gracefully.

    A perturbed archive must analyze cleanly, be refused with a typed
    :class:`ArchiveError`, or produce a profile whose invariant checker
    reports typed violations — never an unhandled exception and never a
    silent non-finite profile.
    """

    @pytest.mark.parametrize("severity", [0.4, 1.0])
    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_every_fault_degrades_gracefully(self, tiny_archive, tmp_path, name, severity):
        dest = tmp_path / f"{name}-{severity:g}"
        apply_faults(tiny_archive, dest, [fault_at(name, severity)], seed=11)
        try:
            profile = characterize_archive(dest)
        except ArchiveError:
            return  # a typed refusal is graceful degradation
        report = profile.check_invariants()
        assert all(v.invariant in INVARIANTS for v in report)
        assert math.isfinite(profile.makespan) and profile.makespan > 0

    def test_zero_makespan_archive_is_refused(self, tiny_archive, tmp_path):
        """A near-total truncation leaves only zero-length ``/Load`` phases.

        The profile of such a log has makespan 0 and nothing to analyze;
        it is refused as corrupt instead of passing the invariant check.
        """
        dest = tmp_path / "truncated"
        apply_faults(tiny_archive, dest, [fault_at("truncate_log", 0.9921875)], seed=0)
        with pytest.raises(ArchiveCorruptError, match="makespan 0"):
            characterize_archive(dest)

    def test_fault_grid_classifies_outcomes(self, tiny_archive, tmp_path):
        cells = run_fault_grid(
            tiny_archive,
            faults=("drop_samples", "truncate_log", "clock_skew"),
            severities=(0.3, 1.0),
            seed=0,
            jobs=1,
            work_dir=tmp_path / "grid",
        )
        by_cell = {(c.fault, c.severity): c for c in cells}
        assert len(by_cell) == 6
        assert by_cell[("drop_samples", 0.3)].outcome == "ok"
        assert by_cell[("truncate_log", 1.0)].outcome == "error"
        assert "ArchiveCorruptError" in by_cell[("truncate_log", 1.0)].detail
        skewed = by_cell[("clock_skew", 1.0)]
        assert skewed.outcome == "violations"
        assert "nesting" in skewed.invariants
        assert skewed.n_violations > 0

    def test_fault_grid_rejects_unknown_fault(self, tiny_archive):
        with pytest.raises(FaultError):
            run_fault_grid(tiny_archive, faults=("bitrot",))


class TestFaultsCLI:
    def test_list_prints_the_taxonomy(self, capsys):
        from repro.cli import main

        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for name in FAULTS:
            assert name in out

    def test_perturb_writes_archive(self, tiny_archive, tmp_path, capsys):
        from repro.cli import main

        dest = tmp_path / "perturbed"
        code = main(
            ["faults", str(tiny_archive), str(dest), "--fault", "drop_samples:0.3", "--seed", "7"]
        )
        assert code == 0
        assert (dest / "events.jsonl").is_file()
        assert (dest / PROVENANCE_FILE).is_file()
        assert "drop_samples(fraction=0.3" in capsys.readouterr().err

    def test_missing_arguments_exit_2(self, tiny_archive, capsys):
        from repro.cli import main

        assert main(["faults"]) == 2
        assert main(["faults", str(tiny_archive)]) == 2
        capsys.readouterr()

    def test_unknown_fault_exits_2(self, tiny_archive, tmp_path, capsys):
        from repro.cli import main

        code = main(["faults", str(tiny_archive), str(tmp_path / "x"), "--fault", "bitrot"])
        assert code == 2
        assert "unknown fault" in capsys.readouterr().err

    def test_grid_renders_table(self, tiny_archive, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "faults", str(tiny_archive),
                "--grid", "--severities", "0.3", "--jobs", "1",
                "--work-dir", str(tmp_path / "grid"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fault grid" in out
        for name in FAULTS:
            assert name in out

    def test_analyze_check_invariants_clean_exit_0(self, tiny_archive, capsys):
        from repro.cli import main

        assert main(["analyze", str(tiny_archive), "--check-invariants"]) == 0
        assert "invariant check: OK" in capsys.readouterr().out

    def test_analyze_check_invariants_violations_exit_3(self, tiny_archive, tmp_path, capsys):
        from repro.cli import main

        dest = tmp_path / "skewed"
        apply_faults(tiny_archive, dest, [ClockSkew(delta=1.0, machines=("m0",))], seed=0)
        code = main(["analyze", str(dest), "--check-invariants"])
        assert code == 3
        assert "[nesting]" in capsys.readouterr().out
