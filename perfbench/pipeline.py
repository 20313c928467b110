"""The two pipeline workloads: ``large-trace`` and ``paper-grid``.

Set-up simulates the workload's runs and archives them with
:func:`repro.workloads.archive.save_run`.  The timed operations run in a
fresh process (``python3 -m perfbench.pipeline``) that only loads
archives, so its peak RSS is the analysis alone.  Each operation is one
:func:`repro.workloads.archive.characterize_archive` call with the
program's defaults; its output is checked outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any

from . import spans
from .stats import median

#: The large trace: giraph/graph500/pr at the ``full`` preset on 16 × 16.
LARGE_MACHINES = 16
LARGE_THREADS = 16
GRID_SYSTEMS = ("giraph", "powergraph", "sparklike")
#: Passes a run makes even when the time is up (one traced when tracing).
MIN_PASSES = 2


# ---------------------------------------------------------------------- #
# Set-up (runs in the benchmark process)
# ---------------------------------------------------------------------- #


def setup_archives(workload: str, seed: int, directory: Path) -> list[Path]:
    """Simulate the workload's runs and archive each under ``directory``."""
    from repro.systems import GiraphConfig
    from repro.workloads.archive import save_run
    from repro.workloads.datasets import get_dataset
    from repro.workloads.experiments import EVALUATION_GRID
    from repro.workloads.runner import WorkloadSpec, run_workload

    if workload == "large-trace":
        spec = WorkloadSpec("giraph", "graph500", "pr", preset="full", seed=seed)
        config = GiraphConfig(n_machines=LARGE_MACHINES, threads_per_machine=LARGE_THREADS)
        run = run_workload(spec, giraph_config=config)
        label = f"giraph-graph500-pr-{LARGE_MACHINES}x{LARGE_THREADS}"
        return [save_run(run.system_run, directory / label)]
    if workload == "paper-grid":
        graphs = {ds: get_dataset(ds).graph("small") for ds in ("graph500", "datagen")}
        archives = []
        for system in GRID_SYSTEMS:
            for dataset, algorithm in EVALUATION_GRID:
                spec = WorkloadSpec(system, dataset, algorithm, preset="small", seed=seed)
                run = run_workload(spec, graph=graphs[dataset])
                label = f"{system}-{dataset}-{algorithm}"
                archives.append(save_run(run.system_run, directory / label))
        return archives
    raise ValueError(f"not a pipeline workload: {workload}")


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #


def _num(x: float) -> float:
    """Round to 10 significant digits so digests ignore last-bit noise."""
    return float(f"{float(x):.10g}")


def output_summary(profile: Any) -> dict[str, Any]:
    """Canonical bottleneck report, issue list and outlier set of a profile."""
    bottlenecks = sorted(
        [b.kind.value, b.instance_id, b.resource, _num(b.duration)]
        for b in profile.bottlenecks.bottlenecks
    )
    issues = sorted(
        [
            i.kind,
            i.subject,
            sorted(i.affected_instances),
            _num(i.baseline_makespan),
            _num(i.optimistic_makespan),
        ]
        for i in profile.issues.issues
    )
    outliers = sorted(
        [g.phase_path, g.parent_id or "", o.instance_id, _num(o.duration)]
        for g in profile.outliers.groups
        for o in g.outliers
    )
    return {"bottlenecks": bottlenecks, "issues": issues, "outliers": outliers}


def output_digest(profile: Any) -> dict[str, Any]:
    """SHA-256 (first 128 bits) of :func:`output_summary`, plus its counts for messages."""
    summary = output_summary(profile)
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":")).encode()
    return {
        "digest": hashlib.sha256(blob).hexdigest()[:32],
        "bottlenecks": len(summary["bottlenecks"]),
        "issues": len(summary["issues"]),
        "outliers": len(summary["outliers"]),
    }


def upsample_error_pct(profile: Any, archive: Path) -> float:
    """Relative sampling error of the profile's CPU rates against ground truth.

    The profile's per-slice rates are averaged over each ground-truth
    window (``ground_truth.csv``, the simulator's 50 ms samples), then
    compared with :func:`repro.core.upsample.relative_sampling_error`.
    """
    import numpy as np

    from repro.cluster.monitor import read_monitoring_csv
    from repro.core.upsample import relative_sampling_error
    from repro.workloads.archive import GROUND_TRUTH_FILE

    truth = read_monitoring_csv(archive / GROUND_TRUTH_FILE)
    upsampled = profile.upsampled
    grid = upsampled.grid
    edges = grid.t0 + grid.slice_duration * np.arange(grid.n_slices + 1)
    estimated, actual = [], []
    for name in upsampled.resources():
        if not name.startswith("cpu@"):
            continue
        windows = truth.measurements(name)
        if not windows:
            continue
        starts = np.array([m.t_start for m in windows])
        ends = np.array([m.t_end for m in windows])
        cumulative = np.concatenate(
            [[0.0], np.cumsum(upsampled[name].rate * grid.slice_duration)]
        )
        integral = np.interp(ends, edges, cumulative) - np.interp(starts, edges, cumulative)
        estimated.append(integral / (ends - starts))
        actual.append(np.array([m.value for m in windows]))
    if not estimated:
        raise ValueError(f"{archive}: no CPU resource has ground truth")
    return relative_sampling_error(np.concatenate(estimated), np.concatenate(actual))


# ---------------------------------------------------------------------- #
# The analysis process
# ---------------------------------------------------------------------- #


def _passes(archives: list[Path], seed: int):
    """Endless seeded passes over ``archives``, each a fresh permutation."""
    rng = random.Random(seed)
    while True:
        order = list(archives)
        rng.shuffle(order)
        yield order


def timed_phase(
    archives: list[Path],
    seconds: float,
    seed: int,
    errors: dict[str, float],
    recorder: spans.SpanRecorder | None = None,
) -> list[dict[str, Any]]:
    """Characterize whole seeded passes over ``archives`` for ``seconds``.

    Returns one record per operation: pass number, whether it was traced,
    archive label, seconds, output digest and invariant violations.  With a
    ``recorder``, odd passes run with the stage wrappers installed, so a
    drift in the machine's speed hits traced and untraced passes alike.
    ``errors`` collects each archive's upsampling error on first sight.
    """
    import repro.workloads.archive as archive_mod

    records: list[dict[str, Any]] = []
    op = 0
    t_end = time.perf_counter() + seconds
    for number, order in enumerate(_passes(archives, seed)):
        if time.perf_counter() >= t_end and number >= MIN_PASSES:
            break
        traced = recorder is not None and number % 2 == 1
        patch = spans.install(spans.PIPELINE_TARGETS, recorder) if traced else None
        try:
            for archive in order:
                if patch is not None:
                    recorder.begin_op(op)
                    root = recorder.open("characterize")
                t0 = time.perf_counter()
                profile = archive_mod.characterize_archive(archive)
                seconds_op = time.perf_counter() - t0
                if patch is not None:
                    recorder.close(root)
                    patch.check_called(op)
                violations = profile.check_invariants().violations
                if archive.name not in errors:
                    errors[archive.name] = upsample_error_pct(profile, archive)
                records.append(
                    {
                        "op": op,
                        "pass": number,
                        "traced": traced,
                        "archive": archive.name,
                        "seconds": seconds_op,
                        "invariant_violations": [str(v) for v in violations],
                        **output_digest(profile),
                    }
                )
                op += 1
                del profile
        finally:
            if patch is not None:
                patch.uninstall()
    return records


def analyze(archives: list[Path], seconds: float, seed: int, trace: bool) -> dict[str, Any]:
    """The analysis process's work: the timed passes, split by tracing."""
    errors: dict[str, float] = {}
    recorder = spans.SpanRecorder() if trace else None
    records = timed_phase(archives, seconds, seed, errors, recorder)
    result: dict[str, Any] = {
        "untraced": [r for r in records if not r["traced"]],
        "upsample_error_pct": errors,
    }
    if trace:
        result["traced"] = [r for r in records if r["traced"]]
        result["spans"] = [s.to_dict() for s in recorder.spans]
        result["counts"] = {str(op): dict(c) for op, c in recorder.counts.items()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv: list[str] | None = None) -> int:
    """Entry point of the analysis process (``python3 -m perfbench.pipeline``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--archives", required=True, help="JSON list of archive directories")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    args = parser.parse_args(argv)
    archives = [Path(p) for p in json.loads(Path(args.archives).read_text())]
    import repro.workloads.archive  # noqa: F401  (import cost stays out of the timing)

    try:
        result = analyze(archives, args.seconds, args.seed, bool(args.trace))
    except spans.WrapperError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    Path(args.out).write_text(json.dumps(result, allow_nan=False))
    return 0


# ---------------------------------------------------------------------- #
# Metrics (runs in the benchmark process)
# ---------------------------------------------------------------------- #

#: Per-layer metric → the span whose self time it reports.
LAYER_SPANS = {
    "archive.load_s": "archive.load",
    "adapters.parse_s": "adapters.parse",
    "adapters.merge_blocking_s": "adapters.merge_blocking",
    "demand.s": "demand",
    "upsample.s": "upsample",
    "attribute.s": "attribute",
    "bottlenecks.s": "bottlenecks",
    "issues.self_s": "issues",
    "simulation.build_s": "simulation.build",
    "simulation.replay_s": "simulation.replay",
    "outliers.s": "outliers",
    "profile.self_s": "profile",
}
#: Per-layer metric → the count it reports (calls, or a counted result).
LAYER_COUNTS = {
    "rules.rule_for_calls": "rules.rule_for",
    "upsample.cells": "upsample.cells",
    "bottlenecks.found": "bottlenecks.found",
    "simulation.replays": "simulation.replay",
}
#: The traced run's own figures: its operation time, overhead, coverage.
TRACE_METRICS = ("characterize.traced_s", "trace.overhead_ratio", "trace.stage_share")


def layer_metrics(result: dict[str, Any]) -> dict[str, float]:
    """Per-operation means of every stage's self time and count, plus overhead."""
    traced = result["traced"]
    n_ops = len(traced)
    recorded = [spans.Span(**s) for s in result["spans"]]
    self_s = spans.self_times_by_name(recorded)
    calls: dict[str, float] = {}
    for span in recorded:
        calls[span.name] = calls.get(span.name, 0) + 1
    for counts in result["counts"].values():
        for name, n in counts.items():
            calls[name] = calls.get(name, 0) + n
    out = {metric: self_s.get(name, 0.0) / n_ops for metric, name in LAYER_SPANS.items()}
    out.update({metric: calls.get(name, 0) / n_ops for metric, name in LAYER_COUNTS.items()})
    traced_s = median([r["seconds"] for r in traced])
    untraced_s = median([r["seconds"] for r in result["untraced"]])
    stage_s = sum(self_s.get(name, 0.0) for name in LAYER_SPANS.values())
    out.update(zip(TRACE_METRICS, (
        traced_s,
        traced_s / untraced_s - 1.0,
        stage_s / sum(r["seconds"] for r in traced),
    )))
    return out


def pass_means(ops: list[dict[str, Any]]) -> list[float]:
    """Mean seconds per profile of each whole pass over the workload's archives."""
    by_pass: dict[int, list[float]] = {}
    for op in ops:
        by_pass.setdefault(op["pass"], []).append(op["seconds"])
    return [math.fsum(v) / len(v) for v in by_pass.values()]


def end_to_end(result: dict[str, Any], setup_s: float) -> dict[str, float]:
    """The workload's end-to-end metrics, from its untraced operations.

    ``characterize_s`` is the median over passes of the mean time per
    profile: on ``paper-grid`` the single operations mix 24 different
    archives, so their own median jumps between archive sizes.
    """
    errors = list(result["upsample_error_pct"].values())
    return {
        "setup_s": setup_s,
        "characterize_s": median(pass_means(result["untraced"])),
        "peak_rss_mb": result["peak_rss_mb"],
        "upsample_error_pct": math.fsum(errors) / len(errors),
    }


if __name__ == "__main__":
    sys.exit(main())
