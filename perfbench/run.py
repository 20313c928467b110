#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload large-trace --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs with the stage wrappers (pipeline workloads) or reads
every job's trace (service) and prints every per-layer metric.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("large-trace", "paper-grid", "service-mixed")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds the analysis process may overrun ``--seconds`` before it is killed.
WORKER_GRACE_S = 120.0


class SetupError(RuntimeError):
    """The program failed while building the workload's inputs."""


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def load_program():
    """Import ``repro`` from this checkout's ``src/`` and the benchmark's modules."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program to measure: {src / 'repro'} is missing")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not from {src}")


def metric_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units to print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# Pipeline workloads
# ---------------------------------------------------------------------- #


def reference_for(workload: str, seed: int) -> dict | None:
    """The stored output digests for ``seed``, or ``None`` when none is stored."""
    path = ROOT / "perfbench" / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["seeds"].get(str(seed))


def check_pipeline(result: dict, reference: dict | None) -> list[str]:
    """Failed checks, one line per failed operation."""
    problems = []
    ops = result["untraced"] + result.get("traced", [])
    first: dict[str, str] = {}
    for op in ops:
        label = f"op {op['op']} ({op['archive']})"
        if op["invariant_violations"]:
            problems.append(f"{label}: invariants violated: {op['invariant_violations'][:3]}")
            continue
        expected = first.setdefault(op["archive"], op["digest"])
        if op["digest"] != expected:
            problems.append(f"{label}: outputs differ from the run's first operation")
            continue
        if reference is not None:
            ref = reference.get(op["archive"])
            if ref is None or ref["digest"] != op["digest"]:
                problems.append(
                    f"{label}: outputs differ from the stored reference "
                    f"(got {op['bottlenecks']} bottlenecks, {op['issues']} issues, "
                    f"{op['outliers']} outliers; reference {ref})"
                )
    return problems


def run_pipeline(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from perfbench import pipeline
    from perfbench.stats import median, summarize

    setup_times = []
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        t0 = time.perf_counter()
        try:
            archives = pipeline.setup_archives(workload, seed, directory)
        except ValueError as exc:
            raise SetupError(f"set-up failed in the program: {exc!r}") from exc
        setup_times.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    listing = work / "archives.json"
    listing.write_text(json.dumps([str(a) for a in archives]))
    out = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [
            sys.executable, "-m", "perfbench.pipeline",
            "--archives", str(listing), "--seconds", str(seconds),
            "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out),
        ],
        cwd=ROOT,
        env=env,
        timeout=seconds + WORKER_GRACE_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"analysis process exited {completed.returncode}")
    result = json.loads(out.read_text())
    reference = reference_for(workload, seed)
    problems = check_pipeline(result, reference)
    notes = []
    if reference is None:
        notes.append(
            f"no stored reference for seed {seed}: outputs checked for invariants "
            "and agreement between operations only"
        )
    ops = result["untraced"] + result.get("traced", [])
    seconds_ops = [op["seconds"] for op in result["untraced"]]
    table = {
        "characterize_s": summarize(seconds_ops),
        "characterize_pass_s": summarize(pipeline.pass_means(result["untraced"])),
        "profiles_per_s": len(seconds_ops) / sum(seconds_ops),
        "error_ratio": len(problems) / len(ops),
        "setup_runs_s": setup_times,
    }
    metrics = pipeline.end_to_end(result, median(setup_times))
    layers = None
    if trace:
        layers = pipeline.layer_metrics(result)
        write_trace(workload, [
            {"ph": "X", "name": s["name"], "ts": s["start"] * 1e6,
             "dur": (s["end"] - s["start"]) * 1e6, "pid": 1, "tid": s["op"],
             "args": {"parent": s["parent"], "op": s["op"]}}
            for s in result["spans"]
        ])
    return {
        "attempted": len(ops),
        "problems": problems,
        "notes": notes,
        "metrics": metrics,
        "layers": layers,
        "table": table,
    }


# ---------------------------------------------------------------------- #
# Service workload
# ---------------------------------------------------------------------- #


def service_upsample_error(work: Path) -> float:
    """Upsampling error of the profile the service's batch jobs compute.

    The job's run is simulated and archived again here and characterized
    with the same defaults the service's executor uses.
    """
    from perfbench import pipeline
    from repro.workloads.archive import characterize_archive, save_run
    from repro.workloads.runner import WorkloadSpec, run_workload

    from perfbench.service import BATCH_SPEC

    (system,), ((dataset, algorithm),) = BATCH_SPEC["systems"], BATCH_SPEC["grid"]
    spec = WorkloadSpec(system, dataset, algorithm, preset=BATCH_SPEC["preset"])
    archive = save_run(run_workload(spec).system_run, work / "job-archive")
    return pipeline.upsample_error_pct(characterize_archive(archive), archive)


def run_service(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from perfbench import service
    from perfbench.stats import median

    setup_times = []
    server = None
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        started = service.start_warm_server(ROOT, work / f"server{i}")
        setup_times.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            started.stop()
        else:
            server = started
    try:
        observed = service.drive(server, seed, seconds, trace)
    finally:
        server.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    problems = service.failures(observed)
    table = service.report(observed)
    attempted = service.attempted(observed)
    table["error_ratio"] = len(problems) / attempted
    table["setup_runs_s"] = setup_times
    metrics = service.end_to_end(
        observed, median(setup_times), peak_rss_mb, service_upsample_error(work)
    )
    layers = service.layer_metrics(observed) if trace else None
    if trace:
        write_trace("service-mixed", [
            {**e, "pid": index}
            for index, doc in enumerate(observed["traces"].values())
            for e in doc["traceEvents"]
        ])
    return {
        "attempted": attempted,
        "problems": problems,
        "notes": [],
        "metrics": metrics,
        "layers": layers,
        "table": table,
    }


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #


def write_trace(workload: str, events: list[dict]) -> None:
    """Keep the traced run's spans as a Chrome trace under ``.perfbench-out/``."""
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"{workload}.trace.json").write_text(json.dumps({"traceEvents": events}))


def select_metrics(spec: list[dict], values: dict[str, float], own: set[str]) -> dict:
    """``{name: {value, unit}}`` for every metric of ``spec``.

    A metric in ``own`` (the layers this workload runs) must have been
    measured; the others are layers the workload never enters and read 0.
    """
    out = {}
    for entry in spec:
        name = entry["name"]
        if name in values:
            value = float(values[name])
        elif name in own:
            raise KeyError(f"metric {name} was not measured")
        else:
            value = 0.0
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def print_table(workload: str, outcome: dict) -> None:
    from perfbench.stats import format_summary

    print(f"# {workload}")
    for key, value in outcome["table"].items():
        if isinstance(value, dict) and "n" in value and ("p50" in value or value["n"] == 0):
            print(f"  {key:<34} {format_summary(value)}")
        elif isinstance(value, dict):
            print(f"  {key:<34} " + " ".join(f"{k}={v:.4g}" for k, v in value.items()))
        elif isinstance(value, list):
            print(f"  {key:<34} " + " ".join(f"{v:.4f}" for v in value))
        else:
            print(f"  {key:<34} {value:.6g}")
    for note in outcome["notes"]:
        print(f"  note: {note}")
    for problem in outcome["problems"][:20]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    try:
        load_program()
        spec = metric_spec()
    except (ImportError, OSError, ValueError) as exc:
        return fail(str(exc))

    from perfbench import pipeline, service
    from perfbench.spans import WrapperError

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service-mixed":
            outcome = run_service(args.seed, args.seconds, bool(args.trace), work)
            own_layers = set(service.LAYER_METRICS) | set(service.stage_metric_names())
        else:
            outcome = run_pipeline(args.workload, args.seed, args.seconds, bool(args.trace), work)
            own_layers = (
                set(pipeline.LAYER_SPANS) | set(pipeline.LAYER_COUNTS)
                | set(pipeline.TRACE_METRICS)
            )
    except SetupError as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}", 1)
    except (WrapperError, RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        return fail(f"{args.workload}: {exc}", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_table(args.workload, outcome)
    if args.trace:
        metrics = select_metrics(spec["per_layer"], outcome["layers"], own_layers)
    else:
        everything = {e["name"] for e in spec["end_to_end"]}
        metrics = select_metrics(spec["end_to_end"], outcome["metrics"], everything)
    failed = len(outcome["problems"])
    unmeasured = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if unmeasured:
        return fail(f"{failed} failed operations left {', '.join(unmeasured)} unmeasured", 1)
    line = {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
