"""The ``service-mixed`` workload: an open-loop client against ``repro serve``.

The server runs as ``python3 -m repro serve --no-suite`` with its default
workers and queue and a cache directory of its own.  One client process
uses two threads and at most two connections:

* the submitter sends ``POST /jobs`` on a seeded schedule, a ``light``
  step then a ``heavy`` step, and never waits for jobs to finish;
* the reader polls ``GET /runs`` and ``GET /metrics`` once a second and,
  between polls, follows the SSE stream of one job at a time.

A job's latency runs from its due time to the ``finished_at`` that
``GET /jobs/<id>`` reports; both clocks are ``time.time()`` on this host.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .stats import median, summarize, tree_self_times

__all__ = [
    "Arrival",
    "Server",
    "ServiceError",
    "build_schedule",
    "drive",
    "end_to_end",
    "failures",
    "layer_metrics",
    "report",
    "start_warm_server",
]

#: Load steps: (name, jobs per second, share of the run's seconds).
STEPS = (("light", 1.5, 0.4), ("heavy", 4.0, 0.6))
#: One job in this many carries ``"live": true``.
LIVE_EVERY = 4
#: The batch job every submission is built from.
BATCH_SPEC = {
    "preset": "small",
    "characterize": True,
    "systems": ["giraph"],
    "grid": [["graph500", "pr"]],
}
#: Seconds between dashboard reads.
READ_PERIOD_S = 1.0
#: Per-request socket timeout.
HTTP_TIMEOUT_S = 30.0
#: How long admitted jobs may take to finish after the last submission.
DRAIN_TIMEOUT_S = 60.0
#: Job-trace span names reported one by one; others fold into ``other``.
STAGE_SPANS = (
    "http.request",
    "job.queued-wait",
    "job.execute",
    "cell",
    "generate",
    "parse",
    "demand",
    "upsample",
    "attribute",
    "bottlenecks",
    "issues",
    "simulate.build",
    "simulate",
    "outliers",
    "other",
)
#: Per-layer figures of the server, its queue and the run cache.
LAYER_METRICS = (
    "serve.submit_server_s",
    "serve.submit_skew",
    "serve.runs_read_s",
    "serve.metrics_read_s",
    "serve.runs_bytes",
    "serve.sse_lag_s",
    "jobs.queue_wait_s",
    "jobs.execute_s",
    "jobs.execute_live_s",
    "jobs.backlog_max",
    "jobs.rejected",
    "parallel.trace_cache_hit_ratio",
)


class ServiceError(RuntimeError):
    """The server could not be started, reached or stopped."""


def job_spec(live: bool) -> dict[str, Any]:
    """The job body; every job analyses the same run (the spec's default seed)."""
    return {**BATCH_SPEC, "live": live}


# ---------------------------------------------------------------------- #
# HTTP
# ---------------------------------------------------------------------- #


def request(
    port: int, method: str, path: str, body: Any = None
) -> tuple[int, bytes, float]:
    """One request on a fresh connection: status, body bytes, seconds taken."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    payload = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if body is not None else {}
    t0 = time.perf_counter()
    try:
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, data, time.perf_counter() - t0


def get_json(port: int, path: str) -> Any:
    """``GET path`` and decode its JSON body; raises on a non-200 answer."""
    status, data, _ = request(port, "GET", path)
    if status != 200:
        raise ServiceError(f"GET {path} answered {status}")
    return json.loads(data)


def follow_events(port: int, run_id: str, deadline: float) -> dict[str, Any]:
    """Follow one job's SSE stream from its first event to ``run.finished``.

    Returns the frame ids seen, whether they were gap-free from 1, whether
    the terminal frame arrived, and the wall time it was received.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    ids: list[int] = []
    terminal_at = None
    try:
        conn.request("GET", f"/events?run={run_id}&last_id=0")
        response = conn.getresponse()
        if response.status != 200:
            return {"ids": 0, "gap_free": False, "terminal": False, "terminal_at": None}
        frame: dict[str, str] = {}
        while time.time() < deadline:
            line = response.readline()
            if not line:
                break
            line = line.decode().rstrip("\n")
            if line:
                if not line.startswith(":"):
                    key, _, value = line.partition(": ")
                    frame[key] = value
                continue
            if "id" in frame:
                ids.append(int(frame["id"]))
                if frame.get("event") == "run.finished":
                    terminal_at = time.time()
                    break
            frame = {}
    finally:
        conn.close()
    gap_free = bool(ids) and ids == list(range(1, len(ids) + 1))
    return {
        "ids": len(ids),
        "gap_free": gap_free,
        "terminal": terminal_at is not None,
        "terminal_at": terminal_at,
    }


# ---------------------------------------------------------------------- #
# The server process
# ---------------------------------------------------------------------- #


class Server:
    """A ``repro serve --no-suite`` subprocess with its own cache and log."""

    def __init__(self, root: Path, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        port_file = directory / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(directory / "server.log", "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--no-suite",
                "--port", "0", "--port-file", str(port_file),
                "--cache-dir", str(directory / "cache"), "--quiet",
            ],
            cwd=directory,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 30.0
        while not port_file.is_file() or not port_file.read_text().strip():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise ServiceError(f"server did not start; see {directory / 'server.log'}")
            time.sleep(0.02)
        self.port = int(port_file.read_text())
        status, _, _ = request(self.port, "GET", "/healthz")
        if status != 200:
            self.stop()
            raise ServiceError(f"/healthz answered {status}")

    def wait_done(self, job_id: str, timeout: float) -> dict[str, Any]:
        """Poll ``GET /jobs/<id>`` until the job is terminal."""
        deadline = time.monotonic() + timeout
        while True:
            doc = get_json(self.port, f"/jobs/{job_id}")
            if doc["state"] in ("done", "failed", "cancelled") or time.monotonic() > deadline:
                return doc
            time.sleep(0.02)

    def stop(self) -> None:
        """SIGTERM, then SIGKILL after 30 s; always waits for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def start_warm_server(root: Path, directory: Path) -> Server:
    """Start a server and warm its run cache with one batch and one live job."""
    server = Server(root, directory)
    try:
        for live in (False, True):
            status, data, _ = request(server.port, "POST", "/jobs", job_spec(live))
            if status != 202:
                raise ServiceError(f"warm-up POST /jobs answered {status}")
            doc = server.wait_done(json.loads(data)["id"], timeout=30.0)
            if doc["state"] != "done":
                raise ServiceError(f"warm-up job ended {doc['state']}: {doc.get('error')}")
    except BaseException:
        server.stop()
        raise
    return server


# ---------------------------------------------------------------------- #
# The open-loop client
# ---------------------------------------------------------------------- #


@dataclass
class Arrival:
    """One scheduled submission: offset from the run start, step, live flag."""

    offset: float
    step: str
    live: bool


def build_schedule(seed: int, seconds: float) -> list[Arrival]:
    """Seeded arrivals: per step, ``rate × length`` jobs, one per jittered slot.

    Each step's length is its share of ``seconds``; slot ``k`` of a step at
    rate ``r`` is ``[k/r, (k+1)/r)`` and its arrival falls uniformly in it.
    Exactly one job in :data:`LIVE_EVERY` per step is live.
    """
    rng = random.Random(seed)
    arrivals: list[Arrival] = []
    start = 0.0
    for name, rate, share in STEPS:
        length = seconds * share
        n = max(1, round(rate * length))
        live = set(rng.sample(range(n), n // LIVE_EVERY))
        for k in range(n):
            arrivals.append(Arrival(start + (k + rng.random()) / rate, name, k in live))
        start += length
    return arrivals


@dataclass
class ClientLog:
    """Everything the two client threads observed."""

    jobs: list[dict[str, Any]] = field(default_factory=list)
    reads: list[dict[str, Any]] = field(default_factory=list)
    streams: list[dict[str, Any]] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)


def _submitter(port: int, schedule: list[Arrival], t0: float, wall0: float,
               log: ClientLog) -> None:
    for arrival in schedule:
        delay = t0 + arrival.offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late = time.perf_counter() - (t0 + arrival.offset)
        record: dict[str, Any] = {
            "due": wall0 + arrival.offset,
            "step": arrival.step,
            "live": arrival.live,
            "late_s": late,
        }
        try:
            status, data, seconds = request(port, "POST", "/jobs", job_spec(arrival.live))
        except OSError as exc:
            status, data, seconds = 0, repr(exc).encode(), math.inf
        record.update(status=status, submit_s=seconds)
        if status == 202:
            doc = json.loads(data)
            record.update(id=doc["id"], run_id=doc["run_id"])
        with log.lock:
            log.jobs.append(record)


def _reader(port: int, stop: threading.Event, log: ClientLog) -> None:
    followed: set[str] = set()
    next_read = time.perf_counter()
    while not stop.is_set():
        if time.perf_counter() >= next_read:
            for path in ("/runs", "/metrics"):
                try:
                    status, data, seconds = request(port, "GET", path)
                except OSError:
                    status, data, seconds = 0, b"", math.inf
                log.reads.append(
                    {"path": path, "status": status, "seconds": seconds, "bytes": len(data)}
                )
            next_read += READ_PERIOD_S
            continue
        with log.lock:
            candidates = [j for j in log.jobs if "id" in j and j["id"] not in followed]
        if not candidates:
            stop.wait(min(0.05, max(next_read - time.perf_counter(), 0.0)))
            continue
        job = candidates[0]
        followed.add(job["id"])
        try:
            stream = follow_events(port, job["run_id"], time.time() + DRAIN_TIMEOUT_S)
        except OSError:
            stream = {"ids": 0, "gap_free": False, "terminal": False, "terminal_at": None}
        log.streams.append({"id": job["id"], **stream})


def drive(server: Server, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run the schedule against ``server``, wait for every job, read the results."""
    schedule = build_schedule(seed, seconds)
    log = ClientLog()
    stop = threading.Event()
    t0 = time.perf_counter()
    wall0 = time.time()
    reader = threading.Thread(target=_reader, args=(server.port, stop, log), daemon=True)
    reader.start()
    _submitter(server.port, schedule, t0, wall0, log)
    step_ends = {}
    start = 0.0
    for name, _, share in STEPS:
        start += seconds * share
        step_ends[name] = wall0 + start
    docs: dict[str, dict[str, Any]] = {}
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for job in log.jobs:
        if "id" in job:
            docs[job["id"]] = server.wait_done(job["id"], max(deadline - time.monotonic(), 0.0))
    stop.set()
    reader.join(timeout=HTTP_TIMEOUT_S)
    if reader.is_alive():
        raise ServiceError("reader thread did not stop")
    runs = get_json(server.port, "/runs")
    _, metrics_text, _ = request(server.port, "GET", "/metrics")
    traces = {}
    if trace:
        for job_id in docs:
            traces[job_id] = get_json(server.port, f"/jobs/{job_id}/trace")
    return {
        "jobs": log.jobs,
        "docs": docs,
        "reads": log.reads,
        "streams": log.streams,
        "runs": runs,
        "metrics": metrics_text.decode(),
        "traces": traces,
        "step_ends": step_ends,
    }


# ---------------------------------------------------------------------- #
# Checks and metrics
# ---------------------------------------------------------------------- #


def failures(observed: dict[str, Any]) -> list[str]:
    """Every failed operation: refused or failed jobs, broken streams, bad reads."""
    out = []
    for job in observed["jobs"]:
        if job["status"] != 202:
            out.append(f"POST /jobs answered {job['status']} (due {job['due']:.3f})")
            continue
        doc = observed["docs"][job["id"]]
        if doc["state"] != "done":
            out.append(f"job {job['id']} ended {doc['state']}: {doc.get('error')}")
    for stream in observed["streams"]:
        if not (stream["gap_free"] and stream["terminal"]):
            out.append(
                f"SSE stream of {stream['id']}: {stream['ids']} frames, "
                f"gap-free={stream['gap_free']}, terminal={stream['terminal']}"
            )
    for read in observed["reads"]:
        if read["status"] != 200:
            out.append(f"GET {read['path']} answered {read['status']}")
    return out


def attempted(observed: dict[str, Any]) -> int:
    """Operations attempted: submissions, followed streams and dashboard reads."""
    return len(observed["jobs"]) + len(observed["streams"]) + len(observed["reads"])


def _latency(job: dict[str, Any], docs: dict[str, Any]) -> float:
    """Due time to ``finished_at``; a refused or failed job misses every limit."""
    doc = docs.get(job.get("id"))
    if doc is None or doc["state"] != "done":
        return math.inf
    return doc["finished_at"] - job["due"]


def _backlog_at(t: float, observed: dict[str, Any]) -> int:
    """Admitted jobs not finished at wall time ``t`` (submitted before it)."""
    n = 0
    for job in observed["jobs"]:
        doc = observed["docs"].get(job.get("id"))
        if doc is None or doc["submitted_at"] > t:
            continue
        if doc["finished_at"] is None or doc["finished_at"] > t:
            n += 1
    return n


def report(observed: dict[str, Any]) -> dict[str, Any]:
    """The workload's figures: step latencies, live latency, submit/read, backlog."""
    jobs, docs = observed["jobs"], observed["docs"]
    out: dict[str, Any] = {}
    for name, _, _ in STEPS:
        batch = [_latency(j, docs) for j in jobs if j["step"] == name and not j["live"]]
        out[f"job_e2e_s.{name}"] = summarize(batch)
        out[f"backlog_end.{name}"] = _backlog_at(observed["step_ends"][name], observed)
    out["live_e2e_s"] = summarize([_latency(j, docs) for j in jobs if j["live"]])
    out["e2e_s"] = summarize([_latency(j, docs) for j in jobs])
    out["submit_s"] = summarize([j["submit_s"] for j in jobs])
    out["read_s"] = summarize(
        [r["seconds"] if r["status"] == 200 else math.inf for r in observed["reads"]]
    )
    lateness = [j["late_s"] for j in jobs]
    out["generator_late_s"] = {"p50": median(lateness), "max": max(lateness), "n": len(lateness)}
    return out


def _batch_exec(observed: dict[str, Any], live: bool) -> list[float]:
    return [
        d["finished_at"] - d["started_at"]
        for d in observed["docs"].values()
        if d["state"] == "done" and d["spec"]["live"] == live
    ]


def end_to_end(observed: dict[str, Any], setup_s: float, peak_rss_mb: float,
               error_pct: float) -> dict[str, float]:
    """The end-to-end metrics every workload reports, as the service sees them.

    ``characterize_s`` is the median batch job's latency from its due time
    to its finished profile, over both steps.
    """
    jobs, docs = observed["jobs"], observed["docs"]
    return {
        "setup_s": setup_s,
        "characterize_s": median([_latency(j, docs) for j in jobs if not j["live"]]),
        "peak_rss_mb": peak_rss_mb,
        "upsample_error_pct": error_pct,
    }


def histogram_mean(metrics_text: str, family: str, **labels: str) -> tuple[float, float]:
    """``(sum, count)`` of one histogram series in an OpenMetrics exposition."""
    want = {f'{k}="{v}"' for k, v in labels.items()}
    total = count = 0.0
    for line in metrics_text.splitlines():
        for suffix in ("_sum", "_count"):
            prefix = f"{family}{suffix}{{"
            if not line.startswith(prefix):
                continue
            label_text, _, value = line[len(prefix):].partition("} ")
            if want <= set(label_text.split(",")):
                if suffix == "_sum":
                    total += float(value.split()[0])
                else:
                    count += float(value.split()[0])
    return total, count


def stage_self_times(trace: dict[str, Any]) -> dict[str, float]:
    """Self seconds per :data:`STAGE_SPANS` bucket in one job's trace document.

    The synthetic ``job`` root (it only spans the others) is left out, and
    ``generate.*`` sub-steps fold into ``generate``.
    """
    events = [
        e for e in trace["traceEvents"]
        if e.get("ph") == "X" and not str(e["args"].get("id", "")).startswith("job:")
    ]
    nodes = [
        (e["args"].get("id"), e["args"].get("parent"), e["ts"], e["ts"] + e["dur"],
         (e["pid"], e["tid"]))
        for e in events
    ]
    out = dict.fromkeys(STAGE_SPANS, 0.0)
    for e, own in zip(events, tree_self_times(nodes)):
        name = "generate" if e["name"].startswith("generate.") else e["name"]
        out[name if name in out else "other"] += own / 1e6  # Chrome-trace microseconds
    return out


def layer_metrics(observed: dict[str, Any]) -> dict[str, float]:
    """Per-layer figures of the service, its queue and its jobs' stages."""
    jobs, docs, text = observed["jobs"], observed["docs"], observed["metrics"]
    family = "grade10_http_request_duration_seconds"
    submit_sum, submit_n = histogram_mean(text, family, method="POST", route="/jobs")
    runs_sum, runs_n = histogram_mean(text, family, method="GET", route="/runs")
    metrics_sum, metrics_n = histogram_mean(text, family, method="GET", route="/metrics")
    client_submit = [j["submit_s"] for j in jobs if j["status"] == 202]
    server_submit = submit_sum / submit_n if submit_n else 0.0
    done = [d for d in docs.values() if d["state"] == "done"]
    lags = [
        s["terminal_at"] - docs[s["id"]]["finished_at"]
        for s in observed["streams"]
        if s["terminal"] and docs.get(s["id"], {}).get("finished_at") is not None
    ]
    run_bytes = [r["bytes"] for r in observed["reads"] if r["path"] == "/runs"]
    batch_runs = {d["run_id"] for d in docs.values() if not d["spec"]["live"]}
    batch_cells = cached_cells = 0
    for snapshot in observed["runs"]:
        if snapshot["run_id"] not in batch_runs:
            continue
        states = list(snapshot["cells"].values())
        batch_cells += len(states)
        cached_cells += sum(1 for s in states if s == "cached")
    backlog = [_backlog_at(j["due"], observed) for j in jobs]
    out = {
        "serve.submit_server_s": server_submit,
        "serve.submit_skew": (
            (sum(client_submit) / len(client_submit)) / server_submit if server_submit else 0.0
        ),
        "serve.runs_read_s": runs_sum / runs_n if runs_n else 0.0,
        "serve.metrics_read_s": metrics_sum / metrics_n if metrics_n else 0.0,
        "serve.runs_bytes": sum(run_bytes) / len(run_bytes) if run_bytes else 0.0,
        "serve.sse_lag_s": median(lags) if lags else 0.0,
        "jobs.queue_wait_s": median([d["started_at"] - d["submitted_at"] for d in done]),
        "jobs.execute_s": median(_batch_exec(observed, live=False)),
        "jobs.execute_live_s": median(_batch_exec(observed, live=True)),
        "jobs.backlog_max": float(max(backlog)) if backlog else 0.0,
        "jobs.rejected": float(sum(1 for j in jobs if j["status"] == 429)),
        "parallel.trace_cache_hit_ratio": cached_cells / batch_cells if batch_cells else 0.0,
    }
    for kind, live in (("batch", False), ("live", True)):
        ids = [j for j, d in docs.items() if d["spec"]["live"] == live]
        totals = dict.fromkeys(STAGE_SPANS, 0.0)
        for job_id in ids:
            for name, seconds in stage_self_times(observed["traces"][job_id]).items():
                totals[name] += seconds
        for name, seconds in totals.items():
            out[f"job.stage.{kind}.{name}_self_s"] = seconds / len(ids) if ids else 0.0
    return out


def stage_metric_names() -> list[str]:
    """Names of the per-job-stage metrics, batch then live."""
    return [
        f"job.stage.{kind}.{name}_self_s" for kind in ("batch", "live") for name in STAGE_SPANS
    ]

