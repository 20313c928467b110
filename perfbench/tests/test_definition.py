"""BENCHMARK.json agrees with the metrics the workloads produce."""

import json
from pathlib import Path

from perfbench import pipeline, service
from perfbench.stats import valid_metric_name

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_name_grammar():
    for name in ("setup_s", "job.stage.batch.job.queued-wait_self_s", "0x", "a.b-c_d"):
        assert valid_metric_name(name)
    for name in ("", "_x", ".x", "a b", "a/b", "p90%", "x" * 65, "ä"):
        assert not valid_metric_name(name)


def test_every_metric_name_is_legal_and_unique():
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_list_matches_what_the_workloads_measure():
    listed = {m["name"] for m in SPEC["per_layer"]}
    produced = set(pipeline.LAYER_SPANS) | set(pipeline.LAYER_COUNTS)
    produced |= set(pipeline.TRACE_METRICS) | set(service.LAYER_METRICS)
    produced |= set(service.stage_metric_names())
    assert listed == produced


def test_schedule_is_seeded_and_one_in_four_is_live():
    a = service.build_schedule(7, 20.0)
    assert a == service.build_schedule(7, 20.0)
    assert a != service.build_schedule(8, 20.0)
    for name, rate, share in service.STEPS:
        step = [x for x in a if x.step == name]
        assert len(step) == round(rate * 20.0 * share)
        assert sum(x.live for x in step) == len(step) // service.LIVE_EVERY
    offsets = [x.offset for x in a]
    assert offsets == sorted(offsets) and offsets[-1] < 20.0
