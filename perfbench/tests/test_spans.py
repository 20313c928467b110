"""Loud wrappers: a missing or never-called public function stops the run."""

import sys
import types

import pytest

from perfbench import spans


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_stage")

    def stage(x):
        return x * 2

    class Model:
        def lookup(self, key):
            return key

    module.stage = stage
    module.Model = Model
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_missing_function_is_named(fake_module):
    targets = (
        spans.Target(fake_module.__name__, "stage", "stage"),
        spans.Target(fake_module.__name__, "renamed_stage", "renamed"),
    )
    original = fake_module.stage
    with pytest.raises(spans.WrapperError, match="perfbench_fake_stage.renamed_stage"):
        spans.install(targets, spans.SpanRecorder())
    assert fake_module.stage is original  # all or nothing


def test_missing_method_is_named(fake_module):
    target = spans.Target(fake_module.__name__, "Model.gone", "gone")
    with pytest.raises(spans.WrapperError, match="Model.gone"):
        spans.install((target,), spans.SpanRecorder())


def test_never_called_function_is_named(fake_module):
    targets = (
        spans.Target(fake_module.__name__, "stage", "stage"),
        spans.Target(fake_module.__name__, "Model.lookup", "lookup", kind="count"),
    )
    recorder = spans.SpanRecorder()
    with spans.install(targets, recorder) as patch:
        recorder.begin_op(0)
        assert fake_module.stage(2) == 4
        with pytest.raises(spans.WrapperError, match="Model.lookup"):
            patch.check_called(0)
        recorder.begin_op(1)
        fake_module.stage(1)
        assert fake_module.Model().lookup("k") == "k"
        patch.check_called(1)
    assert recorder.called(1) == {"stage": 1, "lookup": 1}


def test_uninstall_restores_originals(fake_module):
    original_stage = fake_module.stage
    original_lookup = fake_module.Model.__dict__["lookup"]
    target = spans.Target(fake_module.__name__, "Model.lookup", "lookup")
    with spans.install(
        (spans.Target(fake_module.__name__, "stage", "stage"), target), spans.SpanRecorder()
    ):
        assert fake_module.stage is not original_stage
    assert fake_module.stage is original_stage
    assert fake_module.Model.__dict__["lookup"] is original_lookup


def test_spans_nest_and_self_times_add_up(fake_module):
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    outer = spans.Target(fake_module.__name__, "stage", "outer")
    with spans.install((outer,), recorder):
        recorder.begin_op(0)
        root = recorder.open("op")  # t=0
        fake_module.stage(1)  # t=1..2
        recorder.close(root)  # t=3
    totals = spans.self_times_by_name(recorder.spans)
    assert totals == {"op": 2.0, "outer": 1.0}
    assert recorder.spans[1].parent == 0


def test_every_pipeline_target_exists_in_the_program():
    with spans.install(spans.PIPELINE_TARGETS, spans.SpanRecorder()):
        pass
