"""Tests for the structured JSONL event log."""

import io

import pytest

from repro.systems.logging import (
    EventLog,
    JsonlStream,
    iter_jsonl,
    read_jsonl,
    write_jsonl,
)


class TestEventLog:
    def test_phase_lifecycle(self):
        log = EventLog()
        h = log.start_phase("/Load", 0.0, machine="m0")
        log.end_phase(h, 2.0)
        assert len(log) == 2
        starts = log.of_kind("phase_start")
        assert starts[0]["path"] == "/Load"
        assert starts[0]["machine"] == "m0"
        assert log.of_kind("phase_end")[0]["t"] == 2.0

    def test_unique_instance_ids(self):
        log = EventLog()
        h1 = log.start_phase("/P", 0.0)
        h2 = log.start_phase("/P", 0.0)
        assert h1.instance_id != h2.instance_id

    def test_parent_reference(self):
        log = EventLog()
        parent = log.start_phase("/A", 0.0)
        log.start_phase("/A/B", 0.0, parent=parent)
        assert log.of_kind("phase_start")[1]["parent"] == parent.instance_id

    def test_block_events(self):
        log = EventLog()
        h = log.start_phase("/P", 0.0)
        log.block(h, "gc@m0", 1.0, 2.0)
        assert log.of_kind("block_start")[0]["resource"] == "gc@m0"
        assert log.of_kind("block_end")[0]["t"] == 2.0

    def test_block_halves_are_separate_writes(self):
        # A stall whose end is not known yet logs its start on its own.
        log = EventLog()
        h = log.start_phase("/P", 0.0)
        log.block_start(h, "queue@m0", 1.0)
        assert [e["event"] for e in log.events] == ["phase_start", "block_start"]
        log.block_end(h, "queue@m0", 1.5)
        end = log.of_kind("block_end")[0]
        assert (end["id"], end["resource"], end["t"]) == (h.instance_id, "queue@m0", 1.5)

    def test_gc_event(self):
        log = EventLog()
        log.gc_event("m1", 3.0, 3.5)
        ev = log.of_kind("gc")[0]
        assert (ev["machine"], ev["t"], ev["t_end"]) == ("m1", 3.0, 3.5)

    def test_custom_event_requires_kind(self):
        log = EventLog()
        log.custom(event="checkpoint", t=1.0)
        with pytest.raises(ValueError):
            log.custom(t=1.0)

    def test_jsonl_round_trip(self):
        log = EventLog()
        h = log.start_phase("/P", 0.0, machine="m0", thread="t1")
        log.block(h, "q@m0", 0.5, 0.7)
        log.end_phase(h, 1.0)
        buf = io.StringIO()
        write_jsonl(log, buf)
        buf.seek(0)
        back = read_jsonl(buf)
        assert back.events == log.events

    def test_jsonl_file_round_trip(self, tmp_path):
        log = EventLog()
        log.start_phase("/P", 0.0)
        path = tmp_path / "events.jsonl"
        write_jsonl(log, path)
        assert read_jsonl(path).events == log.events

    def test_jsonl_skips_blank_lines(self):
        back = read_jsonl(io.StringIO('{"event":"gc","machine":"m0","t":0,"t_end":1}\n\n'))
        assert len(back) == 1

    def test_read_tolerates_partial_trailing_line(self):
        # What a reader sees racing a writer mid-record: the torn tail is
        # dropped, every terminated line is kept.
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}\n{"event":"ph'
        back = read_jsonl(io.StringIO(text))
        assert len(back) == 1
        assert back.events[0]["event"] == "gc"

    def test_read_keeps_unterminated_complete_record(self):
        # A writer that omitted the final newline still round-trips.
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}'
        back = read_jsonl(io.StringIO(text))
        assert len(back) == 1

    def test_strict_read_raises_on_partial_trailing_line(self):
        # Sealed archives opt in to strict mode: a torn tail there is
        # byte-level truncation, not a racing writer.
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}\n{"event":"ph'
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO(text), strict=True)

    def test_strict_read_keeps_unterminated_complete_record(self):
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}'
        assert len(read_jsonl(io.StringIO(text), strict=True)) == 1

    def test_read_raises_on_interior_malformed_line(self):
        text = '{"event":"gc","machine":"m0","t":0,"t_end":1}\nnot json\n'
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO(text))


class TestJsonlStream:
    def _log_text(self, n=5):
        log = EventLog()
        for k in range(n):
            h = log.start_phase(f"/P{k}", float(k), machine="m0")
            log.end_phase(h, k + 0.5)
        buf = io.StringIO()
        write_jsonl(log, buf)
        return log.events, buf.getvalue()

    def test_any_chunking_reconstructs_the_event_list(self):
        events, text = self._log_text()
        for size in (1, 3, 7, 64, len(text)):
            stream = JsonlStream()
            out = []
            for i in range(0, len(text), size):
                out.extend(stream.feed(text[i:i + size]))
            out.extend(stream.close())
            assert out == events, f"chunk size {size}"
            assert stream.pending == ""

    def test_feed_accepts_bytes(self):
        events, text = self._log_text(2)
        stream = JsonlStream()
        out = stream.feed(text.encode("utf-8"))
        out.extend(stream.close())
        assert out == events

    def test_pending_holds_the_fragment(self):
        stream = JsonlStream()
        assert stream.feed('{"event":"gc","t"') == []
        assert stream.pending == '{"event":"gc","t"'
        got = stream.feed(':1,"t_end":2,"machine":"m0"}\n')
        assert got == [{"event": "gc", "t": 1, "t_end": 2, "machine": "m0"}]
        assert stream.pending == ""

    def test_close_drops_torn_tail(self):
        stream = JsonlStream()
        stream.feed('{"event":"gc","t"')
        assert stream.close() == []
        assert stream.pending == ""

    def test_close_flushes_complete_unterminated_record(self):
        stream = JsonlStream()
        stream.feed('{"event":"gc","t":1,"t_end":2,"machine":"m0"}')
        assert stream.close() == [
            {"event": "gc", "t": 1, "t_end": 2, "machine": "m0"}
        ]

    def test_terminated_malformed_line_raises(self):
        stream = JsonlStream()
        with pytest.raises(ValueError):
            stream.feed("not json\n")


class TestIterJsonl:
    def test_streams_without_materializing(self, tmp_path):
        log = EventLog()
        for k in range(10):
            log.start_phase(f"/P{k}", float(k))
        path = tmp_path / "events.jsonl"
        write_jsonl(log, path)
        it = iter_jsonl(path, chunk_size=16)
        first = next(it)
        assert first == log.events[0]
        assert list(it) == log.events[1:]

    def test_tolerates_mid_write_tail(self, tmp_path):
        log = EventLog()
        log.start_phase("/P", 0.0)
        path = tmp_path / "events.jsonl"
        write_jsonl(log, path)
        with open(path, "a") as fh:
            fh.write('{"event":"phase_e')  # torn mid-write
        assert list(iter_jsonl(path)) == log.events
