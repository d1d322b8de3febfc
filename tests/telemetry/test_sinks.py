"""Telemetry sinks and the process-global sink slot."""

import io
import json

import numpy as np

from repro.telemetry import (
    NULL_SINK,
    JsonlSink,
    MemorySink,
    NullSink,
    TelemetrySink,
    get_sink,
    set_sink,
    sink_enabled,
    use_sink,
)


class TestGlobalSlot:
    def test_default_is_the_null_sink(self):
        assert get_sink() is NULL_SINK
        assert not sink_enabled()

    def test_set_sink_returns_the_previous_sink(self):
        sink = MemorySink()
        previous = set_sink(sink)
        try:
            assert previous is NULL_SINK
            assert get_sink() is sink
            assert sink_enabled()
        finally:
            assert set_sink(previous) is sink
        assert get_sink() is NULL_SINK

    def test_a_second_null_sink_still_counts_as_enabled(self):
        # Enablement is an identity check against the shared NULL_SINK.
        with use_sink(NullSink()):
            assert sink_enabled()

    def test_every_sink_satisfies_the_protocol(self, tmp_path):
        jsonl = JsonlSink(tmp_path / "trace.jsonl")
        try:
            for sink in (NULL_SINK, MemorySink(), jsonl):
                assert isinstance(sink, TelemetrySink)
        finally:
            jsonl.close()


class TestJsonlSink:
    def test_one_document_per_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "event", "name": "a"})
        sink.emit({"type": "event", "name": "b"})
        sink.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]
        assert sink.path == str(path)

    def test_numpy_values_are_coerced(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit({"type": "metrics", "count": np.int64(3), "rates": np.array([0.5, 1.5])})
        assert json.loads(stream.getvalue()) == {
            "type": "metrics",
            "count": 3,
            "rates": [0.5, 1.5],
        }

    def test_caller_owned_stream_stays_open(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit({"type": "log"})
        sink.close()
        assert not stream.closed

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        sink.close()


class TestNullSink:
    def test_drops_records(self):
        NULL_SINK.emit({"type": "event"})
        NULL_SINK.close()
        assert repr(NULL_SINK) == "NullSink()"
