"""The event ring: trace ids, levels, the keep rule, filters, sinks, concurrency."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.observability.logs import DEFAULT_LOG_CAPACITY, LEVELS, LogRecorder, new_trace_id


class TestTraceIds:
    def test_ids_are_short_and_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(tid) == 16 for tid in ids)


class TestLogRecorder:
    def test_records_and_expands_events(self):
        logger = LogRecorder(component="server")
        logger.info("op", trace_id="t1", op="publish", design="d", ms=1.25)
        logger.warning("op.shed")
        events = logger.export()
        assert len(events) == 2
        first = events[0]
        assert first["name"] == "op"
        assert first["level"] == "info"
        assert first["component"] == "server"
        assert first["trace"] == "t1"
        assert first["op"] == "publish" and first["design"] == "d" and first["ms"] == 1.25
        assert first["ts"] > 0
        assert "trace" not in events[1]  # untraced events carry no trace key

    def test_filters_by_trace_id_and_level(self):
        logger = LogRecorder()
        logger.debug("noise", trace_id="t1")
        logger.info("story", trace_id="t1")
        logger.error("boom", trace_id="t2")
        assert [e["name"] for e in logger.export(trace_id="t1")] == ["noise", "story"]
        assert [e["name"] for e in logger.export(level="warning")] == ["boom"]
        assert [e["name"] for e in logger.export(trace_id="t1", level="info")] == ["story"]

    def test_filter_and_limit(self):
        logger = LogRecorder()
        for index in range(10):
            logger.log_flat("info", "op", f"t{index % 2}", "index", index)
        mine = logger.export("t1")
        assert len(mine) == 5
        assert all(event["trace"] == "t1" for event in mine)
        tail = logger.export("t1", limit=2)
        assert [event["index"] for event in tail] == [7, 9]

    def test_level_threshold_gates_recording(self):
        logger = LogRecorder(level="warning")
        logger.debug("dropped")
        logger.info("dropped.too")
        logger.error("kept")
        assert [e["name"] for e in logger.export()] == ["kept"]
        logger.level = "debug"
        logger.debug("now.kept")
        assert len(logger) == 2

    def test_traced_events_are_kept_under_any_level(self):
        logger = LogRecorder(level="error")
        logger.log_flat("debug", "queue.wait", "t1", "ms", 0.5)
        logger.log_flat("info", "runtime.publish", None, "function", "f1")
        logger.log_flat("info", "runtime.publish", "t1", "function", "f1")
        assert [e["name"] for e in logger.export(trace_id="t1")] == [
            "queue.wait",
            "runtime.publish",
        ]
        assert len(logger) == 2  # the untraced info event met no floor

    def test_traced_export_skips_untraced_events(self):
        logger = LogRecorder()
        logger.log_flat("info", "op", None)
        logger.log_flat("info", "op", "")  # an empty id is no trace id
        logger.log_flat("info", "op", "t1")
        assert [e.get("trace") for e in logger.export()] == [None, None, "t1"]
        assert [e["trace"] for e in logger.export(traced=True)] == ["t1"]

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            LogRecorder(level="loud")
        logger = LogRecorder()
        with pytest.raises(ValueError):
            logger.export(level="loud")

    def test_ring_is_bounded(self):
        logger = LogRecorder(capacity=8)
        for index in range(50):
            logger.info(f"event_{index}")
        events = logger.export()
        assert len(events) == 8
        assert events[0]["name"] == "event_42"
        assert events[-1]["name"] == "event_49"
        assert DEFAULT_LOG_CAPACITY == 4096

    def test_disabled_recorder_is_a_noop(self):
        logger = LogRecorder(enabled=False)
        logger.error("never.stored")
        logger.log_flat("info", "op", "t1")  # a trace id does not bypass the switch
        assert logger.export() == []
        assert len(logger) == 0

    def test_limit_takes_the_tail(self):
        logger = LogRecorder()
        for index in range(10):
            logger.info(f"event_{index}")
        assert [e["name"] for e in logger.export(limit=2)] == ["event_8", "event_9"]
        assert len(logger.export(limit=50)) == 10

    def test_limit_zero_exports_nothing_and_negative_raises(self):
        logger = LogRecorder()
        for index in range(3):
            logger.info("op", trace_id="t1", index=index)
        assert logger.export(limit=0) == []
        assert logger.export(traced=True, limit=0) == []
        with pytest.raises(ValueError):
            logger.export(limit=-1)

    def test_export_returns_copies(self):
        logger = LogRecorder()
        logger.info("op", trace_id="t")
        logger.export()[0]["name"] = "mutated"
        assert logger.export()[0]["name"] == "op"

    def test_log_flat_matches_kwargs_path(self):
        logger = LogRecorder()
        logger.log_flat("info", "fast", "t9", "op", "ping", "ms", 0.2)
        logger.info("fast", trace_id="t9", op="ping", ms=0.2)
        first, second = logger.export()
        first.pop("ts"), second.pop("ts")
        assert first == second == {
            "level": "info", "name": "fast", "component": "service",
            "trace": "t9", "op": "ping", "ms": 0.2,
        }

    def test_sink_mirrors_json_lines(self):
        sink = io.StringIO()
        logger = LogRecorder(component="pod:pod-0", sink=sink)
        logger.info("directory.join", trace_id="t1", pod="pod-0")
        logger.debug("quiet")
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert len(lines) == 2
        assert lines[0]["component"] == "pod:pod-0"
        assert lines[0]["name"] == "directory.join"
        assert lines[0]["trace"] == "t1" and lines[0]["pod"] == "pod-0"

    def test_broken_sink_never_raises(self):
        class Broken(io.StringIO):
            def write(self, _text):
                raise OSError("pipe closed")

        logger = LogRecorder(sink=Broken())
        logger.info("still.recorded")
        assert len(logger) == 1

    def test_levels_cover_the_syslog_subset(self):
        assert list(LEVELS) == ["debug", "info", "warning", "error"]
        assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"] < LEVELS["error"]


class TestConcurrentWraparound:
    def test_many_writers_wrapping_ring_stays_consistent(self):
        """Writers far past capacity from many threads: no torn events.

        The ring is lock-free (GIL-atomic deque appends); the invariant is
        that every exported event is whole and the ring holds exactly the
        last ``capacity`` appends' worth of events.
        """
        capacity = 64
        logger = LogRecorder(capacity=capacity)
        writers, per_writer = 8, 500
        barrier = threading.Barrier(writers)

        def write(writer: int) -> None:
            barrier.wait()
            for index in range(per_writer):
                logger.log_flat(
                    "info", "event", f"w{writer}",
                    "writer", writer, "index", index, "ms", float(index),
                )

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = logger.export()
        assert len(events) == capacity
        for event in events:
            # Every event expands whole: trace, name and attrs intact.
            assert event["name"] == "event"
            assert event["trace"] == f"w{event['writer']}"
            assert event["ms"] == float(event["index"])
            assert 0 <= event["index"] < per_writer

    def test_concurrent_writers_and_readers(self):
        logger = LogRecorder(capacity=32)
        stop = threading.Event()

        def write() -> None:
            index = 0
            while not stop.is_set():
                logger.info("spin", index=index)
                index += 1

        threads = [threading.Thread(target=write) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                for event in logger.export():
                    assert event["name"] == "spin" and "index" in event
        finally:
            stop.set()
            for thread in threads:
                thread.join()
