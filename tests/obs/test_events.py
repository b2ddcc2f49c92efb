"""EventLog emission, sinks, rendering, and the bounded buffer."""

import io

from repro.obs import ConsoleSink, EventLog, events, render_event


class TestEventLog:
    def test_emit_returns_the_event(self):
        log = EventLog()
        event = log.emit("campaign.day", 1440, day=1, detections=12)
        assert event.kind == "campaign.day"
        assert event.time == 1440
        assert event.fields == {"day": 1, "detections": 12}

    def test_events_filter_by_kind_preserves_order(self):
        log = EventLog()
        log.emit("a", 0, n=1)
        log.emit("b", 10)
        log.emit("a", 20, n=2)
        assert [event.fields["n"] for event in log.events("a")] == [1, 2]
        assert len(log.events()) == 3

    def test_counts_by_kind_sorted(self):
        log = EventLog()
        log.emit("zebra", 0)
        log.emit("alpha", 0)
        log.emit("zebra", 0)
        assert log.counts_by_kind() == {"alpha": 1, "zebra": 2}
        assert list(log.counts_by_kind()) == ["alpha", "zebra"]

    def test_buffer_is_bounded_but_emitted_count_is_not(self, monkeypatch):
        monkeypatch.setattr(events, "MAX_EVENTS", 3)
        log = EventLog()
        for i in range(10):
            log.emit("tick", i)
        assert len(log) == 3
        assert log.n_emitted == 10
        assert [event.time for event in log.events()] == [7, 8, 9]

    def test_to_dict_sorts_field_keys(self):
        log = EventLog()
        event = log.emit("e", 5, zebra=1, alpha=2)
        assert list(event.to_dict()["fields"]) == ["alpha", "zebra"]


class TestSinks:
    def test_subscribed_sink_sees_every_event(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("a", 0)
        log.emit("b", 10)
        assert [event.kind for event in seen] == ["a", "b"]

    def test_unsubscribe_stops_delivery(self):
        log = EventLog()
        seen = []
        sink = log.subscribe(seen.append)
        log.emit("a", 0)
        log.unsubscribe(sink)
        log.emit("b", 10)
        assert [event.kind for event in seen] == ["a"]

    def test_console_sink_renders_one_line_per_event(self):
        stream = io.StringIO()
        log = EventLog()
        log.subscribe(ConsoleSink(stream))
        log.emit("campaign.day", 1440, day=1, detections=12)
        assert stream.getvalue() == "[t=   1440m] campaign.day day=1 detections=12\n"


class TestRendering:
    def test_render_event_sorts_fields(self):
        log = EventLog()
        event = log.emit("e", 30, zebra=1, alpha="x")
        assert render_event(event) == "[t=     30m] e alpha=x zebra=1"

    def test_render_event_no_fields(self):
        log = EventLog()
        assert render_event(log.emit("start", 0)) == "[t=      0m] start"
