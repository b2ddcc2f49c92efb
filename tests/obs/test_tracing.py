"""Tracer span nesting, ordering, clocks, and the ring buffer."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, SimClock, Tracer, tracing


class TestSpanNesting:
    def test_nested_spans_record_parent_and_depth(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.now = 10
            with tracer.span("inner"):
                clock.now = 30
        outer, = tracer.spans("outer")
        inner, = tracer.spans("inner")
        assert outer.parent is None and outer.depth == 0
        assert inner.parent == outer.index and inner.depth == 1
        assert (outer.start, outer.end) == (0, 30)
        assert (inner.start, inner.end) == (10, 30)
        assert inner.duration == 20

    def test_finish_order_is_innermost_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [record.name for record in tracer.spans()] == ["c", "b", "a"]
        assert [record.index for record in tracer.spans()] == [2, 1, 0]

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("step"):
            with tracer.span("poll"):
                pass
            with tracer.span("classify"):
                pass
        step, = tracer.spans("step")
        assert {record.parent for record in tracer.spans()
                if record.name != "step"} == {step.index}

    def test_out_of_order_close_rejected(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ObservabilityError):
            outer.__exit__(None, None, None)

    def test_active_depth_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.active_depth == 0
        with tracer.span("outer"):
            assert tracer.active_depth == 1
            with tracer.span("inner"):
                assert tracer.active_depth == 2
        assert tracer.active_depth == 0


class TestTracerAggregation:
    def test_finished_spans_feed_registry_histograms(self):
        registry = MetricsRegistry()
        clock = SimClock()
        tracer = Tracer(clock=clock, registry=registry)
        for duration in (5, 10, 15):
            with tracer.span("stage"):
                clock.now += duration
        histogram = registry.histogram("span.stage")
        assert histogram.count == 3
        assert histogram.total == 30

    def test_ring_buffer_bounds_records_not_counts(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 4)
        tracer = Tracer()
        for _ in range(10):
            with tracer.span("tick"):
                pass
        assert len(tracer.spans()) == 4
        assert tracer.n_started == tracer.n_finished == 10
        # Oldest records rotated out: the newest indexes survive.
        assert [record.index for record in tracer.spans()] == [6, 7, 8, 9]


class TestClocks:
    def test_default_clock_is_deterministic_sim_time(self):
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        record, = tracer.spans()
        assert record.start == 0.0 and record.end == 0.0
