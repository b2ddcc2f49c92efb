"""The Instrumentation facade, the null opt-out, and campaign telemetry."""

import json

from repro.config import SimulationConfig
from repro.obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    NullInstrumentation,
    TELEMETRY_SCHEMA_ID,
    load_telemetry,
    render_telemetry,
    write_telemetry_json,
)
from repro.sim import CampaignWorld


def tiny_world(instrumentation=None):
    config = SimulationConfig(seed=5, duration_days=1, target_fwb_phishing=25)
    return CampaignWorld(
        config, train_samples_per_class=40, instrumentation=instrumentation
    )


class TestInstrumentationFacade:
    def test_events_stamped_with_sim_time(self):
        instr = Instrumentation()
        instr.set_time(720)
        event = instr.emit("campaign.day", day=0)
        assert event.time == 720

    def test_telemetry_shape(self):
        instr = Instrumentation()
        instr.count("hits", 3)
        instr.observe("delay", 12.0)
        instr.emit("started")
        snapshot = instr.telemetry()
        assert snapshot["schema"] == TELEMETRY_SCHEMA_ID == "repro.obs/telemetry.v2"
        assert set(snapshot) == {"schema", "mode", "metrics", "events"}
        assert snapshot["mode"] == "sim"
        assert snapshot["metrics"]["counters"] == {"hits": 3}
        assert snapshot["events"]["emitted"] == 1


class TestNullInstrumentation:
    def test_is_a_drop_in_subclass(self):
        assert isinstance(NULL_INSTRUMENTATION, Instrumentation)
        assert NULL_INSTRUMENTATION.telemetry()["mode"] == "null"
        assert Instrumentation().telemetry()["mode"] == "sim"

    def test_every_operation_is_a_noop(self):
        instr = NullInstrumentation()
        instr.count("x", 5)
        instr.observe("y", 1.0)
        instr.set_time(999)
        assert instr.emit("e", a=1) is None
        assert instr.now == 0.0
        assert instr.counter("x").value == 0
        assert instr.histogram("y").snapshot()["count"] == 0
        assert instr.telemetry()["metrics"]["counters"] == {}

    def test_accessors_return_shared_singletons(self):
        a, b = NullInstrumentation(), NULL_INSTRUMENTATION
        assert a.counter("x") is b.counter("y")
        assert a.gauge("x") is b.gauge("y")
        assert a.histogram("x") is b.histogram("y")


class TestCampaignTelemetry:
    def test_same_seed_campaigns_serialize_byte_identically(self):
        first = tiny_world()
        first.run()
        second = tiny_world()
        second.run()
        json_a = first.instr.telemetry_json()
        json_b = second.instr.telemetry_json()
        assert json_a == json_b

    def test_campaign_telemetry_contents(self):
        world = tiny_world()
        result = world.run()
        snapshot = world.instr.telemetry()
        counters = snapshot["metrics"]["counters"]
        assert counters["framework.detections"] == result.detections
        assert counters["framework.observations"] == result.observations
        assert counters["monitor.timelines_resolved"] == len(result.timelines)
        assert snapshot["events"]["by_kind"]["campaign.start"] == 1
        assert snapshot["events"]["by_kind"]["campaign.finished"] == 1
        ticks = world.config.duration_minutes // world.config.stream_interval_minutes
        assert counters["framework.polls"] == ticks
        assert counters["framework.reports_filed"] == result.detections
        assert 0 < counters["classify.batch.calls"] <= ticks
        histograms = snapshot["metrics"]["histograms"]
        assert not [name for name in histograms if name.startswith("span.")]

    def test_null_world_runs_identically_with_zero_telemetry(self):
        live = tiny_world().run()
        world = tiny_world(instrumentation=NULL_INSTRUMENTATION)
        result = world.run()
        # Results never come from telemetry, so the NULL run reports the
        # live run's counts as well as its timelines.
        assert live.detections > 0 and live.observations > 0
        assert (result.detections, result.observations) == (
            live.detections, live.observations
        )
        assert result.timelines == live.timelines
        assert world.instr.telemetry()["mode"] == "null"
        assert world.instr.telemetry()["metrics"]["counters"] == {}


class TestExport:
    def test_write_and_load_round_trip(self, tmp_path):
        instr = Instrumentation()
        instr.count("hits", 2)
        instr.set_time(60)
        instr.emit("tick", n=1)
        path = tmp_path / "telemetry.json"
        write_telemetry_json(instr, path)
        loaded = load_telemetry(path)
        assert loaded == instr.telemetry()
        # Canonical serialization: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(loaded, sort_keys=True, indent=2) + "\n"

    def test_render_telemetry_text_report(self):
        instr = Instrumentation()
        instr.count("framework.detections", 7)
        instr.observe("moderation.delay_minutes", 90)
        instr.emit("campaign.day", day=1)
        text = render_telemetry(instr.telemetry())
        assert "telemetry report (mode=sim)" in text
        assert "framework.detections" in text
        assert "moderation.delay_minutes" in text
        assert "campaign.day" in text
