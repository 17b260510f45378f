"""Tests for end-to-end stage tracing, histograms, and exposition.

Covers the observability layer: thread-safe LatencyHistogram, the
registry Histogram kind, the Prometheus renderer, the PipelineTracer
sampling/stamping machinery, the batch wire-format stamps, and the
stage histograms produced by a full monitor run (including the
``{'op': 'metrics'}`` API answer and structured log correlation).
"""

import threading

import pytest

from repro.cluster import ClusterClient
from repro.core import (
    AggregatorConfig,
    LustreMonitor,
    MonitorConfig,
    ReportBatch,
    facility_relay,
    iter_report,
)
from repro.core.events import EventType, FileEvent
from repro.lustre import LustreFilesystem
from repro.metrics import (
    LatencyHistogram,
    MetricsRegistry,
    NULL_TRACER,
    PIPELINE_STAGES,
    PipelineTracer,
    make_tracer,
)
from repro.ripple.actions import ActionRequest
from repro.ripple.agent import RippleAgent
from repro.util.clock import ManualClock
from repro.util.logging import CaptureHandler


def make_event(index=0, timestamp=0.0):
    return FileEvent(
        event_type=EventType.CREATED, path=f"/d/f{index}", is_dir=False,
        timestamp=timestamp, name=f"f{index}", source="lustre",
    )


def build_monitor(num_mds=1, **agg_kwargs):
    clock = ManualClock()
    fs = LustreFilesystem(num_mds=num_mds, clock=clock)
    fs.makedirs("/proj/data")
    monitor = LustreMonitor(
        fs, MonitorConfig(aggregator=AggregatorConfig(**agg_kwargs))
    )
    return fs, clock, monitor


# ---------------------------------------------------------------------------
# Satellite: LatencyHistogram thread-safety
# ---------------------------------------------------------------------------


class TestLatencyHistogramConcurrency:
    def test_concurrent_records_lose_nothing(self):
        histogram = LatencyHistogram()
        threads = 8
        per_thread = 500

        def hammer(value):
            for _ in range(per_thread):
                histogram.record(value)

        workers = [
            threading.Thread(target=hammer, args=(0.001 * (i + 1),))
            for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert histogram.total == threads * per_thread
        assert sum(histogram.counts()) == threads * per_thread
        expected_sum = sum(
            0.001 * (i + 1) * per_thread for i in range(threads)
        )
        assert histogram.sum == pytest.approx(expected_sum)
        assert histogram.lock_acquisitions == threads * per_thread

    def test_weighted_record_is_one_lock(self):
        histogram = LatencyHistogram()
        histogram.record(0.005, count=64)
        assert histogram.total == 64
        assert histogram.sum == pytest.approx(0.005 * 64)
        assert histogram.lock_acquisitions == 1

    def test_weighted_record_validates(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(0.1, count=0)
        with pytest.raises(ValueError):
            LatencyHistogram().record(-0.1)

    def test_summary_shape(self):
        histogram = LatencyHistogram()
        for index in range(1, 101):
            histogram.record(index / 1000.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "max", "p50", "p95", "p99"}
        assert summary["count"] == 100
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["max"] == pytest.approx(0.1)

    def test_empty_summary(self):
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0


# ---------------------------------------------------------------------------
# Tentpole part 1: the registry Histogram kind
# ---------------------------------------------------------------------------


class TestRegistryHistogram:
    def test_get_or_create_returns_canonical(self):
        registry = MetricsRegistry()
        a = registry.histogram("pipeline.collect")
        b = registry.histogram("pipeline.collect")
        assert a is b
        assert "pipeline.collect" in registry.names()

    def test_snapshot_flattens_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("stage.latency")
        for index in range(1, 11):
            histogram.record(index / 100.0)
        snapshot = registry.snapshot()
        for stat in ("count", "mean", "max", "p50", "p95", "p99"):
            assert f"stage.latency.{stat}" in snapshot
        assert snapshot["stage.latency.count"] == 10

    def test_snapshot_prefix_strips_scope(self):
        registry = MetricsRegistry()
        registry.histogram("consumer.c1.latency").record(0.01)
        registry.histogram("other.latency").record(0.5)
        scoped = registry.snapshot("consumer.c1")
        assert scoped["latency.count"] == 1
        assert "other.latency.count" not in scoped

    def test_scoped_registry_histogram(self):
        registry = MetricsRegistry()
        scoped = registry.scoped("consumer.c1")
        scoped.histogram("latency").record(0.01)
        assert registry.histogram("consumer.c1.latency").total == 1

    def test_concurrent_registration_and_snapshot(self):
        registry = MetricsRegistry()
        errors = []

        def register(worker):
            try:
                for index in range(100):
                    registry.histogram(f"h{index % 10}").record(0.001)
                    registry.counter(f"c{worker}").inc()
                    registry.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [
            threading.Thread(target=register, args=(i,)) for i in range(6)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        snapshot = registry.snapshot()
        total = sum(
            snapshot[f"h{i}.count"] for i in range(10)
        )
        assert total == 600


# ---------------------------------------------------------------------------
# Tentpole part 3: Prometheus exposition
# ---------------------------------------------------------------------------


class TestRenderPrometheus:
    def test_counter_gets_total_suffix_and_sanitized_name(self):
        registry = MetricsRegistry()
        registry.counter("aggregator.agg#2.events_stored").inc(7)
        text = registry.render_prometheus()
        assert "# TYPE repro_aggregator_agg_2_events_stored_total counter" in text
        assert "repro_aggregator_agg_2_events_stored_total 7" in text

    def test_gauges_render(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth").set(3)
        registry.gauge_fn("store.len", lambda: 42)
        text = registry.render_prometheus()
        assert "repro_queue_depth 3" in text
        assert "repro_store_len 42" in text

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("pipeline.publish")
        histogram.record(0.001)
        histogram.record(0.002)
        histogram.record(10.0)
        lines = registry.render_prometheus().splitlines()
        bucket_lines = [
            line for line in lines
            if line.startswith("repro_pipeline_publish_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)  # cumulative => monotone
        assert counts[-1] == 3
        assert 'le="+Inf"' in bucket_lines[-1]
        assert any(
            line.startswith("repro_pipeline_publish_count 3")
            for line in lines
        )
        assert any(
            line.startswith("repro_pipeline_publish_sum")
            for line in lines
        )

    def test_digit_prefix_and_namespace_off(self):
        registry = MetricsRegistry()
        registry.counter("0weird").inc()
        text = registry.render_prometheus(namespace="")
        assert "_0weird_total 1" in text


# ---------------------------------------------------------------------------
# Tentpole part 2: the tracer and batch stamps
# ---------------------------------------------------------------------------


class TestPipelineTracer:
    def test_rate_one_samples_everything(self):
        tracer = PipelineTracer(MetricsRegistry(), 1.0)
        assert all(tracer.sample() for _ in range(10))

    def test_rate_half_samples_every_other(self):
        tracer = PipelineTracer(MetricsRegistry(), 0.5)
        decisions = [tracer.sample() for _ in range(10)]
        assert decisions == [True, False] * 5

    def test_rate_zero_is_null_tracer(self):
        assert make_tracer(MetricsRegistry(), 0.0) is NULL_TRACER
        assert make_tracer(None) is NULL_TRACER

    def test_null_tracer_registers_nothing(self):
        registry = MetricsRegistry()
        tracer = make_tracer(registry, 0.0)
        assert not tracer.enabled
        assert not tracer.sample()
        tracer.record("collect", 1.0)
        assert registry.histograms() == {}
        assert tracer.stage_summaries() == {}

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            make_tracer(MetricsRegistry(), 1.5)
        with pytest.raises(ValueError):
            make_tracer(MetricsRegistry(), -0.1)
        with pytest.raises(ValueError):
            PipelineTracer(MetricsRegistry(), 0.0)

    def test_record_clamps_negative_deltas(self):
        registry = MetricsRegistry()
        tracer = PipelineTracer(registry, 1.0)
        tracer.record("deliver", -5.0)
        summary = tracer.stage_summaries()["deliver"]
        assert summary["count"] == 1
        assert summary["max"] == 0.0

    def test_scoped_registry_unwrapped(self):
        registry = MetricsRegistry()
        tracer = PipelineTracer(registry.scoped("aggregator.a"), 1.0)
        tracer.record("publish", 0.01)
        assert registry.histogram("pipeline.publish").total == 1

    def test_tracer_clock_injection(self):
        clock = ManualClock()
        clock.advance(41.5)
        tracer = PipelineTracer(MetricsRegistry(), 1.0, clock=clock)
        assert tracer.now() == pytest.approx(41.5)

    def test_stage_names_cover_pipeline(self):
        assert PIPELINE_STAGES == (
            "collect", "aggregate", "publish", "deliver", "relay", "action",
        )


class TestBatchStamps:
    def test_report_batch_is_sequence_like(self):
        events = [make_event(i) for i in range(3)]
        batch = ReportBatch(tuple(events), collected_ts=1.5)
        assert len(batch) == 3
        assert list(batch) == events
        assert batch[0] is events[0]

    def test_iter_report_unwraps_stamped_batch(self):
        events = [make_event(i) for i in range(2)]
        unpacked, ts = iter_report(ReportBatch(tuple(events), 2.0))
        assert unpacked == events
        assert ts == 2.0

    def test_iter_report_plain_list_passthrough(self):
        events = [make_event()]
        unpacked, ts = iter_report(events)
        assert unpacked is events
        assert ts is None


# ---------------------------------------------------------------------------
# End-to-end: stage histograms from a monitor run
# ---------------------------------------------------------------------------


class TestEndToEndStages:
    def test_four_stages_recorded(self):
        fs, clock, monitor = build_monitor()
        monitor.subscribe(lambda seq, ev: None)
        for index in range(20):
            fs.create(f"/proj/data/f{index}")
        clock.advance(2.0)  # collection happens 2s after the events
        monitor.drain()
        stage_latency = monitor.stats().stage_latency
        for stage in ("collect", "aggregate", "publish", "deliver"):
            assert stage in stage_latency, stage
            assert stage_latency[stage]["count"] > 0
        # The fs clock drives the tracer, so the collect stage measures
        # exactly the virtual delay between mutation and collection.
        assert stage_latency["collect"]["mean"] == pytest.approx(2.0)
        # Later stages happen within one drain (no clock advance).
        assert stage_latency["deliver"]["max"] == 0.0

    def test_metrics_api_answer(self):
        fs, clock, monitor = build_monitor()
        monitor.subscribe(lambda seq, ev: None)
        for index in range(10):
            fs.create(f"/proj/data/f{index}")
        monitor.drain()
        client = ClusterClient.for_cluster(monitor)
        answer = client.metrics()
        for stage in ("collect", "aggregate", "publish", "deliver"):
            summary = answer["histograms"][f"pipeline.{stage}"]
            assert {"p50", "p95", "p99"} <= set(summary)
            assert summary["count"] > 0
        assert "# TYPE repro_pipeline_collect histogram" in answer["prometheus"]
        assert "repro_pipeline_collect_bucket" in answer["prometheus"]
        client.close()

    def test_sample_rate_zero_registers_no_stage_histograms(self):
        fs, clock, monitor = build_monitor(trace_sample_rate=0.0)
        seen = []
        monitor.subscribe(lambda seq, ev: seen.append(seq))
        for index in range(10):
            fs.create(f"/proj/data/f{index}")
        monitor.drain()
        assert len(seen) == 10  # pipeline itself unaffected
        assert monitor.tracer is NULL_TRACER
        assert monitor.stats().stage_latency == {}
        assert not any(
            name.startswith("pipeline.")
            for name in monitor.registry.histograms()
        )

    def test_sample_rate_validated(self):
        with pytest.raises(ValueError):
            AggregatorConfig(trace_sample_rate=1.5)

    def test_relay_stage_recorded(self):
        fs, clock, monitor = build_monitor()
        relay = facility_relay([monitor], names=["site"])
        for index in range(5):
            fs.create(f"/proj/data/f{index}")
        monitor.drain()
        relay.pump_once()
        registry = relay.metrics.registry
        assert registry.histogram("pipeline.relay").total > 0
        # The origin collection stamp survives the hop: the relay also
        # records its own aggregate stage against collected_ts.
        assert registry.histogram("pipeline.aggregate").total > 0
        relay.close()

    def test_action_stage_recorded(self):
        agent = RippleAgent("a1")
        agent.enqueue_action(
            ActionRequest(
                action_type="command",
                agent_id="a1",
                parameters={"command": "mkdir", "src": "/out"},
                event=make_event(),
                rule_id=1,
            )
        )
        results = agent.execute_pending()
        assert results[0].success
        assert agent.tracer.stage_summaries()["action"]["count"] == 1

    def test_action_stage_skipped_when_disabled(self):
        agent = RippleAgent("a2", trace_sample_rate=0.0)
        request = ActionRequest(
            action_type="command",
            agent_id="a2",
            parameters={"command": "mkdir", "src": "/out"},
            event=make_event(),
            rule_id=1,
        )
        agent.enqueue_action(request)
        assert request.created_ts is None
        agent.execute_pending()
        assert agent.tracer.stage_summaries() == {}


# ---------------------------------------------------------------------------
# Satellite: consumer latency migrated onto the registry
# ---------------------------------------------------------------------------


class TestConsumerLatencyMigration:
    def test_latency_is_registry_backed(self):
        fs, clock, monitor = build_monitor()
        consumer = monitor.subscribe(lambda seq, ev: None, name="lat")
        consumer.track_latency(clock=clock)
        clock.advance(1.0)  # nonzero event timestamp (0 disables tracking)
        fs.create("/proj/data/f")
        clock.advance(0.5)
        monitor.drain()
        assert consumer.latency.total == 1
        assert consumer.latency.mean == pytest.approx(0.5)
        # The same numbers surface through the shared registry snapshot.
        snapshot = monitor.registry.snapshot("consumer.lat")
        assert snapshot["latency.count"] == 1
        assert snapshot["latency.mean"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Tentpole part 3: structured log correlation
# ---------------------------------------------------------------------------


class TestLogCorrelation:
    def test_batch_records_carry_sequence_ranges(self):
        capture = CaptureHandler().attach()
        try:
            fs, clock, monitor = build_monitor()
            monitor.subscribe(lambda seq, ev: None)
            for index in range(8):
                fs.create(f"/proj/data/f{index}")
            monitor.drain()
        finally:
            capture.detach()
        correlated = [
            record for record in capture.records
            if hasattr(record, "first_seq") and hasattr(record, "last_seq")
        ]
        origins = {record.name.rsplit(".", 2)[-2] for record in correlated}
        assert {"collector", "aggregator", "consumer"} <= origins
        for record in correlated:
            assert record.first_seq <= record.last_seq
            assert record.batch_events >= 1
        # The aggregator's store sequences cover every event exactly.
        agg = [
            record for record in correlated
            if ".aggregator." in record.name
        ]
        assert max(record.last_seq for record in agg) == 8
