"""Backpressure behaviour and a day-in-the-life workload replay."""

from dataclasses import replace

import pytest

from repro.cluster import ClusterClient
from repro.core import (
    AggregatorConfig,
    CollectorConfig,
    LustreMonitor,
    MonitorConfig,
    ProcessorConfig,
)
from repro.core.events import EventType
from repro.lustre import LustreFilesystem
from repro.util.clock import ManualClock
from repro.workloads import EventGenerator


class TestBackpressure:
    def test_stalled_aggregator_blocks_collector_without_loss(self):
        """If the aggregator stops pumping, the bounded PUSH queue fills,
        collector reports fail (timeout), and records stay in the
        ChangeLog — nothing is dropped, everything flows once the
        aggregator resumes."""
        fs = LustreFilesystem(clock=ManualClock())
        fs.makedirs("/d")
        monitor = LustreMonitor(
            fs,
            MonitorConfig(
                collector=CollectorConfig(read_batch=10),
                aggregator=AggregatorConfig(hwm=2),  # tiny transport queue
                report_timeout=0.01,  # fail fast instead of blocking
            ),
        )
        for index in range(100):
            fs.create(f"/d/f{index}")
        # Collector-only polling: the aggregator never pumps, so after
        # two batches the PUSH queue is full and sends time out.
        collector = monitor.collectors[0]
        for _ in range(10):
            collector.poll_once()
        assert collector.report_failures > 0
        assert fs.changelogs()[0].backlog > 0  # retained, not lost
        # Resume the aggregator: everything reaches the store, complete
        # and in order.  (A tiny-hwm live subscription would drop, which
        # is the documented PUB/SUB behaviour — the store is the source
        # of truth; see the next test.)
        monitor.drain()
        stored = [event.name for _seq, event in monitor.shard_handles["shard0"].store.since(0)]
        assert stored == [f"f{i}" for i in range(100)]
        assert fs.changelogs()[0].backlog == 0

    def test_subscriber_hwm_protects_aggregator_not_stream(self):
        """A slow subscriber loses messages (counted), but the store
        keeps them, so catch-up recovers the full stream.

        The subscriber HWM counts *messages*; ``batch_events=1`` flushes
        one event per message so the drop accounting is per-event here.
        """
        fs = LustreFilesystem(clock=ManualClock())
        fs.makedirs("/d")
        monitor = LustreMonitor(
            fs, MonitorConfig(aggregator=AggregatorConfig(batch_events=1))
        )
        from repro.core.consumer import Consumer

        slow_config = replace(monitor.shard_configs["shard0"], hwm=3)
        seen = []
        slow = Consumer(monitor.context, lambda seq, ev: seen.append(seq),
                        config=slow_config, name="slow")
        monitor.consumers.append(slow)
        for index in range(50):
            fs.create(f"/d/f{index}")
        for collector in monitor.collectors:
            collector.poll_once()
        monitor.shard_handles["shard0"].pump_once()
        slow.poll_once()
        assert slow.dropped == 47
        ClusterClient.for_cluster(monitor).catch_up(slow)
        assert seen == list(range(1, 51))


class TestDayInTheLife:
    def test_nersc_scale_day_replayed_through_monitor(self):
        """Replay a tlproject2-like day (§5.3 scale: tens of thousands
        of creates/modifies at 1:1000) through the real monitor and
        check complete, loss-free delivery plus sensible rates."""
        clock = ManualClock()
        fs = LustreFilesystem(clock=clock)
        monitor = LustreMonitor(
            fs,
            MonitorConfig(
                collector=CollectorConfig(
                    read_batch=512,
                    processor=ProcessorConfig(batch_size=64, cache_size=1024),
                )
            ),
        )
        counts = {t: 0 for t in EventType}
        monitor.subscribe(
            lambda seq, ev: counts.__setitem__(ev.event_type,
                                               counts[ev.event_type] + 1)
        )
        generator = EventGenerator(fs, directory="/day", seed=42)
        records = generator.generate_mixed(
            n_ops=5000,
            create_weight=0.45,
            modify_weight=0.40,
            delete_weight=0.15,
            n_directories=32,
        )
        monitor.drain()
        delivered = sum(counts.values())
        # Everything generated after the collectors registered arrives:
        # the /day mkdir, the per-directory mkdirs and all mixed ops.
        assert delivered == fs.total_changelog_records()
        assert delivered >= records
        assert counts[EventType.CREATED] > 0
        assert counts[EventType.MODIFIED] > 0
        assert counts[EventType.DELETED] > 0
        # Directory locality keeps the resolver almost idle.
        stats = monitor.stats()
        assert stats.resolver_invocations < records / 20
        assert stats.unresolved_events == 0
        assert all(cl.backlog == 0 for cl in fs.changelogs())
