"""Integration tests for the full monitor pipeline (deterministic mode)."""

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
from repro.lustre import DnePolicy, LustreFilesystem
from repro.util.clock import ManualClock


def build(num_mds=1, dne=DnePolicy.SINGLE, **monitor_kwargs):
    fs = LustreFilesystem(num_mds=num_mds, dne_policy=dne, clock=ManualClock())
    fs.makedirs("/proj/data")
    monitor = LustreMonitor(fs, MonitorConfig(**monitor_kwargs))
    return fs, monitor


class TestEndToEnd:
    def test_events_flow_to_subscriber(self):
        fs, monitor = build()
        seen = []
        monitor.subscribe(lambda seq, ev: seen.append(ev))
        fs.create("/proj/data/f.dat", size=10)
        fs.unlink("/proj/data/f.dat")
        monitor.drain()
        types = [e.event_type for e in seen]
        assert types == [EventType.CREATED, EventType.MODIFIED, EventType.DELETED]
        assert all(e.path == "/proj/data/f.dat" for e in seen)

    def test_complete_stream_no_loss_no_duplicates(self):
        fs, monitor = build()
        seen = []
        monitor.subscribe(lambda seq, ev: seen.append(seq))
        for index in range(100):
            fs.create(f"/proj/data/f{index}")
        monitor.drain()
        assert seen == list(range(1, 101))

    def test_multiple_subscribers_all_receive(self):
        fs, monitor = build()
        a, b = [], []
        monitor.subscribe(lambda seq, ev: a.append(seq))
        monitor.subscribe(lambda seq, ev: b.append(seq))
        fs.create("/proj/data/f")
        monitor.drain()
        assert a == b == [1]

    def test_multi_mds_events_aggregated_site_wide(self):
        fs, monitor = build(num_mds=3, dne=DnePolicy.ROUND_ROBIN)
        seen = []
        monitor.subscribe(lambda seq, ev: seen.append(ev))
        for index in range(9):
            fs.mkdir(f"/top{index}")
            fs.create(f"/top{index}/f")
        monitor.drain()
        assert len(seen) == 18
        assert {e.mdt_index for e in seen} == {0, 1, 2}
        # One collector per MDS actually did work.
        stats = monitor.stats()
        active = [
            name
            for name, per in stats.per_collector.items()
            if per["events_reported"] > 0
        ]
        assert len(active) == 3

    def test_changelogs_purged_after_flow(self):
        fs, monitor = build()
        for index in range(20):
            fs.create(f"/proj/data/f{index}")
        monitor.drain()
        assert all(cl.backlog == 0 for cl in fs.changelogs())

    def test_stats_aggregation(self):
        fs, monitor = build(
            collector=CollectorConfig(
                processor=ProcessorConfig(batch_size=8, cache_size=32)
            )
        )
        monitor.subscribe(lambda seq, ev: None)
        for index in range(10):
            fs.create(f"/proj/data/f{index}")
        monitor.drain()
        stats = monitor.stats()
        assert stats.records_read == 10
        assert stats.events_stored == 10
        assert stats.events_published == 10
        assert stats.cache_hits > 0
        assert stats.resolver_invocations < 10


class TestHistoricApi:
    def test_late_joiner_catches_up(self):
        fs, monitor = build()
        for index in range(10):
            fs.create(f"/proj/data/f{index}")
        monitor.drain()
        late = []
        consumer = monitor.subscribe(lambda seq, ev: late.append(seq), name="late")
        assert ClusterClient.for_cluster(monitor).catch_up(consumer) == 10
        assert late == list(range(1, 11))

    def test_catch_up_then_live_without_duplicates(self):
        fs, monitor = build()
        fs.create("/proj/data/early")
        monitor.drain()
        seen = []
        consumer = monitor.subscribe(lambda seq, ev: seen.append(seq))
        ClusterClient.for_cluster(monitor).catch_up(consumer)
        fs.create("/proj/data/later")
        monitor.drain()
        assert seen == [1, 2]
        assert consumer.duplicates_skipped == 0

    def test_dropped_consumer_recovers_via_catch_up(self):
        # batch_events=1 flushes one event per PUB message so the tiny
        # subscription HWM (which counts messages) drops per-event.
        fs, monitor = build(
            aggregator=AggregatorConfig(hwm=100_000, batch_events=1),
        )
        # Give this consumer a tiny queue by subscribing directly.
        from repro.core.consumer import Consumer

        seen = []
        config = replace(monitor.shard_configs["shard0"], hwm=5)
        consumer = Consumer(
            monitor.context, lambda seq, ev: seen.append(seq), config=config
        )
        monitor.consumers.append(consumer)
        for index in range(20):
            fs.create(f"/proj/data/f{index}")
        for collector in monitor.collectors:
            collector.poll_once()
        monitor.shard_handles["shard0"].pump_once()
        # Only 5 fit in the subscription queue; the rest were dropped.
        consumer.poll_once()
        assert consumer.dropped > 0
        recovered = ClusterClient.for_cluster(monitor).catch_up(consumer)
        assert recovered > 0
        assert seen == list(range(1, 21))

    def test_store_rotation_bounds_memory(self):
        fs, monitor = build(aggregator=AggregatorConfig(store_max_events=10))
        for index in range(25):
            fs.create(f"/proj/data/f{index}")
        monitor.drain()
        assert len(monitor.shard_handles["shard0"].store) == 10
        assert monitor.shard_handles["shard0"].store.oldest_retained_seq == 16


class TestLiveMode:
    def test_threaded_end_to_end(self):
        import time

        fs, monitor = build()
        seen = []
        monitor.subscribe(lambda seq, ev: seen.append(ev.path))
        monitor.start()
        try:
            for index in range(25):
                fs.create(f"/proj/data/f{index}")
            deadline = time.time() + 5
            while len(seen) < 25 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            monitor.stop()
        assert len(seen) == 25
        assert seen[0] == "/proj/data/f0"

    def test_shutdown_releases_resources(self):
        fs, monitor = build()
        monitor.start()
        monitor.shutdown()
        assert all(cl.users == [] for cl in fs.changelogs())


class TestRippleAgentOnMonitor:
    def test_agent_filters_site_events(self):
        from repro.ripple import Action, RippleAgent, RippleService, Trigger

        fs, monitor = build()
        service = RippleService()
        agent = RippleAgent("store", filesystem=fs)
        service.register_agent(agent)
        agent.attach_lustre_monitor(monitor)
        service.add_rule(
            Trigger(agent_id="store", path_prefix="/proj/data",
                    name_pattern="*.csv"),
            Action("command", "store",
                   {"command": "copy", "dst": "{dir}/{stem}.bak"}),
            name="backup-csv",
        )
        fs.create("/proj/data/t.csv")
        fs.create("/proj/data/ignored.txt")
        monitor.drain()
        service.run_until_quiet()
        assert fs.exists("/proj/data/t.bak")
        assert agent.events_seen >= 2
        assert agent.events_matched == 1
