"""Tests for the historic-API client over a one-shard monitor.

A one-shard monitor is a one-shard cluster: ``ClusterClient`` answers
with ``(shard, seq, event)`` triples and per-shard dicts.
"""

import threading

import pytest

from repro.cluster import ClusterClient, decode_cursor, encode_cursor
from repro.core import (
    Aggregator,
    AggregatorConfig,
    Consumer,
    LustreMonitor,
    MonitorConfig,
    RelayAggregator,
)
from repro.core.events import EventType, FileEvent
from repro.lustre import DnePolicy, LustreFilesystem
from repro.msgq import Context
from repro.util.clock import ManualClock


@pytest.fixture
def setup():
    clock = ManualClock()
    fs = LustreFilesystem(clock=clock)
    fs.makedirs("/proj/a")
    fs.makedirs("/proj/b")
    monitor = LustreMonitor(fs)
    client = ClusterClient.for_cluster(monitor)
    return clock, fs, monitor, client


class TestQueries:
    def test_last_seq(self, setup):
        _clock, fs, monitor, client = setup
        assert client.last_seq() == {"shard0": 0}
        fs.create("/proj/a/f")
        monitor.drain()
        assert client.last_seq() == {"shard0": 1}

    def test_events_since(self, setup):
        _clock, fs, monitor, client = setup
        for index in range(5):
            fs.create(f"/proj/a/f{index}")
        monitor.drain()
        newer = client.events_since(3)
        assert [seq for _shard, seq, _ in newer] == [4, 5]

    def test_recent(self, setup):
        _clock, fs, monitor, client = setup
        for index in range(5):
            fs.create(f"/proj/a/f{index}")
        monitor.drain()
        recent = client.recent(2)
        assert [event.name for _shard, _seq, event in recent] == ["f3", "f4"]

    def test_query_by_prefix(self, setup):
        _clock, fs, monitor, client = setup
        fs.create("/proj/a/one")
        fs.create("/proj/b/two")
        monitor.drain()
        matches = client.query(path_prefix="/proj/b")
        assert [event.path for _shard, _seq, event in matches] == [
            "/proj/b/two"
        ]

    def test_query_by_type(self, setup):
        _clock, fs, monitor, client = setup
        fs.create("/proj/a/f")
        fs.unlink("/proj/a/f")
        monitor.drain()
        deleted = client.query(event_type=EventType.DELETED)
        assert len(deleted) == 1

    def test_query_by_time_window(self, setup):
        clock, fs, monitor, client = setup
        fs.create("/proj/a/early")
        clock.advance(100)
        fs.create("/proj/a/late")
        monitor.drain()
        recent = client.query(since_time=50)
        assert [event.name for _shard, _seq, event in recent] == ["late"]

    def test_activity_summary(self, setup):
        _clock, fs, monitor, client = setup
        fs.create("/proj/a/x")
        fs.write("/proj/a/x", 10)
        fs.unlink("/proj/a/x")
        monitor.drain()
        summary = client.activity_summary("/proj")
        assert summary == {"created": 1, "modified": 1, "deleted": 1}

    def test_live_mode_via_api_thread(self):
        fs = LustreFilesystem()
        fs.makedirs("/d")
        monitor = LustreMonitor(fs)
        monitor.start()
        try:
            client = ClusterClient.for_cluster(monitor, live=True)
            fs.create("/d/f")
            import time

            deadline = time.time() + 3
            while client.last_seq()["shard0"] < 1 and time.time() < deadline:
                time.sleep(0.01)
            assert client.last_seq() == {"shard0": 1}
        finally:
            monitor.shutdown()

    def test_sharded_monitor_each_shard_answered(self):
        """A sharded monitor's history spans its shards: every shard
        answers, not shard0 alone."""
        monitor = LustreMonitor(LustreFilesystem(), MonitorConfig(num_shards=2))
        client = ClusterClient.for_cluster(monitor)
        assert client.last_seq() == {"shard0": 0, "shard1": 0}
        assert set(client.stats()["per_shard"]) == {"shard0", "shard1"}
        client.close()


class TestConsumerLatencyTracking:
    def test_latency_recorded_on_shared_manual_clock(self):
        clock = ManualClock(start=100.0)
        fs = LustreFilesystem(clock=clock)
        monitor = LustreMonitor(fs)
        consumer = monitor.subscribe(lambda seq, ev: None).track_latency(
            clock=clock
        )
        fs.create("/f")       # timestamped at t=100
        clock.advance(0.25)   # pipeline "delay"
        monitor.drain()
        assert consumer.latency.total == 1
        assert consumer.latency.mean == pytest.approx(0.25, abs=0.01)

    def test_live_wall_clock_latency_small(self):
        import time

        fs = LustreFilesystem()  # wall clock
        monitor = LustreMonitor(fs)
        consumer = monitor.subscribe(lambda seq, ev: None).track_latency()
        monitor.start()
        try:
            for index in range(20):
                fs.create(f"/f{index}")
            deadline = time.time() + 5
            while consumer.latency.total < 20 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            monitor.shutdown()
        assert consumer.latency.total == 20
        assert consumer.latency.percentile(0.99) < 1.0  # sub-second live

    def test_disabled_by_default(self):
        fs = LustreFilesystem(clock=ManualClock())
        monitor = LustreMonitor(fs)
        consumer = monitor.subscribe(lambda seq, ev: None)
        fs.create("/f")
        monitor.drain()
        assert consumer.latency is None


def _spy_thread_starts(monkeypatch):
    started = []
    original = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


class TestPumpedRequestsStartNoThread:
    """A pumped request is answered on the caller's thread."""

    def test_inproc_one_shard(self, setup, monkeypatch):
        _clock, fs, monitor, client = setup
        for index in range(5):
            fs.create(f"/proj/a/f{index}")
        monitor.drain()
        late = monitor.subscribe(lambda seq, ev: None, name="late")
        started = _spy_thread_starts(monkeypatch)
        assert len(client.page(limit=3)) == 3
        assert len(client.query(path_prefix="/proj/a")) == 5
        assert client.catch_up(late) == 5
        assert started == []

    def test_multiproc_two_shards(self, monkeypatch):
        fs = LustreFilesystem(
            num_mds=2, mdts_per_mds=2, dne_policy=DnePolicy.ROUND_ROBIN
        )
        for index in range(4):
            fs.makedirs(f"/proj/d{index}")
        monitor = LustreMonitor(
            fs,
            MonitorConfig(
                num_shards=2, transport="multiproc", namespace="pumped-mp"
            ),
        )
        try:
            for index in range(8):
                fs.create(f"/proj/d{index % 4}/f{index}")
            monitor.drain()
            late = monitor.subscribe(lambda seq, ev: None, name="late")
            client = ClusterClient.for_cluster(monitor, timeout=10.0)
            # Warm-up: the first request of a client's life sets up
            # what later ones reuse.
            client.last_seq()
            started = _spy_thread_starts(monkeypatch)
            page = client.page(limit=100)
            assert {shard for shard, _seq, _event in page} == {
                "shard0", "shard1"
            }
            assert len(client.query(path_prefix="/proj")) == 8
            assert client.catch_up(late) == 8
            assert started == []
            client.close()
        finally:
            monitor.shutdown()


def _created(count):
    return [
        FileEvent(
            event_type=EventType.CREATED, path=f"/u/f{index}", is_dir=False,
            timestamp=0.0, name=f"f{index}", source="lustre",
        )
        for index in range(count)
    ]


@pytest.mark.parametrize("kind", [Aggregator, RelayAggregator])
class TestUnlabelledAggregator:
    """A standalone or relay aggregator is a one-shard cluster whose
    shard id is ``None`` — the key its consumers' watermark has."""

    def test_missed_events_recovered_exactly_once(self, kind):
        context = Context()
        aggregator = kind(context, AggregatorConfig())
        seen = []
        consumer = Consumer(context, lambda seq, ev: seen.append(seq))
        push = context.push().connect(aggregator.config.inbound_endpoint)
        push.send(_created(6))
        aggregator.pump_once()
        # The consumer never polled: it missed all six live messages.
        client = ClusterClient.for_aggregator(context, aggregator)
        assert client.shard_ids == (None,)
        assert client.catch_up(consumer) == 6
        assert seen == [1, 2, 3, 4, 5, 6]
        assert consumer.last_seq == consumer.watermark(None) == 6
        assert client.catch_up(consumer) == 0
        assert consumer.catch_ups == 2
        # The live copies of the same events are duplicates now.
        consumer.poll_once()
        assert seen == [1, 2, 3, 4, 5, 6]
        assert consumer.duplicates_skipped == 6
        assert decode_cursor(client.cursor_for(consumer), (None,)) == {None: 6}
        client.close()


class TestUnlabelledCursor:
    def test_round_trip(self):
        token = encode_cursor({None: 7})
        assert decode_cursor(token) == {None: 7}
        assert decode_cursor(token, (None,)) == {None: 7}
        with pytest.raises(ValueError, match="unknown shard"):
            decode_cursor(token, ("shard0",))
        with pytest.raises(ValueError, match="unknown shard"):
            decode_cursor(encode_cursor({"shard0": 3}), (None,))
