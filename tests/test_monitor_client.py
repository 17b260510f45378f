"""Tests for the query-only MonitorClient."""

import pytest

from repro.core import LustreMonitor, MonitorClient, MonitorConfig
from repro.core.events import EventType
from repro.lustre import LustreFilesystem
from repro.util.clock import ManualClock


@pytest.fixture
def setup():
    clock = ManualClock()
    fs = LustreFilesystem(clock=clock)
    fs.makedirs("/proj/a")
    fs.makedirs("/proj/b")
    monitor = LustreMonitor(fs)
    client = MonitorClient.for_monitor(monitor)
    return clock, fs, monitor, client


class TestQueries:
    def test_last_seq(self, setup):
        _clock, fs, monitor, client = setup
        assert client.last_seq() == 0
        fs.create("/proj/a/f")
        monitor.drain()
        assert client.last_seq() == 1

    def test_events_since(self, setup):
        _clock, fs, monitor, client = setup
        for index in range(5):
            fs.create(f"/proj/a/f{index}")
        monitor.drain()
        newer = client.events_since(3)
        assert [seq for seq, _ in newer] == [4, 5]

    def test_recent(self, setup):
        _clock, fs, monitor, client = setup
        for index in range(5):
            fs.create(f"/proj/a/f{index}")
        monitor.drain()
        recent = client.recent(2)
        assert [event.name for _seq, event in recent] == ["f3", "f4"]

    def test_query_by_prefix(self, setup):
        _clock, fs, monitor, client = setup
        fs.create("/proj/a/one")
        fs.create("/proj/b/two")
        monitor.drain()
        matches = client.query(path_prefix="/proj/b")
        assert [event.path for _seq, event in matches] == ["/proj/b/two"]

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
        assert [event.name for _seq, event in recent] == ["late"]

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
            client = MonitorClient(monitor.context, monitor.shard_configs["shard0"])
            fs.create("/d/f")
            import time

            deadline = time.time() + 3
            while client.last_seq() < 1 and time.time() < deadline:
                time.sleep(0.01)
            assert client.last_seq() == 1
        finally:
            monitor.shutdown()

    def test_sharded_monitor_refused(self):
        """A sharded monitor's history spans its shards: for_monitor
        refuses it instead of answering from shard0 alone."""
        monitor = LustreMonitor(LustreFilesystem(), MonitorConfig(num_shards=2))
        with pytest.raises(ValueError, match="ClusterClient"):
            MonitorClient.for_monitor(monitor)


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
