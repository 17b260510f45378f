"""Tests for path-based publish topics and the iRODS-style gateway."""

import pytest

from repro.baselines import IngestGateway
from repro.core import AggregatorConfig, LustreMonitor, MonitorConfig
from repro.core.consumer import Consumer
from repro.core.events import EventType
from repro.lustre import LustreFilesystem
from repro.util.clock import ManualClock


class TestTopicByPath:
    def _monitor(self):
        fs = LustreFilesystem(clock=ManualClock())
        fs.makedirs("/projects")
        fs.makedirs("/scratch")
        monitor = LustreMonitor(
            fs,
            MonitorConfig(aggregator=AggregatorConfig(topic_by_path=True)),
        )
        return fs, monitor

    def test_scoped_subscriber_gets_only_its_subtree(self):
        fs, monitor = self._monitor()
        scoped = []
        consumer = Consumer(
            monitor.context,
            lambda seq, ev: scoped.append(ev.path),
            config=monitor.shard_configs["shard0"],
            topic="events./projects",
        )
        monitor.consumers.append(consumer)
        fs.create("/projects/keep.dat")
        fs.create("/scratch/skip.dat")
        monitor.drain()
        assert scoped == ["/projects/keep.dat"]
        # The filtering happened at the fabric, not in the consumer.
        assert consumer.events_consumed == 1

    def test_unscoped_subscriber_still_gets_everything(self):
        fs, monitor = self._monitor()
        everything = []
        monitor.subscribe(lambda seq, ev: everything.append(ev.path))
        fs.create("/projects/a")
        fs.create("/scratch/b")
        monitor.drain()
        assert everything == ["/projects/a", "/scratch/b"]

    def test_root_level_events_use_root_topic(self):
        fs, monitor = self._monitor()
        root_scoped = []
        consumer = Consumer(
            monitor.context,
            lambda seq, ev: root_scoped.append(ev.path),
            config=monitor.shard_configs["shard0"],
            topic="events./top.dat",
        )
        monitor.consumers.append(consumer)
        fs.create("/top.dat")
        monitor.drain()
        assert root_scoped == ["/top.dat"]

    def test_default_config_single_topic(self):
        fs = LustreFilesystem(clock=ManualClock())
        monitor = LustreMonitor(fs)
        assert monitor.shard_handles["shard0"]._topic_for.__self__.config.topic_by_path is False
        seen = []
        monitor.subscribe(lambda seq, ev: seen.append(seq))
        fs.create("/f")
        monitor.drain()
        assert seen == [1]


class TestIngestGateway:
    @pytest.fixture
    def setup(self):
        fs = LustreFilesystem(clock=ManualClock())
        gateway = IngestGateway(fs)
        events = []
        gateway.subscribe(events.append)
        return fs, gateway, events

    def test_mediated_lifecycle_raises_events(self, setup):
        fs, gateway, events = setup
        gateway.ingest("/grid/data.csv", b"1,2")
        gateway.update("/grid/data.csv", b"1,2,3")
        gateway.rename("/grid/data.csv", "/grid/data_v2.csv")
        gateway.remove("/grid/data_v2.csv")
        assert [e.event_type for e in events] == [
            EventType.CREATED, EventType.MODIFIED, EventType.MOVED,
            EventType.DELETED,
        ]
        assert events[2].old_path == "/grid/data.csv"

    def test_out_of_band_writes_invisible(self, setup):
        fs, gateway, events = setup
        gateway.ingest("/grid/seen.dat")
        fs.create("/grid/unseen.dat")  # direct write, bypassing the API
        assert [e.path for e in events] == ["/grid/seen.dat"]
        assert gateway.uncataloged_files("/grid") == ["/grid/unseen.dat"]

    def test_operations_on_uncataloged_rejected(self, setup):
        fs, gateway, _events = setup
        fs.makedirs("/grid")
        fs.create("/grid/rogue.dat")
        with pytest.raises(KeyError):
            gateway.update("/grid/rogue.dat", b"x")
        with pytest.raises(KeyError):
            gateway.remove("/grid/rogue.dat")

    def test_changelog_monitor_sees_what_gateway_misses(self, setup):
        """The §2 contrast: the ChangeLog monitor observes out-of-band
        mutations the closed grid cannot."""
        fs, gateway, gateway_events = setup
        monitor = LustreMonitor(fs)
        monitor_events = []
        monitor.subscribe(lambda seq, ev: monitor_events.append(ev.path))
        gateway.ingest("/grid/through_api.dat")
        fs.create("/grid/out_of_band.dat")
        monitor.drain()
        assert "/grid/out_of_band.dat" in monitor_events
        assert "/grid/through_api.dat" in monitor_events
        assert [e.path for e in gateway_events] == ["/grid/through_api.dat"]

    def test_works_on_local_filesystem_too(self):
        from repro.fs.memfs import MemoryFilesystem

        fs = MemoryFilesystem(clock=ManualClock())
        gateway = IngestGateway(fs)
        gateway.ingest("/g/a.txt", b"data")
        assert fs.read("/g/a.txt") == b"data"
        gateway.update("/g/a.txt", b"more")
        assert fs.read("/g/a.txt") == b"more"
