"""Tests for the StorageMonitor facade and hierarchical relays."""

import pytest

from repro.core import (
    LustreMonitor,
    RelayAggregator,
    StorageMonitor,
    facility_relay,
)
from repro.core.events import EventType
from repro.errors import MonitorError
from repro.fs.memfs import MemoryFilesystem
from repro.lustre import LustreFilesystem
from repro.msgq import Context
from repro.util.clock import ManualClock


class TestStorageMonitorFacade:
    def test_lustre_gets_changelog_backend(self):
        monitor = StorageMonitor.for_filesystem(LustreFilesystem())
        assert monitor.backend_name == "changelog"
        monitor.close()

    def test_local_gets_inotify_backend(self):
        monitor = StorageMonitor.for_filesystem(MemoryFilesystem())
        assert monitor.backend_name == "inotify"
        monitor.close()

    def test_polling_backend_opt_in(self):
        monitor = StorageMonitor.for_filesystem(
            MemoryFilesystem(), backend="polling"
        )
        assert monitor.backend_name == "polling"
        monitor.close()

    def test_backend_mismatch_rejected(self):
        with pytest.raises(MonitorError):
            StorageMonitor.for_filesystem(
                MemoryFilesystem(), backend="changelog"
            )
        with pytest.raises(MonitorError):
            StorageMonitor.for_filesystem(
                LustreFilesystem(), backend="inotify"
            )
        with pytest.raises(MonitorError):
            StorageMonitor.for_filesystem(MemoryFilesystem(), backend="magic")

    def _collect(self, monitor):
        seen = []
        monitor.subscribe(lambda event: seen.append(
            (event.event_type, event.path)
        ))
        return seen

    def test_same_stream_shape_across_backends(self):
        """create+delete produces the same normalized events on every
        backend (modulo polling's blindness to short-lived files)."""
        # changelog
        lustre = LustreFilesystem(clock=ManualClock())
        lustre.mkdir("/w")
        changelog_monitor = StorageMonitor.for_filesystem(lustre)
        changelog_seen = self._collect(changelog_monitor)
        changelog_monitor.watch("/w")
        lustre.create("/w/f")
        changelog_monitor.drain()

        # inotify
        local = MemoryFilesystem(clock=ManualClock())
        local.mkdir("/w")
        inotify_monitor = StorageMonitor.for_filesystem(local)
        inotify_seen = self._collect(inotify_monitor)
        inotify_monitor.watch("/w")
        local.create("/w/f")
        inotify_monitor.drain()

        # polling
        polled = MemoryFilesystem(clock=ManualClock())
        polled.mkdir("/w")
        polling_monitor = StorageMonitor.for_filesystem(
            polled, backend="polling"
        )
        polling_seen = self._collect(polling_monitor)
        polling_monitor.watch("/w")
        polled.create("/w/f")
        polling_monitor.drain()

        expected = [(EventType.CREATED, "/w/f")]
        assert changelog_seen == expected
        assert inotify_seen == expected
        assert polling_seen == expected
        for monitor in (changelog_monitor, inotify_monitor, polling_monitor):
            monitor.close()

    def test_events_delivered_counter(self):
        fs = LustreFilesystem(clock=ManualClock())
        monitor = StorageMonitor.for_filesystem(fs)
        monitor.subscribe(lambda event: None)
        fs.create("/a")
        fs.create("/b")
        monitor.drain()
        assert monitor.events_delivered == 2
        monitor.close()

    def test_multiple_subscribers(self):
        fs = LustreFilesystem(clock=ManualClock())
        monitor = StorageMonitor.for_filesystem(fs)
        a, b = [], []
        monitor.subscribe(lambda event: a.append(event.path))
        monitor.subscribe(lambda event: b.append(event.path))
        fs.create("/f")
        monitor.drain()
        assert a == b == ["/f"]
        monitor.close()

    def test_polling_live_mode(self):
        import time

        fs = MemoryFilesystem()
        fs.mkdir("/w")
        monitor = StorageMonitor.for_filesystem(
            fs, backend="polling", poll_interval=0.01
        )
        seen = []
        monitor.subscribe(lambda event: seen.append(event.path))
        monitor.watch("/w")
        monitor.start()
        try:
            fs.create("/w/live")
            deadline = time.time() + 3
            while not seen and time.time() < deadline:
                time.sleep(0.01)
        finally:
            monitor.close()
        assert seen == ["/w/live"]


class TestRelayAggregator:
    def _monitor(self, suffix):
        from repro.core import MonitorConfig

        fs = LustreFilesystem(clock=ManualClock())
        return fs, LustreMonitor(fs, MonitorConfig(namespace=suffix))

    def test_relay_merges_two_filesystems(self):
        fs_a, monitor_a = self._monitor("a")
        fs_b, monitor_b = self._monitor("b")
        relay = facility_relay([monitor_a, monitor_b], names=["home", "scratch"])
        merged = []
        from repro.core.consumer import Consumer

        consumer = Consumer(
            relay.context, lambda seq, ev: merged.append((seq, ev.path)),
            config=relay.config,
        )
        fs_a.create("/from-home")
        fs_b.create("/from-scratch")
        monitor_a.drain()
        monitor_b.drain()
        relay.pump_once()
        consumer.poll_once()
        assert [path for _seq, path in merged] == [
            "/from-home", "/from-scratch",
        ]
        # Relay assigns its own gapless sequence numbers.
        assert [seq for seq, _path in merged] == [1, 2]
        assert relay.relayed_counts == {"home.shard0": 1, "scratch.shard0": 1}

    def test_relay_historic_api_covers_merged_stream(self):
        fs_a, monitor_a = self._monitor("a2")
        fs_b, monitor_b = self._monitor("b2")
        relay = facility_relay([monitor_a, monitor_b])
        for index in range(3):
            fs_a.create(f"/a{index}")
            fs_b.create(f"/b{index}")
        monitor_a.drain()
        monitor_b.drain()
        relay.pump_once()
        assert relay.store.last_seq == 6
        since = relay.store.since(4)
        assert len(since) == 2

    def test_relay_covers_every_shard_of_a_sharded_monitor(self):
        """A relay over a 2-shard monitor delivers the same event set as
        a subscriber attached to the monitor directly."""
        from collections import Counter

        from repro.cluster import ClusterConfig, ClusterMonitor
        from repro.core.consumer import Consumer
        from repro.lustre import DnePolicy

        fs = LustreFilesystem(
            clock=ManualClock(), num_mds=2, mdts_per_mds=2,
            dne_policy=DnePolicy.ROUND_ROBIN,
        )
        monitor = ClusterMonitor(
            fs, ClusterConfig(num_shards=2, namespace="sharded-relay")
        )
        direct = []
        monitor.subscribe(
            lambda _seq, ev: direct.append((ev.event_type, ev.path))
        )
        relay = facility_relay([monitor], names=["site"])
        relayed = []
        consumer = Consumer(
            relay.context,
            lambda _seq, ev: relayed.append((ev.event_type, ev.path)),
            config=relay.config,
        )
        for index in range(8):
            fs.makedirs(f"/d{index}")
            fs.create(f"/d{index}/f")
        monitor.drain()
        relay.pump_once()
        consumer.poll_once()
        assert len(direct) == 16
        assert Counter(relayed) == Counter(direct)
        assert set(relay.relayed_counts) == {"site.shard0", "site.shard1"}
        assert all(count > 0 for count in relay.relayed_counts.values())

    def test_relay_can_also_accept_direct_batches(self):
        from repro.core import AggregatorConfig
        from repro.core.events import FileEvent

        relay = RelayAggregator(
            Context(),
            AggregatorConfig(
                inbound_endpoint="inproc://direct-agg",
                publish_endpoint="inproc://direct-events",
                api_endpoint="inproc://direct-api",
            ),
        )
        push = relay.context.push().connect("inproc://direct-agg")
        event = FileEvent(
            event_type=EventType.CREATED, path="/direct", is_dir=False,
            timestamp=0.0, name="direct", source="lustre",
        )
        push.send([event])
        assert relay.pump_once() == 1
        assert relay.store.last_seq == 1


class TestRelayOrderingProperty:
    def test_per_upstream_order_preserved(self):
        """Events from one filesystem keep their relative order through
        the relay, whatever the interleaving with other upstreams."""
        from repro.core import MonitorConfig

        def make(suffix):
            fs = LustreFilesystem(clock=ManualClock())
            return fs, LustreMonitor(fs, MonitorConfig(namespace=suffix))

        fs_a, mon_a = make("pa")
        fs_b, mon_b = make("pb")
        relay = facility_relay([mon_a, mon_b], names=["a", "b"])
        merged = []
        from repro.core.consumer import Consumer

        consumer = Consumer(
            relay.context, lambda seq, ev: merged.append(ev.path),
            config=relay.config,
        )
        # Interleave activity and drains irregularly.
        for round_index in range(6):
            for i in range(round_index + 1):
                fs_a.create(f"/a{round_index}_{i}")
            if round_index % 2 == 0:
                fs_b.create(f"/b{round_index}")
            mon_a.drain()
            if round_index % 3 == 0:
                mon_b.drain()
                relay.pump_once()
        mon_a.drain()
        mon_b.drain()
        relay.pump_once()
        consumer.poll_once()
        from_a = [p for p in merged if p.startswith("/a")]
        from_b = [p for p in merged if p.startswith("/b")]
        assert from_a == sorted(from_a, key=lambda p: (int(p[2:].split("_")[0]), int(p.split("_")[1])))
        assert from_b == sorted(from_b)
        assert len(merged) == len(from_a) + len(from_b)
