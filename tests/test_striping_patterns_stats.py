"""Tests for directory striping defaults, pattern handlers, stats API."""

import pytest

from repro.cluster import ClusterClient
from repro.core import LustreMonitor
from repro.fs.memfs import MemoryFilesystem
from repro.fs.watchdog import Observer, PatternMatchingEventHandler
from repro.lustre import LustreFilesystem
from repro.util.clock import ManualClock


class TestDirectoryStriping:
    @pytest.fixture
    def fs(self):
        return LustreFilesystem(
            clock=ManualClock(), num_oss=2, osts_per_oss=4,
            default_stripe_count=1,
        )

    def test_filesystem_default(self, fs):
        fs.create("/plain")
        assert fs.get_stripe("/") == 1

    def test_set_stripe_on_directory(self, fs):
        fs.mkdir("/wide")
        fs.set_stripe("/wide", 4)
        fs.create("/wide/big.dat", size=100)
        entry = fs._resolve("/wide/big.dat")
        assert entry.layout.stripe_count == 4

    def test_stripe_inherited_through_subdirectories(self, fs):
        fs.mkdir("/wide")
        fs.set_stripe("/wide", 4)
        fs.makedirs("/wide/sub/deeper")
        assert fs.get_stripe("/wide/sub/deeper") == 4

    def test_child_override_wins(self, fs):
        fs.mkdir("/wide")
        fs.set_stripe("/wide", 8)
        fs.mkdir("/wide/narrow")
        fs.set_stripe("/wide/narrow", 2)
        assert fs.get_stripe("/wide/narrow") == 2
        assert fs.get_stripe("/wide") == 8

    def test_per_file_override(self, fs):
        fs.create("/special.dat", stripe_count=3)
        entry = fs._resolve("/special.dat")
        assert entry.layout.stripe_count == 3

    def test_set_stripe_on_file_rejected(self, fs):
        from repro.errors import NotADirectory

        fs.create("/f")
        with pytest.raises(NotADirectory):
            fs.set_stripe("/f", 2)

    def test_invalid_stripe_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(ValueError):
            fs.set_stripe("/d", 0)

    def test_stripe_capped_at_ost_count(self, fs):
        fs.mkdir("/d")
        fs.set_stripe("/d", 99)
        fs.create("/d/f", size=100)
        assert fs._resolve("/d/f").layout.stripe_count == 8  # 2x4 OSTs


class TestPatternMatchingHandler:
    @pytest.fixture
    def fs(self):
        fs = MemoryFilesystem(clock=ManualClock())
        fs.mkdir("/w")
        return fs

    def _handler_events(self, fs, **kwargs):
        events = []

        class Recorder(PatternMatchingEventHandler):
            def on_any_event(self, event):
                events.append(event.src_path or event.dest_path)

        observer = Observer(fs)
        observer.schedule(Recorder(**kwargs), "/w")
        return events, observer

    def test_patterns_filter_in(self, fs):
        events, observer = self._handler_events(fs, patterns=["*.csv"])
        fs.create("/w/a.csv")
        fs.create("/w/b.txt")
        observer.drain()
        assert events == ["/w/a.csv"]

    def test_ignore_patterns_filter_out(self, fs):
        events, observer = self._handler_events(
            fs, ignore_patterns=["*.tmp", "*.swp"]
        )
        fs.create("/w/keep.dat")
        fs.create("/w/drop.tmp")
        observer.drain()
        assert events == ["/w/keep.dat"]

    def test_ignore_directories(self, fs):
        events, observer = self._handler_events(fs, ignore_directories=True)
        fs.mkdir("/w/sub")
        fs.create("/w/file")
        observer.drain()
        assert events == ["/w/file"]

    def test_moved_event_matches_on_either_name(self, fs):
        events, observer = self._handler_events(fs, patterns=["*.done"])
        fs.create("/w/job.running")
        observer.drain()
        events.clear()
        fs.rename("/w/job.running", "/w/job.done")
        observer.drain()
        assert events == ["/w/job.running"]  # src_path recorded; matched via dest


class TestStatsApi:
    def test_client_stats(self):
        fs = LustreFilesystem(clock=ManualClock())
        monitor = LustreMonitor(fs)
        client = ClusterClient.for_cluster(monitor)
        for index in range(7):
            fs.create(f"/f{index}")
        monitor.drain()
        stats = client.stats()["per_shard"]["shard0"]
        assert stats["events_stored"] == 7
        assert stats["store_last_seq"] == 7
        assert stats["store_len"] == 7
        assert stats["store_memory_bytes"] > 0
