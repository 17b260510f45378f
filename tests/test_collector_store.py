"""Tests for the Collector and the rotating EventStore."""

import pytest

from repro.core.collector import CallbackSink, Collector, CollectorConfig
from repro.core.events import EventType, FileEvent
from repro.core.processor import ProcessorConfig
from repro.core.store import BYTES_PER_EVENT, EventStore
from repro.lustre import LustreFilesystem
from repro.util.clock import ManualClock


def make_event(path="/f", event_type=EventType.CREATED, timestamp=0.0):
    return FileEvent(
        event_type=event_type, path=path, is_dir=False,
        timestamp=timestamp, name=path.rsplit("/", 1)[-1], source="lustre",
    )


@pytest.fixture
def fs():
    fs = LustreFilesystem(clock=ManualClock())
    fs.makedirs("/d")
    return fs


def make_collector(fs, sink=None, **kwargs):
    received = []
    sink = sink or CallbackSink(received.extend)
    collector = Collector(
        name="mds0",
        filesystem=fs,
        mds=fs.cluster.servers[0],
        sink=sink,
        config=CollectorConfig(**kwargs),
    )
    return collector, received


class TestCollectorBasics:
    def test_registration_starts_at_tail(self, fs):
        fs.create("/d/before")  # happens before the collector exists
        collector, received = make_collector(fs)
        collector.poll_once()
        assert received == []

    def test_poll_reports_events_in_order(self, fs):
        collector, received = make_collector(fs)
        for index in range(5):
            fs.create(f"/d/f{index}")
        collector.poll_once()
        assert [e.name for e in received] == [f"f{i}" for i in range(5)]

    def test_poll_respects_read_batch(self, fs):
        collector, received = make_collector(fs, read_batch=2)
        for index in range(5):
            fs.create(f"/d/f{index}")
        assert collector.poll_once() == 2
        assert collector.drain() == 3

    def test_changelog_purged_after_report(self, fs):
        collector, _received = make_collector(fs)
        for index in range(5):
            fs.create(f"/d/f{index}")
        collector.poll_once()
        assert fs.changelogs()[0].backlog == 0

    def test_counters(self, fs):
        collector, _received = make_collector(fs)
        fs.create("/d/f")
        fs.unlink("/d/f")
        collector.drain()
        assert collector.records_read == 2
        assert collector.events_reported == 2


class TestReportFailureHandling:
    class FlakySink:
        def __init__(self, fail_times):
            self.fail_times = fail_times
            self.batches = []

        def send(self, payload):
            if self.fail_times > 0:
                self.fail_times -= 1
                raise ConnectionError("injected")
            self.batches.append(list(payload))

    def test_failed_report_does_not_purge(self, fs):
        sink = self.FlakySink(fail_times=1)
        collector, _ = make_collector(fs, sink=sink)
        fs.create("/d/f")
        collector.poll_once()
        assert collector.report_failures == 1
        # The CREAT record is retained (plus the pre-registration MKDIR,
        # which purges only once a clear advances the horizon).
        assert fs.changelogs()[0].backlog == 2

    def test_retry_redelivers_same_events(self, fs):
        sink = self.FlakySink(fail_times=2)
        collector, _ = make_collector(fs, sink=sink)
        fs.create("/d/f")
        collector.poll_once()
        collector.poll_once()
        collector.poll_once()
        assert len(sink.batches) == 1
        assert sink.batches[0][0].name == "f"
        assert fs.changelogs()[0].backlog == 0

    def test_no_events_lost_under_intermittent_failures(self, fs):
        sink = self.FlakySink(fail_times=0)
        collector, _ = make_collector(fs, sink=sink, read_batch=3)
        names = []
        for index in range(10):
            fs.create(f"/d/f{index}")
            names.append(f"f{index}")
        # Fail every other poll round.
        rounds = 0
        while fs.changelogs()[0].backlog or rounds < 2:
            sink.fail_times = 1 if rounds % 2 == 0 else 0
            collector.poll_once()
            rounds += 1
            if rounds > 50:
                break
        reported = [e.name for batch in sink.batches for e in batch]
        assert reported == names


class TestMultiMdt:
    def test_collector_covers_all_mdts_of_its_mds(self):
        from repro.lustre import DnePolicy

        fs = LustreFilesystem(
            num_mds=1, mdts_per_mds=2, dne_policy=DnePolicy.ROUND_ROBIN,
            clock=ManualClock(),
        )
        collector, received = make_collector(fs)
        fs.mkdir("/a")  # mdt 0
        fs.mkdir("/b")  # mdt 1
        fs.create("/a/f")
        fs.create("/b/g")
        collector.drain()
        mdts = {e.mdt_index for e in received}
        assert mdts == {0, 1}

    def test_shutdown_deregisters_users(self, fs):
        collector, _ = make_collector(fs)
        changelog = fs.changelogs()[0]
        assert len(changelog.users) == 1
        collector.shutdown()
        assert changelog.users == []


class TestLiveCollector:
    def test_threaded_collection(self, fs):
        import time

        collector, received = make_collector(fs)
        collector.start()
        try:
            for index in range(10):
                fs.create(f"/d/f{index}")
            deadline = time.time() + 3
            while len(received) < 10 and time.time() < deadline:
                time.sleep(0.005)
        finally:
            collector.stop()
        assert [e.name for e in received] == [f"f{i}" for i in range(10)]


class TestEventStore:
    def test_append_assigns_sequences(self):
        store = EventStore()
        assert store.append(make_event()) == 1
        assert store.append(make_event()) == 2
        assert store.last_seq == 2

    def test_rotation_evicts_oldest(self):
        store = EventStore(max_events=3)
        for index in range(5):
            store.append(make_event(f"/f{index}"))
        assert len(store) == 3
        assert store.total_rotated == 2
        assert store.oldest_retained_seq == 3

    def test_since_returns_newer_events(self):
        store = EventStore()
        for index in range(5):
            store.append(make_event(f"/f{index}"))
        newer = store.since(3)
        assert [seq for seq, _ in newer] == [4, 5]

    def test_since_with_limit(self):
        store = EventStore()
        for index in range(5):
            store.append(make_event(f"/f{index}"))
        assert len(store.since(0, limit=2)) == 2

    def test_recent(self):
        store = EventStore()
        for index in range(5):
            store.append(make_event(f"/f{index}"))
        recent = store.recent(2)
        assert [event.path for _seq, event in recent] == ["/f3", "/f4"]

    def test_query_by_prefix(self):
        store = EventStore()
        store.append(make_event("/a/one"))
        store.append(make_event("/b/two"))
        matches = store.query(path_prefix="/a")
        assert [event.path for _seq, event in matches] == ["/a/one"]

    def test_query_by_type(self):
        store = EventStore()
        store.append(make_event("/a", EventType.CREATED))
        store.append(make_event("/a", EventType.DELETED))
        matches = store.query(event_type=EventType.DELETED)
        assert len(matches) == 1

    def test_query_by_time_window(self):
        store = EventStore()
        store.append(make_event("/a", timestamp=1.0))
        store.append(make_event("/b", timestamp=5.0))
        store.append(make_event("/c", timestamp=9.0))
        matches = store.query(since_time=2.0, until_time=8.0)
        assert [event.path for _seq, event in matches] == ["/b"]

    def test_query_limit(self):
        store = EventStore()
        for index in range(10):
            store.append(make_event(f"/f{index}"))
        assert len(store.query(limit=4)) == 4

    def test_extend(self):
        store = EventStore()
        seqs = store.extend([make_event("/a"), make_event("/b")])
        assert seqs == [1, 2]

    def test_memory_estimate_scales_with_retention(self):
        store = EventStore(max_events=100)
        for index in range(200):
            store.append(make_event(f"/f{index}"))
        assert store.approximate_memory_bytes() == 100 * BYTES_PER_EVENT

    def test_invalid_max_events_rejected(self):
        with pytest.raises(ValueError):
            EventStore(max_events=0)

    def test_negative_recent_rejected(self):
        with pytest.raises(ValueError):
            EventStore().recent(-1)


class TestIndexedQuery:
    """query() must scan only the candidate set the indexes surface."""

    def _mixed_store(self, n=1000, max_events=None):
        store = EventStore(**({"max_events": max_events} if max_events else {}))
        types = [EventType.CREATED, EventType.DELETED, EventType.MODIFIED]
        store.extend(
            [
                make_event(f"/d{i % 3}/f{i}", types[i % 3], timestamp=float(i))
                for i in range(n)
            ]
        )
        return store

    def test_typed_query_scans_only_that_bucket(self):
        store = self._mixed_store(900)
        store.query(event_type=EventType.DELETED)  # settle lazy rebuilds
        store.reset_op_counters()
        matches = store.query(event_type=EventType.DELETED)
        assert len(matches) == 300
        assert store.events_scanned == 300  # not 900

    def test_time_window_query_binary_searches_bounds(self):
        store = self._mixed_store(1000)
        store.query()  # settle
        store.reset_op_counters()
        matches = store.query(since_time=100.0, until_time=109.0)
        assert [event.timestamp for _seq, event in matches] == [
            float(t) for t in range(100, 110)
        ]
        assert store.events_scanned == 10  # not 1000

    def test_typed_time_window_combines_both_indexes(self):
        store = self._mixed_store(900)
        store.reset_op_counters()
        matches = store.query(
            event_type=EventType.CREATED, since_time=0.0, until_time=89.0
        )
        assert all(
            event.event_type is EventType.CREATED for _seq, event in matches
        )
        assert len(matches) == 30
        assert store.events_scanned == 30

    def test_time_window_merge_preserves_sequence_order(self):
        store = self._mixed_store(300)
        matches = store.query(since_time=50.0, until_time=250.0)
        seqs = [seq for seq, _event in matches]
        assert seqs == sorted(seqs)

    def test_indexed_query_equals_full_scan(self):
        store = self._mixed_store(300, max_events=200)  # with rotation
        cases = [
            {},
            {"event_type": EventType.DELETED},
            {"since_time": 120.0},
            {"until_time": 250.0},
            {"since_time": 150.0, "until_time": 220.0},
            {"event_type": EventType.CREATED, "since_time": 180.0},
            {"path_prefix": "/d1"},
            {"path_prefix": "/d2", "event_type": EventType.MODIFIED,
             "since_time": 110.0, "until_time": 290.0},
            {"event_type": EventType.DELETED, "limit": 5},
        ]
        for kwargs in cases:
            indexed = store.query(**kwargs)
            linear = [
                (seq, event)
                for seq, event in store.since(0)
                if (kwargs.get("event_type") is None
                    or event.event_type is kwargs["event_type"])
                and (kwargs.get("since_time") is None
                     or event.timestamp >= kwargs["since_time"])
                and (kwargs.get("until_time") is None
                     or event.timestamp <= kwargs["until_time"])
                and (kwargs.get("path_prefix") is None
                     or event.matches_prefix(kwargs["path_prefix"]))
            ]
            if kwargs.get("limit") is not None:
                linear = linear[: kwargs["limit"]]
            assert indexed == linear, kwargs

    def test_rotation_keeps_buckets_consistent(self):
        store = self._mixed_store(500, max_events=120)
        assert store.total_rotated == 380
        matches = store.query(event_type=EventType.CREATED)
        retained = store.since(0)
        expected = [
            (seq, event) for seq, event in retained
            if event.event_type is EventType.CREATED
        ]
        assert matches == expected

    def test_non_monotone_timestamps_fall_back_to_full_scan(self):
        store = EventStore()
        store.extend(
            [
                make_event("/a", timestamp=5.0),
                make_event("/b", timestamp=1.0),  # goes backwards
                make_event("/c", timestamp=9.0),
            ]
        )
        matches = store.query(since_time=0.0, until_time=2.0)
        assert [event.path for _seq, event in matches] == ["/b"]

    def test_hand_mutated_window_is_reindexed(self):
        # Restores and tests build stores by touching _events directly;
        # the first query must notice and rebuild the buckets.
        store = EventStore()
        store._events.extend(
            [(1, make_event("/a", EventType.CREATED)),
             (2, make_event("/b", EventType.DELETED))]
        )
        store._next_seq = 3
        matches = store.query(event_type=EventType.DELETED)
        assert [event.path for _seq, event in matches] == ["/b"]

    def test_load_restores_query_index(self, tmp_path):
        store = self._mixed_store(90)
        path = str(tmp_path / "events.jsonl")
        store.save(path)
        restored = EventStore.load(path)
        assert restored.query(event_type=EventType.MODIFIED) == store.query(
            event_type=EventType.MODIFIED
        )

    def test_query_for_absent_type_scans_nothing(self):
        store = self._mixed_store(300)
        store.reset_op_counters()
        assert store.query(event_type=EventType.ATTRIB) == []
        assert store.events_scanned == 0
