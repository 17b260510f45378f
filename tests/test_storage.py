"""Tests for the pluggable EventStore durability backends.

Covers the storage layer end to end:

* the binary record codec shared with the wire framing: roundtrip of
  full and minimal events, multi-record buffers, torn-data rejection;
* store URL parsing (`memory://` / `segments:///path?...`) and the
  per-shard URL derivation used by the cluster tier;
* the segment log itself: append/recover roundtrip, rotation,
  torn-tail and corrupt-CRC truncation, checkpointing via
  ``mark_snapshotted``, floor-driven compaction;
* the durable EventStore: crash recovery (window, sequence counter,
  lifetime totals, query answers), ``discard_after`` replay trimming
  with last-wins dedup, snapshot+truncate ``save``/``load``;
* the satellite regressions: ``load`` rebuilding the query index
  (``_last_ts`` / monotone fast path) and ``save`` counting its lock
  acquisitions;
* hypothesis properties: memory ≡ segments behavioural equivalence,
  and save/load → query/extend roundtrip on both backends;
* the multiproc bridge over a durable store: a SIGKILL'd child
  recovers its full history from its own log (not just the parent's
  ack-window replay), and the cluster-level SIGKILL-under-load run
  delivers exactly the memory-backend event set.
"""

import os
import shutil
import struct
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterClient, ClusterConfig, ClusterMonitor
from repro.core import AggregatorConfig
from repro.core.events import EventType, FileEvent
from repro.core.store import EventStore
from repro.core.storage import (
    MemoryBackend,
    SegmentLogBackend,
    backend_from_url,
    open_store,
    shard_store_url,
)
from repro.lustre import LustreFilesystem
from repro.lustre.mds import DnePolicy
from repro.msgq import make_transport
from repro.msgq.framing import pack_entry, unpack_entry
from repro.util.clock import ManualClock


def make_event(path="/f", event_type=EventType.CREATED, timestamp=1.0):
    return FileEvent(
        event_type=event_type,
        path=path,
        is_dir=False,
        timestamp=timestamp,
        name=path.rsplit("/", 1)[-1],
        source="lustre",
    )


def full_event():
    return FileEvent(
        event_type=EventType.MOVED,
        path="/proj/data/run-42.h5",
        is_dir=False,
        timestamp=1723.5,
        name="run-42.h5",
        source="mds0",
        fid="0x200000401:0x1:0x0",
        parent_fid="0x200000400:0x2:0x0",
        mdt_index=3,
        record_index=9001,
        record_type="RNMTO",
        old_path="/proj/tmp/run-42.h5.part",
        jobid="slurm.1234",
    )


# ---------------------------------------------------------------------------
# Binary record codec (shared layout with the wire framing)
# ---------------------------------------------------------------------------


class TestRecordCodec:
    def test_full_event_roundtrips(self):
        body = pack_entry(7, full_event())
        seq, event, consumed = unpack_entry(body)
        assert seq == 7
        assert consumed == len(body)
        assert event == full_event()

    def test_minimal_event_roundtrips(self):
        minimal = FileEvent(
            event_type=EventType.OTHER, path="", is_dir=True,
            timestamp=0.0, name="", source="",
        )
        seq, event, consumed = unpack_entry(pack_entry(1, minimal))
        assert seq == 1
        assert event == minimal

    def test_multi_record_buffer_advances_offset(self):
        events = [make_event(f"/f{i}", timestamp=float(i)) for i in range(5)]
        blob = b"".join(pack_entry(i + 1, e) for i, e in enumerate(events))
        offset = 0
        decoded = []
        while offset < len(blob):
            seq, event, offset = unpack_entry(blob, offset)
            decoded.append((seq, event))
        assert decoded == list(enumerate(events, start=1))

    def test_torn_buffer_raises(self):
        body = pack_entry(1, full_event())
        with pytest.raises((struct.error, IndexError, ValueError)):
            unpack_entry(body[: len(body) // 2])


# ---------------------------------------------------------------------------
# Store URLs
# ---------------------------------------------------------------------------


class TestStoreUrls:
    def test_memory_url(self):
        backend = backend_from_url("memory://")
        assert isinstance(backend, MemoryBackend)
        assert not backend.durable

    def test_segments_url(self, tmp_path):
        backend = backend_from_url(f"segments://{tmp_path}/log")
        try:
            assert isinstance(backend, SegmentLogBackend)
            assert backend.durable
            assert backend.directory == f"{tmp_path}/log"
        finally:
            backend.close()

    def test_segments_url_parameters(self, tmp_path):
        backend = backend_from_url(
            f"segments://{tmp_path}/log"
            "?segment_bytes=4096&fsync=always&compact_interval=0"
        )
        try:
            assert backend.segment_bytes == 4096
            assert backend.fsync_policy == "always"
            assert backend.compact_interval == 0
        finally:
            backend.close()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown store URL scheme"):
            backend_from_url("sqlite:///nope.db")

    def test_unknown_parameter_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store URL parameter"):
            backend_from_url(f"segments://{tmp_path}/log?bogus=1")

    def test_segments_url_needs_directory(self):
        with pytest.raises(ValueError, match="needs a directory"):
            backend_from_url("segments://")

    def test_shard_url_memory_passthrough(self):
        assert shard_store_url("memory://", "shard0") == "memory://"

    def test_shard_url_gains_path_component(self):
        assert (
            shard_store_url("segments:///var/log/repro", "shard1")
            == "segments:///var/log/repro/shard1"
        )

    def test_shard_url_preserves_query(self):
        assert (
            shard_store_url("segments:///d?fsync=always", "s0")
            == "segments:///d/s0?fsync=always"
        )

    def test_aggregator_config_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="store_url scheme"):
            AggregatorConfig(store_url="redis://nope")


# ---------------------------------------------------------------------------
# Segment log backend
# ---------------------------------------------------------------------------


def _segment_files(directory):
    return sorted(
        name for name in os.listdir(directory) if name.endswith(".seg")
    )


class TestSegmentBackend:
    def test_append_recover_roundtrip(self, tmp_path):
        directory = str(tmp_path / "log")
        backend = SegmentLogBackend(directory)
        events = [make_event(f"/a/{i}", timestamp=float(i)) for i in range(10)]
        backend.append(1, events[:4])
        backend.append(5, events[4:])
        backend.close()

        recovered = SegmentLogBackend(directory).recover(max_events=100)
        assert recovered is not None
        assert [seq for seq, _ in recovered.entries] == list(range(1, 11))
        assert [e.path for _, e in recovered.entries] == [
            e.path for e in events
        ]
        assert recovered.next_seq == 11
        assert recovered.total_stored == 10
        assert recovered.total_rotated == 0

    def test_recover_empty_directory_returns_none(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path / "log"))
        assert backend.recover(max_events=10) is None

    def test_recover_caps_window_and_counts_rotated(self, tmp_path):
        directory = str(tmp_path / "log")
        backend = SegmentLogBackend(directory)
        backend.append(1, [make_event(f"/f{i}") for i in range(20)])
        backend.close()
        recovered = SegmentLogBackend(directory).recover(max_events=5)
        assert [seq for seq, _ in recovered.entries] == [16, 17, 18, 19, 20]
        assert recovered.total_stored == 20
        assert recovered.total_rotated == 15

    def test_rotation_at_segment_bytes(self, tmp_path):
        directory = str(tmp_path / "log")
        backend = SegmentLogBackend(directory, segment_bytes=512)
        for batch in range(10):
            backend.append(
                batch * 5 + 1,
                [make_event(f"/r/{batch}/{i}") for i in range(5)],
            )
        stats = backend.stats()
        assert stats["rotations"] >= 1
        assert stats["segments"] >= 2
        backend.close()
        # Rotation never loses records.
        recovered = SegmentLogBackend(directory).recover(max_events=1000)
        assert len(recovered.entries) == 50

    def test_torn_tail_truncated_on_recovery(self, tmp_path):
        directory = str(tmp_path / "log")
        backend = SegmentLogBackend(directory)
        backend.append(1, [make_event(f"/t/{i}") for i in range(4)])
        backend.close()
        # Tear the last record: chop bytes off the only segment file.
        path = os.path.join(directory, _segment_files(directory)[-1])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)
        fresh = SegmentLogBackend(directory)
        recovered = fresh.recover(max_events=100)
        assert [seq for seq, _ in recovered.entries] == [1, 2, 3]
        assert fresh.torn_records == 1

    def test_corrupt_crc_stops_scan(self, tmp_path):
        directory = str(tmp_path / "log")
        backend = SegmentLogBackend(directory)
        backend.append(1, [make_event(f"/c/{i}") for i in range(3)])
        backend.close()
        path = os.path.join(directory, _segment_files(directory)[-1])
        # Flip one byte inside the second record's body: 16-byte header,
        # then frame+body per record — corrupt somewhere past the first.
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            first_len = struct.unpack_from("<I", data, 16)[0]
            target = 16 + 8 + first_len + 8 + 4  # inside record 2's body
            data[target] ^= 0xFF
            fh.seek(0)
            fh.write(data)
        fresh = SegmentLogBackend(directory)
        recovered = fresh.recover(max_events=100)
        assert [seq for seq, _ in recovered.entries] == [1]
        assert fresh.torn_records == 1

    def test_mark_snapshotted_gcs_covered_segments(self, tmp_path):
        directory = str(tmp_path / "log")
        backend = SegmentLogBackend(directory)
        backend.append(1, [make_event(f"/s/{i}") for i in range(6)])
        backend.mark_snapshotted(last_seq=6, total_stored=6)
        # The covered segment is gone (a fresh header-only active
        # segment may exist).
        assert "00000001.seg" not in _segment_files(directory)
        assert backend.stats()["compacted_segments"] >= 1
        backend.append(7, [make_event("/s/late")])
        backend.close()
        recovered = SegmentLogBackend(directory).recover(max_events=100)
        # The snapshot-covered prefix is gone from the log but still
        # accounted for in the lifetime totals.
        assert [seq for seq, _ in recovered.entries] == [7]
        assert recovered.total_stored == 7
        assert recovered.next_seq == 8

    def test_floor_compaction_gcs_rotated_segments(self, tmp_path):
        directory = str(tmp_path / "log")
        backend = SegmentLogBackend(directory, segment_bytes=256)
        seq = 1
        for batch in range(12):
            backend.append(seq, [make_event(f"/fc/{batch}/{i}") for i in range(3)])
            seq += 3
        before = backend.stats()["segments"]
        assert before >= 2
        backend.note_floor(seq - 2)  # everything but the tail is dead
        stats = backend.stats()
        assert stats["compacted_segments"] >= 1
        assert stats["segments"] < before
        backend.close()
        recovered = SegmentLogBackend(directory).recover(max_events=100)
        # Compaction preserves the lifetime count and the live tail.
        assert recovered.total_stored == 36
        assert recovered.entries[-1][0] == 36

    def test_background_compactor_thread(self, tmp_path):
        directory = str(tmp_path / "log")
        backend = SegmentLogBackend(
            directory, segment_bytes=256, compact_interval=0.02
        )
        seq = 1
        for batch in range(12):
            backend.append(seq, [make_event(f"/bg/{batch}/{i}") for i in range(3)])
            seq += 3
        backend.note_floor(seq - 2)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if backend.stats()["compacted_segments"] >= 1:
                break
            backend._compactor_wake.set()
            time.sleep(0.01)
        assert backend.stats()["compacted_segments"] >= 1
        backend.close()

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            SegmentLogBackend(str(tmp_path / "a"), fsync="sometimes")
        with pytest.raises(ValueError, match="segment_bytes"):
            SegmentLogBackend(str(tmp_path / "b"), segment_bytes=4)
        with pytest.raises(ValueError, match="compact_interval"):
            SegmentLogBackend(str(tmp_path / "c"), compact_interval=-1)

    def test_fsync_always_counts_syncs(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path / "log"), fsync="always")
        backend.append(1, [make_event("/f1")])
        backend.append(2, [make_event("/f2")])
        assert backend.stats()["fsyncs"] >= 2
        backend.close()


# ---------------------------------------------------------------------------
# Durable EventStore
# ---------------------------------------------------------------------------


class TestDurableEventStore:
    def test_crash_recovery_restores_everything(self, tmp_path):
        url = f"segments://{tmp_path}/store"
        store = open_store(url, max_events=100)
        events = [make_event(f"/cr/{i}", timestamp=float(i)) for i in range(25)]
        store.extend(events[:10])
        store.extend(events[10:])
        # Simulated crash: no close(), no fsync beyond policy.
        del store

        recovered = open_store(url, max_events=100)
        assert len(recovered) == 25
        assert recovered.last_seq == 25
        assert recovered.total_stored == 25
        assert recovered.total_rotated == 0
        assert [e.path for _, e in recovered.since(0)] == [
            e.path for e in events
        ]
        # Numbering resumes, not restarts.
        assert recovered.extend([make_event("/cr/next")]) == [26]
        recovered.close()

    def test_recovery_caps_window_counts_rotated(self, tmp_path):
        url = f"segments://{tmp_path}/store"
        store = open_store(url, max_events=10)
        store.extend([make_event(f"/w/{i}") for i in range(30)])
        assert store.total_rotated == 20
        del store
        recovered = open_store(url, max_events=10)
        assert len(recovered) == 10
        assert recovered.total_stored == 30
        assert recovered.total_rotated == 20
        assert recovered.oldest_retained_seq == 21
        recovered.close()

    def test_recovered_store_answers_queries_identically(self, tmp_path):
        url = f"segments://{tmp_path}/store"
        store = open_store(url, max_events=50)
        types = list(EventType)
        events = [
            make_event(f"/q/{i}", types[i % len(types)], timestamp=float(i))
            for i in range(40)
        ]
        store.extend(events)
        expected_since = store.since(5)
        expected_recent = store.recent(7)
        expected_typed = store.query(event_type=EventType.CREATED)
        expected_window = store.query(since_time=10.0, until_time=30.0)
        expected_both = store.query(
            event_type=EventType.DELETED, since_time=3.0, until_time=33.0
        )
        del store
        recovered = open_store(url, max_events=50)
        assert recovered.since(5) == expected_since
        assert recovered.recent(7) == expected_recent
        assert recovered.query(event_type=EventType.CREATED) == expected_typed
        assert (
            recovered.query(since_time=10.0, until_time=30.0)
            == expected_window
        )
        assert (
            recovered.query(
                event_type=EventType.DELETED, since_time=3.0, until_time=33.0
            )
            == expected_both
        )
        recovered.close()

    def test_discard_after_replay_dedups_last_wins(self, tmp_path):
        url = f"segments://{tmp_path}/store"
        store = open_store(url, max_events=100)
        store.extend([make_event(f"/d/{i}", timestamp=float(i)) for i in range(8)])
        # Parent acked through seq 5; trim and replay 6..8 with
        # different payloads (the replayed batch is authoritative).
        assert store.discard_after(5) == 3
        assert store.last_seq == 5
        replayed = [
            make_event(f"/d/replay{i}", timestamp=10.0 + i) for i in range(3)
        ]
        assert store.extend(replayed) == [6, 7, 8]
        del store
        recovered = open_store(url, max_events=100)
        assert len(recovered) == 8
        assert [e.path for _, e in recovered.since(5)] == [
            "/d/replay0", "/d/replay1", "/d/replay2",
        ]
        recovered.close()

    def test_save_truncates_log(self, tmp_path):
        url = f"segments://{tmp_path}/store"
        snapshot = str(tmp_path / "snap.jsonl")
        store = open_store(url, max_events=100)
        store.extend([make_event(f"/sv/{i}") for i in range(10)])
        store.save(snapshot)
        stats = store.backend.stats()
        assert stats["checkpoint_seq"] == 10
        # Appends after the snapshot land in a fresh log tail.
        store.extend([make_event("/sv/after")])
        del store
        recovered = open_store(url, max_events=100)
        # The log alone still reproduces the post-snapshot tail...
        assert recovered.last_seq == 11
        assert [e.path for _, e in recovered.since(10)] == ["/sv/after"]
        # ...while the snapshot-covered prefix needs load().
        assert recovered.total_stored == 11
        recovered.close()

    def test_load_merges_snapshot_with_log_tail(self, tmp_path):
        url = f"segments://{tmp_path}/store"
        snapshot = str(tmp_path / "snap.jsonl")
        store = open_store(url, max_events=100)
        store.extend([make_event(f"/m/{i}", timestamp=float(i)) for i in range(6)])
        store.save(snapshot)
        store.extend(
            [make_event(f"/m/post{i}", timestamp=10.0 + i) for i in range(3)]
        )
        del store  # crash after post-snapshot appends

        restored = EventStore.load(
            snapshot, backend=backend_from_url(url)
        )
        assert restored.last_seq == 9
        assert len(restored) == 9
        assert [e.path for _, e in restored.since(6)] == [
            "/m/post0", "/m/post1", "/m/post2",
        ]
        # The merged window was adopted back into the log: recovery
        # without the snapshot now reproduces the whole store.
        restored.close()
        replayed = open_store(url, max_events=100)
        assert replayed.last_seq == 9
        assert len(replayed) == 9
        replayed.close()

    def test_memory_store_save_load_unchanged(self, tmp_path):
        snapshot = str(tmp_path / "snap.jsonl")
        store = EventStore(max_events=10)
        store.extend([make_event(f"/mm/{i}") for i in range(4)])
        store.save(snapshot)
        restored = EventStore.load(snapshot)
        assert restored.since(0) == store.since(0)
        assert isinstance(restored.backend, MemoryBackend)


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


class TestLoadIndexRegression:
    """`load` used to leave `_last_ts=-inf`, `_ts_monotone=True` and
    empty buckets with `_index_dirty=False` — restored stores could
    binary-search unindexed data and mis-judge monotonicity."""

    def test_load_recomputes_last_ts(self, tmp_path):
        snapshot = str(tmp_path / "snap.jsonl")
        store = EventStore(max_events=100)
        store.extend(
            [make_event(f"/ts/{i}", timestamp=float(i)) for i in range(5)]
        )
        store.save(snapshot)
        restored = EventStore.load(snapshot)
        assert restored._last_ts == 4.0
        assert restored._ts_monotone is True
        assert restored._index_dirty is False
        assert restored._indexed_events == len(restored._events)

    def test_extend_after_load_detects_non_monotone_append(self, tmp_path):
        snapshot = str(tmp_path / "snap.jsonl")
        store = EventStore(max_events=100)
        store.extend(
            [make_event(f"/ts/{i}", timestamp=float(i + 10)) for i in range(5)]
        )
        store.save(snapshot)
        restored = EventStore.load(snapshot)
        # Older than every restored timestamp: against the stale
        # `-inf` this looked monotone and the time-window fast path
        # would bisect out-of-order data.
        restored.extend([make_event("/ts/stale", timestamp=1.0)])
        assert restored._ts_monotone is False
        matched = restored.query(since_time=0.0, until_time=5.0)
        assert [e.path for _, e in matched] == ["/ts/stale"]

    def test_time_window_query_right_after_load(self, tmp_path):
        snapshot = str(tmp_path / "snap.jsonl")
        store = EventStore(max_events=100)
        store.extend(
            [make_event(f"/w/{i}", timestamp=float(i)) for i in range(20)]
        )
        store.save(snapshot)
        expected = store.query(since_time=5.0, until_time=12.0)
        restored = EventStore.load(snapshot)
        assert restored.query(since_time=5.0, until_time=12.0) == expected

    def test_typed_query_right_after_load(self, tmp_path):
        snapshot = str(tmp_path / "snap.jsonl")
        store = EventStore(max_events=100)
        types = list(EventType)
        store.extend(
            [
                make_event(f"/t/{i}", types[i % len(types)], float(i))
                for i in range(30)
            ]
        )
        store.save(snapshot)
        expected = store.query(event_type=EventType.MODIFIED)
        restored = EventStore.load(snapshot)
        assert restored.query(event_type=EventType.MODIFIED) == expected


class TestSaveLockCounter:
    """`save` used to take the store lock without counting it."""

    def test_save_counts_lock_acquisitions(self, tmp_path):
        snapshot = str(tmp_path / "snap.jsonl")
        store = EventStore(max_events=10)
        store.extend([make_event("/lc/a")])
        before = store.lock_acquisitions
        store.save(snapshot)
        assert store.lock_acquisitions > before


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

_TYPES = list(EventType)

_event_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_TYPES) - 1),  # type
        st.integers(min_value=0, max_value=50),  # timestamp
        st.integers(min_value=0, max_value=9),  # path bucket
    ),
    min_size=0,
    max_size=60,
)


def _build_events(spec):
    return [
        make_event(
            f"/p{bucket}/e{index}", _TYPES[type_index], float(ts)
        )
        for index, (type_index, ts, bucket) in enumerate(spec)
    ]


def _probe(store):
    """A store's observable face: every retrieval surface at once."""
    return {
        "len": len(store),
        "last_seq": store.last_seq,
        "total_stored": store.total_stored,
        "total_rotated": store.total_rotated,
        "since": store.since(2),
        "since_limited": store.since(0, limit=5),
        "recent": store.recent(7),
        "typed": store.query(event_type=EventType.CREATED),
        "window": store.query(since_time=10.0, until_time=35.0),
        "typed_window": store.query(
            event_type=EventType.MODIFIED, since_time=5.0, until_time=40.0
        ),
        "prefix": store.query(path_prefix="/p3"),
    }


class TestEquivalenceProperties:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(spec=_event_specs, max_events=st.integers(min_value=1, max_value=40))
    def test_memory_equals_segments(self, spec, max_events):
        """The pinning property: a segment-backed store is offline
        behaviourally identical to the historical in-memory store."""
        events = _build_events(spec)
        memory = EventStore(max_events=max_events)
        directory = tempfile.mkdtemp(prefix="repro-eqv-")
        try:
            segments = open_store(
                f"segments://{directory}", max_events=max_events
            )
            for start in range(0, len(events), 7):
                batch = events[start:start + 7]
                memory.extend(batch)
                segments.extend(batch)
            assert _probe(memory) == _probe(segments)
            segments.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(spec=_event_specs, max_events=st.integers(min_value=1, max_value=40))
    def test_save_load_roundtrip_memory(self, spec, max_events):
        events = _build_events(spec)
        store = EventStore(max_events=max_events)
        store.extend(events)
        directory = tempfile.mkdtemp(prefix="repro-rt-")
        try:
            snapshot = os.path.join(directory, "snap.jsonl")
            store.save(snapshot)
            restored = EventStore.load(snapshot)
            assert _probe(restored) == _probe(store)
            # The restored store keeps behaving after new appends.
            tail = [make_event("/p0/post", timestamp=100.0)]
            assert restored.extend(tail) == store.extend(tail)
            assert _probe(restored) == _probe(store)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(spec=_event_specs, max_events=st.integers(min_value=1, max_value=40))
    def test_save_load_roundtrip_segments(self, spec, max_events):
        events = _build_events(spec)
        directory = tempfile.mkdtemp(prefix="repro-rts-")
        try:
            url = f"segments://{directory}/log"
            store = open_store(url, max_events=max_events)
            store.extend(events)
            snapshot = os.path.join(directory, "snap.jsonl")
            store.save(snapshot)
            expected = _probe(store)
            store.close()
            restored = EventStore.load(snapshot, backend=backend_from_url(url))
            assert _probe(restored) == expected
            restored.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# Multiproc bridge + cluster over a durable store
# ---------------------------------------------------------------------------


class TestDurableBridge:
    def test_killed_child_recovers_full_history_from_log(self, tmp_path):
        """With a durable store the respawned child serves its *entire*
        history — the memory backend only gets back the unacked tail
        the parent replays."""
        transport = make_transport("multiproc")
        config = AggregatorConfig(
            shard_label="s0",
            trace_sample_rate=0.0,
            store_url=f"segments://{tmp_path}/s0",
        )
        bridge = transport.process_shard("s0", config)
        try:
            push = transport.push().connect(config.inbound_endpoint)
            push.send([make_event(f"/h/{i}") for i in range(8)])
            assert self._pump(bridge, lambda: bridge.events_stored == 8)

            bridge.kill_child()
            push.send([make_event(f"/h/{i}") for i in range(8, 11)])
            assert self._pump(bridge, lambda: bridge.events_stored == 11)

            client = ClusterClient.for_aggregator(
                transport, bridge, timeout=10.0
            )
            page = client.page(limit=100)
            # All eleven, exactly once, originals + post-kill tail.
            assert [seq for _, seq, _ in page] == list(range(1, 12))
            assert [e.path for _, _, e in page] == [
                f"/h/{i}" for i in range(11)
            ]
        finally:
            transport.close()

    @staticmethod
    def _pump(bridge, predicate, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            bridge.pump_once()
            if predicate() and not bridge.busy:
                return True
            time.sleep(0.002)
        return predicate()


def _run_kill_trace(store_url, namespace):
    """SIGKILL-under-load over the given store backend; returns the
    sorted delivered paths and the observed restart count."""
    fs = LustreFilesystem(
        num_mds=2, mdts_per_mds=2,
        dne_policy=DnePolicy.ROUND_ROBIN, clock=ManualClock(),
    )
    cluster = ClusterMonitor(
        fs,
        ClusterConfig(
            num_shards=2,
            namespace=namespace,
            transport="multiproc",
            aggregator=AggregatorConfig(
                trace_sample_rate=0.0, store_url=store_url
            ),
        ),
    )
    delivered = []
    try:
        cluster.subscribe(lambda seq, event: delivered.append(event))
        created = []
        for d in range(4):
            fs.makedirs(f"/load{d}")
        for i in range(40):
            path = f"/load{i % 4}/f{i}.dat"
            fs.create(path)
            created.append(path)
            if i == 10:
                cluster.pump()
                cluster.crash_shard("shard0")  # real SIGKILL
            if i == 25:
                cluster.crash_shard("shard1")
        cluster.drain()
        got = sorted(
            event.path for event in delivered
            if event.path and "/f" in event.path
        )
        restarts = sum(
            bridge.metrics.snapshot()["child_restarts"]
            for bridge in cluster.bridges.values()
        )
        return got, sorted(created), restarts
    finally:
        cluster.shutdown()


class TestDurableClusterKill:
    def test_sigkill_under_load_durable_equals_memory(self, tmp_path):
        """The acceptance property: SIGKILL shard processes mid-stream
        over the segment log — the delivery set is loss-free,
        duplicate-free, and identical to the memory-backend run."""
        durable_got, created, restarts = _run_kill_trace(
            f"segments://{tmp_path}/cluster", "kill-seg"
        )
        assert durable_got == created  # nothing lost
        assert len(durable_got) == len(set(durable_got))  # nothing duped
        assert restarts >= 1  # the faults actually happened

        memory_got, memory_created, _ = _run_kill_trace(
            "memory://", "kill-mem"
        )
        assert memory_got == memory_created
        assert durable_got == memory_got  # backend-independent delivery

        # The durable run left per-shard logs behind: each shard
        # recovered (or can recover) its own history from its own dir.
        shard_dirs = sorted(os.listdir(tmp_path / "cluster"))
        assert shard_dirs == ["shard0", "shard1"]
        for shard in shard_dirs:
            recovered = open_store(
                f"segments://{tmp_path}/cluster/{shard}", max_events=1000
            )
            assert len(recovered) > 0
            recovered.close()
