"""The Aggregator's rotating event catalog with a retrieval API.

The paper: the Aggregator stores events "in a local database", maintains
it as a *rotating* catalog (old events age out at a size bound — Table 3
attributes the Aggregator's memory footprint to this store and notes a
production deployment would cap it) and "exposes an API to enable
consumers to retrieve historic events" for fault tolerance.

Two properties matter for the §5.2 hot path and are kept observable via
operation counters (``lock_acquisitions``, ``events_scanned``):

* **Batch ingest is atomic** — :meth:`extend` assigns a contiguous run
  of sequence numbers under ONE lock acquisition, so concurrent
  collectors never interleave within a batch and the per-event locking
  cost is amortised away.
* **Catch-up is indexed** — sequence numbers in the retained window are
  contiguous (append assigns consecutively, rotation evicts from the
  left), so :meth:`since` locates its start position with index
  arithmetic (a degenerate bisect) instead of scanning the whole deque,
  and honors ``limit`` during the scan.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import deque
from heapq import merge
from itertools import islice
from typing import Deque, Dict, Iterable, Optional

from repro.core.events import EventType, FileEvent, prefix_probe
from repro.core.storage.base import StoreBackend
from repro.core.storage.memory import MemoryBackend

#: Bytes one retained event costs: the slotted FileEvent, its strings,
#: and the ``(seq, event)`` entry shared by the window and its type
#: bucket.  Measured with ``tracemalloc`` by decoding marshal-framed
#: Lustre events (~50-character paths, FID strings) into a store;
#: ``tests/test_store_memory.py`` holds the estimate to the measurement.
BYTES_PER_EVENT = 600


class _SeqView:
    """An indexable view of the stored sequence numbers (bisect support).

    Only used on the fallback path when the retained window is not
    contiguous (e.g. a hand-crafted restore); bisect then performs
    O(log n) indexed probes instead of a full scan.
    """

    def __init__(self, events: Deque[tuple[int, FileEvent]]) -> None:
        self._events = events

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index: int) -> int:
        return self._events[index][0]


class _TypeBucket:
    """The per-:class:`EventType` index: ``(seq, event)`` entries.

    Entries are appended in sequence order, so the list is sorted by
    both sequence number and (when the store's timestamps are monotone)
    timestamp — both narrowable by binary search.  Rotation advances a
    ``head`` offset instead of popping the front (O(1)); the dead
    prefix is compacted away once it dominates the list.
    """

    __slots__ = ("entries", "head")

    def __init__(self) -> None:
        self.entries: list[tuple[int, FileEvent]] = []
        self.head = 0

    def __len__(self) -> int:
        return len(self.entries) - self.head

    def compact_if_needed(self) -> None:
        if self.head > 64 and self.head * 2 >= len(self.entries):
            del self.entries[: self.head]
            self.head = 0

    def time_bounds(
        self, since_time: Optional[float], until_time: Optional[float]
    ) -> tuple[int, int]:
        """Index window covering ``since_time <= ts <= until_time``.

        Binary search over the (monotone) timestamps; callers must only
        use this when the store observed monotone append timestamps.
        """
        lo, hi = self.head, len(self.entries)
        if since_time is not None:
            lo = self._bisect_ts(lo, hi, since_time, right=False)
        if until_time is not None:
            hi = self._bisect_ts(lo, hi, until_time, right=True)
        return lo, hi

    def _bisect_ts(self, lo: int, hi: int, t: float, right: bool) -> int:
        entries = self.entries
        while lo < hi:
            mid = (lo + hi) // 2
            ts = entries[mid][1].timestamp
            if ts < t or (right and ts == t):
                lo = mid + 1
            else:
                hi = mid
        return lo


class EventStore:
    """A bounded, indexed, thread-safe catalog of events.

    Every stored event gets a monotonically increasing *sequence number*;
    consumers that disconnect remember the last sequence they saw and
    catch up with :meth:`since`.

    Besides the contiguous-window arithmetic behind :meth:`since`, the
    store maintains **per-event-type buckets** (sequence-ordered
    ``(seq, event)`` lists) and tracks whether append timestamps have
    stayed monotone — :meth:`query` uses both to scan only the entries
    a filter can actually match instead of the whole retained window.

    Durability is delegated to a pluggable *backend*
    (:mod:`repro.core.storage`): the default
    :class:`~repro.core.storage.memory.MemoryBackend` keeps the store's
    historical volatile behaviour, while a
    :class:`~repro.core.storage.segments.SegmentLogBackend` write-ahead
    logs every batch and replays the log at construction — a store
    built over a non-empty log resumes the crashed incarnation's
    window, sequence counter and lifetime totals.
    """

    def __init__(
        self,
        max_events: int = 100_000,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1: {max_events}")
        self.max_events = max_events
        self.backend = backend if backend is not None else MemoryBackend()
        self._lock = threading.Lock()
        self._events: Deque[tuple[int, FileEvent]] = deque()
        self._next_seq = 1
        self.total_stored = 0
        self.total_rotated = 0
        # Query index state: per-type buckets, a count of entries they
        # collectively represent (mismatch with len(_events) => a
        # hand-mutated window; rebuilt lazily), and timestamp
        # monotonicity tracking for the time-window binary search.
        self._by_type: Dict[EventType, _TypeBucket] = {}
        self._indexed_events = 0
        self._index_dirty = False
        self._ts_monotone = True
        self._last_ts = float("-inf")
        #: Operation counters: how often the store lock was taken and how
        #: many (seq, event) pairs retrieval scans have touched.  The
        #: ingest micro-benchmark asserts batching keeps both O(batches),
        #: not O(events); the query benchmark asserts indexed queries
        #: touch only candidate entries, not the window.
        self.lock_acquisitions = 0
        self.events_scanned = 0
        recovered = self.backend.recover(max_events)
        if recovered is not None:
            self._events.extend(recovered.entries)
            self._next_seq = recovered.next_seq
            self.total_stored = recovered.total_stored
            self.total_rotated = recovered.total_rotated
            self._rebuild_index()

    def append(self, event: FileEvent) -> int:
        """Store *event*; returns its sequence number."""
        return self.extend([event])[0]

    def extend(self, events: list[FileEvent]) -> list[int]:
        """Store a batch atomically; returns the assigned sequence numbers.

        One lock acquisition per call: the batch receives a contiguous
        run of sequence numbers, so concurrent extenders can never
        interleave their numbering within a batch.

        Write-ahead order: the batch reaches the durability backend
        *before* any in-memory state mutates, so a backend failure
        (disk full) leaves the store unchanged and a crash after the
        append is recoverable.
        """
        if not events:
            return []
        with self._lock:
            self.lock_acquisitions += 1
            first = self._next_seq
            self.backend.append(first, events)
            self._next_seq += len(events)
            for offset, event in enumerate(events):
                entry = (first + offset, event)
                self._events.append(entry)
                bucket = self._by_type.get(event.event_type)
                if bucket is None:
                    bucket = self._by_type[event.event_type] = _TypeBucket()
                bucket.entries.append(entry)
                self._indexed_events += 1
                if event.timestamp < self._last_ts:
                    self._ts_monotone = False
                else:
                    self._last_ts = event.timestamp
            self.total_stored += len(events)
            overflow = len(self._events) - self.max_events
            if overflow > 0:
                for _ in range(overflow):
                    seq, event = self._events.popleft()
                    self._evict_from_bucket(seq, event)
                self.total_rotated += overflow
                self.backend.note_floor(self._events[0][0])
            return list(range(first, first + len(events)))

    def discard_after(self, seq: int) -> int:
        """Drop retained entries with sequence > *seq* and rewind numbering.

        The restart primitive for replayed ingest: a recovered shard
        store trims past its parent bridge's ack watermark so replayed
        in-flight batches regenerate their original sequence numbers
        (downstream watermark dedup then works unchanged).  Lifetime
        ``total_stored`` is decremented for the dropped entries — the
        replay will count them again.  Returns the number dropped.

        The durable backend is *not* rewound: orphaned log records
        above *seq* are shadowed at the next recovery by the replayed
        records (same sequence numbers, later in the log — last wins).
        """
        with self._lock:
            self.lock_acquisitions += 1
            dropped = 0
            while self._events and self._events[-1][0] > seq:
                self._events.pop()
                dropped += 1
            if dropped:
                self.total_stored -= dropped
                self._index_dirty = True
            if seq + 1 < self._next_seq:
                self._next_seq = max(seq + 1, 1)
            return dropped

    def close(self) -> None:
        """Flush and release the durability backend (no-op for memory)."""
        self.backend.close()

    # -- query index maintenance --------------------------------------------

    def _evict_from_bucket(self, seq: int, event: FileEvent) -> None:
        """Advance the evicted event's bucket head (rotation upkeep)."""
        if self._index_dirty:
            return
        bucket = self._by_type.get(event.event_type)
        if (
            bucket is None
            or bucket.head >= len(bucket.entries)
            or bucket.entries[bucket.head][0] != seq
        ):
            # The window was mutated behind the store's back (hand-built
            # restore); rebuild lazily on the next query.
            self._index_dirty = True
            return
        bucket.head += 1
        bucket.compact_if_needed()
        self._indexed_events -= 1

    def _rebuild_index(self) -> None:
        """Recompute the buckets from the window (callers hold the lock)."""
        self._by_type = {}
        self._ts_monotone = True
        self._last_ts = float("-inf")
        for entry in self._events:
            event = entry[1]
            bucket = self._by_type.get(event.event_type)
            if bucket is None:
                bucket = self._by_type[event.event_type] = _TypeBucket()
            bucket.entries.append(entry)
            if event.timestamp < self._last_ts:
                self._ts_monotone = False
            else:
                self._last_ts = event.timestamp
        self._indexed_events = len(self._events)
        self._index_dirty = False

    # -- retrieval API ------------------------------------------------------

    def _start_index(self, seq: int) -> int:
        """Index of the first retained entry with sequence > *seq*.

        Callers hold the lock.  Sequence numbers in the window are
        contiguous by construction, so the position is pure arithmetic;
        a non-contiguous window (only possible via a hand-built restore)
        falls back to bisect over an indexable view.
        """
        if not self._events:
            return 0
        oldest = self._events[0][0]
        newest = self._events[-1][0]
        if newest - oldest == len(self._events) - 1:  # contiguous
            return min(max(seq - oldest + 1, 0), len(self._events))
        return bisect_right(_SeqView(self._events), seq)

    def since(self, seq: int, limit: Optional[int] = None) -> list[tuple[int, FileEvent]]:
        """Events with sequence number > *seq* (the catch-up primitive).

        Indexed: events at or below *seq* are never touched, and
        *limit* bounds the scan itself, not a post-filter — so catching
        up near the head of a full store is O(limit), not O(window).
        """
        with self._lock:
            self.lock_acquisitions += 1
            start = self._start_index(seq)
            stop = len(self._events)
            if limit is not None:
                stop = min(stop, start + max(limit, 0))
            matched = list(islice(self._events, start, stop))
            self.events_scanned += len(matched)
        return matched

    def recent(self, count: int) -> list[tuple[int, FileEvent]]:
        """The most recent *count* events, oldest first."""
        if count < 0:
            raise ValueError(f"negative count: {count}")
        if count == 0:
            return []
        with self._lock:
            self.lock_acquisitions += 1
            start = max(len(self._events) - count, 0)
            matched = list(islice(self._events, start, len(self._events)))
            self.events_scanned += len(matched)
        return matched

    def _query_candidates(
        self,
        event_type: Optional[EventType],
        since_time: Optional[float],
        until_time: Optional[float],
    ) -> Iterable[tuple[int, FileEvent]]:
        """Narrowest indexed candidate stream for a query (lock held).

        * A type filter selects that type's bucket; a time window over a
          monotone store additionally binary-searches the bucket's
          timestamp bounds.
        * A time window alone (monotone store) bisects every bucket and
          merges the slices back into sequence order.
        * Otherwise the whole retained window is the candidate set.
        """
        if event_type is not None:
            bucket = self._by_type.get(event_type)
            if bucket is None:
                return ()
            if self._ts_monotone and (
                since_time is not None or until_time is not None
            ):
                lo, hi = bucket.time_bounds(since_time, until_time)
            else:
                lo, hi = bucket.head, len(bucket.entries)
            # map binds the bucket immediately (a generator expression
            # here would late-bind the loop variable below).
            return map(bucket.entries.__getitem__, range(lo, hi))
        if self._ts_monotone and (
            since_time is not None or until_time is not None
        ):
            streams = []
            for bucket in self._by_type.values():
                lo, hi = bucket.time_bounds(since_time, until_time)
                if lo < hi:
                    streams.append(
                        map(bucket.entries.__getitem__, range(lo, hi))
                    )
            if not streams:
                return ()
            if len(streams) == 1:
                return streams[0]
            return merge(*streams, key=lambda entry: entry[0])
        return self._events

    def query(
        self,
        path_prefix: Optional[str] = None,
        event_type: Optional[EventType] = None,
        since_time: Optional[float] = None,
        until_time: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[int, FileEvent]]:
        """Filtered retrieval over the retained window.

        Indexed: a type filter scans only that type's bucket, and a
        time window over a timestamp-monotone store binary-searches its
        bounds instead of visiting out-of-window entries — so
        ``events_scanned`` grows with the candidate set, not the
        retained window.  The filters are still applied to every
        candidate (the index only prunes), so results are identical to
        a full linear scan.

        The scan runs under the lock — like :meth:`since` and
        :meth:`recent` — so ``events_scanned`` updates atomically with
        respect to concurrent queries and :meth:`reset_op_counters`.
        """
        with self._lock:
            self.lock_acquisitions += 1
            if self._index_dirty or self._indexed_events != len(self._events):
                self._rebuild_index()
            probe = (
                prefix_probe(path_prefix) if path_prefix is not None else None
            )
            results: list[tuple[int, FileEvent]] = []
            for seq, event in self._query_candidates(
                event_type, since_time, until_time
            ):
                self.events_scanned += 1
                if event_type is not None and event.event_type is not event_type:
                    continue
                if since_time is not None and event.timestamp < since_time:
                    continue
                if until_time is not None and event.timestamp > until_time:
                    continue
                if path_prefix is not None and not event.matches_prefix(
                    path_prefix, probe
                ):
                    continue
                results.append((seq, event))
                if limit is not None and len(results) >= limit:
                    break
        return results

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def last_seq(self) -> int:
        """Highest sequence number issued (0 if empty history)."""
        with self._lock:
            return self._next_seq - 1

    @property
    def oldest_retained_seq(self) -> Optional[int]:
        """Sequence number of the oldest retained event (None if empty)."""
        with self._lock:
            return self._events[0][0] if self._events else None

    def reset_op_counters(self) -> None:
        """Zero the lock/scan operation counters (benchmark hygiene)."""
        with self._lock:
            self.lock_acquisitions = 0
            self.events_scanned = 0

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> int:
        """Persist the retained window to *path* as JSON lines.

        Returns the number of events written.  The header carries the
        sequence counter (so a restore continues numbering without
        reuse) and the lifetime ``total_stored``/``total_rotated``
        counters, so the ``store_rotated`` and lifetime-stored gauges
        survive an aggregator restart.

        On a durable backend the snapshot *truncates the log*: once the
        file is written, the backend checkpoint advances past the
        snapshotted history and fully-covered segments are deleted —
        the snapshot is durable first, so a crash anywhere in between
        loses nothing.
        """
        import json

        with self._lock:
            self.lock_acquisitions += 1
            snapshot = list(self._events)
            next_seq = self._next_seq
            total_stored = self.total_stored
            total_rotated = self.total_rotated
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"next_seq": next_seq,
                                     "max_events": self.max_events,
                                     "total_stored": total_stored,
                                     "total_rotated": total_rotated}) + "\n")
            for seq, event in snapshot:
                handle.write(
                    json.dumps({"seq": seq, "event": event.to_dict()}) + "\n"
                )
            handle.flush()
            if self.backend.durable:
                import os

                os.fsync(handle.fileno())
        with self._lock:
            self.lock_acquisitions += 1
            self.backend.mark_snapshotted(next_seq - 1, total_stored)
        return len(snapshot)

    @classmethod
    def load(
        cls, path: str, backend: Optional[StoreBackend] = None
    ) -> "EventStore":
        """Restore a store previously written by :meth:`save`.

        With a durable *backend*, the snapshot is merged with whatever
        the backend's log recovered: log records newer than the
        snapshot (appended after the save, before the crash) extend the
        restored window, and the merged window is then adopted back
        into the log so it alone reproduces the store from now on.
        """
        import json

        from repro.core.events import FileEvent

        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            store = cls(max_events=header["max_events"])
            for line in handle:
                entry = json.loads(line)
                store._events.append(
                    (entry["seq"], FileEvent.from_dict(entry["event"]))
                )
            store._next_seq = header["next_seq"]
            # Restore lifetime counters.  Files written before the
            # counters were persisted derive them from the numbering:
            # every assigned sequence number was stored once, and
            # whatever is not retained was rotated out.
            derived_stored = store._next_seq - 1
            store.total_stored = header.get("total_stored", derived_stored)
            store.total_rotated = header.get(
                "total_rotated", derived_stored - len(store._events)
            )
        if backend is not None:
            recovered = backend.recover(store.max_events)
            if recovered is not None:
                snapshot_last = store._next_seq - 1
                fresh = [
                    entry
                    for entry in recovered.entries
                    if entry[0] > snapshot_last
                ]
                store._events.extend(fresh)
                store.total_stored += len(fresh)
                overflow = len(store._events) - store.max_events
                if overflow > 0:
                    for _ in range(overflow):
                        store._events.popleft()
                    store.total_rotated += overflow
                store._next_seq = max(store._next_seq, recovered.next_seq)
            backend.adopt(
                list(store._events), store._next_seq, store.total_stored
            )
            store.backend = backend
        # The filled window bypassed extend(): rebuild the query index
        # (buckets, ``_last_ts``, monotonicity) so a time-window query
        # cannot take the binary-search fast path over unindexed data
        # and the next extend() judges monotonicity against the real
        # last timestamp instead of -inf.
        store._rebuild_index()
        return store

    def approximate_memory_bytes(self) -> int:
        """Rough memory footprint of the retained window.

        Used by the overhead experiment (Table 3) to reason about the
        Aggregator's memory being dominated by the local store.  A flat
        per-event figure (:data:`BYTES_PER_EVENT`) keeps this O(1).
        """
        return len(self) * BYTES_PER_EVENT
