"""The normalized file-event vocabulary shared by the whole system.

Ripple agents consume events from two very different detectors — local
inotify/watchdog observers and the Lustre ChangeLog monitor — so both are
normalized into :class:`FileEvent`, carrying the user-friendly absolute
path (the whole point of the monitor's processing step) plus enough
provenance (FIDs, MDT index, record index) for debugging and exactly-once
bookkeeping downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Optional

from repro.lustre.changelog import ChangelogRecord, RecordType
from repro.lustre.fid import Fid


@lru_cache(maxsize=4096)
def prefix_probe(prefix: str) -> str:
    """The ``startswith`` probe for prefix matching, computed once.

    :meth:`FileEvent.matches_prefix` needs ``prefix.rstrip("/") + "/"``
    per call; hot paths (rule matching, store queries, subscription
    filters) compute it once and pass it back in, and ad-hoc callers
    get memoization for free via the cache.
    """
    return prefix.rstrip("/") + "/"


@lru_cache(maxsize=4096)
def parent_fid_text(fid: Fid) -> str:
    """``fid.short()`` of a parent directory, computed once.

    The events of one directory then share one ``parent_fid`` string,
    rather than each holding its own copy for as long as a subscriber
    keeps it; the cache is bounded like :func:`prefix_probe`'s.
    """
    return fid.short()


class EventType(Enum):
    """Normalized event kinds."""

    CREATED = "created"
    DELETED = "deleted"
    MODIFIED = "modified"
    ATTRIB = "attrib"
    MOVED = "moved"
    OTHER = "other"


#: How ChangeLog record types map onto the normalized vocabulary.
RECORD_TYPE_MAP: dict[RecordType, EventType] = {
    RecordType.CREAT: EventType.CREATED,
    RecordType.MKDIR: EventType.CREATED,
    RecordType.HLINK: EventType.CREATED,
    RecordType.SLINK: EventType.CREATED,
    RecordType.MKNOD: EventType.CREATED,
    RecordType.UNLNK: EventType.DELETED,
    RecordType.RMDIR: EventType.DELETED,
    RecordType.RENME: EventType.MOVED,
    RecordType.RNMTO: EventType.MOVED,
    RecordType.CLOSE: EventType.MODIFIED,
    RecordType.TRUNC: EventType.MODIFIED,
    RecordType.MTIME: EventType.MODIFIED,
    RecordType.LYOUT: EventType.MODIFIED,
    RecordType.SATTR: EventType.ATTRIB,
    RecordType.XATTR: EventType.ATTRIB,
    RecordType.CTIME: EventType.ATTRIB,
    RecordType.ATIME: EventType.ATTRIB,
    RecordType.MARK: EventType.OTHER,
    RecordType.OPEN: EventType.OTHER,
    RecordType.HSM: EventType.OTHER,
}

#: Directory-producing record types (is_dir derivation).
_DIR_RECORD_TYPES = frozenset({RecordType.MKDIR, RecordType.RMDIR})


@dataclass(frozen=True, slots=True)
class FileEvent:
    """One normalized file event.

    ``path`` may be None when FID resolution failed (e.g. the file was
    deleted before its creation record was processed) — consumers decide
    whether such events are still actionable via ``name``/``parent_fid``.

    Slotted: a store retains one instance per event, and a per-instance
    ``__dict__`` would be the largest part of its footprint.
    """

    event_type: EventType
    path: Optional[str]
    is_dir: bool
    timestamp: float
    name: str
    source: str  # 'lustre' | 'inotify'
    fid: Optional[str] = None
    parent_fid: Optional[str] = None
    mdt_index: Optional[int] = None
    record_index: Optional[int] = None
    record_type: Optional[str] = None
    old_path: Optional[str] = None  # MOVED: the pre-rename path
    #: JobID of the originating client operation, when jobstats tagged it.
    jobid: Optional[str] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_changelog(
        cls,
        record: ChangelogRecord,
        path: Optional[str],
        mdt_index: int,
        old_path: Optional[str] = None,
    ) -> "FileEvent":
        """Build an event from a ChangeLog record plus resolved path(s)."""
        event_type = RECORD_TYPE_MAP.get(record.rec_type, EventType.OTHER)
        return cls(
            event_type=event_type,
            path=path,
            is_dir=record.rec_type in _DIR_RECORD_TYPES,
            timestamp=record.timestamp,
            name=record.name,
            source="lustre",
            fid=record.target_fid.short(),
            parent_fid=parent_fid_text(record.parent_fid),
            mdt_index=mdt_index,
            record_index=record.index,
            record_type=record.rec_type.mnemonic,
            old_path=old_path,
            jobid=record.jobid,
        )

    @classmethod
    def from_watchdog(cls, event: Any) -> "FileEvent":
        """Build an event from a watchdog-style FileSystemEvent."""
        mapping = {
            "created": EventType.CREATED,
            "deleted": EventType.DELETED,
            "modified": EventType.MODIFIED,
            "attrib": EventType.ATTRIB,
            "moved": EventType.MOVED,
        }
        event_type = mapping.get(event.event_type, EventType.OTHER)
        path = event.dest_path if event.event_type == "moved" else event.src_path
        old_path = event.src_path if event.event_type == "moved" else None
        name = path.rsplit("/", 1)[-1] if path else ""
        return cls(
            event_type=event_type,
            path=path,
            is_dir=event.is_directory,
            timestamp=event.timestamp,
            name=name,
            source="inotify",
            old_path=old_path,
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict (enums become their string values).

        Keys are in field order, as ``dataclasses.asdict`` would give
        them, so rendered JSON is unchanged; every value is a primitive,
        so the recursive deep copy ``asdict`` makes is not needed.
        """
        return {
            "event_type": self.event_type.value,
            "path": self.path,
            "is_dir": self.is_dir,
            "timestamp": self.timestamp,
            "name": self.name,
            "source": self.source,
            "fid": self.fid,
            "parent_fid": self.parent_fid,
            "mdt_index": self.mdt_index,
            "record_index": self.record_index,
            "record_type": self.record_type,
            "old_path": self.old_path,
            "jobid": self.jobid,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FileEvent":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        payload["event_type"] = EventType(payload["event_type"])
        return cls(**payload)

    # -- convenience ---------------------------------------------------------

    @property
    def resolved(self) -> bool:
        """True when the event carries a usable absolute path."""
        return self.path is not None

    def matches_prefix(self, prefix: str, probe: Optional[str] = None) -> bool:
        """True if the event's path (or old path) is under *prefix*.

        *probe* is the pre-normalized ``prefix_probe(prefix)`` value;
        hot loops compute it once per prefix instead of per event.
        """
        if probe is None:
            probe = prefix_probe(prefix)
        for candidate in (self.path, self.old_path):
            if candidate is None:
                continue
            if prefix == "/" or candidate == prefix or candidate.startswith(
                probe
            ):
                return True
        return False


# ---------------------------------------------------------------------------
# Batch wire format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventBatch:
    """A sequenced batch of events — the PUB wire format.

    The Aggregator stores a whole collector batch atomically and
    publishes one :class:`EventBatch` per contiguous same-topic run of
    the batch instead of one message per event, amortising fabric work
    over the batch (the §4 "minimal overhead" property).  ``entries``
    are ``(seq, event)`` pairs in publish order; sequence numbers are
    contiguous within one message, and messages go out in global
    sequence order so broad-prefix subscribers see monotone seqs.

    Traced batches additionally carry **stage timestamps** — stamped
    once per batch by the collector (``collected_ts``) and aggregator
    (``aggregated_ts`` at store time, ``published_ts`` at PUB send), so
    downstream stages can record stage-to-stage latency deltas without
    per-event work.  ``None`` means the batch was not sampled (or came
    from a pre-tracing publisher); consumers must treat the stamps as
    optional.

    ``shard`` names the aggregator shard that published the batch when
    it came from a sharded cluster; single-aggregator monitors leave it
    ``None``.  Sequence numbers are only monotone *per shard*, so
    consumers subscribed to several shards key their watermark on it.
    """

    entries: tuple[tuple[int, "FileEvent"], ...]
    collected_ts: Optional[float] = None
    aggregated_ts: Optional[float] = None
    published_ts: Optional[float] = None
    shard: Optional[str] = None

    def __post_init__(self) -> None:
        # Normalise lists to tuples so batches stay hashable/frozen.
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def first_seq(self) -> Optional[int]:
        return self.entries[0][0] if self.entries else None

    @property
    def last_seq(self) -> Optional[int]:
        return self.entries[-1][0] if self.entries else None


@dataclass(frozen=True)
class ReportBatch:
    """A traced collector→aggregator report — the PUSH wire format.

    A sampled collector report wraps its events with the collection
    stamp so the aggregator can record the collect→aggregate latency.
    The class is sequence-like (``len``/``iter``/indexing), so sinks
    and stores written against plain event lists handle it unchanged;
    unsampled reports stay plain lists and pay zero tracing cost.
    """

    events: tuple["FileEvent", ...]
    collected_ts: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]


def iter_report(payload: Any) -> tuple[list["FileEvent"], Optional[float]]:
    """Normalise an inbound report into ``(events, collected_ts)``.

    The PUSH-side compatibility shim: traced collectors send
    :class:`ReportBatch`, untraced (and pre-tracing) collectors send a
    plain event list — the aggregator accepts both.
    """
    if isinstance(payload, ReportBatch):
        return list(payload.events), payload.collected_ts
    return payload, None


#: Flat per-event overhead assumed by the byte-based flush policy (the
#: same O(1) estimate EventStore uses for its memory gauge).
EVENT_OVERHEAD_BYTES = 256


def approx_wire_bytes(event: "FileEvent") -> int:
    """Rough serialised size of one event, for ``batch_bytes`` policies."""
    size = EVENT_OVERHEAD_BYTES
    for text in (event.path, event.old_path, event.name):
        if text:
            size += len(text)
    return size
