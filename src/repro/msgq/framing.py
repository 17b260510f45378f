"""Wire framing for the multiproc transport's data plane.

The process-per-shard bridge moves report batches and published event
batches across ``multiprocessing`` queues.  Putting the domain objects
on a queue directly would deep-pickle every :class:`FileEvent`
(per-object reduce calls, class lookups on load) — the slow path the
transport refactor exists to avoid.  Instead the data plane is framed
here: each event is flattened to a tuple of primitives and the whole
batch serialised with :mod:`marshal`, CPython's C-speed codec for
primitive containers.  The queue then carries one opaque ``bytes``
blob, and the receiving process rebuilds the events through one
generated builder (:func:`_compile_event_builder`).

``marshal`` is interpreter-version-specific, which is exactly the
bridge's situation (parent and child are the same interpreter on the
same host) — this is *framing for a process boundary*, not a storage
format.  Payloads that are not event batches (injected test doubles,
future wire types) fall back to pickle, flagged by a one-byte prefix;
the control plane (API requests/replies, exceptions) always uses
pickle since it carries arbitrary objects and is off the hot path.

The durable segment log (``repro.core.storage.segments``) shares the
same flattened field order through :func:`pack_entry` /
:func:`unpack_entry` — a *version-stable* fixed-layout binary record
(``struct``-packed primitives, length-prefixed UTF-8 strings) that,
unlike marshal, is safe to read back across interpreter upgrades.
One field order, two codecs: marshal for the process boundary,
struct for disk.
"""

from __future__ import annotations

import dataclasses
import marshal
import pickle
import struct
from typing import Any, Optional

from repro.core.events import EventBatch, EventType, FileEvent, ReportBatch

_MARSHAL = b"M"
_PICKLE = b"P"

#: EventType values round-trip as their strings; resolve via one dict
#: lookup instead of the Enum constructor on the decode hot path.
_EVENT_TYPES = {member.value: member for member in EventType}

#: Field names in dataclass order — the wire order of _event_tuple.
_EVENT_FIELDS = tuple(field.name for field in dataclasses.fields(FileEvent))


class _EventTwin:
    """Layout twin of :class:`FileEvent`: the same slots, unfrozen."""

    __slots__ = _EVENT_FIELDS


def _compile_event_builder():
    """Code-generate the decode-side event constructor.

    A frozen dataclass assigns every field through a guarded
    ``object.__setattr__`` — 13 per event, the dominant cost of the
    decode hot path.  FileEvent is slotted and defines no
    ``__post_init__``, so an identical instance can be built as a bare
    :class:`_EventTwin` (same slots, so the same memory layout, but an
    ordinary ``__setattr__``), filled with 13 plain attribute stores
    and then re-classed with ``e.__class__ = FileEvent``.  On CPython
    3.11 that measures ~0.4 µs per event, against ~2.5 µs for
    positional ``FileEvent(...)`` construction.

    CPython allows the ``__class__`` assignment only between classes
    with identical slots; the probe event built below makes a drift
    between FileEvent's fields and the twin raise at import time rather
    than mid-stream.
    """
    first, *rest = _EVENT_FIELDS
    lines = [
        f"{', '.join(_EVENT_FIELDS)} = d",
        "e = _new(_twin)",
        f"e.{first} = _types[{first}]",
        *(f"e.{name} = {name}" for name in rest),
        "e.__class__ = _cls",
        "return e",
    ]
    source = (
        "def build(d, _new=object.__new__, _twin=_twin, _cls=_cls, "
        "_types=_types):\n" + "".join(f"    {line}\n" for line in lines)
    )
    namespace = {"_twin": _EventTwin, "_cls": FileEvent, "_types": _EVENT_TYPES}
    exec(source, namespace)
    build = namespace["build"]
    if build((EventType.OTHER.value, *rest)) != FileEvent(EventType.OTHER, *rest):
        raise TypeError("event builder does not reproduce FileEvent")
    return build


_build_event = _compile_event_builder()


def _event_tuple(event: FileEvent) -> tuple:
    """Flatten one event to primitives, in dataclass field order."""
    return (
        event.event_type.value,
        event.path,
        event.is_dir,
        event.timestamp,
        event.name,
        event.source,
        event.fid,
        event.parent_fid,
        event.mdt_index,
        event.record_index,
        event.record_type,
        event.old_path,
        event.jobid,
    )


def encode_report(payload: Any) -> bytes:
    """Frame one collector→aggregator report (list or ReportBatch)."""
    if isinstance(payload, ReportBatch):
        events, collected_ts = payload.events, payload.collected_ts
    elif isinstance(payload, list):
        events, collected_ts = payload, None
    else:
        return _PICKLE + pickle.dumps(payload)
    try:
        return _MARSHAL + marshal.dumps(
            (collected_ts, [_event_tuple(event) for event in events])
        )
    except (AttributeError, TypeError, ValueError):
        # Not a pure FileEvent batch (test doubles etc.) — fall back.
        return _PICKLE + pickle.dumps(payload)


def decode_report(data: bytes) -> Any:
    """Inverse of :func:`encode_report` (ReportBatch iff it was traced)."""
    if data[:1] == _PICKLE:
        return pickle.loads(data[1:])
    collected_ts, tuples = marshal.loads(data[1:])
    events = [_build_event(item) for item in tuples]
    if collected_ts is not None:
        return ReportBatch(tuple(events), collected_ts)
    return events


def encode_entries(batch: EventBatch) -> bytes:
    """Frame one published EventBatch (stage stamps + shard preserved)."""
    try:
        return _MARSHAL + marshal.dumps(
            (
                batch.collected_ts,
                batch.aggregated_ts,
                batch.published_ts,
                batch.shard,
                [(seq, _event_tuple(event)) for seq, event in batch.entries],
            )
        )
    except (AttributeError, TypeError, ValueError):
        return _PICKLE + pickle.dumps(batch)


def decode_entries(data: bytes) -> EventBatch:
    """Inverse of :func:`encode_entries`."""
    if data[:1] == _PICKLE:
        return pickle.loads(data[1:])
    collected_ts, aggregated_ts, published_ts, shard, entries = marshal.loads(
        data[1:]
    )
    return EventBatch(
        tuple((seq, _build_event(item)) for seq, item in entries),
        collected_ts=collected_ts,
        aggregated_ts=aggregated_ts,
        published_ts=published_ts,
        shard=shard,
    )


# ---------------------------------------------------------------------------
# Fixed-layout binary event records (the segment-log storage format)
# ---------------------------------------------------------------------------

#: Bump when the record layout below changes; segment files carry it in
#: their header so recovery can refuse records it cannot parse.
RECORD_LAYOUT_VERSION = 1

#: EventType members in wire order — the on-disk type code is an index
#: into this tuple (layout-versioned: reordering the enum requires a
#: RECORD_LAYOUT_VERSION bump).
_TYPE_BY_CODE = tuple(member.value for member in EventType)
_CODE_BY_TYPE = {member: code for code, member in enumerate(EventType)}

#: Fixed prefix of every record: sequence number (u64), timestamp
#: (f64), event-type code (u8), flag bits (u8: 0=is_dir, 1=mdt_index
#: present, 2=record_index present), mdt_index (i32, 0 when absent),
#: record_index (i64, 0 when absent).  Absent numerics are still
#: written so the prefix is the same 30 bytes for every record.
_RECORD_FIXED = struct.Struct("<QdBBiq")
_STRING_LEN = struct.Struct("<I")

_FLAG_IS_DIR = 1
_FLAG_MDT = 2
_FLAG_RECORD_INDEX = 4

#: The record's string fields, in flattened-tuple order (the same
#: field order the marshal wire codec uses).  ``name`` and ``source``
#: are non-optional in the dataclass but share the presence-mask
#: treatment for layout uniformity.
_STRING_FIELDS = (
    "path", "name", "source", "fid", "parent_fid",
    "record_type", "old_path", "jobid",
)


def pack_entry(seq: int, event: FileEvent) -> bytes:
    """Serialise one ``(seq, event)`` store entry to its binary record.

    Version-stable: only ``struct``-packed primitives and
    length-prefixed UTF-8 — no marshal/pickle — so a segment log
    written by one interpreter is readable by the next.
    """
    flags = 0
    if event.is_dir:
        flags |= _FLAG_IS_DIR
    if event.mdt_index is not None:
        flags |= _FLAG_MDT
    if event.record_index is not None:
        flags |= _FLAG_RECORD_INDEX
    out = bytearray(
        _RECORD_FIXED.pack(
            seq,
            event.timestamp,
            _CODE_BY_TYPE[event.event_type],
            flags,
            event.mdt_index or 0,
            event.record_index or 0,
        )
    )
    mask = 0
    encoded: list[Optional[bytes]] = []
    for bit, field in enumerate(_STRING_FIELDS):
        value = getattr(event, field)
        if value is None:
            encoded.append(None)
        else:
            mask |= 1 << bit
            encoded.append(value.encode("utf-8"))
    out.append(mask)
    for data in encoded:
        if data is not None:
            out += _STRING_LEN.pack(len(data))
            out += data
    return bytes(out)


def unpack_entry(buffer, offset: int = 0) -> tuple[int, FileEvent, int]:
    """Inverse of :func:`pack_entry` over any buffer (bytes, mmap,
    memoryview); returns ``(seq, event, next_offset)``.

    Raises ``struct.error`` / ``IndexError`` on a truncated buffer and
    ``ValueError`` on garbage — recovery treats all three as a torn
    tail record.
    """
    seq, timestamp, type_code, flags, mdt_index, record_index = (
        _RECORD_FIXED.unpack_from(buffer, offset)
    )
    offset += _RECORD_FIXED.size
    mask = buffer[offset]
    offset += 1
    strings: list[Optional[str]] = []
    for bit in range(len(_STRING_FIELDS)):
        if mask & (1 << bit):
            (length,) = _STRING_LEN.unpack_from(buffer, offset)
            offset += _STRING_LEN.size
            end = offset + length
            if end > len(buffer):
                raise ValueError("truncated string field")
            strings.append(bytes(buffer[offset:end]).decode("utf-8"))
            offset = end
        else:
            strings.append(None)
    path, name, source, fid, parent_fid, record_type, old_path, jobid = strings
    event = _build_event((
        _TYPE_BY_CODE[type_code],
        path,
        bool(flags & _FLAG_IS_DIR),
        timestamp,
        name,
        source,
        fid,
        parent_fid,
        mdt_index if flags & _FLAG_MDT else None,
        record_index if flags & _FLAG_RECORD_INDEX else None,
        record_type,
        old_path,
        jobid,
    ))
    return seq, event, offset
