"""The per-event and per-file records are slotted and still behave as values.

``FileEvent``, ``Fid``, ``ChangelogRecord``, ``StripeLayout`` and the
namespace ``_Entry`` exist once per event or per file, so they carry no
per-instance ``__dict__``.  Equality, hashing, frozenness and pickling
must be what they were, and every codec must still rebuild a genuine
``FileEvent``.
"""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.core.events import EventBatch, EventType, FileEvent, ReportBatch
from repro.lustre.changelog import ChangelogFlag, ChangelogRecord, RecordType
from repro.lustre.fid import Fid
from repro.lustre.filesystem import _Entry
from repro.lustre.oss import StripeLayout
from repro.msgq.framing import (
    decode_entries,
    decode_report,
    encode_entries,
    encode_report,
    pack_entry,
    unpack_entry,
)

TARGET = Fid(0x200000402, 0xA046)
PARENT = Fid(0x200000007, 0x1)

FULL = FileEvent(
    event_type=EventType.MOVED,
    path="/lustre/proj/run1/out.h5",
    is_dir=False,
    timestamp=1_700_000_000.25,
    name="out.h5",
    source="lustre",
    fid=TARGET.short(),
    parent_fid=PARENT.short(),
    mdt_index=1,
    record_index=42,
    record_type=RecordType.RENME.mnemonic,
    old_path="/lustre/proj/run1/out.tmp",
    jobid="sim.1234",
)
SPARSE = FileEvent(
    event_type=EventType.CREATED,
    path=None,
    is_dir=True,
    timestamp=5.0,
    name="d",
    source="inotify",
)
EVENTS = [FULL, SPARSE, dataclasses.replace(FULL, mdt_index=0, record_index=0)]

RECORD = ChangelogRecord(
    7, RecordType.CREAT, 123.5, ChangelogFlag.NONE, TARGET, PARENT, "f",
    jobid="job.1",
)
LAYOUT = StripeLayout(stripe_size=1 << 20, objects=((0, 1), (1, 7)))
ENTRY = _Entry(
    fid=TARGET, kind="file", parent=PARENT, name="f", mdt_index=0,
    mode=0o644, mtime=1.0, ctime=1.0, layout=LAYOUT,
)
FROZEN = [FULL, TARGET, RECORD, LAYOUT]


def type_name(record):
    return type(record).__name__


@pytest.mark.parametrize("record", [*FROZEN, ENTRY], ids=type_name)
def test_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", FROZEN, ids=type_name)
def test_frozen_fields_still_raise(record):
    name = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", [*FROZEN, SPARSE], ids=type_name)
def test_pickle_and_copy_preserve_equality_and_hash(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record
        assert hash(clone) == hash(record)


def _same(decoded, originals):
    assert [type(event) for event in decoded] == [FileEvent] * len(originals)
    assert list(decoded) == list(originals)
    assert [hash(event) for event in decoded] == [hash(e) for e in originals]
    assert all(not hasattr(event, "__dict__") for event in decoded)


def test_report_round_trip_builds_file_events():
    _same(decode_report(encode_report(list(EVENTS))), EVENTS)
    traced = decode_report(encode_report(ReportBatch(tuple(EVENTS), 3.0)))
    assert isinstance(traced, ReportBatch) and traced.collected_ts == 3.0
    _same(traced.events, EVENTS)


def test_entries_round_trip_builds_file_events():
    batch = EventBatch(
        tuple((seq, event) for seq, event in enumerate(EVENTS, start=10)),
        collected_ts=1.0, aggregated_ts=2.0, published_ts=3.0, shard="shard1",
    )
    decoded = decode_entries(encode_entries(batch))
    assert decoded == batch
    assert [seq for seq, _ in decoded.entries] == [10, 11, 12]
    _same([event for _, event in decoded.entries], EVENTS)


def test_segment_record_round_trip_builds_file_events():
    blob = b"".join(pack_entry(seq, event) for seq, event in enumerate(EVENTS))
    decoded, offset = [], 0
    while offset < len(blob):
        seq, event, offset = unpack_entry(blob, offset)
        decoded.append(event)
        assert seq == len(decoded) - 1
    _same(decoded, EVENTS)


@pytest.mark.parametrize(
    "event", [*EVENTS, FileEvent.from_changelog(RECORD, "/f", 0)]
)
def test_to_dict_matches_asdict(event):
    reference = dataclasses.asdict(event)
    reference["event_type"] = event.event_type.value
    assert event.to_dict() == reference
    assert list(event.to_dict()) == list(reference)
    assert json.dumps(event.to_dict()) == json.dumps(reference)
    assert FileEvent.from_dict(event.to_dict()) == event
