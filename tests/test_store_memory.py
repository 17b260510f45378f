"""The store's per-event memory: measured, bounded, and honestly gauged.

The aggregator's memory is dominated by its store, which retains one
``(seq, FileEvent)`` entry per event (the paper's Table 3 "local store
that records a list of every event").  This test decodes marshal-framed
batches exactly as the process bridge does and measures what the store
then retains with ``tracemalloc``.  It fails if a per-event ``__dict__``
(or any other per-event overhead) comes back, and it holds the
``store_memory_bytes`` estimate to the measurement.
"""

import gc
import tracemalloc

from repro.core.events import EventBatch, FileEvent
from repro.core.store import BYTES_PER_EVENT, EventStore
from repro.lustre.changelog import ChangelogFlag, ChangelogRecord, RecordType
from repro.lustre.fid import FID_SEQ_NORMAL, SEQUENCE_RANGE_PER_MDT, Fid
from repro.msgq.framing import decode_entries, encode_entries

EVENTS = 6400
BATCH = 64


def lustre_event(index: int) -> FileEvent:
    """A CREAT event as a collector emits it: resolved path, FID strings."""
    mdt = index % 2
    seq = FID_SEQ_NORMAL + mdt * SEQUENCE_RANGE_PER_MDT
    name = f"out_{index:06d}.h5"
    record = ChangelogRecord(
        index=10_000 + index,
        rec_type=RecordType.CREAT,
        timestamp=1_700_000_000.0 + index * 1e-3,
        flags=ChangelogFlag.NONE,
        target_fid=Fid(seq, 0x400 + index),
        parent_fid=Fid(seq, 0x20 + index % 40),
        name=name,
    )
    path = f"/lustre/projects/p{index % 8}/run{index % 40:03d}/output/{name}"
    return FileEvent.from_changelog(record, path, mdt)


def framed_batches() -> list[bytes]:
    events = [lustre_event(index) for index in range(EVENTS)]
    return [
        encode_entries(
            EventBatch(
                tuple(
                    (start + offset + 1, event)
                    for offset, event in enumerate(events[start : start + BATCH])
                )
            )
        )
        for start in range(0, EVENTS, BATCH)
    ]


def test_retained_bytes_per_event_are_bounded_and_gauged():
    blobs = framed_batches()
    store = EventStore(max_events=EVENTS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for blob in blobs:
            store.extend([event for _seq, event in decode_entries(blob).entries])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == EVENTS
    per_event = retained / EVENTS
    assert per_event <= 650, f"{per_event:.0f} B retained per event"
    estimate = store.approximate_memory_bytes()
    assert estimate == EVENTS * BYTES_PER_EVENT
    assert abs(estimate - retained) <= 0.2 * retained, (
        f"estimate {estimate} B vs measured {retained} B"
    )
