"""Append-only segment log: the durable :class:`EventStore` backend.

Layout on disk (one directory per store):

``NNNNNNNN.seg``
    Segment files, named by a monotonically increasing file number
    (never reused, so crash generations cannot collide).  Each starts
    with a 16-byte header — magic ``RSEG``, the record-layout version,
    and the base sequence number at creation — followed by framed
    records: ``u32 body_len + u32 crc32(body) + body`` where *body* is
    the store's own record, :func:`repro.msgq.framing.pack_entry`
    (the same flattened field order as the marshal wire codec,
    struct-packed for version stability).  The store packs each event
    once and keeps the same bytes in its window; this backend only
    frames them.

``checkpoint.json``
    Atomically replaced (tmp + ``os.replace``) watermark
    ``{seq, stored, next_seq}``: every record with ``seq <= seq`` is
    accounted for in the lifetime counter ``stored`` and no longer
    needed from the log.  Snapshots (``EventStore.save``) and
    compaction advance it.

Write path: every ``append`` buffers the batch and ``flush()``\\ es it
to the kernel page cache, so a SIGKILL loses at most the torn tail
record; ``fsync`` frequency is a policy knob (``always`` per batch,
``rotate`` per segment rotation, ``never``).  The active segment
rotates at ``segment_bytes``.

Compaction GCs *fully-rotated* segments — those whose last record is
below the store's retention floor (``note_floor``) — by first
advancing the checkpoint over them (sequence arithmetic: seqs in one
store lifetime are contiguous, and replay overlaps after
``discard_after`` only shrink the delta, never double-count) and then
deleting the file; crash-safe in that order.  ``compact_interval > 0``
runs it on a daemon thread, ``0`` runs it inline at rotation/floor
advances.

Recovery scans segments in file order under ``mmap``, stops each
segment at its first torn record, and dedups by sequence number with
**last wins** — so when a restarted shard child trims past the
parent's ack watermark (``discard_after``) and replayed batches
re-append the same sequence numbers, the replayed records shadow the
orphans and the rebuilt window equals the delivered history.  It
decodes nothing: a record's CRC vouches for it and its sequence
number sits at a fixed offset, so the store gets back the very bytes
it wrote.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.storage.base import RecoveredState, StoreBackend
from repro.msgq.framing import (
    RECORD_LAYOUT_VERSION,
    RECORD_MIN_BYTES,
    record_seq,
)

# The record codec stays importable from here by name: perfbench's
# tracer wraps ``pack_entry``/``unpack_entry`` in this module.
from repro.msgq.framing import pack_entry, unpack_entry  # noqa: F401

logger = logging.getLogger(__name__)

_MAGIC = b"RSEG"
#: magic, record-layout version, base seq at creation.
_HEADER = struct.Struct("<4sIQ")
#: body length, crc32(body) — precedes every record body.
_FRAME = struct.Struct("<II")

_SEGMENT_SUFFIX = ".seg"
_CHECKPOINT_NAME = "checkpoint.json"

#: fsync policies, loosest to strictest.
FSYNC_POLICIES = ("never", "rotate", "always")

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def _framed(records: Sequence[bytes]) -> bytes:
    """*records* as one blob of ``len + crc32 + body`` frames."""
    chunks = []
    for body in records:
        chunks.append(_FRAME.pack(len(body), zlib.crc32(body)))
        chunks.append(body)
    return b"".join(chunks)


@dataclass
class _SegmentInfo:
    """In-memory metadata for one closed (fully-rotated) segment."""

    path: str
    file_no: int
    first_seq: int  # 0 when the segment holds no parseable records
    last_seq: int
    size: int


class SegmentLogBackend(StoreBackend):
    """Durable backend over an append-only directory of segment files."""

    durable = True
    scheme = "segments"

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: str = "rotate",
        compact_interval: float = 0.0,
    ) -> None:
        if segment_bytes < _HEADER.size + _FRAME.size:
            raise ValueError(f"segment_bytes too small: {segment_bytes}")
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if compact_interval < 0:
            raise ValueError("compact_interval must be >= 0")
        self.directory = os.fspath(directory)
        self.segment_bytes = segment_bytes
        self.fsync_policy = fsync
        self.compact_interval = compact_interval
        os.makedirs(self.directory, exist_ok=True)

        # Guards everything below: the store serialises its own hook
        # calls, but the compaction thread runs concurrently with them.
        self._lock = threading.RLock()
        self._ckpt_seq = 0
        self._ckpt_stored = 0
        self._ckpt_next_seq = 0
        self._segments: List[_SegmentInfo] = []  # closed, in file order
        self._active_file = None
        self._active_no = 0
        self._active_size = 0
        self._active_first_seq = 0
        self._active_last_seq = 0
        self._floor_seq = 0
        self._closed = False

        self.appends = 0
        self.records_appended = 0
        self.fsyncs = 0
        self.rotations = 0
        self.compacted_segments = 0
        self.compacted_records = 0
        self.torn_records = 0
        self.recovered_records = 0

        self._load_checkpoint()

        self._compactor_wake = threading.Event()
        self._compactor: Optional[threading.Thread] = None
        if compact_interval > 0:
            self._compactor = threading.Thread(
                target=self._compact_loop,
                name=f"segment-compactor[{os.path.basename(self.directory)}]",
                daemon=True,
            )
            self._compactor.start()

    # -- checkpoint ---------------------------------------------------

    def _checkpoint_path(self) -> str:
        return os.path.join(self.directory, _CHECKPOINT_NAME)

    def _load_checkpoint(self) -> None:
        try:
            with open(self._checkpoint_path(), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            self._ckpt_seq = int(data["seq"])
            self._ckpt_stored = int(data["stored"])
            self._ckpt_next_seq = int(data.get("next_seq", 0))
        except FileNotFoundError:
            pass
        except (ValueError, KeyError, TypeError) as exc:
            # A torn tmp-replace cannot produce a half-written file;
            # garbage here means external damage — refuse to guess.
            raise ValueError(
                f"corrupt checkpoint in {self.directory}: {exc}"
            ) from exc

    def _write_checkpoint(self) -> None:
        payload = json.dumps(
            {
                "seq": self._ckpt_seq,
                "stored": self._ckpt_stored,
                "next_seq": self._ckpt_next_seq,
                "layout_version": RECORD_LAYOUT_VERSION,
            }
        )
        tmp = self._checkpoint_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            if self.fsync_policy != "never":
                os.fsync(fh.fileno())
                self.fsyncs += 1
        os.replace(tmp, self._checkpoint_path())

    # -- segment files ------------------------------------------------

    def _segment_path(self, file_no: int) -> str:
        return os.path.join(self.directory, f"{file_no:08d}{_SEGMENT_SUFFIX}")

    def _list_segment_files(self) -> List[Tuple[int, str]]:
        found = []
        for name in os.listdir(self.directory):
            if not name.endswith(_SEGMENT_SUFFIX):
                continue
            stem = name[: -len(_SEGMENT_SUFFIX)]
            try:
                file_no = int(stem)
            except ValueError:
                continue
            found.append((file_no, os.path.join(self.directory, name)))
        found.sort()
        return found

    def _open_active(self, base_seq: int) -> None:
        existing = self._list_segment_files()
        last_no = existing[-1][0] if existing else 0
        if self._segments:
            last_no = max(last_no, self._segments[-1].file_no)
        self._active_no = max(last_no, self._active_no) + 1
        path = self._segment_path(self._active_no)
        self._active_file = open(path, "ab")
        header = _HEADER.pack(_MAGIC, RECORD_LAYOUT_VERSION, base_seq)
        self._active_file.write(header)
        self._active_file.flush()
        self._active_size = _HEADER.size
        self._active_first_seq = 0
        self._active_last_seq = 0

    def _ensure_active(self, base_seq: int) -> None:
        if self._active_file is None:
            self._open_active(base_seq)

    def _fsync_active(self) -> None:
        if self._active_file is not None:
            os.fsync(self._active_file.fileno())
            self.fsyncs += 1

    def _close_active(self, *, fsync: bool) -> None:
        if self._active_file is None:
            return
        self._active_file.flush()
        if fsync:
            self._fsync_active()
        self._active_file.close()
        if self._active_size > _HEADER.size:
            self._segments.append(
                _SegmentInfo(
                    path=self._segment_path(self._active_no),
                    file_no=self._active_no,
                    first_seq=self._active_first_seq,
                    last_seq=self._active_last_seq,
                    size=self._active_size,
                )
            )
        else:
            # Header-only segment: nothing durable in it, drop the file.
            # One already gone is fine; one that stays holds no record,
            # so a failed drop is logged and left behind.
            path = self._segment_path(self._active_no)
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            except OSError as exc:
                logger.warning("could not drop empty segment %s: %s", path, exc)
        self._active_file = None
        self._active_size = 0

    def _rotate(self) -> None:
        self._close_active(fsync=self.fsync_policy != "never")
        self.rotations += 1
        self._open_active(self._active_last_seq + 1)

    # -- StoreBackend hooks --------------------------------------------

    def recover(self, max_events: int) -> Union[RecoveredState, None]:
        with self._lock:
            records: Dict[int, bytes] = {}
            for file_no, path in self._list_segment_files():
                first, last = self._scan_segment(path, records)
                self._segments.append(
                    _SegmentInfo(
                        path=path,
                        file_no=file_no,
                        first_seq=first,
                        last_seq=last,
                        size=os.path.getsize(path),
                    )
                )
            if not records and self._ckpt_seq == 0 and self._ckpt_stored == 0:
                return None
            live = sorted(
                item for item in records.items() if item[0] > self._ckpt_seq
            )
            self.recovered_records = len(live)
            total_stored = self._ckpt_stored + len(live)
            last_seq = live[-1][0] if live else self._ckpt_seq
            next_seq = max(last_seq + 1, self._ckpt_next_seq, 1)
            if len(live) > max_events:
                live = live[-max_events:]
            self._floor_seq = live[0][0] if live else next_seq
            return RecoveredState(
                entries=live, next_seq=next_seq, total_stored=total_stored
            )

    def _scan_segment(
        self, path: str, records: Dict[int, bytes]
    ) -> Tuple[int, int]:
        """Replay one segment's records into *records* (last-wins by seq).

        Returns the (first_seq, last_seq) actually parsed, (0, 0) for a
        record-free segment.  Stops at the first torn record: a frame
        that runs past EOF, fails its CRC, or is too short to hold a
        record's fixed prefix.  No record is decoded.
        """
        first_seq = last_seq = 0
        size = os.path.getsize(path)
        if size < _HEADER.size:
            # Torn at creation — crash between open and header flush.
            self.torn_records += 1
            return first_seq, last_seq
        with open(path, "rb") as fh:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            try:
                magic, version, _base_seq = _HEADER.unpack_from(mm, 0)
                if magic != _MAGIC:
                    raise ValueError(f"bad segment magic in {path}")
                if version != RECORD_LAYOUT_VERSION:
                    raise ValueError(
                        f"segment {path} has record layout v{version}, "
                        f"this build reads v{RECORD_LAYOUT_VERSION}"
                    )
                offset = _HEADER.size
                while offset + _FRAME.size <= size:
                    body_len, crc = _FRAME.unpack_from(mm, offset)
                    start = offset + _FRAME.size
                    end = start + body_len
                    if end > size:
                        self.torn_records += 1
                        break
                    body = mm[start:end]
                    if zlib.crc32(body) != crc or body_len < RECORD_MIN_BYTES:
                        self.torn_records += 1
                        break
                    seq = record_seq(body)
                    records[seq] = body
                    if first_seq == 0:
                        first_seq = seq
                    last_seq = seq
                    offset = end
            finally:
                mm.close()
        return first_seq, last_seq

    def append(self, first_seq: int, records: Sequence[bytes]) -> None:
        if not records:
            return
        with self._lock:
            if self._closed:
                raise ValueError("backend is closed")
            self._ensure_active(first_seq)
            blob = _framed(records)
            self._active_file.write(blob)
            # Always reach the kernel page cache: a SIGKILL'd process
            # loses at most a torn tail, never a flushed batch.
            self._active_file.flush()
            if self.fsync_policy == "always":
                self._fsync_active()
            self._active_size += len(blob)
            if self._active_first_seq == 0:
                self._active_first_seq = first_seq
            self._active_last_seq = first_seq + len(records) - 1
            self.appends += 1
            self.records_appended += len(records)
            if self._active_size >= self.segment_bytes:
                self._rotate()
                if self.compact_interval == 0:
                    self._compact_locked()
                else:
                    self._compactor_wake.set()

    def note_floor(self, floor_seq: int) -> None:
        self._floor_seq = floor_seq
        if self.compact_interval == 0:
            with self._lock:
                self._compact_locked()

    def mark_snapshotted(self, last_seq: int, total_stored: int) -> None:
        with self._lock:
            if last_seq <= self._ckpt_seq:
                return
            self._ckpt_seq = last_seq
            self._ckpt_stored = total_stored
            self._ckpt_next_seq = max(self._ckpt_next_seq, last_seq + 1)
            # Checkpoint first, delete after: a crash in between leaves
            # covered segments that recovery filters out by seq.
            self._write_checkpoint()
            if (
                self._active_file is not None
                and self._active_size > _HEADER.size
                and self._active_last_seq <= last_seq
            ):
                self._rotate()
            survivors = []
            for seg in self._segments:
                if seg.last_seq <= last_seq:
                    self._delete_segment(seg)
                else:
                    survivors.append(seg)
            self._segments = survivors

    def adopt(
        self, records: Sequence[bytes], next_seq: int, total_stored: int
    ) -> None:
        with self._lock:
            self._close_active(fsync=False)
            for seg in list(self._segments):
                self._delete_segment(seg, count=False)
            self._segments = []
            # Every file left would be read back by the next recovery, so
            # only one already gone may pass; any other failure raises.
            for _file_no, path in self._list_segment_files():
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
            first_seq = record_seq(records[0]) if records else next_seq
            self._ckpt_seq = first_seq - 1
            self._ckpt_stored = total_stored - len(records)
            self._ckpt_next_seq = next_seq
            self._write_checkpoint()
            if records:
                self._ensure_active(first_seq)
                blob = _framed(records)
                self._active_file.write(blob)
                self._active_file.flush()
                if self.fsync_policy != "never":
                    self._fsync_active()
                self._active_size += len(blob)
                self._active_first_seq = first_seq
                self._active_last_seq = record_seq(records[-1])
                self.records_appended += len(records)
                self._floor_seq = first_seq

    def sync(self) -> None:
        with self._lock:
            if self._active_file is not None:
                self._active_file.flush()
                self._fsync_active()

    def stats(self) -> Dict[str, Union[int, float]]:
        with self._lock:
            log_bytes = self._active_size + sum(
                seg.size for seg in self._segments
            )
            segments = len(self._segments) + (
                1 if self._active_file is not None else 0
            )
            return {
                "segments": segments,
                "log_bytes": log_bytes,
                "appends": self.appends,
                "records_appended": self.records_appended,
                "fsyncs": self.fsyncs,
                "rotations": self.rotations,
                "compacted_segments": self.compacted_segments,
                "compacted_records": self.compacted_records,
                "torn_records": self.torn_records,
                "recovered_records": self.recovered_records,
                "checkpoint_seq": self._ckpt_seq,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._compactor is not None:
            self._compactor_wake.set()
            self._compactor.join(timeout=5.0)
        with self._lock:
            self._close_active(fsync=self.fsync_policy != "never")

    # -- compaction ----------------------------------------------------

    def _delete_segment(self, seg: _SegmentInfo, *, count: bool = True) -> None:
        try:
            os.unlink(seg.path)
        except OSError as exc:  # pragma: no cover - fs race
            logger.warning("could not delete segment %s: %s", seg.path, exc)
        if count:
            self.compacted_segments += 1

    def _compact_locked(self) -> None:
        """GC closed segments wholly below the retention floor.

        Advances the checkpoint over each victim *before* unlinking it,
        using sequence arithmetic (``last_seq - ckpt_seq`` new records;
        exact because seqs are contiguous and replay overlaps from
        ``discard_after`` only reduce the delta).
        """
        floor = self._floor_seq
        if floor <= 0 or self._closed:
            return
        victims = []
        survivors = []
        for seg in self._segments:
            if seg.last_seq and seg.last_seq < floor:
                gained = max(0, seg.last_seq - self._ckpt_seq)
                self._ckpt_seq = max(self._ckpt_seq, seg.last_seq)
                self._ckpt_stored += gained
                self.compacted_records += gained
                victims.append(seg)
            else:
                survivors.append(seg)
        if not victims:
            return
        self._write_checkpoint()
        for seg in victims:
            self._delete_segment(seg)
        self._segments = survivors

    def _compact_loop(self) -> None:
        while True:
            self._compactor_wake.wait(timeout=self.compact_interval)
            self._compactor_wake.clear()
            if self._closed:
                return
            with self._lock:
                self._compact_locked()
