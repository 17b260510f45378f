"""The Lustre ChangeLog: per-MDT append-only metadata event catalog.

Every namespace or metadata mutation served by an MDT appends one record
to that MDT's ChangeLog.  A record carries (Table 1 of the paper): record
number, event type, timestamp, datestamp, flags, target FID, parent FID
and target name, rendered like::

    13106 01CREAT 20:15:37.1138 2017.09.06 0x0 t=[0x200000402:0xa046:0x0] p=[0x200000007:0x1:0x0] data1.txt

Consumers register as *changelog users* (``lctl changelog_register``),
read records past their bookmark and acknowledge consumption with
``clear`` (``lctl changelog_clear``), which lets the MDT purge records
once **every** registered user has consumed them — the mechanism the
monitor's Collectors use to keep the log from growing without bound
while guaranteeing no event is missed.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from enum import IntEnum, IntFlag
from typing import Dict, Iterator, Optional

from repro.errors import ChangelogError, ChangelogUserError
from repro.lustre.fid import Fid
from repro.util.clock import Clock, WallClock
from repro.util.wakers import Wakers


class RecordType(IntEnum):
    """Changelog record types (numeric values match Lustre's)."""

    MARK = 0
    CREAT = 1
    MKDIR = 2
    HLINK = 3
    SLINK = 4
    MKNOD = 5
    UNLNK = 6
    RMDIR = 7
    RENME = 8
    RNMTO = 9
    OPEN = 10
    CLOSE = 11
    LYOUT = 12
    TRUNC = 13
    SATTR = 14
    XATTR = 15
    HSM = 16
    MTIME = 17
    CTIME = 18
    ATIME = 19

    @property
    def mnemonic(self) -> str:
        """The ``01CREAT``-style token used in changelog output.

        One shared string per member, so the events of a batch all
        reference the same object (and marshal writes it once).
        """
        return _MNEMONICS[self]

    @classmethod
    def from_mnemonic(cls, token: str) -> "RecordType":
        """Parse a ``01CREAT``-style token back to a record type."""
        member = _BY_MNEMONIC.get(token)
        if member is None:
            raise ChangelogError(f"unknown changelog record type: {token!r}")
        return member


_MNEMONICS = {member: f"{member.value:02d}{member.name}" for member in RecordType}
_BY_MNEMONIC = {token: member for member, token in _MNEMONICS.items()}


class ChangelogFlag(IntFlag):
    """Record flags (subset; UNLINK_LAST marks the last link going away)."""

    NONE = 0x0
    UNLINK_LAST = 0x1
    RENAME_OVERWRITE = 0x2


@dataclass(frozen=True, slots=True)
class ChangelogRecord:
    """One immutable changelog record (the paper's Table 1 tuple)."""

    index: int
    rec_type: RecordType
    timestamp: float  # seconds since the epoch (possibly virtual)
    flags: ChangelogFlag
    target_fid: Fid
    parent_fid: Fid
    name: str
    #: For RENME records Lustre also logs the source parent/name; we keep
    #: the rename source here so consumers can reconstruct moves.
    source_parent_fid: Optional[Fid] = None
    source_name: Optional[str] = None
    #: JobID of the client operation (Lustre jobstats), when enabled.
    jobid: Optional[str] = None

    def format(self) -> str:
        """Render the record in ``lctl changelog`` textual form.

        >>> from repro.lustre.fid import Fid
        >>> rec = ChangelogRecord(13106, RecordType.CREAT, 1504728937.1138,
        ...     ChangelogFlag.NONE, Fid(0x200000402, 0xa046), Fid(0x200000007, 0x1),
        ...     'data1.txt')
        >>> rec.format().split()[1]
        '01CREAT'
        """
        struct = _time.gmtime(self.timestamp)
        frac = int((self.timestamp % 1) * 10_000)
        clock = _time.strftime("%H:%M:%S", struct) + f".{frac:04d}"
        date = _time.strftime("%Y.%m.%d", struct)
        fields = [
            str(self.index),
            self.rec_type.mnemonic,
            clock,
            date,
            f"{int(self.flags):#x}",
            f"t={self.target_fid}",
        ]
        if self.jobid:
            fields.append(f"j={self.jobid}")
        fields.append(f"p={self.parent_fid}")
        fields.append(self.name)
        return " ".join(fields)

    @classmethod
    def parse(cls, line: str) -> "ChangelogRecord":
        """Parse a record previously produced by :meth:`format`.

        Fractional-second precision below 100 microseconds is lost in the
        textual form, as with the real tool.
        """
        parts = line.split()
        if len(parts) < 8:
            raise ChangelogError(f"short changelog line: {line!r}")
        index = int(parts[0])
        rec_type = RecordType.from_mnemonic(parts[1])
        clock_text, date_text = parts[2], parts[3]
        hms, frac = clock_text.rsplit(".", 1)
        struct = _time.strptime(f"{date_text} {hms}", "%Y.%m.%d %H:%M:%S")
        import calendar

        timestamp = calendar.timegm(struct) + int(frac) / 10_000
        flags = ChangelogFlag(int(parts[4], 0))
        if not parts[5].startswith("t="):
            raise ChangelogError(f"malformed FID fields: {line!r}")
        target = Fid.parse(parts[5][2:])
        cursor = 6
        jobid = None
        if cursor < len(parts) and parts[cursor].startswith("j="):
            jobid = parts[cursor][2:]
            cursor += 1
        if cursor >= len(parts) or not parts[cursor].startswith("p="):
            raise ChangelogError(f"malformed FID fields: {line!r}")
        parent = Fid.parse(parts[cursor][2:])
        name = " ".join(parts[cursor + 1 :])
        return cls(
            index, rec_type, timestamp, flags, target, parent, name,
            jobid=jobid,
        )

    @property
    def is_namespace_change(self) -> bool:
        """True for records that alter the namespace (vs pure attributes)."""
        return self.rec_type in (
            RecordType.CREAT,
            RecordType.MKDIR,
            RecordType.UNLNK,
            RecordType.RMDIR,
            RecordType.RENME,
            RecordType.RNMTO,
            RecordType.HLINK,
            RecordType.SLINK,
            RecordType.MKNOD,
        )


class ChangeLog:
    """An MDT's changelog with registered users and purge pointers.

    Thread-safe: clients append from application threads while collector
    threads read and clear concurrently.  Every recorded append rings
    the registered :attr:`wakers`, so a collector blocks until there is
    something to read instead of polling.
    """

    def __init__(
        self,
        mdt_index: int,
        clock: Clock | None = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.mdt_index = mdt_index
        self._clock = clock or WallClock()
        self._capacity = capacity
        self._lock = threading.RLock()
        self._records: list[ChangelogRecord] = []
        self._first_index = 1  # index of _records[0]
        self._next_index = 1
        self._users: Dict[str, int] = {}  # user id -> highest cleared index
        self._next_user = 1
        #: Records dropped because no user was registered and capacity hit.
        self.overflow_drops = 0
        self.total_appended = 0
        #: The record-type mask (``mdd.*.changelog_mask``): only types in
        #: the mask are recorded.  Defaults to everything.
        self._mask: frozenset[RecordType] = frozenset(RecordType)
        #: Records suppressed by the mask (observability).
        self.mask_suppressed = 0
        #: Readiness events set on every recorded append (collectors).
        self.wakers = Wakers()

    # -- user registration ---------------------------------------------------

    def register_user(self) -> str:
        """Register a changelog consumer; returns an id like ``cl1``."""
        with self._lock:
            user_id = f"cl{self._next_user}"
            self._next_user += 1
            # A new user starts at the current tail: it sees only records
            # appended after registration, like lctl changelog_register.
            self._users[user_id] = self._next_index - 1
            return user_id

    def deregister_user(self, user_id: str) -> None:
        """Remove a consumer and release its purge pointer."""
        with self._lock:
            if user_id not in self._users:
                raise ChangelogUserError(f"unknown changelog user {user_id!r}")
            del self._users[user_id]
            self._purge()

    @property
    def users(self) -> list[str]:
        """Registered changelog user ids."""
        with self._lock:
            return sorted(self._users)

    # -- mask -------------------------------------------------------------

    @property
    def mask(self) -> frozenset[RecordType]:
        """Record types currently being logged."""
        with self._lock:
            return self._mask

    def set_mask(self, record_types) -> None:
        """Restrict logging to *record_types* (``changelog_mask``).

        Suppressed operations are counted in ``mask_suppressed``.  MARK
        records are always allowed (Lustre uses them for bookkeeping).
        """
        with self._lock:
            self._mask = frozenset(record_types) | {RecordType.MARK}

    def reset_mask(self) -> None:
        """Log every record type again (the default)."""
        with self._lock:
            self._mask = frozenset(RecordType)

    # -- append ---------------------------------------------------------------

    def append(
        self,
        rec_type: RecordType,
        target_fid: Fid,
        parent_fid: Fid,
        name: str,
        flags: ChangelogFlag = ChangelogFlag.NONE,
        source_parent_fid: Optional[Fid] = None,
        source_name: Optional[str] = None,
        jobid: Optional[str] = None,
    ) -> Optional[ChangelogRecord]:
        """Append a record; returns it (None if the mask suppressed it)."""
        with self._lock:
            if rec_type not in self._mask:
                self.mask_suppressed += 1
                return None
            record = ChangelogRecord(
                index=self._next_index,
                rec_type=rec_type,
                timestamp=self._clock.now(),
                flags=flags,
                target_fid=target_fid,
                parent_fid=parent_fid,
                name=name,
                source_parent_fid=source_parent_fid,
                source_name=source_name,
                jobid=jobid,
            )
            self._next_index += 1
            self._records.append(record)
            self.total_appended += 1
            if self._capacity is not None and len(self._records) > self._capacity:
                # A full changelog with no consumers drops its oldest
                # records (real deployments must size the log or attach
                # a consumer; we surface the loss explicitly).
                dropped = len(self._records) - self._capacity
                del self._records[:dropped]
                self._first_index += dropped
                self.overflow_drops += dropped
            self.wakers.ring()
            return record

    # -- read / clear --------------------------------------------------------

    def read(
        self, user_id: str, max_records: Optional[int] = None
    ) -> list[ChangelogRecord]:
        """Records after *user_id*'s bookmark, oldest first.

        Reading does **not** advance the purge pointer; call :meth:`clear`
        once records are durably consumed.
        """
        with self._lock:
            if user_id not in self._users:
                raise ChangelogUserError(f"unknown changelog user {user_id!r}")
            start_index = max(self._users[user_id] + 1, self._first_index)
            offset = start_index - self._first_index
            records = self._records[offset:]
            if max_records is not None:
                records = records[:max_records]
            return list(records)

    def clear(self, user_id: str, up_to_index: int) -> None:
        """Acknowledge consumption of records up to *up_to_index*.

        Records become purgeable once every registered user has cleared
        them; purging happens immediately here.
        """
        with self._lock:
            if user_id not in self._users:
                raise ChangelogUserError(f"unknown changelog user {user_id!r}")
            if up_to_index >= self._next_index:
                raise ChangelogError(
                    f"clear({up_to_index}) beyond last record "
                    f"{self._next_index - 1}"
                )
            self._users[user_id] = max(self._users[user_id], up_to_index)
            self._purge()

    def _purge(self) -> None:
        if not self._users:
            return
        horizon = min(self._users.values())
        purgeable = horizon - self._first_index + 1
        if purgeable > 0:
            del self._records[:purgeable]
            self._first_index += purgeable

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def backlog(self) -> int:
        """Records retained (not yet purged)."""
        return len(self)

    @property
    def last_index(self) -> int:
        """Index of the most recent record (0 if none ever appended)."""
        with self._lock:
            return self._next_index - 1

    @property
    def first_retained_index(self) -> int:
        """Index of the oldest retained record."""
        with self._lock:
            return self._first_index

    def dump(self) -> Iterator[str]:
        """Yield every retained record in textual form (oldest first)."""
        with self._lock:
            snapshot = list(self._records)
        for record in snapshot:
            yield record.format()
