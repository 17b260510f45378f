"""The pluggable durability contract behind :class:`EventStore`.

The store keeps its behaviour — the bounded indexed window, contiguous
sequence numbers, the ``since``/``recent``/``query`` retrieval API —
and delegates *durability* to a :class:`StoreBackend`:

* :class:`~repro.core.storage.memory.MemoryBackend` is the paper's
  volatile catalog: every hook is a no-op, recovery finds nothing.
  Attaching it is behaviourally identical to the pre-backend store
  (pinned by a hypothesis equivalence property in the tests).
* :class:`~repro.core.storage.segments.SegmentLogBackend` is an
  append-only segment log of fixed-layout binary records; a store
  constructed over a non-empty log resumes exactly where the previous
  incarnation crashed.

Backends trade in the store's own records
(:func:`repro.msgq.framing.pack_entry` bytes): the store packs each
event once, keeps the record in its window and hands the same bytes
to ``append``; recovery hands records back without decoding them.

Every hook is called by the store with its lock held (except
``recover``, which runs during construction before the store is
shared), so backends may assume calls are serialised.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union


@dataclass
class RecoveredState:
    """What a durable backend salvaged for the store at construction.

    ``entries`` is the retained window — ``(seq, record)`` pairs in
    sequence order, already capped at the store's ``max_events`` —
    and the counters restore the store's lifetime accounting:
    ``total_rotated`` is derived as ``total_stored - len(entries)``
    (the store's standing invariant), so events present in the log but
    beyond the window cap count as rotated.
    """

    entries: List[Tuple[int, bytes]] = field(default_factory=list)
    next_seq: int = 1
    total_stored: int = 0

    @property
    def total_rotated(self) -> int:
        return self.total_stored - len(self.entries)


class StoreBackend(ABC):
    """Durability hooks the :class:`EventStore` drives.

    The lifecycle: ``recover`` once at attach time, then ``append`` on
    every stored batch, ``note_floor`` whenever rotation advances the
    oldest retained sequence number (the compaction signal),
    ``mark_snapshotted`` when a snapshot made a log prefix redundant,
    and ``adopt`` when a restored window replaces the log wholesale.
    """

    #: True when the backend survives a process crash; the aggregator
    #: exports the backend's stats as gauges only for durable backends.
    durable: bool = False

    #: Short scheme name (``memory`` / ``segments``) for logs and URLs.
    scheme: str = "abstract"

    @abstractmethod
    def recover(self, max_events: int) -> Union[RecoveredState, None]:
        """Salvage prior state, or None when there is nothing to restore.

        Called exactly once, before the store is visible to any other
        thread.  ``max_events`` caps the returned window (older
        records count as rotated).
        """

    @abstractmethod
    def append(self, first_seq: int, records: Sequence[bytes]) -> None:
        """Persist one atomically-stored batch of records (contiguous
        sequence numbers starting at *first_seq*), before the store's
        in-memory window mutates — write-ahead order."""

    def note_floor(self, floor_seq: int) -> None:
        """Rotation advanced the oldest retained seq to *floor_seq*;
        records below it are dead weight the backend may compact."""

    def mark_snapshotted(self, last_seq: int, total_stored: int) -> None:
        """A snapshot now durably covers every record with
        ``seq <= last_seq`` (lifetime ``total_stored`` at that point);
        the backend may discard that log prefix."""

    def adopt(
        self, records: Sequence[bytes], next_seq: int, total_stored: int
    ) -> None:
        """Replace the log's contents with a restored window of records
        (the ``EventStore.load`` path), so the log alone reproduces the
        restored store from now on."""

    def sync(self) -> None:
        """Force buffered records to stable storage (fsync)."""

    def stats(self) -> Dict[str, Union[int, float]]:
        """Observability counters (fsyncs, segments, bytes …); empty
        for backends with nothing to report."""
        return {}

    def close(self) -> None:
        """Flush and release resources; further appends may reopen."""
