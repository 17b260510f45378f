"""The volatile backend: the store's historical behaviour, unchanged.

Every durability hook is a no-op and recovery always finds nothing, so
an :class:`EventStore` over a :class:`MemoryBackend` is exactly the
pre-backend in-memory window — the equivalence is pinned by a
hypothesis property in ``tests/test_storage.py``.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.storage.base import RecoveredState, StoreBackend


class MemoryBackend(StoreBackend):
    """No durability: the records in the store's window are the only copy."""

    durable = False
    scheme = "memory"

    def recover(self, max_events: int) -> Union[RecoveredState, None]:
        return None

    def append(self, first_seq: int, records: Sequence[bytes]) -> None:
        pass

    def adopt(
        self, records: Sequence[bytes], next_seq: int, total_stored: int
    ) -> None:
        pass
