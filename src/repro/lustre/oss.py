"""Object storage servers (OSS) and targets (OST) with file striping.

File *data* in Lustre lives in objects on OSTs; a file's layout maps
byte ranges round-robin across its stripe objects.  The monitor never
reads data, but the substrate models it so the event-generation
workloads (create/write/delete scripts) exercise a realistic pipeline
and so capacity accounting is available to policy examples (e.g. a
purge-when-full rule).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import LustreError

#: Default stripe size: 1 MiB, Lustre's default.
DEFAULT_STRIPE_SIZE = 1 << 20


@dataclass(frozen=True, slots=True)
class StripeLayout:
    """A file's layout: ordered (ost_index, object_id) stripe objects."""

    stripe_size: int
    objects: tuple[tuple[int, int], ...]

    @property
    def stripe_count(self) -> int:
        return len(self.objects)

    def ost_for_offset(self, offset: int) -> tuple[int, int]:
        """The (ost_index, object_id) holding byte *offset*."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        stripe = (offset // self.stripe_size) % self.stripe_count
        return self.objects[stripe]


class ObjectStorageTarget:
    """One OST: an object table with byte-level capacity accounting."""

    def __init__(self, index: int, capacity_bytes: Optional[int] = None) -> None:
        self.index = index
        self.capacity_bytes = capacity_bytes
        self._objects: Dict[int, int] = {}  # object id -> size
        self._next_object = 1
        self._lock = threading.Lock()
        self.used_bytes = 0

    def create_object(self) -> int:
        """Allocate a new, empty object; returns its id."""
        with self._lock:
            object_id = self._next_object
            self._next_object += 1
            self._objects[object_id] = 0
            return object_id

    def write_object(self, object_id: int, size: int) -> None:
        """Set the size of *object_id* (idempotent full-object write)."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        with self._lock:
            if object_id not in self._objects:
                raise LustreError(f"OST{self.index}: unknown object {object_id}")
            previous = self._objects[object_id]
            delta = size - previous
            if (
                self.capacity_bytes is not None
                and self.used_bytes + delta > self.capacity_bytes
            ):
                raise LustreError(f"OST{self.index} out of space")
            self._objects[object_id] = size
            self.used_bytes += delta

    def destroy_object(self, object_id: int) -> None:
        """Remove *object_id*, releasing its bytes."""
        with self._lock:
            size = self._objects.pop(object_id, None)
            if size is None:
                raise LustreError(f"OST{self.index}: unknown object {object_id}")
            self.used_bytes -= size

    @property
    def object_count(self) -> int:
        with self._lock:
            return len(self._objects)


class ObjectStorageServer:
    """An OSS host serving one or more OSTs."""

    def __init__(self, name: str, osts: list[ObjectStorageTarget]) -> None:
        if not osts:
            raise LustreError(f"OSS {name!r} must serve at least one OST")
        self.name = name
        self.osts = list(osts)


class OstPool:
    """All OSTs in the filesystem plus round-robin stripe allocation."""

    def __init__(self, servers: list[ObjectStorageServer]) -> None:
        if not servers:
            raise LustreError("need at least one OSS")
        self.servers = list(servers)
        self._osts: Dict[int, ObjectStorageTarget] = {}
        for server in servers:
            for ost in server.osts:
                if ost.index in self._osts:
                    raise LustreError(f"duplicate OST index {ost.index}")
                self._osts[ost.index] = ost
        self._lock = threading.Lock()
        self._rr_next = 0

    @classmethod
    def build(
        cls,
        num_oss: int = 1,
        osts_per_oss: int = 1,
        ost_capacity_bytes: Optional[int] = None,
    ) -> "OstPool":
        servers = []
        index = 0
        for host in range(num_oss):
            osts = []
            for _ in range(osts_per_oss):
                osts.append(ObjectStorageTarget(index, ost_capacity_bytes))
                index += 1
            servers.append(ObjectStorageServer(f"oss{host}", osts))
        return cls(servers)

    @property
    def ost_count(self) -> int:
        return len(self._osts)

    def ost(self, index: int) -> ObjectStorageTarget:
        try:
            return self._osts[index]
        except KeyError:
            raise LustreError(f"no OST with index {index}") from None

    @property
    def used_bytes(self) -> int:
        """Total bytes stored across all OSTs."""
        return sum(ost.used_bytes for ost in self._osts.values())

    @property
    def capacity_bytes(self) -> Optional[int]:
        """Total capacity (None if any OST is unbounded)."""
        total = 0
        for ost in self._osts.values():
            if ost.capacity_bytes is None:
                return None
            total += ost.capacity_bytes
        return total

    def allocate_layout(
        self, stripe_count: int = 1, stripe_size: int = DEFAULT_STRIPE_SIZE
    ) -> StripeLayout:
        """Create stripe objects round-robin across OSTs."""
        if stripe_count < 1:
            raise LustreError(f"stripe_count must be >= 1: {stripe_count}")
        if stripe_count > self.ost_count:
            stripe_count = self.ost_count
        ordered = sorted(self._osts)
        with self._lock:
            start = self._rr_next % self.ost_count
            self._rr_next += stripe_count
        objects = []
        for i in range(stripe_count):
            ost_index = ordered[(start + i) % self.ost_count]
            object_id = self._osts[ost_index].create_object()
            objects.append((ost_index, object_id))
        return StripeLayout(stripe_size=stripe_size, objects=tuple(objects))

    def write_layout(self, layout: StripeLayout, size: int) -> None:
        """Distribute *size* bytes across the layout's stripe objects."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        full_stripes, remainder = divmod(size, layout.stripe_size)
        per_object = [0] * layout.stripe_count
        for stripe in range(full_stripes):
            per_object[stripe % layout.stripe_count] += layout.stripe_size
        if remainder:
            per_object[full_stripes % layout.stripe_count] += remainder
        for (ost_index, object_id), nbytes in zip(layout.objects, per_object):
            self.ost(ost_index).write_object(object_id, nbytes)

    def destroy_layout(self, layout: StripeLayout) -> None:
        """Destroy every stripe object of *layout*."""
        for ost_index, object_id in layout.objects:
            self.ost(ost_index).destroy_object(object_id)
