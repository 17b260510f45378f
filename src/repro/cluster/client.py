"""ClusterClient: scatter-gather queries over the per-shard REP APIs.

Each shard answers its own historic-event API exactly as a
single-aggregator monitor would; this client fans a query out to every
shard and reassembles one logical answer:

* ``events_since``/``query`` return ``(shard, seq, event)`` triples
  merged into the cluster's **total order** — shards in membership
  order, then per-shard sequence order.  (Per-shard seqs are each
  monotone but mutually incomparable; the ``(shard, seq)`` pair is the
  cluster-wide cursor, exactly what consumers' per-shard watermarks
  track.)
* ``recent`` gathers each shard's tail, keeps the *count* newest
  events by timestamp, and returns them in the same total order.
* ``stats`` sums every numeric counter across the per-shard registry
  snapshots (the per-shard answers ride along unsummed).
* ``catch_up`` pages every shard's ``since`` API from the consumer's
  per-shard watermark — the cluster-wide recovery primitive.

Built purely from :class:`~repro.core.client.MonitorClient` instances,
one per shard, so deterministic (pumped) and live (API-thread) modes
both work unchanged.

**Opaque cursors.**  Callers used to hold per-shard watermark dicts to
resume paging; now the per-shard state travels as one *opaque cursor*
string — URL-safe base64 of the watermark map — minted by
:func:`encode_cursor` and consumed by :meth:`ClusterClient.page` /
:meth:`events_since_all` / :meth:`catch_up`.  A cursor is resumable
across client instances (and across the HTTP gateway boundary, which
is why it exists): feed the cursor a previous page returned and you
get everything stored after it, exactly once per shard stream.  The
merged order within one page is the ``(shard, seq)`` total order;
events appended to an *earlier* shard after a later shard was paged
surface on the next resume, so cross-shard order is only meaningful
within a page — per-shard order is strict always.

:class:`AsyncClusterClient` is the asyncio facade: every blocking
scatter-gather call runs on the default executor behind one lock (the
underlying REQ sockets are strictly lock-step), so async services —
the gateway tier — await cluster answers without stalling their loop.
"""

from __future__ import annotations

import asyncio
import base64
import functools
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro.core.client import MonitorClient
from repro.core.events import EventType, FileEvent

__all__ = [
    "AsyncClusterClient",
    "ClusterClient",
    "ClusterPage",
    "decode_cursor",
    "encode_cursor",
]

#: A cluster cursor: either one seq applied to every shard, or an
#: explicit per-shard mapping (missing shards default to 0).
Cursors = Union[int, dict[str, int]]


def encode_cursor(watermarks: Mapping[str, int]) -> str:
    """Pack per-shard watermarks into one opaque resumable token."""
    payload = json.dumps(
        {shard: int(seq) for shard, seq in sorted(watermarks.items())},
        separators=(",", ":"),
    ).encode("ascii")
    return base64.urlsafe_b64encode(payload).decode("ascii").rstrip("=")


def decode_cursor(
    token: Optional[str], shard_ids: Optional[tuple[str, ...]] = None
) -> dict[str, int]:
    """Unpack an opaque cursor back into per-shard watermarks.

    ``None``/empty means "from the beginning" ({}).  Raises
    :class:`ValueError` on malformed tokens and, when *shard_ids* is
    given, on watermarks naming unknown shards — a cursor from another
    cluster must fail loudly, not silently replay everything.
    """
    if not token:
        return {}
    try:
        padded = token + "=" * (-len(token) % 4)
        data = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
    except Exception:
        raise ValueError(f"malformed cursor {token!r}") from None
    if not isinstance(data, dict):
        raise ValueError(f"malformed cursor {token!r}")
    watermarks: dict[str, int] = {}
    for shard, seq in data.items():
        if not isinstance(shard, str) or not isinstance(seq, int) or seq < 0:
            raise ValueError(f"malformed cursor {token!r}")
        watermarks[shard] = seq
    if shard_ids is not None:
        unknown = set(watermarks) - set(shard_ids)
        if unknown:
            raise ValueError(
                f"cursor names unknown shard(s) {sorted(unknown)}"
            )
    return watermarks


@dataclass(frozen=True)
class ClusterPage:
    """One bounded page of the cluster-wide event sequence.

    ``cursor`` resumes after the page's last consumed event;
    ``exhausted`` is True when the page provably drained every shard
    at request time (a False may still be followed by an empty page).
    """

    entries: tuple[tuple[str, int, FileEvent], ...]
    cursor: str
    exhausted: bool

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class ClusterClient:
    """Query-only, scatter-gather access to a sharded cluster."""

    def __init__(self, clients: dict[str, MonitorClient]) -> None:
        if not clients:
            raise ValueError("a ClusterClient needs at least one shard")
        #: Per-shard clients in membership order — the order that
        #: defines the merged total order.
        self.clients = dict(clients)
        self._order = {sid: i for i, sid in enumerate(self.clients)}

    @classmethod
    def for_cluster(
        cls, cluster, timeout: float = 5.0, live: bool = False
    ) -> "ClusterClient":
        """Build a client over every shard of a LustreMonitor.

        Deterministic mode (the default) pumps each shard's API inline
        per request; ``live=True`` instead issues real REQ/REP requests
        answered by the shards' running API threads — required when a
        service (the gateway) queries a *started* cluster, where inline
        pumping would race the shard's own worker.
        """
        if live:
            return cls(
                {
                    shard_id: MonitorClient(
                        cluster.context, config, timeout=timeout
                    )
                    for shard_id, config in cluster.shard_configs.items()
                }
            )
        return cls(
            {
                shard_id: MonitorClient.for_aggregator(
                    cluster.context, shard, timeout=timeout
                )
                for shard_id, shard in cluster.shard_handles.items()
            }
        )

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(self.clients)

    def _merge(
        self, per_shard: dict[str, list[tuple[int, FileEvent]]]
    ) -> list[tuple[str, int, FileEvent]]:
        """Flatten per-shard pages into the (shard, seq) total order."""
        merged = [
            (shard_id, seq, event)
            for shard_id, page in per_shard.items()
            for seq, event in page
        ]
        merged.sort(key=lambda entry: (self._order[entry[0]], entry[1]))
        return merged

    # -- cursors -----------------------------------------------------------

    def _cursor(self, cursors: Cursors, shard_id: str) -> int:
        if isinstance(cursors, dict):
            return cursors.get(shard_id, 0)
        return cursors

    def last_seq(self) -> dict[str, int]:
        """Each shard's highest stored sequence number — the cluster
        cursor to resume :meth:`events_since` from."""
        return {
            shard_id: client.last_seq()
            for shard_id, client in self.clients.items()
        }

    # -- queries -----------------------------------------------------------

    def head_cursor(self) -> str:
        """The opaque cursor at the current cluster head — resume from
        here to stream only events stored after this call."""
        return encode_cursor(self.last_seq())

    def cursor_for(self, consumer) -> str:
        """A consumer's per-shard watermarks as an opaque cursor."""
        return encode_cursor(
            {shard_id: consumer.watermark(shard_id) for shard_id in self.clients}
        )

    def page(
        self, cursor: Optional[str] = None, limit: int = 1024
    ) -> ClusterPage:
        """One bounded page of events past *cursor*, plus its resume
        token.

        Shards are paged in membership order; the returned cursor
        reflects exactly the entries consumed, so paging never skips
        or duplicates an event no matter where the page boundary
        falls.  ``None`` starts from the beginning of retention.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1: {limit}")
        resumed = decode_cursor(cursor, self.shard_ids)
        watermarks = {
            shard_id: resumed.get(shard_id, 0) for shard_id in self.clients
        }
        out: list[tuple[str, int, FileEvent]] = []
        exhausted = True
        shard_list = list(self.clients.items())
        for index, (shard_id, client) in enumerate(shard_list):
            drained = False
            while len(out) < limit and not drained:
                need = limit - len(out)
                chunk = client.events_since(watermarks[shard_id], limit=need)
                for seq, event in chunk:
                    out.append((shard_id, seq, event))
                    watermarks[shard_id] = seq
                drained = len(chunk) < need
            if len(out) >= limit:
                exhausted = drained and index == len(shard_list) - 1
                break
        return ClusterPage(tuple(out), encode_cursor(watermarks), exhausted)

    def events_since_all(
        self, cursor: Optional[str] = None, page_size: int = 1024
    ) -> tuple[list[tuple[str, int, FileEvent]], str]:
        """Everything past *cursor* in bounded pages, plus the resume
        token — the cluster analogue of
        :meth:`MonitorClient.events_since_all`, minus the per-shard
        bookkeeping callers used to carry themselves."""
        collected: list[tuple[str, int, FileEvent]] = []
        while True:
            page = self.page(cursor, limit=page_size)
            collected.extend(page.entries)
            cursor = page.cursor
            if page.exhausted:
                return collected, cursor

    def events_since(
        self, cursors: Cursors = 0, page_size: int = 1024
    ) -> list[tuple[str, int, FileEvent]]:
        """Every event past the cursor on every shard, merged.

        *cursors* is one seq for all shards or a per-shard dict (the
        shape :meth:`last_seq` returns).  Each shard is paged with
        bounded requests, so no reply materialises a whole window.
        """
        return self._merge(
            {
                shard_id: client.events_since_all(
                    self._cursor(cursors, shard_id), page_size=page_size
                )
                for shard_id, client in self.clients.items()
            }
        )

    def recent(self, count: int) -> list[tuple[str, int, FileEvent]]:
        """The *count* newest events cluster-wide.

        Gathers each shard's own ``recent(count)`` tail (any shard
        could hold all of the newest events), keeps the newest *count*
        by event timestamp, and returns them in ``(shard, seq)``
        order.
        """
        gathered = []
        for shard_id, client in self.clients.items():
            for seq, event in client.recent(count):
                gathered.append((shard_id, seq, event))
        gathered.sort(
            key=lambda e: (e[2].timestamp, self._order[e[0]], e[1])
        )
        newest = gathered[-count:] if count > 0 else []
        newest.sort(key=lambda e: (self._order[e[0]], e[1]))
        return newest

    def query(
        self,
        path_prefix: Optional[str] = None,
        event_type: Optional[EventType] = None,
        since_time: Optional[float] = None,
        until_time: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[str, int, FileEvent]]:
        """Filtered retrieval scattered to every shard and merged.

        *limit* applies per shard at the store scan (bounding each
        reply) and again to the merged result.
        """
        merged = self._merge(
            {
                shard_id: client.query(
                    path_prefix=path_prefix,
                    event_type=event_type,
                    since_time=since_time,
                    until_time=until_time,
                    limit=limit,
                )
                for shard_id, client in self.clients.items()
            }
        )
        return merged[:limit] if limit is not None else merged

    def activity_summary(self, path_prefix: str = "/") -> dict[str, int]:
        """Counts by event type under *path_prefix*, cluster-wide."""
        counts: dict[str, int] = {}
        for _shard, _seq, event in self.query(path_prefix=path_prefix):
            key = event.event_type.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    # -- aggregation -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Summed counters plus the raw per-shard stats answers.

        ``totals`` sums every numeric metric present in any shard's
        registry snapshot (``events_stored``, ``api_requests`` …);
        non-numeric entries (the ``health`` record) stay per-shard
        only.
        """
        per_shard = {
            shard_id: client.stats()
            for shard_id, client in self.clients.items()
        }
        totals: dict[str, Any] = {}
        for snapshot in per_shard.values():
            for name, value in snapshot.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                totals[name] = totals.get(name, 0) + value
        return {"totals": totals, "per_shard": per_shard}

    def metrics(self) -> dict[str, Any]:
        """The cluster's metrics exposition.

        Every shard shares one registry, so any shard's ``metrics``
        answer already covers the whole tree — this asks the first
        shard and returns its exposition verbatim.
        """
        first = next(iter(self.clients.values()))
        return first.metrics()

    # -- recovery ----------------------------------------------------------

    def catch_up(
        self,
        consumer,
        page_size: int = 1024,
        cursor: Optional[str] = None,
    ) -> int:
        """Backfill *consumer* from every shard's historic API.

        Pages the cluster sequence through :meth:`page` — from
        *cursor* when given, else from the consumer's own per-shard
        watermarks — delivering through the consumer's dedup with the
        shard as the source; the cluster analogue of
        :meth:`Consumer.catch_up`.  Returns the number of events
        fetched (the consumer's watermarks decide what is new); the
        resumable position afterwards is :meth:`cursor_for`, so a
        caller restarting later needs the cursor string, not per-shard
        state of its own.
        """
        if cursor is None:
            cursor = self.cursor_for(consumer)
        recovered = 0
        while True:
            page = self.page(cursor, limit=page_size)
            for shard_id, seq, event in page.entries:
                consumer.deliver(seq, event, source=shard_id)
                # Advance over redeliveries too, so paging ends.
                consumer.advance_watermark(shard_id, seq)
            recovered += len(page)
            cursor = page.cursor
            if page.exhausted:
                return recovered

    def as_async(self) -> "AsyncClusterClient":
        """This client behind an awaitable facade (gateway tier)."""
        return AsyncClusterClient(self)

    def close(self) -> None:
        for client in self.clients.values():
            client.close()


class AsyncClusterClient:
    """Awaitable facade over a :class:`ClusterClient`.

    Every call runs the blocking scatter-gather on the event loop's
    default executor, serialised by one async lock — REQ/REP sockets
    are strictly lock-step, so two in-flight requests on one client
    would interleave replies.  Handlers that need parallel queries use
    separate underlying clients.
    """

    def __init__(self, client: ClusterClient) -> None:
        self.client = client
        self._lock = asyncio.Lock()

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return self.client.shard_ids

    async def _call(self, fn, /, *args, **kwargs):
        async with self._lock:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, functools.partial(fn, *args, **kwargs)
            )

    async def page(
        self, cursor: Optional[str] = None, limit: int = 1024
    ) -> ClusterPage:
        return await self._call(self.client.page, cursor, limit)

    async def events_since_all(
        self, cursor: Optional[str] = None, page_size: int = 1024
    ) -> tuple[list[tuple[str, int, FileEvent]], str]:
        return await self._call(
            self.client.events_since_all, cursor, page_size
        )

    async def head_cursor(self) -> str:
        return await self._call(self.client.head_cursor)

    async def last_seq(self) -> dict[str, int]:
        return await self._call(self.client.last_seq)

    async def recent(self, count: int) -> list[tuple[str, int, FileEvent]]:
        return await self._call(self.client.recent, count)

    async def query(self, **kwargs) -> list[tuple[str, int, FileEvent]]:
        return await self._call(functools.partial(self.client.query, **kwargs))

    async def stats(self) -> dict[str, Any]:
        return await self._call(self.client.stats)

    def close(self) -> None:
        self.client.close()
