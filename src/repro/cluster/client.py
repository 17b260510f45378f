"""ClusterClient: the one client of the historic-event REQ/REP API.

Each shard answers its own historic-event API; this client holds one
REQ socket per shard, fans a query out to every shard and reassembles
one logical answer.  A one-shard monitor, a standalone
:class:`~repro.core.aggregator.Aggregator` and a
:class:`~repro.core.relay.RelayAggregator` are each a one-shard
cluster (:meth:`ClusterClient.for_aggregator`):

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
  per-shard watermark — the recovery primitive for a consumer that
  missed live messages.

Two modes: *live* requests are answered by the shards' running API
workers; *pumped* requests (an unstarted system, deterministic tests)
are answered on the caller's thread, which calls the shard's
``serve_api_once`` until the reply is set.

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
from itertools import groupby
from operator import itemgetter
from typing import Any, Mapping, Optional, Union

from repro.core.aggregator import AggregatorConfig
from repro.core.events import EventType, FileEvent
from repro.msgq import Transport

__all__ = [
    "AsyncClusterClient",
    "ClusterClient",
    "ClusterPage",
    "decode_cursor",
    "encode_cursor",
]

#: A shard id: the shard's label, or ``None`` for an unlabelled
#: (standalone or relay) aggregator — the key its consumers' watermark
#: has.
ShardId = Optional[str]

#: A cluster cursor: either one seq applied to every shard, or an
#: explicit per-shard mapping (missing shards default to 0).
Cursors = Union[int, dict[ShardId, int]]

#: The unlabelled shard's name inside a cursor (JSON keys are strings).
_UNLABELLED = "-"


def encode_cursor(watermarks: Mapping[ShardId, int]) -> str:
    """Pack per-shard watermarks into one opaque resumable token."""
    named = {
        _UNLABELLED if shard is None else shard: int(seq)
        for shard, seq in watermarks.items()
    }
    payload = json.dumps(
        dict(sorted(named.items())), separators=(",", ":")
    ).encode("ascii")
    return base64.urlsafe_b64encode(payload).decode("ascii").rstrip("=")


def decode_cursor(
    token: Optional[str], shard_ids: Optional[tuple[ShardId, ...]] = None
) -> dict[ShardId, int]:
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
    watermarks: dict[ShardId, int] = {}
    for shard, seq in data.items():
        if not isinstance(seq, int) or seq < 0:
            raise ValueError(f"malformed cursor {token!r}")
        watermarks[None if shard == _UNLABELLED else shard] = seq
    if shard_ids is not None:
        unknown = set(watermarks) - set(shard_ids)
        if unknown:
            raise ValueError(
                f"cursor names unknown shard(s) {sorted(map(str, unknown))}"
            )
    return watermarks


@dataclass(frozen=True)
class ClusterPage:
    """One bounded page of the cluster-wide event sequence.

    ``cursor`` resumes after the page's last consumed event;
    ``exhausted`` is True when the page provably drained every shard
    at request time (a False may still be followed by an empty page).
    """

    entries: tuple[tuple[ShardId, int, FileEvent], ...]
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
    """Query-only, scatter-gather access to a cluster's historic API."""

    def __init__(
        self,
        context: Transport,
        configs: Mapping[ShardId, AggregatorConfig],
        timeout: float = 5.0,
        servers: Optional[Mapping[ShardId, Any]] = None,
    ) -> None:
        """One REQ socket per shard of *configs*, in membership order
        (the order that defines the merged total order).

        *servers* maps a shard to what answers its API when nothing
        runs it — an Aggregator or a multiproc ProcessShardBridge,
        anything with ``serve_api_once(timeout)``; that shard's
        requests are then pumped on the caller's thread.
        """
        if not configs:
            raise ValueError("a ClusterClient needs at least one shard")
        self.timeout = timeout
        servers = servers or {}
        #: shard id -> (REQ socket, inline server step or None).
        self._shards = {
            shard_id: (
                context.req().connect(config.api_endpoint),
                getattr(servers.get(shard_id), "serve_api_once", None),
            )
            for shard_id, config in configs.items()
        }
        self._order = {sid: i for i, sid in enumerate(self._shards)}

    @classmethod
    def for_cluster(
        cls, cluster, timeout: float = 5.0, live: bool = False
    ) -> "ClusterClient":
        """Build a client over every shard of a LustreMonitor.

        Pumped mode (the default) answers each request inline on the
        caller's thread; ``live=True`` instead issues real REQ/REP
        requests answered by the shards' running API workers — required
        when a service (the gateway) queries a *started* cluster, where
        inline pumping would race the shard's own worker.
        """
        servers = None if live else cluster.shard_handles
        return cls(cluster.context, cluster.shard_configs, timeout, servers)

    @classmethod
    def for_aggregator(
        cls, context: Transport, aggregator: Any, timeout: float = 5.0
    ) -> "ClusterClient":
        """A pumped one-shard client over one aggregator, relay or
        process-shard bridge, keyed on its ``shard_label`` (``None``
        for an unlabelled aggregator)."""
        label = aggregator.config.shard_label
        return cls(
            context, {label: aggregator.config}, timeout, {label: aggregator}
        )

    @property
    def shard_ids(self) -> tuple[ShardId, ...]:
        return tuple(self._shards)

    def _ask(self, shard_id: ShardId, request: dict[str, Any]) -> Any:
        socket, serve = self._shards[shard_id]
        return socket.request(request, self.timeout, serve)

    def _ask_all(self, request: dict[str, Any]) -> dict[ShardId, Any]:
        return {
            shard_id: self._ask(shard_id, request) for shard_id in self._shards
        }

    def _merge(
        self, per_shard: dict[ShardId, list[tuple[int, FileEvent]]]
    ) -> list[tuple[ShardId, int, FileEvent]]:
        """Flatten per-shard pages into the (shard, seq) total order."""
        merged = [
            (shard_id, seq, event)
            for shard_id, page in per_shard.items()
            for seq, event in page
        ]
        merged.sort(key=lambda entry: (self._order[entry[0]], entry[1]))
        return merged

    # -- cursors -----------------------------------------------------------

    def last_seq(self) -> dict[ShardId, int]:
        """Each shard's highest stored sequence number — the cluster
        cursor to resume :meth:`events_since` from."""
        return self._ask_all({"op": "last_seq"})

    def head_cursor(self) -> str:
        """The opaque cursor at the current cluster head — resume from
        here to stream only events stored after this call."""
        return encode_cursor(self.last_seq())

    def cursor_for(self, consumer) -> str:
        """A consumer's per-shard watermarks as an opaque cursor."""
        return encode_cursor(
            {shard_id: consumer.watermark(shard_id) for shard_id in self._shards}
        )

    # -- queries -----------------------------------------------------------

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
            shard_id: resumed.get(shard_id, 0) for shard_id in self._shards
        }
        out: list[tuple[ShardId, int, FileEvent]] = []
        exhausted = True
        last = len(self._shards) - 1
        for index, shard_id in enumerate(self._shards):
            drained = False
            while len(out) < limit and not drained:
                need = limit - len(out)
                chunk = self._ask(
                    shard_id,
                    {"op": "since", "seq": watermarks[shard_id], "limit": need},
                )
                for seq, event in chunk:
                    out.append((shard_id, seq, event))
                    watermarks[shard_id] = seq
                drained = len(chunk) < need
            if len(out) >= limit:
                exhausted = drained and index == last
                break
        return ClusterPage(tuple(out), encode_cursor(watermarks), exhausted)

    def events_since_all(
        self, cursor: Optional[str] = None, page_size: int = 1024
    ) -> tuple[list[tuple[ShardId, int, FileEvent]], str]:
        """Everything past *cursor* in bounded pages, plus the resume
        token."""
        collected: list[tuple[ShardId, int, FileEvent]] = []
        while True:
            page = self.page(cursor, limit=page_size)
            collected.extend(page.entries)
            cursor = page.cursor
            if page.exhausted:
                return collected, cursor

    def events_since(
        self, cursors: Cursors = 0, page_size: int = 1024
    ) -> list[tuple[ShardId, int, FileEvent]]:
        """Every event past the cursor on every shard, merged.

        *cursors* is one seq for all shards or a per-shard dict (the
        shape :meth:`last_seq` returns).  Each shard is paged with
        bounded requests, so no reply materialises a whole window.
        """
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1: {page_size}")
        per_shard: dict[ShardId, list[tuple[int, FileEvent]]] = {}
        for shard_id in self._shards:
            seq = (
                cursors.get(shard_id, 0) if isinstance(cursors, dict)
                else cursors
            )
            collected = per_shard[shard_id] = []
            while True:
                chunk = self._ask(
                    shard_id, {"op": "since", "seq": seq, "limit": page_size}
                )
                collected.extend(chunk)
                if len(chunk) < page_size:
                    break
                seq = chunk[-1][0]
        return self._merge(per_shard)

    def recent(self, count: int) -> list[tuple[ShardId, int, FileEvent]]:
        """The *count* newest events cluster-wide.

        Gathers each shard's own ``recent(count)`` tail (any shard
        could hold all of the newest events), keeps the newest *count*
        by event timestamp, and returns them in ``(shard, seq)``
        order.
        """
        gathered = [
            (shard_id, seq, event)
            for shard_id, tail in self._ask_all(
                {"op": "recent", "count": count}
            ).items()
            for seq, event in tail
        ]
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
    ) -> list[tuple[ShardId, int, FileEvent]]:
        """Filtered retrieval scattered to every shard and merged.

        *limit* applies per shard at the store scan (bounding each
        reply) and again to the merged result.
        """
        merged = self._merge(
            self._ask_all(
                {
                    "op": "query",
                    "path_prefix": path_prefix,
                    "event_type": event_type.value if event_type else None,
                    "since_time": since_time,
                    "until_time": until_time,
                    "limit": limit,
                }
            )
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
        per_shard = self._ask_all({"op": "stats"})
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

        ``result['prometheus']`` is the registry rendered in the
        Prometheus text format; ``result['histograms']`` maps each
        histogram name (``pipeline.collect`` …) to its
        ``count/mean/max/p50/p95/p99`` summary.  Every shard shares one
        registry, so the first shard's answer already covers the whole
        tree and is returned verbatim.
        """
        return self._ask(next(iter(self._shards)), {"op": "metrics"})

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
        watermarks — and delivers each shard's run of a page as one
        batch through the consumer's dedup, with the shard as the
        source.  Counts one catch-up on the consumer and returns the
        number of events fetched (the consumer's watermarks decide
        what is new); the resumable position afterwards is
        :meth:`cursor_for`.
        """
        consumer.metrics.counter("catch_ups").inc()
        if cursor is None:
            cursor = self.cursor_for(consumer)
        recovered = 0
        while True:
            page = self.page(cursor, limit=page_size)
            for shard_id, run in groupby(page.entries, key=itemgetter(0)):
                entries = [(seq, event) for _shard, seq, event in run]
                consumer.deliver_entries(entries, shard_id)
                # Advance over redeliveries too, so paging ends.
                consumer.advance_watermark(shard_id, entries[-1][0])
            recovered += len(page)
            cursor = page.cursor
            if page.exhausted:
                return recovered

    def as_async(self) -> "AsyncClusterClient":
        """This client behind an awaitable facade (gateway tier)."""
        return AsyncClusterClient(self)

    def close(self) -> None:
        for socket, _serve in self._shards.values():
            socket.close()


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
