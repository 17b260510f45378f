"""MonitorClient: a convenience wrapper over the Aggregator's APIs.

Consumers embed a :class:`~repro.core.consumer.Consumer` for the live
stream; tools and dashboards often just want to *query* — "what
happened under /projects in the last hour?".  MonitorClient speaks the
historic-event REQ/REP API without subscribing to the live stream.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.aggregator import AggregatorConfig
from repro.core.events import EventType, FileEvent
from repro.msgq import Transport
from repro.runtime import call_with_pump


class MonitorClient:
    """Query-only access to a monitor's historic event catalog."""

    def __init__(
        self,
        context: Transport,
        config: AggregatorConfig | None = None,
        timeout: float = 5.0,
    ) -> None:
        self.config = config or AggregatorConfig()
        self.timeout = timeout
        self._socket = context.req().connect(self.config.api_endpoint)
        #: When set (deterministic mode), requests are answered by this
        #: server inline instead of by its API thread.  Duck-typed:
        #: anything with ``config`` and ``serve_api_once`` — an
        #: Aggregator or a multiproc ProcessShardBridge — qualifies.
        self.api_server: Optional[Any] = None

    @classmethod
    def for_monitor(cls, monitor, timeout: float = 5.0) -> "MonitorClient":
        """Build a client wired to a 1-shard LustreMonitor's only shard
        (deterministic mode).

        A sharded monitor's history is split across its shards, so it
        is refused rather than answered from shard0 alone: query it
        through :class:`~repro.cluster.ClusterClient` instead.
        """
        if len(monitor.shard_handles) != 1:
            raise ValueError(
                f"MonitorClient addresses one shard but the monitor has "
                f"{len(monitor.shard_handles)}; use "
                f"ClusterClient.for_cluster(monitor)"
            )
        (shard,) = monitor.shard_handles.values()
        return cls.for_aggregator(monitor.context, shard, timeout)

    @classmethod
    def for_aggregator(
        cls, context: Transport, aggregator: Any, timeout: float = 5.0
    ) -> "MonitorClient":
        """Build a client wired straight to one aggregator or process-
        shard bridge (one cluster shard, typically) in deterministic
        mode."""
        client = cls(context, aggregator.config, timeout)
        client.api_server = aggregator
        return client

    # -- plumbing ------------------------------------------------------------

    def _request(self, payload: dict[str, Any]) -> Any:
        if self.api_server is None:
            return self._socket.request(payload, timeout=self.timeout)
        # Deterministic mode: issue the request from a helper thread and
        # serve it inline (REQ/REP stays lock-step).
        return call_with_pump(
            lambda: self._socket.request(payload, timeout=self.timeout),
            lambda: self.api_server.serve_api_once(timeout=0.05),
        )

    # -- queries ----------------------------------------------------------------

    def last_seq(self) -> int:
        """Highest sequence number the aggregator has stored."""
        return self._request({"op": "last_seq"})

    def events_since(
        self, seq: int, limit: Optional[int] = None
    ) -> list[tuple[int, FileEvent]]:
        """Events newer than *seq* (the catch-up primitive).

        The aggregator's store honors *limit* during the scan, so this
        is O(limit) even against a full retained window.
        """
        return self._request({"op": "since", "seq": seq, "limit": limit})

    def events_since_all(
        self, seq: int, page_size: int = 1024
    ) -> list[tuple[int, FileEvent]]:
        """Every event newer than *seq*, fetched in bounded pages.

        Speaks the batched catch-up pattern consumers use: repeated
        ``since`` requests of at most *page_size* entries, so no single
        reply materialises the whole window.
        """
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1: {page_size}")
        collected: list[tuple[int, FileEvent]] = []
        cursor = seq
        while True:
            page = self.events_since(cursor, limit=page_size)
            collected.extend(page)
            if len(page) < page_size:
                return collected
            cursor = page[-1][0]

    def recent(self, count: int) -> list[tuple[int, FileEvent]]:
        """The most recent *count* events."""
        return self._request({"op": "recent", "count": count})

    def query(
        self,
        path_prefix: Optional[str] = None,
        event_type: Optional[EventType] = None,
        since_time: Optional[float] = None,
        until_time: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[int, FileEvent]]:
        """Filtered retrieval over the retained window."""
        return self._request(
            {
                "op": "query",
                "path_prefix": path_prefix,
                "event_type": event_type.value if event_type else None,
                "since_time": since_time,
                "until_time": until_time,
                "limit": limit,
            }
        )

    def stats(self) -> dict[str, Any]:
        """Aggregator-side counters (store size, rotation, throughput)."""
        return self._request({"op": "stats"})

    def metrics(self) -> dict[str, Any]:
        """The exposition answer: Prometheus text + histogram summaries.

        ``result['prometheus']`` is the registry rendered in the
        Prometheus text format; ``result['histograms']`` maps each
        histogram name (``pipeline.collect`` …) to its
        ``count/mean/max/p50/p95/p99`` summary.
        """
        return self._request({"op": "metrics"})

    def activity_summary(self, path_prefix: str = "/") -> dict[str, int]:
        """Counts by event type under *path_prefix* (retained window)."""
        counts: dict[str, int] = {}
        for _seq, event in self.query(path_prefix=path_prefix):
            key = event.event_type.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def close(self) -> None:
        self._socket.close()
