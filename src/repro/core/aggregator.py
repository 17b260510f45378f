"""The Aggregator: fan-in, durable store, live publication, historic API.

Paper §4, step 3: "A publisher-subscriber message queue is used to pass
messages between the Collectors and the Aggregator.  Once an event is
reported to the Aggregator it is immediately placed in a queue to be
processed.  The Aggregator is multi-threaded, enabling it to both
publish events to subscribed consumers and store the events in a local
database with minimal overhead.  The Aggregator maintains this database
and exposes an API to enable consumers to retrieve historic events."

Structure here:

* an inbound PULL endpoint collectors PUSH event batches to;
* an internal queue feeding two named service workers — ``pump`` stores
  each collector batch *atomically* into the rotating
  :class:`EventStore` (one lock acquisition, contiguous sequence
  numbers) and publishes
  :class:`~repro.core.events.EventBatch` messages on the PUB endpoint
  in global sequence order — one message per contiguous same-topic run
  of the batch (per-subtree topics when ``topic_by_path`` is on);
  ``api`` serves the historic-event REP endpoint (``since``/``recent``/
  ``query`` requests) with ``since`` honouring ``limit`` during the
  indexed scan.

Deterministic mode: :meth:`pump_once` performs receive→store→publish
synchronously, which tests and virtual-time drivers use.

As a :class:`~repro.runtime.Service`, the aggregator's counters live in
the shared metrics registry and the ``{'op': 'stats'}`` API answer is
derived from that registry (health record included) instead of scraping
instance attributes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.events import (
    EventBatch,
    EventType,
    FileEvent,
    approx_wire_bytes,
    iter_report,
)
from repro.core.store import EventStore
from repro.core.storage import open_store
from repro.errors import WouldBlock
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import Tracer, make_tracer
from repro.msgq import Transport
from repro.runtime import Service, Wake, WorkerSpec
from repro.util.logging import get_logger


@dataclass(frozen=True)
class AggregatorConfig:
    """Aggregator knobs."""

    inbound_endpoint: str = "inproc://aggregator"
    publish_endpoint: str = "inproc://events"
    api_endpoint: str = "inproc://history-api"
    store_max_events: int = 100_000
    #: Durability backend for the event store, as a URL:
    #: ``memory://`` (the default volatile window) or
    #: ``segments:///var/lib/repro/store`` (append-only segment log;
    #: ``?segment_bytes=&fsync=&compact_interval=`` tune it).  A store
    #: over a non-empty segment log *recovers* at construction — the
    #: aggregator resumes numbering and history from the log.
    store_url: str = "memory://"
    publish_topic: str = "events"
    hwm: int = 100_000
    #: When True, events are published under per-subtree topics
    #: (``events./projects``), so subscribers interested in one subtree
    #: filter *at the fabric* instead of discarding after delivery.
    topic_by_path: bool = False
    #: Flush policy for published batch messages: a same-topic run
    #: larger than ``batch_events`` events (0 = unbounded) or
    #: ``batch_bytes`` approximate wire bytes (0 = unbounded) is split
    #: into multiple :class:`~repro.core.events.EventBatch` messages.
    #: Bounds the latency/memory cost of one PUB message without giving
    #: up batch amortisation.
    batch_events: int = 0
    batch_bytes: int = 0
    #: Fraction of batches stamped with stage timestamps and recorded
    #: into the ``pipeline.*`` latency histograms (one histogram lock
    #: per stage per sampled batch).  ``0.0`` compiles the tracing path
    #: to no-ops: no histograms registered, no clock reads, no locks.
    trace_sample_rate: float = 1.0
    #: Shard identity stamped on every published
    #: :class:`~repro.core.events.EventBatch` when this aggregator is
    #: one shard of a cluster.  ``None`` (the default, and what a
    #: single-aggregator monitor uses) publishes unlabelled batches, so
    #: consumers fall back to their pre-cluster single watermark.
    shard_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.batch_events < 0:
            raise ValueError(f"batch_events must be >= 0: {self.batch_events}")
        if self.batch_bytes < 0:
            raise ValueError(f"batch_bytes must be >= 0: {self.batch_bytes}")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1]: {self.trace_sample_rate}"
            )
        scheme = self.store_url.split(":", 1)[0]
        if scheme not in ("memory", "segments"):
            raise ValueError(
                f"store_url scheme must be memory:// or segments://: "
                f"{self.store_url!r}"
            )


class Aggregator(Service):
    """Receives event batches, stores them, and publishes them."""

    def __init__(
        self,
        context: Transport,
        config: AggregatorConfig | None = None,
        store: EventStore | None = None,
        registry: Optional[MetricsRegistry] = None,
        name: str = "aggregator",
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(name, registry)
        self.context = context
        self.config = config or AggregatorConfig()
        self._log = get_logger(f"core.aggregator.{name}")
        #: Stage tracer: stamps sampled batches at store and publish
        #: time, recording the ``aggregate`` and ``publish`` stages.
        self.tracer: Tracer = (
            tracer
            if tracer is not None
            else make_tracer(self.metrics, self.config.trace_sample_rate)
        )
        #: The rotating catalog; pass a restored store (EventStore.load)
        #: to resume after a restart with history intact, or configure
        #: ``store_url`` so the store recovers itself from its durable
        #: backend (segment log) at construction.
        self.store = store or open_store(
            self.config.store_url, max_events=self.config.store_max_events
        )
        self.inbound = context.pull(hwm=self.config.hwm).bind(
            self.config.inbound_endpoint
        )
        self.publisher = context.pub(hwm=self.config.hwm).bind(
            self.config.publish_endpoint
        )
        self.api = context.rep(hwm=self.config.hwm).bind(self.config.api_endpoint)
        #: Live flush knob: starts at the configured ``batch_events``
        #: and may be retuned at runtime (the adaptive flush controller
        #: grows it under inbound pressure, shrinks it when publish
        #: latency dominates).  The config stays frozen.
        self.flush_batch_events = self.config.batch_events
        # Each worker wakes on its own socket: a report batch landing
        # on the PULL mailbox rings the pump, a request the API.
        self._pump_wake = Wake()
        self._api_wake = Wake()
        self.inbound.wakers.add(self._pump_wake)
        self.api.wakers.add(self._api_wake)
        # Pipeline counters (shared registry; property shims below).
        self._batches_received = self.metrics.counter("batches_received")
        self._events_stored = self.metrics.counter("events_stored")
        self._events_published = self.metrics.counter("events_published")
        self._batches_published = self.metrics.counter("batches_published")
        self._api_requests = self.metrics.counter("api_requests")
        self.metrics.gauge_fn("store_len", lambda: len(self.store))
        self.metrics.gauge_fn("store_last_seq", lambda: self.store.last_seq)
        self.metrics.gauge_fn("store_rotated", lambda: self.store.total_rotated)
        self.metrics.gauge_fn(
            "store_memory_bytes", lambda: self.store.approximate_memory_bytes()
        )
        if self.store.backend.durable:
            # Durable-backend observability: fsync/compaction counters
            # and segment/byte gauges (``store_backend_*`` series).
            for stat_name in self.store.backend.stats():
                self.metrics.gauge_fn(
                    f"store_backend_{stat_name}",
                    lambda key=stat_name: self.store.backend.stats()[key],
                )
        # Per-socket occupancy: queue depth against capacity, so
        # dashboards see backpressure building before the mark is hit.
        self.metrics.gauge_fn("inbound_depth", lambda: self.inbound.pending)
        self.metrics.gauge_fn("inbound_hwm", lambda: self.inbound.hwm)
        self.metrics.gauge_fn("inbound_credits", lambda: self.inbound.credits)
        self.metrics.gauge_fn("api_depth", lambda: self.api.pending)

    # -- legacy counter names (read-only views over the registry) -----------

    @property
    def batches_received(self) -> int:
        return self._batches_received.value

    @property
    def events_stored(self) -> int:
        return self._events_stored.value

    @property
    def events_published(self) -> int:
        return self._events_published.value

    @property
    def batches_published(self) -> int:
        """PUB messages sent — one per same-topic run chunk of a batch."""
        return self._batches_published.value

    # -- deterministic mode ----------------------------------------------------

    def pump_once(self, timeout: float = 0.0) -> int:
        """Receive pending batches and store+publish them synchronously.

        Drain-style: all queued batches are taken from the inbound
        socket in one fabric operation.  Returns the number of events
        handled.

        Crash-safe: the inbound mailbox outlives a worker crash (the
        supervisor restarts the service without recreating sockets), so
        on failure every batch that was drained but never *stored* is
        requeued at the front of the mailbox before the exception
        escapes.  Collectors purge records once the PUSH send is
        admitted, so without the requeue a mid-pump crash would lose
        those batches for good.  A batch that crashed *after* its store
        committed is not requeued (replaying it would assign duplicate
        sequence numbers); subscribers recover those events through the
        historic API, as for any missed PUB message.
        """
        handled = 0
        while True:
            try:
                batches: list[list[FileEvent]] = self.inbound.recv_many(
                    timeout=timeout, block=timeout > 0
                )
            except WouldBlock:
                break
            for index, batch in enumerate(batches):
                last_stored = self.store.last_seq
                try:
                    handled += self._handle_batch(batch)
                except BaseException:
                    unhandled = batches[index + 1:]
                    if self.store.last_seq == last_stored:
                        unhandled = [batch, *unhandled]
                    if unhandled:
                        self.inbound.requeue(unhandled)
                    raise
            timeout = 0.0  # only wait for the first drain
        return handled

    def serve_api_once(self, timeout: float = 0.0) -> bool:
        """Answer one pending historic-API request (False if none).

        The answer is computed first and sent exactly once: only
        :meth:`_answer` failures become error replies, so a failure
        inside the reply send can never trigger a second send on the
        one-shot REQ/REP channel.
        """
        try:
            request, channel = self.api.recv(timeout=timeout)
        except WouldBlock:
            return False
        self._api_requests.inc()
        try:
            answer = self._answer(request)
        except Exception as exc:
            answer = exc
        channel.send(answer)
        return True

    def _topic_for(self, event: FileEvent) -> str:
        if not self.config.topic_by_path:
            return self.config.publish_topic
        path = event.path or event.old_path or "/"
        parts = path.split("/", 2)
        top = "/" + parts[1] if len(parts) > 1 and parts[1] else "/"
        return f"{self.config.publish_topic}.{top}"

    def occupancy(self) -> tuple[int, int]:
        """(depth, capacity) of the inbound queue — the signal the
        adaptive flush controller tunes against."""
        return (self.inbound.pending, self.inbound.hwm)

    def _flush_chunks(self, entries: list[tuple[int, FileEvent]]):
        """Split one same-topic run per the batch_events/batch_bytes policy."""
        max_events = self.flush_batch_events or None
        max_bytes = self.config.batch_bytes or None
        if max_events is None and max_bytes is None:
            yield entries
            return
        chunk: list[tuple[int, FileEvent]] = []
        chunk_bytes = 0
        for seq, event in entries:
            size = approx_wire_bytes(event) if max_bytes else 0
            full = chunk and (
                (max_events is not None and len(chunk) >= max_events)
                or (max_bytes is not None and chunk_bytes + size > max_bytes)
            )
            if full:
                yield chunk
                chunk, chunk_bytes = [], 0
            chunk.append((seq, event))
            chunk_bytes += size
        if chunk:
            yield chunk

    def _handle_batch(self, batch) -> int:
        """Store *batch* atomically and publish batch messages in order.

        *batch* is a plain event list or a traced
        :class:`~repro.core.events.ReportBatch` (the ``iter_report``
        shim accepts both).  One EventStore lock acquisition per batch;
        publication splits the batch at topic *boundaries* (one PUB
        send per contiguous same-topic run, further split by the flush
        policy) instead of grouping the whole batch per topic.  Chunks
        therefore go out in global sequence order: a broad-prefix
        subscriber that matches several per-path topics sees monotone
        sequence numbers and its watermark dedup never mistakes a
        cross-topic chunk for a replay, while scoped subscribers still
        receive their subtree in store order.

        A sampled batch (stamped upstream, or locally when the tracer
        samples it) is stamped ``aggregated_ts`` at store time and
        ``published_ts`` per PUB chunk; the ``aggregate`` and
        ``publish`` stage deltas are recorded here — O(1) tracing work
        per batch, none at all at sample rate 0.
        """
        self._batches_received.inc()
        if not batch:
            return 0
        events, collected_ts = iter_report(batch)
        if not events:
            return 0
        seqs = self.store.extend(events)
        aggregated_ts = None
        if self.tracer.enabled and (
            collected_ts is not None or self.tracer.sample()
        ):
            aggregated_ts = self.tracer.now()
            if collected_ts is not None:
                self.tracer.record("aggregate", aggregated_ts - collected_ts)
        self._events_stored.inc(len(events))
        if self._log.isEnabledFor(logging.DEBUG):
            self._log.debug(
                "stored batch seq %d..%d (%d events)",
                seqs[0], seqs[-1], len(events),
                extra={
                    "first_seq": seqs[0],
                    "last_seq": seqs[-1],
                    "batch_events": len(events),
                },
            )
        runs: list[tuple[str, list[tuple[int, FileEvent]]]] = []
        for seq, event in zip(seqs, events):
            topic = self._topic_for(event)
            if not runs or runs[-1][0] != topic:
                runs.append((topic, []))
            runs[-1][1].append((seq, event))
        for topic, entries in runs:
            for chunk in self._flush_chunks(entries):
                if aggregated_ts is not None:
                    published_ts = self.tracer.now()
                    self.tracer.record("publish", published_ts - aggregated_ts)
                    message = EventBatch(
                        tuple(chunk),
                        collected_ts=collected_ts,
                        aggregated_ts=aggregated_ts,
                        published_ts=published_ts,
                        shard=self.config.shard_label,
                    )
                else:
                    message = EventBatch(
                        tuple(chunk), shard=self.config.shard_label
                    )
                self.publisher.send(topic, message)
                self._batches_published.inc()
                self._events_published.inc(len(chunk))
        return len(events)

    # -- historic API ------------------------------------------------------------

    def _answer(self, request: dict[str, Any]) -> Any:
        """Dispatch a historic-API request.

        Requests are dicts: ``{'op': 'since', 'seq': N, 'limit': M}``,
        ``{'op': 'recent', 'count': N}``, ``{'op': 'query', ...filters}``,
        ``{'op': 'last_seq'}``, ``{'op': 'stats'}`` or
        ``{'op': 'metrics'}``.
        """
        op = request.get("op")
        if op == "since":
            return self.store.since(request["seq"], limit=request.get("limit"))
        if op == "recent":
            return self.store.recent(request["count"])
        if op == "last_seq":
            return self.store.last_seq
        if op == "stats":
            # Derived from the shared metrics registry — the same
            # numbers every service exposes through Service.stats().
            return {**self.metrics.snapshot(), "health": self.health()}
        if op == "metrics":
            # The exposition answer: every metric in the shared
            # registry (the whole supervision tree, not just this
            # scope) as Prometheus text plus per-histogram summaries.
            registry = self.metrics.registry
            return {
                "prometheus": registry.render_prometheus(),
                "histograms": {
                    name: histogram.summary()
                    for name, histogram in registry.histograms().items()
                },
            }
        if op == "query":
            event_type = request.get("event_type")
            return self.store.query(
                path_prefix=request.get("path_prefix"),
                event_type=EventType(event_type) if event_type else None,
                since_time=request.get("since_time"),
                until_time=request.get("until_time"),
                limit=request.get("limit"),
            )
        raise ValueError(f"unknown API op: {op!r}")

    # -- service runtime -------------------------------------------------------

    def worker_specs(self) -> list[WorkerSpec]:
        return [
            WorkerSpec("pump", self.pump_once, wake=self._pump_wake),
            WorkerSpec("api", self.serve_api_once, wake=self._api_wake),
        ]

    def on_stop(self) -> None:
        self.pump_once()  # final flush

    def on_close(self) -> None:
        self.inbound.wakers.remove(self._pump_wake)
        self.api.wakers.remove(self._api_wake)
        self.inbound.close()
        self.publisher.close()
        self.api.close()
        self.store.close()
