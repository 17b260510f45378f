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

The store half — storing a batch and answering the historic API — is
:class:`~repro.core.shard.ShardStore`, which a multiproc shard child
runs alone; the publish half is :class:`StoredBatchPublisher`, which
the multiproc bridge runs in the parent.

Deterministic mode: :meth:`pump_once` performs receive→store→publish
synchronously, which tests and virtual-time drivers use.

As a :class:`~repro.runtime.Service`, the aggregator's counters live in
the shared metrics registry and the ``{'op': 'stats'}`` API answer is
derived from that registry (health record included) instead of scraping
instance attributes.
"""

from __future__ import annotations

from typing import Optional

from repro.core.events import EventBatch, FileEvent, approx_wire_bytes
from repro.core.shard import AggregatorConfig, ShardStore
from repro.core.store import EventStore
from repro.errors import WouldBlock
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import Tracer, make_tracer
from repro.msgq import Transport
from repro.runtime import Service, Wake, WorkerSpec

__all__ = ["Aggregator", "AggregatorConfig", "StoredBatchPublisher"]


class StoredBatchPublisher:
    """The publish half of a shard: fan a stored batch out on its PUB.

    The in-process :class:`Aggregator` publishes what it just stored;
    the multiproc bridge publishes the report it forwarded once its
    shard child acknowledges the sequence numbers it stored it under.
    Both go through :meth:`_publish_stored`, so a batch leaves a shard
    as the same (topic, chunk) messages on either transport.  A host
    provides ``config``, ``flush_batch_events``, ``tracer``,
    ``publisher`` and the ``_batches_published``/``_events_published``
    counters.
    """

    def _topic_for(self, event: FileEvent) -> str:
        if not self.config.topic_by_path:
            return self.config.publish_topic
        path = event.path or event.old_path or "/"
        parts = path.split("/", 2)
        top = "/" + parts[1] if len(parts) > 1 and parts[1] else "/"
        return f"{self.config.publish_topic}.{top}"

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

    def _publish_stored(
        self,
        events: list[FileEvent],
        first_seq: int,
        collected_ts: Optional[float] = None,
        aggregated_ts: Optional[float] = None,
    ) -> None:
        """Publish *events*, stored as ``first_seq, first_seq + 1, …``.

        The batch is split at topic *boundaries* (one PUB send per
        contiguous same-topic run, further split by the flush policy)
        instead of grouped per topic, so chunks go out in global
        sequence order: a broad-prefix subscriber that matches several
        per-path topics sees monotone sequence numbers and its
        watermark dedup never mistakes a cross-topic chunk for a
        replay, while scoped subscribers still receive their subtree in
        store order.

        A batch stamped ``aggregated_ts`` at store time records the
        ``aggregate`` stage (from its ``collected_ts``) and, per chunk,
        the ``publish`` stage — O(1) tracing work per batch, none at
        all for an unsampled one.
        """
        if aggregated_ts is not None and collected_ts is not None:
            self.tracer.record("aggregate", aggregated_ts - collected_ts)
        runs: list[tuple[str, list[tuple[int, FileEvent]]]] = []
        for entry in zip(range(first_seq, first_seq + len(events)), events):
            topic = self._topic_for(entry[1])
            if not runs or runs[-1][0] != topic:
                runs.append((topic, []))
            runs[-1][1].append(entry)
        shard = self.config.shard_label
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
                        shard=shard,
                    )
                else:
                    message = EventBatch(tuple(chunk), shard=shard)
                self.publisher.send(topic, message)
                self._batches_published.inc()
                self._events_published.inc(len(chunk))


class Aggregator(ShardStore, StoredBatchPublisher, Service):
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
        #: Stage tracer: stamps sampled batches at store and publish
        #: time, recording the ``aggregate`` and ``publish`` stages.
        self.tracer: Tracer = (
            tracer
            if tracer is not None
            else make_tracer(self.metrics, self.config.trace_sample_rate)
        )
        self._open_store(name, store)
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
        # Publish counters (shared registry; property shims below).
        self._events_published = self.metrics.counter("events_published")
        self._batches_published = self.metrics.counter("batches_published")
        # Per-socket occupancy: queue depth against capacity, so
        # dashboards see backpressure building before the mark is hit.
        self.metrics.gauge_fn("inbound_depth", lambda: self.inbound.pending)
        self.metrics.gauge_fn("inbound_hwm", lambda: self.inbound.hwm)
        self.metrics.gauge_fn("inbound_credits", lambda: self.inbound.credits)
        self.metrics.gauge_fn("api_depth", lambda: self.api.pending)

    # -- legacy counter names (read-only views over the registry) -----------

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
        try:
            answer = self._answer(request)
        except Exception as exc:
            answer = exc
        channel.send(answer)
        return True

    def occupancy(self) -> tuple[int, int]:
        """(depth, capacity) of the inbound queue — the signal the
        adaptive flush controller tunes against."""
        return (self.inbound.pending, self.inbound.hwm)

    def _handle_batch(self, batch) -> int:
        """Store *batch* atomically, then publish it in sequence order."""
        stored = self._store_batch(batch)
        if stored is None:
            return 0
        self._publish_stored(*stored)
        return len(stored[0])

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
