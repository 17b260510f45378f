"""Consumers: subscribers to the Aggregator's live stream + historic API.

A consumer (e.g. a Ripple agent) subscribes to the Aggregator's PUB
endpoint for the live stream and tracks the last sequence number it has
seen.  After a disconnect (or on startup) it calls :meth:`catch_up`,
which uses the historic-event API to fetch what it missed — the
fault-tolerance mechanism the paper describes.

Consumers are :class:`~repro.runtime.Service` instances: live mode runs
a ``poll`` worker woken by its subscription socket (every PUB message
that lands rings it), a final poll on stop delivers
whatever the aggregator flushed during shutdown, and counters live in
the shared metrics registry (legacy attribute names stay readable).
"""

from __future__ import annotations

import inspect
import logging
from typing import Callable, Optional

from repro.core.aggregator import AggregatorConfig
from repro.core.events import FileEvent, iter_entries, prefix_probe
from repro.errors import WouldBlock
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import Tracer, make_tracer
from repro.msgq import Context
from repro.runtime import Service, Wake, WorkerSpec, call_with_pump
from repro.util.logging import get_logger

EventCallback = Callable[[int, FileEvent], None]


def _check_signature(callback, name: str, expected: str, *calls) -> None:
    """Raise TypeError unless *callback* accepts one of the *calls*.

    A callback with the wrong shape would otherwise only fail inside
    the poll worker — crashing it, and losing the batch to the restart.
    Callables without an introspectable signature are trusted.
    """
    if not callable(callback):
        raise TypeError(f"{name} must be callable as {expected}: {callback!r}")
    try:
        signature = inspect.signature(callback)
    except (TypeError, ValueError):
        return
    for args in calls:
        try:
            signature.bind(*args)
            return
        except TypeError:
            continue
    raise TypeError(
        f"{name} must accept {expected}; {callback!r} takes {signature}"
    )


class Consumer(Service):
    """A subscribed event consumer with catch-up support."""

    def __init__(
        self,
        context: Context,
        callback: EventCallback,
        config: AggregatorConfig | None = None,
        name: str = "consumer",
        topic: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        batch_callback: Optional[
            Callable[[list[tuple[int, FileEvent]]], None]
        ] = None,
        path_prefix: Optional[str] = None,
    ) -> None:
        _check_signature(callback, "callback", "(seq, event)", (0, None))
        if batch_callback is not None:
            _check_signature(
                batch_callback, "batch_callback",
                "(entries) or (entries, source)", ([],), ([], None),
            )
        super().__init__(name, registry, scope=f"consumer.{name}")
        self.context = context
        self.config = config or AggregatorConfig()
        self.callback = callback
        #: When set, fresh (post-dedup, post-filter) events are handed
        #: over one whole batch at a time instead of through the
        #: per-event ``callback`` — the agent filter path uses this to
        #: run its compiled rule index once per batch.  A callback that
        #: also accepts a second parameter receives the batch's
        #: *source* (shard label) — the gateway fan-out hub needs it to
        #: label stream messages.
        self.batch_callback = batch_callback
        self._batch_cb_obj: Optional[Callable] = None
        self._batch_cb_wants_source = False
        #: Optional event-level path filter: events not under this
        #: prefix are dropped after dedup (the watermark still
        #: advances).  The ``startswith`` probe is pre-normalized once
        #: here, not per event.
        self.path_prefix = path_prefix
        self._path_probe = (
            prefix_probe(path_prefix) if path_prefix is not None else None
        )
        self._log = get_logger(f"core.consumer.{name}")
        #: Stage tracer: records the ``deliver`` stage (PUB send stamp
        #: → delivery) for batches stamped by the aggregator.
        self.tracer: Tracer = (
            tracer
            if tracer is not None
            else make_tracer(self.metrics, self.config.trace_sample_rate)
        )
        #: Topic prefix filter; with ``topic_by_path`` aggregators, pass
        #: e.g. ``"events./projects"`` to receive only that subtree.
        self.topic = topic if topic is not None else self.config.publish_topic
        self.subscription = (
            context.sub(hwm=self.config.hwm)
            .connect(self.config.publish_endpoint)
            .subscribe(self.topic)
        )
        self.api = context.req().connect(self.config.api_endpoint)
        self._wake = Wake()
        self.subscription.wakers.add(self._wake)
        #: High-water marks keyed by event *source* — the ``shard``
        #: label on published batches, or ``None`` for an unlabelled
        #: (single-aggregator) publisher.  Sequence numbers are only
        #: monotone per publisher, so a consumer subscribed to several
        #: shard PUB endpoints must not share one watermark: a lagging
        #: shard's fresh events would compare below the fast shard's
        #: mark and be dropped as "duplicates".
        self.watermarks: dict[Optional[str], int] = {}
        #: Historic-API page size used by :meth:`catch_up`: missed
        #: events are fetched in bounded chunks so one request never
        #: materialises the whole retained window.
        self.catch_up_page = 1024
        # Counters (shared registry; property shims below).
        self._events_consumed = self.metrics.counter("events_consumed")
        self._duplicates_skipped = self.metrics.counter("duplicates_skipped")
        self._events_filtered = self.metrics.counter("events_filtered")
        self._batches_consumed = self.metrics.counter("batches_consumed")
        self._catch_ups = self.metrics.counter("catch_ups")
        self.metrics.gauge_fn(
            "last_seq", lambda: max(self.watermarks.values(), default=0)
        )
        self.metrics.gauge_fn("dropped", lambda: self.subscription.dropped)
        # Subscription occupancy: how close the mailbox is to dropping.
        self.metrics.gauge_fn("sub_depth", lambda: self.subscription.pending)
        self.metrics.gauge_fn("sub_hwm", lambda: self.subscription.hwm)
        self.metrics.gauge_fn("sub_credits", lambda: self.subscription.credits)
        #: Optional end-to-end latency tracking (operation timestamp ->
        #: delivery); call :meth:`track_latency` to enable.  Backed by
        #: a registry :class:`~repro.metrics.Histogram`, so the monitor
        #: stats and aggregator stats API report it without double
        #: bookkeeping.  Only meaningful when the filesystem and
        #: consumer share a clock domain (both wall-clock, or both on
        #: one ManualClock).
        self.latency = None
        self._latency_clock = None

    # -- legacy counter names (read-only views over the registry) -----------

    @property
    def events_consumed(self) -> int:
        return self._events_consumed.value

    @property
    def duplicates_skipped(self) -> int:
        return self._duplicates_skipped.value

    @property
    def events_filtered(self) -> int:
        """Events dropped by the ``path_prefix`` subscription filter."""
        return self._events_filtered.value

    @property
    def catch_ups(self) -> int:
        return self._catch_ups.value

    @property
    def batches_consumed(self) -> int:
        """Live PUB messages received (batch or legacy single-event)."""
        return self._batches_consumed.value

    def track_latency(self, clock=None) -> "Consumer":
        """Enable per-event delivery-latency recording; returns self.

        The histogram is the registry metric ``<scope>.latency``
        (thread-safe, summarised in ``snapshot()``), so it reaches
        ``LustreMonitor.stats()`` and the aggregator stats/metrics API
        with no second bookkeeping path.
        """
        from repro.util.clock import WallClock

        self.latency = self.metrics.histogram("latency")
        self._latency_clock = clock or WallClock()
        return self

    # -- watermarks -----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The watermark of the shard this consumer's ``api`` socket
        addresses (``config.shard_label``; ``None`` for an unlabelled
        aggregator) — the one :meth:`catch_up` pages from.

        Against a 1-shard monitor or one aggregator this is *the*
        watermark; consumers of several shards read :meth:`watermark`
        per shard.
        """
        return self.watermarks.get(self.config.shard_label, 0)

    @last_seq.setter
    def last_seq(self, value: int) -> None:
        self.watermarks[self.config.shard_label] = value

    def watermark(self, source: Optional[str] = None) -> int:
        """Highest sequence number delivered from *source*."""
        return self.watermarks.get(source, 0)

    def advance_watermark(self, source: Optional[str], seq: int) -> None:
        """Raise *source*'s watermark to at least *seq* (never lowers)."""
        if seq > self.watermarks.get(source, 0):
            self.watermarks[source] = seq

    # -- delivery -------------------------------------------------------------

    def deliver(self, seq: int, event: FileEvent,
                source: Optional[str] = None) -> None:
        """Deliver one event through the watermark dedup.

        Public entry point for external replay drivers (e.g. a cluster
        scatter-gather catch-up feeding per-shard pages back in).
        """
        self._deliver(seq, event, source)

    def _accept(self, seq: int, event: FileEvent,
                source: Optional[str] = None) -> bool:
        """Watermark dedup + subscription filter; True when deliverable.

        Shared by the per-event and batch delivery paths so both see
        identical dedup/filter/counter semantics.
        """
        if seq <= self.watermarks.get(source, 0):
            # Duplicate (e.g. replayed during catch-up); idempotent skip.
            self._duplicates_skipped.inc()
            return False
        self.watermarks[source] = seq
        if self._path_probe is not None and not event.matches_prefix(
            self.path_prefix, self._path_probe
        ):
            self._events_filtered.inc()
            return False
        self._events_consumed.inc()
        if self.latency is not None and event.timestamp:
            self.latency.record(
                max(0.0, self._latency_clock.now() - event.timestamp)
            )
        return True

    def _deliver(self, seq: int, event: FileEvent,
                 source: Optional[str] = None) -> None:
        if self._accept(seq, event, source):
            self.callback(seq, event)

    def deliver_entries(
        self,
        entries: list[tuple[int, FileEvent]],
        source: Optional[str] = None,
    ) -> int:
        """Deliver a batch of entries through dedup in one call.

        With a ``batch_callback`` the fresh entries are handed over as
        one batch (plus the batch's *source* when the callback accepts
        it); otherwise each goes through the per-event callback.
        Returns the number of fresh (non-duplicate, unfiltered) events.
        """
        fresh = [
            (seq, event)
            for seq, event in entries
            if self._accept(seq, event, source)
        ]
        if self.batch_callback is not None:
            if fresh:
                self._invoke_batch_callback(fresh, source)
        else:
            for seq, event in fresh:
                self.callback(seq, event)
        return len(fresh)

    def _invoke_batch_callback(
        self,
        fresh: list[tuple[int, FileEvent]],
        source: Optional[str],
    ) -> None:
        """Call ``batch_callback`` with or without the source label.

        The one-argument form predates shard labels; arity is probed
        once per callback object (it is a public, reassignable
        attribute) so both shapes keep working.
        """
        callback = self.batch_callback
        if callback is not self._batch_cb_obj:
            self._batch_cb_obj = callback
            try:
                inspect.signature(callback).bind([], None)
                self._batch_cb_wants_source = True
            except (TypeError, ValueError):
                self._batch_cb_wants_source = False
        if self._batch_cb_wants_source:
            callback(fresh, source)
        else:
            callback(fresh)

    def poll_once(self, timeout: float = 0.0) -> int:
        """Drain pending live messages; returns the number of events
        delivered.

        Messages are taken from the subscription queue drain-style (one
        fabric operation for everything pending) and may be
        :class:`~repro.core.events.EventBatch` batches or legacy
        ``(seq, event)`` singles — the shim accepts both.
        """
        delivered = 0
        while True:
            try:
                messages = self.subscription.recv_many(
                    timeout=timeout, block=timeout > 0
                )
            except WouldBlock:
                break
            for _topic, payload in messages:
                self._batches_consumed.inc()
                entries = iter_entries(payload)
                source = getattr(payload, "shard", None)
                published_ts = getattr(payload, "published_ts", None)
                if published_ts is not None and self.tracer.enabled:
                    self.tracer.record(
                        "deliver", self.tracer.now() - published_ts
                    )
                if entries and self._log.isEnabledFor(logging.DEBUG):
                    self._log.debug(
                        "delivering batch seq %d..%d (%d events)",
                        entries[0][0], entries[-1][0], len(entries),
                        extra={
                            "first_seq": entries[0][0],
                            "last_seq": entries[-1][0],
                            "batch_events": len(entries),
                        },
                    )
                self.deliver_entries(list(entries), source)
                delivered += len(entries)
            timeout = 0.0
        return delivered

    def _request(self, request, api_server=None):
        if api_server is None:
            return self.api.request(request, timeout=5.0)
        return call_with_pump(
            lambda: self.api.request(request, timeout=5.0),
            lambda: api_server.serve_api_once(timeout=0.05),
        )

    def catch_up(self, api_server=None,
                 source: Optional[str] = None) -> int:
        """Fetch events missed since the watermark via the historic API.

        Pages through the ``since`` API in ``catch_up_page``-sized
        requests — the indexed store makes every page O(page), so a
        consumer far behind never forces one unbounded reply.  In live
        mode the Aggregator's API thread answers; deterministic tests
        pass the aggregator as *api_server* so requests are answered
        synchronously (issued from a helper thread to keep REQ/REP
        lock-step semantics intact).

        *source* selects which watermark to page from and advance; it
        defaults to the label of the shard this consumer's ``api``
        socket points at (cluster-wide catch-up is
        ``ClusterClient.catch_up``, which loops the shards).
        """
        if source is None:
            source = self.config.shard_label
        self._catch_ups.inc()
        recovered = 0
        while True:
            request = {
                "op": "since", "seq": self.watermark(source),
                "limit": self.catch_up_page,
            }
            missed = self._request(request, api_server)
            self.deliver_entries(list(missed), source)
            for seq, _event in missed:
                # Advance even over redeliveries so paging terminates.
                self.advance_watermark(source, seq)
            recovered += len(missed)
            if len(missed) < self.catch_up_page:
                return recovered

    @property
    def dropped(self) -> int:
        """Live messages dropped at this consumer's subscription queue.

        A non-zero value means :meth:`catch_up` is needed — the exact
        scenario the historic API exists for.
        """
        return self.subscription.dropped

    # -- service runtime ---------------------------------------------------------

    def worker_specs(self) -> list[WorkerSpec]:
        return [WorkerSpec("poll", self.poll_once, wake=self._wake)]

    def on_stop(self) -> None:
        self.poll_once()  # deliver anything flushed during shutdown

    def on_close(self) -> None:
        self.subscription.wakers.remove(self._wake)
        self.subscription.close()
        self.api.close()


class DedupingConsumer(Consumer):
    """A consumer that suppresses collector-level redeliveries.

    Collector crashes between report and clear cause the same ChangeLog
    records to be reported twice — with *new* aggregator sequence
    numbers, so sequence tracking alone cannot catch them.  This
    consumer additionally remembers the last record index seen per MDT
    (record indices are monotone within an MDT) and drops events at or
    below it.  Local-filesystem events carry no record identity and are
    passed through.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._record_high_water: dict[int, int] = {}
        self._redeliveries_suppressed = self.metrics.counter(
            "redeliveries_suppressed"
        )

    @property
    def redeliveries_suppressed(self) -> int:
        return self._redeliveries_suppressed.value

    def _accept(self, seq: int, event: FileEvent,
                source: Optional[str] = None) -> bool:
        if event.mdt_index is not None and event.record_index is not None:
            high_water = self._record_high_water.get(event.mdt_index, 0)
            if event.record_index <= high_water:
                self._redeliveries_suppressed.inc()
                # Still advance the sequence cursor so catch-up works.
                self.advance_watermark(source, seq)
                return False
            self._record_high_water[event.mdt_index] = event.record_index
        return super()._accept(seq, event, source)
