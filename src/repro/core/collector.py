"""The Collector: per-MDS ChangeLog extraction, processing and reporting.

One Collector is deployed per MDS (paper §4).  For every MDT served by
its MDS it registers a changelog user, then loops:

1. **Detect** — read new records past the purge pointer.
2. **Process** — resolve FIDs to paths (:class:`EventProcessor`).
3. **Report** — send the resulting events to the Aggregator over the
   message fabric (a PUSH socket by default; any transport exposing
   ``send(payload)`` works, which the A4 transport ablation exploits).
4. **Purge** — ``changelog_clear`` up to the last reported record, so
   "events are not missed and the ChangeLog will not become overburdened
   with stale events".

Reporting happens *before* clearing: a crash between the two causes
redelivery, never loss (at-least-once, the same guarantee Ripple's cloud
queue provides downstream).  That property is what makes supervisor
restarts safe: a collector killed mid-poll and restarted re-reads the
unpurged records and re-reports them.

The collector is a :class:`~repro.runtime.Service`: live mode runs the
``poll`` worker, woken by its MDTs' ChangeLog appends; counters live in
the shared metrics registry (old attribute names remain readable as
properties), and a :class:`~repro.runtime.Supervisor` can restart it
after a crash.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.core.events import FileEvent, ReportBatch, approx_wire_bytes
from repro.core.processor import EventProcessor, ProcessorConfig
from repro.lustre.fid2path import FidResolver
from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.mds import MetadataServer
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import NULL_TRACER, Tracer
from repro.runtime import Service, ServiceCrash, Wake, WorkerSpec
from repro.util.logging import get_logger

#: Seconds after a failed report before the live worker re-reads the
#: unpurged records (no ChangeLog append may come to ring it).
REPORT_RETRY_DELAY = 0.05


class EventSink(Protocol):
    """Anything that can accept a batch of events from a collector.

    Sinks may additionally implement ``send_many(payloads)`` — a list
    of batches moved in one fabric round-trip; collectors use it when
    the flush policy splits a poll into several report messages.
    """

    def send(self, payload: list[FileEvent]) -> None:  # pragma: no cover
        ...


@dataclass(frozen=True)
class CollectorConfig:
    """Collector knobs.

    read_batch:
        Maximum records pulled from a ChangeLog per poll.
    processor:
        Processing-stage configuration (batching/caching).
    event_types:
        Optional server-side filter: only these normalized event kinds
        are reported to the aggregator (None = report everything, the
        paper's configuration).  Filtering here saves both transport
        and downstream work when consumers only care about, say,
        creations and deletions.
    batch_events / batch_bytes:
        Report flush policy: a poll's events are split into report
        messages of at most ``batch_events`` events (0 = whole poll in
        one message) or ``batch_bytes`` approximate wire bytes (0 =
        unbounded); all chunks of one MDT poll still move in a single
        fabric round-trip when the sink supports ``send_many``.
    """

    read_batch: int = 256
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    event_types: Optional[frozenset] = None
    batch_events: int = 0
    batch_bytes: int = 0

    def __post_init__(self) -> None:
        if self.read_batch < 1:
            raise ValueError(f"read_batch must be >= 1: {self.read_batch}")
        if self.event_types is not None and not self.event_types:
            raise ValueError("event_types filter must be None or non-empty")
        if self.batch_events < 0:
            raise ValueError(f"batch_events must be >= 0: {self.batch_events}")
        if self.batch_bytes < 0:
            raise ValueError(f"batch_bytes must be >= 0: {self.batch_bytes}")


class Collector(Service):
    """Collects events from every MDT ChangeLog of one MDS."""

    def __init__(
        self,
        name: str,
        filesystem: LustreFilesystem,
        mds: MetadataServer,
        sink: EventSink,
        config: CollectorConfig | None = None,
        resolver: Optional[FidResolver] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(name, registry, scope=f"collector.{name}")
        self.fs = filesystem
        self.mds = mds
        self.sink = sink
        #: Stage tracer (shared across the monitor tree); collectors
        #: stamp sampled reports and record the ``collect`` stage.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.config = config or CollectorConfig()
        #: Live flush knob mirroring the aggregator's: starts at the
        #: configured ``batch_events`` and may be retuned at runtime
        #: while the config stays frozen.
        self.flush_batch_events = self.config.batch_events
        self.resolver = resolver or FidResolver(filesystem)
        self.processor = EventProcessor(self.resolver, self.config.processor)
        # Register one changelog user per MDT on this MDS, and one wake
        # shared by every MDT's ChangeLog: an append anywhere on this
        # MDS wakes the poll worker.
        self._users: dict[int, str] = {
            mdt.index: mdt.changelog.register_user() for mdt in mds.mdts
        }
        self._wake = Wake()
        for mdt in mds.mdts:
            mdt.changelog.wakers.add(self._wake)
        #: Records cleared so far — the poll worker's progress measure.
        self._records_consumed = 0
        self._log = get_logger(f"core.collector.{name}")
        # Pipeline counters (shared registry; see property shims below).
        self._records_read = self.metrics.counter("records_read")
        self._events_reported = self.metrics.counter("events_reported")
        self._events_filtered = self.metrics.counter("events_filtered")
        self._report_failures = self.metrics.counter("report_failures")
        # Processing-stage numbers are derived on read, not double-kept.
        self.metrics.gauge_fn(
            "resolver_invocations", lambda: self.resolver.invocations
        )
        self.metrics.gauge_fn(
            "resolver_failures", lambda: self.resolver.failures
        )
        self.metrics.gauge_fn(
            "unresolved_events", lambda: self.processor.unresolved
        )
        self.metrics.gauge_fn(
            "cache_hits",
            lambda: self.processor.cache.hits if self.processor.cache else 0,
        )
        self.metrics.gauge_fn(
            "cache_misses",
            lambda: self.processor.cache.misses if self.processor.cache else 0,
        )

    # -- legacy counter names (read-only views over the registry) -----------

    @property
    def records_read(self) -> int:
        return self._records_read.value

    @property
    def events_reported(self) -> int:
        return self._events_reported.value

    @property
    def events_filtered(self) -> int:
        return self._events_filtered.value

    @property
    def report_failures(self) -> int:
        return self._report_failures.value

    # -- deterministic single-step mode --------------------------------------

    def poll_once(self) -> int:
        """One detect→process→report→purge round over all MDTs.

        Returns the number of events reported this round.
        """
        reported = 0
        for mdt in self.mds.mdts:
            user = self._users[mdt.index]
            records = mdt.changelog.read(user, max_records=self.config.read_batch)
            if not records:
                continue
            self._records_read.inc(len(records))
            events = self.processor.process(records, mdt.index)
            if self.config.event_types is not None:
                kept = [
                    event
                    for event in events
                    if event.event_type in self.config.event_types
                ]
                self._events_filtered.inc(len(events) - len(kept))
                events = kept
            # Report first (repeatedly retried by the agent per the
            # paper; our in-proc fabric blocks instead), then purge.
            # An all-filtered batch skips the report but still clears.
            if events:
                try:
                    self._report(events)
                except ServiceCrash:
                    # Escalate: the worker dies and the supervisor
                    # restarts it; unpurged records are re-read.
                    raise
                except Exception as exc:
                    self._report_failures.inc()
                    self._log.warning(
                        "report of %d events failed (%s); will re-read",
                        len(events), exc,
                    )
                    # Do NOT clear: records will be re-read and
                    # re-reported, preserving at-least-once delivery.
                    continue
                self._events_reported.inc(len(events))
                reported += len(events)
                if self._log.isEnabledFor(logging.DEBUG):
                    # Correlation: the collector's sequence domain is
                    # the ChangeLog record index range of the batch.
                    self._log.debug(
                        "reported %d events from MDT%d records %d..%d",
                        len(events), mdt.index,
                        records[0].index, records[-1].index,
                        extra={
                            "first_seq": records[0].index,
                            "last_seq": records[-1].index,
                            "batch_events": len(events),
                        },
                    )
            mdt.changelog.clear(user, records[-1].index)
            self._records_consumed += len(records)
        return reported

    def _flush_chunks(self, events: list[FileEvent]) -> list[list[FileEvent]]:
        """Split one poll's events per the batch_events/batch_bytes policy."""
        max_events = self.flush_batch_events or None
        max_bytes = self.config.batch_bytes or None
        if max_events is None and max_bytes is None:
            return [events]
        chunks: list[list[FileEvent]] = []
        chunk: list[FileEvent] = []
        chunk_bytes = 0
        for event in events:
            size = approx_wire_bytes(event) if max_bytes else 0
            full = chunk and (
                (max_events is not None and len(chunk) >= max_events)
                or (max_bytes is not None and chunk_bytes + size > max_bytes)
            )
            if full:
                chunks.append(chunk)
                chunk, chunk_bytes = [], 0
            chunk.append(event)
            chunk_bytes += size
        if chunk:
            chunks.append(chunk)
        return chunks

    def _report(self, events: list[FileEvent]) -> None:
        """Send one poll's events, honouring the flush policy.

        Multiple chunks go through the sink's ``send_many`` when it has
        one (a single fabric round-trip); otherwise they are sent
        sequentially.  A failure anywhere leaves the changelog
        unpurged, so the whole poll is re-read and re-reported —
        at-least-once, never loss.

        Every report carries events from exactly one MDT (poll_once
        reports per MDT before moving to the next) — the invariant the
        cluster's shard router relies on to route a whole report to one
        shard by its first event's ``mdt_index``.

        A sampled poll is stamped once (``collected_ts``) and wrapped
        in :class:`~repro.core.events.ReportBatch`; the ``collect``
        stage delta (oldest record timestamp → report stamp) is
        recorded here.  Unsampled polls stay plain lists — zero
        tracing work on the hot path.
        """
        chunks: list = self._flush_chunks(events)
        if self.tracer.sample():
            collected_ts = self.tracer.now()
            self.tracer.record(
                "collect", collected_ts - events[0].timestamp
            )
            chunks = [
                ReportBatch(tuple(chunk), collected_ts) for chunk in chunks
            ]
        send_many = getattr(self.sink, "send_many", None)
        if len(chunks) == 1:
            self.sink.send(chunks[0])
        elif send_many is not None:
            send_many(chunks)
        else:
            for chunk in chunks:
                self.sink.send(chunk)

    def drain(self, max_rounds: int = 10_000) -> int:
        """Poll until every ChangeLog is exhausted; returns total events."""
        total = 0
        for _ in range(max_rounds):
            reported = self.poll_once()
            total += reported
            if reported == 0 and not self._has_backlog():
                break
        return total

    def _has_backlog(self) -> bool:
        return any(
            mdt.changelog.read(self._users[mdt.index], max_records=1)
            for mdt in self.mds.mdts
        )

    # -- service runtime ------------------------------------------------------

    def _poll_step(self) -> int:
        """Worker step: progress is records cleared, not events
        reported — an all-filtered poll moved on (re-poll at once), a
        failed report did not: the records stay unpurged and the step
        is rung again after :data:`REPORT_RETRY_DELAY`."""
        before = self._records_consumed
        failures = self._report_failures.value
        self.poll_once()
        if self._report_failures.value != failures:
            self._wake.ring_after(REPORT_RETRY_DELAY)
        return self._records_consumed - before

    def worker_specs(self) -> list[WorkerSpec]:
        return [WorkerSpec("poll", self._poll_step, wake=self._wake)]

    def on_stop(self) -> None:
        self.drain(max_rounds=100)  # flush on shutdown

    def on_close(self) -> None:
        # Deregister changelog users (releases purge pointers).
        for mdt in self.mds.mdts:
            mdt.changelog.wakers.remove(self._wake)
            user = self._users.pop(mdt.index, None)
            if user is not None:
                mdt.changelog.deregister_user(user)

    def shutdown(self) -> None:
        """Stop and deregister changelog users (alias for close())."""
        self.close()


class CallbackSink:
    """Adapter: wrap a plain callable as an :class:`EventSink`."""

    def __init__(self, callback: Callable[[list[FileEvent]], None]) -> None:
        self.callback = callback

    def send(self, payload: list[FileEvent]) -> None:
        self.callback(payload)

    def send_many(self, payloads: list[list[FileEvent]]) -> None:
        for payload in payloads:
            self.callback(payload)
