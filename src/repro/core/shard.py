"""The store half of an aggregator shard, and the multiproc shard child.

A shard does two things with a collector's report: it *stores* the
batch (contiguous sequence numbers in the rotating
:class:`~repro.core.store.EventStore`, which also answers the historic
API) and it *publishes* it to subscribers.  :class:`ShardStore` is the
store half, defined once:

* the in-process :class:`~repro.core.aggregator.Aggregator` runs it
  beside its sockets and its publish half;
* a multiproc shard runs it alone, in a spawned child process
  (:func:`_shard_main`), while the parent's
  :class:`~repro.msgq.multiproc.ProcessShardBridge` owns the sockets and
  publishes each batch on the child's ack.

The child's boot is both the respawn latency of a killed shard and the
critical path of a multiproc cluster's start, and the boot is mostly
imports.  So this module is the spawn target and imports only what the
store half runs: no aggregator, no sockets, no scheduler or service
runtime.  :class:`AggregatorConfig` lives here for the same reason —
the child unpickles it.
"""

from __future__ import annotations

import contextlib
import logging
import marshal
import multiprocessing
import pickle
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.events import EventType, iter_report
from repro.core.store import EventStore
from repro.core.storage import open_store
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import make_tracer
from repro.msgq.framing import decode_report
from repro.msgq.pipes import _FramePipe, _read_frame
from repro.telemetry import relay
from repro.util.logging import get_logger

__all__ = ["AggregatorConfig", "ShardChildSpec", "ShardStore"]

#: How often (seconds) a shard child ships its registry snapshot to the
#: parent; 0 disables the relay.  Snapshots ride the ordinary child
#: output pipe, so they are strictly ordered with acks and replies.
DEFAULT_RELAY_INTERVAL = 0.25


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


class ShardStore:
    """The store half of a shard: store report batches, answer the API.

    A host provides ``config``, ``metrics`` (its registry scope),
    ``tracer`` and ``health()``, then calls :meth:`_open_store` once.
    """

    def _open_store(self, name: str, store: Optional[EventStore] = None) -> None:
        """Open the store and register the store half's series."""
        self._log = get_logger(f"core.aggregator.{name}")
        #: The rotating catalog; pass a restored store (EventStore.load)
        #: to resume after a restart with history intact, or configure
        #: ``store_url`` so the store recovers itself from its durable
        #: backend (segment log) at construction.
        self.store = store or open_store(
            self.config.store_url, max_events=self.config.store_max_events
        )
        self._batches_received = self.metrics.counter("batches_received")
        self._events_stored = self.metrics.counter("events_stored")
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

    # -- legacy counter names (read-only views over the registry) -----------

    @property
    def batches_received(self) -> int:
        return self._batches_received.value

    @property
    def events_stored(self) -> int:
        return self._events_stored.value

    def _store_batch(self, batch) -> Optional[tuple]:
        """Store *batch* atomically, in one EventStore lock acquisition.

        *batch* is a plain event list or a traced
        :class:`~repro.core.events.ReportBatch` (the ``iter_report``
        shim accepts both).  A sampled batch (stamped upstream, or
        locally when the tracer samples it) is stamped
        ``aggregated_ts`` here.  Returns ``(events, first_seq,
        collected_ts, aggregated_ts)`` for the publish half, or None for
        an empty batch.
        """
        self._batches_received.inc()
        if not batch:
            return None
        events, collected_ts = iter_report(batch)
        if not events:
            return None
        seqs = self.store.extend(events)
        aggregated_ts = None
        if self.tracer.enabled and (
            collected_ts is not None or self.tracer.sample()
        ):
            aggregated_ts = self.tracer.now()
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
        return events, seqs[0], collected_ts, aggregated_ts

    def _answer(self, request: dict[str, Any]) -> Any:
        """Count and answer one historic-API request.

        Requests are dicts: ``{'op': 'since', 'seq': N, 'limit': M}``,
        ``{'op': 'recent', 'count': N}``, ``{'op': 'query', ...filters}``,
        ``{'op': 'last_seq'}``, ``{'op': 'stats'}`` or
        ``{'op': 'metrics'}``.
        """
        self._api_requests.inc()
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


@dataclass(frozen=True)
class ShardChildSpec:
    """Everything a spawned shard process needs (must stay picklable)."""

    shard_id: str
    config: AggregatorConfig
    start_seq: int = 1
    relay_interval: float = DEFAULT_RELAY_INTERVAL


class _ChildShard(ShardStore):
    """The store half as a shard child runs it, in a registry of its own."""

    def __init__(self, spec: ShardChildSpec) -> None:
        registry = MetricsRegistry()
        self.config = spec.config
        self.metrics = registry.scoped(registry.unique_scope(spec.shard_id))
        # Series an in-process shard's stats answer (and so the scrape)
        # carries beside the store half's.  The child runs no scheduler
        # and binds no REP socket, so they stay 0.
        self.metrics.counter("idle_wakeups")
        registry.counter("runtime.steps_over_budget")
        self.tracer = make_tracer(self.metrics, spec.config.trace_sample_rate)
        self._open_store(spec.shard_id)
        self.metrics.gauge("api_depth")

    def health(self) -> dict[str, Any]:
        # A child answers only while its loop runs; the bridge counts
        # its restarts (``child_restarts``).
        return {
            "state": "running",
            "restart_count": 0,
            "workers": [],
            "last_error": None,
        }


def _shard_main(spec: ShardChildSpec, inbox, outbox) -> None:
    """Child process entry point: the store half, driven by frames.

    *inbox* and *outbox* are the child's ends of its two pipes.
    Frames in: ``("batch", bid, bytes)``, ``("req", rid, bytes)``,
    ``("relay",)``, ``("stop",)``; EOF (the parent closed its end, or
    died) stops the child too.
    Frames out: ``("ack", bid, last_seq, aggregated_ts)``,
    ``("reply", rid, bytes)``, ``("metrics", bytes)``,
    ``("crashed", reason)``.

    A batch is acked once it is stored; the bridge publishes the events
    it kept.
    """
    shard = _ChildShard(spec)
    store = shard.store
    if store.last_seq >= spec.start_seq:
        # A durable store recovered *past* the parent's ack watermark
        # (it logged batches whose acks never arrived).  Trim back to
        # the watermark: the parent replays every unacked batch, so the
        # replayed events regenerate their original sequence numbers
        # and downstream watermark dedup works unchanged.  The acked
        # history below the watermark survives the restart.
        store.discard_after(spec.start_seq - 1)
    elif spec.start_seq > 1:
        # Resume the sequence space where the acked history ended, so
        # replayed in-flight batches get their original numbers.
        store.resume_at(spec.start_seq)
    parent = multiprocessing.parent_process()
    out = _FramePipe(outbox)

    def _ship_metrics() -> None:
        # Best-effort only: with no room in the output pipe the parent
        # is behind on real work, and dropping a snapshot delays one
        # relay tick.  Any other fault escapes and kills the child
        # loudly.
        state = shard.metrics.registry.export_state()
        out.write_if_fits(marshal.dumps(("metrics", relay.encode_state(state))))

    last_relay = time.monotonic()

    def _maybe_relay() -> None:
        nonlocal last_relay
        if spec.relay_interval <= 0:
            return
        now = time.monotonic()
        if now - last_relay >= spec.relay_interval:
            _ship_metrics()
            last_relay = now

    while True:
        if not inbox.poll(0.1):
            if parent is not None and not parent.is_alive():
                break
            _maybe_relay()
            continue
        try:
            frame = _read_frame(inbox)
        except EOFError:
            break
        kind = frame[0]
        if kind == "stop":
            break
        try:
            if kind == "batch":
                stored = shard._store_batch(decode_report(frame[2]))
                aggregated_ts = stored[3] if stored is not None else None
                out.write(marshal.dumps(
                    ("ack", frame[1], store.last_seq, aggregated_ts)
                ))
            elif kind == "req":
                rid, data = frame[1], frame[2]
                request = pickle.loads(data)
                try:
                    answer = shard._answer(request)
                except Exception as exc:  # delivered to the requester
                    answer = exc
                out.write(marshal.dumps(("reply", rid, pickle.dumps(answer))))
            elif kind == "relay":
                _ship_metrics()
                last_relay = time.monotonic()
            _maybe_relay()
        except Exception as exc:
            # The note is best-effort: a parent that closed the pipe
            # learns of the death from the child's sentinel.
            with contextlib.suppress(OSError):
                out.write_if_fits(
                    marshal.dumps(("crashed", f"{type(exc).__name__}: {exc}"))
                )
            raise
    # Graceful exit: a last snapshot (so the parent's merged series end
    # at the child's final truth), then flush the durable backend
    # (no-op for memory) so a clean stop leaves no torn tail for the
    # next incarnation.
    if spec.relay_interval > 0:
        _ship_metrics()
    store.close()
