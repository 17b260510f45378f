"""The LustreMonitor orchestrator: collectors → N aggregator shards → consumers.

This is the top-level object a deployment creates.  It builds one
:class:`Collector` per MDS of the target filesystem, ``num_shards``
:class:`Aggregator` shards, and hands out :class:`Consumer`
subscriptions.  One shard (the default) is the paper's Figure 2: every
collector reports to a single aggregator.  N shards is the fix for its
§6 scaling wall — the same composition with the aggregation tier
spread out:

* Each shard is a stock :class:`Aggregator` with its own
  ``inproc://<namespace>.<shard>.{reports,events,api}`` endpoints and a
  ``shard_label`` stamped on every published batch (consumers keep
  per-shard watermarks).
* Collectors report through a :class:`ShardRoutingSink`: each report
  batch (always a single MDT's events) is routed to its owning shard by
  rendezvous hashing over the :class:`~repro.core.router.ShardRouter`'s
  versioned map.

The monitor is a :class:`~repro.runtime.Supervisor` composition: every
stage is a supervised service sharing one metrics registry and one
stage tracer.  Start order is consumers → shards → collectors
(producers last) and stop is the exact reverse — collectors stop and
flush first, the shards pump their final batches, and consumers take a
final poll before stopping, so nothing flushed during shutdown is
published into a dead subscription.  A crashed collector or shard is
restarted under the configured :class:`~repro.runtime.RestartPolicy`;
report-before-purge and the shard's crash-safe pump make that
loss-free (at-least-once).  It supports both live supervised operation
(``start()``/``stop()``) and deterministic stepping (``pump()``).

``stats()`` is derived from the shared registry — no hand-scraped
attribute sums — and includes every service's uniform health record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.adaptive import AdaptiveFlushController, FlushTuning
from repro.core.aggregator import Aggregator, AggregatorConfig
from repro.core.collector import Collector, CollectorConfig
from repro.core.consumer import Consumer, EventCallback
from repro.core.events import FileEvent
from repro.core.router import ShardMap, ShardRouter
from repro.core.storage import shard_store_url
from repro.lustre.fid2path import FidResolver
from repro.lustre.filesystem import LustreFilesystem
from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import TRACE_SCOPE, Tracer, make_tracer
from repro.msgq import Transport, make_transport
from repro.runtime import RestartPolicy, ServiceCrash, Supervisor
from repro.telemetry import TelemetryConfig, TelemetryPlane

#: How often the adaptive flush controller takes a control step (s).
AUTOTUNE_INTERVAL = 0.25


@dataclass(frozen=True)
class MonitorConfig:
    """Monitor-wide configuration.

    ``aggregator`` is the *base* shard config: every shard derives its
    own endpoints (``inproc://<namespace>.<shard>.{reports,events,api}``)
    and ``shard_label`` from it, inheriting all other knobs (store
    size, flush policy, tracing rate …) unchanged.  A durable
    ``store_url`` (``segments:///path``) is likewise derived per shard
    — each shard logs to ``<path>/<shard_id>`` so restarted shards
    (and respawned multiproc children) recover their own history.
    """

    #: Aggregator shards; 1 is the paper's single aggregator.
    num_shards: int = 1
    #: Endpoint namespace, so several monitors can share one Context.
    namespace: str = "monitor"
    collector: CollectorConfig = field(default_factory=CollectorConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    #: How long a collector's report may block on a full transport
    #: queue before failing (and retrying on the next poll).
    report_timeout: float = 5.0
    #: How crashed pipeline services are restarted.
    restart_policy: RestartPolicy = field(default_factory=RestartPolicy)
    #: Transport backend: ``"inproc"`` (default) runs every shard as an
    #: in-process Aggregator; ``"multiproc"`` runs each shard's
    #: store+publish work in its own child process behind a
    #: :class:`~repro.msgq.multiproc.ProcessShardBridge`.
    transport: str = "inproc"
    #: When True, an :class:`~repro.core.adaptive.AdaptiveFlushController`
    #: retunes each shard's flush batching from inbound occupancy and
    #: the ``pipeline.publish`` stage histogram.
    autotune: bool = False
    tuning: FlushTuning = field(default_factory=FlushTuning)
    #: TCP port for the operator telemetry plane's HTTP scrape server
    #: (``/metrics``, ``/health``, ``/alerts``); ``None`` leaves the
    #: plane off, ``0`` binds an ephemeral port (read it back from
    #: ``monitor.telemetry.port``).
    telemetry_port: int | None = None
    #: Full telemetry-plane configuration; overrides ``telemetry_port``.
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1: {self.num_shards}")
        if self.transport not in ("inproc", "multiproc"):
            raise ValueError(
                f"transport must be 'inproc' or 'multiproc': "
                f"{self.transport!r}"
            )


class PushSink:
    """EventSink adapter over a PUSH socket (one per aggregator shard)."""

    def __init__(self, socket, timeout: float = 5.0) -> None:
        self.socket = socket
        self.timeout = timeout

    def send(self, payload: list[FileEvent]) -> None:
        self.socket.send(payload, timeout=self.timeout)

    def send_many(self, payloads: list[list[FileEvent]]) -> None:
        """Move several report chunks in one fabric round-trip."""
        self.socket.send_many(payloads, timeout=self.timeout)


class ShardRoutingSink:
    """An EventSink that routes each report batch to its owning shard.

    Every collector report carries events from exactly one MDT (the
    collector reports per MDT), so the batch routes *whole* by its
    first event's key — no splitting, and an MDT's events always land
    on one shard, keeping per-shard sequence numbers meaningful per
    MDT stream.
    """

    def __init__(
        self, router: ShardRouter, sinks: dict[str, PushSink]
    ) -> None:
        self.router = router
        self.sinks = sinks

    @staticmethod
    def route_key(payload) -> str:
        """The routing key of one report batch (its first event)."""
        event: FileEvent = payload[0]
        if event.mdt_index is not None:
            return f"mdt:{event.mdt_index}"
        # Local-filesystem events carry no MDT identity; their path
        # keeps related events together well enough.
        return f"path:{event.path or event.name or ''}"

    def shard_for(self, payload) -> str:
        return self.router.route(self.route_key(payload))

    def send(self, payload) -> None:
        self.sinks[self.shard_for(payload)].send(payload)

    def send_many(self, payloads) -> None:
        """Group chunks by owning shard, one fabric round-trip each."""
        groups: dict[str, list] = {}
        for payload in payloads:
            groups.setdefault(self.shard_for(payload), []).append(payload)
        for shard, group in groups.items():
            sink = self.sinks[shard]
            if len(group) == 1:
                sink.send(group[0])
            else:
                sink.send_many(group)


@dataclass
class MonitorStats:
    """A snapshot of pipeline counters (derived from the registry)."""

    records_read: int = 0
    events_reported: int = 0
    events_stored: int = 0
    events_published: int = 0
    resolver_invocations: int = 0
    resolver_failures: int = 0
    unresolved_events: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    store_len: int = 0
    #: Current routing-map version (bumps on retire/restore).
    shard_map_version: int = 1
    per_shard: dict = field(default_factory=dict)
    per_collector: dict = field(default_factory=dict)
    #: Uniform per-service health: state, restart_count, last_error.
    services: dict = field(default_factory=dict)
    #: Per-stage latency summaries (``{stage: {count, mean, max, p50,
    #: p95, p99}}``) from the pipeline tracing histograms; empty when
    #: tracing is disabled (sample rate 0).
    stage_latency: dict = field(default_factory=dict)


class LustreMonitor:
    """The complete monitor attached to one Lustre filesystem."""

    def __init__(
        self,
        filesystem: LustreFilesystem,
        config: MonitorConfig | None = None,
        context: Transport | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.fs = filesystem
        self.config = config or MonitorConfig()
        self.context = context or make_transport(self.config.transport)
        #: One registry shared by every service in this monitor's tree.
        self.registry = registry or MetricsRegistry()
        #: One stage tracer shared by the whole tree, clocked by the
        #: filesystem's clock so stage deltas live in the same time
        #: domain as the events (wall-clock live, virtual in sims).
        #: ``config.aggregator.trace_sample_rate`` is the single knob;
        #: 0.0 disables tracing end to end.
        self.tracer: Tracer = make_tracer(
            self.registry,
            self.config.aggregator.trace_sample_rate,
            clock=getattr(filesystem, "clock", None),
        )
        self.shard_ids = tuple(
            f"shard{i}" for i in range(self.config.num_shards)
        )
        self.router = ShardRouter(ShardMap(self.shard_ids))
        self.supervisor = Supervisor(
            "monitor",
            policy=self.config.restart_policy,
            registry=self.registry,
        )
        #: Per-shard aggregator configs (derived endpoints + label).
        self.shard_configs: dict[str, AggregatorConfig] = {}
        #: In-process shard aggregators, keyed by shard id (empty on
        #: the multiproc backend — look there for the bridges).
        self.shards: dict[str, Aggregator] = {}
        #: Process-shard bridges, keyed by shard id (multiproc only).
        self.bridges: dict = {}
        #: Every shard handle regardless of backend — the pump/stats/
        #: client surface iterates this.
        self.shard_handles: dict = {}
        self._shard_keys: list[str] = []
        namespace = self.config.namespace
        multiproc = self.config.transport == "multiproc"
        for shard_id in self.shard_ids:
            shard_config = replace(
                self.config.aggregator,
                inbound_endpoint=f"inproc://{namespace}.{shard_id}.reports",
                publish_endpoint=f"inproc://{namespace}.{shard_id}.events",
                api_endpoint=f"inproc://{namespace}.{shard_id}.api",
                shard_label=shard_id,
                # Shards never share a log directory: a durable base
                # store_url gains the shard id as a path component.
                store_url=shard_store_url(
                    self.config.aggregator.store_url, shard_id
                ),
            )
            if multiproc:
                # The shard's store+publish work runs in a child
                # process; the bridge binds the same endpoints, so the
                # collectors/consumers are none the wiser.  (Stage
                # tracing then lives in the child's registry.)
                shard = self._make_bridge(shard_id, shard_config)
                self.bridges[shard_id] = shard
            else:
                shard = Aggregator(
                    self.context,
                    shard_config,
                    registry=self.registry,
                    name=shard_id,
                    tracer=self.tracer,
                )
                self.shards[shard_id] = shard
            self.shard_configs[shard_id] = shard_config
            self.shard_handles[shard_id] = shard
            self._shard_keys.append(self.supervisor.add_child(shard))
        self.collectors: list[Collector] = []
        for server in filesystem.cluster.servers:
            sinks: dict[str, PushSink] = {}
            for shard_id, shard_config in self.shard_configs.items():
                push = self.context.push(
                    hwm=self.config.aggregator.hwm
                ).connect(shard_config.inbound_endpoint)
                sinks[shard_id] = PushSink(
                    push, timeout=self.config.report_timeout
                )
            collector = Collector(
                name=server.name,
                filesystem=filesystem,
                mds=server,
                sink=ShardRoutingSink(self.router, sinks),
                config=self.config.collector,
                resolver=FidResolver(filesystem),
                registry=self.registry,
                tracer=self.tracer,
            )
            # Collectors (producers) start after — and stop before —
            # the shards that drain them.
            self.supervisor.add_child(
                collector, after=list(self._shard_keys),
                key=collector.metrics.scope,
            )
            self.collectors.append(collector)
        self.consumers: list[Consumer] = []
        #: The closed-loop flush tuner (``config.autotune``); drive it
        #: deterministically with :meth:`autotune_once` or let the
        #: supervisor run it as a periodic service.
        self.autotuner: AdaptiveFlushController | None = None
        if self.config.autotune:
            self.autotuner = AdaptiveFlushController(
                self.registry,
                targets=dict(self.shard_handles),
                tuning=self.config.tuning,
                interval=AUTOTUNE_INTERVAL,
            )
            self.supervisor.add_child(self.autotuner)
        #: The operator telemetry plane (scrape server + alert
        #: evaluator + flight recorder); its services run under this
        #: monitor's supervisor.  ``None`` unless configured.  On the
        #: multiproc backend the child→parent metrics relay puts every
        #: shard child's series in the scraped exposition too.
        self.telemetry: TelemetryPlane | None = None
        telemetry_config = self.config.telemetry
        if telemetry_config is None and self.config.telemetry_port is not None:
            telemetry_config = TelemetryConfig(port=self.config.telemetry_port)
        if telemetry_config is not None:
            self.telemetry = TelemetryPlane(
                self.registry,
                telemetry_config,
                health_provider=self.supervisor.health,
            )
            self.telemetry.add_to(self.supervisor)

    def _make_bridge(self, shard_id: str, shard_config: AggregatorConfig):
        """One process-shard bridge, via the transport's factory when it
        has one (so the transport can track and close its bridges)."""
        factory = getattr(self.context, "process_shard", None)
        if factory is not None:
            return factory(shard_id, shard_config, registry=self.registry)
        from repro.msgq.multiproc import ProcessShardBridge

        return ProcessShardBridge(
            shard_id, shard_config, self.context, registry=self.registry
        )

    def autotune_once(self) -> int:
        """One adaptive-flush control step (0 when autotune is off)."""
        if self.autotuner is None:
            return 0
        return self.autotuner.tick()

    # -- consumers -----------------------------------------------------------

    def subscribe(
        self,
        callback: EventCallback,
        name: str = "consumer",
        batch_callback=None,
    ) -> Consumer:
        """Attach a consumer subscribed to *every* shard's live stream.

        One SUB socket connected to all shard PUB endpoints; published
        batches carry their ``shard`` label, so the consumer's
        per-shard watermarks dedup each stream independently.  The
        consumer's ``api`` socket points at shard0 — monitor-wide
        catch-up goes through ``ClusterClient.catch_up``, which pages
        every shard.

        Note the slow-joiner property: the consumer sees only events
        published after this call.  *batch_callback* delivers whole
        fresh batches instead of per-event callbacks (the Ripple
        agent's compiled filter path); a two-parameter callback also
        receives each batch's shard label (the gateway fan-out hub
        consumes the stream this way).
        """
        first = self.shard_configs[self.shard_ids[0]]
        consumer = Consumer(
            self.context,
            callback,
            config=first,
            name=name,
            registry=self.registry,
            tracer=self.tracer,
            batch_callback=batch_callback,
        )
        for shard_id in self.shard_ids[1:]:
            consumer.subscription.connect(
                self.shard_configs[shard_id].publish_endpoint
            )
        self.consumers.append(consumer)
        # ``before`` the shards: consumers stop after they have taken
        # their final flush, so shutdown publishes are still delivered.
        self.supervisor.add_child(
            consumer, before=list(self._shard_keys),
            key=consumer.metrics.scope,
        )
        return consumer

    # -- deterministic stepping ----------------------------------------------

    def pump(self, consumer_poll: bool = True) -> int:
        """One synchronous sweep of the entire pipeline.

        Collect from every MDS, pump every shard (store+publish), then
        deliver to consumers.  Returns the number of events that moved
        through the aggregation stage.
        """
        for collector in self.collectors:
            collector.poll_once()
        handled = 0
        for shard in self.shard_handles.values():
            handled += shard.pump_once()
        if consumer_poll:
            for consumer in self.consumers:
                consumer.poll_once()
        return handled

    def drain(self, max_rounds: int = 10_000, settle: float = 0.002) -> int:
        """Pump until no events remain anywhere in the pipeline.

        On the multiproc backend a quiet pump does not mean done — a
        batch may still be crossing a process boundary — so the drain
        keeps settling while any bridge reports in-flight work.
        """
        total = 0
        for _ in range(max_rounds):
            moved = self.pump()
            total += moved
            if moved == 0:
                if any(
                    getattr(shard, "busy", False)
                    for shard in self.shard_handles.values()
                ):
                    time.sleep(settle)
                    continue
                break
        return total

    # -- failover ------------------------------------------------------------

    def crash_shard(self, shard_id: str) -> None:
        """Arm a one-shot injected crash on *shard_id*'s store path.

        The next batch that shard tries to store raises
        :class:`~repro.runtime.ServiceCrash` *before* anything is
        stored — the worst spot for the old pump (batch drained from
        the mailbox, nothing durable yet).  The crash-safe pump
        requeues the batch, the supervisor restarts the shard, and the
        replay stores it — which is what the failover tests assert.

        On the multiproc backend the equivalent fault is the real
        thing: the shard's child process is SIGKILLed; the bridge
        respawns it and replays unacked batches at their original
        sequence numbers.
        """
        handle = self.shard_handles[shard_id]
        kill = getattr(handle, "kill_child", None)
        if kill is not None:
            kill()
            return
        store = handle.store
        original = store.extend

        def crash_once(events):
            store.extend = original
            raise ServiceCrash(f"injected crash on {shard_id}")

        store.extend = crash_once

    def retire_shard(self, shard_id: str) -> ShardMap:
        """Route *shard_id*'s keys away (planned drain / dead shard).

        Only that shard's keys move (rendezvous property); its stored
        history stays queryable through the scatter-gather client.
        Returns the map that was replaced.
        """
        return self.router.retire(shard_id)

    def restore_shard(self, shard_id: str) -> ShardMap:
        """Route *shard_id*'s keys back after recovery."""
        return self.router.restore(shard_id)

    def shard_of(self, mdt_index: int) -> str:
        """Which shard owns *mdt_index* under the current map."""
        return self.router.map.route(f"mdt:{mdt_index}")

    # -- live supervised mode --------------------------------------------------

    def start(self) -> None:
        """Start the supervision tree (consumers → shards → collectors)."""
        self.supervisor.start()

    def stop(self) -> None:
        """Stop everything in reverse dependency order, flushing
        in-flight events: collectors drain, the shards pump their final
        batches, consumers take a final poll, then all are stopped."""
        self.supervisor.stop()

    def shutdown(self) -> None:
        """Stop and release changelog users and sockets."""
        self.supervisor.close()

    def health(self) -> dict:
        """Uniform per-service health for the whole tree."""
        return self.supervisor.health()

    # -- statistics ------------------------------------------------------------

    def stats(self) -> MonitorStats:
        """Pipeline counters: totals plus per-collector and per-shard
        breakdowns, derived from the shared metrics registry."""
        stats = MonitorStats(shard_map_version=self.router.version)
        for collector in self.collectors:
            snap = collector.metrics.snapshot()
            stats.records_read += snap.get("records_read", 0)
            stats.events_reported += snap.get("events_reported", 0)
            stats.resolver_invocations += snap.get("resolver_invocations", 0)
            stats.resolver_failures += snap.get("resolver_failures", 0)
            stats.unresolved_events += snap.get("unresolved_events", 0)
            stats.cache_hits += snap.get("cache_hits", 0)
            stats.cache_misses += snap.get("cache_misses", 0)
            stats.per_collector[collector.name] = {
                "records_read": snap.get("records_read", 0),
                "events_reported": snap.get("events_reported", 0),
                "resolver_invocations": snap.get("resolver_invocations", 0),
            }
        for shard_id, shard in self.shard_handles.items():
            snap = shard.metrics.snapshot()
            stats.events_stored += snap.get("events_stored", 0)
            stats.events_published += snap.get("events_published", 0)
            stats.store_len += snap.get("store_len", 0)
            stats.per_shard[shard_id] = {
                "events_stored": snap.get("events_stored", 0),
                "events_published": snap.get("events_published", 0),
                "store_len": snap.get("store_len", 0),
                "batches_received": snap.get("batches_received", 0),
                "restart_count": shard.restart_count,
            }
        stats.services = self.supervisor.health()["services"]
        prefix = TRACE_SCOPE + "."
        stats.stage_latency = {
            name[len(prefix):]: histogram.summary()
            for name, histogram in self.registry.histograms().items()
            if name.startswith(prefix)
        }
        return stats
