"""Hierarchical aggregation: relay aggregators for multi-tier fan-in.

The paper's monitor uses a "hierarchical publisher-subscriber model";
within one filesystem that is Collectors → Aggregator.  At facility
scale there are *many* filesystems (home, project, scratch, campaign
stores), each with its own monitor.  A :class:`RelayAggregator`
subscribes to any number of upstream aggregators' publish endpoints and
re-publishes their streams as one — same rotating store, same historic
API — so a Ripple agent can watch the whole facility through a single
subscription.

Relayed events get fresh sequence numbers in the relay's numbering
space; upstream provenance is preserved in ``RelayedEvent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.aggregator import Aggregator, AggregatorConfig
from repro.core.events import FileEvent, ReportBatch
from repro.errors import WouldBlock
from repro.msgq import Transport, make_transport


@dataclass(frozen=True)
class RelayedEvent:
    """Provenance wrapper: where an event came from before the relay."""

    upstream: str
    upstream_seq: int
    event: FileEvent


class RelayAggregator(Aggregator):
    """An Aggregator fed by other aggregators instead of collectors.

    Use :meth:`add_upstream` to subscribe to each source, then drive it
    like any aggregator (``pump_once`` in step mode, ``start()`` live).
    The relay stores and republishes the *inner* :class:`FileEvent`, so
    downstream consumers are oblivious to the hierarchy; provenance is
    available via ``relayed_count`` and the per-upstream counters.
    """

    def __init__(
        self,
        context: Transport,
        config: AggregatorConfig | None = None,
        registry=None,
        name: str = "relay",
    ) -> None:
        super().__init__(context, config, registry=registry, name=name)
        self._upstreams: list[tuple[str, object]] = []  # (name, SubSocket)
        #: Events relayed per upstream name.
        self.relayed_counts: dict[str, int] = {}
        self._events_relayed = self.metrics.counter("events_relayed")

    def add_upstream(
        self,
        publish_endpoint: str,
        name: Optional[str] = None,
        topic: str = "events",
        upstream_context: Transport | None = None,
    ) -> str:
        """Subscribe to an upstream aggregator's publish endpoint.

        *upstream_context* lets the relay bridge endpoints living in a
        different messaging context (each monitor builds its own by
        default).  Returns the upstream's name.
        """
        context = upstream_context or self.context
        label = name or f"upstream-{len(self._upstreams)}"
        subscription = (
            context.sub(hwm=self.config.hwm)
            .connect(publish_endpoint)
            .subscribe(topic)
        )
        self._upstreams.append((label, subscription))
        self.relayed_counts[label] = 0
        return label

    def pump_once(self, timeout: float = 0.0) -> int:
        """Drain every upstream subscription, then any direct inbound.

        Upstream messages are drained batch-wise (one fabric operation
        per subscription) and re-ingested as whole batches, so a relay
        preserves the upstream's batch amortisation instead of
        dissolving it back into per-event work.

        Tracing: a stamped upstream batch records the ``relay`` stage
        (upstream PUB send → relay re-ingest) and is re-ingested with
        its original ``collected_ts`` preserved, so the downstream
        ``aggregate`` delta still measures from first collection.
        """
        handled = 0
        for label, subscription in self._upstreams:
            try:
                messages = subscription.recv_many(block=False)
            except WouldBlock:
                continue
            for _topic, payload in messages:
                entries = payload.entries
                events = [event for _seq, event in entries]
                published_ts = payload.published_ts
                if published_ts is not None and self.tracer.enabled:
                    self.tracer.record(
                        "relay", self.tracer.now() - published_ts
                    )
                    collected_ts = payload.collected_ts
                    if collected_ts is not None:
                        events = ReportBatch(tuple(events), collected_ts)
                self._handle_batch(events)
                self.relayed_counts[label] += len(entries)
                self._events_relayed.inc(len(entries))
                handled += len(entries)
        # Also accept directly-pushed batches (a relay can serve both
        # roles at once).
        handled += super().pump_once(timeout=timeout)
        return handled

    @property
    def relayed_count(self) -> int:
        """Total events relayed from all upstreams."""
        return sum(self.relayed_counts.values())


def facility_relay(
    monitors,
    names: Optional[list[str]] = None,
    config: AggregatorConfig | None = None,
) -> RelayAggregator:
    """Build a relay over several LustreMonitors (one per filesystem).

    The relay subscribes to every shard's publish endpoint of every
    monitor; each upstream is labelled ``<name>.<shard>`` (``fs0.shard0``
    by default).  The relay gets its own messaging context with
    distinct endpoints so its consumers do not collide with per-monitor
    consumers.
    """
    relay_config = config or AggregatorConfig(
        inbound_endpoint="inproc://facility-aggregator",
        publish_endpoint="inproc://facility-events",
        api_endpoint="inproc://facility-history",
    )
    relay = RelayAggregator(make_transport("inproc"), relay_config)
    for index, monitor in enumerate(monitors):
        label = names[index] if names else f"fs{index}"
        for shard_id, shard_config in monitor.shard_configs.items():
            relay.add_upstream(
                shard_config.publish_endpoint,
                name=f"{label}.{shard_id}",
                topic=shard_config.publish_topic,
                upstream_context=monitor.context,
            )
    return relay
