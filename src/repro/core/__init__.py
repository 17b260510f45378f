"""The scalable Lustre monitor: the paper's primary contribution.

The monitor turns per-MDT ChangeLogs into a single site-wide stream of
path-resolved file events that any subscriber (e.g. a Ripple agent) can
consume in real time, with a rotating historic catalog for fault
tolerance.  Pipeline (paper §4, Figure 2):

1. **Detection** — one :class:`Collector` per MDS extracts new records
   from each local ChangeLog.
2. **Processing** — FIDs are resolved to absolute paths (the
   ``fid2path`` step, the measured bottleneck); :class:`EventProcessor`
   also implements the paper's proposed fixes: batch resolution and a
   path cache.
3. **Aggregation** — records are reported over the message fabric to the
   multi-threaded :class:`Aggregator`, which stores events in a rotating
   :class:`EventStore` and publishes them to subscribers; an API serves
   historic events so consumers can recover after a disconnect.

:class:`LustreMonitor` wires the whole thing to a
:class:`~repro.lustre.LustreFilesystem`.  With one aggregator shard
(the default) it is Figure 2; ``MonitorConfig(num_shards=N)`` spreads
aggregation over N shards, the fix for the single-aggregator wall the
paper names in §6.

Every name below is re-exported lazily: a shard child that imports
``repro.core.aggregator`` loads the aggregator and the store, not the
monitor, its telemetry plane or the polling baseline.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "EventBatch": ".events",
    "EventType": ".events",
    "FileEvent": ".events",
    "ReportBatch": ".events",
    "iter_report": ".events",
    "EventProcessor": ".processor",
    "PathCache": ".processor",
    "ProcessorConfig": ".processor",
    "Collector": ".collector",
    "CollectorConfig": ".collector",
    "EventStore": ".store",
    "Aggregator": ".aggregator",
    "AggregatorConfig": ".aggregator",
    "Consumer": ".consumer",
    "DedupingConsumer": ".consumer",
    "StorageMonitor": ".fsmonitor",
    "AdaptiveFlushController": ".adaptive",
    "FlushTuning": ".adaptive",
    "LustreMonitor": ".monitor",
    "MonitorConfig": ".monitor",
    "RelayAggregator": ".relay",
    "facility_relay": ".relay",
})

__all__ = [
    "FileEvent",
    "EventBatch",
    "ReportBatch",
    "iter_report",
    "EventType",
    "EventProcessor",
    "ProcessorConfig",
    "PathCache",
    "Collector",
    "CollectorConfig",
    "EventStore",
    "Aggregator",
    "AggregatorConfig",
    "Consumer",
    "DedupingConsumer",
    "StorageMonitor",
    "RelayAggregator",
    "facility_relay",
    "AdaptiveFlushController",
    "FlushTuning",
    "LustreMonitor",
    "MonitorConfig",
]
