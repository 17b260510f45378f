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
"""

from repro.core.events import (
    EventBatch,
    EventType,
    FileEvent,
    ReportBatch,
    iter_entries,
    iter_report,
)
from repro.core.processor import EventProcessor, PathCache, ProcessorConfig
from repro.core.collector import Collector, CollectorConfig
from repro.core.store import EventStore
from repro.core.aggregator import Aggregator, AggregatorConfig
from repro.core.consumer import Consumer, DedupingConsumer
from repro.core.client import MonitorClient
from repro.core.fsmonitor import StorageMonitor
from repro.core.monitor import LustreMonitor, MonitorConfig
from repro.core.relay import RelayAggregator, facility_relay

__all__ = [
    "FileEvent",
    "EventBatch",
    "ReportBatch",
    "iter_entries",
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
    "MonitorClient",
    "StorageMonitor",
    "RelayAggregator",
    "facility_relay",
    "LustreMonitor",
    "MonitorConfig",
]
