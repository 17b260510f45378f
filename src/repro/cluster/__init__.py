"""Scatter-gather access to a sharded monitor.

A :class:`~repro.core.LustreMonitor` with ``num_shards > 1`` spreads
each MDT's report stream across supervised aggregator shards (the fix
for the paper's §6 single-aggregator wall); :class:`ClusterClient`
scatter-gathers the per-shard APIs back into one answer.

``ClusterMonitor`` and ``ClusterConfig`` are plain aliases of
:class:`~repro.core.LustreMonitor` and :class:`~repro.core.MonitorConfig`
— there is one monitor, and a cluster is a monitor with more shards.
"""

from repro.cluster.client import (
    AsyncClusterClient,
    ClusterClient,
    ClusterPage,
    decode_cursor,
    encode_cursor,
)
from repro.core.monitor import LustreMonitor as ClusterMonitor
from repro.core.monitor import MonitorConfig as ClusterConfig

__all__ = [
    "AsyncClusterClient",
    "ClusterClient",
    "ClusterPage",
    "decode_cursor",
    "encode_cursor",
    "ClusterConfig",
    "ClusterMonitor",
]
