"""repro — Ripple SDCI and a scalable Lustre ChangeLog monitor.

A from-scratch reproduction of *"Toward Scalable Monitoring on
Large-Scale Storage for Software Defined Cyberinfrastructure"*
(PDSW-DISCS'17).  See README.md for the tour, DESIGN.md for the system
inventory and EXPERIMENTS.md for paper-vs-measured results.

The most common entry points are re-exported here:

>>> from repro import LustreFilesystem, LustreMonitor, RippleService

``LustreMonitor`` is the one monitor: with its default single
aggregator shard it is the paper's Figure 2, and
``MonitorConfig(num_shards=N)`` spreads aggregation over N shards (the
§6 scaling fix); ``repro.cluster`` adds the scatter-gather client.

The re-exports resolve on first use, so ``import repro`` (and any
import of a submodule, which runs this file first) loads no subpackage.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "Aggregator": ".core",
    "Collector": ".core",
    "Consumer": ".core",
    "EventProcessor": ".core",
    "EventStore": ".core",
    "EventType": ".core",
    "FileEvent": ".core",
    "LustreMonitor": ".core",
    "MonitorConfig": ".core",
    "MemoryFilesystem": ".fs",
    "Observer": ".fs",
    "MetricsRegistry": ".metrics",
    "ChangeLog": ".lustre",
    "ChangelogRecord": ".lustre",
    "Fid": ".lustre",
    "FidResolver": ".lustre",
    "LustreFilesystem": ".lustre",
    "RecordType": ".lustre",
    "Action": ".ripple",
    "RippleAgent": ".ripple",
    "RippleService": ".ripple",
    "Rule": ".ripple",
    "Trigger": ".ripple",
    "RestartPolicy": ".runtime",
    "Service": ".runtime",
    "ServiceCrash": ".runtime",
    "Supervisor": ".runtime",
})

__all__ = [
    "__version__",
    # filesystem substrates
    "LustreFilesystem",
    "MemoryFilesystem",
    "Observer",
    "Fid",
    "ChangeLog",
    "ChangelogRecord",
    "RecordType",
    "FidResolver",
    # the monitor
    "LustreMonitor",
    "MonitorConfig",
    "Collector",
    "Aggregator",
    "Consumer",
    "EventProcessor",
    "EventStore",
    "FileEvent",
    "EventType",
    # Ripple
    "RippleService",
    "RippleAgent",
    "Rule",
    "Trigger",
    "Action",
    # service runtime
    "Service",
    "ServiceCrash",
    "Supervisor",
    "RestartPolicy",
    "MetricsRegistry",
]
