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
"""

from repro.core import (
    Aggregator,
    Collector,
    Consumer,
    EventProcessor,
    EventStore,
    EventType,
    FileEvent,
    LustreMonitor,
    MonitorConfig,
)
from repro.fs import MemoryFilesystem, Observer
from repro.metrics import MetricsRegistry
from repro.lustre import (
    ChangeLog,
    ChangelogRecord,
    Fid,
    FidResolver,
    LustreFilesystem,
    RecordType,
)
from repro.ripple import (
    Action,
    RippleAgent,
    RippleService,
    Rule,
    Trigger,
)
from repro.runtime import (
    RestartPolicy,
    Service,
    ServiceCrash,
    Supervisor,
)

__version__ = "1.0.0"

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
