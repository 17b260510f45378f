"""An in-process message fabric with ZeroMQ-style socket semantics.

The paper's monitor moves events from Collectors to the Aggregator and
from the Aggregator to subscribed consumers over ZeroMQ.  This package
reproduces the messaging *semantics* the design depends on, in-process:

* :class:`Context` — owns named endpoints; sockets bind/connect to
  ``inproc://name`` style addresses.
* ``PUB``/``SUB`` — fan-out with topic prefix filtering; subscribers
  that have not connected yet miss messages (the "slow joiner" property
  real deployments must design around); a bounded high-water mark drops
  messages to slow subscribers (observable, so tests can assert on it).
* ``PUSH``/``PULL`` — fair-queued fan-in/fan-out pipelines with blocking
  or non-blocking receive; used Collector→Aggregator.
* ``REQ``/``REP`` — lock-step request/reply, used for the Aggregator's
  historic-event retrieval API.

The ablation A4 (DESIGN.md) compares these transports for the
collection path, per the paper's future work.

Every name below is re-exported lazily: a shard child that imports
``repro.msgq.framing`` and ``repro.msgq.pipes`` loads neither the
sockets nor the context.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Context": ".context",
    "InprocTransport": ".context",
    "Transport": ".transport",
    "make_transport": ".transport",
    "PubSocket": ".sockets",
    "SubSocket": ".sockets",
    "PushSocket": ".sockets",
    "PullSocket": ".sockets",
    "ReqSocket": ".sockets",
    "RepSocket": ".sockets",
})

__all__ = [
    "Context",
    "InprocTransport",
    "Transport",
    "make_transport",
    "PubSocket",
    "SubSocket",
    "PushSocket",
    "PullSocket",
    "ReqSocket",
    "RepSocket",
]
