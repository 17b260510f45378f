"""The Transport abstraction: one socket contract, pluggable backends.

Every layer of the pipeline that touches sockets — collectors pushing
report batches, aggregators binding their PULL/PUB/REP trio, consumers
subscribing, clients querying — speaks the contract defined here, not a
concrete backend:

* ``pub``/``sub`` — fan-out with topic prefix filtering and slow-joiner
  semantics; full subscribers drop (counted), publishers never block.
* ``push``/``pull`` — fair-queued pipelines with blocking ``send``,
  batched ``send_many``/``recv_many``, and the ``requeue`` crash-safety
  primitive (drained-but-unprocessed messages go back to the front).
* ``req``/``rep`` — lock-step request/reply with one-shot reply
  channels.
* high-water marks and credit-based flow control on every receiving
  socket (see :class:`~repro.msgq.sockets._Mailbox`), plus readiness
  ``wakers`` so service workers block instead of polling.

Backends:

* ``inproc`` — :class:`~repro.msgq.context.Context`, the thread-queue
  implementation (also exported as ``InprocTransport``).  Byte-identical
  to the pre-refactor ``msgq`` behaviour; the existing fabric tests are
  its oracle.
* ``multiproc`` — :class:`~repro.msgq.multiproc.MultiprocTransport`, an
  inproc context extended with a process-per-shard factory: parent-side
  sockets stay inproc (so collectors/consumers/clients are unchanged)
  while each shard's store+publish work runs in a child process bridged
  over multiprocessing pipes with marshal framing (pickle-free data
  plane) and at-least-once redelivery.

:func:`make_transport` resolves a transport URL/name (``"inproc"``,
``"multiproc"``, or the ``scheme://`` form) to a backend instance —
the config-field hook ``MonitorConfig.transport`` uses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.errors import MessagingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.msgq.sockets import (
        PubSocket,
        PullSocket,
        PushSocket,
        RepSocket,
        ReqSocket,
        SubSocket,
    )

#: Default per-socket high-water mark shared by every factory.
DEFAULT_HWM = 10_000


class Transport(ABC):
    """The socket contract every messaging backend implements.

    A transport owns one endpoint namespace (bind claims a name,
    connect resolves it) and manufactures the six socket types.  All
    factories take a high-water mark: the bounded-queue capacity that
    drives the credit-based flow control receivers grant to senders.
    """

    #: URL scheme this backend answers to (``inproc``, ``multiproc``).
    scheme: str = "abstract"

    # -- socket factory -----------------------------------------------------

    @abstractmethod
    def pub(self, hwm: int = DEFAULT_HWM) -> "PubSocket":
        """Create a PUB socket (fan-out, never blocks, drops on full)."""

    @abstractmethod
    def sub(self, hwm: int = DEFAULT_HWM) -> "SubSocket":
        """Create a SUB socket (prefix-filtered, bounded mailbox)."""

    @abstractmethod
    def push(self, hwm: int = DEFAULT_HWM) -> "PushSocket":
        """Create a PUSH socket (round-robin pipeline source)."""

    @abstractmethod
    def pull(self, hwm: int = DEFAULT_HWM) -> "PullSocket":
        """Create a PULL socket (fair-queued sink with ``requeue``)."""

    @abstractmethod
    def req(self, timeout: float | None = None) -> "ReqSocket":
        """Create a REQ socket (lock-step request side)."""

    @abstractmethod
    def rep(self, hwm: int = DEFAULT_HWM) -> "RepSocket":
        """Create a REP socket (lock-step reply side)."""

    # -- namespace ----------------------------------------------------------

    @abstractmethod
    def endpoints(self) -> list[str]:
        """Currently bound endpoints (diagnostics)."""

    @abstractmethod
    def close(self) -> None:
        """Close every registered socket and refuse further binds."""


def make_transport(url: str = "inproc") -> Transport:
    """Resolve a transport URL or bare scheme name to a backend.

    Accepts ``"inproc"``, ``"multiproc"``, or any ``scheme://...`` URL
    whose scheme names a backend (the path part is ignored — inproc
    endpoint names carry the namespace).  Backends are imported lazily
    so the multiproc machinery costs nothing unless selected.
    """
    scheme = url.split("://", 1)[0].strip()
    if scheme == "inproc":
        from repro.msgq.context import Context

        return Context()
    if scheme == "multiproc":
        from repro.msgq.multiproc import MultiprocTransport

        return MultiprocTransport()
    raise MessagingError(
        f"unknown transport scheme {scheme!r}; known: ['inproc', 'multiproc']"
    )
