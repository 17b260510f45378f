"""Socket implementations for the in-process message fabric.

Messages are arbitrary Python objects plus a topic string (PUB/SUB only).
Delivery is push-based into per-receiver bounded queues guarded by
condition variables, giving the same backpressure/drop behaviour as
ZeroMQ's high-water marks:

* PUSH blocks when every connected PULL queue is full (ZeroMQ blocks or
  drops depending on socket type; pipelines block).
* PUB never blocks: messages to a full SUB queue are dropped and counted
  on the subscriber (``dropped`` attribute) — ZeroMQ's documented PUB
  behaviour.

Flow control is credit-based: a mailbox's free capacity (``hwm`` minus
queue depth) is the *credit* the receiver grants senders.  A blocking
send waits for enough credits; batched sends progress wave-by-wave as
credits free up; and a sender may mark messages sheddable
(``shed_priority``) so that under HWM pressure expendable traffic is
dropped — counted, highest priority first — instead of blocking the
pipeline behind it.

Receiving sockets (PULL, SUB, REP) also accept *wakers*: events that
are set whenever a message lands in the socket's queue, so a service
worker can block until its input is ready instead of polling.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import MessagingError, SocketClosed, WouldBlock
from repro.msgq.context import Context
from repro.util.wakers import Wakers


class Socket:
    """Common socket machinery: lifecycle and identity."""

    _ids = itertools.count(1)

    def __init__(self, context: Context) -> None:
        self.context = context
        self.socket_id = next(self._ids)
        self.closed = False
        self._bound_endpoints: list[str] = []
        # Registration lets Context.close() tear down every socket,
        # not just the bound ones.
        register = getattr(context, "_register", None)
        if register is not None:
            register(self)

    def _check_open(self) -> None:
        if self.closed:
            raise SocketClosed(f"socket {self.socket_id} is closed")

    def close(self) -> None:
        """Close the socket and release its endpoints."""
        if self.closed:
            return
        self.closed = True
        for endpoint in self._bound_endpoints:
            self.context._unbind(endpoint)
        self._bound_endpoints.clear()
        self._on_close()

    def _on_close(self) -> None:
        """Subclass hook for close-time cleanup."""

    def __enter__(self) -> "Socket":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _Mailbox:
    """A bounded thread-safe FIFO with blocking receive.

    The free capacity (``hwm`` minus queue depth) is the *credit* this
    receiver currently grants senders — :attr:`credits` exposes it so
    backpressure is observable before the mark is hit (the services
    export it as a registry gauge).  ``requeue`` deliberately bypasses
    the mark, so credits floor at zero rather than going negative.

    Every enqueue also rings :attr:`wakers` — the readiness events of
    the woken service workers that consume this mailbox.
    """

    def __init__(self, hwm: int) -> None:
        if hwm < 1:
            raise MessagingError(f"hwm must be >= 1: {hwm}")
        self.hwm = hwm
        self._queue: Deque[Any] = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self.dropped = 0
        self.delivered = 0
        #: Messages dropped by sender-requested shedding (distinct from
        #: ``dropped``, the receiver-side overflow counter).
        self.shed = 0
        self.wakers = Wakers()

    @property
    def credits(self) -> int:
        """Free slots the receiver currently grants (never negative)."""
        with self._lock:
            return max(self.hwm - len(self._queue), 0)

    def _credits_locked(self) -> int:
        return max(self.hwm - len(self._queue), 0)

    def offer(self, item: Any) -> bool:
        """Non-blocking put; returns False (counting a drop) when full."""
        with self._lock:
            if len(self._queue) >= self.hwm:
                self.dropped += 1
                return False
            self._queue.append(item)
            self.delivered += 1
            self._ready.notify()
            self.wakers.ring()
            return True

    def put(self, item: Any, timeout: Optional[float] = None) -> bool:
        """Blocking put; waits for space up to *timeout* seconds."""
        with self._lock:
            if len(self._queue) >= self.hwm:
                if not self._space.wait_for(
                    lambda: len(self._queue) < self.hwm, timeout=timeout
                ):
                    return False
            self._queue.append(item)
            self.delivered += 1
            self._ready.notify()
            self.wakers.ring()
            return True

    def _shed_locked(
        self,
        pending: list,
        priorities: list[int],
        cursor: int,
        all_remaining: bool = False,
    ) -> int:
        """Drop sheddable items (priority > 0, highest first) in place.

        Removes items from ``pending[cursor:]`` (and their priorities)
        until the remainder fits the credits currently available — or,
        with *all_remaining*, drops every sheddable item left (the
        deadline-expiry path).  Returns the number shed.
        """
        candidates = sorted(
            (i for i in range(cursor, len(pending)) if priorities[i] > 0),
            key=lambda i: -priorities[i],
        )
        if not candidates:
            return 0
        if all_remaining:
            target = len(candidates)
        else:
            excess = (len(pending) - cursor) - self._credits_locked()
            target = min(len(candidates), max(excess, 0))
        if target <= 0:
            return 0
        for index in sorted(candidates[:target], reverse=True):
            del pending[index]
            del priorities[index]
        self.shed += target
        return target

    def put_many(
        self,
        items: list,
        timeout: Optional[float] = None,
        shed_priorities: Optional[list[int]] = None,
    ):
        """Enqueue a whole batch under one lock acquisition.

        Admission is credit-driven: a batch that fits within the
        high-water mark waits for credits covering the *entire* batch
        before admitting anything (all-or-nothing, so a timed-out group
        is never torn); a batch larger than the mark cannot fit at once
        and moves in credit-sized waves — each wave admits exactly the
        credits the receiver has granted, progressing as soon as any
        slot frees instead of waiting for a whole hwm-sized window.
        *timeout* is a deadline across the whole call, not per wave.

        *shed_priorities* (aligned with *items*; 0 = must deliver,
        higher = shed first) enables load shedding.  Shedding is
        deadline-honouring for groups that fit the mark: a within-hwm
        group blocks for credits exactly like the non-shedding path and
        sheds only once the deadline expires — an instantaneous credit
        shortfall that would have resolved in time never drops
        anything.  Oversized groups (which can never be admitted
        atomically) still shed eagerly down to the available credits —
        highest priority first, counted in :attr:`shed`.  At deadline
        expiry every sheddable item left is dropped, and the surviving
        must-deliver remainder is admitted if it now fits the credits
        freed by the shed.

        Returns the number of items admitted — or an
        ``(admitted, shed)`` pair when *shed_priorities* was given —
        so callers can account for partial deliveries instead of
        assuming all-or-nothing.
        """
        if not items:
            return 0 if shed_priorities is None else (0, 0)
        pending = list(items)
        priorities = (
            None if shed_priorities is None else list(shed_priorities)
        )
        if priorities is not None and len(priorities) != len(pending):
            raise MessagingError(
                "shed_priorities must align with items: "
                f"{len(priorities)} != {len(pending)}"
            )
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._lock:
            admitted = 0
            shed = 0
            cursor = 0
            while cursor < len(pending):
                remaining = len(pending) - cursor
                if (
                    priorities is not None
                    and remaining > self.hwm
                    and self._credits_locked() < remaining
                ):
                    # Only oversized groups shed on an instantaneous
                    # shortfall — a within-hwm group would have blocked
                    # and delivered, so it keeps blocking and sheds at
                    # the deadline instead.
                    shed += self._shed_locked(pending, priorities, cursor)
                    remaining = len(pending) - cursor
                    if remaining == 0:
                        break
                # Within-hwm groups need credits for the whole group
                # (atomic admission); oversized groups progress one
                # credit at a time.
                needed = remaining if remaining <= self.hwm else 1
                wait = (
                    None if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                if not self._space.wait_for(
                    lambda: len(self._queue) + needed <= self.hwm,
                    timeout=wait,
                ):
                    if priorities is not None:
                        shed += self._shed_locked(
                            pending, priorities, cursor, all_remaining=True
                        )
                        leftover = len(pending) - cursor
                        if 0 < leftover <= self._credits_locked():
                            # The shed freed enough room: deliver the
                            # surviving must-delivers instead of
                            # failing them at the deadline.
                            self._queue.extend(pending[cursor:])
                            self.delivered += leftover
                            self._ready.notify_all()
                            self.wakers.ring()
                            admitted += leftover
                            cursor += leftover
                    break
                wave = (
                    remaining
                    if remaining <= self.hwm
                    else min(self._credits_locked(), remaining)
                )
                self._queue.extend(pending[cursor:cursor + wave])
                self.delivered += wave
                self._ready.notify_all()
                self.wakers.ring()
                admitted += wave
                cursor += wave
            return admitted if shed_priorities is None else (admitted, shed)

    def requeue(self, items: list) -> None:
        """Put already-admitted *items* back at the FRONT of the queue.

        The crash-recovery primitive: a receiver that drained a group
        with :meth:`get_many` but failed before processing all of it
        returns the unprocessed tail here, so the next receive sees the
        items again in their original order, ahead of anything that
        arrived in the meantime.  The items were admitted (and counted
        delivered) once already, so the high-water mark is deliberately
        not re-checked and ``delivered`` is not re-counted.
        """
        if not items:
            return
        with self._lock:
            self._queue.extendleft(reversed(items))
            self._ready.notify_all()
            self.wakers.ring()

    def get_many(
        self,
        max_items: Optional[int] = None,
        timeout: Optional[float] = None,
        block: bool = True,
    ) -> list:
        """Drain up to *max_items* pending items in one lock acquisition.

        Raises WouldBlock exactly like :meth:`get` when nothing arrives
        in time; otherwise returns at least one item.
        """
        with self._lock:
            if not block:
                if not self._queue:
                    raise WouldBlock("no message available")
            else:
                if not self._ready.wait_for(
                    lambda: bool(self._queue), timeout=timeout
                ):
                    raise WouldBlock("receive timed out")
            count = len(self._queue)
            if max_items is not None:
                count = min(count, max(max_items, 1))
            items = [self._queue.popleft() for _ in range(count)]
            self._space.notify_all()
            return items

    def get(self, timeout: Optional[float] = None, block: bool = True) -> Any:
        """Receive the next item; raises WouldBlock on timeout/empty."""
        with self._lock:
            if not block:
                if not self._queue:
                    raise WouldBlock("no message available")
            else:
                if not self._ready.wait_for(
                    lambda: bool(self._queue), timeout=timeout
                ):
                    raise WouldBlock("receive timed out")
            item = self._queue.popleft()
            self._space.notify()
            return item

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)


# ---------------------------------------------------------------------------
# PUB / SUB
# ---------------------------------------------------------------------------


class PubSocket(Socket):
    """Publisher: fan-out with topic prefix filtering, never blocks."""

    def __init__(self, context: Context, hwm: int = 10_000) -> None:
        super().__init__(context)
        self.hwm = hwm
        self._lock = threading.Lock()
        self._subscribers: list["SubSocket"] = []
        self.published = 0

    def bind(self, endpoint: str) -> "PubSocket":
        """Claim *endpoint* so SUB sockets can connect to it."""
        self._check_open()
        self.context._bind(endpoint, self)
        self._bound_endpoints.append(endpoint)
        return self

    def _attach(self, subscriber: "SubSocket") -> None:
        with self._lock:
            self._subscribers.append(subscriber)

    def _detach(self, subscriber: "SubSocket") -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    @property
    def subscriber_count(self) -> int:
        """Currently attached subscribers (the multiproc bridge uses
        this to suppress decode work when nobody is listening)."""
        with self._lock:
            return len(self._subscribers)

    def send(self, topic: str, payload: Any) -> int:
        """Publish *payload* under *topic*; returns matched subscribers.

        Subscribers whose queues are full drop the message (counted on
        the subscriber), matching ZeroMQ PUB semantics.
        """
        self._check_open()
        self.published += 1
        with self._lock:
            subscribers = list(self._subscribers)
        matched = 0
        for subscriber in subscribers:
            if subscriber._matches(topic):
                matched += 1
                subscriber._mailbox.offer((topic, payload))
        return matched

    def _on_close(self) -> None:
        with self._lock:
            self._subscribers.clear()


class SubSocket(Socket):
    """Subscriber: receives (topic, payload) pairs matching its prefixes."""

    def __init__(self, context: Context, hwm: int = 10_000) -> None:
        super().__init__(context)
        self._mailbox = _Mailbox(hwm)
        self._topics: list[str] = []
        self._publishers: list[PubSocket] = []

    def connect(self, endpoint: str) -> "SubSocket":
        """Attach to the PUB socket bound at *endpoint*."""
        self._check_open()
        publisher = self.context._lookup(endpoint)
        if not isinstance(publisher, PubSocket):
            raise MessagingError(f"{endpoint!r} is not a PUB endpoint")
        publisher._attach(self)
        self._publishers.append(publisher)
        return self

    def subscribe(self, prefix: str = "") -> "SubSocket":
        """Add a topic prefix filter ('' matches everything)."""
        self._check_open()
        if prefix not in self._topics:
            self._topics.append(prefix)
        return self

    def unsubscribe(self, prefix: str) -> None:
        """Remove a previously added prefix."""
        try:
            self._topics.remove(prefix)
        except ValueError:
            pass

    def _matches(self, topic: str) -> bool:
        return any(topic.startswith(prefix) for prefix in self._topics)

    def recv(
        self, timeout: Optional[float] = None, block: bool = True
    ) -> tuple[str, Any]:
        """Receive the next (topic, payload); raises WouldBlock if none."""
        self._check_open()
        return self._mailbox.get(timeout=timeout, block=block)

    def recv_many(
        self,
        max_messages: Optional[int] = None,
        timeout: Optional[float] = None,
        block: bool = True,
    ) -> list[tuple[str, Any]]:
        """Drain pending (topic, payload) pairs in one fabric operation;
        raises WouldBlock exactly like :meth:`recv`."""
        self._check_open()
        return self._mailbox.get_many(
            max_items=max_messages, timeout=timeout, block=block
        )

    @property
    def pending(self) -> int:
        """Messages buffered and not yet received."""
        return len(self._mailbox)

    @property
    def wakers(self) -> Wakers:
        """Readiness events set whenever a message lands here."""
        return self._mailbox.wakers

    @property
    def hwm(self) -> int:
        """This subscriber's queue capacity."""
        return self._mailbox.hwm

    @property
    def credits(self) -> int:
        """Free queue slots (occupancy gauge: ``hwm - pending``)."""
        return self._mailbox.credits

    @property
    def dropped(self) -> int:
        """Messages dropped because this subscriber's queue was full."""
        return self._mailbox.dropped

    def _on_close(self) -> None:
        for publisher in self._publishers:
            publisher._detach(self)
        self._publishers.clear()


# ---------------------------------------------------------------------------
# PUSH / PULL
# ---------------------------------------------------------------------------


class PullSocket(Socket):
    """Pipeline sink: fair-queued fan-in from any number of pushers."""

    def __init__(self, context: Context, hwm: int = 10_000) -> None:
        super().__init__(context)
        self._mailbox = _Mailbox(hwm)

    def bind(self, endpoint: str) -> "PullSocket":
        """Claim *endpoint* so PUSH sockets can connect."""
        self._check_open()
        self.context._bind(endpoint, self)
        self._bound_endpoints.append(endpoint)
        return self

    def recv(self, timeout: Optional[float] = None, block: bool = True) -> Any:
        """Receive the next message; raises WouldBlock if none in time."""
        self._check_open()
        return self._mailbox.get(timeout=timeout, block=block)

    def recv_many(
        self,
        max_messages: Optional[int] = None,
        timeout: Optional[float] = None,
        block: bool = True,
    ) -> list:
        """Drain every pending message (up to *max_messages*) in one
        fabric operation; raises WouldBlock exactly like :meth:`recv`."""
        self._check_open()
        return self._mailbox.get_many(
            max_items=max_messages, timeout=timeout, block=block
        )

    def requeue(self, messages: list) -> None:
        """Return already-received *messages* to the front of the queue.

        Used by crash-safe receivers: messages drained with
        :meth:`recv_many` but not yet processed when the worker died are
        put back so the restarted worker re-receives them first, in
        order.  Bypasses the high-water mark (the messages were admitted
        once) and does not bump :attr:`received`.
        """
        self._check_open()
        self._mailbox.requeue(messages)

    @property
    def pending(self) -> int:
        return len(self._mailbox)

    @property
    def wakers(self) -> Wakers:
        """Readiness events set whenever a message lands here."""
        return self._mailbox.wakers

    @property
    def hwm(self) -> int:
        """This sink's queue capacity."""
        return self._mailbox.hwm

    @property
    def credits(self) -> int:
        """Free queue slots — the credits currently granted to pushers."""
        return self._mailbox.credits

    @property
    def received(self) -> int:
        """Total messages accepted into the mailbox."""
        return self._mailbox.delivered

    @property
    def shed(self) -> int:
        """Messages senders shed at this sink under HWM pressure."""
        return self._mailbox.shed


class PushSocket(Socket):
    """Pipeline source: round-robins messages across connected sinks."""

    def __init__(self, context: Context, hwm: int = 10_000) -> None:
        super().__init__(context)
        self.hwm = hwm
        self._sinks: list[PullSocket] = []
        self._rr = 0
        self.sent = 0
        #: Messages this socket shed under HWM pressure (``send_many``
        #: with a ``shed_priority``).
        self.shed = 0
        #: Fabric round-trips performed (one per send/send_many call) —
        #: the operation counter the ingest micro-benchmark asserts on.
        self.send_ops = 0

    def connect(self, endpoint: str) -> "PushSocket":
        """Attach to the PULL socket bound at *endpoint*."""
        self._check_open()
        sink = self.context._lookup(endpoint)
        if not isinstance(sink, PullSocket):
            raise MessagingError(f"{endpoint!r} is not a PULL endpoint")
        self._sinks.append(sink)
        return self

    def _next_sink(self) -> PullSocket:
        if not self._sinks:
            raise MessagingError("PUSH socket has no connected sinks")
        sink = self._sinks[self._rr % len(self._sinks)]
        self._rr += 1
        return sink

    def send(self, payload: Any, timeout: Optional[float] = None) -> None:
        """Send to the next sink round-robin, blocking while it is full."""
        self._check_open()
        sink = self._next_sink()
        self.send_ops += 1
        if not sink._mailbox.put(payload, timeout=timeout):
            raise WouldBlock("downstream queue full (send timed out)")
        self.sent += 1

    def send_many(
        self,
        payloads: list,
        timeout: Optional[float] = None,
        shed_priority: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Move several messages to ONE sink in one fabric round-trip.

        The whole group lands on the same PULL socket (one mailbox lock
        acquisition), preserving intra-group order — which is why a
        collector flushing one poll's chunks uses this instead of N
        round-robined :meth:`send` calls.

        Admission is credit-based and all-or-nothing for groups within
        the sink's high-water mark.  A larger group moves in
        credit-sized waves under one *timeout* deadline; if a later
        wave times out, ``sent`` still reflects the messages the sink
        already admitted and the raised WouldBlock reports the partial
        count, so retrying callers know the delivery was partial
        rather than absent.

        *shed_priority* maps a payload to its shed priority (0 = must
        deliver; higher sheds first).  Under HWM pressure, sheddable
        payloads are dropped (counted in :attr:`shed` and on the sink)
        instead of blocking the group — WouldBlock is then raised only
        when *must-deliver* payloads went unadmitted.  Best-effort
        feeds (metric mirrors, sampled traces) use this so they can
        never stall the event pipeline behind them.
        """
        self._check_open()
        if not payloads:
            return
        payloads = list(payloads)
        sink = self._next_sink()
        self.send_ops += 1
        if shed_priority is None:
            admitted = sink._mailbox.put_many(payloads, timeout=timeout)
            shed = 0
        else:
            priorities = [int(shed_priority(p)) for p in payloads]
            admitted, shed = sink._mailbox.put_many(
                payloads, timeout=timeout, shed_priorities=priorities
            )
            self.shed += shed
        self.sent += admitted
        if admitted + shed < len(payloads):
            raise WouldBlock(
                "downstream queue full (send timed out after admitting "
                f"{admitted}/{len(payloads)} messages)"
            )


# ---------------------------------------------------------------------------
# REQ / REP
# ---------------------------------------------------------------------------


class RepSocket(Socket):
    """Reply side of a lock-step request/reply channel.

    *hwm* bounds the pending-request queue like every other socket —
    plumbed from config (the aggregator passes its ``hwm``), no longer
    hardcoded.
    """

    def __init__(self, context: Context, hwm: int = 10_000) -> None:
        super().__init__(context)
        self._requests = _Mailbox(hwm=hwm)

    @property
    def hwm(self) -> int:
        """Capacity of the pending-request queue."""
        return self._requests.hwm

    @property
    def wakers(self) -> Wakers:
        """Readiness events set whenever a request arrives."""
        return self._requests.wakers

    @property
    def pending(self) -> int:
        """Requests waiting to be served."""
        return len(self._requests)

    @property
    def credits(self) -> int:
        """Free request slots (occupancy gauge: ``hwm - pending``)."""
        return self._requests.credits

    def bind(self, endpoint: str) -> "RepSocket":
        """Claim *endpoint* so REQ sockets can connect."""
        self._check_open()
        self.context._bind(endpoint, self)
        self._bound_endpoints.append(endpoint)
        return self

    def recv(self, timeout: Optional[float] = None) -> tuple[Any, "_ReplyChannel"]:
        """Receive ``(request, reply_channel)``; call channel.send(reply)."""
        self._check_open()
        return self._requests.get(timeout=timeout)

    def serve_once(self, handler, timeout: Optional[float] = None) -> bool:
        """Receive one request and reply with ``handler(request)``.

        Returns False if the wait timed out.  Handler exceptions are sent
        to the requester as the reply (and re-raised there).  The answer
        is computed *before* the reply is sent so a failure inside the
        send itself can never trigger a second send on the one-shot
        reply channel.
        """
        try:
            request, channel = self.recv(timeout=timeout)
        except WouldBlock:
            return False
        try:
            reply = handler(request)
        except Exception as exc:  # deliver failures to the caller
            reply = exc
        channel.send(reply)
        return True


class _ReplyChannel:
    """One-shot reply slot handed to REP handlers.

    REQ/REP is lock-step: exactly one reply per request.  A second send
    raises instead of silently overwriting the reply the requester may
    already have observed.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None

    def send(self, value: Any) -> None:
        if self._event.is_set():
            raise MessagingError("reply channel already used")
        self._value = value
        self._event.set()

    def wait(self, timeout: Optional[float]) -> Any:
        if not self._event.wait(timeout=timeout):
            raise WouldBlock("request timed out waiting for reply")
        return self._value


class ReqSocket(Socket):
    """Request side: ``request()`` sends and waits for the reply."""

    def __init__(self, context: Context, timeout: float | None = None) -> None:
        super().__init__(context)
        self.timeout = timeout
        self._server: Optional[RepSocket] = None

    def connect(self, endpoint: str) -> "ReqSocket":
        """Attach to the REP socket bound at *endpoint*."""
        self._check_open()
        server = self.context._lookup(endpoint)
        if not isinstance(server, RepSocket):
            raise MessagingError(f"{endpoint!r} is not a REP endpoint")
        self._server = server
        return self

    def request(self, payload: Any, timeout: Optional[float] = None) -> Any:
        """Send *payload* and block for the reply.

        Raises the reply if the server handler raised an exception,
        :class:`SocketClosed` if the server socket was closed, and
        :class:`WouldBlock` if the server's request queue stays full
        past the timeout (instead of blocking forever against a wedged
        server).
        """
        self._check_open()
        if self._server is None:
            raise MessagingError("REQ socket is not connected")
        if self._server.closed:
            raise SocketClosed("REP server socket is closed")
        effective = timeout if timeout is not None else self.timeout
        channel = _ReplyChannel()
        if not self._server._requests.put((payload, channel), timeout=effective):
            raise WouldBlock("server request queue full (send timed out)")
        reply = channel.wait(effective)
        if isinstance(reply, Exception):
            raise reply
        return reply
