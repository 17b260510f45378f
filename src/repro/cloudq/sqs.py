"""An SQS-style reliable queue: at-least-once, visibility timeouts, DLQ."""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.errors import QueueNotFound, ReceiptInvalid
from repro.util.clock import Clock, WallClock
from repro.util.wakers import Wakers


@dataclass
class Message:
    """A queued message with delivery bookkeeping."""

    message_id: str
    body: Any
    enqueued_at: float
    receive_count: int = 0
    #: When the message becomes visible again (0 = visible now).
    visible_at: float = 0.0
    #: Receipt handle of the in-flight delivery (None when visible).
    receipt: Optional[str] = None
    #: When the in-flight delivery was handed out.
    received_at: float = 0.0


class ReliableQueue:
    """At-least-once queue with visibility timeouts.

    ``receive()`` hides the message for *visibility_timeout* seconds and
    hands back a receipt handle; ``delete(receipt)`` acknowledges it.
    Un-deleted messages reappear — the property that makes Ripple's
    event processing lossless in the face of worker crashes.

    With *max_receives* set, messages that have been received that many
    times without deletion move to the *dead_letter* queue instead of
    reappearing (the standard SQS redrive policy).

    Registered :attr:`wakers` are rung whenever a message becomes
    receivable through a send or a re-drive, so consumers block instead
    of polling.  A visibility timeout expiring is rung by a timer: one
    delayed ring (:meth:`~repro.util.wakers.Wakers.ring_after`) is
    pending at a time, due at the earliest in-flight expiry, and the
    receive that follows it arms the next.
    """

    def __init__(
        self,
        name: str,
        visibility_timeout: float = 30.0,
        clock: Clock | None = None,
        max_receives: Optional[int] = None,
        dead_letter: Optional["ReliableQueue"] = None,
    ) -> None:
        if max_receives is not None and max_receives < 1:
            raise ValueError(f"max_receives must be >= 1: {max_receives}")
        self.name = name
        self.visibility_timeout = visibility_timeout
        self.clock = clock or WallClock()
        self.max_receives = max_receives
        self.dead_letter = dead_letter
        self._lock = threading.Lock()
        self._messages: Dict[str, Message] = {}
        self._order: list[str] = []  # FIFO-ish ordering of message ids
        self._receipts: Dict[str, str] = {}  # receipt -> message id
        # Counters.
        self.total_sent = 0
        self.total_deleted = 0
        self.total_dead_lettered = 0
        self.total_receives = 0
        #: Wakes rung whenever a message becomes receivable.
        self.wakers = Wakers()
        #: Clock time the pending visibility ring is due (None: none).
        self._ring_due: Optional[float] = None

    # -- producer ------------------------------------------------------------

    def send(self, body: Any) -> str:
        """Enqueue *body*; returns the message id."""
        with self._lock:
            message_id = uuid.uuid4().hex
            self._messages[message_id] = Message(
                message_id=message_id,
                body=body,
                enqueued_at=self.clock.now(),
            )
            self._order.append(message_id)
            self.total_sent += 1
        self.wakers.ring()
        return message_id

    # -- consumer -----------------------------------------------------------

    def receive(
        self, max_messages: int = 1, visibility_timeout: Optional[float] = None
    ) -> list[Message]:
        """Receive up to *max_messages* visible messages.

        Each returned message is hidden until its visibility timeout
        expires and carries a fresh receipt handle in ``receipt``.
        """
        if max_messages < 1:
            raise ValueError(f"max_messages must be >= 1: {max_messages}")
        timeout = (
            visibility_timeout
            if visibility_timeout is not None
            else self.visibility_timeout
        )
        now = self.clock.now()
        received: list[Message] = []
        with self._lock:
            for message_id in list(self._order):
                if len(received) >= max_messages:
                    break
                message = self._messages.get(message_id)
                if message is None or message.visible_at > now:
                    continue
                # Redrive policy: too many receives -> dead letter.
                if (
                    self.max_receives is not None
                    and message.receive_count >= self.max_receives
                ):
                    self._drop(message_id)
                    self.total_dead_lettered += 1
                    if self.dead_letter is not None:
                        self.dead_letter.send(message.body)
                    continue
                message.receive_count += 1
                message.visible_at = now + timeout
                message.received_at = now
                receipt = uuid.uuid4().hex
                if message.receipt is not None:
                    self._receipts.pop(message.receipt, None)
                message.receipt = receipt
                self._receipts[receipt] = message_id
                self.total_receives += 1
                # Hand back a snapshot: later redeliveries must not
                # mutate the receipt the current holder is using.
                received.append(replace(message))
            delay = self._arm_ring(now, now + timeout if received else None)
        if delay is not None:
            self.wakers.ring_after(delay)
        return received

    def _arm_ring(self, now: float, deadline: Optional[float]) -> Optional[float]:
        """The delay of a visibility ring to arm, or None (lock held).

        A pending ring covers every in-flight deadline at or after its
        own; only an earlier *deadline* needs a new one.  With none
        pending — or the pending one past, i.e. this is the receive it
        woke — the next is armed for the earliest in-flight expiry.
        """
        due = self._ring_due
        if due is not None and now < due:
            if deadline is None or deadline >= due:
                return None
            self._ring_due = deadline
            return deadline - now
        self._ring_due = min(
            (
                message.visible_at
                for message in self._messages.values()
                if message.receipt is not None and message.visible_at > now
            ),
            default=None,
        )
        return None if self._ring_due is None else self._ring_due - now

    def delete(self, receipt: str) -> None:
        """Acknowledge (permanently remove) the delivery for *receipt*.

        Raises :class:`~repro.errors.ReceiptInvalid` if the receipt is
        unknown or superseded — e.g. the message timed out and was
        redelivered to someone else, the fundamental at-least-once race.
        """
        with self._lock:
            message_id = self._receipts.pop(receipt, None)
            if message_id is None:
                raise ReceiptInvalid(f"unknown or expired receipt {receipt[:8]}...")
            message = self._messages.get(message_id)
            if message is None or message.receipt != receipt:
                raise ReceiptInvalid(f"superseded receipt {receipt[:8]}...")
            self._drop(message_id)
            self.total_deleted += 1

    def change_visibility(self, receipt: str, timeout: float) -> None:
        """Extend/shrink the in-flight message's invisibility window."""
        with self._lock:
            message_id = self._receipts.get(receipt)
            if message_id is None:
                raise ReceiptInvalid(f"unknown receipt {receipt[:8]}...")
            message = self._messages[message_id]
            now = self.clock.now()
            message.visible_at = now + timeout
            delay = self._arm_ring(now, message.visible_at)
        if timeout <= 0:
            self.wakers.ring()
        elif delay is not None:
            self.wakers.ring_after(delay)

    def redrive_stuck(self, older_than: float) -> int:
        """Make in-flight messages invisible for > *older_than* visible now.

        This is the primitive Ripple's cleanup function uses: rather than
        waiting the full visibility timeout, a sweeper can immediately
        re-drive messages whose processing has clearly stalled.  Returns
        the number of messages re-driven.
        """
        now = self.clock.now()
        redriven = 0
        with self._lock:
            for message in self._messages.values():
                in_flight = message.visible_at > now and message.receipt is not None
                if in_flight and now - message.received_at >= older_than:
                    message.visible_at = now
                    self._receipts.pop(message.receipt, None)
                    message.receipt = None
                    redriven += 1
        if redriven:
            self.wakers.ring()
        return redriven

    def _drop(self, message_id: str) -> None:
        message = self._messages.pop(message_id, None)
        if message and message.receipt:
            self._receipts.pop(message.receipt, None)
        try:
            self._order.remove(message_id)
        except ValueError:
            pass

    # -- introspection -----------------------------------------------------

    @property
    def approximate_depth(self) -> int:
        """Messages currently stored (visible + in flight)."""
        with self._lock:
            return len(self._messages)

    @property
    def visible_depth(self) -> int:
        """Messages deliverable right now."""
        now = self.clock.now()
        with self._lock:
            return sum(1 for m in self._messages.values() if m.visible_at <= now)

    @property
    def in_flight(self) -> int:
        """Messages currently hidden by a visibility timeout."""
        return self.approximate_depth - self.visible_depth


class QueueService:
    """A named registry of queues (the 'SQS account')."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or WallClock()
        self._lock = threading.Lock()
        self._queues: Dict[str, ReliableQueue] = {}

    def create_queue(
        self,
        name: str,
        visibility_timeout: float = 30.0,
        max_receives: Optional[int] = None,
        with_dead_letter: bool = False,
    ) -> ReliableQueue:
        """Create (or return the existing) queue called *name*."""
        with self._lock:
            existing = self._queues.get(name)
            if existing is not None:
                return existing
            dead_letter = None
            if with_dead_letter:
                dead_letter = ReliableQueue(
                    f"{name}-dlq", visibility_timeout, clock=self.clock
                )
                self._queues[f"{name}-dlq"] = dead_letter
            queue = ReliableQueue(
                name,
                visibility_timeout,
                clock=self.clock,
                max_receives=max_receives,
                dead_letter=dead_letter,
            )
            self._queues[name] = queue
            return queue

    def queue(self, name: str) -> ReliableQueue:
        """Look up an existing queue."""
        with self._lock:
            queue = self._queues.get(name)
            if queue is None:
                raise QueueNotFound(f"no queue named {name!r}")
            return queue

    def list_queues(self) -> list[str]:
        with self._lock:
            return sorted(self._queues)
