"""Readiness wakers: the doorbells a work source rings when work arrives.

A woken service worker (``WorkerSpec(wake=...)``) has one wake — a
:class:`repro.runtime.Wake` — and every source it consumes (a socket
mailbox, a ChangeLog, a reliable queue) keeps a :class:`Wakers` set and
rings it after each enqueue, so the worker's step is queued as soon as
there is work instead of polling for it.  Any object with ``set()`` (and
``ring_after(delay)`` for :meth:`Wakers.ring_after`) can be registered.
"""

from __future__ import annotations

import threading
from typing import Any


class Wakers:
    """The wakes one work source rings on every enqueue.

    Registration happens once per consumer object, not per worker
    start, so :meth:`add` ignores a wake already present.  The set is
    replaced rather than mutated, so :meth:`ring` — on the enqueue hot
    path — reads it without taking the lock.
    """

    __slots__ = ("_events", "_lock")

    def __init__(self) -> None:
        self._events: tuple[Any, ...] = ()
        self._lock = threading.Lock()

    def add(self, wake: Any) -> None:
        """Ring *wake* on every ring from now on."""
        with self._lock:
            if wake not in self._events:
                self._events = (*self._events, wake)

    def remove(self, wake: Any) -> None:
        """Stop ringing *wake* (no-op when it is not registered)."""
        with self._lock:
            self._events = tuple(w for w in self._events if w is not wake)

    def ring(self) -> None:
        """Ring every registered wake."""
        for wake in self._events:
            wake.set()

    def ring_after(self, delay: float) -> None:
        """Ring every registered wake once *delay* seconds from now —
        for readiness no enqueue reports, such as a timeout expiring."""
        for wake in self._events:
            wake.ring_after(delay)

    def __len__(self) -> int:
        return len(self._events)
