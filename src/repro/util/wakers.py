"""Readiness wakers: the events a work source sets when work arrives.

A woken service worker (``WorkerSpec(wake=...)``) blocks on one
:class:`threading.Event`; every source it consumes — a socket mailbox,
a ChangeLog, a reliable queue — keeps a :class:`Wakers` set and rings
it after each enqueue, so the worker runs as soon as there is work
instead of polling for it.
"""

from __future__ import annotations

import threading


class Wakers:
    """The readiness events one work source sets on every enqueue.

    Registration happens once per consumer object, not per worker
    start, so :meth:`add` ignores an event already present.  The set is
    replaced rather than mutated, so :meth:`ring` — on the enqueue hot
    path — reads it without taking the lock.
    """

    __slots__ = ("_events", "_lock")

    def __init__(self) -> None:
        self._events: tuple[threading.Event, ...] = ()
        self._lock = threading.Lock()

    def add(self, wake: threading.Event) -> None:
        """Set *wake* on every ring from now on."""
        with self._lock:
            if wake not in self._events:
                self._events = (*self._events, wake)

    def remove(self, wake: threading.Event) -> None:
        """Stop setting *wake* (no-op when it is not registered)."""
        with self._lock:
            self._events = tuple(w for w in self._events if w is not wake)

    def ring(self) -> None:
        """Set every registered event that is not already set."""
        for wake in self._events:
            if not wake.is_set():
                wake.set()

    def __len__(self) -> int:
        return len(self._events)
