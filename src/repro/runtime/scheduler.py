"""One scheduler per process: the ready queue every woken step drains from.

Before this module every woken :class:`~repro.runtime.WorkerSpec` owned
a thread that blocked on a :class:`threading.Event`, so one event
crossed a thread handoff per stage (collector → shard pump → consumer →
serverless lambda → agent pump).  Every such step is already a
non-blocking single step (``poll_once``/``pump_once``), so one thread
can run them all:

* **Ringing.**  A work source rings the worker's :class:`Wake`, which
  queues the worker's step once.  A ring while the step is already
  queued is absorbed; a ring while it runs marks it to run again, so no
  ring is lost and N rings during one step cost one re-run.
* **Re-queueing.**  A step that did work goes to the back of the queue
  (it may have left work behind), so a busy collector cannot starve the
  consumers downstream of it.
* **Timers.**  Periodic workers (``interval > 0``) and delayed rings
  (:meth:`Wake.ring_after` — a visibility timeout expiring, a report
  retry) sit on one heap served by the same thread.
* **Budget.**  Every step is timed; one that runs longer than
  :data:`STEP_BUDGET` held up every other step in the process and is
  counted as ``runtime.steps_over_budget`` in its service's registry.

The thread starts when the first service registers and exits once none
is registered, so a process with nothing running has no scheduler
thread.  Workers whose step blocks in the OS (``interval=0``) keep a
thread of their own and never come here.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.service import Service, WorkerSpec

__all__ = ["STEP_BUDGET", "Scheduler", "Wake", "scheduler"]

#: Longest one step may hold the scheduler thread (seconds) before it
#: is counted in ``runtime.steps_over_budget``: a step over it delayed
#: every other ready step in the process by as much.
STEP_BUDGET = 0.05


class Wake:
    """The doorbell of a woken worker.

    Work sources keep it in a :class:`~repro.util.wakers.Wakers` set and
    call :meth:`set` after every enqueue.  While the worker's service
    runs, a ring queues the worker's step on the process scheduler;
    before start and after stop a ring does nothing (the first step
    after a start always runs).  Several workers may share one wake: a
    ring then queues the next of them in turn, unless one is already
    queued or due to run again.
    """

    __slots__ = ("_tasks", "_turn")

    def __init__(self) -> None:
        self._tasks: tuple[_Task, ...] = ()
        self._turn = 0

    def set(self) -> None:
        """Ring: queue the worker's step (once)."""
        tasks = self._tasks
        if len(tasks) == 1:
            tasks[0].ring()
        elif tasks:
            for task in tasks:
                if task.queued or task.rerun:
                    return
            self._turn = turn = (self._turn + 1) % len(tasks)
            tasks[turn].ring()

    def ring_after(self, delay: float) -> None:
        """Ring once *delay* seconds from now (no-op while unbound).

        For readiness that no enqueue reports — a message's visibility
        timeout expiring, a failed report's retry, a rate limit's next
        token.
        """
        if self._tasks:
            scheduler.call_later(delay, self)


class _Task:
    """One registered worker: its step and its place in the queue."""

    __slots__ = (
        "service", "spec", "name", "queued", "running", "rerun", "active",
    )

    def __init__(self, service: "Service", spec: "WorkerSpec") -> None:
        self.service = service
        self.spec = spec
        self.name = f"{service.name}-{spec.name}"
        self.queued = False
        self.running = False
        self.rerun = False
        self.active = True

    def ring(self) -> None:
        # Unlocked fast path: a queued task has not been taken yet, so
        # its step starts after this ring's work was enqueued.
        if not self.queued:
            scheduler._ring(self)


class Scheduler:
    """The process's ready queue, timer heap and the thread serving both."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Signals the scheduler thread: a step was queued or a timer added.
        self._work = threading.Condition(self._lock)
        #: Signals ``release()`` callers: a step finished.
        self._done = threading.Condition(self._lock)
        self._ready: deque[_Task] = deque()
        #: (due, tie-break, _Task | Wake): periodic steps and delayed rings.
        self._timers: list[tuple[float, int, Any]] = []
        self._order = count()
        self._tasks: Dict["Service", List[_Task]] = {}
        self._thread: Optional[threading.Thread] = None

    # -- registration -------------------------------------------------------

    def add(self, service: "Service", spec: "WorkerSpec") -> None:
        """Register one worker of *service*.

        A woken worker's first step is queued at once; a periodic one
        first runs one interval from now.
        """
        task = _Task(service, spec)
        with self._lock:
            self._tasks.setdefault(service, []).append(task)
            if spec.wake is not None:
                spec.wake._tasks = (*spec.wake._tasks, task)
                task.queued = True
                self._ready.append(task)
            else:
                self._push_timer(time.monotonic() + spec.interval, task)
            self._ensure_thread()
            self._work.notify()

    def release(self, service: "Service", timeout: float) -> None:
        """Unregister every worker of *service* and wait (up to
        *timeout*) for a step of it that is running on the scheduler
        thread.  From the scheduler thread itself there is nothing to
        wait for: no other step can be in flight."""
        with self._lock:
            tasks = self._tasks.pop(service, [])
            for task in tasks:
                self._retire(task)
            self._work.notify()  # the thread exits once nothing is left
            if threading.current_thread() is self._thread:
                return
            deadline = time.monotonic() + timeout
            while any(task.running for task in tasks):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._done.wait(remaining)

    def names(self, service: "Service") -> list[str]:
        """Names of the workers *service* has registered."""
        with self._lock:
            return [t.name for t in self._tasks.get(service, ()) if t.active]

    def call_later(self, delay: float, wake: Wake) -> None:
        """Ring *wake* once *delay* seconds from now."""
        with self._lock:
            if self._thread is None:
                return  # nothing registered: no step to ring
            self._push_timer(time.monotonic() + max(delay, 0.0), wake)
            self._work.notify()

    # -- internals (call with the lock held) ----------------------------------

    def _push_timer(self, due: float, item: Any) -> None:
        heapq.heappush(self._timers, (due, next(self._order), item))

    def _retire(self, task: _Task) -> None:
        task.active = False
        wake = task.spec.wake
        if wake is not None:
            wake._tasks = tuple(t for t in wake._tasks if t is not task)

    def _ensure_thread(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._serve, name="scheduler", daemon=True
            )
            self._thread.start()

    def _ring(self, task: _Task) -> None:
        with self._lock:
            if not task.active or task.queued:
                return
            if task.running:
                task.rerun = True
                return
            task.queued = True
            self._ready.append(task)
            self._work.notify()

    # -- the scheduler thread -------------------------------------------------

    def _next(self) -> Optional[_Task]:
        """Wait for the next ready step; None once nothing is registered.

        Due periodic steps join the ready queue; due delayed rings are
        rung outside the lock (ringing takes it).
        """
        while True:
            fire: list[Wake] = []
            with self._lock:
                while not fire:
                    now = time.monotonic()
                    timers = self._timers
                    while timers and timers[0][0] <= now:
                        item = heapq.heappop(timers)[2]
                        if isinstance(item, Wake):
                            fire.append(item)
                        elif item.active:
                            item.queued = True
                            self._ready.append(item)
                    if fire:
                        break
                    while self._ready:
                        task = self._ready.popleft()
                        if task.active:
                            task.queued = False
                            task.running = True
                            return task
                    if not self._tasks:
                        # Every wake is unbound now, so no timer left
                        # can ring anything.
                        self._timers.clear()
                        self._thread = None
                        return None
                    self._work.wait(timers[0][0] - now if timers else None)
            for wake in fire:
                wake.set()

    def _serve(self) -> None:
        while True:
            task = self._next()
            if task is None:
                return
            self._run(task)

    def _run(self, task: _Task) -> None:
        service = task.service
        crashed = False
        work: Any = None
        started = time.perf_counter()
        try:
            work = task.spec.step()
        except BaseException as exc:
            crashed = True
            service._crash(task.spec, exc)
        elapsed = time.perf_counter() - started
        if elapsed > STEP_BUDGET:
            service._steps_over_budget.inc()
        idle = False
        with self._lock:
            task.running = False
            if crashed:
                self._retire(task)
            elif task.active:
                interval = task.spec.interval
                if interval is not None:
                    self._push_timer(time.monotonic() + interval, task)
                else:
                    idle = not work
                    if work or task.rerun:
                        task.rerun = False
                        task.queued = True
                        self._ready.append(task)
            self._done.notify_all()
        if idle:
            service._idle_wakeups.inc()


#: The process's scheduler: one per process by design, since its point
#: is that every service in the process shares one thread.
scheduler = Scheduler()

