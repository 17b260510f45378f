"""The Service base class: one lifecycle for every pipeline component.

The monitor is a tree of long-running cooperating services — per-MDS
Collectors, the Aggregator shards, Consumers, watchdog observers,
serverless workers, Ripple agents.  :class:`Service` gives all of them
one lifecycle:

* **Idempotent lifecycle** — ``start()`` twice is a no-op, ``stop()``
  waits for the workers and runs the flush hook, ``close()`` after
  ``stop()`` is safe and releases resources exactly once.
* **Named workers, woken or periodic** — a worker repeatedly calls a
  step function.  A *woken* worker (``wake=...``) has a
  :class:`~repro.runtime.scheduler.Wake` that its readiness sources
  ring: a socket mailbox on every delivery (aggregator pump and API,
  consumer subscriptions, the process bridge), a ChangeLog on every
  append (collectors), a reliable queue on every send (serverless
  executors), an agent's action inbox.  A ring queues the step on the
  process's one scheduler thread (:mod:`repro.runtime.scheduler`),
  which runs it again at once while it keeps finding work.  A
  *periodic* worker (``interval > 0``) steps once per interval off the
  same thread's timer heap (sweepers, samplers).  Only a worker whose
  step blocks in the OS — on its own socket or pipe, with a timeout —
  runs back to back on a thread of its own (``interval=0``).
* **Crash detection** — an exception escaping a step marks the service
  ``CRASHED``, records the error and rings the supervisor's wake (if a
  :class:`~repro.runtime.Supervisor` adopted the service), which
  applies its restart policy.
* **Uniform stats/health** — every service registers its counters in a
  shared :class:`~repro.metrics.MetricsRegistry` scope and answers
  :meth:`stats`/:meth:`health` the same way.

Deterministic single-stepping is untouched: services keep their
``poll_once``/``pump_once`` methods and tests drive them directly; the
workers are only the live-mode driver around those same steps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Optional, Union

from repro.errors import ReproError
from repro.metrics.registry import MetricsRegistry, ScopedRegistry
from repro.runtime.scheduler import Wake, scheduler
from repro.util.logging import get_logger


class ServiceCrash(ReproError):
    """An error that must crash the worker instead of being absorbed.

    Stage-level retry logic (e.g. a collector's report-failure path)
    swallows ordinary exceptions; raising :class:`ServiceCrash` — or
    letting any exception escape a worker step — escalates to the
    supervisor, which restarts the service under its policy.
    """


class ServiceState(str, Enum):
    """Lifecycle states a service moves through."""

    NEW = "new"
    RUNNING = "running"
    STOPPED = "stopped"
    CRASHED = "crashed"


@dataclass
class WorkerSpec:
    """One named worker of a service.

    step:
        Called repeatedly while the service runs.  Its return value is
        the amount of work done; falsy means idle.  An escaping
        exception crashes the service.
    wake:
        Makes the worker *woken*: every ring of the wake queues one
        step, and a step that did work is queued again.  Whatever feeds
        the step's work must ring it — a ring made while the step runs
        is kept, so the step runs once more.  Readiness that no enqueue
        reports (a timeout expiring) rings it through
        :meth:`~repro.runtime.scheduler.Wake.ring_after`.
    interval:
        Makes the worker *periodic*: it steps every *interval* seconds,
        the first time one interval after start, ignoring the step's
        return value.  ``interval=0`` is for a step that blocks on its
        own socket or pipe with a timeout: it runs back to back on a
        thread of its own.

    Exactly one of *wake* and *interval* must be given.
    """

    name: str
    step: Callable[[], Any]
    wake: Optional[Wake] = None
    interval: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.wake is None) == (self.interval is None):
            raise ValueError(
                f"worker {self.name!r} needs exactly one of wake= "
                "(woken) or interval= (periodic)"
            )
        if self.wake is not None and not isinstance(self.wake, Wake):
            raise TypeError(
                f"worker {self.name!r}: wake= takes a repro.runtime.Wake, "
                f"not {type(self.wake).__name__}"
            )

    @property
    def blocking(self) -> bool:
        """True for a worker that keeps a thread of its own."""
        return self.interval is not None and self.interval <= 0


class Service:
    """Base class for supervised, observable, long-running components."""

    def __init__(
        self,
        name: str,
        registry: Optional[MetricsRegistry] = None,
        scope: Optional[str] = None,
    ) -> None:
        self.name = name
        registry = registry or MetricsRegistry()
        #: Unique metrics scope within the shared registry.
        self.metrics: ScopedRegistry = registry.scoped(
            registry.unique_scope(scope or name)
        )
        self._service_log = get_logger(f"runtime.{name}")
        self._lifecycle_lock = threading.RLock()
        self._halt = threading.Event()
        #: Threads of the workers that block in the OS (``interval=0``).
        self._worker_threads: list[threading.Thread] = []
        self._state = ServiceState.NEW
        self._closed = False
        #: Times this service was restarted by a supervisor.
        self.restart_count = 0
        #: The exception that crashed the service (if any).
        self.last_error: Optional[BaseException] = None
        #: Rung on every crash: the adopting supervisor's wake.
        self._crash_wake: Optional[Wake] = None
        #: Woken steps that found no work: the re-check after every
        #: step that did work, and rings whose work an earlier step
        #: took first.
        self._idle_wakeups = self.metrics.counter("idle_wakeups")
        #: Steps of this registry's services that held the scheduler
        #: thread longer than ``STEP_BUDGET`` (registry-wide).
        self._steps_over_budget = registry.counter("runtime.steps_over_budget")

    # -- subclass hooks -----------------------------------------------------

    def worker_specs(self) -> list[WorkerSpec]:
        """The worker loops to run in live mode (override)."""
        return []

    def on_start(self) -> None:
        """Hook before the workers start."""

    def on_halt(self) -> None:
        """Hook right after stop raises the halt flag, before the
        workers are waited for: wake a worker that waits on something
        else."""

    def on_stop(self) -> None:
        """Flush hook after the workers have stopped."""

    def on_close(self) -> None:
        """Release-resources hook; runs exactly once."""

    # -- state --------------------------------------------------------------

    @property
    def state(self) -> ServiceState:
        return self._state

    @property
    def running(self) -> bool:
        return self._state is ServiceState.RUNNING

    @property
    def crashed(self) -> bool:
        return self._state is ServiceState.CRASHED

    def health(self) -> Dict[str, Any]:
        """The uniform per-service health record."""
        return {
            "state": self._state.value,
            "restart_count": self.restart_count,
            "workers": [
                *scheduler.names(self),
                *(t.name for t in self._worker_threads if t.is_alive()),
            ],
            "last_error": repr(self.last_error) if self.last_error else None,
        }

    def stats(self) -> Dict[str, Union[int, float, str, Any]]:
        """Health plus every metric registered in this service's scope."""
        return {**self.health(), **self.metrics.snapshot()}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start every worker (idempotent)."""
        with self._lifecycle_lock:
            if self._state is ServiceState.RUNNING:
                return
            if self._closed:
                raise ServiceCrash(f"service {self.name!r} is closed")
            self._halt.clear()
            self.last_error = None
            self._worker_threads = []
            self._state = ServiceState.RUNNING
            self.on_start()
            for spec in self.worker_specs():
                if not spec.blocking:
                    self._run_worker(spec)
                    continue
                thread = threading.Thread(
                    target=self._run_worker,
                    args=(spec,),
                    name=f"{self.name}-{spec.name}",
                    daemon=True,
                )
                thread.start()
                self._worker_threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the workers, wait for them, and flush (idempotent).

        A step of this service running on the scheduler thread is
        waited for; called from a step (a supervisor restarting a
        child), there is none in flight to wait for.
        """
        with self._lifecycle_lock:
            if self._state not in (ServiceState.RUNNING, ServiceState.CRASHED):
                return
            self._halt.set()
            self.on_halt()
            scheduler.release(self, timeout)
            current = threading.current_thread()
            for thread in self._worker_threads:
                if thread is not current:
                    thread.join(timeout=timeout)
            self._worker_threads = []
            try:
                # Best-effort flush: a still-failing downstream must not
                # prevent the stop (or a supervisor restart) itself.
                self.on_stop()
            except Exception as exc:
                self.last_error = exc
                self._service_log.warning(
                    "flush on stop failed: %s: %s", type(exc).__name__, exc
                )
            finally:
                self._state = ServiceState.STOPPED

    def close(self) -> None:
        """Stop and release resources; safe after ``stop()`` and twice."""
        with self._lifecycle_lock:
            self.stop()
            if not self._closed:
                self._closed = True
                self.on_close()

    # -- workers ------------------------------------------------------------

    def _run_worker(self, spec: WorkerSpec) -> None:
        """Run one worker: a woken or periodic one is registered with
        the process scheduler (and this returns); a blocking one loops
        on the calling thread until stop."""
        if not spec.blocking:
            scheduler.add(self, spec)
            return
        try:
            while not self._halt.is_set():
                spec.step()
        except BaseException as exc:
            self._crash(spec, exc)

    def _crash(self, spec: WorkerSpec, exc: BaseException) -> None:
        """Mark the service crashed by *exc* escaping *spec*'s step."""
        self.last_error = exc
        self._state = ServiceState.CRASHED
        self.metrics.counter("crashes").inc()
        self._service_log.warning(
            "worker %s crashed: %s: %s", spec.name, type(exc).__name__, exc
        )
        if self._crash_wake is not None:
            self._crash_wake.set()
