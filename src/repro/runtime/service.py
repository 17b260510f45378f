"""The Service base class: one lifecycle for every pipeline component.

The monitor is a tree of long-running cooperating services — per-MDS
Collectors, the multi-threaded Aggregator, Consumers, watchdog
observers, serverless workers, Ripple agents.  Before this module each
of them re-implemented the same ad-hoc lifecycle (daemon thread +
``threading.Event`` + busy poll + manual join).  :class:`Service`
factors that out:

* **Idempotent lifecycle** — ``start()`` twice is a no-op, ``stop()``
  joins workers and runs the flush hook, ``close()`` after ``stop()``
  is safe and releases resources exactly once.
* **Named worker loops, woken or periodic** — a worker repeatedly
  calls a step function in one of two modes.  A *woken* worker
  (``wake=...``) owns a :class:`threading.Event` that its readiness
  source rings: it clears the wake, runs the step, and when the step
  found no work blocks on the wake (``max_idle_wait`` is only a
  safety-net re-check, not a poll period).  The ringers are the
  sources themselves — a socket mailbox on every delivery (aggregator
  pump and API, consumer subscriptions, the process bridge), a
  ChangeLog on every append (collectors), a reliable queue on every
  send (serverless executors), an agent's action inbox.  A *periodic*
  worker (``interval=...``) waits a fixed period before every step
  (sweepers, samplers); ``interval=0`` suits a step that blocks on its
  own socket or pipe with a timeout.
* **Crash detection** — an exception escaping a step marks the service
  ``CRASHED`` and records the error; a :class:`~repro.runtime.Supervisor`
  notices and applies its restart policy.
* **Uniform stats/health** — every service registers its counters in a
  shared :class:`~repro.metrics.MetricsRegistry` scope and answers
  :meth:`stats`/:meth:`health` the same way.

Deterministic single-stepping is untouched: services keep their
``poll_once``/``pump_once`` methods and tests drive them directly; the
worker loops are only the live-mode driver around those same steps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Optional, Union

from repro.errors import ReproError
from repro.metrics.registry import MetricsRegistry, ScopedRegistry
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
    """One named worker loop of a service.

    step:
        Called repeatedly while the service runs.  Its return value is
        the amount of work done; falsy means idle.  An escaping
        exception crashes the service.
    wake:
        Makes the worker *woken*: the event is cleared before every
        step, and after an idle step the worker blocks until something
        sets it.  Whatever feeds the step's work must set it — a ring
        made while the step runs is kept, so the next step follows at
        once.  ``stop()`` sets it too.
    max_idle_wait:
        Longest a woken worker blocks without a ring before re-running
        its step — a safety net for readiness that no ringer reports
        (e.g. a visibility timeout expiring), not a poll period.
    interval:
        Makes the worker *periodic*: it waits *interval* seconds
        (interruptible by stop) before every step, ignoring the step's
        return value.

    Exactly one of *wake* and *interval* must be given.
    """

    name: str
    step: Callable[[], Any]
    wake: Optional[threading.Event] = None
    max_idle_wait: float = 0.05
    interval: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.wake is None) == (self.interval is None):
            raise ValueError(
                f"worker {self.name!r} needs exactly one of wake= "
                "(woken) or interval= (periodic)"
            )


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
        self._worker_threads: list[threading.Thread] = []
        self._worker_wakes: list[threading.Event] = []
        self._state = ServiceState.NEW
        self._closed = False
        #: Times this service was restarted by a supervisor.
        self.restart_count = 0
        #: The exception that crashed the service (if any).
        self.last_error: Optional[BaseException] = None
        #: Woken steps that found no work: the re-check after every
        #: step that did work, safety-net re-checks, and rings whose
        #: work another worker took first.
        self._idle_wakeups = self.metrics.counter("idle_wakeups")

    # -- subclass hooks -----------------------------------------------------

    def worker_specs(self) -> list[WorkerSpec]:
        """The worker loops to run in live mode (override)."""
        return []

    def on_start(self) -> None:
        """Hook before worker threads launch."""

    def on_stop(self) -> None:
        """Flush hook after worker threads have joined."""

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
            "workers": [t.name for t in self._worker_threads if t.is_alive()],
            "last_error": repr(self.last_error) if self.last_error else None,
        }

    def stats(self) -> Dict[str, Union[int, float, str, Any]]:
        """Health plus every metric registered in this service's scope."""
        return {**self.health(), **self.metrics.snapshot()}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start every worker loop (idempotent)."""
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
            specs = self.worker_specs()
            self._worker_wakes = [s.wake for s in specs if s.wake is not None]
            for spec in specs:
                thread = threading.Thread(
                    target=self._run_worker,
                    args=(spec,),
                    name=f"{self.name}-{spec.name}",
                    daemon=True,
                )
                thread.start()
                self._worker_threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop worker loops, join them, and flush (idempotent)."""
        with self._lifecycle_lock:
            if self._state not in (ServiceState.RUNNING, ServiceState.CRASHED):
                return
            self._halt.set()
            for wake in self._worker_wakes:
                wake.set()
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

    # -- worker loop --------------------------------------------------------

    def _run_worker(self, spec: WorkerSpec) -> None:
        try:
            if spec.interval is not None:
                while not self._halt.wait(spec.interval):
                    spec.step()
                return
            wake = spec.wake
            while not self._halt.is_set():
                wake.clear()
                if not spec.step():
                    self._idle_wakeups.inc()
                    wake.wait(spec.max_idle_wait)
        except BaseException as exc:
            self.last_error = exc
            self._state = ServiceState.CRASHED
            self.metrics.counter("crashes").inc()
            self._service_log.warning(
                "worker %s crashed: %s: %s", spec.name, type(exc).__name__, exc
            )


def call_with_pump(
    call: Callable[[], Any],
    pump: Callable[[], Any],
    join_interval: float = 0.001,
) -> Any:
    """Run *call* in a helper thread while *pump* serves it inline.

    The deterministic REQ/REP pattern: a client issues a blocking
    request from a helper thread while the caller pumps the server's
    ``serve_*_once`` loop until the reply lands.  Exceptions from *call*
    propagate to the caller.
    """
    box: list[Any] = []
    error: list[BaseException] = []

    def _ask() -> None:
        try:
            box.append(call())
        except BaseException as exc:  # re-raised below
            error.append(exc)

    asker = threading.Thread(target=_ask, name="call-with-pump", daemon=True)
    asker.start()
    while asker.is_alive():
        pump()
        asker.join(timeout=join_interval)
    if error:
        raise error[0]
    return box[0]
