"""Unified service runtime: lifecycle, supervision, stats protocol.

Every long-running pipeline component — Collectors, the Aggregator,
Consumers, watchdog Observers, serverless workers, Ripple agents —
runs on this runtime instead of hand-rolled daemon-thread loops:

* :class:`Service` — idempotent ``start()/stop()/close()``, named
  workers (woken by their readiness source, or periodic), crash
  detection, and the uniform ``stats()``/``health()`` protocol over a
  shared :class:`~repro.metrics.MetricsRegistry`.
* :class:`Wake` — a woken worker's doorbell; ringing it queues the
  worker's step on the process's one scheduler thread
  (:mod:`repro.runtime.scheduler`).
* :class:`Supervisor` — dependency-ordered start / reverse-order stop
  of child services, plus crash restart under a :class:`RestartPolicy`.
"""

from repro.runtime.service import (
    Service,
    ServiceCrash,
    ServiceState,
    WorkerSpec,
)
from repro.runtime.scheduler import Wake
from repro.runtime.supervisor import RestartPolicy, Supervisor

__all__ = [
    "Service",
    "ServiceCrash",
    "ServiceState",
    "WorkerSpec",
    "Wake",
    "RestartPolicy",
    "Supervisor",
]
