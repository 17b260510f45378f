"""The Supervisor: composes services into a restartable tree.

Robinhood's policy engine and FSMonitor both treat supervised,
restartable pipeline stages with uniform health as the prerequisite for
production scale.  A :class:`Supervisor` owns an ordered set of child
services and provides:

* **dependency-ordered start** — children declare which siblings they
  must start after (``add_child(svc, after=[...])``); start order is a
  stable topological sort, stop order is its exact reverse, so a
  pipeline stops producers before the stages that drain them;
* **crash detection and restart** — a child's crash rings the
  supervisor's woken supervise step, which restarts children in the
  ``CRASHED`` state under a :class:`RestartPolicy` (exponential
  backoff, bounded attempts; a pending backoff rings the step again
  when it expires), so a
  collector that dies mid-poll is restarted instead of silently wedging
  the pipeline.  Report-before-purge semantics in the stages make such
  restarts at-least-once: nothing acknowledged is lost;
* **aggregate health/stats** — one call reports every child's uniform
  ``running/stopped/crashed/restart_count`` record plus its counters.

The supervisor is itself a :class:`~repro.runtime.Service`, so
supervision trees nest: a facility monitor can supervise per-filesystem
monitors which each supervise their collectors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.metrics.registry import MetricsRegistry
from repro.runtime.scheduler import Wake
from repro.runtime.service import Service, ServiceState, WorkerSpec
from repro.util.logging import get_logger


@dataclass(frozen=True)
class RestartPolicy:
    """How crashed children are brought back.

    max_restarts:
        Total restart attempts per child before the supervisor gives up
        and leaves it ``crashed`` (visible in health output).
    backoff_base / backoff_multiplier / backoff_max:
        The n-th restart of a child waits
        ``min(backoff_base * backoff_multiplier**n, backoff_max)``
        seconds after the crash is observed.
    """

    max_restarts: int = 5
    backoff_base: float = 0.02
    backoff_multiplier: float = 2.0
    backoff_max: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before restart number *attempt* (0-based)."""
        return min(
            self.backoff_base * self.backoff_multiplier ** attempt,
            self.backoff_max,
        )


@dataclass
class _ChildRecord:
    service: Service
    after: List[str] = field(default_factory=list)
    attempts: int = 0
    next_attempt_at: Optional[float] = None
    gave_up: bool = False


class Supervisor(Service):
    """A service that runs, watches and restarts child services."""

    def __init__(
        self,
        name: str = "supervisor",
        policy: Optional[RestartPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(name, registry)
        self.policy = policy or RestartPolicy()
        #: Rung by every child's crash and by expiring restart backoffs.
        self._wake = Wake()
        self._children: Dict[str, _ChildRecord] = {}
        self._log = get_logger(f"runtime.supervisor.{name}")

    # -- composition --------------------------------------------------------

    def add_child(
        self,
        service: Service,
        after: Optional[Sequence[str]] = None,
        before: Optional[Sequence[str]] = None,
        key: Optional[str] = None,
    ) -> str:
        """Register *service* with ordering constraints.

        It starts after every sibling named in *after* and before every
        sibling named in *before* (both must already be registered);
        stop order is the exact reverse.  ``before`` is how a consumer
        added to a running pipeline still gets stopped *after* the
        stage that feeds it.  Returns the key the child is registered
        under (the service name, uniquified on collision).  Children
        added while the supervisor is running are started immediately.
        """
        deps = list(after or [])
        successors = list(before or [])
        for dep in deps + successors:
            if dep not in self._children:
                raise ValueError(
                    f"unknown dependency {dep!r} for child {service.name!r}"
                )
        child_key = key or service.name
        if child_key in self._children:
            suffix = 2
            while f"{child_key}#{suffix}" in self._children:
                suffix += 1
            child_key = f"{child_key}#{suffix}"
        self._children[child_key] = _ChildRecord(service, deps)
        service._crash_wake = self._wake
        for successor in successors:
            self._children[successor].after.append(child_key)
        if self.running:
            service.start()
        return child_key

    def child(self, key: str) -> Service:
        """Look up a child service by its registration key."""
        return self._children[key].service

    def children(self) -> List[Service]:
        """Children in start (dependency) order."""
        return [self._children[key].service for key in self._start_order()]

    def _start_order(self) -> List[str]:
        """Stable topological order: dependencies first, insertion order
        among unconstrained children."""
        keys = list(self._children)
        indegree = {key: 0 for key in keys}
        dependents: Dict[str, List[str]] = {key: [] for key in keys}
        for key, record in self._children.items():
            for dep in record.after:
                indegree[key] += 1
                dependents[dep].append(key)
        ready = [key for key in keys if indegree[key] == 0]
        order: List[str] = []
        while ready:
            key = ready.pop(0)
            order.append(key)
            for dependent in dependents[key]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(keys):
            cyclic = sorted(set(keys) - set(order))
            raise ValueError(f"dependency cycle among children: {cyclic}")
        # Re-impose insertion order among simultaneously-ready children.
        rank = {key: index for index, key in enumerate(keys)}
        return sorted(
            order,
            key=lambda k: (
                max(
                    (order.index(d) for d in self._children[k].after),
                    default=-1,
                ),
                rank[k],
            ),
        )

    # -- lifecycle ----------------------------------------------------------

    def worker_specs(self) -> list[WorkerSpec]:
        return [WorkerSpec("supervise", self.supervise_once, wake=self._wake)]

    def on_start(self) -> None:
        for key in self._start_order():
            self._children[key].service.start()

    def on_stop(self) -> None:
        for key in reversed(self._start_order()):
            self._children[key].service.stop()

    def on_close(self) -> None:
        for key in reversed(self._start_order()):
            self._children[key].service.close()

    # -- supervision --------------------------------------------------------

    def supervise_once(self, now: Optional[float] = None) -> int:
        """One supervision sweep; returns the number of restarts issued.

        Run by the woken supervise worker in live mode, which a child's
        crash rings; a restart still waiting out its backoff rings it
        again when the backoff expires.  Deterministic tests call it
        directly (optionally with a fake *now* to step through backoff
        windows).
        """
        now = time.monotonic() if now is None else now
        restarted = 0
        for key, record in list(self._children.items()):
            service = record.service
            if service.state is not ServiceState.CRASHED or record.gave_up:
                continue
            if record.next_attempt_at is None:
                if record.attempts >= self.policy.max_restarts:
                    record.gave_up = True
                    self.metrics.counter("children_given_up").inc()
                    self._log.warning(
                        "child %s crashed %d times; giving up (%s)",
                        key, record.attempts, service.last_error,
                    )
                    continue
                record.next_attempt_at = now + self.policy.delay(record.attempts)
            if now < record.next_attempt_at:
                self._wake.ring_after(record.next_attempt_at - now)
                continue
            record.next_attempt_at = None
            record.attempts += 1
            self._log.info(
                "restarting crashed child %s (attempt %d/%d)",
                key, record.attempts, self.policy.max_restarts,
            )
            service.stop()
            service.restart_count += 1
            service.start()
            self.metrics.counter("restarts").inc()
            restarted += 1
        return restarted

    # -- aggregate health ---------------------------------------------------

    def health(self) -> Dict[str, Any]:
        record = super().health()
        record["services"] = {
            key: child.service.health() for key, child in self._children.items()
        }
        return record

    def stats(self) -> Dict[str, Any]:
        return {
            **super().health(),
            **self.metrics.snapshot(),
            "services": {
                key: child.service.stats()
                for key, child in self._children.items()
            },
        }
