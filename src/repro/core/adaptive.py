"""Adaptive flush control: tune batching from the pipeline's own signals.

Every stage has a latency histogram (``pipeline.aggregate``,
``pipeline.publish``) and every socket an observable occupancy (queue
depth against its high-water mark).  This module
closes the loop: an :class:`AdaptiveFlushController` periodically reads
those signals and retunes each shard's **flush batch size** — the
``batch_events`` ceiling on one published :class:`EventBatch`:

* **Inbound pressure** (occupancy above ``pressure_ratio``) means the
  shard is falling behind: grow the batch ceiling so each pump
  amortises fabric work over more events.
* **Pressure gone but publish latency high** (occupancy under
  ``relax_ratio`` while the ``publish`` stage p95 exceeds
  ``target_publish_p95``) means batches are oversized for the load:
  shrink the ceiling back toward the configured baseline so subscriber
  latency recovers.

Targets are duck-typed: anything exposing ``occupancy() -> (depth,
capacity)`` and a writable ``flush_batch_events`` qualifies — the
in-process :class:`~repro.core.aggregator.Aggregator` and the multiproc
:class:`~repro.msgq.multiproc.ProcessShardBridge` (which relays the
knob to its child over a ``tune`` frame) both do.  Growth is bounded by
``max_batch_events`` and shrink by ``min_batch_events``; a target whose
configured ceiling is 0 (unbounded) is treated as ``max_batch_events``
so growth is a no-op and shrink still engages.

Run it as a periodic service (``controller.start()``) or drive
:meth:`AdaptiveFlushController.tick` deterministically from a cluster
pump — the cluster monitor does the latter when ``autotune`` is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.metrics.registry import MetricsRegistry
from repro.metrics.tracing import TRACE_SCOPE
from repro.runtime.service import Service, WorkerSpec


@dataclass(frozen=True)
class FlushTuning:
    """Bounds and thresholds for the adaptive flush controller."""

    #: Smallest batch ceiling the controller will shrink to.
    min_batch_events: int = 64
    #: Largest batch ceiling the controller will grow to.
    max_batch_events: int = 8192
    #: Multiplier applied when growing under pressure.
    grow_factor: float = 2.0
    #: Multiplier applied when shrinking after pressure clears.
    shrink_factor: float = 0.5
    #: Inbound occupancy (depth/hwm) at which a shard counts as
    #: pressured and its batch ceiling grows.
    pressure_ratio: float = 0.5
    #: Occupancy below which the shard counts as relaxed; shrink only
    #: happens here (never while the queue is still filling).
    relax_ratio: float = 0.05
    #: Publish-stage p95 (seconds) above which a relaxed shard's
    #: ceiling shrinks — latency is paid without pressure to justify it.
    target_publish_p95: float = 0.05

    def __post_init__(self) -> None:
        if self.min_batch_events < 1:
            raise ValueError(
                f"min_batch_events must be >= 1: {self.min_batch_events}"
            )
        if self.max_batch_events < self.min_batch_events:
            raise ValueError(
                "max_batch_events must be >= min_batch_events: "
                f"{self.max_batch_events} < {self.min_batch_events}"
            )
        if not 0.0 <= self.relax_ratio <= self.pressure_ratio <= 1.0:
            raise ValueError(
                "need 0 <= relax_ratio <= pressure_ratio <= 1: "
                f"{self.relax_ratio}, {self.pressure_ratio}"
            )
        if self.grow_factor <= 1.0:
            raise ValueError(f"grow_factor must be > 1: {self.grow_factor}")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError(
                f"shrink_factor must be in (0, 1): {self.shrink_factor}"
            )


class AdaptiveFlushController(Service):
    """Periodic controller retuning flush batching per shard."""

    def __init__(
        self,
        registry: MetricsRegistry,
        targets: Dict[str, Any],
        tuning: Optional[FlushTuning] = None,
        interval: float = 0.25,
        name: str = "flush-controller",
    ) -> None:
        super().__init__(name, registry)
        self._registry = registry
        self.targets = dict(targets)
        self.tuning = tuning or FlushTuning()
        self.interval = interval
        self._adjustments = self.metrics.counter("adjustments")
        for label, target in self.targets.items():
            self.metrics.gauge_fn(
                f"{label}.batch_events",
                lambda t=target: t.flush_batch_events,
            )
            self.metrics.gauge_fn(
                f"{label}.occupancy_ratio",
                lambda t=target: round(self._ratio(t), 4),
            )

    @staticmethod
    def _ratio(target: Any) -> float:
        depth, capacity = target.occupancy()
        return depth / capacity if capacity else 0.0

    def _publish_p95(self) -> float:
        histogram = self._registry.histograms().get(f"{TRACE_SCOPE}.publish")
        if histogram is None or histogram.total == 0:
            return 0.0
        return histogram.percentile(0.95)

    def tick(self) -> int:
        """One control step; returns the number of targets retuned."""
        tuning = self.tuning
        publish_p95 = self._publish_p95()
        adjusted = 0
        for target in self.targets.values():
            ratio = self._ratio(target)
            current = target.flush_batch_events
            # 0 means "unbounded" — for control purposes that is
            # already the maximum, so growth is a no-op and the first
            # shrink lands at max * shrink_factor.
            effective = current or tuning.max_batch_events
            new = current
            if ratio >= tuning.pressure_ratio:
                new = min(
                    tuning.max_batch_events,
                    int(effective * tuning.grow_factor),
                )
            elif (
                ratio <= tuning.relax_ratio
                and publish_p95 > tuning.target_publish_p95
            ):
                new = max(
                    tuning.min_batch_events,
                    int(effective * tuning.shrink_factor),
                )
            if new != current:
                target.flush_batch_events = new
                self._adjustments.inc()
                adjusted += 1
        return adjusted

    def worker_specs(self) -> list[WorkerSpec]:
        return [WorkerSpec("tick", self.tick, interval=self.interval)]
