"""Lambda-style workers over a reliable queue, plus the cleanup sweeper.

Ripple's cloud service (Figure 1) is: events land in an SQS queue,
serverless functions act on queue entries and remove them once
successfully processed, and a cleanup function periodically re-drives
entries whose processing failed.  :class:`ServerlessExecutor` and
:class:`CleanupFunction` model exactly that loop.

Both are :class:`~repro.runtime.Service`\\ s: the executor runs one
named worker per unit of *concurrency*, all woken by sends to the
queue, and the cleanup function runs a single periodic worker, so they
can be composed under a :class:`~repro.runtime.Supervisor` (see
``repro.ripple.service``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ReceiptInvalid
from repro.cloudq.sqs import ReliableQueue
from repro.runtime import Service, Wake, WorkerSpec
from repro.util.logging import get_logger


class ServerlessExecutor(Service):
    """A pool of Lambda-style workers pulling *queue* and calling *handler*.

    On handler success the message is deleted; on handler exception the
    message is left in flight and reappears after its visibility timeout
    (at-least-once processing).  Live mode runs *concurrency* named
    workers; tests can instead call :meth:`poll_once` for deterministic
    single-stepping.
    """

    def __init__(
        self,
        queue: ReliableQueue,
        handler: Callable[[Any], None],
        concurrency: int = 2,
        batch_size: int = 10,
        on_error: Optional[Callable[[Any, BaseException], None]] = None,
        registry=None,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1: {concurrency}")
        super().__init__("executor", registry)
        self.queue = queue
        self.handler = handler
        self.concurrency = concurrency
        self.batch_size = batch_size
        self.on_error = on_error
        # One wake for every worker: a send rings it, which queues the
        # workers in turn (one at a time; the first to step takes it).
        self._wake = Wake()
        queue.wakers.add(self._wake)
        self._invocations = self.metrics.counter("invocations")
        self._successes = self.metrics.counter("successes")
        self._failures = self.metrics.counter("failures")
        self.metrics.gauge_fn("queue_depth", lambda: queue.visible_depth)

    # -- counters (registry-backed; old attribute names kept readable) ------

    @property
    def invocations(self) -> int:
        return self._invocations.value

    @property
    def successes(self) -> int:
        return self._successes.value

    @property
    def failures(self) -> int:
        return self._failures.value

    # -- deterministic single-step mode -----------------------------------

    def poll_once(self) -> int:
        """Receive one batch and process it synchronously.

        Returns the number of successfully processed messages.  Used by
        tests and virtual-time drivers.
        """
        processed = 0
        for message in self.queue.receive(max_messages=self.batch_size):
            self._invocations.inc()
            try:
                self.handler(message.body)
            except Exception as exc:
                self._failures.inc()
                if self.on_error is not None:
                    self.on_error(message.body, exc)
                continue  # leave in flight; visibility timeout re-drives
            try:
                assert message.receipt is not None
                self.queue.delete(message.receipt)
            except ReceiptInvalid:
                # Someone else already completed this delivery (the
                # at-least-once race); the work was done, count success.
                pass
            self._successes.inc()
            processed += 1
        return processed

    def drain(self, max_rounds: int = 1000) -> int:
        """Poll until the queue shows no visible messages; returns total."""
        total = 0
        for _ in range(max_rounds):
            processed = self.poll_once()
            total += processed
            if self.queue.visible_depth == 0:
                break
        return total

    # -- live mode (service runtime) ----------------------------------------

    def worker_specs(self) -> list[WorkerSpec]:
        return [
            WorkerSpec(f"lambda-{index}", self.poll_once, wake=self._wake)
            for index in range(self.concurrency)
        ]

    def on_close(self) -> None:
        self.queue.wakers.remove(self._wake)


class CleanupFunction(Service):
    """The periodic sweeper that re-drives stalled in-flight messages.

    The paper: "A cleanup function periodically iterates through the
    queue and initiates additional processing for events that were
    unsuccessfully processed."
    """

    def __init__(
        self,
        queue: ReliableQueue,
        stall_threshold: float = 5.0,
        period: float = 10.0,
        registry=None,
    ) -> None:
        super().__init__("cleanup", registry)
        self.queue = queue
        self.stall_threshold = stall_threshold
        self.period = period
        self._total_redriven = self.metrics.counter("total_redriven")

    @property
    def total_redriven(self) -> int:
        return self._total_redriven.value

    def sweep_once(self) -> int:
        """One sweep: re-drive messages in flight longer than the threshold."""
        redriven = self.queue.redrive_stuck(self.stall_threshold)
        if redriven:
            get_logger("cloudq.cleanup").info(
                "re-drove %d stalled message(s) on %s", redriven,
                self.queue.name,
            )
        self._total_redriven.inc(redriven)
        return redriven

    def worker_specs(self) -> list[WorkerSpec]:
        # Periodic: wait a full period before the first sweep, matching
        # the original daemon-thread behaviour.
        return [WorkerSpec("sweep", self.sweep_once, interval=self.period)]
