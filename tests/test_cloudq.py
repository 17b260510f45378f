"""Tests for the SQS-style queue, serverless executor and cleanup."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloudq import (
    CleanupFunction,
    QueueService,
    ReliableQueue,
    ServerlessExecutor,
)
from repro.errors import QueueNotFound, ReceiptInvalid
from repro.util.clock import ManualClock


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def queue(clock):
    return ReliableQueue("q", visibility_timeout=30.0, clock=clock)


class TestSendReceive:
    def test_send_then_receive(self, queue):
        queue.send({"k": "v"})
        (message,) = queue.receive()
        assert message.body == {"k": "v"}
        assert message.receipt is not None

    def test_receive_hides_message(self, queue):
        queue.send("a")
        queue.receive()
        assert queue.receive() == []

    def test_receive_many(self, queue):
        for index in range(5):
            queue.send(index)
        messages = queue.receive(max_messages=3)
        assert [m.body for m in messages] == [0, 1, 2]

    def test_fifo_ish_ordering(self, queue):
        for body in ("a", "b", "c"):
            queue.send(body)
        assert [m.body for m in queue.receive(max_messages=10)] == ["a", "b", "c"]

    def test_message_reappears_after_visibility_timeout(self, queue, clock):
        queue.send("x")
        queue.receive()
        clock.advance(31)
        (message,) = queue.receive()
        assert message.body == "x"
        assert message.receive_count == 2

    def test_delete_acknowledges(self, queue, clock):
        queue.send("x")
        (message,) = queue.receive()
        queue.delete(message.receipt)
        clock.advance(100)
        assert queue.receive() == []
        assert queue.total_deleted == 1

    def test_delete_with_stale_receipt_rejected(self, queue, clock):
        queue.send("x")
        (message,) = queue.receive()
        clock.advance(31)
        queue.receive()  # redelivered: old receipt superseded
        with pytest.raises(ReceiptInvalid):
            queue.delete(message.receipt)

    def test_delete_unknown_receipt_rejected(self, queue):
        with pytest.raises(ReceiptInvalid):
            queue.delete("bogus")

    def test_change_visibility_extends(self, queue, clock):
        queue.send("x")
        (message,) = queue.receive()
        queue.change_visibility(message.receipt, 100)
        clock.advance(50)
        assert queue.receive() == []
        clock.advance(51)
        assert len(queue.receive()) == 1

    def test_depth_accounting(self, queue):
        for index in range(3):
            queue.send(index)
        queue.receive()
        assert queue.approximate_depth == 3
        assert queue.visible_depth == 2
        assert queue.in_flight == 1


class TestRedrivePolicy:
    def test_poison_message_moves_to_dlq(self, clock):
        service = QueueService(clock=clock)
        queue = service.create_queue(
            "q", visibility_timeout=1.0, max_receives=2, with_dead_letter=True
        )
        dlq = service.queue("q-dlq")
        queue.send("poison")
        for _ in range(2):
            queue.receive()
            clock.advance(2)
        assert queue.receive() == []  # third receive dead-letters it
        assert queue.approximate_depth == 0
        assert dlq.approximate_depth == 1
        assert queue.total_dead_lettered == 1

    def test_redrive_stuck_makes_visible_immediately(self, queue, clock):
        queue.send("x")
        queue.receive()
        clock.advance(10)  # in flight 10s of a 30s timeout
        assert queue.redrive_stuck(older_than=5.0) == 1
        assert queue.visible_depth == 1

    def test_redrive_respects_threshold(self, queue, clock):
        queue.send("x")
        queue.receive()
        clock.advance(2)
        assert queue.redrive_stuck(older_than=5.0) == 0


class TestQueueService:
    def test_create_is_idempotent(self, clock):
        service = QueueService(clock=clock)
        first = service.create_queue("q")
        second = service.create_queue("q")
        assert first is second

    def test_unknown_queue_rejected(self, clock):
        with pytest.raises(QueueNotFound):
            QueueService(clock=clock).queue("nope")

    def test_list_queues(self, clock):
        service = QueueService(clock=clock)
        service.create_queue("b")
        service.create_queue("a", with_dead_letter=True)
        assert service.list_queues() == ["a", "a-dlq", "b"]


class TestServerlessExecutor:
    def test_poll_once_processes_and_deletes(self, queue):
        handled = []
        executor = ServerlessExecutor(queue, handled.append)
        queue.send("a")
        queue.send("b")
        assert executor.poll_once() == 2
        assert handled == ["a", "b"]
        assert queue.approximate_depth == 0
        assert executor.successes == 2

    def test_failed_handler_leaves_message_for_retry(self, queue, clock):
        attempts = []

        def flaky(body):
            attempts.append(body)
            if len(attempts) == 1:
                raise RuntimeError("transient")

        executor = ServerlessExecutor(queue, flaky)
        queue.send("x")
        executor.poll_once()
        assert executor.failures == 1
        assert queue.approximate_depth == 1  # still there, in flight
        clock.advance(31)
        executor.poll_once()
        assert attempts == ["x", "x"]
        assert queue.approximate_depth == 0

    def test_on_error_callback(self, queue):
        errors = []

        def bad(body):
            raise ValueError("nope")

        executor = ServerlessExecutor(
            queue, bad, on_error=lambda body, exc: errors.append((body, str(exc)))
        )
        queue.send("x")
        executor.poll_once()
        assert errors == [("x", "nope")]

    def test_drain_until_empty(self, queue):
        executor = ServerlessExecutor(queue, lambda body: None, batch_size=2)
        for index in range(7):
            queue.send(index)
        assert executor.drain() == 7

    def test_live_threaded_mode(self):
        import time

        queue = ReliableQueue("live", visibility_timeout=5.0)
        handled = []
        executor = ServerlessExecutor(queue, handled.append, concurrency=2)
        executor.start()
        try:
            for index in range(20):
                queue.send(index)
            deadline = time.time() + 3
            while len(handled) < 20 and time.time() < deadline:
                time.sleep(0.005)
        finally:
            executor.stop()
        assert sorted(handled) == list(range(20))

    def test_invalid_concurrency_rejected(self, queue):
        with pytest.raises(ValueError):
            ServerlessExecutor(queue, lambda b: None, concurrency=0)


class TestCleanupFunction:
    def test_sweep_redrives_stalled(self, queue, clock):
        cleanup = CleanupFunction(queue, stall_threshold=5.0)
        queue.send("x")
        queue.receive()
        clock.advance(6)
        assert cleanup.sweep_once() == 1
        assert cleanup.total_redriven == 1
        assert queue.visible_depth == 1

    def test_sweep_ignores_fresh_inflight(self, queue, clock):
        cleanup = CleanupFunction(queue, stall_threshold=5.0)
        queue.send("x")
        queue.receive()
        clock.advance(1)
        assert cleanup.sweep_once() == 0


# ---------------------------------------------------------------------------
# Property: at-least-once — every sent message is handled >= once, and with
# deletion it is eventually handled exactly as many times as receives.
# ---------------------------------------------------------------------------


class TestAtLeastOnceProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        n_messages=st.integers(0, 20),
        failure_pattern=st.lists(st.booleans(), min_size=1, max_size=10),
    )
    def test_every_message_eventually_processed(self, n_messages, failure_pattern):
        clock = ManualClock()
        queue = ReliableQueue("q", visibility_timeout=1.0, clock=clock)
        handled: dict[int, int] = {}
        # Guarantee eventual success: every cycle ends with a success so
        # no message can fail forever (all-failure would need a DLQ).
        pattern = iter((failure_pattern + [False]) * (n_messages * 6 + 1))

        def handler(body):
            if next(pattern):
                raise RuntimeError("injected")
            handled[body] = handled.get(body, 0) + 1

        executor = ServerlessExecutor(queue, handler, batch_size=5)
        for index in range(n_messages):
            queue.send(index)
        for _ in range(200):
            executor.poll_once()
            if queue.approximate_depth == 0:
                break
            clock.advance(1.1)
        assert queue.approximate_depth == 0
        assert set(handled) == set(range(n_messages))
        assert all(count >= 1 for count in handled.values())
