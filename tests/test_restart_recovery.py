"""Restart/recovery integration tests across the whole stack.

The paper's fault-tolerance story has three layers; these tests kill
and resurrect each one:

* a Collector restart must not lose or duplicate ChangeLog records
  (purge pointers live in the MDT);
* an Aggregator restart with a persisted catalog must keep history and
  sequence numbering so consumers catch up seamlessly;
* a consumer restart recovers through the historic API.
"""

import pytest

from repro.core import (
    Aggregator,
    AggregatorConfig,
    Collector,
    CollectorConfig,
    LustreMonitor,
    MonitorConfig,
)
from repro.core.collector import CallbackSink
from repro.core.store import EventStore
from repro.lustre import LustreFilesystem
from repro.util.clock import ManualClock


class TestCollectorRestart:
    def test_new_collector_resumes_from_purge_pointer(self):
        """Records cleared by the first collector must not reappear;
        records it never cleared must."""
        fs = LustreFilesystem(clock=ManualClock())
        fs.makedirs("/d")
        received = []
        sink = CallbackSink(received.extend)
        first = Collector(
            "mds0", fs, fs.cluster.servers[0], sink,
            CollectorConfig(read_batch=3),
        )
        for index in range(5):
            fs.create(f"/d/f{index}")
        first.poll_once()  # reads+clears f0..f2
        assert len(received) == 3
        # Crash: the collector dies WITHOUT deregistering; a replacement
        # cannot reuse its changelog user, so the operator deregisters
        # the old user and registers anew — records not yet cleared by
        # anyone are retained for the new reader only if another user
        # still holds them.  The supported crash-safe pattern is
        # re-registering the SAME user id, which our model exposes as
        # keeping the Collector's user: simulate by continuing with a
        # second poll from a rebuilt collector object sharing users.
        second = Collector.__new__(Collector)
        second.__dict__.update(first.__dict__)
        second.poll_once()
        assert [e.name for e in received] == [f"f{i}" for i in range(5)]

    def test_crash_between_report_and_clear_redelivers(self):
        fs = LustreFilesystem(clock=ManualClock())
        fs.makedirs("/d")
        received = []

        class CrashAfterSend:
            def __init__(self):
                self.crash_next = True

            def send(self, payload):
                received.extend(payload)
                if self.crash_next:
                    self.crash_next = False
                    raise ConnectionError("crash after send, before clear")

        collector = Collector(
            "mds0", fs, fs.cluster.servers[0], CrashAfterSend(),
            CollectorConfig(),
        )
        fs.create("/d/f")
        collector.poll_once()  # sends, then "crashes" before clearing
        collector.poll_once()  # redelivers
        names = [e.name for e in received]
        assert names == ["f", "f"]  # at-least-once: duplicate, never loss


class TestAggregatorRestart:
    def test_restart_with_persisted_catalog(self, tmp_path):
        from repro.msgq import Context

        fs = LustreFilesystem(clock=ManualClock())
        fs.makedirs("/d")
        monitor = LustreMonitor(fs)
        for index in range(10):
            fs.create(f"/d/f{index}")
        monitor.drain()
        catalog = str(tmp_path / "catalog.jsonl")
        monitor.shard_handles["shard0"].store.save(catalog)
        monitor.shutdown()

        # A fresh aggregator (new context, as after a host restart)
        # resumes from the persisted catalog.
        context = Context()
        restored = Aggregator(
            context, AggregatorConfig(), store=EventStore.load(catalog)
        )
        assert restored.store.last_seq == 10

        # A consumer that had seen seq 6 catches up with exactly 7..10.
        from repro.core.consumer import Consumer

        seen = []
        consumer = Consumer(context, lambda seq, ev: seen.append(seq))
        consumer.last_seq = 6
        consumer.catch_up(api_server=restored)
        assert seen == [7, 8, 9, 10]

    def test_sequence_numbers_continue_after_restart(self, tmp_path):
        from repro.core.events import EventType, FileEvent

        store = EventStore()
        for index in range(4):
            store.append(
                FileEvent(
                    event_type=EventType.CREATED, path=f"/f{index}",
                    is_dir=False, timestamp=0.0, name=f"f{index}",
                    source="lustre",
                )
            )
        path = str(tmp_path / "c.jsonl")
        store.save(path)
        restored = EventStore.load(path)
        next_seq = restored.append(
            FileEvent(
                event_type=EventType.CREATED, path="/post", is_dir=False,
                timestamp=0.0, name="post", source="lustre",
            )
        )
        assert next_seq == 5  # no reuse of 1..4


class TestConsumerRestart:
    def test_consumer_rebuilds_state_via_catch_up(self):
        fs = LustreFilesystem(clock=ManualClock())
        fs.makedirs("/d")
        monitor = LustreMonitor(fs)
        first_life = []
        consumer = monitor.subscribe(lambda seq, ev: first_life.append(seq))
        fs.create("/d/a")
        monitor.drain()
        checkpoint = consumer.last_seq
        consumer.close()
        monitor.consumers.remove(consumer)

        # More activity while the consumer is dead.
        fs.create("/d/b")
        fs.create("/d/c")
        monitor.drain()

        second_life = []
        replacement = monitor.subscribe(
            lambda seq, ev: second_life.append(seq), name="reborn"
        )
        replacement.last_seq = checkpoint  # restored from its own state
        replacement.catch_up(api_server=monitor.shard_handles["shard0"])
        assert second_life == [2, 3]
        # And the live stream continues without gaps or duplicates.
        fs.create("/d/d")
        monitor.drain()
        assert second_life == [2, 3, 4]
