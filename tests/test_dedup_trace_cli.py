"""Tests for the deduping consumer and the trace CLI."""

import pytest

from repro.cli import main
from repro.core import DedupingConsumer, LustreMonitor
from repro.core.collector import Collector, CollectorConfig
from repro.lustre import LustreFilesystem
from repro.util.clock import ManualClock


class TestDedupingConsumer:
    def test_suppresses_collector_redelivery(self):
        """Simulate a crash between report and clear: the same records
        reach the aggregator twice (with fresh sequence numbers); a
        DedupingConsumer delivers each record once."""
        fs = LustreFilesystem(clock=ManualClock())
        fs.makedirs("/d")
        monitor = LustreMonitor(fs)
        seen = []
        consumer = DedupingConsumer(
            monitor.context,
            lambda seq, ev: seen.append(ev.record_index),
            config=monitor.shard_configs["shard0"],
        )
        monitor.consumers.append(consumer)

        class CrashOnceSink:
            def __init__(self, inner):
                self.inner = inner
                self.crash = True

            def send(self, payload):
                self.inner.send(payload)
                if self.crash:
                    self.crash = False
                    raise ConnectionError("crash after send")

        collector = monitor.collectors[0]
        collector.sink = CrashOnceSink(collector.sink)
        for index in range(5):
            fs.create(f"/d/f{index}")
        monitor.drain()
        # Record 1 is the pre-registration mkdir; creates are 2..6.
        assert seen == [2, 3, 4, 5, 6]
        assert consumer.redeliveries_suppressed == 5
        # The sequence cursor still advanced past the duplicates.
        assert consumer.last_seq == 10

    def test_passes_local_events_through(self):
        from repro.core.events import EventType, FileEvent
        from repro.msgq import Context
        from repro.core.aggregator import Aggregator, AggregatorConfig

        context = Context()
        aggregator = Aggregator(context)
        seen = []
        consumer = DedupingConsumer(context, lambda seq, ev: seen.append(seq))
        local_event = FileEvent(
            event_type=EventType.CREATED, path="/x", is_dir=False,
            timestamp=0.0, name="x", source="inotify",
        )
        push = context.push().connect(AggregatorConfig().inbound_endpoint)
        push.send([local_event, local_event])
        aggregator.pump_once()
        consumer.poll_once()
        assert seen == [1, 2]  # no record identity -> nothing suppressed
        assert consumer.redeliveries_suppressed == 0

    def test_per_mdt_high_water_marks_independent(self):
        from repro.lustre import DnePolicy

        fs = LustreFilesystem(
            clock=ManualClock(), num_mds=2, dne_policy=DnePolicy.ROUND_ROBIN
        )
        monitor = LustreMonitor(fs)
        seen = []
        consumer = DedupingConsumer(
            monitor.context,
            lambda seq, ev: seen.append((ev.mdt_index, ev.record_index)),
            config=monitor.shard_configs["shard0"],
        )
        monitor.consumers.append(consumer)
        fs.mkdir("/a")  # mdt0
        fs.mkdir("/b")  # mdt1
        fs.create("/a/f")
        fs.create("/b/g")
        monitor.drain()
        # Record index 1 appears for both MDTs; neither is suppressed.
        indices = sorted(seen)
        assert (0, 1) in indices and (1, 1) in indices
        assert consumer.redeliveries_suppressed == 0


class TestTraceCli:
    def test_generate_then_replay(self, capsys, tmp_path):
        trace_file = str(tmp_path / "ops.trace")
        assert main([
            "trace", "generate", "--ops", "200", "--seed", "3",
            "-o", trace_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert main(["trace", "replay", trace_file, "--num-mds", "2"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "(0 skipped)" in out
        assert "changelog records generated" in out

    def test_generated_trace_is_seed_stable(self, tmp_path):
        a = tmp_path / "a.trace"
        b = tmp_path / "b.trace"
        main(["trace", "generate", "--ops", "50", "--seed", "9", "-o", str(a)])
        main(["trace", "generate", "--ops", "50", "--seed", "9", "-o", str(b)])
        assert a.read_text() == b.read_text()
