"""Readiness wake-ups: no hop of the live pipeline polls on a timer.

Every data-path step is queued by its own readiness source (a socket
mailbox, a ChangeLog, a reliable queue, an agent's inbox, the process
bridge's child pipe).  No woken worker has a timed re-check to fall
back on, so a single ``fs.create`` must reach a subscriber and a Ripple
action within 1 s on rings alone — a hop whose ring went missing would
never arrive.  The waker-lifetime tests pin that registrations are made
once per object and dropped on close.
"""

import dataclasses
import sys
import threading
import time

import pytest

from repro.cloudq import ReliableQueue, ServerlessExecutor
from repro.cluster import ClusterConfig, ClusterMonitor
from repro.core import AggregatorConfig, Collector, Consumer
from repro.core.collector import CallbackSink
from repro.lustre import DnePolicy, LustreFilesystem
from repro.msgq import Context
from repro.msgq.multiproc import MultiprocTransport
from repro.ripple import Action, RippleAgent, RippleService, Trigger
from repro.runtime import RestartPolicy, ServiceCrash, Supervisor, WorkerSpec

#: How long a test waits for an arrival it expects far sooner.
SAFETY_NET = 5.0


@pytest.fixture
def no_safety_net(monkeypatch):
    """Pin that woken workers have no timed re-check left, and turn off
    the child→parent metrics relay, whose periodic frames would
    otherwise ring the process bridge on a timer."""
    fields = {field.name for field in dataclasses.fields(WorkerSpec)}
    assert fields == {"name", "step", "wake", "interval"}
    process_shard = MultiprocTransport.process_shard

    def no_relay(self, shard_id, config, registry=None, relay_interval=0.0):
        return process_shard(
            self, shard_id, config, registry=registry, relay_interval=0.0
        )

    monkeypatch.setattr(MultiprocTransport, "process_shard", no_relay)


def wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


class _LivePipeline:
    """A started 2-shard cluster with a subscriber and a Ripple action."""

    def __init__(self, transport, namespace):
        self.fs = LustreFilesystem(
            num_mds=2, dne_policy=DnePolicy.ROUND_ROBIN
        )
        self.fs.makedirs("/w")
        self.cluster = ClusterMonitor(
            self.fs,
            ClusterConfig(
                num_shards=2, namespace=namespace, transport=transport
            ),
        )
        self.delivered = {}
        self.acted = {}
        self.cluster.subscribe(
            lambda _seq, event: self.delivered.setdefault(
                event.path, time.monotonic()
            )
        )
        self.service = RippleService()
        self.agent = RippleAgent("lustre", filesystem=self.fs)
        self.agent.register_callable(
            "record",
            lambda _agent, event, _params: self.acted.setdefault(
                event.path, time.monotonic()
            ),
        )
        self.service.register_agent(self.agent)
        self.service.add_rule(
            Trigger(agent_id="lustre", path_prefix="/w"),
            Action("callable", "lustre", {"function": "record"}),
        )
        agent = self.agent
        self.cluster.subscribe(
            lambda _seq, _event: None,
            name="agent-feed",
            batch_callback=lambda entries: agent.ingest_batch(
                [event for _seq, event in entries]
            ),
        )
        self.cluster.start()
        self.service.start()
        self.agent.start()

    def create(self, path):
        started = time.monotonic()
        self.fs.create(path)
        assert wait_for(
            lambda: path in self.delivered and path in self.acted,
            timeout=2 * SAFETY_NET,
        ), f"{path} never arrived"
        return (
            self.delivered[path] - started,
            self.acted[path] - started,
        )

    def close(self):
        self.agent.close()
        self.service.shutdown()
        self.cluster.shutdown()


@pytest.mark.parametrize("transport", ["inproc", "multiproc"])
def test_one_create_reaches_subscriber_and_action_without_polling(
    no_safety_net, transport
):
    pipeline = _LivePipeline(transport, f"wake-{transport}")
    try:
        # Warm up (a spawned shard child needs a moment to import),
        # then let every worker go idle on its stretched wait.
        pipeline.create("/w/warm-up")
        time.sleep(0.3)
        deliver, action = pipeline.create("/w/probe")
        assert deliver < 1.0
        assert action < 1.0
    finally:
        pipeline.close()


def test_no_ring_lost_under_concurrent_senders(no_safety_net):
    """More senders and workers than cores, with a tiny switch interval:
    a lost ring would strand a message for the 5 s safety net."""
    queue = ReliableQueue("stress-q", visibility_timeout=30.0)
    handled = []
    executor = ServerlessExecutor(queue, handled.append, concurrency=3)
    executor.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for wave in range(20):
            senders = [
                threading.Thread(
                    target=lambda w=wave, s=sender: [
                        queue.send((w, s, i)) for i in range(5)
                    ]
                )
                for sender in range(4)
            ]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(timeout=5.0)
                assert not sender.is_alive()
            # Each wave must drain well inside the safety net.
            assert wait_for(lambda: len(handled) == 20 * (wave + 1), 1.0)
    finally:
        sys.setswitchinterval(interval)
        executor.close()
    assert len(set(handled)) == 400


class TestWakerLifetime:
    def test_collector_close_unregisters_its_changelog_wakers(self):
        fs = LustreFilesystem(num_mds=1, mdts_per_mds=2)
        changelogs = fs.changelogs()
        before = [len(cl.wakers) for cl in changelogs]
        collector = Collector(
            "mds0", fs, fs.cluster.servers[0], CallbackSink(lambda _b: None)
        )
        registered = [n + 1 for n in before]  # each MDT rings it
        assert [len(cl.wakers) for cl in changelogs] == registered
        collector.start()
        collector.stop()
        collector.start()  # a restart registers nothing new
        assert [len(cl.wakers) for cl in changelogs] == registered
        collector.close()
        assert [len(cl.wakers) for cl in changelogs] == before

    def test_consumer_close_unregisters_its_mailbox_waker(self):
        context = Context()
        config = AggregatorConfig(
            publish_endpoint="inproc://wake-pub",
            api_endpoint="inproc://wake-api",
        )
        context.pub().bind(config.publish_endpoint)
        context.rep().bind(config.api_endpoint)
        consumer = Consumer(context, lambda _seq, _event: None, config=config)
        wakers = consumer.subscription.wakers
        assert len(wakers) == 1
        consumer.start()
        consumer.stop()
        consumer.start()
        assert len(wakers) == 1
        consumer.close()
        assert len(wakers) == 0
        context.close()

    def test_executor_restart_does_not_duplicate_queue_wakers(self):
        queue = ReliableQueue("wake-q", visibility_timeout=5.0)
        handled = []
        executor = ServerlessExecutor(queue, handled.append, concurrency=2)
        crashes = []
        poll_once = executor.poll_once

        def crash_once():
            if not crashes:
                crashes.append(1)
                raise ServiceCrash("injected")
            return poll_once()

        executor.poll_once = crash_once
        supervisor = Supervisor(
            "wake-sup",
            policy=RestartPolicy(backoff_base=0.0),
        )
        supervisor.add_child(executor)
        supervisor.start()
        try:
            assert wait_for(lambda: executor.restart_count >= 1, timeout=5.0)
            assert len(queue.wakers) == 1
            queue.send("after-restart")
            assert wait_for(lambda: handled == ["after-restart"], timeout=1.0)
        finally:
            supervisor.close()
        assert len(queue.wakers) == 0


class TestSubscriberSignature:
    """A wrongly shaped callback fails at subscribe time, not in the
    worker (where it used to crash it and lose the batch)."""

    def _cluster(self, namespace):
        fs = LustreFilesystem(num_mds=1)
        return ClusterMonitor(
            fs, ClusterConfig(num_shards=1, namespace=namespace)
        )

    def test_one_argument_callback_rejected(self):
        cluster = self._cluster("sig-one")
        try:
            with pytest.raises(TypeError, match=r"\(seq, event\)"):
                cluster.subscribe(lambda event: None)
        finally:
            cluster.shutdown()

    def test_batch_callback_shapes(self):
        cluster = self._cluster("sig-batch")
        try:
            cluster.subscribe(lambda s, e: None, batch_callback=lambda es: None)
            cluster.subscribe(
                lambda s, e: None, batch_callback=lambda es, source: None
            )
            with pytest.raises(TypeError, match=r"\(entries, source\)"):
                cluster.subscribe(
                    lambda s, e: None, batch_callback=lambda a, b, c: None
                )
            with pytest.raises(TypeError, match="callable"):
                cluster.subscribe(None)
        finally:
            cluster.shutdown()
