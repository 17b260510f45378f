"""Build, probe and tear down one live system for a workload.

A :class:`System` is the full composition a workload runs against: an
in-memory ``LustreFilesystem`` (2 MDS, ``DnePolicy.ROUND_ROBIN``), a
2-shard ``ClusterMonitor``, the gateway with one WebSocket stream, one
subscriber, and a Ripple service whose agent installs the workload's
rules one at a time through ``RippleService.add_rule``.  Every
observation the benchmark makes is timestamped with
``time.perf_counter()`` where it happens: the subscriber callback, the
stream frame read, the Ripple ``callable`` action and the REST round
trip.

Teardown runs in reverse order (stream close, agent close,
``RippleService.shutdown()``, ``ClusterMonitor.shutdown()``) and
:func:`check_hygiene` then requires that no child process, no thread but
the main one and no temporary store directory is left.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from typing import Optional

from workloads import Op, Workload


class SetupTimeout(RuntimeError):
    """The probe did not arrive end to end within the setup deadline."""


class System:
    """One live composition of the monitored pipeline for a workload."""

    def __init__(self, workload: Workload, scratch_root: str) -> None:
        self.workload = workload
        self.scratch_root = scratch_root
        self.store_dir: Optional[str] = None
        self.fs = None
        self.cluster = None
        self.gateway = None
        self.service = None
        self.agent = None
        self.stream = None
        self.client = None
        self.token: Optional[str] = None
        self.ws_filter = None
        self.rest_filter = None
        #: rule tag -> rule id, tags are the RuleSpec indexes.
        self.rule_ids: dict[int, int] = {}
        #: (shard, seq, event, t) per subscriber delivery.
        self.deliveries: list = []
        #: (message, t) per WebSocket frame.
        self.frames: list = []
        #: (rule id, (type, path), t) per executed action.
        self.actions: list = []
        self.probes: list[Op] = []

    # -- observation points -----------------------------------------------

    def _on_batch(self, entries, source) -> None:
        now = time.perf_counter()
        self.deliveries.extend(
            (source, seq, event, now) for seq, event in entries
        )

    def _on_action(self, _agent, event, params) -> None:
        self.actions.append(
            (
                self.rule_ids[params["tag"]],
                (event.event_type.value, event.path),
                time.perf_counter(),
            )
        )

    def pump_stream(self, timeout: float = 0.0) -> int:
        """Read pending frames, stamping each on arrival."""
        fresh = self.stream.pump(timeout)
        if fresh:
            now = time.perf_counter()
            self.frames.extend((message, now) for message in fresh)
        return len(fresh)

    # -- build ------------------------------------------------------------

    def build(self, probe_index: int, deadline: float) -> float:
        """Construct and start everything, then wait for a probe event.

        Returns the set-up time: from building the filesystem to the
        probe having reached the subscriber, the stream and the action.
        """
        from repro.cluster import ClusterConfig, ClusterMonitor
        from repro.core import AggregatorConfig, CollectorConfig, ProcessorConfig
        from repro.core.events import EventType
        from repro.gateway import GatewayClient, GatewayConfig, Quota, attach_gateway
        from repro.gateway.filters import parse_filter
        from repro.lustre import LustreFilesystem
        from repro.lustre.mds import DnePolicy
        from repro.ripple import Action, RippleAgent, RippleService, Trigger

        w = self.workload
        started = time.perf_counter()
        self.fs = LustreFilesystem(num_mds=2, dne_policy=DnePolicy.ROUND_ROBIN)
        for directory in w.dirs:
            self.fs.makedirs(directory)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch_root)
        store_url = f"segments://{self.store_dir}"
        self.cluster = ClusterMonitor(
            self.fs,
            ClusterConfig(
                num_shards=2,
                transport=w.transport,
                # Batched, cached fid2path: the paper's proposed fixes,
                # which the flood workload's repeating parents exercise.
                collector=CollectorConfig(
                    processor=ProcessorConfig(batch_size=64, cache_size=1024)
                ),
                aggregator=AggregatorConfig(store_url=store_url),
            ),
        )
        self.gateway = attach_gateway(self.cluster, config=GatewayConfig())
        key = self.gateway.auth.issue_key(
            "bench",
            quota=Quota(
                requests_per_sec=1e9,
                request_burst=1e9,
                max_page_size=1024,
                max_streams=4,
                stream_events_per_sec=1e9,
                stream_burst=1e9,
                stream_queue=1 << 20,
            ),
        )
        self.cluster.subscribe(
            lambda _seq, _event: None,
            name="bench-subscriber",
            batch_callback=self._on_batch,
        )
        self.service = RippleService()
        self.agent = RippleAgent("lustre", filesystem=self.fs)
        self.agent.register_callable("record", self._on_action)
        self.service.register_agent(self.agent)
        for tag, spec in enumerate(w.rules):
            rule = self.service.add_rule(
                Trigger(
                    agent_id="lustre",
                    path_prefix=spec.prefix,
                    event_types=frozenset(EventType(t) for t in spec.types),
                    name_pattern=spec.pattern,
                ),
                Action("callable", "lustre", {"function": "record", "tag": tag}),
            )
            self.rule_ids[tag] = rule.rule_id
        # The agent's detection feed: one cluster consumer whose batches
        # go through the agent's compiled filter (only the consumer's own
        # worker polls it).
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
        self.client = GatewayClient(self.gateway.host, self.gateway.port, timeout=30.0)
        self.token = self.client.auth(key.key)["token"]
        self.ws_filter = parse_filter(**w.ws_filter)
        self.rest_filter = parse_filter(**w.rest_filter)
        self.stream = self.client.stream(self.token, **w.ws_filter)
        probe = Op("create", w.probe(probe_index))
        self.probes.append(probe)
        self.fs.create(probe.path)
        self._wait_for_probe(probe.key, deadline)
        return time.perf_counter() - started

    def _wait_for_probe(self, key, deadline: float) -> None:
        """Block until *key* reached the subscriber, stream and action."""
        while not (
            any((e.event_type.value, e.path) == key for _s, _q, e, _t in self.deliveries)
            and any(
                (m["event"]["event_type"], m["event"]["path"]) == key
                for m, _t in self.frames
            )
            and any(k == key for _r, k, _t in self.actions)
        ):
            if time.perf_counter() > deadline:
                raise SetupTimeout(f"probe {key} never arrived end to end")
            self.pump_stream(0.001)

    # -- teardown -----------------------------------------------------------

    def close(self) -> list[str]:
        """Tear down in reverse order; returns the errors met on the way."""
        errors: list[str] = []
        steps = (
            ("stream close", lambda: self.stream and self.stream.close()),
            ("agent close", lambda: self.agent and self.agent.close()),
            ("ripple shutdown", lambda: self.service and self.service.shutdown()),
            ("cluster shutdown", lambda: self.cluster and self.cluster.shutdown()),
            ("transport close", lambda: self.cluster and self.cluster.context.close()),
        )
        for label, step in steps:
            try:
                step()
            except Exception as exc:  # keep tearing down; report below
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            if os.path.exists(self.store_dir):
                errors.append(f"store directory {self.store_dir} not removed")
        return errors


def check_hygiene(scratch_root: str, wait: float = 10.0) -> list[str]:
    """Everything the run started must be gone; returns what is left."""
    deadline = time.monotonic() + wait
    main = threading.main_thread()
    while True:
        children = multiprocessing.active_children()
        threads = [t for t in threading.enumerate() if t is not main]
        leftovers = os.listdir(scratch_root) if os.path.isdir(scratch_root) else []
        if (not children and not threads and not leftovers) or (
            time.monotonic() > deadline
        ):
            break
        time.sleep(0.05)
    problems = [f"child process {p.name} (pid {p.pid})" for p in children]
    problems += [f"thread {t.name}" for t in threads]
    problems += [f"temp entry {name}" for name in leftovers]
    return problems


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    the ``spawn`` method's semaphores (it would otherwise outlive us)."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
