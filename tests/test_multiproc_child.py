"""The spawned shard child: how it finds the package, and how it fails.

* A child is started with ``spawn``, which hands the parent's
  ``sys.path`` to the child before the target is unpickled; a parent
  that found ``repro`` by ``sys.path`` insertion (no ``PYTHONPATH``)
  must still be able to respawn killed children, without touching
  ``os.environ``.
* The child's metrics relay drops a snapshot only when its output
  pipe has no room; any other fault on that path kills the child
  loudly.
* The child runs only the store half of a shard, and answers the
  historic API as an in-process ``Aggregator`` over the same batches.
"""

import fcntl
import json
import marshal
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.aggregator import Aggregator
from repro.core.events import EventType, FileEvent
from repro.core.shard import AggregatorConfig, ShardChildSpec, _shard_main
from repro.metrics.registry import MetricsRegistry
from repro.msgq import Context
from repro.msgq.multiproc import MultiprocTransport
from repro.msgq.pipes import _read_frame

SRC = Path(__file__).resolve().parent.parent / "src"

_RESPAWN_SCRIPT = textwrap.dedent(
    """
    import json, os, sys, time
    sys.path.insert(0, {src!r})

    environ_writes = []
    _setitem = type(os.environ).__setitem__

    def _recording_setitem(self, key, value):
        environ_writes.append(key)
        _setitem(self, key, value)

    type(os.environ).__setitem__ = _recording_setitem

    from repro import LustreFilesystem, LustreMonitor, MonitorConfig
    from repro.lustre.mds import DnePolicy

    fs = LustreFilesystem(
        num_mds=2, mdts_per_mds=1, dne_policy=DnePolicy.ROUND_ROBIN
    )
    monitor = LustreMonitor(
        fs,
        MonitorConfig(
            num_shards=2, namespace="nopath", transport="multiproc"
        ),
    )
    delivered = set()
    monitor.subscribe(lambda seq, event: delivered.add(event.path))
    for d in range(4):
        fs.makedirs(f"/d{{d}}")
    created = []

    def load(start, count):
        for i in range(start, start + count):
            path = f"/d{{i % 4}}/f{{i}}"
            fs.create(path)
            created.append(path)

    def settled():
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if set(created) <= delivered:
                return True
            time.sleep(0.01)
        return False

    monitor.start()
    try:
        load(0, 40)
        first = settled()
        bridges = list(monitor.bridges.values())
        for bridge in bridges:
            bridge.kill_child()
        load(40, 40)
        second = settled()
        restarts = [
            bridge.metrics.snapshot()["child_restarts"] for bridge in bridges
        ]
    finally:
        monitor.shutdown()
    print(json.dumps({{
        "first": first,
        "second": second,
        "missing": sorted(set(created) - delivered),
        "restarts": restarts,
        "environ_writes": environ_writes,
        "pythonpath": os.environ.get("PYTHONPATH"),
    }}))
    """
)


class TestSpawnWithoutPythonpath:
    def test_both_children_respawn_with_package_found_by_sys_path(
        self, tmp_path
    ):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        completed = subprocess.run(
            [sys.executable, "-c", _RESPAWN_SCRIPT.format(src=str(SRC))],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert result["first"] and result["second"], result
        assert result["missing"] == []
        assert all(count >= 1 for count in result["restarts"]), result
        assert "PYTHONPATH" not in result["environ_writes"]
        assert result["pythonpath"] is None


def _pipe(capacity=None):
    """A one-way pipe ``(read end, write end)``, shrunk to *capacity*
    bytes when given."""
    reader, writer = multiprocessing.Pipe(duplex=False)
    if capacity is not None:
        fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, capacity)
    return reader, writer


def _run_child(inbox_frames, events_q):
    """Run the child in this thread: *inbox_frames* then EOF on its
    inbox, its output into the *events_q* pipe."""
    inbox, inbox_w = _pipe()
    for frame in inbox_frames:
        inbox_w.send_bytes(marshal.dumps(frame))
    inbox_w.close()
    spec = ShardChildSpec(
        shard_id="s0", config=AggregatorConfig(trace_sample_rate=0.0)
    )
    try:
        _shard_main(spec, inbox, events_q[1])
    finally:
        inbox.close()


def _drain(events_q):
    reader = events_q[0]
    frames = []
    while reader.poll():
        frames.append(_read_frame(reader))
    return frames


class TestChildMetricsRelay:
    def test_relay_fault_kills_the_child_loudly(self, monkeypatch):
        def broken(state):
            raise RuntimeError("encoder broke")

        monkeypatch.setattr("repro.telemetry.relay.encode_state", broken)
        events_q = _pipe()
        with pytest.raises(RuntimeError, match="encoder broke"):
            _run_child([("relay",), ("stop",)], events_q)
        frames = _drain(events_q)
        assert ("crashed", "RuntimeError: encoder broke") in frames

    def test_full_output_queue_drops_the_snapshot(self):
        # A one-page pipe holding one frame has no room for a snapshot.
        events_q = _pipe(capacity=os.sysconf("SC_PAGE_SIZE"))
        events_q[1].send_bytes(marshal.dumps(("occupied",)))
        _run_child([("relay",), ("stop",)], events_q)
        assert _drain(events_q) == [("occupied",)]


#: What the child's ``stats`` answer lacks beside an in-process shard's:
#: the series of the publish half and of the PULL socket, which the
#: bridge owns in the parent.
_PUBLISH_HALF = {
    "events_published", "batches_published",
    "inbound_depth", "inbound_hwm", "inbound_credits",
}


def _reports():
    kinds = [EventType.CREATED, EventType.MODIFIED, EventType.DELETED]
    return [
        [
            FileEvent(
                event_type=kinds[(batch + i) % 3],
                path=f"/{'ab'[i % 2]}/r{batch}/f{i}",
                is_dir=False,
                timestamp=10.0 * batch + i,
                name=f"f{i}",
                source="lustre",
            )
            for i in range(5 + batch)
        ]
        for batch in range(4)
    ]


_REQUESTS = [
    {"op": "since", "seq": 0},
    {"op": "since", "seq": 7, "limit": 5},
    {"op": "recent", "count": 6},
    {"op": "query", "path_prefix": "/a"},
    {"op": "query", "event_type": "modified", "since_time": 12.0},
    {"op": "query", "until_time": 25.0, "limit": 4},
    {"op": "last_seq"},
    {"op": "stats"},
]


def _answers(transport, shard, config, busy=lambda: False):
    """Feed *shard* the reports, then ask it every request in turn."""
    push = transport.push().connect(config.inbound_endpoint)
    for report in _reports():
        push.send(report)
    deadline = time.monotonic() + 20.0
    while shard.pump_once() or busy():
        assert time.monotonic() < deadline
        time.sleep(0.002)
    req = transport.req(timeout=10.0).connect(config.api_endpoint)
    return [req.request(r, serve=shard.serve_api_once) for r in _REQUESTS]


class TestStoreHalf:
    def test_child_answers_like_an_in_process_aggregator(self):
        config = AggregatorConfig(
            inbound_endpoint="inproc://half.reports",
            publish_endpoint="inproc://half.events",
            api_endpoint="inproc://half.api",
            store_max_events=20,
            trace_sample_rate=0.0,
        )
        context = Context()
        aggregator = Aggregator(
            context, config, registry=MetricsRegistry(), name="s0"
        )
        transport = MultiprocTransport()
        bridge = transport.process_shard("s0", config, relay_interval=0)
        try:
            expected = _answers(context, aggregator, config)
            got = _answers(
                transport, bridge, config, busy=lambda: bridge.busy
            )
        finally:
            aggregator.close()
            context.close()
            transport.close()
        assert got[:-1] == expected[:-1]
        assert got[0] and got[3] and got[4] and got[-2] == 26
        stats, inproc_stats = got[-1], expected[-1]
        assert set(stats) == set(inproc_stats) - _PUBLISH_HALF
        health = stats.pop("health")
        assert set(health) == set(inproc_stats.pop("health"))
        assert health["state"] == "running"
        assert stats == {key: inproc_stats[key] for key in stats}
        assert stats["events_stored"] == 26
        assert stats["store_rotated"] == 6
        assert stats["api_requests"] == len(_REQUESTS)
