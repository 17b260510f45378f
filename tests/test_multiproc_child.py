"""The spawned shard child: how it finds the package, and how it fails.

* A child is started with ``spawn``, which hands the parent's
  ``sys.path`` to the child before the target is unpickled; a parent
  that found ``repro`` by ``sys.path`` insertion (no ``PYTHONPATH``)
  must still be able to respawn killed children, without touching
  ``os.environ``.
* The child's metrics relay drops a snapshot only when its output
  queue is full; any other fault on that path kills the child loudly.
"""

import json
import os
import queue
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.aggregator import AggregatorConfig
from repro.msgq.multiproc import ShardChildSpec, _shard_main

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


def _run_child(inbox_frames, events_q):
    inbox_q = queue.Queue()
    for frame in inbox_frames:
        inbox_q.put(frame)
    spec = ShardChildSpec(
        shard_id="s0", config=AggregatorConfig(trace_sample_rate=0.0)
    )
    _shard_main(spec, inbox_q, events_q)


def _drain(events_q):
    frames = []
    while True:
        try:
            frames.append(events_q.get_nowait())
        except queue.Empty:
            return frames


class TestChildMetricsRelay:
    def test_relay_fault_kills_the_child_loudly(self, monkeypatch):
        def broken(state):
            raise RuntimeError("encoder broke")

        monkeypatch.setattr("repro.telemetry.relay.encode_state", broken)
        events_q = queue.Queue()
        with pytest.raises(RuntimeError, match="encoder broke"):
            _run_child([("relay",), ("stop",)], events_q)
        frames = _drain(events_q)
        assert ("crashed", "RuntimeError: encoder broke") in frames

    def test_full_output_queue_drops_the_snapshot(self):
        events_q = queue.Queue(maxsize=1)
        events_q.put(("occupied",))
        _run_child([("relay",), ("stop",)], events_q)
        assert _drain(events_q) == [("occupied",)]
