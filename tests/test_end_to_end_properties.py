"""End-to-end property tests: the monitor's output matches ground truth.

The strongest invariant in the system: for ANY operation sequence, the
paths the monitor reports must be the paths the operations actually
touched, in order — regardless of batching, caching, read-batch sizes
or DNE layout.  This is what guards the path-cache invalidation logic
(a stale cache produces silently wrong paths, the worst failure mode a
monitoring system can have).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CollectorConfig, LustreMonitor, MonitorConfig, ProcessorConfig
from repro.core.events import EventType
from repro.lustre import DnePolicy, LustreFilesystem
from repro.util.clock import ManualClock

_dirnames = st.sampled_from(["d0", "d1", "d2"])
_filenames = st.sampled_from(["a", "b", "c"])

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("create"), _dirnames, _filenames),
        st.tuples(st.just("write"), _dirnames, _filenames),
        st.tuples(st.just("unlink"), _dirnames, _filenames),
        st.tuples(st.just("rename_file"), _dirnames, _filenames),
        st.tuples(st.just("rename_dir"), _dirnames, _filenames),
    ),
    max_size=40,
)

_processor_configs = st.sampled_from(
    [
        {"batch_size": 1, "cache_size": 0},
        {"batch_size": 8, "cache_size": 0},
        {"batch_size": 1, "cache_size": 4},
        {"batch_size": 8, "cache_size": 4},
        {"batch_size": 64, "cache_size": 512},
    ]
)


class TestMonitorPathsMatchGroundTruth:
    @settings(max_examples=50, deadline=None)
    @given(operations=_operations, processor=_processor_configs,
           read_batch=st.sampled_from([1, 3, 256]),
           num_shards=st.integers(min_value=1, max_value=3))
    def test_reported_paths_equal_applied_paths(
        self, operations, processor, read_batch, num_shards
    ):
        fs = LustreFilesystem(
            clock=ManualClock(), num_mds=2, dne_policy=DnePolicy.HASH
        )
        monitor = LustreMonitor(
            fs,
            MonitorConfig(
                num_shards=num_shards,
                collector=CollectorConfig(
                    read_batch=read_batch,
                    processor=ProcessorConfig(**processor),
                )
            ),
        )
        observed = []
        monitor.subscribe(
            lambda seq, ev: observed.append(
                (ev.event_type, ev.path, ev.old_path)
            )
        )
        # Apply operations, recording ground truth as we go.  Directory
        # names get version suffixes when renamed, so paths stay unique.
        expected = []
        dir_version = {name: 0 for name in ("d0", "d1", "d2")}

        def dirpath(name):
            version = dir_version[name]
            return f"/{name}" if version == 0 else f"/{name}.v{version}"

        for name in ("d0", "d1", "d2"):
            fs.mkdir(f"/{name}")
            expected.append((EventType.CREATED, f"/{name}", None))
            monitor.drain()

        # Drain after every operation: fid2path resolution then happens
        # while the namespace matches the record, so ground truth is
        # the operation-time path.  (A final-only drain would resolve
        # parents to their *current* paths — also correct behaviour,
        # but with different expectations; see the docstring.)  One
        # operation per drain also makes the delivery order the
        # operation order with several shards, which publish in shard
        # order within a drain.  Caches
        # persist across drains, so directory renames processed in one
        # drain must invalidate entries used by the next — the exact
        # staleness hazard this property guards.
        for op, dname, fname in operations:
            base = dirpath(dname)
            path = f"{base}/{fname}"
            if op == "create":
                if not fs.exists(path):
                    fs.create(path)
                    expected.append((EventType.CREATED, path, None))
            elif op == "write":
                if fs.exists(path):
                    fs.write(path, 64)
                    expected.append((EventType.MODIFIED, path, None))
            elif op == "unlink":
                if fs.exists(path):
                    fs.unlink(path)
                    expected.append((EventType.DELETED, path, None))
            elif op == "rename_file":
                target = f"{base}/{fname}.renamed"
                if fs.exists(path) and not fs.exists(target):
                    fs.rename(path, target)
                    expected.append((EventType.MOVED, target, path))
            elif op == "rename_dir":
                old = dirpath(dname)
                dir_version[dname] += 1
                new = dirpath(dname)
                fs.rename(old, new)
                expected.append((EventType.MOVED, new, old))
            monitor.drain()
        # Cross-MDT renames may emit a companion RNMTO record; collapse
        # consecutive duplicates of the same move before comparing.
        deduped = []
        for entry in observed:
            if (
                deduped
                and entry[0] is EventType.MOVED
                and deduped[-1] == entry
            ):
                continue
            deduped.append(entry)
        assert deduped == expected
        assert monitor.stats().unresolved_events == 0
