"""Outside-in span tracer: wraps public layer entry points from the outside.

Nothing under ``src/`` is instrumented.  :meth:`SpanTracer.install`
replaces class attributes (and a few module-level codec functions) with
timing wrappers *before* the system is built, because worker specs bind
methods at construction (``Aggregator.__init__`` puts ``self.pump_once``
into its ``WorkerSpec``).  :meth:`SpanTracer.uninstall` puts the
originals back.

Every call of a wrapped function is a span: name, start, end and parent
span, the parent found through a per-thread span stack.  A span's self
time is its duration minus the time its child spans cover, so for
example ``Collector.poll_once`` is charged without the
``FidResolver.resolve_many`` calls it makes.  Per (name, parent name)
the tracer accumulates calls, calls that did work (a truthy, non-zero
result), the work total (an integer result, or a list's length), self
wall time and self thread-CPU time.  Spans themselves are kept in
memory, up to ``max_spans``, and written out by :meth:`dump` when the
run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from itertools import count

#: (owner module, owner attribute path, span name) for every wrapped
#: entry point, grouped by layer.  Module-level codec functions are
#: patched in every module that imported them by name.
CLASS_TARGETS = (
    ("repro.lustre.filesystem", "LustreFilesystem", "create"),
    ("repro.lustre.filesystem", "LustreFilesystem", "write"),
    ("repro.lustre.filesystem", "LustreFilesystem", "rename"),
    ("repro.lustre.filesystem", "LustreFilesystem", "unlink"),
    ("repro.lustre.fid2path", "FidResolver", "resolve_many"),
    ("repro.lustre.fid2path", "FidResolver", "resolve"),
    ("repro.core.collector", "Collector", "poll_once"),
    ("repro.msgq.multiproc", "ProcessShardBridge", "pump_once"),
    ("repro.core.aggregator", "Aggregator", "pump_once"),
    ("repro.core.aggregator", "Aggregator", "serve_api_once"),
    ("repro.core.store", "EventStore", "extend"),
    ("repro.core.store", "EventStore", "since"),
    ("repro.core.store", "EventStore", "query"),
    ("repro.core.consumer", "Consumer", "poll_once"),
    ("repro.ripple.index", "RuleIndex", "matching_batch"),
    ("repro.ripple.rules", "RuleSet", "matching"),
    ("repro.ripple.agent", "RippleAgent", "ingest_batch"),
    ("repro.ripple.agent", "RippleAgent", "execute_pending"),
    ("repro.ripple.service", "RippleService", "add_rule"),
    ("repro.cloudq.serverless", "ServerlessExecutor", "poll_once"),
    ("repro.gateway.hub", "StreamHub", "publish_entries"),
    ("repro.cluster.client", "ClusterClient", "page"),
    ("repro.cluster.client", "ClusterClient", "stats"),
    # Client side of the load generator, so its CPU is attributed too.
    ("repro.gateway.wsclient", "GatewayClient", "request"),
    ("repro.gateway.wsclient", "WsStream", "pump"),
)

#: Codec entry points: (defining module, function, importing modules).
FUNCTION_TARGETS = (
    ("repro.msgq.framing", "encode_report", ("repro.msgq.multiproc",)),
    ("repro.msgq.framing", "decode_report", ("repro.msgq.multiproc",)),
    ("repro.msgq.framing", "encode_entries", ("repro.msgq.multiproc",)),
    ("repro.msgq.framing", "decode_entries", ("repro.msgq.multiproc",)),
    ("repro.msgq.framing", "pack_entry", ("repro.core.storage.segments",)),
    ("repro.msgq.framing", "unpack_entry", ("repro.core.storage.segments",)),
)

CODEC_SPANS = tuple(f"framing.{name}" for _mod, name, _users in FUNCTION_TARGETS)


def _work_of(result) -> int:
    """Work a step reported: an int, a list's length, or truthiness."""
    if isinstance(result, bool):
        return int(result)
    if isinstance(result, int):
        return result
    if isinstance(result, (list, tuple, dict)):
        return len(result)
    return 1 if result else 0


class _Stat:
    __slots__ = ("calls", "useful", "work", "wall_ns", "self_ns", "self_cpu_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.useful = 0
        self.work = 0
        self.wall_ns = 0
        self.self_ns = 0
        self.self_cpu_ns = 0


class SpanTracer:
    """Per-thread span stacks over wrapped layer entry points."""

    def __init__(self, max_spans: int = 200_000) -> None:
        self.max_spans = max_spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = count(1)
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh accounting window (spans and aggregates)."""
        with self._lock:
            self.stats: dict[tuple[str, str | None], _Stat] = defaultdict(_Stat)
            self.spans: list[tuple] = []
            self.spans_dropped = 0
            self.idle_polls = 0
            self.polls = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        """Wrap *fn* so each call is recorded as a span called *name*."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            # frame: [id, name, child wall ns, child cpu ns]
            frame = [next(tracer._ids), name, 0, 0]
            stack.append(frame)
            cpu0 = time.thread_time_ns()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                cpu = time.thread_time_ns() - cpu0
                stack.pop()
                wall = end - start
                if parent is not None:
                    parent[2] += wall
                    parent[3] += cpu
                tracer._record(
                    frame, parent, start, end, wall, cpu, _work_of(result)
                )

        return traced

    def _record(self, frame, parent, start, end, wall, cpu, work) -> None:
        key = (frame[1], parent[1] if parent is not None else None)
        with self._lock:
            stat = self.stats[key]
            stat.calls += 1
            if work:
                stat.useful += 1
                stat.work += work
            stat.wall_ns += wall
            stat.self_ns += wall - frame[2]
            stat.self_cpu_ns += cpu - frame[3]
            if len(self.spans) < self.max_spans:
                self.spans.append((
                    frame[0], frame[1], start, end,
                    parent[0] if parent is not None else None,
                    threading.current_thread().name,
                ))
            else:
                self.spans_dropped += 1

    def _count_poll(self, step):
        tracer = self

        @functools.wraps(step)
        def counted(*args, **kwargs):
            result = step(*args, **kwargs)
            with tracer._lock:
                tracer.polls += 1
                if not result:
                    tracer.idle_polls += 1
            return result

        return counted

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call before the system is constructed."""
        import importlib
        from dataclasses import replace

        from repro.runtime import service as service_module

        for module_name, class_name, attr in CLASS_TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.span(f"{class_name}.{attr}", original))
        for module_name, name, users in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            wrapped = self.span(f"framing.{name}", original)
            for target in (module_name, *users):
                target_module = importlib.import_module(target)
                self._patched.append(
                    (target_module, name, getattr(target_module, name))
                )
                setattr(target_module, name, wrapped)
        # runtime: count every worker step that returned no work.
        service_cls = service_module.Service
        run_worker = service_cls.__dict__["_run_worker"]
        tracer = self

        @functools.wraps(run_worker)
        def counting_run_worker(service, spec):
            if spec.interval is None:
                spec = replace(spec, step=tracer._count_poll(spec.step))
            return run_worker(service, spec)

        self._patched.append((service_cls, "_run_worker", run_worker))
        service_cls._run_worker = counting_run_worker

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def total(self, name: str, parents=None) -> _Stat:
        """Sum of the stats of span *name* (optionally under *parents*)."""
        out = _Stat()
        with self._lock:
            items = list(self.stats.items())
        for (span_name, parent), stat in items:
            if span_name != name:
                continue
            if parents is not None and parent not in parents:
                continue
            out.calls += stat.calls
            out.useful += stat.useful
            out.work += stat.work
            out.wall_ns += stat.wall_ns
            out.self_ns += stat.self_ns
            out.self_cpu_ns += stat.self_cpu_ns
        return out

    def self_cpu_seconds(self) -> float:
        """Thread-CPU time inside any span, children not double-counted."""
        with self._lock:
            return sum(s.self_cpu_ns for s in self.stats.values()) / 1e9

    def dump(self, path: str, meta: dict) -> None:
        """Write the recorded spans and aggregates as JSON lines."""
        with self._lock:
            spans = list(self.spans)
            stats = list(self.stats.items())
            dropped = self.spans_dropped
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**meta, "spans_dropped": dropped}) + "\n")
            for (name, parent), stat in sorted(stats, key=lambda kv: str(kv[0])):
                out.write(json.dumps({
                    "aggregate": name, "parent": parent,
                    "calls": stat.calls, "useful": stat.useful,
                    "work": stat.work, "wall_ns": stat.wall_ns,
                    "self_ns": stat.self_ns, "self_cpu_ns": stat.self_cpu_ns,
                }) + "\n")
            for span_id, name, start, end, parent, thread in spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "thread": thread,
                }) + "\n")
