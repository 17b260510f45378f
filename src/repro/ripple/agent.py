"""The Ripple agent: event detection, rule filtering, action execution.

An agent is deployed per storage resource (paper §3).  It has three
responsibilities:

1. **Detect** events — on personal devices via the watchdog observer
   (:meth:`attach_local_filesystem`), on Lustre via a monitor
   subscription (:meth:`attach_lustre_monitor`).
2. **Filter** events against its active rules and **report** matches to
   the cloud service, retrying until the report is accepted ("agents
   repeatedly try to report events to the service").
3. **Execute** actions routed to it by the service (its execution
   component), against its local filesystem.

Filesystem access is abstracted so the same agent code runs over the
in-memory local filesystem and the Lustre model.

The agent is a :class:`~repro.runtime.Service`: live mode runs one
``pump`` worker, woken by every routed action, draining detection
sources and executing routed actions, and ``start()``/``stop()`` also
manage the attached watchdog observer.  Counters live in the agent's
metrics registry; the old attribute names (``events_reported`` etc.)
remain readable properties.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, TYPE_CHECKING

from repro.core.events import FileEvent
from repro.errors import ReproError, RippleError
from repro.fs.memfs import MemoryFilesystem
from repro.metrics.tracing import Tracer, make_tracer
from repro.fs.watchdog import FileSystemEvent, FileSystemEventHandler, Observer
from repro.lustre.filesystem import LustreFilesystem
from repro.ripple.actions import (
    ActionRequest,
    ActionResult,
    ExecutorRegistry,
    default_registry,
)
from repro.ripple.index import RuleIndex, eval_pressure
from repro.ripple.rules import Rule
from repro.runtime import Service, Wake, WorkerSpec
from repro.util.logging import get_logger
from repro.util.paths import is_ancestor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.watchdog import _Schedule
    from repro.ripple.service import RippleService


_log = get_logger("ripple.agent")


class _AgentHandler(FileSystemEventHandler):
    """Routes watchdog events into the agent's filter."""

    def __init__(self, agent: "RippleAgent") -> None:
        self.agent = agent

    def on_any_event(self, event: FileSystemEvent) -> None:
        if event.event_type == "overflow":
            self.agent._overflows.inc()
            return
        self.agent.ingest_event(FileEvent.from_watchdog(event))


class RippleAgent(Service):
    """One deployable Ripple agent."""

    def __init__(
        self,
        agent_id: str,
        filesystem: MemoryFilesystem | LustreFilesystem | None = None,
        executors: ExecutorRegistry | None = None,
        max_report_retries: int = 5,
        registry=None,
        trace_sample_rate: float = 1.0,
    ) -> None:
        if not agent_id:
            raise RippleError("agent needs a non-empty id")
        super().__init__(
            f"agent-{agent_id}", registry, scope=f"agent.{agent_id}"
        )
        #: Stage tracer for the action path: sampled requests are
        #: stamped on enqueue and the ``action`` stage (inbox wait +
        #: execution) is recorded when they complete.
        self.tracer: Tracer = make_tracer(self.metrics, trace_sample_rate)
        self.agent_id = agent_id
        self.fs = filesystem if filesystem is not None else MemoryFilesystem()
        self.executors = executors or default_registry()
        self.max_report_retries = max_report_retries
        self.service: Optional["RippleService"] = None
        #: Optional action-rate limiter (a TokenBucket); when set,
        #: execute_pending() defers work once tokens run out instead of
        #: letting a rule storm starve the host.
        self.rate_limiter = None
        #: The agent's rules by id, in the order the service pushed them.
        self._rules: dict[int, Rule] = {}
        #: Compiled matching engine over the active rules, kept for the
        #: agent's lifetime (:meth:`add_rule`, :meth:`remove_rule` and
        #: :meth:`rule_changed` apply one-rule deltas to it); every
        #: detected event is filtered through its path trie instead of a
        #: linear sweep of the rules.
        self.rule_index = RuleIndex()
        self.observer: Optional[Observer] = None
        self._handler = _AgentHandler(self)
        #: Watched prefixes and their observer schedules (never nested).
        self._schedules: dict[str, "_Schedule"] = {}
        #: Prefix -> ids of the enabled rules on it.  A prefix is
        #: watched while it has one, by its own watcher or an
        #: ancestor's.
        self._enabled_on: dict[str, set[int]] = {}
        #: Enabled rules' prefixes not placed yet (no directory yet).
        self._pending_prefixes: set[str] = set()
        self._monitor_consumer = None
        self._storage_monitor = None
        #: Action requests routed to this agent, awaiting execution.
        self.inbox: Deque[ActionRequest] = deque()
        # Rung by enqueue_action so the pump runs an action at once.
        self._wake = Wake()
        #: Named container images and callables available to actions.
        self.containers: Dict[str, Callable] = {}
        self.callables: Dict[str, Callable] = {}
        # Counters (registry-backed; see the properties below).
        self._events_seen = self.metrics.counter("events_seen")
        self._events_matched = self.metrics.counter("events_matched")
        self._events_reported = self.metrics.counter("events_reported")
        self._report_retries = self.metrics.counter("report_retries")
        self._reports_abandoned = self.metrics.counter("reports_abandoned")
        self._actions_executed = self.metrics.counter("actions_executed")
        self._action_failures = self.metrics.counter("action_failures")
        self._actions_deferred = self.metrics.counter("actions_deferred")
        self._overflows = self.metrics.counter("overflows")
        self.metrics.gauge_fn("inbox_depth", lambda: len(self.inbox))
        # Matching-engine op counters, surfaced from the index so the
        # hot path pays nothing extra (mirrors EventStore.events_scanned).
        self.metrics.gauge_fn(
            "candidates_considered",
            lambda: self.rule_index.candidates_considered,
        )
        self.metrics.gauge_fn(
            "rules_evaluated", lambda: self.rule_index.rules_evaluated
        )
        # The telemetry-facing ripple_* family: index size, pruning
        # volume, fused-evaluation volume, dirty-bucket recompiles, and
        # the evaluated/candidates pressure ratio the stock
        # rule-eval-pressure alert watches (0.0 below the floor).
        self.metrics.gauge_fn(
            "ripple_rules_indexed", lambda: len(self.rule_index)
        )
        self.metrics.gauge_fn(
            "ripple_candidates_considered",
            lambda: self.rule_index.candidates_considered,
        )
        self.metrics.gauge_fn(
            "ripple_rules_evaluated",
            lambda: self.rule_index.rules_evaluated,
        )
        self.metrics.gauge_fn(
            "ripple_program_recompiles",
            lambda: self.rule_index.program_recompiles,
        )
        self.metrics.gauge_fn(
            "ripple_eval_pressure", lambda: eval_pressure(self.rule_index)
        )

    # -- counters (old attribute names kept readable) -------------------

    @property
    def events_seen(self) -> int:
        return self._events_seen.value

    @property
    def events_matched(self) -> int:
        return self._events_matched.value

    @property
    def events_reported(self) -> int:
        return self._events_reported.value

    @property
    def report_retries(self) -> int:
        return self._report_retries.value

    @property
    def reports_abandoned(self) -> int:
        return self._reports_abandoned.value

    @property
    def actions_executed(self) -> int:
        return self._actions_executed.value

    @property
    def action_failures(self) -> int:
        return self._action_failures.value

    @property
    def actions_deferred(self) -> int:
        return self._actions_deferred.value

    @property
    def overflows(self) -> int:
        return self._overflows.value

    # ------------------------------------------------------------------
    # Detection wiring
    # ------------------------------------------------------------------

    def attach_local_filesystem(self) -> Observer:
        """Start watchdog-style observation of the agent's local fs.

        Watchers are placed per rule prefix: for the rules already
        installed now, for later ones as they arrive (:meth:`add_rule`).
        Returns the Observer for lifecycle control.
        """
        if not isinstance(self.fs, MemoryFilesystem):
            raise RippleError(
                "watchdog observation requires a local MemoryFilesystem"
            )
        if self.observer is None:
            self.observer = Observer(self.fs)
            for rule in self._rules.values():
                self._track_watcher(rule)
        return self.observer

    def attach_lustre_monitor(self, monitor) -> None:
        """Subscribe this agent to a :class:`~repro.core.LustreMonitor`.

        One subscription covers every aggregator shard of the monitor.
        It delivers whole published batches, so the agent
        filters each batch through the compiled index in one call
        (sharing trie walks across same-directory runs) instead of
        paying a full filter pass per event.
        """
        self._monitor_consumer = monitor.subscribe(
            lambda _seq, event: self.ingest_event(event),
            name=f"agent-{self.agent_id}",
            batch_callback=lambda entries: self.ingest_batch(
                [event for _seq, event in entries]
            ),
        )

    def attach_storage_monitor(self, monitor) -> None:
        """Feed this agent from a :class:`~repro.core.StorageMonitor`.

        The facade delivers plain events (no sequence numbers); drain it
        via :meth:`drain_detection` like any other source.
        """
        monitor.subscribe(self.ingest_event)
        self._storage_monitor = monitor

    def drain_detection(self) -> int:
        """Deterministically deliver pending watchdog/monitor events."""
        delivered = 0
        if self.observer is not None:
            delivered += self.observer.drain()
        if self._monitor_consumer is not None:
            delivered += self._monitor_consumer.poll_once()
        if self._storage_monitor is not None:
            delivered += self._storage_monitor.drain()
        return delivered

    # ------------------------------------------------------------------
    # Live operation (service runtime)
    # ------------------------------------------------------------------

    def pump_once(self) -> int:
        """One agent round: drain detection, execute routed actions."""
        moved = self.drain_detection()
        moved += len(self.execute_pending())
        return moved

    def worker_specs(self) -> list[WorkerSpec]:
        return [WorkerSpec("pump", self.pump_once, wake=self._wake)]

    def on_start(self) -> None:
        # The observer keeps its own pump; starting it here means a
        # started agent detects live without extra wiring.
        if self.observer is not None and not self.observer.running:
            self.observer.start()

    def on_stop(self) -> None:
        if self.observer is not None:
            self.observer.stop()
        self.pump_once()  # flush events detected before the stop

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @property
    def rules(self) -> list[Rule]:
        """The agent's rule slice, in ``RuleSet.for_agent`` order."""
        return list(self._rules.values())

    def add_rule(self, rule: Rule) -> None:
        """Install one rule pushed by the service.

        The live index compiles the rule's trigger (a disabled rule only
        gets its order stamp pinned), so installing N rules one by one
        costs N compilations and no walk of the slice.  On a
        locally observed filesystem the rule's prefix gets a watcher
        unless one already covers it — "the agent employs Watchers on
        each directory relevant to a rule".
        """
        self._rules[rule.rule_id] = rule
        self.rule_index.add(rule)
        self._track_watcher(rule)

    def remove_rule(self, rule: Rule) -> None:
        """Drop one rule the service deleted (and its watcher, with the
        last enabled rule on its prefix)."""
        self._rules.pop(rule.rule_id, None)
        self.rule_index.remove(rule)
        self._track_watcher(rule)

    def rule_changed(self, rule: Rule) -> None:
        """Apply a flipped ``enabled`` flag of one installed rule.

        The rule is re-indexed only when its flag disagrees with index
        membership; it keeps its order stamp across the round-trip.
        """
        if rule.enabled != (rule.rule_id in self.rule_index):
            self.rule_index.set_enabled(rule)
        self._track_watcher(rule)

    def _track_watcher(self, rule: Rule) -> None:
        """Count *rule* on its prefix, then place what can be placed.

        A prefix whose directory does not exist yet waits in
        ``_pending_prefixes`` and is retried on every later rule delta.
        A prefix left with no enabled rule loses its watcher (the
        agent's watch set follows its rules).
        """
        if self.observer is None:
            return
        prefix = rule.trigger.path_prefix
        ids = self._enabled_on.setdefault(prefix, set())
        if rule.enabled and rule.rule_id in self._rules:
            ids.add(rule.rule_id)
            self._pending_prefixes.add(prefix)
        else:
            ids.discard(rule.rule_id)
        if not ids:
            del self._enabled_on[prefix]
            self._pending_prefixes.discard(prefix)
            if prefix in self._schedules:
                self._unwatch(prefix)
        self._place_pending()

    def _place_pending(self) -> None:
        # Shortest first, so a covering prefix is placed before the
        # prefixes it covers are considered.
        for prefix in sorted(self._pending_prefixes, key=len):
            if not self._watched(prefix):
                if not self.fs.is_dir(prefix):
                    continue
                self._schedule(prefix)
            self._pending_prefixes.discard(prefix)

    def _unwatch(self, prefix: str) -> None:
        """Retire *prefix*'s watcher.  The nested prefixes it covered
        that still have enabled rules get watchers of their own first,
        so no event under them falls between two schedules."""
        schedule = self._schedules.pop(prefix)
        self._pending_prefixes.update(
            path for path in self._enabled_on if is_ancestor(prefix, path)
        )
        self._place_pending()
        self.observer.unschedule(schedule)

    def _watched(self, prefix: str) -> bool:
        """True when *prefix* or one of its ancestors has a watcher."""
        path = prefix
        while path not in self._schedules:
            if path == "/":
                return False
            path = path.rsplit("/", 1)[0] or "/"
        return True

    def _schedule(self, prefix: str) -> None:
        """Watch *prefix*, retiring the watchers it now covers.

        The observer hands the handler each event once per schedule
        whose root covers it, so a nested schedule left in place would
        run every action under it twice.  The new schedule goes in
        before the covered ones leave, so no event falls between them.
        """
        self._schedules[prefix] = self.observer.schedule(
            self._handler, prefix, recursive=True
        )
        for covered in [
            path for path in self._schedules
            if path != prefix and is_ancestor(prefix, path)
        ]:
            self.observer.unschedule(self._schedules.pop(covered))

    # ------------------------------------------------------------------
    # Event filtering and reporting
    # ------------------------------------------------------------------

    def ingest_event(self, event: FileEvent) -> None:
        """Filter one detected event and report it if any rule matches."""
        self._events_seen.inc()
        matched = self.rule_index.matching(event)
        if not matched:
            return
        self._events_matched.inc()
        self._report_with_retry(event, [rule.rule_id for rule in matched])

    def ingest_batch(self, events: list[FileEvent]) -> int:
        """Filter a whole detected batch in one compiled-index pass.

        The index's per-batch walk cache shares the trie descent across
        same-directory runs (the dominant shape of a detected burst),
        and a sampled ``rules.match`` latency observation is recorded
        per batch, not per event.  Returns the number of events that
        matched at least one rule.
        """
        if not events:
            return 0
        self._events_seen.inc(len(events))
        sampled = self.tracer.sample()
        start = self.tracer.now() if sampled else 0.0
        matches = self.rule_index.matching_batch(events)
        if sampled:
            self.tracer.record("rules.match", self.tracer.now() - start)
        reported = 0
        for event, matched in matches:
            if not matched:
                continue
            self._events_matched.inc()
            self._report_with_retry(
                event, [rule.rule_id for rule in matched]
            )
            reported += 1
        return reported

    def _report_with_retry(self, event: FileEvent, rule_ids: list[int]) -> None:
        if self.service is None:
            raise RippleError(f"agent {self.agent_id} is not registered")
        for attempt in range(self.max_report_retries + 1):
            try:
                self.service.report_event(self.agent_id, event, rule_ids)
            except ReproError:
                self._report_retries.inc()
                continue
            self._events_reported.inc()
            return
        self._reports_abandoned.inc()
        _log.warning(
            "agent %s abandoned the report of %s (rules %s) after %d attempts",
            self.agent_id, event.path, rule_ids, self.max_report_retries + 1,
        )

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------

    def enqueue_action(self, request: ActionRequest) -> None:
        """Accept a routed action request (called by the service)."""
        if request.created_ts is None and self.tracer.sample():
            request.created_ts = self.tracer.now()
        self.inbox.append(request)
        self._wake.set()

    def execute_pending(self) -> list[ActionResult]:
        """Execute every queued action; report results to the service."""
        results: list[ActionResult] = []
        while self.inbox:
            if self.rate_limiter is not None and not self.rate_limiter.take():
                # Out of tokens: leave the rest queued for the round
                # the next token allows.
                self._actions_deferred.inc()
                self._wake.ring_after(self.rate_limiter.delay_until_available())
                break
            request = self.inbox.popleft()
            request.attempts += 1
            try:
                executor = self.executors.get(request.action_type)
                result = executor(request, self)
            except Exception as exc:
                self._action_failures.inc()
                result = ActionResult(
                    request.request_id,
                    request.rule_id,
                    False,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            else:
                self._actions_executed.inc()
            if request.created_ts is not None and self.tracer.enabled:
                self.tracer.record(
                    "action", self.tracer.now() - request.created_ts
                )
            results.append(result)
            if self.service is not None:
                self.service.record_result(request, result)
        return results

    # ------------------------------------------------------------------
    # Filesystem abstraction (used by executors)
    # ------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        """True if *path* exists on the agent's filesystem."""
        return self.fs.exists(path)

    def read_file(self, path: str) -> bytes:
        """Read file content (Lustre files yield size-faithful zeros)."""
        if isinstance(self.fs, MemoryFilesystem):
            return self.fs.read(path)
        stat = self.fs.stat(path)
        return b"\x00" * stat.size

    def write_file(self, path: str, data: bytes) -> None:
        """Create/overwrite *path* with *data*, creating parents."""
        directory = path.rsplit("/", 1)[0] or "/"
        self.makedirs(directory)
        if isinstance(self.fs, MemoryFilesystem):
            self.fs.write(path, data)
        else:
            if not self.fs.exists(path):
                self.fs.create(path, size=len(data))
            else:
                self.fs.write(path, len(data))

    def delete_file(self, path: str) -> None:
        """Remove the file at *path*."""
        self.fs.unlink(path)

    def rename(self, src: str, dst: str) -> None:
        """Move *src* to *dst*."""
        self.fs.rename(src, dst)

    def makedirs(self, path: str) -> None:
        """Ensure directory *path* exists."""
        if path == "/":
            return
        if isinstance(self.fs, MemoryFilesystem):
            self.fs.makedirs(path, exist_ok=True)
        else:
            self.fs.makedirs(path)

    # ------------------------------------------------------------------
    # Extension points
    # ------------------------------------------------------------------

    def register_container(self, name: str, image: Callable) -> None:
        """Make container image *name* runnable by container actions."""
        self.containers[name] = image

    def register_callable(self, name: str, function: Callable) -> None:
        """Make *function* invokable by callable actions."""
        self.callables[name] = function
