"""The Ripple cloud service: reliable rule evaluation and action routing.

Paper §3: "A scalable cloud service processes events and orchestrates
the execution of actions.  Ripple emphasizes reliability ... Once an
event is reported it is immediately placed in a reliable SQS queue.
Serverless Lambda functions act on entries in this queue and remove them
once successfully processed.  A cleanup function periodically iterates
through the queue and initiates additional processing for events that
were unsuccessfully processed."

This module wires those pieces over :mod:`repro.cloudq`:

* :meth:`RippleService.report_event` → immediate enqueue (with optional
  fault injection to exercise agent-side report retries);
* a :class:`~repro.cloudq.ServerlessExecutor` evaluates queued events
  against the authoritative rule set and routes actions to agents;
* failed actions are retried up to a bound, then parked in
  ``failed_actions``;
* a :class:`~repro.cloudq.CleanupFunction` re-drives stalled entries.

Live mode is a :class:`~repro.runtime.Supervisor` composition: the
executor and the cleanup sweeper are supervised children sharing one
metrics registry, restarted if they crash, with uniform health via
:meth:`RippleService.health`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.cloudq import CleanupFunction, QueueService, ServerlessExecutor
from repro.core.events import FileEvent
from repro.errors import AgentNotFound, RippleError
from repro.metrics.registry import MetricsRegistry
from repro.ripple.actions import ActionRequest, ActionResult
from repro.ripple.agent import RippleAgent
from repro.ripple.rules import Action, Rule, RuleSet, Trigger
from repro.runtime import RestartPolicy, Supervisor
from repro.util.clock import Clock, WallClock
from repro.util.logging import get_logger


@dataclass(frozen=True)
class ServiceConfig:
    """Cloud-service knobs."""

    queue_name: str = "ripple-events"
    visibility_timeout: float = 30.0
    max_event_receives: int = 5
    lambda_concurrency: int = 2
    lambda_batch_size: int = 10
    max_action_attempts: int = 3
    cleanup_stall_threshold: float = 5.0
    cleanup_period: float = 10.0
    #: How crashed cloud-side services are restarted.
    restart_policy: RestartPolicy = field(default_factory=RestartPolicy)


class RippleService:
    """The cloud half of Ripple."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.clock = clock or WallClock()
        #: One registry shared by the service and its supervised workers.
        self.registry = registry or MetricsRegistry()
        self.metrics = self.registry.scoped("service")
        self.queues = QueueService(clock=self.clock)
        self.event_queue = self.queues.create_queue(
            self.config.queue_name,
            visibility_timeout=self.config.visibility_timeout,
            max_receives=self.config.max_event_receives,
            with_dead_letter=True,
        )
        self.supervisor = Supervisor(
            "ripple",
            policy=self.config.restart_policy,
            registry=self.registry,
        )
        self.executor = ServerlessExecutor(
            self.event_queue,
            self._process_event_entry,
            concurrency=self.config.lambda_concurrency,
            batch_size=self.config.lambda_batch_size,
            registry=self.registry,
        )
        self.cleanup = CleanupFunction(
            self.event_queue,
            stall_threshold=self.config.cleanup_stall_threshold,
            period=self.config.cleanup_period,
            registry=self.registry,
        )
        self.supervisor.add_child(self.executor)
        self.supervisor.add_child(self.cleanup)
        self.rules = RuleSet()
        self.agents: Dict[str, RippleAgent] = {}
        #: Simulated email outbox (email actions append here).
        self.outbox: list[dict[str, Any]] = []
        #: Completed action results, newest last.
        self.results: list[ActionResult] = []
        #: Actions that exhausted their retry budget.
        self.failed_actions: list[tuple[ActionRequest, ActionResult]] = []
        #: Optional fault hooks (tests): raise/True to simulate failures.
        self.report_fault: Optional[Callable[[str, FileEvent], bool]] = None
        self.dispatch_fault: Optional[Callable[[ActionRequest], bool]] = None
        # Counters (registry-backed; see the properties below).
        self._log = get_logger("ripple.service")
        self._events_accepted = self.metrics.counter("events_accepted")
        self._events_processed = self.metrics.counter("events_processed")
        self._actions_dispatched = self.metrics.counter("actions_dispatched")
        self._actions_retried = self.metrics.counter("actions_retried")
        self.metrics.gauge_fn(
            "queue_depth", lambda: self.event_queue.visible_depth
        )

    # -- counters (old attribute names kept readable) -------------------

    @property
    def events_accepted(self) -> int:
        return self._events_accepted.value

    @property
    def events_processed(self) -> int:
        return self._events_processed.value

    @property
    def actions_dispatched(self) -> int:
        return self._actions_dispatched.value

    @property
    def actions_retried(self) -> int:
        return self._actions_retried.value

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_agent(self, agent: RippleAgent) -> None:
        """Connect *agent* to this service and push its current rules.

        The existing slice goes out one :meth:`RippleAgent.add_rule` at
        a time, in ``RuleSet.for_agent`` order — the same path a later
        :meth:`add_rule` takes.
        """
        if agent.agent_id in self.agents:
            raise RippleError(f"duplicate agent id {agent.agent_id!r}")
        self.agents[agent.agent_id] = agent
        agent.service = self
        for rule in self.rules.for_agent(agent.agent_id):
            agent.add_rule(rule)

    def agent(self, agent_id: str) -> RippleAgent:
        """Look up a registered agent."""
        agent = self.agents.get(agent_id)
        if agent is None:
            raise AgentNotFound(f"no agent registered as {agent_id!r}")
        return agent

    def add_rule(
        self,
        trigger: Trigger,
        action: Action,
        name: str = "",
        owner: str = "anonymous",
    ) -> Rule:
        """Register a rule and distribute it to the triggering agent.

        The agent receives just this rule: one O(1) delta.
        """
        rule = self.rules.add(Rule(trigger=trigger, action=action, name=name, owner=owner))
        watching_agent = self.agents.get(trigger.agent_id)
        if watching_agent is not None:
            watching_agent.add_rule(rule)
        return rule

    def export_rules(self) -> str:
        """Render every registered rule in the WHEN/THEN DSL.

        The output round-trips through
        :func:`repro.ripple.dsl.install_rules`, so a service's policy
        set can be dumped, versioned and re-applied elsewhere.
        """
        from repro.ripple.dsl import format_rule

        return "\n\n".join(format_rule(rule) for rule in self.rules) + (
            "\n" if len(self.rules) else ""
        )

    def remove_rule(self, rule_id: int) -> None:
        """Delete a rule and drop it from the affected agent's filter set."""
        rule = self.rules.get(rule_id)
        self.rules.remove(rule_id)
        watching_agent = self.agents.get(rule.trigger.agent_id)
        if watching_agent is not None:
            watching_agent.remove_rule(rule)

    def set_rule_enabled(self, rule_id: int, enabled: bool) -> Rule:
        """Enable/disable a rule and refresh the affected agent.

        Goes through :meth:`RuleSet.set_enabled` (not direct attribute
        assignment) so the service's compiled index stays consistent,
        then tells the agent (:meth:`RippleAgent.rule_changed`) so its
        local index and filesystem watchers pick up the change.
        """
        rule = self.rules.set_enabled(rule_id, enabled)
        watching_agent = self.agents.get(rule.trigger.agent_id)
        if watching_agent is not None:
            watching_agent.rule_changed(rule)
        return rule

    # ------------------------------------------------------------------
    # Event intake (called by agents)
    # ------------------------------------------------------------------

    def report_event(
        self, agent_id: str, event: FileEvent, rule_ids: list[int]
    ) -> None:
        """Accept an event report; immediately enqueue it.

        Raises (simulating a transient network/service failure) when the
        ``report_fault`` hook fires — the agent retries.
        """
        if self.report_fault is not None and self.report_fault(agent_id, event):
            raise RippleError("injected report failure")
        self.event_queue.send(
            {"agent_id": agent_id, "event": event.to_dict(), "rule_ids": rule_ids}
        )
        self._events_accepted.inc()

    # ------------------------------------------------------------------
    # Lambda handler: evaluate + route
    # ------------------------------------------------------------------

    def _process_event_entry(self, entry: dict[str, Any]) -> None:
        event = FileEvent.from_dict(entry["event"])
        agent_id = entry["agent_id"]
        # Authoritative evaluation: the agent pre-filters, the service
        # re-evaluates against the current rule set (rules may have
        # changed between detection and processing).
        matching = self.rules.matching(agent_id, event)
        for rule in matching:
            request = ActionRequest(
                action_type=rule.action.action_type,
                agent_id=rule.action.agent_id,
                parameters=dict(rule.action.parameters),
                event=event,
                rule_id=rule.rule_id,
            )
            self._dispatch(request)
        self._events_processed.inc()

    def _dispatch(self, request: ActionRequest) -> None:
        if self.dispatch_fault is not None and self.dispatch_fault(request):
            raise RippleError("injected dispatch failure")
        target = self.agents.get(request.agent_id)
        if target is None:
            raise AgentNotFound(
                f"action routed to unknown agent {request.agent_id!r}"
            )
        target.enqueue_action(request)
        self._actions_dispatched.inc()

    # ------------------------------------------------------------------
    # Results and retries (called by agents)
    # ------------------------------------------------------------------

    def record_result(self, request: ActionRequest, result: ActionResult) -> None:
        """Record an action outcome; retry failures within the budget."""
        self.results.append(result)
        if result.success:
            return
        if request.attempts < self.config.max_action_attempts:
            self._actions_retried.inc()
            target = self.agents.get(request.agent_id)
            if target is not None:
                target.enqueue_action(request)
            return
        self._log.warning(
            "action %s (rule %d) failed permanently after %d attempts: %s",
            request.action_type, request.rule_id, request.attempts,
            result.detail,
        )
        self.failed_actions.append((request, result))

    # ------------------------------------------------------------------
    # Transfer routing (used by the transfer executor)
    # ------------------------------------------------------------------

    def deliver_file(self, agent_id: str, path: str, data: bytes) -> None:
        """Write *data* to *path* on the destination agent's filesystem."""
        self.agent(agent_id).write_file(path, data)

    # ------------------------------------------------------------------
    # Deterministic stepping / live operation
    # ------------------------------------------------------------------

    def step(self) -> int:
        """One synchronous processing round.

        Drains agent detection queues, processes one Lambda batch round
        and executes every routed action.  Returns the number of queue
        entries processed this round.
        """
        for agent in self.agents.values():
            agent.drain_detection()
        processed = self.executor.poll_once()
        for agent in self.agents.values():
            agent.execute_pending()
        return processed

    def run_until_quiet(self, max_rounds: int = 1000) -> int:
        """Step until no work remains (event queue empty, inboxes empty).

        Rule chains (pipelines) keep generating new events; this loops
        until the whole cascade settles.  Returns total entries processed.
        """
        total = 0
        for _ in range(max_rounds):
            processed = self.step()
            total += processed
            pending_actions = any(agent.inbox for agent in self.agents.values())
            if (
                processed == 0
                and not pending_actions
                and self.event_queue.visible_depth == 0
            ):
                # One more detection sweep in case actions created files.
                for agent in self.agents.values():
                    agent.drain_detection()
                if self.event_queue.visible_depth == 0:
                    break
        return total

    def start(self) -> None:
        """Start the supervised Lambda workers and cleanup sweeper."""
        self.supervisor.start()

    def stop(self) -> None:
        """Stop the supervision tree (workers flush, then stop)."""
        self.supervisor.stop()

    def shutdown(self) -> None:
        """Stop and release every supervised child."""
        self.supervisor.close()

    def health(self) -> dict:
        """Uniform per-service health for the cloud-side tree."""
        return self.supervisor.health()

    def stats(self) -> dict[str, Any]:
        """Service counters plus per-child health, from the registry."""
        return {
            **self.metrics.snapshot(),
            "services": self.supervisor.health()["services"],
        }
