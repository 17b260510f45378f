"""If-Trigger-Then-Action rules.

A :class:`Rule` pairs a :class:`Trigger` (the conditions under which the
action fires: monitored path, event types, filename pattern) with an
:class:`Action` (what to execute, on which agent, with what parameters).
The paper's example: "when an image file is created in a specific
directory of their laptop ... automatically analyzed and the results
replicated to their personal device".
"""

from __future__ import annotations

import fnmatch
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.events import EventType, FileEvent
from repro.errors import RuleValidationError
from repro.util.paths import normalize

#: Action types the stock executor registry understands.
KNOWN_ACTION_TYPES = frozenset(
    {"transfer", "email", "container", "command", "callable"}
)


@dataclass(frozen=True)
class Trigger:
    """The *If/Trigger* half of a rule.

    Parameters
    ----------
    agent_id:
        The agent whose events this trigger watches.
    path_prefix:
        Only events under this directory match.
    event_types:
        Normalized event kinds that match (default: created only, the
        most common data-ingestion trigger).
    name_pattern:
        ``fnmatch`` glob applied to the file name (e.g. ``*.tiff``).
    include_directories:
        Whether directory events can match (default files only).
    """

    agent_id: str
    path_prefix: str
    event_types: frozenset[EventType] = frozenset({EventType.CREATED})
    name_pattern: str = "*"
    include_directories: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "path_prefix", normalize(self.path_prefix))
        if not self.agent_id:
            raise RuleValidationError("trigger needs an agent_id")
        if not self.event_types:
            raise RuleValidationError("trigger needs at least one event type")

    def matches(self, event: FileEvent) -> bool:
        """True when *event* satisfies every trigger condition."""
        if event.event_type not in self.event_types:
            return False
        if event.is_dir and not self.include_directories:
            return False
        if not event.matches_prefix(self.path_prefix):
            return False
        name = event.name or (event.path or "").rsplit("/", 1)[-1]
        return fnmatch.fnmatch(name, self.name_pattern)


@dataclass(frozen=True)
class Action:
    """The *Then/Action* half of a rule.

    ``action_type`` selects the executor (transfer, email, container,
    command, callable); ``agent_id`` is the agent that runs it (actions
    are routed — the triggering agent and the executing agent may
    differ); ``parameters`` are executor-specific.
    """

    action_type: str
    agent_id: str
    parameters: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action_type not in KNOWN_ACTION_TYPES:
            raise RuleValidationError(
                f"unknown action type {self.action_type!r}; "
                f"known: {sorted(KNOWN_ACTION_TYPES)}"
            )
        if not self.agent_id:
            raise RuleValidationError("action needs an agent_id")


_rule_ids = itertools.count(1)


@dataclass
class Rule:
    """A complete If-Trigger-Then-Action rule."""

    trigger: Trigger
    action: Action
    name: str = ""
    owner: str = "anonymous"
    enabled: bool = True
    rule_id: int = field(default_factory=lambda: next(_rule_ids))

    def matches(self, event: FileEvent) -> bool:
        """True when this rule should fire for *event*."""
        return self.enabled and self.trigger.matches(event)

    def describe(self) -> str:
        """One-line human description (for logs and UIs)."""
        types = "/".join(sorted(t.value for t in self.trigger.event_types))
        return (
            f"rule {self.rule_id} ({self.name or 'unnamed'}): "
            f"IF {types} of {self.trigger.name_pattern!r} under "
            f"{self.trigger.path_prefix} on {self.trigger.agent_id} "
            f"THEN {self.action.action_type} on {self.action.agent_id}"
        )


class RuleSet:
    """An indexed collection of rules, filterable by agent and event.

    Rules are indexed by the trigger's agent so agents receive only the
    rules relevant to them (the paper: "Ripple rules are distributed to
    agents to inform the event filtering process").  Per-agent
    :class:`~repro.ripple.index.RuleIndex` compilations back
    :meth:`matching`, so one event costs a trie walk plus its candidate
    evaluations instead of a sweep over the agent's whole rule list;
    the indexes are maintained incrementally on add/remove/
    :meth:`set_enabled`.
    """

    def __init__(self) -> None:
        self._rules: dict[int, Rule] = {}
        #: Per-agent rule ids, insertion-ordered (dict keys, so a remove
        #: is O(1) and ``for_agent`` order is the add order).
        self._by_agent: dict[str, dict[int, None]] = {}
        #: Lazily-compiled per-agent matching indexes.
        self._indexes: dict[str, "RuleIndex"] = {}
        #: Insertion-order stamps: a rule disabled and later re-enabled
        #: keeps its original position in matching results.
        self._order: dict[int, int] = {}
        self._next_order = 0
        #: Op counter for :meth:`matching_linear` (benchmark comparisons).
        self.linear_rules_evaluated = 0

    def add(self, rule: Rule) -> Rule:
        """Register *rule*; returns it (with its id)."""
        if rule.rule_id in self._rules:
            raise RuleValidationError(f"duplicate rule id {rule.rule_id}")
        self._rules[rule.rule_id] = rule
        self._by_agent.setdefault(rule.trigger.agent_id, {})[rule.rule_id] = None
        self._order[rule.rule_id] = self._next_order
        self._next_order += 1
        index = self._indexes.get(rule.trigger.agent_id)
        if index is not None:
            index.add(rule, order=self._order[rule.rule_id])
        return rule

    def remove(self, rule_id: int) -> None:
        """Delete the rule with *rule_id* (unknown ids are an error)."""
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            raise RuleValidationError(f"no rule with id {rule_id}")
        agent_id = rule.trigger.agent_id
        bucket = self._by_agent[agent_id]
        del bucket[rule_id]
        if not bucket:
            # Leaving the emptied bucket behind would leak one dict entry
            # per agent ever referenced, forever, under rule churn.
            del self._by_agent[agent_id]
            self._indexes.pop(agent_id, None)
        self._order.pop(rule_id, None)
        index = self._indexes.get(agent_id)
        if index is not None:
            index.remove(rule)

    def set_enabled(self, rule_id: int, enabled: bool) -> Rule:
        """Enable/disable a rule, keeping the matching index current.

        This is the supported way to flip ``Rule.enabled`` on a rule
        that lives in a set: assigning the attribute directly bypasses
        the compiled index (a directly-disabled rule is still correctly
        rejected at evaluation time, but a directly-enabled one is not
        discovered until the set is rebuilt).
        """
        rule = self.get(rule_id)
        if rule.enabled == enabled:
            return rule
        rule.enabled = enabled
        index = self._indexes.get(rule.trigger.agent_id)
        if index is not None:
            index.set_enabled(rule, order=self._order.get(rule_id))
        return rule

    def get(self, rule_id: int) -> Rule:
        """The rule with *rule_id*."""
        try:
            return self._rules[rule_id]
        except KeyError:
            raise RuleValidationError(f"no rule with id {rule_id}") from None

    def for_agent(self, agent_id: str) -> list[Rule]:
        """Rules whose trigger watches *agent_id* (the agent's filter set)."""
        return [self._rules[rid] for rid in self._by_agent.get(agent_id, ())]

    def index_for(self, agent_id: str) -> "RuleIndex":
        """The compiled matching index for *agent_id* (built on demand)."""
        index = self._indexes.get(agent_id)
        if index is None:
            from repro.ripple.index import RuleIndex

            index = RuleIndex()
            for rid in self._by_agent.get(agent_id, ()):
                index.add(self._rules[rid], order=self._order[rid])
            self._indexes[agent_id] = index
        return index

    def matching(self, agent_id: str, event: FileEvent) -> list[Rule]:
        """Rules on *agent_id* that fire for *event* (compiled path)."""
        if agent_id not in self._by_agent:
            return []
        return self.index_for(agent_id).matching(event)

    def matching_linear(self, agent_id: str, event: FileEvent) -> list[Rule]:
        """The reference linear sweep :meth:`matching` must agree with.

        Kept for the equivalence property test and the indexed-vs-linear
        ablation benchmark; ``linear_rules_evaluated`` counts the full
        evaluations it pays (one per installed rule per event).
        """
        rules = self.for_agent(agent_id)
        self.linear_rules_evaluated += len(rules)
        return [rule for rule in rules if rule.matches(event)]

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(list(self._rules.values()))

    def watched_prefixes(self, agent_id: str) -> list[str]:
        """Distinct path prefixes the agent must monitor (watcher setup).

        Disabled rules are excluded: a watcher (or Lustre subscription)
        for a rule that can never fire is pure overhead.
        """
        prefixes = {
            rule.trigger.path_prefix
            for rule in self.for_agent(agent_id)
            if rule.enabled
        }
        return sorted(prefixes)
