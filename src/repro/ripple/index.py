"""The compiled rule-matching engine: a spine-fused path-trie automaton.

``RuleSet.matching`` and the agent filter are the system's hottest paths
— every detected event is checked against every installed rule, and the
ROADMAP's north star (millions of users, millions of rules) makes that
O(rules × events) product the first thing to collapse.  Robinhood makes
the same observation for policy engines over billions of entries, and
Icicle (PAPERS.md) for metadata indexing + real-time monitoring done
together: rule evaluation at scale needs purpose-built evaluation
structure, not just candidate pruning.

The engine has two layers:

* **The path-component trie** prunes by subtree: the node for
  ``/proj/ml`` holds the triggers whose prefix is exactly ``/proj/ml``,
  bucketed per :class:`~repro.core.events.EventType`.  Matching an
  event walks the components of its path (and ``old_path`` for MOVED
  events), surfacing the event-type bucket at every node on the way —
  rules watching unrelated subtrees are never touched.  Each node also
  carries a **subtree event-type mask** (the types present in its own
  buckets or any descendant's), so a walk stops descending the moment
  no deeper rule can care about the event's type.

* **The fused bucket program** collapses cost *within* a bucket — the
  nested-spine worst case, where every ancestor of the event's path
  holds rules and plain pruning degrades to the linear sweep.  Each
  bucket compiles (lazily, and recompiled only when dirtied) into a
  :class:`BucketProgram` that dedupes identical predicates
  ``(prefix, name_pattern, include_directories)`` across rules and
  tenants into one evaluation fanning out to every owning rule, then
  partitions the deduped predicates into a **literal-name hash map**
  (non-glob patterns resolved by one dict lookup), **one merged
  lookahead-alternation regex** per chunk of glob patterns (all
  matching globs discovered in a single regex pass, group → predicate),
  and a **match-all list** that skips name work entirely.  Buckets also
  carry cheap pruning masks — a first-byte set over their patterns and
  an "accepts directories" flag — so spine walks skip buckets that
  cannot possibly match *before* collecting them.

Matching stays byte-identical to the linear sweep
(``RuleSet.matching_linear`` is the oracle; the hypothesis equivalence
property in ``tests/test_rule_index.py`` pins it across overlapping
prefixes, globs, disabled rules, MOVED old-paths and rule churn):
surfaced predicates still re-verify the full prefix/directory
condition, matched owners are filtered by ``rule.enabled`` and returned
in rule-insertion order.

Operation counters mirror the :class:`~repro.core.store.EventStore`
discipline (``events_scanned``): ``candidates_considered`` counts rules
the trie walk surfaced, ``rules_evaluated`` counts deduped predicate
evaluations actually performed (the fused automaton's whole point is
``rules_evaluated ≪ candidates_considered`` when rules share
predicates), and ``program_recompiles`` counts dirty-bucket program
compilations.  The rule-matching micro-benchmark asserts the fused path
evaluates a small fraction of what the linear sweep pays — on the
nested spine too, not just on disjoint prefixes.
"""

from __future__ import annotations

import fnmatch
import re
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.core.events import EventType, FileEvent, prefix_probe

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.ripple.rules import Rule

__all__ = ["BucketProgram", "CompiledTrigger", "RuleIndex", "eval_pressure"]

#: Bit per event type for the per-node subtree masks.
_TYPE_BIT: Dict[EventType, int] = {
    event_type: 1 << i for i, event_type in enumerate(EventType)
}

#: fnmatch metacharacters — a pattern without them is a literal name.
_GLOB_RE = re.compile(r"[*?\[]")

#: Glob predicates fused per merged alternation regex.  Chunking keeps
#: individual compiled patterns (and their group counts) bounded while
#: still evaluating up to this many globs in one C-level regex pass.
_GLOB_CHUNK = 64

#: Candidate volume below which :func:`eval_pressure` reports 0.0 — a
#: handful of rules cannot meaningfully be "under pressure", and tiny
#: denominators would make the stock alert fire on healthy idle agents.
_PRESSURE_FLOOR = 4096


class CompiledTrigger:
    """One rule's trigger, pre-compiled for repeated matching.

    The prefix probe (``prefix + "/"``) and the cheap flag lookups are
    hoisted to construction time as slots.  Inside the index, compiled
    triggers are the *owner* records bucket programs fan out to, and
    the bucket programs resolve names through their own merged regexes
    — so the per-trigger name regex is compiled lazily, on the first
    :meth:`matches` call, and construction (one per rule install)
    compiles nothing.  :meth:`matches` remains the single-trigger
    reference evaluation (the gateway property tests and ad-hoc callers
    use it directly).
    """

    __slots__ = (
        "rule", "order", "prefix", "probe", "include_directories",
        "pattern", "_regex",
    )

    def __init__(self, rule: Rule, order: int) -> None:
        self.rule = rule
        #: Insertion order within the owning index; matching sorts by it
        #: so indexed results come back in the same order a linear sweep
        #: over the rule list would produce them.
        self.order = order
        trigger = rule.trigger
        self.prefix = trigger.path_prefix
        self.probe = prefix_probe(trigger.path_prefix)
        self.include_directories = trigger.include_directories
        #: The raw fnmatch pattern — the bucket program's dedup key.
        self.pattern = trigger.name_pattern
        #: The name regex, compiled by the first :meth:`matches` call;
        #: never compiled for ``"*"``, which matches every name.
        self._regex: Optional[re.Pattern] = None

    def matches(self, event: FileEvent, name: str) -> bool:
        """Full trigger evaluation for one surfaced candidate.

        The event-type condition is implied by the bucket the candidate
        came from; the prefix condition is re-checked with the
        precomputed probe so correctness never depends on the trie walk
        being exact over unnormalized paths.
        """
        rule = self.rule
        if not rule.enabled:
            return False
        if event.is_dir and not self.include_directories:
            return False
        if not event.matches_prefix(self.prefix, self.probe):
            return False
        if self.pattern == "*":
            return True
        regex = self._regex
        if regex is None:
            regex = self._regex = re.compile(fnmatch.translate(self.pattern))
        return regex.match(name) is not None


class _Predicate:
    """One deduped ``(prefix, pattern, include_directories)`` predicate.

    Identical predicates across rules (and tenants) collapse into one
    of these: the predicate is evaluated once per event and the result
    fans out to every owner trigger.  The name condition is resolved by
    the owning :class:`BucketProgram`'s partition (literal map / merged
    regex / match-all), so :meth:`evaluate` only re-verifies the
    prefix and directory conditions.
    """

    __slots__ = ("prefix", "probe", "include_directories", "pattern", "owners")

    def __init__(
        self, prefix: str, probe: str, include_directories: bool, pattern: str
    ) -> None:
        self.prefix = prefix
        self.probe = probe
        self.include_directories = include_directories
        self.pattern = pattern
        self.owners: List[CompiledTrigger] = []

    def evaluate(self, event: FileEvent) -> bool:
        if event.is_dir and not self.include_directories:
            return False
        return event.matches_prefix(self.prefix, self.probe)


class BucketProgram:
    """One bucket's triggers, fused into a three-way evaluation plan.

    Compiled from the raw trigger list of one ``(trie node, event
    type)`` bucket.  Construction dedupes identical predicates, then
    partitions them:

    * ``match_all`` — pattern ``"*"``: no name work at all;
    * ``literals`` — patterns without fnmatch metacharacters: the whole
      partition resolves with **one dict lookup** on the event name;
    * ``glob_chunks`` — remaining patterns merged into optional
      lookahead alternations ``(?:(?=(pat)))?…`` so **one regex pass**
      reports *every* matching glob via its capture group (a plain
      alternation would stop at the first).

    ``first_bytes``/``any_dirs`` are the bucket's pruning masks: the
    walk consults them before surfacing the bucket, so a spine node
    whose patterns cannot start with the event's first name byte (or
    that rejects directories outright) costs nothing.
    """

    __slots__ = (
        "match_all", "literals", "glob_chunks", "any_dirs", "first_bytes",
        "n_rules", "n_predicates",
    )

    def __init__(self, triggers: Iterable[CompiledTrigger]) -> None:
        predicates: Dict[Tuple[str, str, bool], _Predicate] = {}
        for trigger in triggers:
            key = (trigger.prefix, trigger.pattern, trigger.include_directories)
            predicate = predicates.get(key)
            if predicate is None:
                predicate = predicates[key] = _Predicate(
                    trigger.prefix, trigger.probe,
                    trigger.include_directories, trigger.pattern,
                )
            predicate.owners.append(trigger)
        self.match_all: List[_Predicate] = []
        self.literals: Dict[str, List[_Predicate]] = {}
        globs: List[_Predicate] = []
        any_dirs = False
        firsts: set = set()
        open_first = False
        for predicate in predicates.values():
            any_dirs = any_dirs or predicate.include_directories
            pattern = predicate.pattern
            if pattern == "*":
                self.match_all.append(predicate)
                open_first = True
            elif not _GLOB_RE.search(pattern):
                self.literals.setdefault(pattern, []).append(predicate)
                firsts.add(pattern[:1])
            else:
                globs.append(predicate)
                if pattern[0] in "*?[":
                    open_first = True  # conservative: any first byte
                else:
                    firsts.add(pattern[0])
        self.glob_chunks: List[Tuple[re.Pattern, List[_Predicate]]] = []
        for start in range(0, len(globs), _GLOB_CHUNK):
            chunk = globs[start:start + _GLOB_CHUNK]
            merged = "".join(
                "(?:(?=(%s)))?" % fnmatch.translate(predicate.pattern)
                for predicate in chunk
            )
            self.glob_chunks.append((re.compile(merged), chunk))
        self.any_dirs = any_dirs
        #: ``None`` = some predicate accepts any first byte; otherwise
        #: the set of first name characters that can possibly match.
        self.first_bytes: Optional[frozenset] = (
            None if open_first else frozenset(firsts)
        )
        self.n_predicates = len(predicates)
        self.n_rules = sum(
            len(predicate.owners) for predicate in predicates.values()
        )

    def evaluate(
        self, event: FileEvent, name: str
    ) -> Tuple[List[_Predicate], int]:
        """Predicates of this bucket matching *event*, plus how many
        full predicate evaluations resolving them cost."""
        matched: List[_Predicate] = []
        evaluated = 0
        for predicate in self.match_all:
            evaluated += 1
            if predicate.evaluate(event):
                matched.append(predicate)
        if self.literals:
            for predicate in self.literals.get(name, ()):
                evaluated += 1
                if predicate.evaluate(event):
                    matched.append(predicate)
        for regex, chunk in self.glob_chunks:
            groups = regex.match(name).groups()
            for hit, predicate in zip(groups, chunk):
                if hit is not None:
                    evaluated += 1
                    if predicate.evaluate(event):
                        matched.append(predicate)
        return matched, evaluated


class _TrieNode:
    """One path component: children + buckets + compiled programs.

    ``buckets`` (raw trigger lists per event type) are the source of
    truth; ``programs`` caches each bucket's compiled
    :class:`BucketProgram` and is invalidated per-bucket on mutation —
    the dirty-bucket recompile the tentpole requires (rule churn under
    one subtree never recompiles another's programs).  ``subtree_mask``
    ORs the event-type bits present in this node's buckets *or any
    descendant's*, maintained with ``subtree_counts`` so removals can
    clear bits exactly.
    """

    __slots__ = ("children", "buckets", "programs", "subtree_mask",
                 "subtree_counts")

    def __init__(self) -> None:
        self.children: Dict[str, "_TrieNode"] = {}
        self.buckets: Dict[EventType, List[CompiledTrigger]] = {}
        self.programs: Dict[EventType, BucketProgram] = {}
        self.subtree_mask = 0
        self.subtree_counts: Dict[EventType, int] = {}


def _match_name(event: FileEvent) -> str:
    """The name ``Trigger.matches`` applies the glob to, computed once.

    For MOVED events this is the *new* name (``event.name`` or the
    basename of ``path``) even when the rule's prefix only covers
    ``old_path`` — the linear oracle never looks at the old basename,
    so neither may the index's name partitions or first-byte masks.
    """
    return event.name or (event.path or "").rsplit("/", 1)[-1]


def eval_pressure(index: "RuleIndex", floor: int = _PRESSURE_FLOOR) -> float:
    """Evaluated/candidates ratio — the pruning-health alert signal.

    Near 0.0 means predicate dedup + fusion are collapsing candidate
    volume; near 1.0 at scale means installed rules share spines but
    not predicates and matching is tracking candidate volume.  Reports
    0.0 until *floor* candidates have been considered so small
    deployments (where 1 candidate → 1 evaluation is the healthy
    steady state) never trip the stock alert.
    """
    considered = index.candidates_considered
    if considered < floor:
        return 0.0
    return index.rules_evaluated / considered


class RuleIndex:
    """A compiled, incrementally-maintained index over a rule collection.

    Matching one event costs a trie walk over its path components plus
    one fused bucket-program evaluation per surfaced bucket —
    independent of how many rules watch *other* subtrees, and (via
    predicate dedup + the literal/merged-glob partitions) paying far
    fewer than one full evaluation per surfaced rule when rules stack
    on a shared spine.  Batch matching additionally reuses the
    per-directory walk across same-directory runs of a batch (the
    common shape of a detected burst); the walk cache composes with the
    fused programs — cached entries hold compiled programs, and the
    per-event pruning masks are applied at assembly time.
    """

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._root = _TrieNode()
        self._compiled: Dict[int, CompiledTrigger] = {}
        #: Pinned order stamps for rules added while disabled, so a
        #: later enable lands at the rule's original insertion position
        #: and repeated disabled adds stay idempotent.
        self._disabled_orders: Dict[int, int] = {}
        self._order = 0
        #: Op counters, mirroring ``EventStore.events_scanned``:
        #: ``candidates_considered`` counts rules trie walks surfaced,
        #: ``rules_evaluated`` counts deduped predicate evaluations
        #: performed, ``program_recompiles`` counts dirty-bucket
        #: program compilations.  The micro-benchmark asserts evaluation
        #: cost stays O(distinct predicates on the ancestor chain), not
        #: O(total rules) — even when every rule shares one spine.
        self.candidates_considered = 0
        self.rules_evaluated = 0
        self.program_recompiles = 0
        for rule in rules:
            self.add(rule)

    def __len__(self) -> int:
        return len(self._compiled)

    def __contains__(self, rule_id: int) -> bool:
        return rule_id in self._compiled

    def __iter__(self) -> Iterator[Rule]:
        return iter(
            compiled.rule
            for compiled in sorted(
                self._compiled.values(), key=lambda c: c.order
            )
        )

    def reset_op_counters(self) -> None:
        """Zero the candidate/evaluation counters (benchmark hygiene).

        ``program_recompiles`` is deliberately left alone: it tracks
        index maintenance, not per-event matching work.
        """
        self.candidates_considered = 0
        self.rules_evaluated = 0

    # -- maintenance --------------------------------------------------------

    def _path_nodes(
        self, prefix: str, create: bool
    ) -> Optional[List[_TrieNode]]:
        """The nodes from the root to *prefix*'s node, inclusive."""
        node = self._root
        nodes = [node]
        if prefix == "/":
            return nodes
        for component in prefix[1:].split("/"):
            child = node.children.get(component)
            if child is None:
                if not create:
                    return None
                child = node.children[component] = _TrieNode()
            node = child
            nodes.append(node)
        return nodes

    @staticmethod
    def _adjust_subtree(
        nodes: List[_TrieNode], event_types: Iterable[EventType], delta: int
    ) -> None:
        """Shift the subtree type counts/masks along a prefix path."""
        for event_type in event_types:
            bit = _TYPE_BIT[event_type]
            for node in nodes:
                counts = node.subtree_counts
                count = counts.get(event_type, 0) + delta
                if count > 0:
                    counts[event_type] = count
                    node.subtree_mask |= bit
                else:
                    counts.pop(event_type, None)
                    node.subtree_mask &= ~bit

    def add(self, rule: Rule, order: Optional[int] = None) -> None:
        """Index *rule* (disabled rules are recorded, not indexed).

        *order* pins the rule's result position; callers that maintain
        their own insertion order (``RuleSet``) pass the original stamp
        so a rule that is disabled and later re-enabled keeps its place.
        A rule added while disabled has its stamp pinned on the *first*
        add — repeated disabled adds are idempotent and a later enable
        lands at the original insertion position, not wherever the
        order clock had drifted to.
        """
        rule_id = rule.rule_id
        if rule_id in self._compiled:
            return
        if not rule.enabled:
            if order is not None:
                self._disabled_orders[rule_id] = order
                self._order = max(self._order, order) + 1
            elif rule_id not in self._disabled_orders:
                self._disabled_orders[rule_id] = self._order
                self._order += 1
            return
        if order is None:
            order = self._disabled_orders.pop(rule_id, None)
            if order is None:
                order = self._order
        else:
            self._disabled_orders.pop(rule_id, None)
        self._order = max(self._order, order) + 1
        compiled = CompiledTrigger(rule, order)
        self._compiled[rule_id] = compiled
        nodes = self._path_nodes(compiled.prefix, create=True)
        node = nodes[-1]
        for event_type in rule.trigger.event_types:
            node.buckets.setdefault(event_type, []).append(compiled)
            node.programs.pop(event_type, None)  # dirty-bucket recompile
        self._adjust_subtree(nodes, rule.trigger.event_types, +1)

    def remove(self, rule: Rule) -> None:
        """Drop *rule* from the index (unknown rules are a no-op)."""
        self._disabled_orders.pop(rule.rule_id, None)
        compiled = self._compiled.pop(rule.rule_id, None)
        if compiled is None:
            return
        nodes = self._path_nodes(compiled.prefix, create=False)
        if nodes is None:  # pragma: no cover - defensive; add() built it
            return
        node = nodes[-1]
        for event_type in rule.trigger.event_types:
            bucket = node.buckets.get(event_type)
            if bucket is None:
                continue
            bucket[:] = [c for c in bucket if c is not compiled]
            if not bucket:
                del node.buckets[event_type]
            node.programs.pop(event_type, None)  # dirty-bucket recompile
        self._adjust_subtree(nodes, rule.trigger.event_types, -1)
        # Empty trie branches are left in place: prefixes repeat under
        # rule churn and re-creating nodes costs more than keeping them.

    def set_enabled(self, rule: Rule, order: Optional[int] = None) -> None:
        """Re-index *rule* after its ``enabled`` flag changed.

        Without an explicit *order*, the rule keeps its existing stamp
        across the disable/enable round-trip (pinned while disabled),
        so flipping a rule never reorders matching results.
        """
        if order is None:
            compiled = self._compiled.get(rule.rule_id)
            if compiled is not None:
                order = compiled.order
            else:
                order = self._disabled_orders.get(rule.rule_id)
        self.remove(rule)
        self.add(rule, order=order)

    # -- program access ------------------------------------------------------

    def _program(
        self, node: _TrieNode, event_type: EventType
    ) -> Optional[BucketProgram]:
        """The node's compiled program for *event_type* (lazy, cached)."""
        program = node.programs.get(event_type)
        if program is None:
            bucket = node.buckets.get(event_type)
            if not bucket:
                return None
            program = node.programs[event_type] = BucketProgram(bucket)
            self.program_recompiles += 1
        return program

    def _surface(
        self,
        node: _TrieNode,
        event_type: EventType,
        is_dir: bool,
        first: str,
        out: List[BucketProgram],
    ) -> None:
        """Append the node's program if its pruning masks allow *event*."""
        if event_type not in node.buckets:
            return
        program = self._program(node, event_type)
        if program is None:  # pragma: no cover - bucket emptied mid-walk
            return
        if is_dir and not program.any_dirs:
            return
        if program.first_bytes is not None and first not in program.first_bytes:
            return
        out.append(program)

    # -- matching ------------------------------------------------------------

    def _collect(
        self,
        path: str,
        event_type: EventType,
        is_dir: bool,
        first: str,
        out: List[BucketProgram],
        cache: Optional[dict] = None,
    ) -> None:
        """Append the surviving bucket programs for one candidate *path*.

        The walk visits the trie node of every ancestor of *path*
        (including the root and the terminal component) — exactly the
        prefixes that can satisfy ``matches_prefix`` — stopping early
        when a node's subtree mask shows no rule below it watches this
        event type, and skipping buckets whose pruning masks exclude
        the event before they are collected.  With *cache*, the walk up
        to the parent directory is memoized per ``(directory,
        event_type)`` — the cached entry holds compiled programs, and
        the per-event masks are applied at assembly time, so a batch of
        events in one directory pays for the walk once.
        """
        bit = _TYPE_BIT[event_type]
        root = self._root
        if not (root.subtree_mask & bit):
            return
        if not path.startswith("/"):
            # Relative/odd candidates only ever match the "/" prefix
            # (the special case in matches_prefix); nothing to walk.
            self._surface(root, event_type, is_dir, first, out)
            return
        if cache is None:
            self._surface(root, event_type, is_dir, first, out)
            node = root
            for component in path[1:].split("/"):
                node = node.children.get(component)
                if node is None or not (node.subtree_mask & bit):
                    return
                self._surface(node, event_type, is_dir, first, out)
            return
        head, _, terminal = path.rpartition("/")
        key = (head, event_type)
        hit = cache.get(key)
        if hit is None:
            base: List[BucketProgram] = []
            node: Optional[_TrieNode] = root
            if root.subtree_mask & bit:
                program = self._program(root, event_type)
                if program is not None:
                    base.append(program)
                if head:
                    for component in head[1:].split("/"):
                        node = node.children.get(component)
                        if node is None or not (node.subtree_mask & bit):
                            node = None
                            break
                        program = self._program(node, event_type)
                        if program is not None:
                            base.append(program)
            else:  # pragma: no cover - guarded by the caller's mask check
                node = None
            hit = cache[key] = (node, tuple(base))
        dir_node, base = hit
        for program in base:
            if is_dir and not program.any_dirs:
                continue
            if (
                program.first_bytes is not None
                and first not in program.first_bytes
            ):
                continue
            out.append(program)
        if dir_node is not None:
            terminal_node = dir_node.children.get(terminal)
            if terminal_node is not None and terminal_node.subtree_mask & bit:
                self._surface(terminal_node, event_type, is_dir, first, out)

    def _programs_for(
        self, event: FileEvent, name: str, cache: Optional[dict] = None
    ) -> List[BucketProgram]:
        """The bucket programs whose node lies on the event's ancestor
        chain(s) and whose pruning masks admit the event."""
        first = name[:1]
        out: List[BucketProgram] = []
        if event.path is not None:
            self._collect(
                event.path, event.event_type, event.is_dir, first, out, cache
            )
        if event.old_path is not None and event.old_path != event.path:
            if out:
                seen = set(map(id, out))
                extra: List[BucketProgram] = []
                self._collect(
                    event.old_path, event.event_type, event.is_dir, first,
                    extra, cache,
                )
                out.extend(p for p in extra if id(p) not in seen)
            else:
                self._collect(
                    event.old_path, event.event_type, event.is_dir, first,
                    out, cache,
                )
        self.candidates_considered += sum(p.n_rules for p in out)
        return out

    def candidates(
        self, event: FileEvent, cache: Optional[dict] = None
    ) -> List[CompiledTrigger]:
        """The triggers whose bucket can cover *event* (deduplicated).

        Kept for introspection and ad-hoc callers: the hot path works
        on whole bucket programs and never materialises this list.
        """
        out: List[CompiledTrigger] = []
        for program in self._programs_for(event, _match_name(event), cache):
            for predicate in program.match_all:
                out.extend(predicate.owners)
            for hits in program.literals.values():
                for predicate in hits:
                    out.extend(predicate.owners)
            for _regex, chunk in program.glob_chunks:
                for predicate in chunk:
                    out.extend(predicate.owners)
        return out

    def matching(
        self, event: FileEvent, cache: Optional[dict] = None
    ) -> List[Rule]:
        """Rules that fire for *event*, in rule-insertion order."""
        name = _match_name(event)
        programs = self._programs_for(event, name, cache)
        if not programs:
            return []
        matched: List[CompiledTrigger] = []
        evaluated = 0
        for program in programs:
            predicates, cost = program.evaluate(event, name)
            evaluated += cost
            for predicate in predicates:
                # One predicate evaluation fans out to every owner; the
                # per-owner enabled check keeps directly-disabled rules
                # (flipped without set_enabled) correctly rejected.
                matched.extend(
                    owner for owner in predicate.owners if owner.rule.enabled
                )
        self.rules_evaluated += evaluated
        if len(matched) > 1:
            matched.sort(key=lambda c: c.order)
        return [c.rule for c in matched]

    def matching_batch(
        self, events: Iterable[FileEvent]
    ) -> List[Tuple[FileEvent, List[Rule]]]:
        """Match a whole batch, sharing trie walks across the batch.

        Detected bursts are dominated by same-directory runs (one job
        writing many files into one output directory); the shared
        per-``(directory, event type)`` cache walks the trie once per
        run instead of once per event — and composes with the fused
        programs, since cached entries hold the compiled programs and
        only the cheap per-event masks are re-applied.
        """
        cache: dict = {}
        return [(event, self.matching(event, cache)) for event in events]
