"""The two workloads: namespaces, seeded op plans, filters and rules.

Each workload loads one likely optimisation target heavily and leaves it
nearly idle in the other (see ``perfbench/README.md``):

* ``flood`` — multiproc shards, segment-log store.  A quiet open loop of
  100 creates/s, whose latency is the stacked idle-backoff sleeps of the
  runtime's workers, then unthrottled creates in fixed-size bursts over
  deep paths whose parent directories repeat: cost sits in fid2path, the
  process bridge codec and the store append.
* ``query`` — 250 mixed ops/s open loop into a multi-tenant tree,
  inproc shards, segment-log store, 600 distinct-glob rules installed one
  at a time, and a paced closed-loop REST reader: the read, fan-out and
  rule layers serve while writes continue.

An op plan is a deterministic function of the seed.  Every op yields
exactly one ChangeLog record and so one event, keyed by
``(event_type, path)``; the plan never reuses a key (a file is created,
written, renamed and unlinked at most once each, renames stay in one
directory so no companion ``RNMTO`` record is written, and every new
name is unique), so each delivered event or frame maps to one due time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

#: Event types the mixed-op rules trigger on (created/modified/moved/deleted).
MUTATIONS = ("created", "modified", "moved", "deleted")


@dataclass(frozen=True)
class Op:
    """One filesystem operation and the event key it must produce."""

    kind: str  # create | write | rename | unlink
    path: str
    dst: Optional[str] = None

    @property
    def key(self) -> tuple[str, str]:
        if self.kind == "create":
            return ("created", self.path)
        if self.kind == "write":
            return ("modified", self.path)
        if self.kind == "rename":
            return ("moved", self.dst)
        return ("deleted", self.path)


@dataclass(frozen=True)
class RuleSpec:
    """One Ripple rule: trigger prefix, glob and event types."""

    prefix: str
    pattern: str
    types: tuple[str, ...] = MUTATIONS


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # inproc | multiproc
    #: Open-loop rate (ops/s); ``None`` runs unthrottled bursts.
    rate: Optional[float]
    dirs: tuple[str, ...]
    #: ``plan(rng)`` yields the op stream for one run.
    plan: Callable[[random.Random], Iterator[Op]]
    #: Probe op ``k`` (setup ends when it has arrived everywhere).
    probe: Callable[[int], str]
    ws_filter: dict
    rest_filter: dict
    rules: tuple[RuleSpec, ...]
    #: Set-ups per untraced run (``setup_s`` is their median).
    setups: int = 3
    #: Flood only: an open loop at ``quiet_rate`` of ``quiet_plan`` ops
    #: for the first half of the run, with the REST prober running (the
    #: stream, action and REST metrics come from it), then
    #: ``burst_ops_per_second * seconds`` unthrottled ops in bursts of
    #: ``burst_ops``.
    quiet_plan: Optional[Callable[[random.Random], Iterator[Op]]] = None
    quiet_rate: float = 0.0
    burst_ops_per_second: int = 0
    burst_ops: int = 0


class _MixedPlanner:
    """Seeded create/write/rename/unlink stream with unique event keys."""

    def __init__(self, rng: random.Random, dirs, ext_for, weights) -> None:
        self.rng = rng
        self.dirs = dirs
        self.ext_for = ext_for
        self.weights = weights
        self.next_id = 0
        # file id -> [dir, name, written, renamed]
        self.files: dict[int, list] = {}
        self.writable: list[int] = []
        self.renamable: list[int] = []
        self.live: list[int] = []

    def _pick(self, pool: list[int], ok) -> Optional[int]:
        while pool:
            index = self.rng.randrange(len(pool))
            pool[index], pool[-1] = pool[-1], pool[index]
            fid = pool.pop()
            if fid in self.files and ok(self.files[fid]):
                return fid
        return None

    def __iter__(self) -> Iterator[Op]:
        kinds = ("create", "write", "rename", "unlink")
        while True:
            kind = self.rng.choices(kinds, self.weights)[0]
            if kind == "write":
                fid = self._pick(self.writable, lambda f: not f[2])
                if fid is not None:
                    entry = self.files[fid]
                    entry[2] = True
                    yield Op("write", f"{entry[0]}/{entry[1]}")
                    continue
            elif kind == "rename":
                fid = self._pick(self.renamable, lambda f: not f[3])
                if fid is not None:
                    entry = self.files[fid]
                    src = f"{entry[0]}/{entry[1]}"
                    ext = entry[1].rsplit(".", 1)[1]
                    entry[1] = f"m{fid}.{ext}"
                    entry[3] = True
                    yield Op("rename", src, f"{entry[0]}/{entry[1]}")
                    continue
            elif kind == "unlink":
                fid = self._pick(self.live, lambda f: True)
                if fid is not None:
                    entry = self.files.pop(fid)
                    yield Op("unlink", f"{entry[0]}/{entry[1]}")
                    continue
            fid = self.next_id
            self.next_id += 1
            dir_index = self.rng.randrange(len(self.dirs))
            name = f"f{fid}.{self.ext_for(self.rng, dir_index)}"
            self.files[fid] = [self.dirs[dir_index], name, False, False]
            self.writable.append(fid)
            self.renamable.append(fid)
            self.live.append(fid)
            yield Op("create", f"{self.dirs[dir_index]}/{name}")


# -- flood --------------------------------------------------------------------

FLOOD_DIRS = tuple(
    f"/f/a{a}/b{b}/c{c}/leaf"
    for a in range(4) for b in range(4) for c in range(4)
)
FLOOD_QUIET_DIRS = tuple(f"/f/q{a}/r{b}/leaf" for a in range(2) for b in range(4))


def _flood_plan(rng: random.Random) -> Iterator[Op]:
    index = 0
    while True:
        directory = FLOOD_DIRS[rng.randrange(len(FLOOD_DIRS))]
        yield Op("create", f"{directory}/x{index}.raw")
        index += 1


def _flood_quiet_plan(rng: random.Random) -> Iterator[Op]:
    index = 0
    while True:
        directory = FLOOD_QUIET_DIRS[rng.randrange(len(FLOOD_QUIET_DIRS))]
        yield Op("create", f"{directory}/y{index}.h5")
        index += 1


FLOOD = Workload(
    name="flood",
    transport="multiproc",
    rate=None,
    dirs=FLOOD_DIRS + FLOOD_QUIET_DIRS + ("/f/probe",),
    plan=_flood_plan,
    probe=lambda k: f"/f/probe/probe{k}.h5",
    ws_filter={"prefix": "/f", "pattern": "*.h5"},
    rest_filter={"prefix": "/f/q0"},
    rules=(RuleSpec("/f", "*.h5", ("created",)),),
    setups=5,
    quiet_plan=_flood_quiet_plan,
    quiet_rate=100.0,
    burst_ops_per_second=2500,
    burst_ops=10_000,
)


# -- query --------------------------------------------------------------------

QUERY_TENANTS = 10
QUERY_RULES = 600
QUERY_DIRS = tuple(
    f"/q/t{t:02d}/d{d}" for t in range(QUERY_TENANTS) for d in range(4)
)


def _query_plan(rng: random.Random) -> Iterator[Op]:
    per_tenant = QUERY_RULES // QUERY_TENANTS

    # Half the names carry one of the tenant's rule extensions and rules
    # fire on creates (40 % of ops), so 1 op in 5 matches: at 250 ops/s an
    # action is due every ~20 ms, often enough that the executor's idle
    # backoff stays short and action latency repeats run to run (at 1 in
    # 10 it did not).
    def ext(r: random.Random, dir_index: int) -> str:
        tenant = dir_index // 4
        if r.random() < 0.5:
            return f"e{tenant + QUERY_TENANTS * r.randrange(per_tenant)}"
        return f"n{r.randrange(20)}"

    return iter(_MixedPlanner(rng, QUERY_DIRS, ext, (40, 25, 20, 15)))


QUERY = Workload(
    name="query",
    transport="inproc",
    rate=250.0,
    dirs=QUERY_DIRS,
    plan=_query_plan,
    probe=lambda k: f"/q/t03/d0/probe{k}.e3",
    ws_filter={"prefix": "/q/t03"},
    rest_filter={"prefix": "/q/t07"},
    rules=tuple(
        RuleSpec(f"/q/t{k % QUERY_TENANTS:02d}", f"*.e{k}", ("created",))
        for k in range(QUERY_RULES)
    ),
)

WORKLOADS = {w.name: w for w in (FLOOD, QUERY)}
