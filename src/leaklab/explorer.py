"""Exhaustive bounded exploration of program states and attacker knowledge.

The attacker model is possibilistic: an observation is the sequence of
printed payloads (with timestamps unless timing-blind), and the knowledge
set of an observation is the set of secret valuations that can produce it
under some schedule.  An observation leaks when its knowledge set is a
strict subset of the full secret domain.  A run cut short by a bound
yields only a prefix of an observation, which never witnesses a leak.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from . import lang, semantics
from .errors import LeakLabError

SecretValuation = tuple[tuple[str, semantics.Value], ...]


@dataclass(frozen=True)
class Observation:
    """What the attacker sees of one maximal execution."""

    events: tuple[tuple[str, Optional[int]], ...]  # (payload, timestamp or None)

    @property
    def letters(self) -> str:
        return " ".join(p for p, _ in self.events)

    def timing_blind(self) -> "Observation":
        return Observation(tuple((p, None) for p, _ in self.events))

    def sort_key(self):
        return tuple((p, -1 if t is None else t) for p, t in self.events)


@dataclass(frozen=True)
class ExploreBounds:
    max_steps: int = 200
    max_configs: int = 200_000
    timing_blind: bool = False
    observe_thread_ids: bool = False

    def __post_init__(self) -> None:
        if self.max_steps <= 0 or self.max_configs <= 0:
            raise LeakLabError("exploration bounds must be positive")


@dataclass(frozen=True)
class ExploreResult:
    """Observations of every run, and counts over distinct states.

    ``truncated`` counts the states cut at ``max_steps`` and ``deadlocked``
    the states where no thread can move.  ``prefixes`` holds the
    observations of runs cut short by ``max_steps`` or ``max_configs``:
    such a run could have printed more.
    """

    observations: frozenset[tuple[Observation, bool]]  # (observation, terminated?)
    complete: bool
    truncated: int
    deadlocked: int
    prefixes: frozenset[Observation]


@dataclass
class KnowledgeReport:
    secret_domain: tuple[SecretValuation, ...]
    knowledge: dict[Observation, frozenset[SecretValuation]]
    leaky: dict[Observation, bool]
    verdict: str  # "leak-found" | "no-leak" | "inconclusive"
    complete: bool
    timing_blind: bool

    def leaky_observations(self) -> list[Observation]:
        return sorted((o for o, f in self.leaky.items() if f),
                      key=Observation.sort_key)

    def to_json(self) -> dict:
        obs_rows = []
        for obs in sorted(self.knowledge, key=Observation.sort_key):
            obs_rows.append({
                "letters": obs.letters,
                "events": [
                    {"payload": p, "timestamp": t} if t is not None else {"payload": p}
                    for p, t in obs.events
                ],
                "knowledge": [dict(val) for val in sorted(self.knowledge[obs])],
                "leaky": self.leaky[obs],
            })
        return {
            "secret_domain": [dict(v) for v in self.secret_domain],
            "observations": obs_rows,
            "verdict": self.verdict,
            "complete": self.complete,
            "timing_blind": self.timing_blind,
        }


def secret_domain_of(program: lang.Program) -> tuple[SecretValuation, ...]:
    """Cartesian product of the declared secret variables' domains."""
    secrets = [d for d in program.declarations if d.secret]
    if not secrets:
        return ()
    combos = itertools.product(*(d.domain for d in secrets))
    return tuple(
        tuple(zip((d.name for d in secrets), combo)) for combo in combos
    )


def _project(trace: tuple[semantics.Event, ...],
             bounds: ExploreBounds) -> tuple[tuple[str, Optional[int]], ...]:
    """The attacker's view of some printed events."""
    return tuple(
        (f"{ev.thread}:{ev.payload}" if bounds.observe_thread_ids else ev.payload,
         None if bounds.timing_blind else ev.timestamp)
        for ev in trace)


# How a run ends.  Deadlocked and cut-short runs both end unterminated, but
# only a cut-short run could have printed more.
_DONE, _DEADLOCKED, _CUT = "done", "deadlocked", "cut"


def explore(program: lang.Program, init_public: semantics.Store,
            secret_val: dict, bounds: ExploreBounds,
            costs: semantics.CostModel = semantics.CostModel()) -> ExploreResult:
    """All observations reachable under any schedule, within bounds.

    A memoised depth-first search over program states.  A state is keyed
    by ``(residues, store, clock, steps_used)``, with ``None`` for the
    clock when timing-blind, and carries no trace or snapshots: each edge
    is labelled with the events its one step printed.  Every key maps to
    its set of ``(suffix events, ending)`` pairs, so a suffix shared by
    many schedules is derived once.  ``steps_used`` stays in the key, so
    the result, cut-short prefixes included, is the one that enumerating
    every schedule would give.  ``max_configs`` counts distinct keys; a
    key past it ends its run cut short, as ``max_steps`` does.
    """
    store = dict(program.initial_store())
    store.update(init_public)
    for name, value in secret_val.items():
        if value not in program.decl(name).domain:
            raise LeakLabError(f"secret value {name}={value!r} outside domain")
        store[name] = value
    start = semantics.initial_configuration(program, store)
    root = semantics.Configuration(start.residues, start.store, start.clock, (), ())

    def key_of(config: semantics.Configuration, steps_used: int) -> tuple:
        # Statements are unique labelled AST objects, so their identities
        # key a residue as its value would, without rehashing the AST.
        return (tuple(tuple(map(id, r)) for r in config.residues), config.store,
                None if bounds.timing_blind else config.clock, steps_used)

    suffixes: dict[tuple, frozenset] = {}
    pending: dict[tuple, list] = {}  # expanded keys: their (label, child key) edges
    configs = truncated = deadlocked = 0
    complete = True
    root_key = key_of(root, 0)
    stack = [(root_key, root)]
    while stack:
        key, config = stack.pop()
        if key in suffixes:
            continue
        edges = pending.pop(key, None)
        if edges is not None:  # every successor is done: merge their suffixes
            merged: set = set()
            for label, child in edges:
                if label:
                    merged.update((label + events, end) for events, end in suffixes[child])
                else:
                    merged.update(suffixes[child])
            suffixes[key] = frozenset(merged)
            continue
        steps_used = key[3]
        if configs >= bounds.max_configs:
            complete = False
            suffixes[key] = frozenset({((), _CUT)})
            continue
        configs += 1
        if config.all_done():
            suffixes[key] = frozenset({((), _DONE)})
            continue
        if steps_used >= bounds.max_steps:
            truncated += 1
            complete = False
            suffixes[key] = frozenset({((), _CUT)})
            continue
        choices = semantics.enabled(program, config)
        if not choices:
            deadlocked += 1
            suffixes[key] = frozenset({((), _DEADLOCKED)})
            continue
        edges = []
        children = []
        for choice in sorted(choices, key=lambda c: c.thread, reverse=True):
            nxt = semantics.step(program, config, choice, costs)
            label = _project(nxt.trace, bounds)
            nxt = semantics.Configuration(nxt.residues, nxt.store, nxt.clock, (), ())
            child = key_of(nxt, steps_used + 1)
            edges.append((label, child))
            if child not in suffixes:
                children.append((child, nxt))
        pending[key] = edges
        stack.append((key, config))
        stack.extend(children)

    runs = suffixes[root_key]
    return ExploreResult(
        observations=frozenset((Observation(events), end == _DONE)
                               for events, end in runs),
        complete=complete,
        truncated=truncated,
        deadlocked=deadlocked,
        prefixes=frozenset(Observation(events) for events, end in runs if end == _CUT),
    )


def knowledge_partition(program: lang.Program, init_public: semantics.Store,
                        secret_domain: Optional[tuple[SecretValuation, ...]],
                        bounds: ExploreBounds,
                        costs: semantics.CostModel = semantics.CostModel()) -> KnowledgeReport:
    """Knowledge set K(o) per observation o, and the leak verdict.

    An observation is leaky when some secret valuation ends a run with it
    (terminated or deadlocked) and another valuation cannot produce it:
    neither ends a run with it nor has a cut-short prefix of it that could
    still extend to it.  An observation only cut-short runs reach is a
    prefix, never a leak witness, so a bound can move the verdict toward
    ``inconclusive`` but never produce ``leak-found``.
    """
    if secret_domain is None:
        secret_domain = secret_domain_of(program)
    knowledge: dict[Observation, set[SecretValuation]] = {}
    full: dict[SecretValuation, set[Observation]] = {}
    cut: dict[SecretValuation, frozenset[tuple]] = {}
    complete = True
    for valuation in secret_domain:
        result = explore(program, init_public, dict(valuation), bounds, costs)
        complete = complete and result.complete
        for obs, _terminated in result.observations:
            knowledge.setdefault(obs, set()).add(valuation)
        # A deadlocked run's observation that another run reaches cut short
        # counts as a prefix only: the side that cannot invent a leak.
        full[valuation] = {obs for obs, terminated in result.observations
                           if terminated or obs not in result.prefixes}
        cut[valuation] = frozenset(p.events for p in result.prefixes)
    if not secret_domain:
        result = explore(program, init_public, {}, bounds, costs)
        complete = complete and result.complete
        for obs, _terminated in result.observations:
            knowledge.setdefault(obs, set())

    def produces(valuation: SecretValuation, obs: Observation) -> bool:
        if obs in full[valuation]:
            return True
        prefixes = cut[valuation]
        return bool(prefixes) and any(
            obs.events[:n] in prefixes for n in range(len(obs.events) + 1))

    leaky = {obs: any(obs in full[v] for v in vals)
             and not all(produces(v, obs) for v in secret_domain)
             for obs, vals in knowledge.items()}
    if any(leaky.values()):
        verdict = "leak-found"
    elif complete:
        verdict = "no-leak"
    else:
        verdict = "inconclusive"
    return KnowledgeReport(
        secret_domain=tuple(secret_domain),
        knowledge={o: frozenset(v) for o, v in knowledge.items()},
        leaky=leaky,
        verdict=verdict,
        complete=complete,
        timing_blind=bounds.timing_blind,
    )


@dataclass
class DurationStats:
    """Achievable clock differences between two locations, per secret value."""

    durations: dict[SecretValuation, frozenset[int]]
    unreached: list[SecretValuation] = field(default_factory=list)
    complete: bool = True


def duration_stats(program: lang.Program, loc_from: lang.LocationId,
                   loc_to: lang.LocationId,
                   secret_domain: Optional[tuple[SecretValuation, ...]],
                   bounds: ExploreBounds,
                   costs: semantics.CostModel = semantics.CostModel(),
                   init_public: Optional[semantics.Store] = None) -> DurationStats:
    """For each secret valuation, the set of achievable ``t@to - t@from``.

    Each arrival at ``loc_from`` pairs with the next arrival at ``loc_to``
    after it, within every maximal execution reachable under the bounds.
    """
    if loc_from.thread != loc_to.thread:
        raise LeakLabError("duration endpoints must lie in the same thread")
    if loc_from.index >= loc_to.index:
        raise LeakLabError("duration start must precede the end location")
    if secret_domain is None:
        secret_domain = secret_domain_of(program)
    if not secret_domain:
        secret_domain = ((),)

    store_base = dict(program.initial_store())
    if init_public:
        store_base.update(init_public)

    stats: dict[SecretValuation, set[int]] = {v: set() for v in secret_domain}
    unreached: list[SecretValuation] = []
    complete = True

    for valuation in secret_domain:
        store = dict(store_base)
        store.update(dict(valuation))
        root = semantics.initial_configuration(program, store)
        seen_any = False
        visited: set = set()
        stack = [(root, 0)]
        while stack:
            config, steps_used = stack.pop()
            key = (config, steps_used)
            if key in visited:
                continue
            visited.add(key)
            if len(visited) > bounds.max_configs:
                complete = False
                break
            choices = semantics.enabled(program, config)
            maximal = config.all_done() or not choices
            if not maximal and steps_used >= bounds.max_steps:
                complete = False
                maximal = True
            if maximal:
                snaps = config.snapshot_dict()
                starts = snaps.get(loc_from, ())
                ends = snaps.get(loc_to, ())
                for start in starts:
                    nxt = [e for e in ends if e >= start]
                    if nxt:
                        stats[valuation].add(min(nxt) - start)
                        seen_any = True
                continue
            for choice in choices:
                stack.append((semantics.step(program, config, choice, costs),
                              steps_used + 1))
        if not seen_any:
            unreached.append(valuation)

    return DurationStats(
        durations={v: frozenset(s) for v, s in stats.items()},
        unreached=unreached,
        complete=complete,
    )
