"""Exhaustive bounded exploration of program states and attacker knowledge.

The attacker model is possibilistic: an observation is the sequence of
printed payloads (with timestamps unless timing-blind), and the knowledge
set of an observation is the set of secret valuations that can produce it
under some schedule.  An observation leaks when its knowledge set is a
strict subset of the full secret domain.  A run cut short by a bound
yields only a prefix of an observation, which never witnesses a leak.

One engine, :func:`search`, walks the program's state graph for every
question asked of the schedules.  It expands each distinct state once and
reads its steps from the program's moves (``semantics.move``), kept per
(head statement, store), and returns one record, a :class:`Search`: the
state graph it walked and its counts.  Only :func:`kept_search` calls
it: it runs each search once per program, cost model, start store, step
bound, state cap, watch set and clock-in-key, keeps the record on the
program's control table, and answers every later call from it.  Each
question is a read of a record: :func:`explore` merges observation
suffixes backwards over the graph of the search that watches nothing,
so a repeated scan searches no more, and the other questions read the
states a watched search reached, one whose keys hold the clock and the
arrivals at some locations: :func:`duration_stats` pairs the arrivals at
two watched locations where runs end, and
``assertions.states_at_location`` reads the states at one location, so a
leakiness check of a synthesized postulate reads the search that
synthesis ran for its pair.  One thread's single run has one walk, kept
in the same way: :func:`isolated_durations` reads each thread's, so the
proofs' path facts read the walks that synthesis left, and
:func:`lone_run` a one-thread program's, for ``run``.

Secret valuations that the program cannot tell apart have the same runs
with the secret renamed, so :func:`knowledge_partition`, the duration
measures and ``assertions.states_at_location`` search once per class of
them, the first valuation of each in :func:`secret_classes`.  Two
valuations are in one class when no statement assigns a secret and they
agree on every way the program reads one: each guard that reads only
secrets has the same truth value, and each other maximal subexpression
that reads only secrets the same value and type.  This is the attacker's
view of the secret: its knowledge can never split such a class.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import Callable, NamedTuple, Optional

from . import lang, semantics
from .errors import BudgetExceeded, DeadlockError, LeakLabError
from .lang import field, record

SecretValuation = tuple[tuple[str, semantics.Value], ...]


class Observation(NamedTuple):
    """What the attacker sees of one maximal execution."""

    events: tuple[tuple[str, Optional[int]], ...]  # (payload, timestamp or None)

    @property
    def letters(self) -> str:
        return " ".join(p for p, _ in self.events)

    def sort_key(self):
        return tuple((p, -1 if t is None else t) for p, t in self.events)


@record(frozen=True)
class ExploreBounds:
    max_steps: int = 200
    max_configs: int = 200_000
    timing_blind: bool = False
    observe_thread_ids: bool = False

    def __post_init__(self) -> None:
        if self.max_steps <= 0 or self.max_configs <= 0:
            raise LeakLabError("exploration bounds must be positive")


@record(frozen=True)
class ExploreResult:
    """Observations of every run, and counts over distinct states.

    ``truncated`` counts the states cut at ``max_steps`` and ``deadlocked``
    the states where no thread can move.  ``prefixes`` holds the
    observations of runs cut short by ``max_steps`` or ``max_configs``:
    such a run could have printed more.  ``stats`` is the search's
    deterministic account, as ``leakscan --stats`` reports it.
    """

    observations: frozenset[tuple[Observation, bool]]  # (observation, terminated?)
    complete: bool
    truncated: int
    deadlocked: int
    prefixes: frozenset[Observation]
    stats: dict = field(default_factory=dict, compare=False)


@record
class KnowledgeReport:
    secret_domain: tuple[SecretValuation, ...]
    knowledge: dict[Observation, frozenset[SecretValuation]]
    leaky: dict[Observation, bool]
    verdict: str  # "leak-found" | "no-leak" | "inconclusive"
    complete: bool
    timing_blind: bool
    stats: list[dict] = field(default_factory=list)  # per valuation, with ``explored_as``

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


def _project(events: tuple, bounds: ExploreBounds) -> tuple[tuple[str, Optional[int]], ...]:
    """The attacker's view of some printed ``(thread, payload, timestamp)``
    events."""
    return tuple([(f"{thread}:{payload}" if bounds.observe_thread_ids else payload,
                   None if bounds.timing_blind else at) for thread, payload, at in events])


def _secret_reads(program: lang.Program) -> Optional[tuple]:
    """The static part of the class rule, built on first use and kept on
    the program: ``(guard, fn(store))`` for each way the program reads the
    secrets, one per distinct guard or maximal subexpression that reads
    only secrets; None when some statement assigns a secret."""
    try:
        return program._secret_reads
    except AttributeError:
        pass
    secrets = frozenset(program.secret_names())
    found: dict[tuple[bool, lang.Expr], None] = {}

    def visit(e: lang.Expr, guard: bool) -> None:
        names = lang.free_vars(e)
        if names and names <= secrets:
            found[guard, e] = None
        elif isinstance(e, lang.UnaryOp):
            visit(e.operand, False)
        elif isinstance(e, lang.BinOp):
            visit(e.left, False)
            visit(e.right, False)

    stmts = [s for t in program.threads for s in lang.iter_statements(t.body)]
    reads: Optional[tuple] = None
    if not any(isinstance(s, lang.Assign) and s.target in secrets for s in stmts):
        for s in stmts:
            if isinstance(s, (lang.If, lang.While, lang.Await)):
                visit(s.guard, True)
            elif isinstance(s, (lang.Assign, lang.Print)):
                visit(s.value, False)
            elif isinstance(s, lang.Delay):
                visit(s.duration, False)
        reads = tuple((guard, semantics.compile_expr(e)) for guard, e in found)
    object.__setattr__(program, "_secret_reads", reads)
    return reads


def secret_classes(program: lang.Program, init_public: semantics.Store,
                   secret_domain: tuple[SecretValuation, ...]
                   ) -> dict[SecretValuation, tuple[SecretValuation, semantics.Store]]:
    """Each valuation of ``secret_domain`` (the empty one if it has none),
    in order, mapped to the first valuation of its class under the rule of
    the module docstring and that valuation's start store, one pair per
    class, so ``dict(classes.values())`` lists the classes in order.  Each
    start store is checked, as a search checks it (``semantics.start_store``)."""
    reads = _secret_reads(program)
    firsts: dict[object, tuple] = {}
    classes = {}
    for valuation in secret_domain or ((),):
        store = {**program.initial_store(), **init_public, **dict(valuation)}
        semantics.start_store(program, store)
        key = [valuation] if reads is None else []
        for guard, read in reads or ():
            try:
                value = read(store)
            except LeakLabError as e:
                key.append((type(e), str(e)))
            else:
                key.append(bool(value) if guard else (type(value), value))
        classes[valuation] = firsts.setdefault(tuple(key), (valuation, store))
    return classes


# How a run ends.  Deadlocked and cut-short runs both end unterminated, but
# only a cut-short run could have printed more, and a lone walk's may cycle.
_DONE, _DEADLOCKED, _CUT, _CYCLE = "done", "deadlocked", "cut", "cycle"


@record(frozen=True)
class Search:
    """What one :func:`search` found: its state graph and its counts.

    ``keys`` holds each distinct key the search reached, in the order it
    finished them, so each key after its successors and the root last, and
    ``graph`` at the same place how a run ends at the key, or else its
    edges as one flat tuple ``(label, child, label, child, ...)``:
    ``label`` the place in ``labels`` of what the step printed and
    ``child`` the child's place in ``keys``.  Each label is held once, as
    the step's ``(thread, payload, timestamp)`` events, plain tuples like
    the edges, so the cyclic collector stops tracking them, and a reader
    indexes tuples rather than hashing keys.

    ``cells`` holds the hash-consed arrivals: cell ``i`` is ``(previous cell,
    clock)`` of one arrival, and cell 0 stands for no arrival yet.
    ``steps`` counts the distinct ``(thread, head, store)`` moves behind
    the edges, new to the table or not, and ``capped`` the keys cut past
    ``max_configs``; ``states`` (the other keys), ``edges``, ``truncated``
    (the keys cut at ``max_steps``) and ``deadlocked`` are read off the graph.
    """

    keys: tuple
    graph: tuple
    labels: tuple
    cells: tuple
    steps: int
    capped: int

    @property
    def root(self) -> tuple:
        return self.keys[-1]

    @property
    def states(self) -> int:
        return len(self.keys) - self.capped

    @functools.cached_property
    def edges(self) -> int:
        return sum([len(outcome) // 2 for outcome in self.graph if outcome.__class__ is tuple])

    @functools.cached_property
    def truncated(self) -> int:
        return self.graph.count(_CUT) - self.capped

    @functools.cached_property
    def deadlocked(self) -> int:
        return self.graph.count(_DEADLOCKED)

    @property
    def complete(self) -> bool:
        return _CUT not in self.graph

    @functools.cached_property
    def reached(self) -> tuple:
        """In the order they were finished, the distinct ``(heads, store,
        clock, arrivals)`` of the keys (their step counts dropped), each
        with whether a run ends there; derived from the graph on first
        read and kept, so a scan does not pay for them."""
        reached: dict[tuple, bool] = {}
        for key, outcome in zip(self.keys, self.graph):
            state = (key[0], key[1], key[2], key[4])
            reached[state] = reached.get(state, False) or outcome.__class__ is str
        return tuple(reached.items())

    def arrivals(self, watched: tuple) -> dict[lang.LocationId, tuple[int, ...]]:
        """The snapshots that the ``arrivals`` entry of a key stands for."""
        snaps = {}
        for loc, cell in watched:
            times = []
            while cell:
                cell, clock = self.cells[cell]
                times.append(clock)
            snaps[loc] = tuple(reversed(times))
        return snaps


_ABSENT = object()


def search(program: lang.Program, store: semantics.Store, bounds: ExploreBounds,
           costs: semantics.CostModel, watch: frozenset) -> Search:
    """The exploration engine: a memoised depth-first search over states,
    started by :func:`kept_search` alone, which keeps what it found.

    A state is keyed by ``(heads, store, clock, steps_used, arrivals)``:
    ``heads`` holds each thread's head statement id (0 once it is done),
    which keys its residue exactly because a residue is always the static
    continuation of its head (see :mod:`leaklab.semantics`), the clock
    ``None`` when timing-blind and nothing is watched, and
    ``arrivals`` the snapshots recorded at the locations in ``watch`` and at
    no others, as ``(location, cell)`` pairs with one hash-consed cell per
    distinct history of a location (see :meth:`Search.arrivals`), so a key
    stays small however often a location is reached.  No transition reads
    the trace or the snapshots, and ``steps_used`` stays in the key, so a
    caller learns exactly what enumerating every schedule would tell it.

    Each distinct key is expanded once, and each step read from the
    program's moves, ``semantics.move`` running those it lacks, a thread
    blocked at an await included.  A move's events and arrivals, timed
    from the step's start, are shifted by the parent's clock in a child
    key, which keeps watched arrivals only.

    Each distinct key takes its place in the graph (:class:`Search`) once
    every successor of it has one.  Its outcome is how a run ends at the
    key (``_DONE``, ``_DEADLOCKED`` or ``_CUT``), or else its edges: one
    per enabled thread, highest first, labelled with the events its one
    step printed, timestamped from the step's start when the key holds no
    clock.

    ``max_configs`` counts distinct keys, and a key past it ends its run
    cut short, as a key at ``max_steps`` does; a key where no thread can
    move ends deadlocked.
    """
    table = semantics.control_table(program)
    moves = table.moves(costs)
    cells: list = [None]
    interned: dict[tuple, int] = {}

    def arrive(watched: tuple, snapshots: tuple, clock: int) -> tuple:
        heads = None
        for loc, times in snapshots:
            if loc in watch:
                if heads is None:
                    heads = dict(watched)
                for at in times:
                    cell = (heads.get(loc, 0), clock + at)
                    if cell not in interned:
                        interned[cell] = len(cells)
                        cells.append(cell)
                    heads[loc] = interned[cell]
        return watched if heads is None else tuple(sorted(heads.items()))

    root = (table.heads, semantics.start_store(program, store),
            None if bounds.timing_blind and not watch else 0, 0, arrive((), table.arrivals, 0))
    rows: dict[tuple, tuple] = {}  # store -> (its moves, the heads stepped from it)
    place: dict[tuple, int] = {}  # key -> its place in keys and graph
    keys: list = []
    graph: list = []
    labels: dict[tuple, int] = {(): 0}
    configs = 0  # keys stepped or ended within max_configs
    stack: list = [root]  # keys to expand, and [key, edges] once expanded
    while stack:
        key = stack.pop()
        if key.__class__ is list:  # every successor of the key has its place
            key, edges = key
            flat = []
            for events, child in edges:
                flat.append(labels.setdefault(events, len(labels)) if events else 0)
                flat.append(place[child])
            outcome = tuple(flat)
        elif key in place:
            continue
        elif configs >= bounds.max_configs:
            outcome = _CUT
        else:
            configs += 1
            heads, store, clock, steps_used, watched = key
            if not any(heads):
                outcome = _DONE
            elif steps_used >= bounds.max_steps:
                outcome = _CUT
            else:
                row, used = rows.get(store) or rows.setdefault(
                    store, (moves.get(store, {}), set()))
                edges: list = []
                for t in range(len(heads) - 1, -1, -1):
                    h = heads[t]
                    move = row.get(h, _ABSENT) if h else None
                    if move is _ABSENT:
                        move = semantics.move(program, t, h, store, costs)
                        if not row:  # the store's row was made with this move
                            row = moves[store]
                            rows[store] = row, used
                    if move is None:  # done, or blocked on an await
                        continue
                    used.add(h)
                    head, after, advance, events, arrivals = move
                    moved = heads[:t] + (head,) + heads[t + 1:]
                    if clock is None:
                        child = (moved, after, None, steps_used + 1, watched)
                    else:
                        if events and clock:
                            events = tuple([(thread, payload, at + clock)
                                            for thread, payload, at in events])
                        child = (moved, after, clock + advance, steps_used + 1,
                                 arrive(watched, arrivals, clock) if watch else watched)
                    edges.append((events, child))
                if edges:
                    stack.append([key, edges])
                    stack.extend([child for _, child in edges])
                    continue
                outcome = _DEADLOCKED
        place[key] = len(keys)
        keys.append(key)
        graph.append(outcome)
    return Search(tuple(keys), tuple(graph), tuple(labels), tuple(cells),
                  sum(len(used) for _, used in rows.values()), len(keys) - configs)


def kept_search(program: lang.Program, store: semantics.Store, bounds: ExploreBounds,
                costs: semantics.CostModel, watch: frozenset) -> Search:
    """:func:`search` from ``store``, watching ``watch``, run on the first
    call and kept in the program's ``searches(costs)`` for every later one.

    The entry is keyed by what the search reads: the start store,
    ``max_steps``, ``max_configs``, ``watch`` and whether its keys hold the
    clock, so a timed and a timing-blind search with a watch set share one,
    and so do a timed :func:`explore` and a search that watches nothing
    for ``assertions.states_at_location``.  Every search is kept whole, its
    graph included.  A search that raises keeps nothing.
    """
    holds_clock = not (bounds.timing_blind and not watch)
    entry = (tuple(sorted(store.items())), bounds.max_steps, bounds.max_configs, watch,
             holds_clock)
    kept = semantics.control_table(program).searches(costs)
    if entry not in kept:
        kept[entry] = search(program, store, bounds, costs, watch)
    return kept[entry]


_ENDINGS = {end: frozenset({((), end)}) for end in (_DONE, _DEADLOCKED, _CUT)}


def explore(program: lang.Program, init_public: semantics.Store,
            secret_val: dict, bounds: ExploreBounds,
            costs: semantics.CostModel = semantics.CostModel()) -> ExploreResult:
    """All observations reachable under any schedule, within bounds.

    It reads the graph of the :func:`kept_search` that watches nothing, so
    a repeated call on one program searches no more, and the attacker's
    view (``timing_blind`` beyond the clock in the key, and
    ``observe_thread_ids``) is applied here alone, once per label.  Every
    key maps to its set of ``(suffix events, ending)`` pairs, merged
    backwards along the edges in the order the search finished the keys,
    each after its successors, so a suffix shared by many schedules is
    derived once; a key with one silent edge shares its child's set.
    """
    found = kept_search(program, {**program.initial_store(), **init_public, **secret_val},
                        bounds, costs, frozenset())
    views = [_project(label, bounds) for label in found.labels]
    suffixes: list = []  # by place in the graph; no set changes once listed
    for outcome in found.graph:
        if outcome.__class__ is str:
            suffixes.append(_ENDINGS[outcome])
            continue
        label, runs = views[outcome[0]], suffixes[outcome[1]]
        merged = {(label + suffix, end) for suffix, end in runs} if label else runs
        if len(outcome) > 2:
            if merged is runs:
                merged = set(runs)
            for i in range(2, len(outcome), 2):
                label, runs = views[outcome[i]], suffixes[outcome[i + 1]]
                merged.update([(label + suffix, end) for suffix, end in runs] if label else runs)
        suffixes.append(merged)
    runs = suffixes[-1]  # the root's
    suffixes.clear()  # the others' sets go before the result is built
    return ExploreResult(
        observations=frozenset((Observation(events), end == _DONE)
                               for events, end in runs),
        complete=found.complete,
        truncated=found.truncated,
        deadlocked=found.deadlocked,
        prefixes=frozenset(Observation(events) for events, end in runs if end == _CUT),
        stats={"states": found.states, "edges": found.edges, "steps": found.steps,
               "truncated": found.truncated, "deadlocked": found.deadlocked,
               "bounds_fired": [flag for flag, n in (("--bound-steps", found.truncated),
                                                     ("--bound-configs", found.capped)) if n]},
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

    Only the first valuation of each class (:func:`secret_classes`) is
    explored; the others share its runs and its stats, and the rule above
    runs once per class.
    """
    if secret_domain is None:
        secret_domain = secret_domain_of(program)
    classes = secret_classes(program, init_public, secret_domain)
    explored = {first: explore(program, init_public, dict(first), bounds, costs)
                for first in dict(classes.values())}
    stats = [{"secret": dict(valuation), "explored_as": dict(first), **explored[first].stats}
             for valuation, (first, _) in classes.items()]
    same: dict[SecretValuation, list] = {first: [] for first in explored}
    if secret_domain:  # else K(o) stays empty
        for valuation, (first, _) in classes.items():
            same[first].append(valuation)
    runs = list(explored.values())
    members = list(same.values())
    seen = [frozenset(obs for obs, _ in r.observations) for r in runs]
    # A deadlocked run's observation that another run reaches cut short
    # counts as a prefix only: the side that cannot invent a leak.
    full = [(s - r.prefixes).union(obs for obs, terminated in r.observations if terminated)
            if r.prefixes else s for s, r in zip(seen, runs)]
    cut = [frozenset(p.events for p in r.prefixes) for r in runs]

    def produces(c: int, obs: Observation) -> bool:
        return obs in full[c] or any(
            obs.events[:n] in cut[c] for n in range(len(obs.events) + 1))

    # The rule by set algebra over whole classes: an observation leaks when
    # some class ends a run with it and another does not produce it, which
    # without cut-short runs is not ending a run with it.
    leaks = frozenset().union(*full) - full[0].intersection(*full[1:])
    if any(cut):
        leaks = {obs for obs in leaks if not all(produces(c, obs) for c in range(len(runs)))}
    every = frozenset().union(*seen)
    leaky = dict.fromkeys(every, False)
    leaky.update(dict.fromkeys(leaks, True))
    # K(o): split the observations by the classes whose runs show them;
    # each part knows the members of its classes.
    parts = [(every, ())]
    for c, s in enumerate(seen):
        parts = [(part, cs) for whole, within in parts
                 for part, cs in ((whole & s, within + (c,)), (whole - s, within)) if part]
    knowledge: dict[Observation, frozenset[SecretValuation]] = {}
    for part, cs in parts:
        known = frozenset(v for c in cs for v in members[c])
        knowledge.update(dict.fromkeys(part, known))
    complete = all(r.complete for r in runs)
    if leaks:
        verdict = "leak-found"
    elif complete:
        verdict = "no-leak"
    else:
        verdict = "inconclusive"
    return KnowledgeReport(
        secret_domain=tuple(secret_domain),
        knowledge=knowledge,
        leaky=leaky,
        verdict=verdict,
        complete=complete,
        timing_blind=bounds.timing_blind,
        stats=stats,
    )


@record
class DurationStats:
    """Achievable clock differences between two locations, per secret value."""

    durations: dict[SecretValuation, frozenset[int]]
    unreached: list[SecretValuation] = field(default_factory=list)
    complete: bool = True


def _durations(program: lang.Program, loc_from: lang.LocationId,
               loc_to: lang.LocationId,
               secret_domain: Optional[tuple[SecretValuation, ...]],
               measure: Callable[[semantics.Store], tuple[list, bool]]) -> DurationStats:
    """Check the endpoints; then, for the start store of the first secret
    valuation of each class (:func:`secret_classes`), ``measure`` gives
    each run's ``(starts, ends)`` arrival clocks, in clock order, and
    whether it saw every run, and each start pairs with the first end not
    before it.  The other members of the class share its durations."""
    if loc_from.thread != loc_to.thread:
        raise LeakLabError("duration endpoints must lie in the same thread")
    if loc_from.index >= loc_to.index:
        raise LeakLabError("duration start must precede the end location")
    if secret_domain is None:
        secret_domain = secret_domain_of(program)
    classes = secret_classes(program, {}, secret_domain)
    measured: dict[SecretValuation, frozenset[int]] = {}
    complete = True
    for first, store in dict(classes.values()).items():
        runs, saw_all = measure(store)
        complete = complete and saw_all
        durations: set[int] = set()
        for starts, ends in runs:
            for start in starts:
                nxt = bisect.bisect_left(ends, start)
                if nxt < len(ends):
                    durations.add(ends[nxt] - start)
        measured[first] = frozenset(durations)
    stats = {valuation: measured[first] for valuation, (first, _) in classes.items()}
    return DurationStats(stats, [v for v, ds in stats.items() if not ds], complete)


def duration_stats(program: lang.Program, loc_from: lang.LocationId,
                   loc_to: lang.LocationId,
                   secret_domain: Optional[tuple[SecretValuation, ...]],
                   bounds: ExploreBounds,
                   costs: semantics.CostModel = semantics.CostModel()) -> DurationStats:
    """For each secret valuation, the set of achievable ``t@to - t@from``.

    It reads the :func:`kept_search` that watches the two locations, so its
    keys hold the clock even when ``bounds`` is timing-blind, and a timed
    and a blind call share one search.  At every state where a run ends
    (terminated, deadlocked or cut short), each arrival at ``loc_from``
    pairs with the next arrival at ``loc_to`` after it.  A valuation with no
    such pair is ``unreached``.
    """
    watch = frozenset((loc_from, loc_to))

    def measure(store: semantics.Store) -> tuple[list, bool]:
        found = kept_search(program, store, bounds, costs, watch)
        endings = {state[3] for state, ends in found.reached if ends}
        return ([(snaps.get(loc_from, ()), snaps.get(loc_to, ()))
                 for snaps in map(found.arrivals, endings)], found.complete)

    return _durations(program, loc_from, loc_to, secret_domain, measure)


def _isolated_walk(program: lang.Program, thread: int, store: semantics.Store,
                   max_configs: int, costs: semantics.CostModel) -> tuple[tuple, str]:
    """Thread ``thread``'s lone run from ``store`` as each move's start
    clock, arrivals and events, the start's arrivals first, and how it ended
    (``_CYCLE`` with its period run once more, ``_CUT`` past ``max_configs``
    distinct states); walked on the first call and kept in the program's
    ``walks(costs)``.  A walk that raises keeps nothing."""
    table = semantics.control_table(program)
    kept = table.walks(costs)
    key = (thread, tuple(sorted(store.items())), max_configs)
    if key in kept:
        return kept[key]
    moves = table.moves(costs)
    head, store = table.heads[thread], semantics.start_store(program, store)
    clock, timeline = 0, [(0, table.arrivals, ())]  # each move's start, arrivals, events
    seen: dict[tuple, int] = {}  # (head statement id, store) -> its move's place
    ending = _CUT
    while len(seen) < max_configs:
        if (head, store) in seen:  # run the period once more
            period = timeline[seen[head, store]:]
            timeline += [(at - period[0][0] + clock, arrivals, events)
                         for at, arrivals, events in period]
            ending = _CYCLE
            break
        row = moves.get(store) or {}
        move = (row[head] if head in row else
                semantics.move(program, thread, head, store, costs) if head else None)
        if move is None:
            ending = _DEADLOCKED if head else _DONE
            break
        seen[head, store] = len(timeline)
        timeline.append((clock, move[4], move[3]))
        head, store, clock = move[0], move[1], clock + move[2]
    kept[key] = walk = (tuple(timeline), ending)
    return walk


def lone_run(program: lang.Program, store: semantics.Store, bounds: ExploreBounds,
             costs: semantics.CostModel) -> tuple[tuple[str, Optional[int]], ...]:
    """The printed events of the one run of a one-thread program from
    ``store``, as ``bounds`` projects them, read off thread 0's
    :func:`_isolated_walk` within ``max_configs`` states.  As in a search,
    a state after ``max_steps`` steps ends the run cut short unless the
    thread is done there.  A run that ends blocked on an await raises
    :class:`DeadlockError`, and one cut short or cycling :class:`BudgetExceeded`."""
    try:
        timeline, ending = _isolated_walk(program, 0, store, bounds.max_configs, costs)
    except LeakLabError:  # a step failed, past the step bound unless a walk to it fails
        if bounds.max_configs <= bounds.max_steps:
            raise
        timeline, ending = _isolated_walk(program, 0, store, bounds.max_steps, costs)
    steps = len(timeline) - 1
    if ending in (_CUT, _CYCLE) or steps + (ending == _DEADLOCKED) > bounds.max_steps:
        raise BudgetExceeded(f"no termination within {bounds.max_steps} steps")
    if ending == _DEADLOCKED:
        raise DeadlockError("single thread blocked on await")
    return _project(tuple([(thread, payload, start + at) for start, _, events in timeline
                           for thread, payload, at in events]), bounds)


def isolated_durations(program: lang.Program, loc_from: lang.LocationId,
                       loc_to: lang.LocationId,
                       secret_domain: Optional[tuple[SecretValuation, ...]],
                       bounds: ExploreBounds,
                       costs: semantics.CostModel = semantics.CostModel()
                       ) -> DurationStats:
    """For each secret valuation, every ``t@to - t@from`` of the thread of
    ``loc_from`` alone.

    The thread steps by itself in ``program``, the others held at their
    start, through the program's moves (``semantics.move``).  Its next step
    depends only on its head and the store, so its one run ends, blocks on
    an await, or returns to an earlier state and repeats that period
    forever, each pass later by the same clock shift.  One period past the
    first repeat, every arrival at ``loc_from`` has paired as its later
    copies do, by the rule of :func:`duration_stats`.  Only
    ``bounds.max_configs`` distinct states are stepped, and a longer run
    leaves the answer incomplete; the step bound does not apply.  The walk
    is kept on the program per thread, start store and ``max_configs``,
    so every pair in the thread reads the same one.
    """
    def measure(store: semantics.Store) -> tuple[list, bool]:
        timeline, ending = _isolated_walk(program, loc_from.thread, store,
                                          bounds.max_configs, costs)

        def clocks(loc: lang.LocationId) -> list[int]:
            return [at + t for at, arrivals, _ in timeline for here, times in arrivals
                    if here == loc for t in times]
        return [(clocks(loc_from), clocks(loc_to))], ending != _CUT

    return _durations(program, loc_from, loc_to, secret_domain, measure)
