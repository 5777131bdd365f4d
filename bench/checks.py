"""Output checks, with every expected value derived apart from the program.

Each expected value is either computed here from first principles (the
family's interleavings, observation counts and clock totals) or written
down by hand from the unit cost model, with its one-line reason beside it.
None is a copy of leaklab's output.  A check raises :class:`CheckFailed`
on a wrong answer; a check of a known fault operation returns ``FAULT``
when the program gives the known wrong answer and ``OK`` once mended.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from pathlib import Path

OK = "ok"
FAULT = "fault"


class CheckFailed(Exception):
    """An output disagrees with the independently derived expectation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Generated family (scan-timed, scan-blind)
# ---------------------------------------------------------------------------

def blind_observation_count(n: int, k: int) -> int:
    """Every thread prints k+1 letters in program order and the region never
    blocks (it restores sem atomically), so every interleaving of the n
    letter sequences occurs: the multinomial ((k+1)n)! / ((k+1)!)^n."""
    return math.factorial((k + 1) * n) // math.factorial(k + 1) ** n


def interleavings(sequences: tuple[tuple[str, ...], ...]) -> frozenset[tuple[str, ...]]:
    """All merges of the sequences that keep each one's own order."""
    @lru_cache(maxsize=None)
    def merge(positions: tuple[int, ...]) -> frozenset[tuple[str, ...]]:
        if all(p == len(s) for p, s in zip(positions, sequences)):
            return frozenset({()})
        out: set[tuple[str, ...]] = set()
        for t, (p, s) in enumerate(zip(positions, sequences)):
            if p < len(s):
                nxt = positions[:t] + (p + 1,) + positions[t + 1:]
                out.update((s[p],) + rest for rest in merge(nxt))
        return frozenset(out)

    return merge(tuple(0 for _ in sequences))


def total_cost(n: int, k: int, takes_region: bool) -> int:
    """Clock after the last action under unit costs.  Thread t costs k prints,
    then (secret thread) if 1 + skip 1 or region 4, or (others) region 4,
    then its end print 1; blocked threads never advance the clock, so the
    total is n(k+1) + 4(n-1) + 2, plus 3 when the secret thread takes the
    region."""
    return n * (k + 1) + 4 * (n - 1) + 2 + (3 if takes_region else 0)


def _letters(observation) -> tuple[str, ...]:
    return tuple(payload for payload, _ in observation.events)


def check_scan_blind(member, report) -> str:
    domain = frozenset(report.secret_domain)
    _require(len(domain) == member.hi + 1,
             f"{member.name}: secret domain has {len(domain)} values, want {member.hi + 1}")
    _require(report.verdict == "no-leak" and report.complete,
             f"{member.name}: blind verdict {report.verdict} complete={report.complete}, "
             "want no-leak complete")
    want = blind_observation_count(member.n, member.k)
    _require(len(report.knowledge) == want,
             f"{member.name}: {len(report.knowledge)} blind observations, want {want}")
    letters = {_letters(o) for o in report.knowledge}
    _require(letters == interleavings(member.letters),
             f"{member.name}: blind observations are not the letter interleavings")
    for obs, k_set in report.knowledge.items():
        _require(frozenset(k_set) == domain,
                 f"{member.name}: knowledge of {_letters(obs)} is not the full domain")
    return OK


def check_scan_timed(member, report) -> str:
    domain = frozenset(report.secret_domain)
    _require(len(domain) == member.hi + 1,
             f"{member.name}: secret domain has {len(domain)} values, want {member.hi + 1}")
    _require(report.verdict == "leak-found" and report.complete,
             f"{member.name}: timed verdict {report.verdict} complete={report.complete}, "
             "want leak-found complete")
    totals = {v: total_cost(member.n, member.k, dict(v)["h"] != 0) for v in domain}
    for obs, k_set in report.knowledge.items():
        last = obs.events[-1][1]
        want = frozenset(v for v in domain if totals[v] == last)
        _require(frozenset(k_set) == want,
                 f"{member.name}: observation ending at {last} has knowledge "
                 f"{sorted(k_set)}, want {sorted(want)}")
    letters = {_letters(o) for o in report.knowledge}
    _require(letters == interleavings(member.letters),
             f"{member.name}: letter projections differ from the blind set")
    return OK


# The first named fault: an observation cut short by a step bound counts as
# a full observation.  Untruncated, both secrets print just 'x' (no-leak).
TRUNCATION_FAULT_SOURCE = (
    "var h : int[0..1] label high = secret;\n"
    "thread A { if h then { skip; skip; } else { skip; }; print('x'); }\n")
TRUNCATION_FAULT_MAX_STEPS = 3


def check_truncation_fault(report) -> str:
    """A bound may only move the verdict toward inconclusive: leak-found is
    the fault; inconclusive is right; no-leak is wrong, the run was cut."""
    if report.verdict == "leak-found":
        return FAULT
    _require(report.verdict == "inconclusive" and not report.complete,
             f"truncated scan says {report.verdict} complete={report.complete}, "
             "want inconclusive")
    return OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

_H0, _H1 = "{'h': 0}", "{'h': 1}"

# Per program: snapshot pairs dl should suggest, isolated durations per
# secret at the closing location, and the proof verdict at every bound.
# Durations under unit costs, from the opening print's arrival to the
# closing print's arrival, in the marked thread alone.
CERTIFY_EXPECTED = {
    "01_semaphore_pair.cwl": {
        "pairs": [("T2.l0", "T2.l7")],
        "isolated": {"T2.l7": {_H0: [3], _H1: [6]}},
        "why": "print c 1 + if 1 + skip 1 = 3; "
               "print c 1 + if 1 + region (entry 1 + 3 assignments) = 6",
        "overall": "proven",
    },
    "02_semaphore_atomic.cwl": {
        "pairs": [("T2.l0", "T2.l7")],
        "isolated": {"T2.l7": {_H0: [3], _H1: [6]}},
        "why": "T2 is the same as in 01: 3 without the region, 6 with it",
        "overall": "proven",
    },
    "03_delay_long.cwl": {
        "pairs": [("T2.l0", "T2.l7")],
        "isolated": {"T2.l7": {_H0: [52], _H1: [6]}},
        "why": "print c 1 + if 1 + delay 50 = 52; with the region 6",
        "overall": "proven",
    },
    "04_delay_balanced.cwl": {
        "pairs": [("T2.l0", "T2.l8")],  # the region's delay(46) takes label l4
        "isolated": {},
        "indeterminate": True,
        "why": "1 + 1 + delay 50 = 52 and 1 + 1 + region (1 + 1 + 46 + 1 + 1) = 52: no threshold",
        "overall": "proven",
    },
    "07_three_phase.cwl": {
        "pairs": [("Main.l0", "Main.l4"), ("Main.l4", "Main.l8")],
        "isolated": {"Main.l4": {_H0: [3], _H1: [12]},
                     "Main.l8": {_H0: [22], _H1: [3]}},
        "why": "p->q: 1 + 1 + skip 1 = 3 or 1 + 1 + delay 10 = 12; "
               "q->r: 1 + 1 + delay 20 = 22 or 3",
        "overall": "proven",
    },
    "08_region_alone.cwl": {
        "pairs": [("T2.l0", "T2.l7")],
        "isolated": {"T2.l7": {_H0: [3], _H1: [6]}},
        "why": "the region thread alone: 3 without the region, 6 with it",
        "overall": "proven",
    },
    "10_blind_timing.cwl": {
        "pairs": [("Main.l0", "Main.l4")],
        "isolated": {"Main.l4": {_H0: [3], _H1: [11]}},
        "why": "print s 1 + if 1 + skip 1 = 3; print s 1 + if 1 + delay 9 = 11",
        "overall": "proven",
    },
    "semaphore_pair_annotated.cwl": {
        "pairs": [("T2.l0", "T2.l7")],
        "isolated": {"T2.l7": {_H0: [3], _H1: [6]}},
        "why": "its own outline is sound and its postulate matches the 3 / 6 durations",
        "overall": "proven",
        "certified": ["T2.l7"],
        "own_outline": True,
    },
    "semaphore_pair_inverted.cwl": {
        "pairs": [("T2.l0", "T2.l7")],
        "isolated": {"T2.l7": {_H0: [3], _H1: [6]}},
        "why": "its postulate swaps the secrets of the 3 / 6 durations, so a rule fails",
        "overall": "refuted",
        "certified": [],
        "own_outline": True,
    },
}
CERTIFY_BOUNDS = (32, 64)

# The second named fault: a snapshot bound below the program's reachable
# clock hides the only run, so a false triple is reported proven.
BOUND_FAULT_SOURCE = (
    "thread A { {| true |} delay(100); {| true |} print('x'); } "
    "post {| t@l1 <= 64 |}\n")
BOUND_FAULT_SNAPSHOT_BOUND = 64


def check_bound_fault(output) -> str:
    """The only run reaches print('x') at t = 100 > 64: proven is the fault;
    refuted or incomplete is right."""
    if output.proof.overall == "proven":
        return FAULT
    _require(output.proof.overall in ("refuted", "incomplete"),
             f"bound fault program: overall {output.proof.overall}")
    return OK


def _eval(expr, store: dict):
    """Integer/boolean expressions of the region bodies and guards."""
    kind = type(expr).__name__
    if kind in ("IntLit", "BoolLit"):
        return expr.value
    if kind == "Var":
        return store[expr.name]
    if kind == "UnaryOp":
        v = _eval(expr.operand, store)
        return -v if expr.op == "-" else not v
    if kind == "BinOp":
        a, b = _eval(expr.left, store), _eval(expr.right, store)
        ops = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
               "=": lambda: a == b, "!=": lambda: a != b, "<": lambda: a < b,
               "<=": lambda: a <= b, ">": lambda: a > b, ">=": lambda: a >= b,
               "and": lambda: bool(a) and bool(b), "or": lambda: bool(a) or bool(b)}
        return ops[expr.op]()
    raise CheckFailed(f"counterexample re-execution: unsupported expression {kind}")


def post_state(stmt, store: dict, clock: int) -> tuple[dict, int]:
    """Unit-cost big step of one atomic statement of the corpus."""
    store = dict(store)
    if stmt is None:
        return store, clock
    kind = type(stmt).__name__
    if kind in ("Skip", "Print"):
        return store, clock + 1
    if kind == "Delay":
        return store, clock + _eval(stmt.duration, store)
    if kind == "Assign":
        store[stmt.target] = _eval(stmt.value, store)
        return store, clock + 1
    if kind == "Await":
        clock += 1
        for inner in stmt.body:
            store, clock = post_state(inner, store, clock)
        return store, clock
    raise CheckFailed(f"counterexample re-execution: unsupported statement {kind}")


def check_certify(name: str, output, lk, leakscan_verdict) -> str:
    """``leakscan_verdict(program)`` runs a timed leakscan (outside timing)."""
    exp = CERTIFY_EXPECTED[name]
    program = output.program
    where = program.location_str
    pairs = [(where(a), where(b)) for a, b in output.labels.suggested_pairs]
    _require(pairs == exp["pairs"], f"{name}: snapshot pairs {pairs}, want {exp['pairs']}")

    synth = output.synthesis
    got = {where(s.location): s.isolated for s in synth.assertions}
    _require(got == exp["isolated"],
             f"{name}: isolated durations {got}, want {exp['isolated']} ({exp['why']})")
    _require(bool(synth.indeterminate) == exp.get("indeterminate", False),
             f"{name}: indeterminate records {len(synth.indeterminate)}")
    for s in synth.assertions:
        sets = exp["isolated"][where(s.location)]
        lows = [max(ds) for ds in sets.values() if max(ds) < s.threshold]
        highs = [min(ds) for ds in sets.values() if min(ds) >= s.threshold]
        _require(bool(lows) and bool(highs) and len(lows) + len(highs) == len(sets)
                 and max(lows) < s.threshold <= min(highs),
                 f"{name}: threshold {s.threshold} does not split {sets}")
    for s, verdict in zip(synth.assertions, output.leakiness):
        _require(verdict.verdict == "leaky",
                 f"{name}: postulate at {where(s.location)} judged {verdict.verdict}")

    proof = output.proof
    _require(proof.overall == exp["overall"],
             f"{name} at bound {output.bound}: {proof.overall}, want {exp['overall']}")
    certified = [where(loc) for loc in proof.certified]
    want_certified = exp.get(
        "certified", sorted(exp["isolated"]) if exp["overall"] == "proven" else [])
    _require(certified == want_certified,
             f"{name}: certified {certified}, want {want_certified}")
    if proof.overall == "proven" and proof.certified:
        verdict = leakscan_verdict(name, program)
        _require(verdict == "leak-found",
                 f"{name}: certified leaky but a timed leakscan says {verdict}")
    for vc, result in proof.entries:
        if result.counterexample is not None:
            check_counterexample(lk, program, vc, result.counterexample)
    return OK


def check_counterexample(lk, program, vc, cx: dict) -> None:
    """The reported state satisfies the pre-assertion and, after the
    statement, violates the post-assertion."""
    locs = {}
    for t_idx, thread in enumerate(program.threads):
        for s in lk.lang.iter_statements(thread.body):
            locs[program.location_str(s.label)] = s.label
        exit_loc = lk.lang.exit_label(program, t_idx)
        locs[program.location_str(exit_loc)] = exit_loc
    store = dict(cx["store"])
    snaps = {locs[k]: tuple(v) for k, v in cx["snapshots"].items()}
    clock = cx.get("clock", 0)
    _require(lk.assertions.eval_assertion(vc.pre, store, snaps, clock),
             f"counterexample {cx} does not satisfy the pre-assertion of {vc.provenance}")
    after, after_clock = post_state(vc.stmt, store, clock)
    _require(not lk.assertions.eval_assertion(vc.post, after, snaps, after_clock),
             f"counterexample {cx} does not violate the post-assertion of {vc.provenance}")


# ---------------------------------------------------------------------------
# cli-corpus
# ---------------------------------------------------------------------------

# leakscan exit codes (timed, timing-blind): 1 leak found, 0 no leak.
LEAKSCAN_EXIT = {
    # c->d gap is 3 or 6; letters are always "c d"
    "region_thread.cwl": (1, 0),
    # "a c d b" needs the region free while T1 holds sem: only h = 0
    "semaphore_pair.cwl": (1, 1),
    "semaphore_pair_annotated.cwl": (1, 1),
    "semaphore_pair_inverted.cwl": (1, 1),
    # h = 0 delays instead of taking the region: "a c d b" still only h = 0
    "semaphore_pair_delay50.cwl": (1, 1),
    "01_semaphore_pair.cwl": (1, 1),
    # T1 prints a b inside one region, so letter orders match; c->d gap differs
    "02_semaphore_atomic.cwl": (1, 0),
    "03_delay_long.cwl": (1, 1),
    # the h = 1 path still takes the region, so "a c d b" is h = 0 only
    "04_delay_balanced.cwl": (1, 1),
    # prints 1 or 2 depending on h
    "05_direct_branch_print.cwl": (1, 1),
    # h is never read
    "06_unused_secret.cwl": (0, 0),
    # letters always p q r; gaps depend on h
    "07_three_phase.cwl": (1, 0),
    "08_region_alone.cwl": (1, 0),
    # prints h itself
    "09_high_data_print.cwl": (1, 1),
    # letters always s e; gap 3 or 11
    "10_blind_timing.cwl": (1, 0),
}
# emit-smt needs a proof outline; on the other files it is an input error
# (exit 2) that does no work, so it runs on these two only.
OUTLINED = ("semaphore_pair_annotated.cwl", "semaphore_pair_inverted.cwl")
# Alice (low) reads h (high) in "x = h + 1": a flow violation, exit 1.
IFC_SCENARIO = "ifc_scenario_low_reads_high.json"
IFC_EXIT = 1

_WROTE = re.compile(r"^wrote (\d+) SMT-LIB files to (.+)$")


def expected_exit(command: str, file_name: str) -> int:
    if command == "leakscan":
        return LEAKSCAN_EXIT[file_name][0]
    if command == "leakscan-blind":
        return LEAKSCAN_EXIT[file_name][1]
    if command == "ifc":
        return IFC_EXIT
    return 0  # parse, dl --synthesize and emit-smt succeed on valid input


def smt_balanced(text: str) -> bool:
    """Parentheses balance outside string literals and ';' comments, and the
    script ends with (check-sat)."""
    depth = 0
    in_string = False
    for line in text.splitlines():
        i = 0
        while i < len(line):
            c = line[i]
            if in_string:
                if c == '"':
                    in_string = False
            elif c == '"':
                in_string = True
            elif c == ";":
                break
            elif c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth < 0:
                    return False
            i += 1
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return depth == 0 and not in_string and bool(lines) and lines[-1] == "(check-sat)"


def check_cli(command: str, file_name: str, returncode: int, stdout: str,
              stderr: str, schemas: dict, validate, smt_dir: Path) -> str:
    want = expected_exit(command, file_name)
    _require(returncode == want,
             f"{command} {file_name}: exit {returncode}, want {want}: {stderr.strip()[-300:]}")
    if command in ("leakscan", "leakscan-blind", "dl", "ifc"):
        schema = schemas["leakscan" if command.startswith("leakscan") else command]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as e:
            raise CheckFailed(f"{command} {file_name}: not JSON ({e})") from None
        errors = list(validate(schema, report))
        _require(not errors, f"{command} {file_name}: schema violation {errors[:1]}")
        if command.startswith("leakscan"):
            verdict = {1: "leak-found", 0: "no-leak"}[want]
            _require(report["verdict"] == verdict,
                     f"{command} {file_name}: verdict {report['verdict']}, want {verdict}")
            _require(report["timing_blind"] == (command == "leakscan-blind"),
                     f"{command} {file_name}: timing_blind flag wrong")
    if command == "emit-smt":
        m = _WROTE.match(stdout.strip())
        _require(m is not None, f"emit-smt {file_name}: unexpected output {stdout!r}")
        files = sorted(smt_dir.glob("*.smt2"))
        _require(len(files) == int(m.group(1)),
                 f"emit-smt {file_name}: reported {m.group(1)} files, wrote {len(files)}")
        for f in files:
            _require(smt_balanced(f.read_text(encoding="utf-8")),
                     f"emit-smt {file_name}: {f.name} is not a balanced script")
    return OK
