"""Command-line front end.

Subcommands: parse, run, leakscan, ogcheck, dl, ifc, emit-smt.

Exit codes: 0 success / no leak / proven; 1 leak found / proof refuted /
flow violation; 2 input error (parse, annotation, scenario); 3 inconclusive
(bounds exhausted or undischarged conditions).  ``dl`` exits 0 even when it
reports flags: a flag is a candidate for a leak, not a verdict.  The
cost-model file can also be supplied through the ``LEAKLAB_CONFIG``
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator

from . import lang
from .errors import LeakLabError


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise LeakLabError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _read_program(path: str) -> lang.Program:
    return lang.parse_program(_read_text(path))


def _drop_stdout() -> None:
    """The reader closed stdout early: send whatever is left to /dev/null."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _write(text: str) -> None:
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        _drop_stdout()


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    """A dict key as ``json`` writes it, before escaping."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, ``json`` encodes in pure Python and yields one
    chunk per token, and a leak scan's report holds millions of tokens.
    This writer joins each container's items once, and encodes a container
    met again at the same depth once: a report shares its repeated parts
    (``KnowledgeReport.to_json``), so each is written once per depth.  Keys
    are sorted as ``json`` sorts them, before conversion; strings are
    escaped by ``json``'s own ASCII escaper, and any other scalar than a
    str, int, bool or None goes through ``json.dumps``.  Containers are
    known by identity, so ``value`` must not change meanwhile; a cycle in
    it raises ``RecursionError``.
    """
    memos: defaultdict[int, dict] = defaultdict(dict)  # depth -> id -> text, None if met once
    heads: dict[str, str] = {}  # a str key -> its escaped text and separator

    def encode(v, depth: int) -> str:
        cls = v.__class__
        if cls is str:
            return _ESCAPE(v)
        if cls is dict or cls is list:
            is_dict = cls is dict
        elif isinstance(v, str):
            return _ESCAPE(v)
        elif v is None:
            return "null"
        elif v is True:
            return "true"
        elif v is False:
            return "false"
        elif isinstance(v, int):
            return int.__repr__(v)
        elif isinstance(v, (list, tuple, dict)):
            is_dict = isinstance(v, dict)
        else:
            return json.dumps(v)
        if not v:
            return "{}" if is_dict else "[]"
        memo = memos[depth]
        text = memo.get(id(v))
        if text is not None:
            return text
        inner = "\n" + "  " * (depth + 1)
        sep = "," + inner
        if is_dict:
            chunks = []
            for k, x in sorted(v.items()):
                head = heads.get(k) if k.__class__ is str else None
                if head is None:
                    head = _ESCAPE(_json_key(k)) + ": "
                    if k.__class__ is str:
                        heads[k] = head
                chunks += (sep, head, encode(x, depth + 1))
        else:  # items already written at their depth are read without a call
            texts = list(map(memos[depth + 1].get, map(id, v)))
            for i, part in enumerate(texts):
                if part is None:
                    texts[i] = encode(v[i], depth + 1)
            chunks = [sep] * (2 * len(texts))
            chunks[1::2] = texts
        # One join per container: a report's text is copied once per level.
        chunks[0] = ("{" if is_dict else "[") + inner
        chunks.append(inner[:-2] + ("}" if is_dict else "]"))
        text = "".join(chunks)
        memo[id(v)] = text if id(v) in memo else None
        return text

    return encode(value, 0)


def _emit(data: dict, as_json: bool, human_lines: Iterable[str]) -> None:
    """Write ``data`` as JSON, or else ``human_lines``, which a caller may
    pass as a generator so that it is only built for human output."""
    if as_json:
        _write(_json_text(data) + "\n")
    else:
        _write("".join(line + "\n" for line in human_lines))


def _bounds_from(args: argparse.Namespace) -> explorer.ExploreBounds:
    from . import explorer
    return explorer.ExploreBounds(
        max_steps=args.bound_steps,
        max_configs=args.bound_configs,
        timing_blind=getattr(args, "timing_blind", False),
        observe_thread_ids=getattr(args, "observe_threads", False),
    )


def _parse_secret_override(program: lang.Program, specs: list[str]) -> tuple:
    """``--secret h=0..1`` restricts a declared secret's enumerated domain."""
    from . import explorer
    domains = {d.name: d.domain for d in program.declarations if d.secret}
    for spec in specs:
        name, _, rng = spec.partition("=")
        if name not in domains:
            raise LeakLabError(f"--secret {name}: not a declared secret variable")
        lo, _, hi = rng.partition("..")
        try:
            values = range(int(lo), int(hi or lo) + 1)
        except ValueError:
            raise LeakLabError(f"--secret {spec!r}: expected NAME=LO..HI with "
                               "integer bounds") from None
        if not values:
            raise LeakLabError(f"--secret {spec!r}: empty range {rng}")
        # The bounds are ints, and 0 == False: a bool secret takes none of them.
        declared = domains[name] if program.decl(name).type == lang.INT else range(0)
        if values[0] not in declared or values[-1] not in declared:
            # The parts below and above the declared range; the empty bool
            # range splits at 0, so there every value is out.
            bad = [r for r in (range(values.start, min(values.stop, declared.start)),
                               range(max(values.start, declared.stop), values.stop)) if r]
            if sum(r.stop - r.start for r in bad) <= 10:
                shown = str([v for r in bad for v in r])
            else:
                shown = " and ".join(f"{r.start}..{r.stop - 1}" for r in bad)
            raise LeakLabError(f"--secret {name}: {shown} outside the declared domain")
        domains[name] = values
    return explorer.secret_domain_of(program, domains)


def _parse_inits(program: lang.Program, specs: list[str], secrets: bool = True) -> dict:
    out: dict = {}
    for spec in specs:
        name, _, value = spec.partition("=")
        try:
            decl = program.decl(name)
        except KeyError:
            raise LeakLabError(f"--init {name}: undeclared variable") from None
        if decl.secret and not secrets:
            raise LeakLabError(f"--init {name}: a secret is scanned over its domain; "
                               "restrict it with --secret")
        boolean = decl.type == lang.BOOL
        try:
            out[name] = {"true": True, "false": False}[value] if boolean else int(value)
        except (KeyError, ValueError):
            raise LeakLabError(f"--init {spec!r}: expected "
                               + ("true or false" if boolean else "an integer")) from None
    return out


def cmd_parse(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    _write(lang.unparse(program, show_labels=args.labels))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from . import explorer
    from .config import load_config
    program = _read_program(args.file)
    costs = load_config(args.config).cost_model(program)
    init = _parse_inits(program, args.init or [])
    known = {**program.initial_store(), **init}
    missing = [d.name for d in program.declarations if d.name not in known]
    if missing:
        raise LeakLabError(f"secret variable(s) {missing} need --init values")
    steps = args.bound_steps
    bounds = explorer.ExploreBounds(max_steps=steps, max_configs=steps + 1)
    if len(program.threads) != 1:
        raise LeakLabError("deterministic runner requires exactly one thread")
    events = explorer.lone_run(program, known, bounds, costs)
    name = program.threads[0].name
    _write("".join(f"{name}\t{payload}\t{at}\n" for payload, at in events))
    return 0


def cmd_leakscan(args: argparse.Namespace) -> int:
    from . import explorer
    from .config import load_config
    program = _read_program(args.file)
    costs = load_config(args.config).cost_model(program)
    bounds = _bounds_from(args)
    secret_domain = _parse_secret_override(program, args.secret or [])
    init = _parse_inits(program, args.init or [], secrets=False)
    report = explorer.knowledge_partition(program, init, secret_domain, bounds, costs)
    data = report.to_json()
    if args.stats:
        data["stats"] = report.stats
    _emit(data, args.format == "json", _leakscan_lines(report, data))
    return {"leak-found": 1, "no-leak": 0, "inconclusive": 3}[report.verdict]


def _leakscan_lines(report: explorer.KnowledgeReport, data: dict) -> Iterator[str]:
    """The human form of a scan's ``data``.  Rows share their events and
    K(o) lists (``KnowledgeReport.to_json``), so each is rendered once."""
    verdict = f"verdict: {report.verdict} (complete={report.complete}"
    if report.verdict == "inconclusive":
        verdict += "; bounds fired: " + " ".join(
            flag for flag in ("--bound-steps", "--bound-configs")
            if any(flag in row["bounds_fired"] for row in report.stats))
    yield verdict + ")"
    known: dict[int, str] = {}  # id of a K(o) list -> its text
    shown: dict[int, str] = {}  # id of an event -> its text
    for row in data["observations"]:
        k = row["knowledge"]
        text = known.get(id(k))
        if text is None:
            text = known[id(k)] = str(k)
        try:
            events = " ".join(map(shown.__getitem__, map(id, row["events"])))
        except KeyError:  # an event not met before
            for e in row["events"]:
                shown[id(e)] = (f"{e['payload']}@{e['timestamp']}" if "timestamp" in e
                                else e["payload"])
            events = " ".join(map(shown.__getitem__, map(id, row["events"])))
        yield f"  obs [{events}] K={text}{' LEAKY' if row['leaky'] else ''}"
    for row in data.get("stats", ()):
        yield (f"  stats {row['secret']}: explored as {row['explored_as']}, "
               f"{row['states']} states, {row['edges']} edges, {row['steps']} steps, "
               f"{row['truncated']} truncated, {row['deadlocked']} deadlocked, bounds "
               f"fired: {' '.join(row['bounds_fired']) or 'none'}")


def cmd_ogcheck(args: argparse.Namespace) -> int:
    from . import assertions as asrt, proofs
    from .config import load_config
    program = _read_program(args.file)
    tool_config = load_config(args.config)
    costs = tool_config.cost_model(program)
    annotated = asrt.annotate_program(program)
    result = proofs.check_proof(annotated, costs, args.snapshot_bound, tool_config.tolerance)
    rows = []
    for vc, outcome in result.entries:
        row = {"kind": vc.kind, "provenance": vc.provenance, "status": outcome.status}
        if outcome.counterexample is not None:
            row["counterexample"] = outcome.counterexample
        if outcome.reason:
            row["reason"] = outcome.reason
        rows.append(row)
    data = {
        "overall": result.overall,
        "message": result.message,
        "certified": [program.location_str(l) for l in result.certified],
        "vcs": rows,
        "warnings": result.warnings,
    }
    human = [f"{result.overall}: {result.message}"]
    for row in rows:
        human.append(f"  [{row['status']:^14}] {row['kind']}: {row['provenance']}")
        if "counterexample" in row:
            human.append(f"      counterexample: {row['counterexample']}")
        if "reason" in row:
            human.append(f"      reason: {row['reason']}")
    human.extend(f"warning: {w}" for w in result.warnings)
    if args.stats:
        distinct = result.discharged()
        shared: set[int] = set()
        for row, (_, outcome) in zip(rows, result.entries):
            row["states"] = 0 if id(outcome) in shared else outcome.checked
            shared.add(id(outcome))
        data["stats"] = stats = {
            "vcs": len(rows),
            "discharged": len(distinct),
            "states_enumerated": sum(r.checked for r in distinct),
            "by_status": {s: len(result.by_status(s))
                          for s in ("valid", "counterexample", "undischarged")},
            "assertions": result.assertions,
        }
        human.append(f"stats: {stats['vcs']} VCs, {stats['discharged']} discharged, "
                     f"{stats['states_enumerated']} states enumerated; " + ", ".join(
                         f"{n} {s}" for s, n in stats["by_status"].items())
                     + f"; {stats['assertions']} distinct assertion terms")
    _emit(data, args.format == "json", human)
    return {"proven": 0, "refuted": 1, "incomplete": 3}[result.overall]


def cmd_dl(args: argparse.Namespace) -> int:
    from . import assertions as asrt, dl as dl_mod
    from .config import load_config
    from .lattice import load_lattice, two_point
    program = _read_program(args.file)
    lattice = load_lattice(args.lattice) if args.lattice else two_point()
    report = dl_mod.dl_certify(program, lattice)
    data = report.to_json(program)
    if args.synthesize:
        costs = load_config(args.config).cost_model(program)
        synthesis = dl_mod.synthesize_leaky_assertions(
            program, report.suggested_pairs, None, _bounds_from(args), costs)
        data["synthesized"] = [
            {"location": program.location_str(s.location),
             "annotation": f"@leaky {{| {asrt.unparse_assertion(s.assertion, program)} |}}",
             "threshold": s.threshold,
             "isolated_durations": s.isolated,
             "composed_durations": s.composed,
             "composed_separable": s.composed_separable}
            for s in synthesis.assertions
        ]
        data["indeterminate"] = [
            {"pair": [program.location_str(r.pair[0]), program.location_str(r.pair[1])],
             "reason": r.reason, "isolated_durations": r.isolated}
            for r in synthesis.indeterminate
        ]
        data["skipped"] = synthesis.skipped
    human = [f"flags: {len(data['flags'])}"]
    for f in data["flags"]:
        human.append(f"  {f['location']}: {f['reason']} ({f['responsible']})")
    for note in data["notes"]:
        human.append(f"note: {note}")
    for s in data.get("synthesized", []):
        human.append(f"synthesized at {s['location']}: {s['annotation']}")
    for r in data.get("indeterminate", []):
        human.append(f"indeterminate for pair {r['pair']}: {r['reason']}")
    _emit(data, args.format == "json", human)
    return 0


def _parse_command(path: str, text: str) -> ifc.Command:
    """A command of scenario ``path``: ``guard(e)`` or one program statement."""
    from . import ifc
    if not isinstance(text, str):
        raise LeakLabError(f"{path}: command {text!r} is not a string")
    try:
        ts = lang.TokenStream(lang.tokenize(text))
        if ts.at("ident", "guard") and ts.at("sym", "(", ahead=1):
            ts.next()
            ts.expect("sym", "(")
            guard = lang.parse_expr(ts)
            ts.expect("sym", ")")
            ts.expect("eof")
            return ifc.GuardEval(guard)
        command = lang.parse_statement(text)
        ifc.input_sequence(command)  # rejects the statements the machine lacks
        return command
    except LeakLabError as e:
        raise LeakLabError(f"{path}: command {text!r}: {e}") from None


def _read_scenario(path: str) -> tuple:
    """``(lattice, q0, sequences, observer, mode)`` of a scenario file,
    every user and variable it names checked before any command runs."""
    from . import ifc
    from .lattice import build_lattice, two_point
    try:
        scenario = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise LeakLabError(f"{path}: not JSON ({e})") from None
    try:
        unknown = sorted(scenario.keys() - {"lattice", "users", "variables", "observer",
                                            "mode", "sequences"})
        if unknown:
            raise LeakLabError(f"{path}: unknown key(s) {unknown}")
        lattice_spec = scenario.get("lattice")
        if lattice_spec:
            lattice = build_lattice(lattice_spec["elements"],
                                    [tuple(p) for p in lattice_spec.get("order", [])])
        else:
            lattice = two_point()
        users = scenario["users"]
        variables = scenario["variables"]
        labels = dict(users)
        clash = sorted(labels.keys() & variables.keys())
        if clash:
            raise LeakLabError(f"{path}: {clash} name both a user and a variable")
        values = {}
        for name, spec in variables.items():
            labels[name] = spec["label"]
            values[name] = spec["value"]
            if not isinstance(values[name], int):
                raise LeakLabError(f"{path}: value of {name!r} is not an integer or boolean")
        for name, label in labels.items():
            if label not in lattice.elements:
                raise LeakLabError(f"{path}: label {label!r} of {name!r} is not a lattice element")
        mode = scenario.get("mode", "sequential")
        if mode not in ("sequential", "concurrent"):
            raise LeakLabError(f"{path}: mode {mode!r} is neither 'sequential' nor 'concurrent'")
        observer = scenario["observer"]
        if observer not in users:
            raise LeakLabError(f"{path}: observer {observer!r} is not a declared user")
        members = frozenset((u, v) for u in users for v in variables)
        q0 = ifc.MachineState(members, labels, values)
        sequences = {}
        for name, seq in scenario["sequences"].items():
            sequences[name] = []
            for user, text in seq:
                if user not in users:
                    raise LeakLabError(f"{path}: user {user!r} of command {text!r} "
                                       "is not a declared user")
                command = _parse_command(path, text)
                undeclared = sorted({op.variable for op in ifc.input_sequence(command)}
                                    - variables.keys())
                if undeclared:
                    raise LeakLabError(f"{path}: command {text!r}: undeclared "
                                       f"variable(s) {undeclared}")
                sequences[name].append((user, command))
        if mode == "concurrent" and len(sequences) != 2:
            raise LeakLabError(f"{path}: concurrent mode needs exactly two sequences")
        return lattice, q0, sequences, observer, mode
    except KeyError as e:
        raise LeakLabError(f"{path}: scenario lacks {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise LeakLabError(f"{path}: malformed scenario ({e})") from None


def cmd_ifc(args: argparse.Namespace) -> int:
    from . import ifc
    lattice, q0, sequences, observer, mode = _read_scenario(args.file)
    results: dict[str, dict] = {}
    ok = True
    if mode == "concurrent":
        first, second = (sequences[name] for name in sorted(sequences))
        outcome = ifc.check_concurrent_ni(first, second, observer, q0, lattice)
        results["concurrent"] = _ni_json(outcome)
        ok = outcome.ni
    else:
        for name in sorted(sequences):
            outcome = ifc.check_sequential_ni(sequences[name], observer, q0, lattice)
            results[name] = _ni_json(outcome)
            ok = ok and outcome.ni
    data = {"mode": mode, "observer": observer, "results": results,
            "non_interfering": ok}
    human = [f"non-interfering: {ok}"]
    for name, row in results.items():
        human.append(f"  {name}: {'NI' if row['ni'] else row['reason']}")
    _emit(data, args.format == "json", human)
    return 0 if ok else 1


def _ni_json(outcome: ifc.NIResult) -> dict:
    row: dict = {"ni": outcome.ni}
    if not outcome.ni:
        row["reason"] = outcome.reason
        if outcome.violating_prefix is not None:
            row["violating_prefix"] = [
                [user, f"{op.variable}:{op.op}"] for user, op in outcome.violating_prefix]
        if outcome.flow_violation is not None:
            v = outcome.flow_violation
            row["flow_violation"] = {"user": v.user, "variable": v.variable,
                                     "constraint": v.constraint}
    return row


def cmd_emit_smt(args: argparse.Namespace) -> int:
    from . import assertions as asrt, proofs
    from .config import load_config
    program = _read_program(args.file)
    tool_config = load_config(args.config)
    costs = tool_config.cost_model(program)
    annotated = asrt.annotate_program(program)
    vcs, _notices = proofs.gen_vcs(annotated, costs)
    table = proofs.AssertionTable(program, tool_config.tolerance)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counters: dict[str, int] = {}
    written = 0
    for vc in vcs:
        index = counters.get(vc.kind, 0)
        counters[vc.kind] = index + 1
        text = proofs.emit_smtlib(vc, program, costs, args.snapshot_bound,
                                  tool_config.tolerance, table)
        (out_dir / f"vc_{vc.kind}_{index}.smt2").write_text(text, encoding="utf-8")
        written += 1
    _write(f"wrote {written} SMT-LIB files to {out_dir}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leaklab",
        description="Information-leak checking for concurrent programs "
                    "with observable output and timing.")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--config": dict(default=os.environ.get("LEAKLAB_CONFIG"),
                         help="cost-model configuration file"),
        "--format": dict(choices=("human", "json"), default="human"),
        "--bound-steps": dict(type=int, default=200),
        "--bound-configs": dict(type=int, default=200_000),
        "--snapshot-bound": dict(type=int, default=64),
    }

    def command(name: str, func, options: str, **kwargs) -> argparse.ArgumentParser:
        """A subcommand that takes a file and the named ``shared`` options."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="input file")
        for option in options.split():
            p.add_argument(option, **shared[option])
        p.set_defaults(func=func)
        return p

    p = command("parse", cmd_parse, "", help="parse, validate and pretty-print")
    p.add_argument("--labels", action="store_true", help="show location labels")

    p = command("run", cmd_run, "--config --bound-steps",
                help="run a single-thread program; dump the trace")
    p.add_argument("--init", action="append", metavar="NAME=VALUE",
                   help="fix a secret or override a declared initializer")

    p = command("leakscan", cmd_leakscan, "--config --format --bound-steps --bound-configs",
                help="exhaustive exploration leak scan")
    p.add_argument("--timing-blind", action="store_true",
                   help="drop timestamps from observations")
    p.add_argument("--observe-threads", action="store_true",
                   help="attacker additionally sees which thread printed")
    p.add_argument("--secret", action="append", metavar="NAME=LO..HI",
                   help="restrict a secret's enumerated domain")
    p.add_argument("--init", action="append", metavar="NAME=VALUE",
                   help="override a declared initializer of a non-secret variable")
    p.add_argument("--stats", action="store_true",
                   help="report per secret value which state search it shares "
                        "and what that search did")

    p = command("ogcheck", cmd_ogcheck, "--config --format --snapshot-bound",
                help="check an annotated proof outline")
    p.add_argument("--stats", action="store_true",
                   help="report how many conditions were discharged, states enumerated "
                        "and distinct assertions analysed")

    p = command(
        "dl", cmd_dl, "--config --format --bound-steps --bound-configs",
        help="dynamic-labelling pass; flag sensitive outputs",
        description="Dynamic-labelling pass: flag outputs that may depend on a secret.",
        epilog="Exits 0 whether or not it reports flags: a flag is a candidate for "
               "a leak, not a verdict (leakscan and ogcheck give verdicts).")
    p.add_argument("--lattice", help="lattice definition JSON")
    p.add_argument("--synthesize", action="store_true",
                   help="also synthesize duration-rule postulates")

    command("ifc", cmd_ifc, "--format", help="run a state-machine scenario")

    p = command("emit-smt", cmd_emit_smt, "--config --snapshot-bound",
                help="emit one SMT-LIB file per condition")
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (LeakLabError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
