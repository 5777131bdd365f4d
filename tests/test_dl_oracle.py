"""Differential tests: the one-walk labelling of ``dl`` against the two
walks of ``dl_oracle``.

Both must give the same ``LabelReport.to_json`` and ``suggested_pairs``,
or raise the same error, on every program under ``tests/programs`` and on
seeded generated ones.  The generated programs nest ``if``, ``while`` and
``await``, taint variables through chains such as ``x = h`` then ``y = x``
and guard on them, so that a guard can be high by the dynamic labels and
low by the declared ones, which the pair rule reads.
"""

from __future__ import annotations

import random
import re

import pytest

from leaklab import dl, lang
from leaklab.errors import LeakLabError
from leaklab.lattice import build_lattice, two_point

import dl_oracle
from conftest import PROGRAMS

DIAMOND = build_lattice(
    ["bot", "a", "b", "top"],
    [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])

# The first variable of each family is the secret.
FAMILIES = {
    "two-point": (two_point(), {"h": "high", "x": "low", "y": "low", "z": "low"}),
    "diamond": (DIAMOND, {"h": "top", "p": "a", "q": "b", "x": "bot", "y": "bot"}),
}


def outcome(certify, program, lattice):
    try:
        report = certify(program, lattice)
    except LeakLabError as e:
        return "error", str(e)
    return report.to_json(program), report.suggested_pairs


def assert_same(program: lang.Program, lattice) -> tuple:
    want = outcome(dl_oracle.dl_certify, program, lattice)
    assert outcome(dl.dl_certify, program, lattice) == want, lang.unparse(program)
    return want


def generated_source(rng: random.Random, labels: dict[str, str]) -> str:
    names = list(labels)
    secret, public = names[0], names[1:]

    def guard() -> str:
        v, w = rng.choice(names + [secret]), rng.choice(names)
        return rng.choice([v, f"{v} > 0", f"{v} = 0 and {w} < 2", "true"])

    def value() -> str:
        v = rng.choice(names + [secret])
        return rng.choice([v, v, f"{v} + 1", str(rng.randint(0, 1))])

    def block(depth: int, in_await: bool) -> str:
        return " ".join(stmt(depth + 1, in_await) for _ in range(rng.randint(0, 4)))

    def stmt(depth: int, in_await: bool) -> str:
        kinds = ["skip", "delay"] + ["print"] * 3 + ["assign"] * 3
        if depth < 3:
            kinds += ["if", "if", "while"] + ([] if in_await else ["await"])
        kind = rng.choice(kinds)
        if kind == "skip":
            return "skip;"
        if kind == "print":
            return rng.choice(["print('s');", f"print({rng.choice(names)});"])
        if kind == "delay":
            return rng.choice(["delay(1);", f"delay({rng.choice(names)});"])
        if kind == "assign":
            return f"{rng.choice(public)} = {value()};"
        if kind == "if":
            other = f" else {{ {block(depth, in_await)} }}" if rng.random() < 0.6 else ""
            return f"if {guard()} then {{ {block(depth, in_await)} }}{other};"
        if kind == "while":
            return f"while {guard()} do {{ {block(depth, in_await)} }};"
        return f"await {guard()} then {{ {block(depth, True)} }};"

    decls = [f"var {secret} : int[0..1] label {labels[secret]} = secret;"]
    decls += [f"var {v} : int[0..3] label {labels[v]} = 0;" for v in public]
    threads = [f"thread T{t} {{ {' '.join(stmt(0, False) for _ in range(rng.randint(2, 6)))} }}"
               for t in range(rng.randint(1, 2))]
    return "\n".join(decls + threads)


@pytest.mark.parametrize("path", sorted(PROGRAMS.rglob("*.cwl")),
                         ids=lambda p: p.relative_to(PROGRAMS).as_posix())
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_program_files_match_the_two_walks(path, family):
    # The files are labelled low/high, so under the diamond both raise.
    program = lang.parse_program(path.read_text(encoding="utf-8"))
    assert_same(program, FAMILIES[family][0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generated_programs_match_the_two_walks(family):
    lattice, labels = FAMILIES[family]
    rng = random.Random(f"dl-{family}")
    low = {v for v, label in labels.items() if label == lattice.bottom}
    with_pairs = nested_pairs = tainted_guards = 0
    for _ in range(1000):
        program = lang.parse_program(generated_source(rng, labels))
        report, pairs = assert_same(program, lattice)
        with_pairs += bool(pairs)
        top = {s.label for t in program.threads for s in t.body}
        nested_pairs += any(a not in top for a, _ in pairs)
        # a guard flag that cites only declared-bottom variables: tainted
        tainted_guards += any(f["reason"] == dl.HIGH_GUARD_OUTPUT
                              and set(re.findall(r"\w+", f["responsible"])) <= low
                              for f in report["flags"])
    # Enough of each case to keep the comparison honest (about twice these).
    assert with_pairs >= 50 and nested_pairs >= 10 and tainted_guards >= 30
