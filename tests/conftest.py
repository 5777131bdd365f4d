from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from leaklab import assertions as asrt
from leaklab import lang, semantics
from leaklab.errors import LeakLabError

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

PROGRAMS = Path(__file__).parent / "programs"
CORPUS = PROGRAMS / "corpus"


def load_program(name: str) -> lang.Program:
    return lang.parse_program((PROGRAMS / name).read_text(encoding="utf-8"))


def load_corpus() -> dict[str, lang.Program]:
    return {p.name: lang.parse_program(p.read_text(encoding="utf-8"))
            for p in sorted(CORPUS.glob("*.cwl"))}


def outcome(fn):
    """``("ok", fn())``, or ``("error", type, message)`` of the
    ``LeakLabError`` it raised, so that errors compare by type and message."""
    try:
        return "ok", fn()
    except LeakLabError as e:
        return "error", type(e), str(e)


def count_misses(monkeypatch, measure) -> tuple:
    """What ``measure()`` returns, and how many moves it found missing from
    the program's table (``semantics.move`` calls)."""
    calls = []
    move = semantics.move
    with monkeypatch.context() as patch:
        patch.setattr(semantics, "move", lambda *args: calls.append(1) or move(*args))
        result = measure()
    return result, len(calls)


def visits(found) -> list[tuple]:
    """``(key, outcome)`` of each key of an ``explorer.Search``, in the
    order the search finished them: how a run ends at the key, or else its
    ``(events, child key)`` edges."""
    return [(key, outcome if outcome.__class__ is str else
             [(found.labels[outcome[i]], found.keys[outcome[i + 1]])
              for i in range(0, len(outcome), 2)])
            for key, outcome in zip(found.keys, found.graph)]


def trivially_annotate(program: lang.Program,
                       leaky: dict | None = None) -> asrt.AnnotatedProgram:
    """An all-true outline: enough for chain/interference generation, so a
    proof's substance comes entirely from the leak-postulate conditions."""
    extra_pre = {s.label: asrt.TRUE
                 for t in program.threads for s in lang.iter_statements(t.body)}
    annotated = asrt.annotate_program(program, extra_pre=extra_pre,
                                      extra_leaky=leaky or {})
    for t in range(len(program.threads)):
        annotated.posts.setdefault(t, asrt.TRUE)
    return annotated


@pytest.fixture
def semaphore_pair() -> lang.Program:
    return load_program("semaphore_pair.cwl")


@pytest.fixture
def region_thread() -> lang.Program:
    return load_program("region_thread.cwl")


@pytest.fixture
def semaphore_annotated_program() -> lang.Program:
    return load_program("semaphore_pair_annotated.cwl")
