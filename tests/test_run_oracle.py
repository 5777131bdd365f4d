"""Differential test: ``leaklab run`` against the one-thread reference.

``run`` reads a one-thread program's one run from the thread's isolated
walk (``explorer.lone_run``), judged by the search's rule;
``schedule_oracle.run_deterministic`` steps it a configuration at a time.
At every step bound both print the same trace, or fail with the same exit
code and message, but for one documented edge: a run that ends on exactly
its bound-th step runs out of the reference's bound, while ``run`` checks a
finished state before the step bound, as the search does, and prints it.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import cli, explorer, lang, semantics
from leaklab.errors import LeakLabError

from conftest import PROGRAMS
from schedule_oracle import run_deterministic
from test_explore_oracle import small_programs

ONE_THREAD = [path for path in sorted(PROGRAMS.rglob("*.cwl"))
              if len(lang.parse_program(path.read_text(encoding="utf-8")).threads) == 1]
BOUNDS = (*range(1, 13), 200)


def run_command(path: Path, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), *argv])
    return code, out.getvalue(), err.getvalue()


def reference(program: lang.Program, init: dict, bound: int) -> tuple[int, str, str]:
    """What ``run`` printed when it stepped through ``run_deterministic``."""
    try:
        final = run_deterministic(program, {**program.initial_store(), **init},
                                  max_steps=bound)
    except LeakLabError as e:
        return 2, "", f"error: {e}\n"
    return 0, "".join(f"{program.threads[e.thread].name}\t{e.payload}\t{e.timestamp}\n"
                      for e in final.trace), ""


def assert_run_matches(path: Path, bounds=BOUNDS) -> int:
    """Compare ``run`` with the reference for each secret valuation at each
    bound; return how often the documented edge was met."""
    program = lang.parse_program(path.read_text(encoding="utf-8"))
    edges = 0
    for valuation in explorer.secret_domain_of(program):
        argv = [f"--init={name}={semantics.render_value(value)}" for name, value in valuation]
        for bound in bounds:
            got = run_command(path, [*argv, "--bound-steps", str(bound)])
            want = reference(program, dict(valuation), bound)
            if got != want:  # the run ends on exactly its bound-th step
                assert want == (2, "", f"error: no termination within {bound} steps\n")
                assert got == reference(program, dict(valuation), bound + 1)
                assert got[0] == 0
                edges += 1
    return edges


def test_the_files_have_one_thread_each():
    assert {p.name for p in ONE_THREAD} == {"region_thread.cwl", *(
        p.name for p in (PROGRAMS / "corpus").glob("*.cwl") if "05" <= p.name[:2] <= "10")}


@pytest.mark.parametrize("path", ONE_THREAD, ids=lambda p: p.name)
def test_corpus_run_matches_reference(path: Path):
    # Each valuation's run ends within 12 steps, so each meets the edge once.
    assert assert_run_matches(path) == len(explorer.secret_domain_of(
        lang.parse_program(path.read_text(encoding="utf-8"))))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("run") / "program.cwl"


@settings(deadline=None)
@given(small_programs().filter(lambda source: source.count("thread ") == 1),
       st.sampled_from(BOUNDS))
def test_generated_run_matches_reference(scratch: Path, source: str, bound: int):
    scratch.write_text(source, encoding="utf-8")
    assert_run_matches(scratch, (bound, bound + 1))
