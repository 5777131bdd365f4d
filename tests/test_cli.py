from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import assertions as asrt, cli, lang

from conftest import PROGRAMS, visits
from test_lang import int_exprs


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name: str) -> str:
    return str(PROGRAMS / name)


def run_subprocess(*argv: str, stdout=subprocess.PIPE,
                   hash_seed: str = "0") -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "leaklab.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=60)


class TestParseCommand:
    def test_semaphore_pair_labelled_listing(self, capsys):
        code, out, _ = run_cli(capsys, "parse", fixture("semaphore_pair.cwl"), "--labels")
        assert code == 0
        for i in range(8):
            assert f"l{i}:" in out
        assert "l8:" in out  # exit label of the longer thread

    def test_empty_file_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.cwl"
        empty.write_text("")
        code, _, err = run_cli(capsys, "parse", str(empty))
        assert code == 2
        assert "error" in err

    def test_nested_await_names_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.cwl"
        bad.write_text("var x : int[0..1] label low = 1;\n"
                       "thread A { await x > 0 then { await x > 0 then { skip; }; }; }")
        code, _, err = run_cli(capsys, "parse", str(bad))
        assert code == 2
        assert "nested await" in err and "2:" in err


class TestRunCommand:
    def test_trace_dump_is_tab_separated(self, capsys):
        code, out, _ = run_cli(capsys, "run", fixture("region_thread.cwl"),
                               "--bound-steps", "50", "--init", "h=0")
        assert code == 0
        lines = [line.split("\t") for line in out.strip().splitlines()]
        assert lines == [["T2", "c", "1"], ["T2", "d", "4"]]

    def test_secrets_need_explicit_values(self, capsys):
        code, _, err = run_cli(capsys, "run", fixture("region_thread.cwl"))
        assert code == 2
        assert "--init" in err

    def test_multithreaded_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", fixture("semaphore_pair.cwl"),
                               "--init", "h=0")
        assert code == 2

    @pytest.mark.parametrize("bound", ("0", "-3"))
    def test_non_positive_step_bound_rejected(self, capsys, bound):
        code, out, err = run_cli(capsys, "run", fixture("region_thread.cwl"),
                                 "--init", "h=0", "--bound-steps", bound)
        assert code == 2 and out == ""
        assert err == "error: exploration bounds must be positive\n"

    @staticmethod
    def run_source(capsys, tmp_path, source: str, bound: str) -> tuple[int, str, str]:
        path = tmp_path / "one.cwl"
        path.write_text(source)
        return run_cli(capsys, "run", str(path), "--bound-steps", bound)

    def test_run_that_ends_on_its_last_step_is_printed(self, capsys, tmp_path):
        # The search checks a finished state before the step bound.
        assert self.run_source(capsys, tmp_path, "thread A { print('a'); }", "1") == (
            0, "A\ta\t1\n", "")

    def test_run_one_step_past_the_bound_is_cut(self, capsys, tmp_path):
        assert self.run_source(capsys, tmp_path, "thread A { print('a'); print('b'); }",
                               "1") == (2, "", "error: no termination within 1 steps\n")

    def test_endless_loop_is_cut(self, capsys, tmp_path):
        assert self.run_source(capsys, tmp_path, "thread A { while true do { skip; }; }",
                               "5") == (2, "", "error: no termination within 5 steps\n")

    def test_long_printing_run_needs_little_memory(self, capsys, tmp_path):
        # One run holds no copy of the rest of its trace per state: the
        # memory it takes grows with the run, not with its square.
        source = ("var i : int[0..5000] label low = 0;\n"
                  "thread A { while i < 5000 do { print('x'); i = i + 1; }; }")
        tracemalloc.start()
        try:
            result = self.run_source(capsys, tmp_path, source, "5000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", "error: no termination within 5000 steps\n")
        assert peak < 10 * 2**20

    def test_cycling_run_fails_fast(self, capsys, tmp_path):
        # The run comes back to a state it left, so it is cut at once
        # rather than stepped to its bound.
        tracemalloc.start()
        try:
            result = self.run_source(capsys, tmp_path,
                                     "thread A { while true do { print('x'); }; }", "50000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", "error: no termination within 50000 steps\n")
        assert peak < 4 * 2**20

    def test_block_at_the_step_bound_is_cut(self, capsys, tmp_path):
        # The state at the bound is cut before the blocked await is seen.
        source = ("var x : int[0..1] label low = 0;\n"
                  "thread A { skip; await x = 1 then { skip; }; }")
        assert self.run_source(capsys, tmp_path, source, "1") == (
            2, "", "error: no termination within 1 steps\n")
        assert self.run_source(capsys, tmp_path, source, "2") == (
            2, "", "error: single thread blocked on await\n")

    def test_failing_step_past_the_bound_is_cut(self, capsys, tmp_path):
        # The fourth step leaves i's domain; a bound of 3 cuts the run first.
        source = ("var i : int[0..3] label low = 0;\n"
                  "thread A { i = i + 1; i = i + 1; i = i + 1; i = i + 1; }")
        assert self.run_source(capsys, tmp_path, source, "3") == (
            2, "", "error: no termination within 3 steps\n")
        assert self.run_source(capsys, tmp_path, source, "4") == (
            2, "", "error: assignment at A.l3 sets i to 4, outside its declared domain\n")

    def test_blocked_await_is_a_deadlock(self, capsys, tmp_path):
        source = ("var x : int[0..1] label low = 0;\n"
                  "thread A { print('a'); await x > 0 then { skip; }; }")
        assert self.run_source(capsys, tmp_path, source, "50") == (
            2, "", "error: single thread blocked on await\n")

    def test_the_bound_is_checked_before_the_thread_count(self, capsys):
        assert run_cli(capsys, "run", fixture("semaphore_pair.cwl"), "--init", "h=0",
                       "--bound-steps", "0") == (
            2, "", "error: exploration bounds must be positive\n")


class TestLeakscan:
    def test_semaphore_pair_exit_1_and_acdb(self, capsys):
        code, out, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                               "--bound-steps", "40", "--timing-blind",
                               "--format", "json")
        assert code == 1
        data = json.loads(out)
        row = next(r for r in data["observations"] if r["letters"] == "a c d b")
        assert row["knowledge"] == [{"h": 0}] and row["leaky"]

    def test_secret_free_exit_0(self, capsys, tmp_path):
        safe = tmp_path / "safe.cwl"
        safe.write_text("var x : int[0..1] label low = 0;\nthread A { print('x'); }")
        code, _, _ = run_cli(capsys, "leakscan", str(safe))
        assert code == 0

    def test_bound_exhausted_exit_3(self, capsys, tmp_path):
        loopy = tmp_path / "loopy.cwl"
        loopy.write_text("var h : int[0..1] label high = secret;\n"
                         "thread A { while true do { print('x'); }; }")
        code, _, _ = run_cli(capsys, "leakscan", str(loopy), "--bound-steps", "6")
        assert code == 3

    def test_json_reports_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                              "--bound-steps", "40", "--format", "json")
        _, second, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                               "--bound-steps", "40", "--format", "json")
        assert first == second

    def test_secret_domain_override(self, capsys):
        code, out, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                               "--bound-steps", "40", "--secret", "h=0..0",
                               "--format", "json")
        assert code == 0  # a singleton domain cannot shrink further
        data = json.loads(out)
        assert data["secret_domain"] == [{"h": 0}]

    def test_full_range_secret_keeps_the_report(self, capsys, tmp_path):
        # k is declared before a, so name order and declaration order differ.
        source = tmp_path / "two_secrets.cwl"
        source.write_text(
            "var k : int[0..1] label high = secret;\n"
            "var a : int[0..1] label high = secret;\n"
            "thread A { if k then { print('k'); } else { skip; };\n"
            "           if a then { print('a'); } else { skip; }; }\n")
        _, plain, _ = run_cli(capsys, "leakscan", str(source), "--format", "json")
        _, full, _ = run_cli(capsys, "leakscan", str(source), "--format", "json",
                             "--secret", "k=0..1")
        assert json.loads(plain)["secret_domain"][:2] == [{"a": 0, "k": 0}, {"a": 1, "k": 0}]
        assert full == plain

    def test_reports_identical_across_processes(self):
        # Fresh processes hash strings with different seeds, so set iteration
        # orders differ between them; the report must not.
        outputs = [run_subprocess("leakscan", fixture("semaphore_pair.cwl"),
                                  "--bound-steps", "40", "--format", "json",
                                  hash_seed=seed).stdout
                   for seed in ("1", "2")]
        assert outputs[0] == outputs[1] and outputs[0]

    def test_human_output_shows_timestamps(self, capsys):
        code, out, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == len(set(lines))
        assert "  obs [a@3 c@4 d@7 b@9] K=[{'h': 0}] LEAKY" in lines
        _, blind, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                              "--timing-blind")
        assert "  obs [a c d b] K=[{'h': 0}] LEAKY" in blind.splitlines()

    def test_stats_come_only_with_the_flag(self, capsys):
        _, plain, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                              "--format", "json")
        _, with_stats, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                                   "--format", "json", "--stats")
        data = json.loads(with_stats)
        stats = data.pop("stats")
        assert json.dumps(data, sort_keys=True, indent=2) + "\n" == plain
        assert [row["secret"] for row in stats] == [{"h": 0}, {"h": 1}]
        _, human, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"))
        _, human_stats, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                                    "--stats")
        extra = human_stats.splitlines()[len(human.splitlines()):]
        assert human_stats.startswith(human) and len(extra) == 2
        assert extra[0].startswith("  stats {'h': 0}: ")
        assert extra[0].endswith(" 0 truncated, 0 deadlocked, bounds fired: none")

    def test_stats_count_the_search(self, capsys, monkeypatch):
        from leaklab import explorer, lang, semantics
        calls = []
        move = semantics.move
        monkeypatch.setattr(semantics, "move", lambda *args: calls.append(
            (args[2], args[3], move(*args))) or calls[-1][2])
        _, out, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                            "--format", "json", "--stats")
        stats = json.loads(out)["stats"]
        # One call per table entry: each (head, store) is stepped once.  The
        # command parses its own program and the two classes never share a
        # store, so each move a search used was one miss of the table, and
        # the other misses are the entries of a thread blocked at an await.
        assert len({(head, store) for head, store, _ in calls}) == len(calls)
        moved = [entry for _, _, entry in calls if entry is not None]
        assert sum(row["steps"] for row in stats) == len(moved) > 0
        assert len(calls) - len(moved) == 2  # T2's await while T1 holds sem, h = 1
        program = lang.parse_program(Path(fixture("semaphore_pair.cwl")).read_text())
        for row in stats:
            keys = []
            edges = []
            found = explorer.search(program, {**program.initial_store(), **row["secret"]},
                                    explorer.ExploreBounds(), semantics.CostModel(), frozenset())
            for key, outcome in visits(found):
                keys.append(key)
                if not isinstance(outcome, str):
                    edges.extend((key, child) for _, child in outcome)
            # Every statement of this program moves its thread on, so an
            # edge's thread is the one whose head changed.
            triples = {(t, key[0][t], key[1]) for key, child in edges
                       for t, (a, b) in enumerate(zip(key[0], child[0])) if a != b}
            assert row["states"] == len(keys)
            assert row["edges"] == len(edges)
            assert row["steps"] == len(triples) < len(edges)
            assert (row["truncated"], row["deadlocked"], row["bounds_fired"]) == (0, 0, [])

    @pytest.mark.parametrize("flags,fired", [
        ((), []),
        (("--bound-steps", "3"), ["--bound-steps"]),
        (("--bound-configs", "10"), ["--bound-configs"]),
        (("--bound-steps", "3", "--bound-configs", "4"), ["--bound-steps", "--bound-configs"]),
    ])
    def test_stats_name_the_bounds_that_fired(self, capsys, flags, fired):
        _, out, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                            "--format", "json", "--stats", *flags)
        data = json.loads(out)
        assert [row["bounds_fired"] for row in data["stats"]] == [fired, fired]
        assert data["complete"] == (not fired)
        for row in data["stats"]:
            assert (row["truncated"] > 0) == ("--bound-steps" in fired)
            if "--bound-configs" in fired:
                assert row["states"] == int(flags[flags.index("--bound-configs") + 1])

    def test_inconclusive_human_verdict_names_the_bound(self, capsys):
        code, out, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                               "--bound-steps", "3")
        assert code == 3
        assert out.splitlines()[0] == (
            "verdict: inconclusive (complete=False; bounds fired: --bound-steps)")
        _, both, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                             "--bound-steps", "3", "--bound-configs", "4")
        assert both.splitlines()[0].endswith("bounds fired: --bound-steps --bound-configs)")
        _, done, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"))
        assert done.splitlines()[0] == "verdict: leak-found (complete=True)"

    def test_stats_without_secrets(self, capsys, tmp_path):
        safe = tmp_path / "safe.cwl"
        safe.write_text("var x : int[0..1] label low = 0;\nthread A { print('x'); }")
        _, out, _ = run_cli(capsys, "leakscan", str(safe), "--format", "json", "--stats")
        assert json.loads(out)["stats"] == [{"secret": {}, "explored_as": {}, "states": 2,
                                             "edges": 1, "steps": 1, "truncated": 0,
                                             "deadlocked": 0, "bounds_fired": []}]

    @pytest.mark.parametrize("name,expected", [("semaphore_pair.cwl", 1),
                                               ("corpus/06_unused_secret.cwl", 0)])
    def test_closed_stdout_keeps_exit_code(self, name, expected):
        # The reader is gone before the first write: the semaphore pair's
        # report fails while it is written, the short one at the final flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_subprocess("leakscan", fixture(name), "--format", "json",
                                    stdout=write_end)
        finally:
            os.close(write_end)
        assert result.returncode == expected
        assert result.stderr == ""


ONE_THREAD_DECLS = ("var h : int[0..1] label high = secret;\n"
                    "var x : int[0..1] label low = 0;\n")


class TestOgcheck:
    def test_annotated_semaphore_pair_proven(self, capsys):
        code, out, _ = run_cli(capsys, "ogcheck", fixture("semaphore_pair_annotated.cwl"))
        assert code == 0
        assert "certified leaky" in out and "T2.l7" in out

    def test_inverted_refuted(self, capsys):
        code, out, _ = run_cli(capsys, "ogcheck",
                               fixture("semaphore_pair_inverted.cwl"))
        assert code == 1
        assert "counterexample" in out

    def test_endless_loop_postulate_refuted(self, capsys, tmp_path):
        # Every pass takes 3 units from 's' to 'e' when h = 0.
        loop = tmp_path / "loop.cwl"
        loop.write_text(
            "var h : int[0..1] label high = secret;\n"
            "thread A { {| true |} while true do {\n"
            "  {| true |} print('s');\n"
            "  {| true |} if h then { delay(3); } else { skip; };\n"
            "  {| true |} @leaky {| t@l5 - t@l1 < 100 -> h = 1 |} print('e');\n"
            "}; } post {| true |}\n")
        code, out, _ = run_cli(capsys, "ogcheck", str(loop), "--format", "json")
        assert code == 1
        [cx] = [row["counterexample"] for row in json.loads(out)["vcs"]
                if "counterexample" in row]
        assert cx["store"] == {"h": 0}

    def test_domain_exit_after_the_pair_is_incomplete(self, capsys, tmp_path):
        # The run alone leaves i's domain after 'e': the path timings are
        # underivable, which leaves the rule undischarged.
        program = tmp_path / "exit.cwl"
        program.write_text(
            "var h : int[0..1] label high = secret;\n"
            "var i : int[0..1] label low = 0;\n"
            "thread A { {| true |} print('s');\n"
            "  {| true |} @leaky {| t@l1 - t@l0 < 100 -> h = 1 |} print('e');\n"
            "  {| true |} i = i + 1; {| true |} i = i + 1; } post {| true |}\n")
        code, out, _ = run_cli(capsys, "ogcheck", str(program), "--format", "json")
        assert code == 3
        data = json.loads(out)
        assert data["overall"] == "incomplete"
        assert [row["status"] for row in data["vcs"] if row["kind"] == "leaky"] == [
            "undischarged"]

    @pytest.mark.parametrize("postulate, cx_store", [
        ("h = 0", {"h": 1}),
        ("x = 0 -> h = 0", {"h": 1, "x": 0}),
    ])
    def test_every_postulate_must_hold_at_its_location(self, capsys, tmp_path,
                                                      postulate, cx_store):
        # One thread gives no stability conditions; each postulate was
        # certified while leakscan finds no leak.
        program = tmp_path / "one.cwl"
        program.write_text(
            f"{ONE_THREAD_DECLS}thread A {{ {{| true |}} print('a'); "
            f"{{| true |}} @leaky {{| {postulate} |}} print('b'); }} post {{| true |}}\n")
        code, out, _ = run_cli(capsys, "ogcheck", str(program), "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["message"] == "leak not established"
        [row] = [row for row in data["vcs"] if row["kind"] == "leaky"]
        assert row["provenance"] == "rule 0 of postulate at A.l1"
        assert row["counterexample"]["store"] == cx_store

    @pytest.mark.parametrize("pre, code", [("x = h", 0), ("true", 1)])
    def test_rule_is_judged_under_its_pre_assertion(self, capsys, tmp_path, pre, code):
        program = tmp_path / "copy.cwl"
        program.write_text(
            f"{ONE_THREAD_DECLS}thread A {{ {{| true |}} x = h; "
            f"{{| {pre} |}} @leaky {{| x = 0 -> h = 0 |}} print('b'); }} post {{| true |}}\n")
        assert run_cli(capsys, "ogcheck", str(program))[0] == code

    def test_postulate_is_protected_under_its_pre_assertion(self, capsys, tmp_path):
        # x = h holds at every arrival at A.l1, and B.l0 moves only the clock.
        program = tmp_path / "protected.cwl"
        program.write_text(
            f"{ONE_THREAD_DECLS}thread A {{ {{| true |}} x = h; "
            "{| x = h |} @leaky {| t >= 2 -> x = h |} print(x); } post {| true |}\n"
            "thread B { {| true |} skip; } post {| true |}\n")
        code, out, _ = run_cli(capsys, "ogcheck", str(program))
        assert code == 0
        assert "certified leaky at A.l1" in out
        assert "  [    valid     ] leaky: B.l0 preserves postulate at A.l1" in out.splitlines()

    def test_snapshots_that_form_no_pair_are_judged_without_timings(self, capsys, tmp_path):
        program = tmp_path / "three.cwl"
        program.write_text(
            "var h : int[0..1] label high = secret;\n"
            "thread A { {| true |} print('a');\n"
            "  {| true |} if h then { {| true |} skip; }\n"
            "  else { {| true |} skip; {| true |} skip; };\n"
            "  {| true |} print('b');\n"
            "  {| true |} @leaky {| (t@l5 - t@l0 < 100 -> h = 0 or h = 1)\n"
            "    and (t@l6 - t@l5 > 100 -> h = 0) |} print('c'); } post {| true |}\n")
        code, out, _ = run_cli(capsys, "ogcheck", str(program), "--format", "json")
        assert code == 3
        data = json.loads(out)
        assert data["warnings"] == ["postulate at A.l6: isolated path timings underivable; "
                                    "its rules must hold without them"]
        assert [(row["provenance"], row["status"]) for row in data["vcs"]
                if row["kind"] == "leaky"] == [
            ("rule 0 of postulate at A.l6 without isolated path timings", "valid"),
            ("rule 1 of postulate at A.l6 without isolated path timings", "undischarged")]

    def test_text_report_shows_warnings_and_reasons(self, capsys, tmp_path):
        program = tmp_path / "three.cwl"
        program.write_text(
            "var h : int[0..1] label high = secret;\n"
            "thread A { {| true |} print('a'); {| true |} print('b');\n"
            "  {| true |} @leaky {| (t@l1 - t@l0 < 100 -> h = 0 or h = 1)\n"
            "    and (t@l2 - t@l1 > 100 -> h = 0) |} print('c'); } post {| true |}\n")
        _, data, _ = run_cli(capsys, "ogcheck", str(program), "--format", "json")
        data = json.loads(data)
        [reason] = [row["reason"] for row in data["vcs"] if "reason" in row]
        code, out, _ = run_cli(capsys, "ogcheck", str(program))
        assert code == 3
        lines = out.splitlines()
        undischarged = lines.index(
            "  [ undischarged ] leaky: rule 1 of postulate at A.l2 without isolated path timings")
        assert lines[undischarged + 1] == f"      reason: {reason}"
        assert reason == "the rule fails without the underivable isolated path timings"
        assert lines[-len(data["warnings"]):] == [f"warning: {w}" for w in data["warnings"]]
        assert data["warnings"] == ["postulate at A.l2: isolated path timings underivable; "
                                    "its rules must hold without them"]

    @pytest.mark.parametrize("source, provenance, cx", [
        ("var x : int[0..1] label low = 0;\n"
         "thread A { {| x = 1 |} skip; } post {| x = 1 |}\n",
         "A: initial store establishes pre of A.l0", {"store": {"x": 0}, "snapshots": {}}),
        # The first pre-assertion once certified this postulate at A.l1,
        # although h = 1 reaches it.
        ("var h : int[0..1] label high = secret;\n"
         "thread A { {| h = 0 |} print('a'); {| h = 0 |} @leaky {| h = 0 |} print('b'); }"
         " post {| true |}\n",
         "A: initial store establishes pre of A.l0", {"store": {"h": 1}, "snapshots": {}}),
        ("thread A { {| t = 1 |} skip; } post {| t = 2 |}\n",
         "A: initial store establishes pre of A.l0", {"store": {}, "snapshots": {}, "clock": 0}),
        ("var x : int[0..1] label low = 0;\nthread A { } post {| x = 1 |}\n",
         "A: initial store establishes A post", {"store": {"x": 0}, "snapshots": {}}),
    ], ids=["low", "secret", "clock", "empty-body"])
    def test_the_initial_store_must_establish_each_first_assertion(
            self, capsys, tmp_path, source, provenance, cx):
        program = tmp_path / "init.cwl"
        program.write_text(source)
        code, out, _ = run_cli(capsys, "ogcheck", str(program), "--format", "json")
        assert code == 1
        rows = json.loads(out)["vcs"]
        assert [(row["kind"], row["provenance"], row["counterexample"]) for row in rows
                if row["status"] == "counterexample"] == [("sequential", provenance, cx)]

    @pytest.mark.parametrize("name", ["semaphore_pair_annotated.cwl",
                                      "semaphore_pair_inverted.cwl"])
    def test_stats_come_only_with_the_flag(self, capsys, name):
        _, plain, _ = run_cli(capsys, "ogcheck", fixture(name), "--format", "json")
        _, with_stats, _ = run_cli(capsys, "ogcheck", fixture(name), "--format", "json",
                                   "--stats")
        data = json.loads(with_stats)
        stats = data.pop("stats")
        states = [row.pop("states") for row in data["vcs"]]
        assert json.dumps(data, sort_keys=True, indent=2) + "\n" == plain
        # Each distinct triple counts its states once, at its first entry.
        assert sum(states) == stats["states_enumerated"]
        assert sum(n > 0 for n in states) <= stats["discharged"] < len(states)
        assert stats["vcs"] == len(data["vcs"]) == sum(stats["by_status"].values())
        assert stats["by_status"] == {
            status: sum(row["status"] == status for row in data["vcs"])
            for status in ("valid", "counterexample", "undischarged")}
        _, human, _ = run_cli(capsys, "ogcheck", fixture(name))
        _, human_stats, _ = run_cli(capsys, "ogcheck", fixture(name), "--stats")
        assert human_stats.startswith(human)
        [extra] = human_stats.splitlines()[len(human.splitlines()):]
        assert extra.startswith(f"stats: {stats['vcs']} VCs, {stats['discharged']} discharged, "
                                f"{stats['states_enumerated']} states enumerated; ")
        assert extra.endswith(f"; {stats['assertions']} distinct assertion terms")

    def test_stats_count_each_distinct_triple_once(self, capsys, monkeypatch):
        from leaklab import proofs
        checked = []
        discharge = proofs.discharge_vc

        def counted(*args):
            result = discharge(*args)
            checked.append(result.checked)
            return result

        monkeypatch.setattr(proofs, "discharge_vc", counted)
        _, out, _ = run_cli(capsys, "ogcheck", fixture("semaphore_pair_annotated.cwl"),
                            "--format", "json", "--stats")
        stats = json.loads(out)["stats"]
        assert (stats["vcs"], stats["discharged"]) == (40, 27)
        assert stats["states_enumerated"] == sum(checked)
        assert len(checked) == stats["discharged"]
        _, again, _ = run_cli(capsys, "ogcheck", fixture("semaphore_pair_annotated.cwl"),
                              "--format", "json", "--stats")
        assert again == out

    def test_unannotated_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "ogcheck", fixture("semaphore_pair.cwl"))
        assert code == 2
        assert "missing pre-assertion" in err or "post assertion" in err


class TestDlCommand:
    def test_flags_listed(self, capsys, tmp_path):
        direct = tmp_path / "direct.cwl"
        direct.write_text("var h : int[0..1] label high = secret;\n"
                          "thread A { if h then { print(1); } else { print(2); }; }")
        code, out, _ = run_cli(capsys, "dl", str(direct), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert {f["reason"] for f in data["flags"]} == {"HighGuardOutput"}

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_flags_are_candidates_and_exit_0(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "dl", fixture("corpus/05_direct_branch_print.cwl"),
                               "--format", fmt)
        assert code == 0
        flags = (json.loads(out)["flags"] if fmt == "json"
                 else [line for line in out.splitlines() if line.startswith("  ")])
        assert len(flags) == 2

    def test_synthesize_emits_annotation_text(self, capsys):
        code, out, _ = run_cli(capsys, "dl", fixture("region_thread.cwl"),
                               "--synthesize", "--format", "json")
        assert code == 0
        data = json.loads(out)
        (synth,) = data["synthesized"]
        assert synth["annotation"].startswith("@leaky {|")
        assert synth["threshold"] == 4

    def test_synthesize_reads_every_isolated_duration(self, capsys, tmp_path):
        # The late branch shows only past 200 steps; the step bound does not
        # cut the thread's isolated run.
        program = tmp_path / "late_delay.cwl"
        program.write_text(
            "var h : int[0..1] label high = secret;\n"
            "var i : int[0..60] label low = 0;\n"
            "thread A { while i < 60 do { print('s'); if h then { delay(3); } "
            "else { skip; }; if i > 50 then { delay(4); } else { skip; }; "
            "print('e'); i = i + 1; }; }")
        for bound in ([], ["--bound-steps", "20"]):
            code, out, _ = run_cli(capsys, "dl", str(program), "--synthesize",
                                   "--format", "json", *bound)
            assert code == 0
            data = json.loads(out)
            assert data["synthesized"] == []
            [record] = data["indeterminate"]
            assert record["pair"] == ["A.l1", "A.l8"]
            assert record["isolated_durations"] == {"{'h': 0}": [5, 8],
                                                    "{'h': 1}": [7, 10]}

    def test_custom_lattice_file(self, capsys, tmp_path):
        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps({
            "elements": ["low", "mid", "high"],
            "order": [["low", "mid"], ["mid", "high"]],
            "joins": {"low,mid": "mid"}}))
        program = tmp_path / "p.cwl"
        program.write_text("var m : int[0..1] label mid = 0;\nthread A { print(m); }")
        code, out, _ = run_cli(capsys, "dl", str(program),
                               "--lattice", str(lattice), "--format", "json")
        assert code == 0
        assert json.loads(out)["flags"][0]["reason"] == "HighDataOutput"


class TestIfcCommand:
    def test_low_reads_high_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "ifc",
                               fixture("ifc_scenario_low_reads_high.json"),
                               "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert not data["non_interfering"]
        assert data["results"]["s1"]["flow_violation"]["variable"] == "h"

    def test_low_value_turning_bool_changes_the_view(self, capsys, tmp_path):
        # x goes from 0 to false: equal under ==, yet printed apart.
        scenario = {
            "users": {"u": "low"},
            "variables": {"x": {"label": "low", "value": 0},
                          "y": {"label": "low", "value": 1}},
            "observer": "u",
            "sequences": {"s1": [["u", "x = y < 1"]]},
        }
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "ifc", str(path), "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert not data["non_interfering"]
        assert data["results"]["s1"]["reason"] == "observer view changed"

    def test_harmless_scenario(self, capsys, tmp_path):
        scenario = {
            "users": {"alice": "low"},
            "variables": {"x": {"label": "low", "value": 0},
                          "out": {"label": "low", "value": 0}},
            "observer": "alice",
            "sequences": {"s1": [["alice", "guard(x)"]]},
        }
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(capsys, "ifc", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["non_interfering"]


def write_scenario(path: Path, sequences: dict, **changes) -> Path:
    """A two-point scenario: alice low, bob high, x low, h high."""
    scenario = {
        "users": {"alice": "low", "bob": "high"},
        "variables": {"x": {"label": "low", "value": 0},
                      "h": {"label": "high", "value": 1},
                      "out": {"label": "low", "value": 0}},
        "observer": "alice",
        "sequences": sequences,
    }
    scenario.update(changes)
    path.write_text(json.dumps(scenario))
    return path


def command_texts() -> st.SearchStrategy:
    shown = int_exprs().map(lang.unparse_expr)
    return st.one_of(
        st.just("skip"),
        shown.map(lambda e: f"print({e})"),
        st.sampled_from(("a", "b")).map(lambda s: f"print('{s}')"),
        st.builds(lambda t, e: f"{t} = {e}", st.sampled_from(("x", "y")), shown))


class TestScenarioCommands:
    """A scenario command is one statement of the program language, or guard(e)."""

    @given(command_texts())
    def test_command_parses_as_the_statement_in_a_thread(self, text):
        program = lang.parse_program("var x : int[0..9] label low = 0;\n"
                                     "var y : int[0..9] label low = 0;\n"
                                     f"thread A {{ {text}; }}\n")
        stmt = program.threads[0].body[0]
        assert cli._parse_command("s.json", text) == lang.replace(stmt, label=None)

    @settings(deadline=None)
    @given(st.one_of(command_texts(), int_exprs().map(
               lambda e: f"guard({lang.unparse_expr(e)})")),
           st.sampled_from(("; y = 1", " junk", ")")))
    def test_text_after_the_command_is_an_input_error(self, text, rest):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_scenario(Path(tmp) / "scenario.json",
                                  {"s1": [["alice", text + rest]]})
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["ifc", str(path)])
        assert code == 2
        assert err.getvalue().startswith(f"error: {path}: command {text + rest!r}: ")
        assert err.getvalue().count("\n") == 1

    # The reader once stopped after the first statement, so the joined entry
    # was judged as x = 0 alone: non-interfering, exit 0.
    def test_joined_commands_are_an_input_error(self, capsys, tmp_path):
        joined = write_scenario(tmp_path / "joined.json", {"s1": [["alice", "x = 0; x = h"]]})
        code, out, err = run_cli(capsys, "ifc", str(joined))
        assert (code, out) == (2, "")
        assert err == (f"error: {joined}: command 'x = 0; x = h': "
                       "1:6: expected 'eof', found ';'\n")
        split = write_scenario(tmp_path / "split.json",
                               {"s1": [["alice", "x = 0"], ["alice", "x = h"]]})
        code, out, _ = run_cli(capsys, "ifc", str(split))
        assert code == 1
        assert out.splitlines()[1] == "  s1: flow violation"

    @pytest.mark.parametrize("text, kind", (("delay(1)", "Delay"),
                                            ("while x < 1 do { skip; }", "While")))
    def test_statements_that_are_not_commands(self, capsys, tmp_path, text, kind):
        path = write_scenario(tmp_path / "scenario.json", {"s1": [["alice", text]]})
        code, _, err = run_cli(capsys, "ifc", str(path))
        assert code == 2
        assert err == f"error: {path}: command {text!r}: unsupported command {kind}\n"

    def test_a_variable_named_guard_is_assigned(self):
        assert cli._parse_command("s.json", "guard = 1") == lang.Assign("guard", lang.IntLit(1))


class TestOptions:
    def test_each_subcommand_takes_only_the_options_it_reads(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        taken = {name: sorted(o for a in p._actions for o in a.option_strings
                              if o not in ("-h", "--help"))
                 for name, p in sub.choices.items()}
        assert taken == {
            "parse": ["--labels"],
            "run": ["--bound-steps", "--config", "--init"],
            "leakscan": ["--bound-configs", "--bound-steps", "--config", "--format",
                         "--init", "--observe-threads", "--secret", "--stats",
                         "--timing-blind"],
            "ogcheck": ["--config", "--format", "--snapshot-bound", "--stats"],
            "dl": ["--bound-configs", "--bound-steps", "--config", "--format",
                   "--lattice", "--synthesize"],
            "ifc": ["--format"],
            "emit-smt": ["--config", "--out-dir", "--snapshot-bound"],
        }

    @pytest.mark.parametrize("argv, unread", (
        (("run", "region_thread.cwl"), ("--format", "json")),
        (("run", "region_thread.cwl"), ("--bound-configs", "5")),
        (("ifc", "ifc_scenario_low_reads_high.json"), ("--config", "c.cfg")),
        (("emit-smt", "semaphore_pair_annotated.cwl", "--out-dir", "smt"),
         ("--format", "json")),
        # Every outline assertion is protected; there is no laxer rule.
        (("ogcheck", "semaphore_pair_annotated.cwl"), ("--no-strict-stability",)),
        (("emit-smt", "semaphore_pair_annotated.cwl", "--out-dir", "smt"),
         ("--no-strict-stability",)),
    ))
    def test_an_option_the_command_does_not_read_exits_2(self, capsys, argv, unread):
        with pytest.raises(SystemExit) as exit_:
            cli.main([argv[0], fixture(argv[1]), *argv[2:], *unread])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err


class TestEmitSmt:
    def test_one_file_per_vc(self, capsys, tmp_path):
        out_dir = tmp_path / "smt"
        code, out, _ = run_cli(capsys, "emit-smt", fixture("semaphore_pair_annotated.cwl"),
                               "--out-dir", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("vc_*.smt2"))
        assert len(files) == 40
        assert f"wrote {len(files)}" in out
        sample = files[0].read_text()
        assert "(check-sat)" in sample

    def test_kind_named_files(self, capsys, tmp_path):
        out_dir = tmp_path / "smt"
        run_cli(capsys, "emit-smt", fixture("semaphore_pair_annotated.cwl"),
                "--out-dir", str(out_dir))
        kinds = {f.name.split("_")[1] for f in out_dir.glob("vc_*.smt2")}
        assert kinds == {"sequential", "interference", "leaky"}


class TestConfigFile:
    def test_cost_override_via_config(self, capsys, tmp_path):
        cfg = tmp_path / "costs.cfg"
        cfg.write_text("unit_cost = 1\ncost.T2.l3 = 47  # stretch the region\n")
        code, out, _ = run_cli(capsys, "dl", fixture("semaphore_pair_delay50.cwl"),
                               "--synthesize", "--config", str(cfg),
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["synthesized"] == []
        assert len(data["indeterminate"]) == 1

    # An override that named no statement was once ignored: leakscan reported
    # what it reports without the config.
    @pytest.mark.parametrize("key", ("cost.T9.l3", "cost.l99", "cost.Main.l5"))
    def test_cost_override_that_names_no_statement(self, capsys, tmp_path, key):
        cfg = tmp_path / "costs.cfg"
        cfg.write_text(f"cost.l2 = 1\n{key} = 47\n")
        code, out, err = run_cli(capsys, "leakscan", fixture("corpus/10_blind_timing.cwl"),
                                 "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: cost override(s) ['{key}'] name no statement of the program\n"
        cfg.write_text("cost.l2 = 1\n")  # the delay costs what the skip does
        code, out, _ = run_cli(capsys, "leakscan", fixture("corpus/10_blind_timing.cwl"),
                               "--config", str(cfg), "--format", "json")
        assert code == 0 and json.loads(out)["verdict"] == "no-leak"

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "costs.cfg"
        cfg.write_text("unit_cost = 2\n")
        monkeypatch.setenv("LEAKLAB_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "run", fixture("region_thread.cwl"),
                               "--init", "h=0")
        assert code == 0
        assert out.splitlines()[0] == "T2\tc\t2"  # doubled unit cost


class TestReportSchemas:
    """Every JSON report validates against its published schema."""

    @staticmethod
    def validate(payload: str, schema_name: str) -> None:
        jsonschema = __import__("jsonschema")
        schema = json.loads(
            (PROGRAMS.parent.parent / "docs" / "schemas" / schema_name)
            .read_text(encoding="utf-8"))
        jsonschema.validate(json.loads(payload), schema)

    def test_leakscan_reports(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                            "--bound-steps", "40", "--format", "json")
        self.validate(out, "leakscan.schema.json")
        _, blind, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                              "--bound-steps", "40", "--timing-blind",
                              "--format", "json")
        self.validate(blind, "leakscan.schema.json")
        for flags in ((), ("--bound-steps", "3", "--bound-configs", "4")):
            _, stats, _ = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                                  "--stats", "--format", "json", *flags)
            self.validate(stats, "leakscan.schema.json")

    def test_ogcheck_reports(self, capsys):
        for name in ("semaphore_pair_annotated.cwl", "semaphore_pair_inverted.cwl"):
            for flags in ((), ("--stats",)):
                _, out, _ = run_cli(capsys, "ogcheck", fixture(name),
                                    "--format", "json", *flags)
                self.validate(out, "ogcheck.schema.json")
        data = json.loads(out)
        assert data["stats"]["assertions"] > 0
        del data["stats"]["assertions"]
        with pytest.raises(__import__("jsonschema").ValidationError):
            self.validate(json.dumps(data), "ogcheck.schema.json")

    def test_dl_report(self, capsys):
        _, out, _ = run_cli(capsys, "dl", fixture("region_thread.cwl"),
                            "--synthesize", "--format", "json")
        self.validate(out, "dl.schema.json")

    def test_ifc_report(self, capsys):
        _, out, _ = run_cli(capsys, "ifc",
                            fixture("ifc_scenario_low_reads_high.json"),
                            "--format", "json")
        self.validate(out, "ifc.schema.json")


SUBCOMMANDS = ("parse", "run", "leakscan", "ogcheck", "dl", "ifc", "emit-smt")


def subcommand_argv(command: str, path: Path, tmp: Path) -> list[str]:
    if command == "emit-smt":
        return [command, str(path), "--out-dir", str(tmp / "smt")]
    return [command, str(path)]


class TestBadInput:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "parse", "no-such-file.cwl")
        assert code == 2

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path, command):
        bad = tmp_path / "latin1.cwl"
        bad.write_bytes("thread A { print('\u00e9'); }".encode("latin-1"))
        code, _, err = run_cli(capsys, *subcommand_argv(command, bad, tmp_path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not UTF-8" in err

    def test_ifc_scenario_that_is_not_json(self, capsys, tmp_path):
        bad = tmp_path / "scenario.json"
        bad.write_text("users: alice\n")
        code, _, err = run_cli(capsys, "ifc", str(bad))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not JSON" in err

    def test_ifc_scenario_without_users(self, capsys, tmp_path):
        scenario = json.loads((PROGRAMS / "ifc_scenario_low_reads_high.json")
                              .read_text(encoding="utf-8"))
        del scenario["users"]
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        code, _, err = run_cli(capsys, "ifc", str(bad))
        assert code == 2
        assert err == f"error: {bad}: scenario lacks 'users'\n"

    def ifc_input_error(self, capsys, tmp_path, edit) -> str:
        scenario = json.loads((PROGRAMS / "ifc_scenario_low_reads_high.json")
                              .read_text(encoding="utf-8"))
        edit(scenario)
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(scenario))
        code, out, err = run_cli(capsys, "ifc", str(bad), "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        return err

    def test_ifc_user_label_outside_the_lattice(self, capsys, tmp_path):
        err = self.ifc_input_error(capsys, tmp_path,
                                   lambda s: s["users"].update(bob="mid"))
        assert "label 'mid' of 'bob' is not a lattice element" in err

    def test_ifc_variable_label_outside_the_lattice(self, capsys, tmp_path):
        err = self.ifc_input_error(capsys, tmp_path,
                                   lambda s: s["variables"]["h"].update(label="mid"))
        assert "label 'mid' of 'h' is not a lattice element" in err

    def test_ifc_unknown_mode(self, capsys, tmp_path):
        err = self.ifc_input_error(capsys, tmp_path, lambda s: s.update(mode="concurent"))
        assert "mode 'concurent' is neither" in err

    def test_ifc_value_that_is_not_an_integer(self, capsys, tmp_path):
        err = self.ifc_input_error(capsys, tmp_path,
                                   lambda s: s["variables"]["x"].update(value=[0]))
        assert "value of 'x' is not an integer or boolean" in err

    # The variable's label once overwrote the user's in the one label map:
    # observer x read as high, and bob writing x changed its view (exit 1).
    def test_ifc_user_and_variable_of_one_name(self, capsys, tmp_path):
        path = write_scenario(tmp_path / "scenario.json", {"s1": [["bob", "x = 1"]]},
                              users={"x": "low", "bob": "high"},
                              variables={"x": {"label": "high", "value": 0},
                                         "out": {"label": "low", "value": 0}},
                              observer="x")
        code, out, err = run_cli(capsys, "ifc", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: ['x'] name both a user and a variable\n"

    # A misspelt key was once ignored: "moed" ran the scenario sequentially.
    def test_ifc_unknown_top_level_key(self, capsys, tmp_path):
        err = self.ifc_input_error(capsys, tmp_path, lambda s: s.update(moed="concurrent"))
        assert err.endswith(": unknown key(s) ['moed']\n")

    # A dict read as command text once reported "scenario lacks 0".
    @pytest.mark.parametrize("command", ({"a": 1}, 7, None))
    def test_ifc_command_that_is_not_a_string(self, capsys, tmp_path, command):
        err = self.ifc_input_error(
            capsys, tmp_path,
            lambda s: s["sequences"].update(s1=[["alice", command]]))
        assert err.endswith(f": command {command!r} is not a string\n")

    # Commands were once checked only when the machine reached them, so the
    # verdict hung on their order: after a flow violation, an undeclared
    # variable or user gave exit 1.
    @pytest.mark.parametrize("sequences, changes, reason", (
        ({"s1": [["alice", "x = h"], ["alice", "zzz = 1"]]}, {},
         "command 'zzz = 1': undeclared variable(s) ['zzz']"),
        ({"s1": [["alice", "zzz = 1"], ["alice", "x = h"]]}, {},
         "command 'zzz = 1': undeclared variable(s) ['zzz']"),
        ({"s1": [["alice", "x = h"], ["carol", "skip"]]}, {},
         "user 'carol' of command 'skip' is not a declared user"),
        ({"s1": [["h", "x = 1"]]}, {}, "user 'h' of command 'x = 1' is not a declared user"),
        ({"s1": [["alice", "print(x)"]]}, {"variables": {"x": {"label": "low", "value": 0}}},
         "command 'print(x)': undeclared variable(s) ['out']"),
        ({"s1": [["alice", "x = 1"]]}, {"observer": "x"}, "observer 'x' is not a declared user"),
        ({"s1": [["alice", "x = h"]]}, {"mode": "concurrent"},
         "concurrent mode needs exactly two sequences"),
    ), ids=("variable-last", "variable-first", "user", "variable-as-user", "print-without-out",
            "observer", "concurrent-one-sequence"))
    def test_ifc_scenario_is_checked_before_any_command_runs(self, capsys, tmp_path,
                                                            sequences, changes, reason):
        path = write_scenario(tmp_path / "scenario.json", sequences, **changes)
        code, out, err = run_cli(capsys, "ifc", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {reason}\n"

    # Anything but "true" once set a bool to false.
    @pytest.mark.parametrize("value", ("1", "ture"))
    def test_bool_init_takes_only_true_or_false(self, capsys, tmp_path, value):
        source = tmp_path / "bool.cwl"
        source.write_text("var b : bool label low = true; thread A { print(b); }\n")
        code, out, err = run_cli(capsys, "run", str(source), "--init", f"b={value}")
        assert (code, out) == (2, "")
        assert err == f"error: --init 'b={value}': expected true or false\n"
        assert run_cli(capsys, "run", str(source), "--init", "b=false")[1] == "A\tfalse\t1\n"

    # leakscan once ignored --init on a secret and scanned both values.
    def test_leakscan_init_of_a_secret_points_at_secret(self, capsys):
        code, out, err = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                                 "--init", "h=1")
        assert (code, out) == (2, "")
        assert err.startswith("error: --init h: a secret") and "--secret" in err

    # An empty range once left the secret out: "initial store misses 'h'".
    def test_empty_secret_range_is_named(self, capsys):
        code, out, err = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"),
                                 "--secret", "h=1..0")
        assert (code, out) == (2, "")
        assert err == "error: --secret 'h=1..0': empty range 1..0\n"

    def test_malformed_lattice_file(self, capsys, tmp_path):
        lattice = tmp_path / "lattice.json"
        lattice.write_text(json.dumps({"order": [["low", "high"]]}))
        code, _, err = run_cli(capsys, "dl", fixture("region_thread.cwl"),
                               "--lattice", str(lattice))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bound_fault_program_is_refuted(self, capsys, tmp_path):
        # The only run reaches print('x') at t = 100, past the default bound.
        fault = tmp_path / "fault.cwl"
        fault.write_text("thread A { {| true |} delay(100); {| true |} print('x'); } "
                         "post {| t@l1 <= 64 |}\n")
        code, out, _ = run_cli(capsys, "ogcheck", str(fault), "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["overall"] == "refuted"
        assert [row["counterexample"]["snapshots"] for row in data["vcs"]
                if "counterexample" in row] == [{"A.l1": [65]}]

    # Ill-typed assertions: the first was once proven and the second refuted.
    @pytest.mark.parametrize("command", ("ogcheck", "emit-smt"))
    @pytest.mark.parametrize("source", (
        "var v : int[0..1] label low = 0;\n"
        "thread A { {| v + 1 -> v = 0 |} v = 0; } post {| true |}\n",
        "var v : int[0..1] label low = 0;\n"
        "thread A { {| true |} skip; } post {| forall x in 0..1 : x |}\n",
    ))
    def test_ill_typed_assertion_is_an_input_error(self, capsys, tmp_path, command, source):
        bad = tmp_path / "ill_typed.cwl"
        bad.write_text(source)
        code, out, err = run_cli(capsys, *subcommand_argv(command, bad, tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ill-typed assertion at A") and err.count("\n") == 1

    # An empty ghost domain made every condition vacuous, and ogcheck proved
    # a post of false.
    def test_empty_ghost_domain_is_an_input_error(self, capsys, tmp_path):
        outline = tmp_path / "ghost.cwl"
        outline.write_text("ghost V : int[3..1]; var x : int[0..1] label low = 0; "
                           "thread A { {| x = V |} skip; } post {| false |}\n")
        code, out, err = run_cli(capsys, "ogcheck", str(outline))
        assert (code, out) == (2, "")
        assert err == "error: 1:20: empty domain [3..1] for V\n"

    # At bound -1 the clock axis was empty, and ogcheck proved this outline
    # that bounds 0 and 64 refute.
    @pytest.mark.parametrize("command", ("ogcheck", "emit-smt"))
    def test_negative_snapshot_bound_is_an_input_error(self, capsys, tmp_path, command):
        outline = tmp_path / "outline.cwl"
        outline.write_text("var x : int[0..3] label low = 0;\n"
                           "thread A { {| t >= 0 |} x = 1; {| x = 2 |} skip; } "
                           "post {| true |}\n")
        argv = subcommand_argv(command, outline, tmp_path)
        code, out, err = run_cli(capsys, *argv, "--snapshot-bound", "-1")
        assert code == 2 and out == ""
        assert err == "error: snapshot bound -1 is negative\n"
        if command == "ogcheck":
            assert run_cli(capsys, *argv, "--snapshot-bound", "0")[0] == 1

    # With cost.l0 = -5 the clock ran backwards: ogcheck proved this outline
    # while run printed 'A a -5'.
    @pytest.mark.parametrize("argv", (("ogcheck",), ("run", "--init", "h=1")))
    def test_negative_cost_override_is_an_input_error(self, capsys, tmp_path, argv):
        outline = tmp_path / "backwards.cwl"
        outline.write_text("var h : int[0..1] label high = secret; thread A { "
                           "{| true |} print('a'); {| true |} skip; } post {| t@l1 >= 0 |}\n")
        cfg = tmp_path / "costs.cfg"
        cfg.write_text("cost.l0 = -5\n")
        code, out, err = run_cli(capsys, argv[0], str(outline), *argv[1:], "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: config line 1: cost override 'cost.l0' must be non-negative\n"
        cfg.write_text("cost.l0 = 0\n")  # free, as delay(0) is
        code, out, _ = run_cli(capsys, argv[0], str(outline), *argv[1:], "--config", str(cfg))
        assert code == 0
        assert argv[0] == "ogcheck" or out.splitlines()[0] == "A\ta\t0"

    # 0 == False and 1 == True, so the range once passed as the bool domain
    # and the scan ran the secret as the ints 0 and 1.
    def test_integer_range_on_a_bool_secret_is_an_input_error(self, capsys, tmp_path):
        source = tmp_path / "bool_secret.cwl"
        source.write_text("var b : bool label high = secret; thread A { print(b); }\n")
        code, out, err = run_cli(capsys, "leakscan", str(source), "--secret", "b=0..1")
        assert (code, out) == (2, "")
        assert err == "error: --secret b: [0, 1] outside the declared domain\n"

    @pytest.mark.parametrize("argv, source", (
        (("parse",), "var x : int[0..3] label low = 0;\n"
                     "thread A { x = " + "(" * 3000 + "1" + ")" * 3000 + "; }\n"),
        (("parse",), "var h : int[0..1] label high = secret;\n"
                     "thread A { " + "if h then { " * 400 + "skip; " + "}; " * 400 + "}\n"),
        (("leakscan",), "var h : int[0..1] label high = secret;\n"
                        "thread A { " + "if h then { " * 400 + "skip; " + "}; " * 400 + "}\n"),
    ), ids=("parse-parentheses", "parse-ifs", "leakscan-ifs"))
    def test_deep_nesting_is_an_input_error(self, tmp_path, argv, source):
        deep = tmp_path / "deep.cwl"
        deep.write_text(source)
        proc = run_subprocess(*argv, str(deep))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: input nested too deeply\n"

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SUBCOMMANDS),
           st.one_of(st.binary(max_size=80),
                     st.text(max_size=80).map(lambda t: t.encode("utf-8"))))
    def test_garbage_input_exits_with_a_documented_code(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(subcommand_argv(command, path, Path(tmp)))
                except SystemExit as e:  # argparse
                    code = e.code
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()



WIDE = ("var h : int[0..1] label high = secret; "
        "var x : int[0..1000000000000] label low = 0; "
        "thread A { {| x >= 0 |} x = x + 1; {| true |} print(x); } post {| true |}")


class TestWideDomains:
    """A declared domain is enumerated only where an analysis enumerates
    it, so a wide public variable costs no memory of its width."""

    @pytest.mark.parametrize("argv, code, text", (
        (("parse",), 0, "var x : int[0..1000000000000] label low = 0;"),
        (("run", "--init", "h=1"), 0, "A\t1\t2\n"),
        (("leakscan",), 0, "no-leak"),
        (("dl", "--synthesize"), 0, "flags: 0"),
        (("ogcheck",), 3, "state space exceeds budget (1000000000001 > 2000000)"),
    ), ids=("parse", "run", "leakscan", "dl", "ogcheck"))
    def test_wide_public_domain_takes_little_memory(self, capsys, tmp_path, argv, code, text):
        source = tmp_path / "wide.cwl"
        source.write_text(WIDE)
        tracemalloc.start()
        try:
            result = run_cli(capsys, argv[0], str(source), *argv[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result[0] == code and text in result[1]
        assert result[2] == "" and peak < 10 * 2**20

    @pytest.mark.parametrize("argv", (("leakscan",), ("dl", "--synthesize")),
                             ids=("leakscan", "dl"))
    def test_wide_secret_domain_is_refused_before_it_is_listed(self, capsys, tmp_path, argv):
        source = tmp_path / "wide-secret.cwl"
        source.write_text("var h : int[0..1000000000000] label high = secret; "
                          "thread A { print('a'); }")
        tracemalloc.start()
        try:
            result = run_cli(capsys, argv[0], str(source), *argv[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result[:2] == (2, "")
        assert result[2] == ("error: the secret domain has 1000000000001 valuations, more "
                             "than the 2000000 an analysis enumerates; leakscan's "
                             "--secret NAME=LO..HI restricts it\n")
        assert peak < 10 * 2**20

    def test_a_restricted_secret_range_is_what_the_budget_counts(self, capsys, tmp_path):
        source = tmp_path / "wide-secret.cwl"
        source.write_text("var h : int[0..1000000000000] label high = secret; "
                          "var g : int[0..1999999] label high = secret; "
                          "thread A { print('a'); }")
        code, out, err = run_cli(capsys, "leakscan", str(source), "--secret", "h=5..6")
        assert (code, out) == (2, "") and "has 4000000 valuations" in err
        code, out, err = run_cli(capsys, "leakscan", str(source), "--secret", "h=5..5",
                                 "--secret", "g=0..2", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["secret_domain"] == [{"h": 5, "g": g} for g in range(3)]

    def test_domain_wider_than_a_length_is_a_parse_error(self, capsys, tmp_path):
        source = tmp_path / "wider.cwl"
        source.write_text(WIDE.replace("1000000000000", "99999999999999999999"))
        code, out, err = run_cli(capsys, "parse", str(source))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too many values" in err
        assert "Traceback" not in err

    def test_wide_quantifier_is_not_listed(self):
        program = lang.parse_program("thread A { skip; } post {| forall i in 0..1000000000000 : "
                                     "true |}")
        tracemalloc.start()
        try:
            annotated = asrt.annotate_program(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 in annotated.posts and peak < 10 * 2**20

    @pytest.mark.parametrize("spec, shown", (
        ("h=0..1000000000", "2..1000000000"),
        ("h=-5..1000000000000000000000000000000", "-5..-1 and 2..1000000000000000000000000000000"),
        ("h=-3..4", "[-3, -2, -1, 2, 3, 4]"),
    ), ids=("above", "both-sides", "short"))
    def test_wide_secret_range_names_its_parts_outside_the_domain(self, capsys, spec, shown):
        tracemalloc.start()
        try:
            result = run_cli(capsys, "leakscan", fixture("semaphore_pair.cwl"), "--secret", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", f"error: --secret h: {shown} outside the declared domain\n")
        assert peak < 10 * 2**20


def json_scalars() -> st.SearchStrategy:
    return st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
        st.floats(), st.text(),
        st.sampled_from(['"', "\\", "\x00", "\x1f\x7f", "\u2028", "é ü", "\U0001f600",
                         "\ud800", "a\"b\\c\nd\te"]))


def json_values() -> st.SearchStrategy:
    return st.recursive(json_scalars(), lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        # Keys of one dict must order among themselves, as json sorts them.
        st.dictionaries(st.integers(-3, 3) | st.booleans() | st.floats(-2, 2), children,
                        max_size=4),
        st.dictionaries(st.none(), children),
    ), max_leaves=20)


class TestJsonWriter:
    """``cli._json_text`` writes what ``json.dumps(v, sort_keys=True,
    indent=2)`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(json_values())
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(json_values(), json_values())
    def test_a_container_shared_at_several_depths(self, shared, other):
        shared = [shared, {"k": shared}]
        value = {"a": shared, "b": [shared, [other, shared]], "c": {"d": [[shared]]},
                 "e": shared}
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", ({"a": object()}, [1, {2}], {(1, 2): 0},
                                       {"a": 1, 2: 0}), ids=("object", "set", "tuple-key",
                                                             "mixed-keys"))
    def test_what_json_cannot_write_raises_as_there(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)


class TestStartUp:
    """Each command loads only the leaklab modules it runs."""

    @staticmethod
    def modules_after(*argv: str, flags: tuple[str, ...] = ()) -> set[str]:
        """Every module loaded once the command ran, under interpreter ``flags``."""
        probe = ("import contextlib, io, json, sys\n"
                 "from leaklab import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    cli.main(sys.argv[1:])\n"
                 "print(json.dumps(list(sys.modules)))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, *flags, "-c", probe, *argv],
                              capture_output=True, text=True, env=env, timeout=60, check=True)
        return set(json.loads(proc.stdout))

    @classmethod
    def loaded_after(cls, *argv: str) -> set[str]:
        return {m for m in cls.modules_after(*argv) if m.startswith("leaklab")}

    def test_parse_loads_the_parser_alone(self):
        assert self.loaded_after("parse", fixture("semaphore_pair.cwl")) == {
            "leaklab", "leaklab.cli", "leaklab.errors", "leaklab.lang"}

    def test_leakscan_loads_no_proof_machinery(self):
        loaded = self.loaded_after("leakscan", fixture("semaphore_pair.cwl"))
        assert "leaklab.explorer" in loaded
        assert not loaded & {f"leaklab.{m}" for m in (
            "assertions", "proofs", "dl", "ifc", "lattice", "regions")}

    def test_no_command_imports_dataclasses_or_inspect(self, tmp_path):
        # Under -S, site imports nothing, so what is loaded is leaklab's doing.
        for argv in (("parse", fixture("semaphore_pair.cwl")),
                     ("leakscan", fixture("semaphore_pair.cwl")),
                     ("dl", fixture("semaphore_pair.cwl"), "--synthesize"),
                     ("emit-smt", fixture("semaphore_pair_annotated.cwl"),
                      "--out-dir", str(tmp_path)),
                     ("ifc", fixture("ifc_scenario_concurrent_ni.json"))):
            loaded = self.modules_after(*argv, flags=("-S",))
            assert "leaklab.cli" in loaded
            assert not loaded & {"dataclasses", "inspect"}, argv
