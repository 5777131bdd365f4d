from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from leaklab import assertions as asrt
from leaklab import dl, explorer, lang, proofs, semantics
from leaklab.errors import AnnotationError

import assertion_oracle
from conftest import count_misses, load_corpus, load_program, trivially_annotate
from schedule_oracle import isolate_thread
from test_discharge_oracle import CERTIFY_CORPUS, OWN_OUTLINES, outline
from test_explore_oracle import small_programs

L = lang.LocationId
H0, H1 = (("h", 0),), (("h", 1),)

# Each pass through the loop prints 's' and, for nonzero h, delays 3.
LOOP_BRANCH_SOURCE = (
    "var h : int[0..1] label high = secret;\n"
    "var i : int[0..3] label low = 0;\n"
    "thread A { while i < 2 do { print('s'); if h then { delay(3); } else { skip; }; "
    "i = i + 1; }; print('e'); }")

# The same pass, forever: the isolated run never ends.
FOREVER_SOURCE = (
    "var h : int[0..1] label high = secret;\n"
    "thread A { while true do { print('s'); if h then { delay(3); } else { skip; }; "
    "print('e'); }; }")

# The same loop beside three variables it never reads.
FOREVER_UNUSED_SOURCE = (
    "var h : int[0..1] label high = secret;\n"
    "var a : int[0..99] label low = 0;\n"
    "var b : int[0..99] label low = 0;\n"
    "var c : int[0..99] label low = 0;\n"
    "thread A { while true do { print('s'); if h then { delay(3); } else { skip; }; "
    "print('e'); }; }")

# The run leaves i's domain after 'e'.
DOMAIN_EXIT_SOURCE = (
    "var h : int[0..1] label high = secret;\n"
    "var i : int[0..1] label low = 0;\n"
    "thread A { print('s'); print('e'); i = i + 1; i = i + 1; }")


def annotated_from(src: str) -> asrt.AnnotatedProgram:
    return asrt.annotate_program(lang.parse_program(src))


class TestSequentialVcs:
    def test_single_assignment_triple(self):
        annotated = annotated_from(
            "var x : int[0..3] label low = 0;\n"
            "thread A { {| x = 0 |} x = x + 1; } post {| x = 1 |}")
        vcs, _ = proofs.gen_sequential_vcs(annotated, 0)
        assert len(vcs) == 1
        vc = vcs[0]
        assert isinstance(vc.stmt, lang.Assign)
        assert proofs.discharge_vc(vc, annotated.program).status == "valid"

    def test_wrong_postcondition_counterexample(self):
        annotated = annotated_from(
            "var x : int[0..3] label low = 0;\n"
            "thread A { {| x = 0 |} x = x + 1; } post {| x = 0 |}")
        vcs, _ = proofs.gen_sequential_vcs(annotated, 0)
        result = proofs.discharge_vc(vcs[0], annotated.program)
        assert result.status == "counterexample"
        assert result.counterexample["store"] == {"x": 0}

    def test_while_invariant_yields_two_vcs(self):
        annotated = annotated_from(
            "var x : int[0..3] label low = 0;\n"
            "thread A { {| x <= 3 |} while x < 3 do { x = x + 1; }; }"
            " post {| x = 3 |}")
        vcs, _ = proofs.gen_sequential_vcs(annotated, 0)
        assert len(vcs) == 2  # body preservation and loop exit
        for vc in vcs:
            assert proofs.discharge_vc(vc, annotated.program).status == "valid"

    def test_atomic_region_with_ghost(self):
        annotated = annotated_from(
            "ghost V0 : int[0..4];\n"
            "var sem : int[0..1] label low = 1;\n"
            "var v : int[0..4] label low = 0;\n"
            "thread T1 {\n"
            "  {| sem = 1 and v = V0 |}\n"
            "  await sem > 0 then {\n"
            "    sem = sem - 1; print('a'); v = v + 1; print('b'); sem = sem + 1;\n"
            "  };\n"
            "} post {| sem = 1 and v = V0 + 1 |}")
        vcs, _ = proofs.gen_sequential_vcs(annotated, 0)
        assert len(vcs) == 1
        assert isinstance(vcs[0].stmt, lang.Await)
        assert proofs.discharge_vc(vcs[0], annotated.program).status == "valid"

    def test_missing_annotation_names_location(self):
        annotated = annotated_from(
            "var x : int[0..3] label low = 0;\n"
            "thread A { {| true |} x = 1; x = 2; } post {| true |}")
        with pytest.raises(AnnotationError, match="A.l1"):
            proofs.gen_sequential_vcs(annotated, 0)

    def test_missing_post_rejected(self):
        annotated = annotated_from(
            "var x : int[0..3] label low = 0;\nthread A { {| true |} x = 1; }")
        with pytest.raises(AnnotationError, match="post"):
            proofs.gen_sequential_vcs(annotated, 0)

    def test_branch_entries_inherit_guard(self):
        annotated = annotated_from(
            "var x : int[0..3] label low = 0;\n"
            "var h : int[0..1] label high = secret;\n"
            "thread A {\n"
            "  {| x = 0 |}\n"
            "  if h then { x = 1; } else { x = 2; };\n"
            "  {| x = 1 or x = 2 |}\n"
            "  print(x);\n"
            "} post {| x = 1 or x = 2 |}")
        vcs, _ = proofs.gen_sequential_vcs(annotated, 0)
        for vc in vcs:
            assert proofs.discharge_vc(vc, annotated.program).status == "valid"

    def test_the_initial_store_pins_what_the_first_assertion_reads(self):
        # x and the clock are pinned; h, a secret, and y, unread, are not.
        annotated = annotated_from(
            "var h : int[0..1] label high = secret;\n"
            "var x : int[0..1] label low = 1;\n"
            "var y : int[0..1] label low = 0;\n"
            "thread A { {| x = 1 and t >= 0 and (h = 0 or h = 1) |} skip; } post {| true |}\n"
            "thread B { {| true |} y = 1; } post {| y = 1 |}\n")
        vcs, _ = proofs.gen_vcs(annotated)
        initial = [vc for vc in vcs if "initial store" in vc.provenance]
        assert [(vc.provenance, asrt.unparse_assertion(vc.pre), vc.stmt, vc.post)
                for vc in initial] == [
            ("A: initial store establishes pre of A.l0", "x = 1 and t = 0", None,
             annotated.pre[L(0, 0)]),
            ("B: initial store establishes pre of B.l0", "true", None, asrt.TRUE)]
        assert vcs.index(initial[1]) == 2  # each before its thread's chain
        assert proofs.check_proof(annotated).overall == "proven"


DISJOINT = """
var x : int[0..3] label low = 0;
var y : int[0..3] label low = 0;
thread A { {| x = 0 |} x = x + 1; } post {| x = 1 |}
thread B { {| y = 0 |} y = y + 1; } post {| y = 1 |}
"""

INTERFERING = """
var x : int[0..3] label low = 0;
var y : int[0..3] label low = 0;
thread A { {| x = 0 |} y = x; } post {| true |}
thread B { {| true |} x = 1; } post {| true |}
"""


class TestInterferenceVcs:
    def test_disjoint_threads_all_valid(self):
        annotated = annotated_from(DISJOINT)
        vcs = proofs.gen_interference_vcs(annotated)
        assert vcs
        for vc in vcs:
            assert vc.kind == proofs.INTERFERENCE
            assert proofs.discharge_vc(vc, annotated.program).status == "valid"

    def test_classic_interference_counterexample(self):
        annotated = annotated_from(INTERFERING)
        vcs = proofs.gen_interference_vcs(annotated)
        bad = [proofs.discharge_vc(vc, annotated.program) for vc in vcs]
        cxs = [r for r in bad if r.status == "counterexample"]
        assert cxs
        assert cxs[0].counterexample["store"]["x"] == 0

    def test_semaphore_pair_region_pre_protected_across_threads(self):
        p = load_program("semaphore_pair_annotated.cwl")
        annotated = asrt.annotate_program(p)
        vcs = proofs.gen_interference_vcs(annotated)
        # T1's acquire must preserve the pre of T2's region, and vice versa.
        wanted = [vc for vc in vcs
                  if "T1.l0 preserves pre of T2.l2" in vc.provenance
                  or "T2.l2 preserves pre of T1.l0" in vc.provenance]
        assert len(wanted) == 2

    def test_every_outline_pre_of_the_other_threads_is_protected(self):
        p = load_program("semaphore_pair_annotated.cwl")
        annotated = asrt.annotate_program(p)
        outlines = proofs.thread_outlines(annotated)
        vcs = proofs.gen_interference_vcs(annotated)
        writers = 0
        for j in sorted(outlines):
            for loc in outlines[j]:
                prefix = f"{p.location_str(loc)} preserves pre of "
                protected = [vc.provenance.removeprefix(prefix) for vc in vcs
                             if vc.provenance.startswith(prefix)]
                # No assertion of this outline reads the clock, so only the
                # assignments and regions, which can change the store, interfere.
                writes = isinstance(p.statement_at(loc), proofs.WRITERS)
                writers += writes
                assert protected == [p.location_str(other) for i in sorted(outlines)
                                     if i != j and writes for other in outlines[i]]
        assert writers == 4  # T1's region and two assignments, T2's region
        # T2's prints, branch head, region and skip; not the region's body.
        assert [p.location_str(loc) for loc in outlines[1]] == [
            "T2.l0", "T2.l1", "T2.l2", "T2.l6", "T2.l7"]


class TestLeakyVcs:
    def test_semaphore_pair_protection_and_rule_conditions(self):
        p = load_program("semaphore_pair_annotated.cwl")
        annotated = asrt.annotate_program(p)
        vcs, notices = proofs.gen_leaky_vcs(annotated)
        # The postulate reads snapshots and h but not the clock, so only
        # T1's region and its two top-level assignments interfere with it,
        # not its prints.
        assert [vc.provenance for vc in vcs] == [
            "T1.l0 preserves postulate at T2.l7",
            "T1.l3 preserves postulate at T2.l7",
            "T1.l5 preserves postulate at T2.l7",
            "rule 0 of postulate at T2.l7 against isolated path timings",
            "rule 1 of postulate at T2.l7 against isolated path timings"]
        for vc in vcs:
            assert proofs.discharge_vc(vc, p).status == "valid"

    def test_no_marks_notice(self, semaphore_pair):
        annotated = trivially_annotate(semaphore_pair)
        vcs, notices = proofs.gen_leaky_vcs(annotated)
        assert vcs == []
        assert any("no leak postulates" in n for n in notices)

    def test_secret_only_postulate_is_stable(self, semaphore_pair):
        # A postulate that is not rule form is the one rule true -> A.
        t2 = semaphore_pair.thread_index("T2")
        annotated = trivially_annotate(
            semaphore_pair, leaky={L(t2, 7): asrt.parse_assertion("h = 0 or h != 0")})
        vcs, notices = proofs.gen_leaky_vcs(annotated)
        assert notices == []
        [rule] = [vc for vc in vcs if vc.provenance.startswith("rule")]
        assert type(rule) is proofs.VC
        assert rule.provenance == "rule 0 of postulate at T2.l7"
        assert (rule.pre, rule.post) == (asrt.TRUE, annotated.leaky[L(t2, 7)])
        for vc in vcs:
            assert proofs.discharge_vc(vc, semaphore_pair).status == "valid"

    def test_postulate_in_a_region_body_holds_without_a_pre(self):
        # A region body has no outline entries, so its print's rule
        # condition starts from true.
        annotated = annotated_from(
            "var h : int[0..1] label high = secret;\n"
            "var s : int[0..1] label low = 1;\n"
            "thread A { {| h = 0 |} await s > 0 then { @leaky {| h = 0 |} print('a'); }; }"
            " post {| true |}\n"
            "thread B { {| true |} s = 1; } post {| true |}\n")
        vcs, _ = proofs.gen_leaky_vcs(annotated)
        assert [(vc.provenance, vc.pre, vc.stmt.label) for vc in vcs] == [
            ("B.l0 preserves postulate at A.l1", annotated.leaky[L(0, 1)], L(1, 0)),
            ("rule 0 of postulate at A.l1", asrt.TRUE, L(0, 1))]


# A's outline reads the clock; running B first ends A at t = 3.
CLOCK_A = ("var x : int[0..1] label low = 0;\n"
           "thread A { {| t = 0 |} skip; {| t = 1 |} skip; } post {| t = 2 |}\n")
CLOCK_B = {"skip": "skip;", "if": "if x then { skip; } else { skip; };",
           "while": "while x = 1 do { x = 0; };"}


class TestClockInterference:
    @pytest.mark.parametrize("head", ["skip", "if"])
    def test_every_action_moves_the_clock(self, head):
        annotated = annotated_from(
            CLOCK_A + f"thread B {{ {{| true |}} {CLOCK_B[head]} }} post {{| true |}}\n")
        result = proofs.check_proof(annotated)
        assert result.overall == "refuted"
        [(vc, outcome)] = [(vc, r) for vc, r in result.entries
                           if vc.provenance == "B.l0 preserves post of A"]
        assert type(vc.stmt).__name__ == head.capitalize()
        assert outcome.status == "counterexample"
        assert outcome.counterexample == {"store": {}, "snapshots": {}, "clock": 2}

    def test_a_clock_free_assertion_ignores_actions_that_write_nothing(self):
        annotated = annotated_from(
            "var x : int[0..1] label low = 0;\n"
            "thread A { {| x = 0 |} skip; } post {| x = 0 and t >= 1 |}\n"
            "thread B { {| true |} if x then { skip; } else { skip; }; } post {| true |}\n")
        assert [vc.provenance for vc in proofs.gen_interference_vcs(annotated)] == [
            "B.l0 preserves post of A", "B.l1 preserves post of A",
            "B.l2 preserves post of A"]
        assert proofs.check_proof(annotated).overall == "proven"

    def test_a_postulate_on_the_clock_is_protected_against_every_action(self):
        # Running B first brings A to its print at t = 1 with x = 0 and
        # h = 1, where the postulate fails; B writes nothing, so only its
        # clock move shows that.
        annotated = annotated_from(
            "var h : int[0..1] label high = secret;\n"
            "var x : int[0..1] label low = 0;\n"
            "thread A { {| t = 0 |} @leaky {| t >= 1 -> x = h |} print(x); } post {| true |}\n"
            "thread B { {| true |} skip; } post {| true |}\n")
        result = proofs.check_proof(annotated)
        assert (result.overall, result.message) == ("refuted", "leak not established")
        assert [(vc.provenance, r.status) for vc, r in result.entries
                if vc.kind == proofs.LEAKY] == [
            ("B.l0 preserves postulate at A.l0", "counterexample"),
            ("rule 0 of postulate at A.l0", "valid")]
        [cx] = [r.counterexample for vc, r in result.entries if vc.kind == proofs.LEAKY
                and r.counterexample]
        assert cx["clock"] == 0 and cx["store"]["x"] != cx["store"]["h"]

    def test_head_conditions_agree_with_the_smt_reader(self):
        import smt_reader
        annotated = annotated_from(
            CLOCK_A.replace("t = 1 |}", "t >= 1 |}")
            + "thread B { {| true |} if x then { skip; } else { skip; }; "
              f"{{| true |}} {CLOCK_B['while']} }} post {{| true |}}\n")
        program = annotated.program
        costs = semantics.CostModel(overrides={L(1, 0): 3})
        vcs = [vc for vc in proofs.gen_vcs(annotated, costs)[0]
               if isinstance(vc.stmt, (lang.If, lang.While))]
        assert [vc.provenance for vc in vcs] == [
            f"{head} preserves {what}" for head in ("B.l0", "B.l3")
            for what in ("post of A", "pre of A.l0", "pre of A.l1")]
        answers = []
        for vc in vcs:
            answer, _ = smt_reader.decide(proofs.emit_smtlib(vc, program, costs))
            outcome = proofs.discharge_vc(vc, program, costs)
            assert (answer == "unsat") == (outcome.status == "valid"), vc.provenance
            answers.append(answer)
        # Only the pre t >= 1 survives a head.
        assert answers == ["sat", "sat", "unsat"] * 2

    def test_run_atomic_takes_a_head(self):
        program = lang.parse_program(
            "var x : int[0..1] label low = 1;\n" "thread A { " + CLOCK_B["if"] + " "
            + CLOCK_B["while"] + " }")
        costs = semantics.CostModel(overrides={L(0, 3): 5})
        for head, after in zip(program.threads[0].body, (8, 12)):
            store = {"x": 1}
            assert semantics.run_atomic(head, store, 7, costs, program, None) == after
            assert store == {"x": 1}


class TestIsolatedPathDuration:
    def test_region_thread_paths(self, region_thread):
        assert proofs.isolated_path_duration(region_thread, L(0, 0), L(0, 7), (H0, H1)) == {
            H0: {3}, H1: {6}}

    def test_blocked_region_gives_none(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "var g : int[0..1] label low = 0;\n"
            "thread A { print('s'); await g > 0 then { skip; }; print('e'); }")
        assert proofs.isolated_path_duration(p, L(0, 0), L(0, 2), (H0,)) is None

    def test_loop_within_budget(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "var i : int[0..5] label low = 0;\n"
            "thread A { print('s'); while i < 3 do { i = i + 1; }; print('e'); }")
        # s(1) + 4 guard evaluations + 3 increments = 8 units between arrivals.
        assert proofs.isolated_path_duration(p, L(0, 0), L(0, 3), (H0,)) == {H0: {8}}


    def test_endless_run_keeps_the_durations_before_it_loops(self):
        # The thread spins forever after 'e': its one pair takes 1 unit.
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { print('s'); print('e'); while true do { skip; }; }")
        assert proofs.isolated_path_duration(p, L(0, 0), L(0, 1), (H0,)) == {H0: {1}}

    def test_endless_run_that_never_pairs_gives_none(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { print('s'); while true do { skip; }; print('e'); }")
        assert proofs.isolated_path_duration(p, L(0, 0), L(0, 3), (H0,)) is None

    @pytest.mark.parametrize("source", (FOREVER_SOURCE, FOREVER_UNUSED_SOURCE))
    def test_endless_loop_stops_one_period_after_its_first_repeat(self, monkeypatch,
                                                                  source):
        # Each pass takes 3 units from 's' to 'e', or 5 with the delay.  The
        # loop head, 's', the branch, its arm and 'e' are five distinct
        # states, each stepped once; the head comes round again after them,
        # and one more period of five moves, read from the table, follows.
        # Regression: unused variables lengthened the run to 100,000 steps
        # when it was bounded by positions times stores, and the timings
        # were underivable.
        p = lang.parse_program(source)
        assert count_misses(monkeypatch, lambda: proofs.isolated_path_duration(
            p, L(0, 1), L(0, 5), (H0,))) == ({H0: {3}}, 5)
        assert count_misses(monkeypatch, lambda: proofs.isolated_path_duration(
            p, L(0, 1), L(0, 5), (H1,))) == ({H1: {5}}, 5)
        # Asked again, the walk reads every move from the table.
        assert count_misses(monkeypatch, lambda: proofs.isolated_path_duration(
            p, L(0, 1), L(0, 5), (H0,))) == ({H0: {3}}, 0)

    def test_wrong_postulate_on_an_endless_loop_is_refuted(self):
        p = lang.parse_program(FOREVER_UNUSED_SOURCE)
        postulate = asrt.parse_assertion(
            "(t@l5 - t@l1 < 4 -> h = 1) and (t@l5 - t@l1 >= 4 -> h = 0)")
        result = proofs.check_proof(trivially_annotate(p, leaky={L(0, 5): postulate}))
        assert result.overall == "refuted"
        assert not result.warnings

    def test_run_past_the_state_cap_is_incomplete(self):
        p = lang.parse_program(LOOP_BRANCH_SOURCE)
        cut = explorer.isolated_durations(p, L(0, 1), L(0, 6), None,
                                          explorer.ExploreBounds(max_configs=4))
        assert not cut.complete
        full = explorer.isolated_durations(p, L(0, 1), L(0, 6), None,
                                           explorer.ExploreBounds(max_steps=1))
        assert full.complete
        assert full.durations == {(("h", 0),): {5, 10}, (("h", 1),): {7, 14}}

    def test_domain_exit_gives_none(self):
        p = lang.parse_program(DOMAIN_EXIT_SOURCE)
        assert proofs.isolated_path_duration(p, L(0, 0), L(0, 1), (H0,)) is None

    @settings(max_examples=50, deadline=None)
    @given(small_programs())
    def test_twice_the_states_give_every_duration(self, source: str):
        # Against a search of the thread as its own program, with room for
        # many more steps than twice the thread's states, whether or not its
        # run ends, for every thread.
        program = lang.parse_program(source)
        roomy = explorer.ExploreBounds(max_steps=500)
        for thread in range(len(program.threads)):
            isolated = isolate_thread(program, thread)
            labels = program.labels_of_thread(thread)
            alone = isolated.labels_of_thread(0)
            for k in range(1, len(labels)):
                for valuation in explorer.secret_domain_of(program):
                    stats = explorer.duration_stats(isolated, alone[0], alone[k],
                                                    (valuation,), roomy)
                    want = None if stats.unreached else {
                        valuation: stats.durations[valuation]}
                    assert proofs.isolated_path_duration(
                        program, labels[0], labels[k], (valuation,)) == want, (
                            thread, k)

    def test_every_duration_of_a_loop(self):
        # The first 's' reaches 'e' in 10 units and the second in 5; the
        # first arrival alone would give only 10.
        p = lang.parse_program(LOOP_BRANCH_SOURCE)
        assert proofs.isolated_path_duration(p, L(0, 1), L(0, 6), (H0, H1)) == {
            H0: {5, 10}, H1: {7, 14}}

    def test_path_facts_search_once_per_class(self, monkeypatch):
        # Regression: the facts were measured one value of h at a time, so
        # sixteen values made sixteen searches, where the program tells
        # only two classes apart (h <= 7 and h > 7).
        source = (
            "var h : int[0..15] label high = secret;\n"
            "thread A { {| true |} print('a'); {| true |} if h > 7 then "
            "{ {| true |} delay(3); } else { {| true |} skip; }; "
            "{| true |} @leaky {| (t@l4 - t@l0 < 4 -> h <= 7) and "
            "(t@l4 - t@l0 >= 4 -> h > 7) |} print('b'); } post {| true |}")
        p = lang.parse_program(source)
        domain = explorer.secret_domain_of(p)
        domains = []
        original = explorer.isolated_durations

        def counted(program, loc_from, loc_to, secret_domain, *rest):
            domains.append(secret_domain)
            return original(program, loc_from, loc_to, secret_domain, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(explorer, "isolated_durations", counted)
            result = proofs.check_proof(asrt.annotate_program(p))
        assert result.overall == "proven"
        assert domains == [domain]
        # Each program is fresh, so that no earlier walk has filled its table.
        durations, steps = count_misses(monkeypatch, lambda: proofs.isolated_path_duration(
            lang.parse_program(source), L(0, 0), L(0, 4), domain))
        assert durations == {v: {5 if v[0][1] > 7 else 3} for v in domain}
        # as many steps as one search of each class
        assert steps == sum(count_misses(monkeypatch, lambda: proofs.isolated_path_duration(
            lang.parse_program(source), L(0, 0), L(0, 4), ((("h", h),),)))[1]
            for h in (0, 8)) > 0

    def test_path_facts_join_durations_with_or(self):
        p = lang.parse_program(LOOP_BRANCH_SOURCE)
        facts = proofs.path_fact_assertion(p, L(0, 1), L(0, 6), ((("h", 0),), (("h", 1),)),
                                           semantics.CostModel())
        assert asrt.unparse_assertion(facts, p) == (
            "(h = 0 -> t@A.l6 - t@A.l1 = 5 or t@A.l6 - t@A.l1 = 10) and "
            "(h = 1 -> t@A.l6 - t@A.l1 = 7 or t@A.l6 - t@A.l1 = 14)")

    def test_loop_postulate_is_refuted(self):
        # Regression: with the first arrival's duration as the only path fact,
        # this postulate was proven, yet h = 0 reaches A.l6 with d = 5 < 8.
        p = lang.parse_program(LOOP_BRANCH_SOURCE)
        postulate = asrt.parse_assertion(
            "(t@l6 - t@l1 < 8 -> h = 1) and (t@l6 - t@l1 >= 12 -> h = 1)")
        result = proofs.check_proof(trivially_annotate(p, leaky={L(0, 6): postulate}))
        assert result.overall == "refuted"
        assert result.certified == ()
        [(vc, refuted)] = result.by_status("counterexample")
        assert vc.provenance == "rule 0 of postulate at A.l6 against isolated path timings"
        cx = refuted.counterexample
        assert cx["store"] == {"h": 0}
        assert cx["snapshots"]["A.l6"][0] - cx["snapshots"]["A.l1"][0] == 5

    def test_endless_loop_postulate_is_refuted(self):
        # h = 0 reaches A.l5 three units after A.l1 on every pass.
        p = lang.parse_program(FOREVER_SOURCE)
        postulate = asrt.parse_assertion("(t@l5 - t@l1 < 100 -> h = 1)")
        result = proofs.check_proof(trivially_annotate(p, leaky={L(0, 5): postulate}))
        assert result.overall == "refuted"
        [(vc, refuted)] = result.by_status("counterexample")
        assert vc.provenance == "rule 0 of postulate at A.l5 against isolated path timings"
        cx = refuted.counterexample
        assert cx["store"] == {"h": 0}
        assert cx["snapshots"]["A.l5"][0] - cx["snapshots"]["A.l1"][0] == 3

    def test_underivable_facts_leave_the_rule_undischarged(self):
        # Regression: with no path facts, rule support was skipped and a
        # wrong postulate could be proven on stability alone.
        p = lang.parse_program(DOMAIN_EXIT_SOURCE)
        postulate = asrt.parse_assertion("(t@l1 - t@l0 < 100 -> h = 1)")
        result = proofs.check_proof(trivially_annotate(p, leaky={L(0, 1): postulate}))
        assert result.overall == "incomplete"
        assert result.certified == ()
        assert any("underivable" in w for w in result.warnings)
        [(vc, unsettled)] = result.by_status("undischarged")
        assert isinstance(vc, proofs.FactlessVC)
        assert vc.provenance == "rule 0 of postulate at A.l1 without isolated path timings"
        assert "underivable" in unsettled.reason

    def test_rule_that_needs_no_facts_is_proven(self):
        p = lang.parse_program(DOMAIN_EXIT_SOURCE)
        postulate = asrt.parse_assertion(
            "(t@l1 - t@l0 < 0 and t@l1 - t@l0 > 0 -> h = 1)")
        result = proofs.check_proof(trivially_annotate(p, leaky={L(0, 1): postulate}))
        assert result.overall == "proven"
        assert result.certified == (L(0, 1),)

    def test_dl_and_proofs_agree_on_the_corpus(self):
        # Synthesis and the proof's path facts read the same isolated durations.
        pairs = 0
        for name, program in load_corpus().items():
            report = dl.dl_certify(program)
            synth = dl.synthesize_leaky_assertions(program, report.suggested_pairs)
            isolated = {s.location: s.isolated for s in synth.assertions}
            isolated.update({r.pair[1]: r.isolated for r in synth.indeterminate})
            for loc_from, loc_to in report.suggested_pairs:
                if loc_to not in isolated:
                    continue
                pairs += 1
                durations = proofs.isolated_path_duration(
                    program, loc_from, loc_to, explorer.secret_domain_of(program))
                facts = {str(dict(v)): sorted(ds) for v, ds in durations.items()}
                assert facts == isolated[loc_to], (name, loc_from, loc_to)
        assert pairs >= 5


class TestDischarge:
    def test_vacuous_guard_states_ignored(self, semaphore_pair):
        t2 = semaphore_pair.thread_index("T2")
        region = semaphore_pair.statement_at(L(t2, 2))
        vc = proofs.VC(
            pre=asrt.parse_assertion("sem = 0"),
            stmt=region,
            post=asrt.parse_assertion("sem = 0"),
            kind=proofs.INTERFERENCE, provenance="blocked region is vacuous")
        assert proofs.discharge_vc(vc, semaphore_pair).status == "valid"

    def test_domain_exit_is_vacuous(self):
        p = lang.parse_program(
            "var x : int[0..3] label low = 0;\nthread A { x = x + 1; }")
        vc = proofs.VC(
            pre=asrt.parse_assertion("true"),
            stmt=p.threads[0].body[0],
            post=asrt.parse_assertion("x >= 1"),
            kind=proofs.SEQUENTIAL, provenance="overflow states drop out")
        assert proofs.discharge_vc(vc, p).status == "valid"

    def test_tolerance_reaches_approx(self):
        p = lang.parse_program("var x : int[0..6] label low = 3;\nthread A { skip; }")
        vc = proofs.VC(
            pre=asrt.parse_assertion("x = 4"),
            stmt=None,
            post=asrt.parse_assertion("approx(x, 3)"),
            kind=proofs.SEQUENTIAL, provenance="tolerance plumbing")
        assert proofs.discharge_vc(vc, p, tolerance=0).status == "counterexample"
        assert proofs.discharge_vc(vc, p, tolerance=1).status == "valid"

    def test_budget_exceeded_reports_size(self, semaphore_pair):
        vc = proofs.VC(
            pre=asrt.parse_assertion("v = 0"),
            stmt=None,
            post=asrt.parse_assertion("v = 0"),
            kind=proofs.SEQUENTIAL, provenance="tiny")
        result = proofs.discharge_vc(vc, semaphore_pair, max_states=2)
        assert result.status == "undischarged"
        assert "budget" in result.reason

    def test_counterexample_self_validates(self):
        rng = random.Random(20260810)
        pool = ["true", "x = 0", "x = 1", "x <= 1", "y = 0", "x = y"]
        stmts = ["x = 0;", "x = 1;", "x = x + 1;", "y = x;", "skip;", "print(x);"]
        seen_counterexamples = 0
        for trial in range(100):
            n_threads = rng.randint(1, 2)
            src = ["var x : int[0..2] label low = 0;",
                   "var y : int[0..2] label low = 0;"]
            for t in range(n_threads):
                body = "".join(
                    f"  {{| {rng.choice(pool)} |}}\n  {rng.choice(stmts)}\n"
                    for _ in range(rng.randint(1, 3)))
                src.append(f"thread T{t} {{\n{body}}} post {{| {rng.choice(pool)} |}}")
            annotated = annotated_from("\n".join(src))
            program = annotated.program
            vcs = []
            for t in range(n_threads):
                seq, _ = proofs.gen_sequential_vcs(annotated, t)
                vcs += seq
            vcs += proofs.gen_interference_vcs(annotated)
            for vc in vcs:
                result = proofs.discharge_vc(vc, program)
                if result.status != "counterexample":
                    continue
                seen_counterexamples += 1
                store = result.counterexample["store"]
                assert assertion_oracle.evaluate(vc.pre, store, {}, 0)
                if vc.stmt is None:
                    post_store = dict(store)
                else:
                    executed = proofs._execute_atomic(
                        vc.stmt, store, 0, semantics.CostModel(), program)
                    assert executed is not None
                    post_store = executed[0]
                assert not assertion_oracle.evaluate(vc.post, post_store, {}, 0)
        assert seen_counterexamples > 10


# The only run reaches print('x') at t = 100, past the default bound 64.
BOUND_FAULT_SOURCE = (
    "thread A { {| true |} delay(100); {| true |} print('x'); } "
    "post {| t@l1 <= 64 |}\n")


class TestSnapshotRegions:
    @pytest.mark.parametrize("bound", [16, 64, 200])
    def test_snapshot_past_the_bound_is_refuted(self, bound):
        annotated = annotated_from(BOUND_FAULT_SOURCE)
        result = proofs.check_proof(annotated, snapshot_bound=bound)
        assert result.overall == "refuted"
        [(_, refuted)] = result.by_status("counterexample")
        assert refuted.counterexample == {"store": {}, "snapshots": {"A.l1": [65]}}

    def test_checked_states_do_not_grow_with_the_bound(self):
        annotated = asrt.annotate_program(load_program("semaphore_pair_annotated.cwl"))
        vcs, _ = proofs.gen_leaky_vcs(annotated)
        [vc] = [vc for vc in vcs
                if vc.provenance == "T1.l3 preserves postulate at T2.l7"]
        checked = {bound: proofs.discharge_vc(vc, annotated.program,
                                              snapshot_bound=bound).checked
                   for bound in (32, 64, 1000)}
        assert len(set(checked.values())) == 1, checked
        assert checked[32] <= 80  # h, sem, v: 20 stores x 3 regions of t@l7 - t@l0

    def test_clock_atoms_keep_the_bounded_axis(self):
        p = lang.parse_program("var x : int[0..1] label low = 0;\nthread A { skip; }")
        vc = proofs.VC(asrt.parse_assertion("t >= 0"), None,
                       asrt.parse_assertion("t < 10"), proofs.SEQUENTIAL, "clock")
        assert proofs.discharge_vc(vc, p, snapshot_bound=9).status == "valid"
        result = proofs.discharge_vc(vc, p, snapshot_bound=10)
        assert result.counterexample == {"store": {}, "snapshots": {}, "clock": 10}


class TestCheckProof:
    def test_semaphore_pair_certified(self):
        annotated = asrt.annotate_program(load_program("semaphore_pair_annotated.cwl"))
        result = proofs.check_proof(annotated)
        assert result.overall == "proven"
        assert "certified leaky" in result.message and "l7" in result.message

    def test_inverted_consequents_refuted(self):
        annotated = asrt.annotate_program(
            load_program("semaphore_pair_inverted.cwl"))
        result = proofs.check_proof(annotated)
        assert result.overall == "refuted"
        assert result.message == "leak not established"
        flipped = [vc for vc, r in result.by_status("counterexample")]
        assert all(vc.kind == proofs.LEAKY for vc in flipped)

    def test_valid_outline_without_marks(self):
        annotated = annotated_from(DISJOINT)
        result = proofs.check_proof(annotated)
        assert result.overall == "proven"
        assert result.message == "functionally non-interfering; no leak assertions checked"

    @pytest.mark.parametrize("name", OWN_OUTLINES + CERTIFY_CORPUS)
    def test_each_thread_outline_built_once(self, name, monkeypatch):
        annotated = outline(name)
        built = []
        build = proofs.gen_sequential_vcs

        def counted(annotated, thread):
            built.append(thread)
            return build(annotated, thread)

        monkeypatch.setattr(proofs, "gen_sequential_vcs", counted)
        proofs.check_proof(annotated)
        assert built == list(range(len(annotated.program.threads)))


class TestSmtlib:
    def test_valid_triple_script_shape(self):
        p = lang.parse_program("var x : int[0..3] label low = 0;\nthread A { x = x + 1; }")
        vc = proofs.VC(asrt.parse_assertion("x = 0"), p.threads[0].body[0],
                       asrt.parse_assertion("x = 1"), proofs.SEQUENTIAL, "demo")
        text = proofs.emit_smtlib(vc, p)
        assert "(declare-const x Int)" in text
        assert "(check-sat)" in text
        assert "(assert (not" in text

    def test_region_encoded_as_equality_chain(self, region_thread):
        region = region_thread.statement_at(L(0, 2))
        vc = proofs.VC(asrt.parse_assertion("sem = 1"), region,
                       asrt.parse_assertion("sem = 1"), proofs.SEQUENTIAL, "demo")
        text = proofs.emit_smtlib(vc, region_thread)
        assert text.count("declare-const sem") >= 3  # initial and two primes

    def test_quantifier_expanded(self, region_thread):
        vc = proofs.VC(asrt.parse_assertion("forall q in 0..1 : q >= 0"), None,
                       asrt.parse_assertion("true"), proofs.SEQUENTIAL, "demo")
        text = proofs.emit_smtlib(vc, region_thread)
        assert "forall" not in text

    def test_unsupported_loop_in_region(self):
        p = lang.parse_program(
            "var x : int[0..3] label low = 0;\n"
            "thread A { await true then { while x < 2 do { x = x + 1; }; }; }")
        vc = proofs.VC(asrt.parse_assertion("true"), p.threads[0].body[0],
                       asrt.parse_assertion("true"), proofs.SEQUENTIAL, "demo")
        with pytest.raises(Exception, match="unsupported construct"):
            proofs.emit_smtlib(vc, p)

    def test_snapshot_symbols_have_no_upper_bound(self):
        annotated = annotated_from(BOUND_FAULT_SOURCE)
        vcs, _ = proofs.gen_sequential_vcs(annotated, 0)
        text = proofs.emit_smtlib(vcs[-1], annotated.program, snapshot_bound=16)
        assert [line for line in text.splitlines() if "snap_A_l1_0" in line] == [
            "(declare-const snap_A_l1_0 Int)",
            "(assert (>= snap_A_l1_0 0))",
            "(assert (not (<= snap_A_l1_0 64)))",
        ]

    def test_discharge_agrees_with_solver(self):
        z3 = pytest.importorskip("z3")
        annotated = asrt.annotate_program(load_program("semaphore_pair_annotated.cwl"))
        program = annotated.program
        vcs = []
        for t in range(len(program.threads)):
            seq, _ = proofs.gen_sequential_vcs(annotated, t)
            vcs += seq
        vcs += proofs.gen_interference_vcs(annotated)
        leaky, _ = proofs.gen_leaky_vcs(annotated)
        vcs += leaky
        for vc in vcs:
            expected = proofs.discharge_vc(vc, program).status
            solver = z3.Solver()
            solver.from_string(proofs.emit_smtlib(vc, program))
            got = str(solver.check())
            assert (expected == "valid") == (got == "unsat"), vc.provenance
