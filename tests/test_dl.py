from __future__ import annotations

import pytest

from leaklab import assertions as asrt
from leaklab import dl, explorer, lang, proofs, semantics
from leaklab.errors import LeakLabError
from leaklab.lattice import two_point

from conftest import load_corpus, load_program

L = lang.LocationId
BOUNDS = explorer.ExploreBounds(max_steps=60)

# The i > 50 arm delays only on the last nine of sixty passes, far past 200
# steps: 's' to 'e' takes 5 or 8 units for h = 0 and 7 or 10 for h = 1.
LATE_DELAY_SOURCE = (
    "var h : int[0..1] label high = secret;\n"
    "var i : int[0..60] label low = 0;\n"
    "thread A { while i < 60 do { print('s'); if h then { delay(3); } else { skip; }; "
    "if i > 50 then { delay(4); } else { skip; }; print('e'); i = i + 1; }; }")


class TestCertify:
    def test_high_branch_prints_flagged(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { if h then { print(1); } else { print(2); }; }")
        report = dl.dl_certify(p)
        flagged = {(p.location_str(f.location), f.reason) for f in report.flags}
        assert flagged == {("A.l1", dl.HIGH_GUARD_OUTPUT),
                           ("A.l2", dl.HIGH_GUARD_OUTPUT)}
        assert all("h" in f.responsible for f in report.flags)

    def test_semaphore_pair_prints_not_flagged_but_noted(self, semaphore_pair):
        report = dl.dl_certify(semaphore_pair)
        assert report.flags == []
        assert any("timing analysis recommended" in n for n in report.notes)

    def test_low_print_unflagged(self):
        p = lang.parse_program(
            "var x : int[0..3] label low = 1;\nthread A { print(5); print(x); }")
        report = dl.dl_certify(p)
        assert report.flags == []

    def test_high_data_print_flagged(self):
        p = lang.parse_program(
            "var h : int[0..3] label high = secret;\nthread A { print(h); }")
        report = dl.dl_certify(p)
        assert [f.reason for f in report.flags] == [dl.HIGH_DATA_OUTPUT]

    def test_high_guard_delay_flagged(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { if h then { delay(9); } else { skip; }; }")
        report = dl.dl_certify(p)
        assert [f.reason for f in report.flags] == [dl.HIGH_GUARD_DELAY]

    def test_dynamic_relabelling_propagates(self):
        # x picks up the secret's label via assignment, so printing x later
        # is a data flag even though x was declared low.
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "var x : int[0..3] label low = 0;\n"
            "thread A { x = h + 1; print(x); }")
        report = dl.dl_certify(p)
        assert [f.reason for f in report.flags] == [dl.HIGH_DATA_OUTPUT]
        assert report.var_labels[L(0, 0)] == "high"

    def test_pc_monotone_into_regions(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "var x : int[0..3] label low = 0;\n"
            "thread A { if h then { if x < 2 then { x = 1; } else { skip; }; }"
            " else { skip; }; }")
        report = dl.dl_certify(p)
        lat = two_point()
        outer = report.pc_labels[L(0, 0)]
        inner = report.pc_labels[L(0, 2)]
        assert lat.leq(outer, inner) and inner == "high"

    def test_unknown_label_rejected(self):
        p = lang.parse_program(
            "var h : int[0..1] label topsecret = secret;\nthread A { print(1); }")
        with pytest.raises(LeakLabError, match="not a lattice element"):
            dl.dl_certify(p)

    def test_flag_soundness_against_lattice(self):
        # Every flag must cite its culprit, sit on a public statement, and a
        # data flag's expression must really mention a non-bottom variable.
        lat = two_point()
        for name, program in load_corpus().items():
            report = dl.dl_certify(program, lat)
            declared = {d.name: d.security_label for d in program.declarations}
            for flag in report.flags:
                stmt = program.statement_at(flag.location)
                assert isinstance(stmt, (lang.Print, lang.Delay)), name
                assert flag.responsible, name
                if flag.reason == dl.HIGH_DATA_OUTPUT:
                    expr = stmt.value if isinstance(stmt, lang.Print) else stmt.duration
                    assert any(not lat.leq(declared[v], lat.bottom)
                               for v in lang.free_vars(expr)), name


class TestSnapshotPairs:
    def test_region_thread_pair(self, region_thread):
        report = dl.dl_certify(region_thread)
        assert report.suggested_pairs == [(L(0, 0), L(0, 7))]

    def test_no_high_guards_no_pairs(self):
        p = lang.parse_program(
            "var x : int[0..3] label low = 0;\nthread A { print('s'); x = 1; print('e'); }")
        assert dl.dl_certify(p).suggested_pairs == []

    def test_three_prints_two_regions_two_pairs(self):
        corpus = load_corpus()
        p = corpus["07_three_phase.cwl"]
        report = dl.dl_certify(p)
        assert len(report.suggested_pairs) == 2
        (a1, b1), (a2, b2) = report.suggested_pairs
        assert b1 == a2  # middle print closes the first pair and opens the second


class TestSynthesis:
    def test_region_thread_rule_with_threshold_four(self, region_thread):
        report = dl.dl_certify(region_thread)
        syn = dl.synthesize_leaky_assertions(region_thread, report.suggested_pairs,
                                             bounds=BOUNDS)
        assert len(syn.assertions) == 1
        emitted = syn.assertions[0]
        assert emitted.threshold == 4
        text = asrt.unparse_assertion(emitted.assertion, region_thread)
        assert text == ("(t@T2.l7 - t@T2.l0 < 4 -> h = 0) and "
                        "(t@T2.l7 - t@T2.l0 >= 4 -> h = 1)")

    def test_synthesized_assertion_is_leaky_on_same_program(self, region_thread):
        report = dl.dl_certify(region_thread)
        syn = dl.synthesize_leaky_assertions(region_thread, report.suggested_pairs,
                                             bounds=BOUNDS)
        emitted = syn.assertions[0]
        verdict = asrt.is_leaky_assertion(emitted.assertion, emitted.location,
                                          region_thread, bounds=BOUNDS)
        assert verdict.verdict == "leaky"

    def test_balanced_costs_indeterminate(self):
        p = load_program("semaphore_pair_delay50.cwl")
        pairs = dl.dl_certify(p).suggested_pairs
        costs = semantics.CostModel(overrides={L(p.thread_index("T2"), 3): 47})
        syn = dl.synthesize_leaky_assertions(p, pairs, bounds=BOUNDS, costs=costs)
        assert syn.assertions == []
        assert len(syn.indeterminate) == 1
        assert "overlap" in syn.indeterminate[0].reason

    def test_isolated_sets_do_not_depend_on_the_step_bound(self):
        # Regression: cut at 200 steps, the sets were {5} and {7}, and the
        # synthesized threshold 6 was refuted by the proof's path facts.
        p = lang.parse_program(LATE_DELAY_SOURCE)
        pairs = dl.dl_certify(p).suggested_pairs
        assert pairs == [(L(0, 1), L(0, 8))]
        for bounds in (explorer.ExploreBounds(), explorer.ExploreBounds(max_steps=20)):
            syn = dl.synthesize_leaky_assertions(p, pairs, bounds=bounds)
            assert syn.assertions == []
            [record] = syn.indeterminate
            assert record.isolated == {"{'h': 0}": [5, 8], "{'h': 1}": [7, 10]}
        durations = proofs.isolated_path_duration(p, L(0, 1), L(0, 8),
                                                  explorer.secret_domain_of(p))
        assert {str(dict(v)): sorted(ds) for v, ds in durations.items()} == record.isolated

    def test_state_cap_gives_no_assertion(self):
        # Regression: capped at 100 states, the isolated sets were {5} and
        # {7}, and threshold 6 was synthesized with no note.
        p = lang.parse_program(LATE_DELAY_SOURCE)
        pairs = dl.dl_certify(p).suggested_pairs
        syn = dl.synthesize_leaky_assertions(
            p, pairs, bounds=explorer.ExploreBounds(max_configs=100))
        assert syn.assertions == []
        [record] = syn.indeterminate
        assert "--bound-configs" in record.reason

    def test_secret_independent_thread_no_assertion(self):
        p = lang.parse_program(
            "var h : bool label high = secret;\n"
            "thread A { print('s'); if h then { skip; } else { skip; }; print('e'); }")
        pairs = dl.dl_certify(p).suggested_pairs
        syn = dl.synthesize_leaky_assertions(p, pairs, bounds=BOUNDS)
        assert syn.assertions == []
        assert syn.indeterminate  # identical duration sets

    def test_splice_round_trip(self, region_thread):
        report = dl.dl_certify(region_thread)
        syn = dl.synthesize_leaky_assertions(region_thread, report.suggested_pairs,
                                             bounds=BOUNDS)
        spliced = dl_splice(region_thread, syn)
        reparsed = lang.parse_program(lang.unparse(spliced))
        annotated = asrt.annotate_program(reparsed)
        assert list(annotated.leaky) == [L(0, 7)]


def dl_splice(program: lang.Program, syn: dl.SynthesisReport) -> lang.Program:
    """Attach synthesized postulates as @leaky source annotations."""
    texts = {s.location: asrt.unparse_assertion(s.assertion, program)
             for s in syn.assertions}

    def walk(body):
        out = []
        for s in body:
            if isinstance(s, lang.If):
                s = lang.replace(s, then_body=walk(s.then_body), else_body=walk(s.else_body))
            elif isinstance(s, (lang.While, lang.Await)):
                s = lang.replace(s, body=walk(s.body))
            if s.label in texts:
                s = lang.replace(s, leaky_text=texts[s.label])
            out.append(s)
        return tuple(out)

    threads = tuple(lang.replace(t, body=walk(t.body)) for t in program.threads)
    return lang.replace(program, threads=threads)
