from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import assertions as asrt
from leaklab import explorer, lang, proofs, semantics
from leaklab.errors import AnnotationError, LeakLabError, SnapshotUndefined

import assertion_oracle
from conftest import load_program
from schedule_oracle import run_deterministic
from test_discharge_oracle import CERTIFY_CORPUS, OWN_OUTLINES, outline

L = lang.LocationId


def resolved(text: str, program: lang.Program, thread: int = 0) -> asrt.Assertion:
    return asrt.resolve_assertion(asrt.parse_assertion(text), program, thread)


class TestParsing:
    def test_duration_rule_is_implication(self):
        a = asrt.parse_assertion("t@l7 - t@l0 >= 4 -> h = 1")
        assert isinstance(a, asrt.Implies)
        assert isinstance(a.antecedent, lang.BinOp)
        assert a.antecedent.op == ">="

    def test_trivially_true(self):
        assert asrt.parse_assertion("true") == lang.BoolLit(True)

    def test_bounded_quantifier(self):
        a = asrt.parse_assertion("forall x in 0..1 : x = x")
        assert isinstance(a, asrt.Quantified)
        assert asrt.eval_assertion(a, {}, {}, 0) is True

    def test_exists(self):
        a = asrt.parse_assertion("exists x in 0..3 : x = 2")
        assert asrt.eval_assertion(a, {}, {}, 0) is True

    def test_qualified_and_indexed_snapshots(self):
        a = asrt.parse_assertion("t@T2.l7[0] >= t@l0")
        terms = asrt.snapshot_terms(a)
        assert terms[0].thread_name == "T2" and terms[0].arrival == 0
        assert terms[1].thread_name is None and terms[1].arrival is None

    def test_approx_forms(self):
        two = asrt.parse_assertion("approx(t, 5)")
        three = asrt.parse_assertion("approx(t, 5, 2)")
        assert asrt.eval_assertion(two, {}, {}, 5) is True
        assert asrt.eval_assertion(two, {}, {}, 6) is False
        assert asrt.eval_assertion(three, {}, {}, 7) is True
        assert asrt.eval_assertion(two, {}, {}, 6, tolerance=1) is True

    def test_syntax_error_position(self):
        with pytest.raises(Exception) as err:
            asrt.parse_assertion("h = ")
        assert "expected" in str(err.value)


def int_terms(names: tuple[str, ...], depth: int = 1) -> st.SearchStrategy:
    leaves = st.one_of(
        st.integers(min_value=0, max_value=9).map(lang.IntLit),
        st.sampled_from(names).map(lang.Var),
        st.just(asrt.ClockTerm()),
        st.builds(asrt.SnapshotTerm, st.sampled_from((None, "T2")),
                  st.integers(min_value=0, max_value=8),
                  st.sampled_from((None, 0, 1))))
    if depth == 0:
        return leaves
    sub = int_terms(names, depth - 1)
    return st.one_of(leaves, sub.map(lambda x: lang.UnaryOp("-", x)),
                     st.builds(lang.BinOp, st.sampled_from(("+", "-", "*")), sub, sub))


def assertion_asts(depth: int = 2, names: tuple[str, ...] = ("h", "v")) -> st.SearchStrategy:
    """Well-typed assertions over ``names``."""
    ints = int_terms(names)
    base = st.one_of(
        st.builds(lang.BinOp, st.sampled_from(lang.CMP_OPS), ints, ints),
        st.builds(asrt.Approx, ints, ints),
        st.builds(asrt.Approx, ints, ints, ints),
        st.booleans().map(lang.BoolLit))
    if depth == 0:
        return base
    sub = assertion_asts(depth - 1, names)
    return st.one_of(
        base,
        st.builds(lang.BinOp, st.sampled_from(("and", "or")), sub, sub),
        st.builds(asrt.Implies, sub, sub),
        sub.map(lambda x: lang.UnaryOp("not", x)),
        quantified(depth - 1, names))


def quantified(depth: int, names: tuple[str, ...]) -> st.SearchStrategy:
    """``forall``/``exists q in 0..2`` over a body that compares ``q``."""
    q = lang.Var("q")
    q_term = st.just(q) | st.builds(lang.BinOp, st.sampled_from(("+", "-", "*")),
                                    st.just(q), int_terms(names, 0))
    uses_q = st.builds(lang.BinOp, st.sampled_from(lang.CMP_OPS), q_term, int_terms(names))
    body = st.builds(lang.BinOp, st.sampled_from(("and", "or")), uses_q,
                     assertion_asts(depth, names + ("q",)))
    return st.builds(asrt.Quantified, st.sampled_from(("forall", "exists")),
                     st.just("q"), st.just(0), st.just(2), body)


class TestRoundTrip:
    @given(assertion_asts())
    def test_unparse_parse_round_trip(self, a):
        assert asrt.parse_assertion(asrt.unparse_assertion(a)) == a


class TestEval:
    def test_duration_implication_true(self, region_thread):
        a = resolved("(t@l7 - t@l0 < 4) -> (h = 0)", region_thread)
        snaps = {L(0, 0): (1,), L(0, 7): (4,)}
        assert asrt.eval_assertion(a, {"h": 0}, snaps, 4) is True

    def test_duration_implication_second_rule(self, region_thread):
        a = resolved("(t@l7 - t@l0 >= 4) -> (h = 1)", region_thread)
        snaps = {L(0, 0): (1,), L(0, 7): (7,)}
        assert asrt.eval_assertion(a, {"h": 1}, snaps, 7) is True

    def test_missing_snapshot_is_error_not_false(self, region_thread):
        a = resolved("t@l7 > 0", region_thread)
        with pytest.raises(SnapshotUndefined):
            asrt.eval_assertion(a, {"h": 0}, {}, 0)

    def test_latest_arrival_and_indexed(self, region_thread):
        snaps = {L(0, 0): (2, 9)}
        latest = resolved("t@l0 = 9", region_thread)
        first = resolved("t@l0[0] = 2", region_thread)
        assert asrt.eval_assertion(latest, {}, snaps, 9)
        assert asrt.eval_assertion(first, {}, snaps, 9)

    def test_unknown_snapshot_location_rejected(self, region_thread):
        with pytest.raises(AnnotationError, match="does not exist"):
            resolved("t@l19 > 0", region_thread)

    def test_snapshot_coherence_with_substitution(self, region_thread):
        # Evaluating with snapshot lookups equals evaluating the assertion
        # with each snapshot term replaced by its recorded value.
        final = run_deterministic(region_thread, {"h": 1, "sem": 1, "v": 0})
        snaps = final.snapshot_dict()
        a = resolved("t@l7 - t@l0 >= 4 -> h = 1", region_thread)

        def substitute(x):
            if isinstance(x, asrt.SnapshotTerm):
                return lang.IntLit(snaps[x.resolved][-1])
            if isinstance(x, lang.BinOp):
                return lang.BinOp(x.op, substitute(x.left), substitute(x.right))
            if isinstance(x, asrt.Implies):
                return asrt.Implies(substitute(x.antecedent), substitute(x.consequent))
            return x

        direct = asrt.eval_assertion(a, final.store_dict(), snaps, final.clock)
        substituted = asrt.eval_assertion(substitute(a), final.store_dict(),
                                          {}, final.clock)
        assert direct == substituted is True

    @settings(max_examples=300)
    @given(assertion_asts() | quantified(1, ("h", "v")))
    def test_compiled_matches_interpreted(self, a):
        program = load_program("region_thread.cwl")
        try:
            a = asrt.resolve_assertion(a, program, 0)
        except AnnotationError:
            return
        asrt.annotate_program(program, extra_pre={L(0, 0): a})  # well-typed
        for tolerance in (0, 1, 2):
            fast = asrt.compile_assertion(a, tolerance)
            for store, snaps, clock in EVAL_STATES:
                try:
                    expected = assertion_oracle.evaluate(a, store, snaps, clock, tolerance)
                except LeakLabError as e:
                    with pytest.raises(type(e)):
                        fast(store, snaps, clock)
                    continue
                assert fast(store, snaps, clock) == expected, (tolerance, store, snaps, clock)

    @pytest.mark.parametrize("op", lang.BOOL_OPS + lang.CMP_OPS + lang.ADD_OPS + ("*",))
    def test_every_binary_operator_matches_interpreted(self, op):
        h, v, w = lang.Var("h"), lang.Var("v"), lang.Var("w")
        if op in lang.BOOL_OPS:
            a = lang.BinOp(op, lang.BinOp("<", h, v), lang.BinOp("<", v, w))
        elif op in lang.CMP_OPS:
            a = lang.BinOp(op, h, v)
        else:
            a = lang.BinOp("=", lang.BinOp(op, h, v), w)
        fast = asrt.compile_assertion(a)
        values = [fast(store, {}, 0) for store in GRID_STORES]
        assert values == [assertion_oracle.evaluate(a, store, {}, 0) for store in GRID_STORES]
        assert True in values and False in values

    @pytest.mark.parametrize("op,left", [("and", False), ("or", True)])
    def test_and_or_stop_before_an_undefined_right_side(self, region_thread, op, left):
        undefined = resolved("t@l4 > 0", region_thread)
        snaps = {L(0, 0): (1,)}
        decided = lang.BinOp(op, lang.BoolLit(left), undefined)
        assert asrt.compile_assertion(decided)({}, snaps, 0) is left
        assert assertion_oracle.evaluate(decided, {}, snaps, 0) is left
        open_ = lang.BinOp(op, lang.BoolLit(not left), undefined)
        with pytest.raises(SnapshotUndefined):
            asrt.compile_assertion(open_)({}, snaps, 0)
        with pytest.raises(SnapshotUndefined):
            assertion_oracle.evaluate(open_, {}, snaps, 0)


# Operands for every binary operator: equal, smaller and larger pairs, with
# negative values and results that both meet and miss ``w``.
GRID_STORES = [{"h": h, "v": v, "w": w}
               for h in range(-2, 3) for v in range(-2, 3) for w in (-4, -1, 0, 1, 4)]


# Stores, snapshots (l4 never reached in the second) and clocks to compare on.
EVAL_STATES = [({"h": h, "v": v}, snaps, clock)
               for h in (0, 1) for v in (0, 1, 3)
               for snaps in ({L(0, i): (i % 3,) for i in range(9)},
                             {L(0, i): (i, i + 3) for i in range(9) if i != 4})
               for clock in (0, 4)]


class TestAnnotateProgram:
    def test_semaphore_pair_annotated_outline(self):
        p = load_program("semaphore_pair_annotated.cwl")
        annotated = asrt.annotate_program(p)
        t1 = p.thread_index("T1")
        t2 = p.thread_index("T2")
        assert annotated.pre[L(t1, 0)] == lang.BinOp("=", lang.Var("sem"), lang.IntLit(1))
        assert annotated.posts[t1] == lang.BinOp("=", lang.Var("sem"), lang.IntLit(1))
        assert L(t2, 7) in annotated.leaky

    def test_leaky_must_reference_secret(self, region_thread):
        with pytest.raises(AnnotationError, match="references no secret"):
            asrt.annotate_program(
                region_thread, extra_leaky={L(0, 7): asrt.parse_assertion("v = 0")})

    def test_leaky_must_sit_on_output(self, region_thread):
        a = resolved("h = 0", region_thread)
        with pytest.raises(AnnotationError, match="output statement"):
            asrt.annotate_program(region_thread, extra_leaky={L(0, 6): a})

    def test_leaky_on_delay_warns(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { delay(h + 1); }")
        annotated = asrt.annotate_program(
            p, extra_leaky={L(0, 0): asrt.resolve_assertion(
                asrt.parse_assertion("h = 0"), p, 0)})
        assert any("delay" in w for w in annotated.warnings)

    def test_undeclared_name_rejected(self, region_thread):
        with pytest.raises(AnnotationError, match="undeclared"):
            asrt.annotate_program(
                region_thread, extra_pre={L(0, 0): asrt.parse_assertion("zz = 0")})

    # The compiled evaluator once read the first as proven and refuted the
    # second, while the interpreter rejected both as non-boolean.
    @pytest.mark.parametrize("source, message", [
        ("var v : int[0..1] label low = 0;\n"
         "thread A { {| v + 1 -> v = 0 |} v = 0; } post {| true |}",
         "A.l0: implication"),
        ("var v : int[0..1] label low = 0;\n"
         "thread A { {| true |} skip; } post {| forall x in 0..1 : x |}",
         "A post: forall over a non-bool body"),
    ])
    def test_ill_typed_annotation_rejected(self, source, message):
        with pytest.raises(AnnotationError, match=f"ill-typed assertion at {message}"):
            asrt.annotate_program(lang.parse_program(source))

    @pytest.mark.parametrize("text", [
        "t", "h + 1", "not v", "approx((h = 0), 1)", "approx(t, 1, (h = 1))",
        "exists x in 0..2 : x + 1", "t@l0 and true", "v = 0 -> 3",
    ])
    def test_assertion_typing(self, region_thread, text):
        with pytest.raises(AnnotationError, match="ill-typed"):
            asrt.annotate_program(region_thread,
                                  extra_pre={L(0, 0): asrt.parse_assertion(text)})

    def test_each_extra_assertion_is_resolved_once_per_thread(self, monkeypatch):
        p = load_program("semaphore_pair.cwl")
        labels = [s.label for t in p.threads for s in lang.iter_statements(t.body)]
        calls = []
        resolve = asrt.resolve_assertion
        monkeypatch.setattr(asrt, "resolve_assertion",
                            lambda a, program, thread: calls.append(thread)
                            or resolve(a, program, thread))
        t1 = asrt.parse_assertion("t@l0 >= 0")
        annotated = asrt.annotate_program(
            p, extra_pre={**dict.fromkeys(labels, asrt.TRUE), labels[1]: t1})
        assert calls == [0, 0, 1]  # `true` once per thread, the snapshot assertion once
        assert annotated.pre[labels[0]] == asrt.TRUE
        assert annotated.pre[labels[1]].left.resolved == L(0, 0)

    def test_quantified_variable_is_int_and_shadows(self, region_thread):
        text = "forall h in 0..3 : h + v >= 0 and (exists x in 1..2 : approx(t@l0, x, h))"
        a = asrt.parse_assertion(text)
        annotated = asrt.annotate_program(region_thread, extra_pre={L(0, 0): a})
        assert asrt.unparse_assertion(annotated.pre[L(0, 0)], region_thread) == (
            text.replace("t@l0", "t@T2.l0"))


BOUNDS = explorer.ExploreBounds(max_steps=40)


class TestLeakiness:
    def test_plain_secret_equation_is_leaky(self, region_thread):
        v = asrt.is_leaky_assertion(resolved("h = 0", region_thread),
                                    L(0, 7), region_thread, bounds=BOUNDS)
        assert v.verdict == "leaky"
        assert v.witness == {"h": (1,)}

    def test_true_is_not_leaky(self, region_thread):
        v = asrt.is_leaky_assertion(resolved("true", region_thread),
                                    L(0, 7), region_thread, bounds=BOUNDS)
        assert v.verdict == "not-leaky"

    def test_short_duration_is_leaky(self, region_thread):
        v = asrt.is_leaky_assertion(resolved("t@l7 - t@l0 < 4", region_thread),
                                    L(0, 7), region_thread, bounds=BOUNDS)
        assert v.verdict == "leaky"
        assert v.witness == {"h": (1,)}

    def test_unsatisfiable_is_vacuous(self, region_thread):
        v = asrt.is_leaky_assertion(resolved("h = 0 and h = 1", region_thread),
                                    L(0, 7), region_thread, bounds=BOUNDS)
        assert v.verdict == "vacuous"

    def test_rule_form_judged_per_case(self, semaphore_pair):
        t2 = semaphore_pair.thread_index("T2")
        a = resolved("(t@l7 - t@l0 < 4 -> h = 0) and (t@l7 - t@l0 >= 4 -> h = 1)",
                     semaphore_pair, t2)
        v = asrt.is_leaky_assertion(a, L(t2, 7), semaphore_pair, bounds=BOUNDS)
        assert v.verdict == "leaky"
        determinizing = [c for c in v.cases if c.determinizes]
        assert determinizing and all(c.consequent_holds for c in determinizing)

    def test_strength_monotonicity_on_plain_assertions(self, region_thread):
        # a stronger than b (satisfied by fewer reachable states) and still
        # satisfiable => a excludes at least every secret value b excludes.
        candidates = ["h = 0", "t@l7 - t@l0 < 4", "t@l7 - t@l0 <= 6", "true",
                      "v = 0", "h = 0 or h = 1"]
        parsed = {text: resolved(text, region_thread) for text in candidates}
        domain = explorer.secret_domain_of(region_thread)
        watch = frozenset({L(0, 0), L(0, 7)})
        states, _ = asrt.states_at_location(region_thread, L(0, 7), watch, domain, BOUNDS)

        def sat_states(a):
            out = []
            for store, snaps, clock, valuation in states:
                try:
                    if asrt.eval_assertion(a, store, snaps, clock):
                        out.append((id(store), valuation))
                except SnapshotUndefined:
                    pass
            return out

        def excluded(sat):
            seen = {v for _, v in sat}
            return {v for v in domain if v not in seen}

        for a_text, b_text in itertools.permutations(candidates, 2):
            sat_a, sat_b = sat_states(parsed[a_text]), sat_states(parsed[b_text])
            if sat_a and set(sat_a) <= set(sat_b):
                assert excluded(sat_b) <= excluded(sat_a)

    # The assertion evaluator once read this as h + 1 = 2 and answered
    # leaky, with h=0 excluded, though annotate_program rejects it.
    def test_ill_typed_assertion_is_rejected_as_in_an_outline(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { print('a'); skip; print('b'); }")
        with pytest.raises(AnnotationError,
                           match="ill-typed assertion at A.l2: arithmetic '[+]'"):
            asrt.is_leaky_assertion(asrt.parse_assertion("h + true = 2"), L(0, 2), p,
                                    bounds=BOUNDS)

    # A ghost has no value at a reachable state: the check once raised
    # "variable 'G' unbound" partway through the enumeration.
    def test_ghost_is_rejected_as_an_annotation_error(self):
        p = lang.parse_program(
            "ghost G : int[0..1];\n"
            "var h : int[0..1] label high = secret;\n"
            "thread A { print('a'); skip; print('b'); }")
        with pytest.raises(AnnotationError,
                           match=r"ghost\(s\) \['G'\] in leakiness assertion at A.l2"):
            asrt.is_leaky_assertion(asrt.parse_assertion("h = G"), L(0, 2), p,
                                    bounds=BOUNDS)

    def test_incomplete_exploration_flagged(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { print('s'); while true do { skip; }; print('e'); }")
        v = asrt.is_leaky_assertion(
            resolved("h = 0", p), L(0, 0), p,
            bounds=explorer.ExploreBounds(max_steps=6))
        assert not v.complete


def counterexample_state(program: lang.Program, cx: dict) -> tuple[dict, dict, int]:
    names = {program.location_str(loc): loc for t in range(len(program.threads))
             for loc in program.labels_of_thread(t)}
    snaps = {names[where]: tuple(v) for where, v in cx["snapshots"].items()}
    return dict(cx["store"]), snaps, cx.get("clock", 0)


@pytest.mark.parametrize("name", OWN_OUTLINES + CERTIFY_CORPUS)
def test_counterexamples_hold_under_the_oracle(name):
    """Every counterexample ``ogcheck`` reports satisfies the pre-assertion
    and, after the statement, breaks the post-assertion."""
    annotated = outline(name)
    program = annotated.program
    result = proofs.check_proof(annotated)
    for vc, outcome in result.by_status("counterexample"):
        store, snaps, clock = counterexample_state(program, outcome.counterexample)
        assert assertion_oracle.evaluate(vc.pre, store, snaps, clock), vc.provenance
        after = (store, clock) if vc.stmt is None else proofs._execute_atomic(
            vc.stmt, store, clock, semantics.CostModel(), program)
        assert after is not None, vc.provenance
        assert not assertion_oracle.evaluate(vc.post, after[0], snaps, after[1]), vc.provenance
