"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from leaklab import assertions as asrt
from leaklab import dl, explorer, ifc, lang, proofs, semantics
from leaklab.lattice import build_lattice

import assertion_oracle
from conftest import load_corpus, load_program, trivially_annotate
from ifc_oracle import indistinguishable

L = lang.LocationId
SEED = 20260810


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestCriterion1:
    def test_semaphore_pair_trace_leak(self):
        started = time.time()
        program = load_program("semaphore_pair.cwl")
        bounds = explorer.ExploreBounds(max_steps=40, timing_blind=True)
        result = explorer.knowledge_partition(program, {}, None, bounds)

        acdb = [o for o in result.knowledge if o.letters == "a c d b"]
        ok = (len(acdb) == 1
              and result.knowledge[acdb[0]] == frozenset({(("h", 0),)})
              and result.leaky[acdb[0]]
              and result.verdict == "leak-found")
        # absent for h = 1, checked on the raw observation sets
        h1 = explorer.explore(program, {}, {"h": 1}, bounds)
        ok = ok and all("".join(p for p, _ in obs.events) != "acdb"
                        for obs, _ in h1.observations)
        elapsed = time.time() - started
        ok = ok and elapsed < 1.0
        report(1, ok, f"observation 'a c d b' has K exactly {{h=0}}, absent "
                      f"for h=1, in {elapsed:.2f}s")


class TestCriterion2:
    def test_three_triple_proof(self):
        started = time.time()
        program = load_program("semaphore_pair_annotated.cwl")
        domains = {d.name: d.domain for d in program.declarations}
        assert tuple(domains["h"]) == (0, 1)
        assert tuple(domains["sem"]) == (0, 1)
        assert tuple(domains["v"]) == tuple(range(5))

        annotated = asrt.annotate_program(program)
        result = proofs.check_proof(annotated, snapshot_bound=64)
        all_valid = all(r.status == "valid" for _, r in result.entries)
        certified = (result.overall == "proven"
                     and any(loc.index == 7 for loc in result.certified))
        kinds = {vc.kind for vc, _ in result.entries}
        families = kinds == {proofs.SEQUENTIAL, proofs.INTERFERENCE, proofs.LEAKY}

        inverted = asrt.annotate_program(load_program("semaphore_pair_inverted.cwl"))
        flipped = proofs.check_proof(inverted, snapshot_bound=64)
        has_counterexample = any(r.status == "counterexample"
                                 for _, r in flipped.entries)
        elapsed = time.time() - started
        ok = (all_valid and certified and families and has_counterexample
              and flipped.overall == "refuted" and elapsed < 10.0)
        report(2, ok, f"{len(result.entries)} conditions all valid, leak "
                      f"certified at l7; inverted consequents refuted, "
                      f"in {elapsed:.2f}s")


class TestCriterion3:
    def test_remark_cases(self):
        program = load_program("semaphore_pair_delay50.cwl")
        bounds = explorer.ExploreBounds(max_steps=60)
        pairs = dl.dl_certify(program).suggested_pairs

        # Case 1: region cost 4 far below the 50-unit sleep.
        syn = dl.synthesize_leaky_assertions(program, pairs, bounds=bounds)
        case1 = len(syn.assertions) == 1 and not syn.indeterminate
        scan = explorer.knowledge_partition(program, {}, None, bounds)
        case1 = case1 and scan.verdict == "leak-found"

        # Case 3: overrides bring the region to exactly 50 units.
        t2 = program.thread_index("T2")
        costs = semantics.CostModel(overrides={L(t2, 3): 47})
        balanced = dl.synthesize_leaky_assertions(program, pairs,
                                                  bounds=bounds, costs=costs)
        case3 = (balanced.assertions == [] and len(balanced.indeterminate) == 1
                 and "overlap" in balanced.indeterminate[0].reason)
        report(3, case1 and case3,
               "wide gap yields a separating rule and a timing leak; "
               "balanced costs yield indeterminate and no timing postulate")


class TestCriterion4:
    def test_interference_regression(self):
        disjoint = asrt.annotate_program(lang.parse_program(
            "var x : int[0..3] label low = 0;\n"
            "var y : int[0..3] label low = 0;\n"
            "thread A { {| x = 0 |} x = x + 1; } post {| x = 1 |}\n"
            "thread B { {| y = 0 |} y = y + 1; } post {| y = 1 |}"))
        disjoint_vcs = proofs.gen_interference_vcs(disjoint)
        disjoint_ok = disjoint_vcs and all(
            proofs.discharge_vc(vc, disjoint.program).status == "valid"
            for vc in disjoint_vcs)

        interfering = asrt.annotate_program(lang.parse_program(
            "var x : int[0..3] label low = 0;\n"
            "var y : int[0..3] label low = 0;\n"
            "thread A { {| x = 0 |} y = x; } post {| true |}\n"
            "thread B { {| true |} x = 1; } post {| true |}"))
        refuted = [proofs.discharge_vc(vc, interfering.program)
                   for vc in proofs.gen_interference_vcs(interfering)]
        interfering_ok = any(
            r.status == "counterexample" and r.counterexample["store"]["x"] == 0
            for r in refuted)

        rng = random.Random(SEED)
        print(f"criterion 4 random-program seed: {SEED}")
        pool = ["true", "x = 0", "x = 1", "x <= 1", "y = 0", "x = y"]
        stmts = ["x = 0;", "x = 1;", "x = x + 1;", "y = x;", "skip;", "print(x);"]
        counterexamples = 0
        revalidated = True
        for _ in range(100):
            n_threads = rng.randint(1, 2)
            src = ["var x : int[0..2] label low = 0;",
                   "var y : int[0..2] label low = 0;"]
            for t in range(n_threads):
                body = "".join(
                    f"  {{| {rng.choice(pool)} |}}\n  {rng.choice(stmts)}\n"
                    for _ in range(rng.randint(1, 3)))
                src.append(f"thread T{t} {{\n{body}}} post {{| {rng.choice(pool)} |}}")
            annotated = asrt.annotate_program(lang.parse_program("\n".join(src)))
            program = annotated.program
            vcs = []
            for t in range(n_threads):
                seq, _ = proofs.gen_sequential_vcs(annotated, t)
                vcs += seq
            vcs += proofs.gen_interference_vcs(annotated)
            for vc in vcs:
                outcome = proofs.discharge_vc(vc, program)
                if outcome.status != "counterexample":
                    continue
                counterexamples += 1
                store = outcome.counterexample["store"]
                pre_holds = assertion_oracle.evaluate(vc.pre, store, {}, 0)
                if vc.stmt is None:
                    post_store = dict(store)
                else:
                    executed = proofs._execute_atomic(
                        vc.stmt, store, 0, semantics.CostModel(), program)
                    post_store = executed[0] if executed else None
                post_fails = (post_store is not None
                              and not assertion_oracle.evaluate(vc.post, post_store, {}, 0))
                revalidated = revalidated and pre_holds and post_fails
        ok = bool(disjoint_ok and interfering_ok and revalidated
                  and counterexamples > 0)
        report(4, ok, f"disjoint outline valid, classic pair refuted, "
                      f"{counterexamples} random counterexamples re-validated")


class TestCriterion5:
    def test_machine_properties(self):
        rng = random.Random(SEED)
        print(f"criterion 5 randomized seed: {SEED}")
        chain = build_lattice(["low", "mid", "high"],
                              [("low", "mid"), ("mid", "high")])
        variables = ["x", "y", "z"]
        users = ["u1", "u2"]

        def fresh_state() -> ifc.MachineState:
            labels = {n: rng.choice(chain.elements) for n in variables + users}
            values = {n: rng.randint(0, 3) for n in variables}
            members = frozenset((u, v) for u in users for v in variables)
            return ifc.MachineState(members, labels, values)

        violations = 0
        states = []
        for _ in range(1000):
            q = fresh_state()
            states.append(q)
            user = rng.choice(users)
            for _ in range(4):
                var = rng.choice(variables)
                write = rng.random() < 0.5
                op = (ifc.InputOp(var, "w", lang.IntLit(rng.randint(0, 3)))
                      if write else ifc.InputOp(var, "r"))
                before = dict(q.labels)
                result = ifc.transition(q, chain, user, op)
                if isinstance(result, ifc.FlowViolation):
                    if write or chain.leq(q.labels[var], q.labels[user]):
                        violations += 1  # epsilon only on under-cleared reads
                    continue
                if (not write) and not chain.leq(q.labels[var], q.labels[user]):
                    violations += 1  # a violating read must have been epsilon
                if any(not chain.leq(before[v], result.labels[v])
                       for v in variables):
                    violations += 1  # labels may only climb
                q = result

        for _ in range(400):
            a, b, c = rng.choice(states), rng.choice(states), rng.choice(states)
            u = rng.choice(users)
            if not indistinguishable(a, a, chain, u):
                violations += 1
            if indistinguishable(a, b, chain, u) != indistinguishable(
                    b, a, chain, u):
                violations += 1
            if (indistinguishable(a, b, chain, u)
                    and indistinguishable(b, c, chain, u)
                    and not indistinguishable(a, c, chain, u)):
                violations += 1

        command_makers = [
            lambda: lang.Skip(),
            lambda: lang.Assign(rng.choice(variables), lang.IntLit(rng.randint(0, 3))),
            lambda: lang.Assign(rng.choice(variables), lang.Var(rng.choice(variables))),
            lambda: ifc.GuardEval(lang.Var(rng.choice(variables))),
        ]
        ni_pairs = 0
        for _ in range(250):
            q = fresh_state()
            u = rng.choice(users)

            def sequence():
                out = []
                for _ in range(rng.randint(1, 2)):
                    out.append((rng.choice(users), rng.choice(command_makers)()))
                return out

            s1, s2 = sequence(), sequence()
            if (len(ifc.expand_commands(s1)) > 4
                    or len(ifc.expand_commands(s2)) > 4):
                continue
            conc = ifc.check_concurrent_ni(s1, s2, u, q, chain)
            if conc.ni:
                ni_pairs += 1
                if not (ifc.check_sequential_ni(s1, u, q, chain).ni
                        and ifc.check_sequential_ni(s2, u, q, chain).ni):
                    violations += 1
        ok = violations == 0 and ni_pairs > 20
        report(5, ok, f"{violations} violations over 1000 states; concurrent "
                      f"NI implied sequential NI on {ni_pairs} pairs")


class TestCriterion6:
    def test_pipeline_self_consistency(self):
        corpus = load_corpus()
        assert len(corpus) == 10
        bounds = explorer.ExploreBounds(max_steps=60)
        emitted = 0
        certified = 0
        inconsistencies = []
        for name, program in sorted(corpus.items()):
            pairs = dl.dl_certify(program).suggested_pairs
            syn = dl.synthesize_leaky_assertions(program, pairs, bounds=bounds)
            for s in syn.assertions:
                emitted += 1
                verdict = asrt.is_leaky_assertion(
                    s.assertion, s.location, program, bounds=bounds)
                if verdict.verdict != "leaky":
                    inconsistencies.append(
                        f"{name}: synthesized assertion not leaky ({verdict.verdict})")
            if not syn.assertions:
                continue
            annotated = trivially_annotate(
                program, leaky={s.location: s.assertion for s in syn.assertions})
            proof = proofs.check_proof(annotated, snapshot_bound=64)
            if proof.overall != "proven":
                continue
            certified += 1
            scan = explorer.knowledge_partition(program, {}, None, bounds)
            if scan.verdict != "leak-found":
                inconsistencies.append(
                    f"{name}: certified by the proof route but leakscan "
                    f"reports {scan.verdict}")
        ok = not inconsistencies and emitted >= 4 and certified >= 4
        report(6, ok, f"{emitted} synthesized assertions all leaky; "
                      f"{certified} certified programs all confirmed by "
                      f"leakscan; inconsistencies: {inconsistencies or 'none'}")


class TestCriterion7:
    def test_determinism_and_bounds_soundness(self):
        # A truncated exploration must never report "no leak".
        loopy = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { while true do { print('x'); }; }\n"
            "thread B { print('y'); }")
        sound = True
        for steps in (2, 5, 9):
            result = explorer.knowledge_partition(
                loopy, {}, None, explorer.ExploreBounds(max_steps=steps))
            sound = sound and not result.complete
            sound = sound and result.verdict != "no-leak"

        semaphore_pair = load_program("semaphore_pair.cwl")
        bounds = explorer.ExploreBounds(max_steps=40)
        first = json.dumps(
            explorer.knowledge_partition(semaphore_pair, {}, None, bounds).to_json(),
            sort_keys=True)
        second = json.dumps(
            explorer.knowledge_partition(semaphore_pair, {}, None, bounds).to_json(),
            sort_keys=True)
        budget = explorer.ExploreBounds(max_steps=40, max_configs=30)
        cut = [json.dumps(explorer.knowledge_partition(
                   semaphore_pair, {}, None, budget).to_json(), sort_keys=True)
               for _ in range(2)]
        identical = first == second and cut[0] == cut[1]
        report(7, sound and identical,
               "truncated scans never claim no-leak; repeated runs, also "
               "under a configuration budget, are byte-identical")
