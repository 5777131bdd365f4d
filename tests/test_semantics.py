from __future__ import annotations

import random

import pytest

from leaklab import lang, semantics
from leaklab.errors import BudgetExceeded, DeadlockError, DomainError, LeakLabError

from schedule_oracle import run_deterministic


def expr(text: str) -> lang.Expr:
    return lang.parse_expr(lang.TokenStream(lang.tokenize(text)))


def evaluate(e: lang.Expr, store: dict) -> semantics.Value:
    return semantics.compile_expr(e)(store)


class TestEvalExpr:
    def test_arithmetic(self):
        assert evaluate(expr("v + 2"), {"v": 1}) == 3

    def test_semaphore_guard(self):
        assert evaluate(expr("sem > 0"), {"sem": 1}) is True
        assert evaluate(expr("sem > 0"), {"sem": 0}) is False

    def test_equality_conjunction(self):
        assert evaluate(expr("h = 0 and true"), {"h": 0}) is True

    def test_int_guard_means_nonzero(self):
        assert lang.as_bool(evaluate(expr("h"), {"h": 1})) is True
        assert lang.as_bool(evaluate(expr("h"), {"h": 0})) is False

    def test_unbound_variable(self):
        with pytest.raises(LeakLabError):
            evaluate(expr("q"), {})


FULL_T1 = """
var h : int[0..1] label high = secret;
var sem : int[0..1] label low = 1;
var v : int[0..4] label low = 0;
thread T1 {
  await sem > 0 then {
    sem = sem - 1;
    print('a');
    v = v + 1;
    print('b');
    sem = sem + 1;
  };
}
thread T2 {
  print('c');
  if h then {
    await sem > 0 then { sem = sem - 1; v = v + 2; sem = sem + 1; };
  } else { skip; };
  print('d');
}
"""


class TestEnabled:
    def test_holder_blocks_other_region(self, semaphore_pair):
        # T1 past its acquire (sem = 0), T2 sitting at its region with h = 1:
        # only T1 may move.
        config = semantics.initial_configuration(
            semaphore_pair, {"h": 1, "sem": 1, "v": 0})
        config = semantics.step(semaphore_pair, config, semantics.StepChoice(0))  # acquire
        t2 = semaphore_pair.thread_index("T2")
        config = semantics.step(semaphore_pair, config, semantics.StepChoice(t2))  # print c
        config = semantics.step(semaphore_pair, config, semantics.StepChoice(t2))  # if
        assert config.store_dict()["sem"] == 0
        assert semantics.enabled(semaphore_pair, config) == {semantics.StepChoice(0)}

    def test_all_done_is_empty(self):
        p = lang.parse_program("var x : int[0..1] label low = 0;\nthread A { skip; }")
        c = semantics.initial_configuration(p, {"x": 0})
        c = semantics.step(p, c, semantics.StepChoice(0))
        assert c.all_done()
        assert semantics.enabled(p, c) == frozenset()

    def test_delay_is_enabled(self):
        p = lang.parse_program("var x : int[0..1] label low = 0;\nthread A { delay(50); }")
        c = semantics.initial_configuration(p, {"x": 0})
        assert semantics.enabled(p, c) == {semantics.StepChoice(0)}


class TestStep:
    def test_full_region_fires_atomically(self):
        p = lang.parse_program(FULL_T1)
        c = semantics.initial_configuration(p, {"h": 0, "sem": 1, "v": 0})
        c2 = semantics.step(p, c, semantics.StepChoice(0))
        assert [e.payload for e in c2.trace] == ["a", "b"]
        store = c2.store_dict()
        assert store["sem"] == 1 and store["v"] == 1
        assert c2.done(0)

    def test_skip_costs_one_unit(self):
        p = lang.parse_program("var x : int[0..1] label low = 0;\nthread A { skip; }")
        c = semantics.initial_configuration(p, {"x": 0})
        c2 = semantics.step(p, c, semantics.StepChoice(0))
        assert c2.clock == 1
        assert c2.store == c.store

    def test_delay_advances_clock_by_value(self):
        p = lang.parse_program("var x : int[0..1] label low = 0;\nthread A { delay(50); }")
        c = semantics.initial_configuration(p, {"x": 0})
        assert semantics.step(p, c, semantics.StepChoice(0)).clock == 50

    def test_negative_delay_is_runtime_error(self):
        p = lang.parse_program(
            "var x : int[0..3] label low = 2;\nthread A { delay(1 - x); }")
        c = semantics.initial_configuration(p, {"x": 2})
        with pytest.raises(DomainError, match="negative delay"):
            semantics.step(p, c, semantics.StepChoice(0))

    def test_domain_overflow_is_runtime_error(self):
        p = lang.parse_program("var x : int[0..3] label low = 3;\nthread A { x = x + 1; }")
        c = semantics.initial_configuration(p, {"x": 3})
        with pytest.raises(DomainError, match="outside its declared domain"):
            semantics.step(p, c, semantics.StepChoice(0))

    def test_region_cost_is_entry_plus_body(self, region_thread):
        # l2's region: entry 1 + three unit assignments = 4.
        c = semantics.initial_configuration(region_thread, {"h": 1, "sem": 1, "v": 0})
        c = semantics.step(region_thread, c, semantics.StepChoice(0))  # print c
        c = semantics.step(region_thread, c, semantics.StepChoice(0))  # if
        before = c.clock
        c = semantics.step(region_thread, c, semantics.StepChoice(0))  # region
        assert c.clock - before == 4

    def test_cost_override(self, region_thread):
        costs = semantics.CostModel(overrides={lang.LocationId(0, 3): 47})
        c = semantics.initial_configuration(region_thread, {"h": 1, "sem": 1, "v": 0})
        c = semantics.step(region_thread, c, semantics.StepChoice(0), costs)
        c = semantics.step(region_thread, c, semantics.StepChoice(0), costs)
        before = c.clock
        c = semantics.step(region_thread, c, semantics.StepChoice(0), costs)
        assert c.clock - before == 50


class TestStepCost:
    """The clock advance of one ``semantics.step`` is the cost of its action."""

    @staticmethod
    def cost(program, index, store, costs=semantics.CostModel()):
        stmt = program.statement_at(lang.LocationId(0, index))
        config = semantics.Configuration(
            ((stmt,),), tuple(sorted(store.items())), 0, (), ())
        return semantics.step(program, config, semantics.StepChoice(0), costs).clock

    def test_default_unit_costs(self, region_thread):
        assert self.cost(region_thread, 6, {"h": 0, "sem": 1, "v": 0}) == 1  # skip
        delay50 = lang.parse_program("thread A { delay(50); }")
        assert self.cost(delay50, 0, {}) == 50

    def test_region_cost_entry_plus_body(self, region_thread):
        assert self.cost(region_thread, 2, {"h": 1, "sem": 1, "v": 0}) == 4

    def test_override_applies(self, region_thread):
        costs = semantics.CostModel(overrides={lang.LocationId(0, 3): 47})
        assert self.cost(region_thread, 2, {"h": 1, "sem": 1, "v": 0}, costs) == 50

    def test_negative_delay_rejected(self):
        program = lang.parse_program("thread A { delay(0 - 1); }")
        with pytest.raises(DomainError):
            self.cost(program, 0, {})


class TestRunDeterministic:
    """The reference one-thread runner that ``leaklab run`` is compared with."""

    def test_two_prints(self):
        p = lang.parse_program(
            "var x : int[0..1] label low = 0;\nthread A { print('c'); print('d'); }")
        final = run_deterministic(p, {"x": 0})
        assert [(e.payload, e.timestamp) for e in final.trace] == [("c", 1), ("d", 2)]

    def test_thread2_alone_golden_timestamps(self, region_thread):
        final = run_deterministic(region_thread, {"h": 0, "sem": 1, "v": 0})
        assert [(e.payload, e.timestamp) for e in final.trace] == [("c", 1), ("d", 4)]

    def test_delay_then_print(self):
        p = lang.parse_program(
            "var x : int[0..9] label low = 7;\nthread A { delay(5); print('x'); }")
        final = run_deterministic(p, {"x": 7})
        assert [(e.payload, e.timestamp) for e in final.trace] == [("x", 6)]

    def test_requires_single_thread(self, semaphore_pair):
        with pytest.raises(LeakLabError, match="one thread"):
            run_deterministic(semaphore_pair, {"h": 0, "sem": 1, "v": 0})

    def test_blocked_await_reports_deadlock(self):
        p = lang.parse_program(
            "var x : int[0..1] label low = 0;\nthread A { await x > 0 then { skip; }; }")
        with pytest.raises(DeadlockError):
            run_deterministic(p, {"x": 0})

    def test_step_bound(self):
        p = lang.parse_program(
            "var x : int[0..1] label low = 0;\nthread A { while true do { skip; }; }")
        with pytest.raises(BudgetExceeded):
            run_deterministic(p, {"x": 0}, max_steps=50)


class TestInvariants:
    def test_clock_strictly_increases(self, semaphore_pair):
        rng = random.Random(7)
        for h in (0, 1):
            config = semantics.initial_configuration(semaphore_pair, {"h": h, "sem": 1, "v": 0})
            while True:
                choices = sorted(semantics.enabled(semaphore_pair, config))
                if not choices:
                    break
                nxt = semantics.step(semaphore_pair, config, rng.choice(choices))
                assert nxt.clock > config.clock
                config = nxt

    def test_atomicity_semaphore_never_seen_held(self):
        # With both regions indivisible no schedule exposes sem = 0.
        p = lang.parse_program(FULL_T1)
        for h in (0, 1):
            stack = [semantics.initial_configuration(p, {"h": h, "sem": 1, "v": 0})]
            seen = set()
            while stack:
                config = stack.pop()
                if config in seen:
                    continue
                seen.add(config)
                assert config.store_dict()["sem"] == 1
                for choice in semantics.enabled(p, config):
                    stack.append(semantics.step(p, config, choice))

    def test_determinism_modulo_schedule(self, semaphore_pair):
        rng = random.Random(3)
        schedule = []
        config = semantics.initial_configuration(semaphore_pair, {"h": 0, "sem": 1, "v": 0})
        while True:
            choices = sorted(semantics.enabled(semaphore_pair, config))
            if not choices:
                break
            pick = rng.choice(choices)
            schedule.append(pick)
            config = semantics.step(semaphore_pair, config, pick)
        replay = semantics.initial_configuration(semaphore_pair, {"h": 0, "sem": 1, "v": 0})
        for pick in schedule:
            replay = semantics.step(semaphore_pair, replay, pick)
        assert replay == config

    def test_trace_timestamps_bounded_by_clock(self, semaphore_pair):
        rng = random.Random(11)
        config = semantics.initial_configuration(semaphore_pair, {"h": 1, "sem": 1, "v": 0})
        while True:
            choices = sorted(semantics.enabled(semaphore_pair, config))
            if not choices:
                break
            config = semantics.step(semaphore_pair, config, rng.choice(choices))
            stamps = [e.timestamp for e in config.trace]
            assert all(t <= config.clock for t in stamps)
            assert stamps == sorted(stamps)

    def test_snapshots_record_arrivals_in_order(self, region_thread):
        final = run_deterministic(region_thread, {"h": 1, "sem": 1, "v": 0})
        snaps = final.snapshot_dict()
        assert snaps[lang.LocationId(0, 0)] == (0,)
        assert snaps[lang.LocationId(0, 7)] == (6,)
        assert snaps[lang.LocationId(0, 8)] == (7,)  # exit label
