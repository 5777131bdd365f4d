from __future__ import annotations

import gc

import pytest

from leaklab import explorer, lang, semantics
from leaklab.errors import DomainError, LeakLabError

from conftest import load_corpus, load_program
from test_explore_oracle import family_member


def letters_of(result: explorer.ExploreResult) -> set[str]:
    return {"".join(p for p, _ in obs.events) for obs, _ in result.observations}


BOUNDS = explorer.ExploreBounds(max_steps=40)
BLIND = explorer.ExploreBounds(max_steps=40, timing_blind=True)


class TestExplore:
    def test_semaphore_pair_h0_letter_orders(self, semaphore_pair):
        letters = letters_of(explorer.explore(semaphore_pair, {}, {"h": 0}, BLIND))
        assert {"cdab", "acdb", "abcd", "cabd"} <= letters

    def test_semaphore_pair_h1_acdb_absent(self, semaphore_pair):
        assert "acdb" not in letters_of(explorer.explore(semaphore_pair, {}, {"h": 1}, BLIND))

    def test_single_thread_single_observation(self):
        p = lang.parse_program(
            "var x : int[0..1] label low = 0;\nthread A { print('x'); }")
        result = explorer.explore(p, {}, {}, BOUNDS)
        assert len(result.observations) == 1
        ((obs, terminated),) = result.observations
        assert terminated and obs.events == (("x", 1),)

    def test_secret_outside_domain_rejected(self, semaphore_pair):
        with pytest.raises(LeakLabError, match="outside domain"):
            explorer.explore(semaphore_pair, {}, {"h": 7}, BOUNDS)

    def test_truncation_flagged(self):
        p = lang.parse_program(
            "var x : int[0..1] label low = 0;\nthread A { while true do { print('x'); }; }")
        result = explorer.explore(p, {}, {}, explorer.ExploreBounds(max_steps=10))
        assert not result.complete
        assert result.truncated > 0

    def test_deadlock_counted(self):
        p = lang.parse_program(
            "var x : int[0..1] label low = 0;\n"
            "thread A { await x > 0 then { skip; }; }")
        result = explorer.explore(p, {}, {}, BOUNDS)
        assert result.deadlocked == 1
        assert result.complete  # fully explored, just not terminating

    def test_repeated_runs_identical(self, semaphore_pair):
        # Also under a configuration budget, where the order of the walk
        # decides which states it cuts short.
        for bounds in (BOUNDS, explorer.ExploreBounds(max_steps=40, max_configs=30)):
            first = explorer.explore(semaphore_pair, {}, {"h": 0}, bounds)
            second = explorer.explore(semaphore_pair, {}, {"h": 0}, bounds)
            assert first == second

    def test_config_budget_cuts_runs_short(self, semaphore_pair):
        bounds = explorer.ExploreBounds(max_steps=40, max_configs=5)
        result = explorer.explore(semaphore_pair, {}, {"h": 0}, bounds)
        assert not result.complete and result.prefixes
        assert {obs for obs, _ in result.observations} == result.prefixes
        report = explorer.knowledge_partition(semaphore_pair, {}, None, bounds)
        assert report.verdict == "inconclusive"

    def test_steps_each_state_once(self, monkeypatch):
        # Two threads that each skip twice reach the states of a 3x3 grid
        # by six schedules.  The grid has 12 edges, but a thread's step
        # reads only its head and the store, so each of the 4 distinct
        # (thread, head, store) triples over them is stepped once.  The
        # program keeps the moves, so a second search steps nothing, and
        # still reports the 4 moves it used.
        p = lang.parse_program("var x : int[0..1] label low = 0;\n"
                               "thread A { skip; skip; }\nthread B { skip; skip; }")
        calls = []
        move = semantics.move
        monkeypatch.setattr(semantics, "move",
                            lambda *args: calls.append(args) or move(*args))
        result = explorer.explore(p, {}, {}, BLIND)
        triples = {(thread, head, store) for _, thread, head, store, _ in calls}
        assert len(calls) == len(triples) == 4
        assert (result.stats["edges"], result.stats["steps"]) == (12, 4)
        assert explorer.explore(p, {}, {}, BLIND) == result
        assert len(calls) == 4

    def test_observer_sees_thread_ids_on_request(self, semaphore_pair):
        bounds = explorer.ExploreBounds(max_steps=40, timing_blind=True,
                                        observe_thread_ids=True)
        result = explorer.explore(semaphore_pair, {}, {"h": 0}, bounds)
        payloads = {p for obs, _ in result.observations for p, _ in obs.events}
        assert payloads == {"0:a", "0:b", "1:c", "1:d"}

    def test_empty_thread_observes_nothing(self):
        p = lang.parse_program("var x : int[0..1] label low = 0;\nthread A { }")
        result = explorer.explore(p, {}, {}, BOUNDS)
        assert result.observations == frozenset({(explorer.Observation(()), True)})


class TestKnowledgePartition:
    def test_semaphore_pair_acdb_knowledge_is_h0(self, semaphore_pair):
        report = explorer.knowledge_partition(semaphore_pair, {}, None, BLIND)
        acdb = [o for o in report.knowledge if o.letters == "a c d b"]
        assert len(acdb) == 1
        assert report.knowledge[acdb[0]] == frozenset({(("h", 0),)})
        assert report.leaky[acdb[0]]
        assert report.verdict == "leak-found"

    def test_unused_secret_no_leak(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\nthread A { print('x'); }")
        report = explorer.knowledge_partition(p, {}, None, BOUNDS)
        assert report.verdict == "no-leak"
        for k in report.knowledge.values():
            assert k == frozenset({(("h", 0),), (("h", 1),)})

    def test_coverage_when_complete(self, semaphore_pair):
        report = explorer.knowledge_partition(semaphore_pair, {}, None, BLIND)
        assert report.complete
        union = frozenset().union(*report.knowledge.values())
        assert union == frozenset(report.secret_domain)

    def test_no_leak_means_equal_observation_sets(self):
        corpus = load_corpus()
        p = corpus["06_unused_secret.cwl"]
        report = explorer.knowledge_partition(p, {}, None, BOUNDS)
        assert report.verdict == "no-leak"
        sets = {}
        for valuation in report.secret_domain:
            sets[valuation] = frozenset(
                o for o, ks in report.knowledge.items() if valuation in ks)
        assert len(set(sets.values())) == 1

    def test_timing_blind_monotone(self):
        # Any leak visible without timestamps stays visible with them.
        for name, program in load_corpus().items():
            blind = explorer.knowledge_partition(
                program, {}, None,
                explorer.ExploreBounds(max_steps=60, timing_blind=True))
            if blind.verdict != "leak-found":
                continue
            aware = explorer.knowledge_partition(
                program, {}, None, explorer.ExploreBounds(max_steps=60))
            assert aware.verdict == "leak-found", name

    def test_reports_are_deterministic(self, semaphore_pair):
        a = explorer.knowledge_partition(semaphore_pair, {}, None, BLIND).to_json()
        b = explorer.knowledge_partition(semaphore_pair, {}, None, BLIND).to_json()
        assert a == b

    def test_incomplete_never_reports_no_leak(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { while true do { print('x'); }; }")
        report = explorer.knowledge_partition(
            p, {}, None, explorer.ExploreBounds(max_steps=8))
        assert not report.complete
        assert report.verdict in ("leak-found", "inconclusive")
        assert report.verdict != "no-leak"

    def test_truncated_observation_is_a_prefix(self):
        # With max_steps=3, h=0 prints 'x' while h=1 is cut before its print.
        # That cut-short run could still print 'x', so it is no leak witness.
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { if h then { skip; skip; } else { skip; }; print('x'); }")
        for blind in (True, False):
            report = explorer.knowledge_partition(
                p, {}, None, explorer.ExploreBounds(max_steps=3, timing_blind=blind))
            assert report.verdict == "inconclusive" and not report.complete
            assert not any(report.leaky.values())
        untruncated = explorer.knowledge_partition(p, {}, None, BLIND)
        assert untruncated.verdict == "no-leak"

    def test_semaphore_pair_regression_across_bounds(self, semaphore_pair):
        for steps in (12, 20, 40):
            bounds = explorer.ExploreBounds(max_steps=steps, timing_blind=True)
            h0 = letters_of(explorer.explore(semaphore_pair, {}, {"h": 0}, bounds))
            h1 = letters_of(explorer.explore(semaphore_pair, {}, {"h": 1}, bounds))
            assert "acdb" in h0 and "acdb" not in h1


SCANNED = [*load_corpus().items(),
           *((f"family-{n}-{k}", lang.parse_program(family_member(n, k)))
             for n in (1, 2, 3) for k in (0, 1))]


class TestOneMergePerClass:
    """A scan merges each class's runs once, and builds one Observation per
    distinct observation, whatever the number of classes that show it."""

    @pytest.mark.parametrize("bounds", (explorer.ExploreBounds(max_steps=1_000), BLIND),
                             ids=("timed", "blind"))
    @pytest.mark.parametrize("name,program", SCANNED, ids=[name for name, _ in SCANNED])
    def test_one_merge_per_class_and_one_observation_each(self, name, program, bounds,
                                                          monkeypatch):
        merged, built = [], []
        merge, observation = explorer.merge, explorer.Observation
        monkeypatch.setattr(explorer, "merge", lambda found, b: (
            merged.append(found) or merge(found, b)))
        monkeypatch.setattr(explorer, "Observation", lambda events: (
            built.append(events) or observation(events)))
        report = explorer.knowledge_partition(program, {}, None, bounds)
        classes = explorer.secret_classes(program, {}, report.secret_domain)
        assert len(merged) == len({id(found) for found in merged}) == len(
            dict(classes.values()))
        assert len(built) == len(set(built)) == len(report.knowledge) > 0
        assert report.knowledge.keys() == report.leaky.keys()


class TestReport:
    @pytest.mark.parametrize("bounds", (BOUNDS, BLIND, explorer.ExploreBounds(
        max_steps=40, observe_thread_ids=True)), ids=("timed", "blind", "threads"))
    def test_rows_follow_the_events_and_share_their_parts(self, bounds):
        for name, program in load_corpus().items():
            report = explorer.knowledge_partition(program, {}, None, bounds)
            rows = report.to_json()["observations"]
            # Each event ordered by payload, then timestamp, a missing one first.
            order = sorted(report.knowledge, key=lambda obs: tuple(
                (p, -1 if t is None else t) for p, t in obs.events))
            assert [row["letters"] for row in rows] == [obs.letters for obs in order], name
            assert [row["knowledge"] for row in rows] == [
                [dict(v) for v in sorted(report.knowledge[obs])] for obs in order]
            events = [e for row in rows for e in row["events"]]
            assert len({id(e) for e in events}) == len(
                {tuple(e.values()) for e in events}), name
            known = [row["knowledge"] for row in rows]
            assert len({id(k) for k in known}) == len(
                set(map(frozenset, report.knowledge.values()))), name


class TestCollectorPause:
    """A scan and its report hold no cycles, so the cyclic collector is
    paused while they are built and left as it was found."""

    @pytest.fixture(params=(True, False), ids=("enabled", "disabled"))
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_scan_and_report_leave_the_collector_as_found(self, semaphore_pair, collector,
                                                         monkeypatch):
        during = []  # the collector's state during each class's merge
        merge = explorer.merge
        monkeypatch.setattr(explorer, "merge",
                            lambda *a, **k: during.append(gc.isenabled()) or merge(*a, **k))
        report = explorer.knowledge_partition(semaphore_pair, {}, None, BOUNDS)
        assert gc.isenabled() is collector
        report.to_json()
        assert gc.isenabled() is collector
        assert during == [False, False]

    def test_a_scan_that_raises_leaves_the_collector_as_found(self, semaphore_pair,
                                                               collector):
        with pytest.raises(DomainError, match="outside domain"):
            explorer.knowledge_partition(semaphore_pair, {}, ((("h", 7),),), BOUNDS)
        assert gc.isenabled() is collector

    def test_a_report_that_raises_leaves_the_collector_as_found(self, collector):
        # Timestamps of two types cannot be ordered.
        report = explorer.KnowledgeReport(
            secret_domain=(), verdict="no-leak", complete=True, timing_blind=False,
            knowledge={explorer.Observation((("a", 1),)): frozenset(),
                       explorer.Observation((("a", "x"),)): frozenset()},
            leaky={})
        with pytest.raises(TypeError):
            report.to_json()
        assert gc.isenabled() is collector


class TestDurationStats:
    def test_thread2_alone_golden_durations(self, region_thread):
        stats = explorer.duration_stats(
            region_thread, lang.LocationId(0, 0), lang.LocationId(0, 7), None, BOUNDS)
        assert stats.durations[(("h", 0),)] == frozenset({3})
        assert stats.durations[(("h", 1),)] == frozenset({6})
        assert stats.complete and not stats.unreached

    def test_delay_variant_durations(self, region_thread):
        src = load_program("region_thread.cwl")
        text = lang.unparse(src).replace("skip;", "delay(50);")
        p = lang.parse_program(text)
        stats = explorer.duration_stats(
            p, lang.LocationId(0, 0), lang.LocationId(0, 7), None,
            explorer.ExploreBounds(max_steps=40))
        assert stats.durations[(("h", 0),)] == frozenset({52})
        assert stats.durations[(("h", 1),)] == frozenset({6})

    def test_symmetric_program_no_distinction(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { print('s'); skip; print('e'); }")
        stats = explorer.duration_stats(
            p, lang.LocationId(0, 0), lang.LocationId(0, 2), None, BOUNDS)
        assert stats.durations[(("h", 0),)] == stats.durations[(("h", 1),)]

    def test_unreached_location_reported(self):
        p = lang.parse_program(
            "var h : int[0..1] label high = secret;\n"
            "thread A { if h then { print('x'); } else { skip; }; print('e'); }")
        stats = explorer.duration_stats(
            p, lang.LocationId(0, 2), lang.LocationId(0, 4), None, BOUNDS)
        assert (("h", 1),) in stats.unreached  # h = 1 takes the then branch
        assert stats.durations[(("h", 0),)]

    def test_requires_same_thread_and_order(self, semaphore_pair):
        with pytest.raises(LeakLabError, match="same thread"):
            explorer.duration_stats(
                semaphore_pair, lang.LocationId(0, 0), lang.LocationId(1, 7), None, BOUNDS)
        with pytest.raises(LeakLabError, match="precede"):
            explorer.duration_stats(
                semaphore_pair, lang.LocationId(1, 7), lang.LocationId(1, 0), None, BOUNDS)


class TestBounds:
    def test_bounds_must_be_positive(self):
        with pytest.raises(LeakLabError):
            explorer.ExploreBounds(max_steps=0)
        with pytest.raises(LeakLabError):
            explorer.ExploreBounds(max_configs=-1)
