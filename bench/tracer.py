"""Per-layer tracing by wrapping leaklab's public functions from outside.

Coarse calls (a scan, a proof, one VC discharge, a synthesis) become spans
with name, start, end and parent; hot calls (``semantics.step``,
``semantics.enabled``, ``assertions.compile_assertion``,
``assertions.eval_assertion``) only bump a counter and a summed time, which
keeps the wrapper's cost small beside the call.  Smaller helpers that run
inside a step (expression evaluation, label lookups) are left unwrapped:
a wrapper there would cost more than the call it measures.  Everything is
kept in memory and exported at the end of the run.

The wrappers replace module attributes, which is where leaklab's own
modules look their callees up (``semantics.step(...)``, ``explore(...)``),
so they see every call made inside the program, not only the benchmark's.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

SPANS = {
    "lang": ("parse_program",),
    "explorer": ("knowledge_partition", "explore", "duration_stats"),
    "assertions": ("annotate_program", "is_leaky_assertion", "states_at_location"),
    "proofs": ("check_proof", "gen_sequential_vcs", "gen_interference_vcs",
               "gen_leaky_vcs", "discharge_vc", "isolated_path_duration",
               "emit_smtlib"),
    "dl": ("dl_certify", "synthesize_leaky_assertions"),
    "ifc": ("check_sequential_ni", "check_concurrent_ni"),
}
COUNTERS = {
    "semantics": ("step", "enabled"),
    "assertions": ("compile_assertion", "eval_assertion"),
}


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)    # inclusive seconds
        self.self_time: defaultdict = defaultdict(float)
        self.max_time: defaultdict = defaultdict(float)
        self.states_checked = 0    # DischargeResult.checked, summed
        self.distinct_states = 0   # distinct step results, summed over ops
        self.active = False
        self._stack: list[list] = []   # [span id, name, start, child seconds]
        self._op_states: set = set()
        self._clock_in_state = True
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self, lk) -> None:
        for module_name, names in SPANS.items():
            for name in names:
                self._patch(getattr(lk, module_name), module_name, name, self._span)
        for module_name, names in COUNTERS.items():
            for name in names:
                self._patch(getattr(lk, module_name), module_name, name, self._counter)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _patch(self, module, module_name: str, name: str, make) -> None:
        original = getattr(module, name)
        setattr(module, name, make(f"{module_name}.{name}", original))
        self._patched.append((module, name, original))

    # -- operations -------------------------------------------------------
    def begin_op(self, name: str, clock_in_state: bool = True) -> None:
        self._clock_in_state = clock_in_state
        self._op_states = set()
        self._push(f"op:{name}")
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._pop()
        self.distinct_states += len(self._op_states)
        self._op_states = set()

    def _push(self, name: str) -> list:
        frame = [len(self.spans), name, time.perf_counter(), 0.0]
        self.spans.append({"id": frame[0], "name": name,
                           "parent": self._stack[-1][0] if self._stack else None})
        self._stack.append(frame)
        return frame

    def _pop(self) -> float:
        span_id, name, start, child = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        self.spans[span_id].update(start=start - self.origin, end=end - self.origin)
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.max_time[name] = max(self.max_time[name], duration)
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    # -- wrappers ---------------------------------------------------------
    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop()
            if name == "proofs.discharge_vc":
                self.states_checked += result.checked
            return result
        return wrapper

    def _counter(self, name: str, fn):
        is_step = name == "semantics.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            duration = time.perf_counter() - start
            self.calls[name] += 1
            self.total[name] += duration
            if self._stack:
                self._stack[-1][3] += duration
            if is_step:
                # Statements are unique AST objects, so identity keys a
                # residue exactly as its value would, without rehashing it.
                residues = tuple(tuple(map(id, r)) for r in result.residues)
                key = ((residues, result.store, result.clock)
                       if self._clock_in_state else (residues, result.store))
                self._op_states.add(key)
            return result
        return wrapper

    # -- export -----------------------------------------------------------
    def export(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "max": dict(self.max_time),
                "states_checked": self.states_checked,
                "distinct_states": self.distinct_states,
                "spans": self.spans}

    def merge(self, data: dict, tag: str) -> None:
        """Fold in the export of a traced child process."""
        self.calls.update(data["calls"])
        for name, value in data["total"].items():
            self.total[name] += value
        for name, value in data["self"].items():
            self.self_time[name] += value
        for name, value in data["max"].items():
            self.max_time[name] = max(self.max_time[name], value)
        self.states_checked += data["states_checked"]
        self.distinct_states += data["distinct_states"]
        parent = self._stack[-1][0] if self._stack else None
        base = len(self.spans)
        for span in data["spans"]:
            span = dict(span, id=span["id"] + base, process=tag)
            span["parent"] = parent if span["parent"] is None else span["parent"] + base
            self.spans.append(span)


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures: counts and times per round, means per call."""
    def per_round_ms(*names: str, table=None) -> float:
        table = tr.total if table is None else table
        return 1000.0 * sum(table.get(n, 0.0) for n in names) / rounds

    def per_round(count: int):
        return count // rounds if count % rounds == 0 else count / rounds

    def mean(name: str, scale: float) -> float:
        calls = tr.calls.get(name, 0)
        return scale * tr.total.get(name, 0.0) / calls if calls else 0.0

    steps = tr.calls.get("semantics.step", 0)
    discharge_s = tr.total.get("proofs.discharge_vc", 0.0)
    return {
        "lang.parse_ms": mean("lang.parse_program", 1000.0),
        "semantics.step_calls": per_round(steps),
        "semantics.step_us": mean("semantics.step", 1e6),
        "semantics.enabled_calls": per_round(tr.calls.get("semantics.enabled", 0)),
        "explorer.explore_self_ms": per_round_ms("explorer.explore", table=tr.self_time),
        "explorer.steps_per_state": steps / tr.distinct_states if tr.distinct_states else 0.0,
        "explorer.knowledge_self_ms": per_round_ms("explorer.knowledge_partition",
                                                   table=tr.self_time),
        "explorer.duration_stats_ms": per_round_ms("explorer.duration_stats"),
        "assertions.compile_calls": per_round(tr.calls.get("assertions.compile_assertion", 0)),
        "assertions.leakiness_ms": per_round_ms("assertions.is_leaky_assertion"),
        "proofs.vcgen_ms": per_round_ms("proofs.gen_sequential_vcs",
                                        "proofs.gen_interference_vcs",
                                        "proofs.gen_leaky_vcs"),
        "proofs.discharge_calls": per_round(tr.calls.get("proofs.discharge_vc", 0)),
        "proofs.states_enumerated": per_round(tr.states_checked),
        "proofs.states_per_s": tr.states_checked / discharge_s if discharge_s else 0.0,
        "proofs.discharge_ms_max": 1000.0 * tr.max_time.get("proofs.discharge_vc", 0.0),
        "proofs.isolated_path_ms": per_round_ms("proofs.isolated_path_duration"),
        "dl.certify_ms": per_round_ms("dl.dl_certify"),
        "dl.synthesize_self_ms": per_round_ms("dl.synthesize_leaky_assertions",
                                              table=tr.self_time),
        "ifc.check_ms": per_round_ms("ifc.check_sequential_ni", "ifc.check_concurrent_ni"),
    }
