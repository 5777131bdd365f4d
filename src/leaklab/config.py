"""Key-value configuration: cost model and comparison tolerance.

Format, one entry per line (``#`` comments)::

    unit_cost = 1
    tolerance = 0
    cost.l3 = 2        # all threads' l3
    cost.T2.l3 = 47    # one thread's l3

Qualified overrides win over bare ones.  An override may be zero, as
``delay(0)`` may, but not negative: the clock never runs backwards.  An
override must name a statement of the program it is applied to: a bare
``cost.lN`` some thread's ``lN``, a qualified one that thread's ``lN``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from . import lang, semantics
from .errors import LeakLabError
from .lang import field, record


@record
class ToolConfig:
    unit_cost: int = 1
    tolerance: int = 0
    overrides: dict[str, int] = field(default_factory=dict)  # "cost.l3", "cost.T2.l3"

    def cost_model(self, program: lang.Program) -> semantics.CostModel:
        """The overrides by location; one that names no statement of
        ``program`` is an error."""
        overrides: dict[lang.LocationId, int] = {}
        unmatched = set(self.overrides)
        for thread in program.threads:
            for s in lang.iter_statements(thread.body):
                # the qualified key comes last, so it wins
                for key in (f"cost.l{s.label.index}", f"cost.{thread.name}.l{s.label.index}"):
                    if key in self.overrides:
                        overrides[s.label] = self.overrides[key]
                        unmatched.discard(key)
        if unmatched:
            raise LeakLabError(f"cost override(s) {sorted(unmatched)} "
                               "name no statement of the program")
        return semantics.CostModel(self.unit_cost, overrides)


def parse_config(text: str) -> ToolConfig:
    config = ToolConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LeakLabError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            number = int(value)
        except ValueError:
            raise LeakLabError(f"config line {lineno}: {value!r} is not an integer")
        if key == "unit_cost":
            if number <= 0:
                raise LeakLabError("unit_cost must be positive")
            config.unit_cost = number
        elif key == "tolerance":
            if number < 0:
                raise LeakLabError("tolerance must be non-negative")
            config.tolerance = number
        elif key.startswith("cost."):
            if number < 0:
                raise LeakLabError(f"config line {lineno}: cost override {key!r} "
                                   "must be non-negative")
            *thread, label = key.split(".")[1:]
            if len(thread) > 1 or not _is_label(label):
                raise LeakLabError(f"config line {lineno}: bad cost key {key!r}")
            config.overrides[".".join(["cost", *thread, f"l{int(label[1:])}"])] = number
        else:
            raise LeakLabError(f"config line {lineno}: unknown key {key!r}")
    return config


def _is_label(text: str) -> bool:
    return len(text) > 1 and text[0] == "l" and text[1:].isdigit()


def load_config(path: Optional[str | Path]) -> ToolConfig:
    if path is None:
        return ToolConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))
