"""Key-value configuration: cost model and comparison tolerance.

Format, one entry per line (``#`` comments)::

    unit_cost = 1
    tolerance = 0
    cost.l3 = 2        # all threads' l3
    cost.T2.l3 = 47    # one thread's l3

Qualified overrides win over bare ones.  An override may be zero, as
``delay(0)`` may, but not negative: the clock never runs backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import lang, semantics
from .errors import LeakLabError


@dataclass
class ToolConfig:
    unit_cost: int = 1
    tolerance: int = 0
    bare_overrides: dict[int, int] = field(default_factory=dict)
    qualified_overrides: dict[tuple[str, int], int] = field(default_factory=dict)

    def cost_model(self, program: lang.Program) -> semantics.CostModel:
        overrides: dict[lang.LocationId, int] = {}
        for t_idx, thread in enumerate(program.threads):
            labels = program.labels_of_thread(t_idx)
            for loc in labels:
                if loc.index in self.bare_overrides:
                    overrides[loc] = self.bare_overrides[loc.index]
                if (thread.name, loc.index) in self.qualified_overrides:
                    overrides[loc] = self.qualified_overrides[(thread.name, loc.index)]
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
            parts = key.split(".")
            if len(parts) == 2 and _is_label(parts[1]):
                config.bare_overrides[int(parts[1][1:])] = number
            elif len(parts) == 3 and _is_label(parts[2]):
                config.qualified_overrides[(parts[1], int(parts[2][1:]))] = number
            else:
                raise LeakLabError(f"config line {lineno}: bad cost key {key!r}")
        else:
            raise LeakLabError(f"config line {lineno}: unknown key {key!r}")
    return config


def _is_label(text: str) -> bool:
    return len(text) > 1 and text[0] == "l" and text[1:].isdigit()


def load_config(path: Optional[str | Path]) -> ToolConfig:
    if path is None:
        return ToolConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))
