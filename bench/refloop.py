"""A fixed pure-Python reference loop that measures how fast the host runs
interpreter code right now.

Every timed operation is divided by the mean time of the runs of this loop
made just before and just after it.  On a shared host the raw speed of the
interpreter swings by tens of percent, within a process and between
processes.  The ratio cancels most of that swing when the loop reacts to
the host as leaklab does, so the loop imitates an exploration step: a
depth-first walk over immutable configurations whose hash is computed in
Python, each successor built by copying a store dict, re-sorting it into a
tuple, rotating a residue tuple and extending a short trace, with a
visited set that grows to some 6,000 entries.  (A tight loop over a small
table sped up half again as much as the scans in the host's fast phases.)
The loop uses no leaklab code and runs with the cyclic collector paused,
so the program's heap cannot change its speed.
"""

from __future__ import annotations

import gc
import time

# About 20-30 ms per run on a 2-core x86 host with CPython 3.11.
DEPTH = 14
CHECKSUM = 5_956


class _Config:
    __slots__ = ("residues", "store", "clock", "trace")

    def __init__(self, residues: tuple, store: tuple, clock: int, trace: tuple) -> None:
        self.residues = residues
        self.store = store
        self.clock = clock
        self.trace = trace

    def _key(self) -> tuple:
        return (self.residues, self.store, self.clock, self.trace)

    def __hash__(self) -> int:
        return hash(self._key())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Config) and self._key() == other._key()


def reference_loop(depth: int = DEPTH) -> tuple[float, int]:
    """Run the loop once; return (seconds, checksum)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: set = set()
        root = _Config(((0, 1, 2), (0, 1, 2)), (("a", 0), ("b", 1)), 0, ())
        stack = [(root, 0)]
        while stack:
            config, level = stack.pop()
            if config in seen:
                continue
            seen.add(config)
            if level >= depth:
                continue
            for thread in (0, 1):
                store = dict(config.store)
                store["a"] = (store["a"] + thread + 1) % 5
                residues = list(config.residues)
                residues[thread] = residues[thread][1:] + residues[thread][:1]
                trace = config.trace
                if (level + thread) % 4 == 0:
                    trace = trace + ((thread, config.clock),)
                stack.append((_Config(tuple(residues), tuple(sorted(store.items())),
                                      config.clock + 1 + thread, trace[-3:]), level + 1))
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return elapsed, len(seen)
