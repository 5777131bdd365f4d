"""The generated program family from the ROADMAP, with seeded surface detail.

Declarations: ``h:int[0..hi]`` secret, ``sem:int[0..1]=1``, ``v:int[0..20]=0``.
There are n threads.  Each prints k letters; then the secret thread runs
``if h then {await sem>0 then {sem=sem-1; v=v+1; sem=sem+1;};} else {skip;}``
and every other thread runs the same ``await`` unconditionally; then each
prints its own end token.

The seed chooses only what cannot change the amount of work: the letters
(all distinct), the end tokens, the thread names and which thread position
holds the secret branch.  Every choice gives a program isomorphic to every
other for the same (n, k, hi), so exploration visits the same number of
configurations and makes the same number of steps whatever the seed.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

REGION = "await sem > 0 then { sem = sem - 1; v = v + 1; sem = sem + 1; };"


@dataclass(frozen=True)
class Member:
    n: int
    k: int
    hi: int
    source: str
    letters: tuple[tuple[str, ...], ...]  # per thread, in print order, end token last
    secret_thread: int

    @property
    def name(self) -> str:
        return f"n{self.n}k{self.k}h{self.hi}"


def _tokens(rng: random.Random, count: int) -> list[str]:
    pool = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]
    return rng.sample(pool, count)


def generate(n: int, k: int, hi: int, rng: random.Random) -> Member:
    """One family member; ``rng`` supplies the seeded surface detail."""
    if n < 1 or k < 0 or hi < 1:
        raise ValueError("need n >= 1, k >= 0 and a secret domain of two or more values")
    tokens = _tokens(rng, n * (k + 1))
    names = rng.sample([f"T{c}" for c in string.ascii_uppercase], n)
    secret_thread = rng.randrange(n)
    letters = tuple(tuple(tokens[t * (k + 1):(t + 1) * (k + 1)]) for t in range(n))
    threads = []
    for t in range(n):
        body = [f"print('{x}');" for x in letters[t][:-1]]
        if t == secret_thread:
            body.append(f"if h then {{ {REGION} }} else {{ skip; }};")
        else:
            body.append(REGION)
        body.append(f"print('{letters[t][-1]}');")
        threads.append(f"thread {names[t]} {{\n  " + "\n  ".join(body) + "\n}")
    source = (f"var h : int[0..{hi}] label high = secret;\n"
              "var sem : int[0..1] label low = 1;\n"
              "var v : int[0..20] label low = 0;\n\n" + "\n\n".join(threads) + "\n")
    return Member(n, k, hi, source, letters, secret_thread)
