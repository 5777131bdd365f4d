"""Test-only reference: knowledge sets by one exploration per valuation.

This is ``explorer.knowledge_partition`` as it was before it explored one
valuation per class of valuations the program cannot tell apart.  It
explores every secret valuation on its own and applies the leak rule to
each, so its cost grows with the size of the secret domain.  It is slow
on purpose and kept only so that tests can compare the class rule
against it.  Its stats entries carry no ``explored_as``.
"""

from __future__ import annotations

from typing import Optional

from leaklab import explorer, lang, semantics
from leaklab.explorer import KnowledgeReport, Observation, SecretValuation


def knowledge_partition(program: lang.Program, init_public: semantics.Store,
                        secret_domain: Optional[tuple[SecretValuation, ...]],
                        bounds: explorer.ExploreBounds,
                        costs: semantics.CostModel = semantics.CostModel()
                        ) -> KnowledgeReport:
    if secret_domain is None:
        secret_domain = explorer.secret_domain_of(program)
    knowledge: dict[Observation, set[SecretValuation]] = {}
    full: dict[SecretValuation, set[Observation]] = {}
    cut: dict[SecretValuation, frozenset[tuple]] = {}
    stats: list[dict] = []
    complete = True
    for valuation in secret_domain:
        result = explorer.explore(program, init_public, dict(valuation), bounds, costs)
        stats.append({"secret": dict(valuation), **result.stats})
        complete = complete and result.complete
        for obs, _terminated in result.observations:
            knowledge.setdefault(obs, set()).add(valuation)
        full[valuation] = {obs for obs, terminated in result.observations
                           if terminated or obs not in result.prefixes}
        cut[valuation] = frozenset(p.events for p in result.prefixes)
    if not secret_domain:
        result = explorer.explore(program, init_public, {}, bounds, costs)
        stats.append({"secret": {}, **result.stats})
        complete = complete and result.complete
        for obs, _terminated in result.observations:
            knowledge.setdefault(obs, set())

    def produces(valuation: SecretValuation, obs: Observation) -> bool:
        if obs in full[valuation]:
            return True
        prefixes = cut[valuation]
        return bool(prefixes) and any(
            obs.events[:n] in prefixes for n in range(len(obs.events) + 1))

    leaky = {obs: any(obs in full[v] for v in vals)
             and not all(produces(v, obs) for v in secret_domain)
             for obs, vals in knowledge.items()}
    if any(leaky.values()):
        verdict = "leak-found"
    elif complete:
        verdict = "no-leak"
    else:
        verdict = "inconclusive"
    return KnowledgeReport(
        secret_domain=tuple(secret_domain),
        knowledge={o: frozenset(v) for o, v in knowledge.items()},
        leaky=leaky,
        verdict=verdict,
        complete=complete,
        timing_blind=bounds.timing_blind,
        stats=stats,
    )
