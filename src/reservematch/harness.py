"""Brute-force oracle over all eligibility-compliant matchings, plus
algorithm-level perturbation tests for the incentive and consistency
properties.

The oracle enumerates the full matching space with capacity pruning and is
the independent second opinion for every solver; perturbation tests rerun a
rule on modified instances (hidden categories, priority promotions,
alternate baselines) and record counterexamples.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .bipartite import build_graph
from .model import (
    AnySystem,
    InstanceError,
    Matching,
    PrecedenceOrder,
    PriorityRanking,
    ReserveSystem,
    SequentialReserveSystem,
    as_sequential,
    base_of,
)


# the largest space the oracle enumerates, as ``MatchingSpace`` estimates it
ORACLE_BOUND = 10_000_000


class MatchingSpace:
    """Iterator over every capacity- and eligibility-respecting matching.

    Only agents eligible somewhere are enumerated; every other agent stays
    unmatched. Each enumerated agent at least doubles the estimate, so the
    recursion is at most log2(``ORACLE_BOUND``) deep, however many agents
    the instance has."""

    def __init__(self, system: AnySystem):
        self.base = base_of(system)
        agent_adj = build_graph(self.base).agent_adj
        estimate = 1
        for eligible in agent_adj:
            estimate *= 1 + len(eligible)
            if estimate > ORACLE_BOUND:
                raise InstanceError(f"estimated space exceeds bound {ORACLE_BOUND}")
        self._options = [
            (agent, (None,) + eligible) for agent, eligible in enumerate(agent_adj) if eligible
        ]

    def __iter__(self) -> Iterator[Matching]:
        capacities = self.base.capacities
        loads = [0] * self.base.num_categories
        assignment: list[Optional[int]] = [None] * self.base.num_agents

        def rec(i: int) -> Iterator[Matching]:
            if i == len(self._options):
                yield Matching(tuple(assignment))
                return
            agent, options = self._options[i]
            for option in options:
                if option is not None:
                    if loads[option] == capacities[option]:
                        continue
                    loads[option] += 1
                assignment[agent] = option
                yield from rec(i + 1)
                if option is not None:
                    loads[option] -= 1
                assignment[agent] = None

        return rec(0)


@dataclass(frozen=True)
class OracleMaxima:
    m: int
    b: int
    max_cardinality_matchings: tuple[Matching, ...]
    four_axiom_matchings: tuple[Matching, ...]


def oracle_maxima(system: AnySystem) -> OracleMaxima:
    """Exact maxima by exhaustive enumeration, together with the maximum
    cardinality matchings and those among them satisfying all four
    fundamental axioms."""
    seq = as_sequential(system)
    base = seq.base
    space = list(MatchingSpace(seq))
    m = max((mu.matched_count() for mu in space), default=0)
    b = max((mu.beneficiary_count(seq.preferential) for mu in space), default=0)
    max_card = tuple(mu for mu in space if mu.matched_count() == m)
    from .axioms import check_nonwasteful, check_respect_priorities

    four = tuple(
        mu
        for mu in max_card
        if check_respect_priorities(base, mu).passed
        and check_nonwasteful(base, mu).passed
    )
    return OracleMaxima(m, b, max_card, four)


# ---------------------------------------------------------------------------
# Instance perturbations


def hide_categories(
    system: AnySystem, agent: int, hidden: Sequence[int]
) -> AnySystem:
    """Drop the agent below the cutoff in each hidden category (the agent is
    re-inserted as the first ineligible entry; sub-cutoff order is
    meaningless)."""
    base = base_of(system)
    priorities = list(base.priorities)
    for c in hidden:
        ranking = priorities[c]
        if not ranking.is_eligible(agent):
            raise ValueError(f"agent {agent} is not eligible for category {c}")
        order = [a for a in ranking.ordered_agents if a != agent]
        cutoff = ranking.eligible_cutoff - 1
        order.insert(cutoff, agent)
        priorities[c] = PriorityRanking(tuple(order), cutoff)
    return _with_priorities(system, tuple(priorities))


def promotions(system: AnySystem, agent: int) -> Iterator[AnySystem]:
    """Atomic priority improvements for one agent: adjacent swaps inside the
    eligible prefix, plus the unhide step (enter the prefix at its bottom,
    cutoff grows). Every weak improvement is a composition of these."""
    base = base_of(system)
    for c in range(base.num_categories):
        ranking = base.priorities[c]
        pos = ranking.position(agent)
        if pos < ranking.eligible_cutoff:
            if pos > 0:
                order = list(ranking.ordered_agents)
                order[pos - 1], order[pos] = order[pos], order[pos - 1]
                priorities = list(base.priorities)
                priorities[c] = PriorityRanking(tuple(order), ranking.eligible_cutoff)
                yield _with_priorities(system, tuple(priorities))
        else:
            order = [a for a in ranking.ordered_agents if a != agent]
            order.insert(ranking.eligible_cutoff, agent)
            priorities = list(base.priorities)
            priorities[c] = PriorityRanking(
                tuple(order), ranking.eligible_cutoff + 1
            )
            yield _with_priorities(system, tuple(priorities))


def _with_priorities(
    system: AnySystem, priorities: tuple[PriorityRanking, ...]
) -> AnySystem:
    base = base_of(system)
    new_base = ReserveSystem(
        base.num_agents, base.num_categories, base.capacities, priorities
    )
    if isinstance(system, SequentialReserveSystem):
        return SequentialReserveSystem(
            base=new_base,
            preferential=system.preferential,
            precedence=system.precedence,
            hybrid=system.hybrid,
        )
    return new_base


# ---------------------------------------------------------------------------
# Regression corpus


def corpus() -> dict[str, AnySystem]:
    """Named small instances used as golden fixtures and negative witnesses:
    baseline dependence for the reverse-rejecting rule, a cardinality gap for
    deferred acceptance, and policy-sensitive adjustment outcomes."""
    contested_pair = ReserveSystem(
        num_agents=3,
        num_categories=2,
        capacities=(1, 1),
        priorities=(
            PriorityRanking((1, 0, 2), 2),
            PriorityRanking((1, 2, 0), 2),
        ),
    )
    precedence_chain = SequentialReserveSystem(
        base=ReserveSystem(
            num_agents=3,
            num_categories=2,
            capacities=(1, 1),
            priorities=(
                PriorityRanking((2, 0, 1), 2),
                PriorityRanking((2, 1, 0), 2),
            ),
        ),
        preferential=frozenset(),
        precedence=PrecedenceOrder((0, 1)),
    )
    grouped_six = SequentialReserveSystem(
        base=ReserveSystem(
            num_agents=6,
            num_categories=3,
            capacities=(1, 1, 1),
            priorities=(
                PriorityRanking((1, 0, 2, 3, 4, 5), 3),
                PriorityRanking((1, 3, 5, 2, 4, 0), 6),
                PriorityRanking((4, 3, 5, 0, 1, 2), 3),
            ),
        ),
        preferential=frozenset({0, 2}),
        precedence=PrecedenceOrder((0, 1, 2)),
    )
    da_gap = ReserveSystem(
        num_agents=2,
        num_categories=2,
        capacities=(1, 1),
        priorities=(
            PriorityRanking((0, 1), 2),
            PriorityRanking((0, 1), 1),
        ),
    )
    return {
        "contested-pair": contested_pair,
        "precedence-chain": precedence_chain,
        "grouped-six": grouped_six,
        "da-gap": da_gap,
    }


# ---------------------------------------------------------------------------
# Property reports

Rule = Callable[[AnySystem], Matching]


@dataclass
class PerturbationReport:
    property_tag: str
    trials: int = 0
    counterexamples: list[dict] = field(default_factory=list)

    def to_raw(self) -> dict:
        return {
            "property": self.property_tag,
            "trials": self.trials,
            "counterexamples": self.counterexamples,
        }


# a report tries every case up to this many agents, and beyond it samples
_EXHAUSTIVE_AGENTS = 5
_SAMPLES = 200  # cases of the hiding and the improvement reports
_BASELINE_SAMPLES = 20  # baseline orders


def report_no_incentive_to_hide(
    rule: Rule,
    system: AnySystem,
    seed: int = 0,
) -> PerturbationReport:
    """An unmatched agent must stay unmatched after hiding any subset of
    their eligible categories. Exhaustive up to five agents, sampled beyond."""
    base = base_of(system)
    agent_adj = build_graph(base).agent_adj
    report = PerturbationReport("no-incentive-to-hide")
    outcome = rule(system)
    cases: list[tuple[int, tuple[int, ...]]] = []
    if base.num_agents <= _EXHAUSTIVE_AGENTS:
        for agent in range(base.num_agents):
            eligible = agent_adj[agent]
            for r in range(1, len(eligible) + 1):
                for hidden in itertools.combinations(eligible, r):
                    cases.append((agent, hidden))
    else:
        rng = random.Random(seed)
        for _ in range(_SAMPLES):
            agent = rng.randrange(base.num_agents)
            eligible = agent_adj[agent]
            if not eligible:
                continue
            r = rng.randint(1, len(eligible))
            cases.append((agent, tuple(sorted(rng.sample(eligible, r)))))
    for agent, hidden in cases:
        report.trials += 1
        perturbed = hide_categories(system, agent, hidden)
        after = rule(perturbed)
        if outcome.assignment[agent] is None and after.assignment[agent] is not None:
            report.counterexamples.append(
                {
                    "agent": agent,
                    "hidden": list(hidden),
                    "was": None,
                    "became": after.assignment[agent],
                }
            )
    return report


def report_respect_improvements(
    rule: Rule,
    system: AnySystem,
    seed: int = 0,
) -> PerturbationReport:
    """A matched agent must stay matched after any atomic priority
    improvement; compositions follow stepwise."""
    base = base_of(system)
    report = PerturbationReport("respect-improvements")
    outcome = rule(system)
    matched = [a for a in range(base.num_agents) if outcome.assignment[a] is not None]
    tagged: list[tuple[int, AnySystem]] = []
    for agent in matched:
        for perturbed in promotions(system, agent):
            tagged.append((agent, perturbed))
    if base.num_agents > _EXHAUSTIVE_AGENTS and len(tagged) > _SAMPLES:
        rng = random.Random(seed)
        tagged = rng.sample(tagged, _SAMPLES)
    for agent, perturbed in tagged:
        report.trials += 1
        after = rule(perturbed)
        if after.assignment[agent] is None:
            report.counterexamples.append(
                {"agent": agent, "was": outcome.assignment[agent], "became": None}
            )
    return report


def report_consistency(rule: Rule, system: AnySystem) -> PerturbationReport:
    """Two fresh runs on the same instance: identical matchings for the
    matching level, identical matched sets for the weaker agent level."""
    report = PerturbationReport("consistency")
    report.trials = 1
    first = rule(system)
    second = rule(system)
    if first != second:
        entry: dict = {"level": "matching"}
        if set(first.matched_agents()) != set(second.matched_agents()):
            entry["level"] = "matched-agents"
        entry["first"] = list(first.assignment)
        entry["second"] = list(second.assignment)
        report.counterexamples.append(entry)
    return report


def report_independence_of_baseline(
    rule_with_baseline: Callable[[AnySystem, Sequence[int]], Matching],
    system: AnySystem,
    seed: int = 0,
) -> PerturbationReport:
    """Matched sets must agree across baseline orders. All permutations up to
    five agents, seeded samples beyond."""
    base = base_of(system)
    report = PerturbationReport("independence-of-baseline")
    if base.num_agents <= _EXHAUSTIVE_AGENTS:
        baselines = list(itertools.permutations(range(base.num_agents)))
    else:
        rng = random.Random(seed)
        baselines = []
        for _ in range(_BASELINE_SAMPLES):
            order = list(range(base.num_agents))
            rng.shuffle(order)
            baselines.append(tuple(order))
    results = []
    for order in baselines:
        report.trials += 1
        matching = rule_with_baseline(system, order)
        results.append((tuple(order), frozenset(matching.matched_agents())))
    _, reference = results[0]
    for order, matched in results[1:]:
        if matched != reference:
            report.counterexamples.append(
                {
                    "baseline_a": list(results[0][0]),
                    "matched_a": sorted(reference),
                    "baseline_b": list(order),
                    "matched_b": sorted(matched),
                }
            )
    return report
