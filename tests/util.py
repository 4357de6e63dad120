"""Shared helpers for the test suite: sweep generators and the exhaustive
adjustment-rule execution-tree enumerator used by the characterization
checks."""

from __future__ import annotations

import random

from reservematch import axioms
from reservematch.bipartite import EligibilityGraph
from reservematch.cli import GeneratorSpec
from reservematch.harness import PerturbationReport
from reservematch.model import (
    HybridMarker,
    Matching,
    PrecedenceOrder,
    PriorityRanking,
    ReserveSystem,
    SequentialReserveSystem,
)
from reservematch.netflow import (
    OPEN_CLASS,
    PREF_CLASS,
    BoundedFlowNetwork,
    ReserveNetwork,
    build_compact_network,
)

# Tokens int() or float() would read, or that name no count: the command
# line's integer and float options refuse each of them.
MALFORMED_NUMBERS = (" 1", "+1", "1_0", "\uff11", "nan", "inf")


def compare_priority(system: ReserveSystem, c: int, a: int, b: int) -> bool:
    """True iff agent a ranks strictly above agent b at category c."""
    if a == b:
        raise ValueError("compare_priority requires two distinct agents")
    return system.position(c, a) < system.position(c, b)


def agent_categories(system: ReserveSystem, agent: int) -> tuple[int, ...]:
    """Categories the agent is eligible for, ascending index: a scan of all
    K rankings, which the rules avoid by reading the eligibility graph."""
    return tuple(
        c for c in range(system.num_categories) if system.is_eligible(agent, c)
    )


def num_edges(graph: EligibilityGraph) -> int:
    """The number of (agent, category) eligibility edges."""
    return sum(len(adj) for adj in graph.agent_adj)


def is_strict(order: PrecedenceOrder) -> bool:
    """True iff no two categories share a tier."""
    return len(set(order.tier_of)) == len(order.tier_of)


def report_ok(report: PerturbationReport) -> bool:
    """True iff the property report found no counterexample."""
    return not report.counterexamples


def agent_groups(system: SequentialReserveSystem) -> dict[int, tuple[int, ...]]:
    """Agents partitioned by identical eligible-category sets: the groups of
    the compact reserve network, keyed by group id (ascending order of each
    group's smallest member)."""
    return dict(enumerate(build_compact_network(system).group_members))


def set_upper(network: BoundedFlowNetwork, edge: int, value: int) -> None:
    network.upper[edge] = value


def add_edge(network: BoundedFlowNetwork, u: int, v: int, lower: int = 0, upper: int = 0) -> int:
    """``add_edges`` of one edge; its id."""
    return network.add_edges([u], [v], [lower], [upper])[0]


def assign_edge_map(rn: ReserveNetwork) -> dict[tuple[int, int], int]:
    """Every assignment edge's id keyed by its (group, category) pair, in id
    order."""
    return {(k, c): e for k, c, e in rn.assign_edges()}


def class_node(rn: ReserveNetwork) -> dict[str, int]:
    """The open and preferential class nodes: the two nodes before the sink."""
    sink = rn.network.sink
    return {OPEN_CLASS: sink - 2, PREF_CLASS: sink - 1}


def fundamental_verdicts(system, matching, max_size):
    return [
        axioms.check_eligibility(system, matching),
        axioms.check_respect_priorities(system, matching),
        axioms.check_nonwasteful(system, matching),
        axioms.check_max_cardinality(system, matching, max_size),
    ]


def sweep_instance(rng: random.Random, max_agents=6, max_categories=3):
    """One seeded draw from the small-instance grid (capacities <= 2)."""
    spec = GeneratorSpec(
        num_agents=rng.randint(1, max_agents),
        num_categories=rng.randint(1, max_categories),
        capacity=rng.choice(["uniform:0:2", "uniform:1:2", "const:1"]),
        density=rng.choice([0.2, 0.4, 0.6, 0.8, 1.0]),
        preferential_fraction=rng.choice([0.0, 0.0, 0.4, 0.8]),
        tier_scheme=rng.choice(["equal", "strict", "strict", "random:2"]),
        seed=rng.randrange(1 << 30),
    )
    return spec.build()


def hybrid_instance(rng: random.Random, num_agents: int) -> SequentialReserveSystem:
    """Early-open / preferential / late-open split with universally eligible
    open categories (the setting the two-clause order-preservation form was
    written for)."""
    n_early, n_pref, n_late = 1, rng.randint(1, 2), 1
    cats = n_early + n_pref + n_late
    early = frozenset(range(n_early))
    pref = frozenset(range(n_early, n_early + n_pref))
    late = frozenset(range(n_early + n_pref, cats))
    priorities = []
    tiers = []
    for c in range(cats):
        order = list(range(num_agents))
        rng.shuffle(order)
        cutoff = rng.randint(0, num_agents) if c in pref else num_agents
        priorities.append(PriorityRanking(tuple(order), cutoff))
        tiers.append(0 if c in early else 1 if c in pref else 2)
    base = ReserveSystem(
        num_agents,
        cats,
        tuple(rng.randint(0, 2) for _ in range(cats)),
        tuple(priorities),
    )
    return SequentialReserveSystem(
        base=base,
        preferential=pref,
        precedence=PrecedenceOrder(tuple(tiers)),
        hybrid=HybridMarker(early, late),
    )


def mma_induced_matchings(system, maxima) -> set[Matching]:
    """All adjustment-phase outcomes over every maximum matching and every
    nondeterministic proposal order, via memoized state-space search."""
    results: set[Matching] = set()
    for start in maxima.max_cardinality_matchings:
        initial = tuple(start.assignment)
        seen = set()
        stack = [(initial, frozenset())]
        while stack:
            assignment, considered = stack.pop()
            if (assignment, considered) in seen:
                continue
            seen.add((assignment, considered))
            moves = []
            for agent in range(system.num_agents):
                if assignment[agent] is not None:
                    continue
                for c in agent_categories(system, agent):
                    if (agent, c) in considered:
                        continue
                    members = [a for a, d in enumerate(assignment) if d == c]
                    marked = considered | {(agent, c)}
                    if members:
                        lowest = max(members, key=lambda a: system.position(c, a))
                        if system.position(c, agent) < system.position(c, lowest):
                            nxt = list(assignment)
                            nxt[agent] = c
                            nxt[lowest] = None
                            moves.append((tuple(nxt), marked))
                            continue
                    moves.append((assignment, marked))
            if moves:
                stack.extend(moves)
            else:
                results.add(Matching(assignment))
    return results


def chain_instance(num_agents: int) -> SequentialReserveSystem:
    """A long augmenting chain: unit categories c0..cn, agent i eligible
    for c_i and c_{i+1} and ranked first where eligible, precedence c1, c2,
    ..., cn and c0 last. The rule shifts every agent up one category; the
    parked matching i -> c_i keeps both maxima but not precedence."""
    n = num_agents
    priorities = []
    for c in range(n + 1):
        eligible = [a for a in (c - 1, c) if 0 <= a < n]
        rest = [a for a in range(n) if a not in eligible]
        priorities.append(PriorityRanking(tuple(eligible + rest), len(eligible)))
    return SequentialReserveSystem(
        base=ReserveSystem(n, n + 1, (1,) * (n + 1), tuple(priorities)),
        preferential=frozenset(),
        precedence=PrecedenceOrder((n,) + tuple(range(n))),
    )
