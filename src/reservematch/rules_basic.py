"""Allocation rules for basic instances: deferred acceptance, reverse
rejecting, and maximum-matching adjustment.

All three are deterministic given their inputs; scan orders are ascending
index unless an explicit order override is supplied.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional, Sequence

from .bipartite import (
    EligibilityGraph,
    GraphMatching,
    augment_backward,
    build_graph,
    maximum_matching,
)
from .model import InstanceError, Matching, Record, ReserveSystem


# ---------------------------------------------------------------------------
# Deferred acceptance


def da_allocate(system: ReserveSystem) -> Matching:
    """Deferred acceptance in ascending category index: unmatched agents
    propose down their eligible categories in index order; each category
    re-selects its tentative holders plus the round's applicants by
    priority up to capacity."""
    ranked = build_graph(system).agent_adj
    held: list[Optional[int]] = [None] * system.num_agents
    pointer = [0] * system.num_agents
    holders: list[list[int]] = [[] for _ in range(system.num_categories)]
    # Only an agent rejected in the last round proposes in the next one.
    proposers = [a for a in range(system.num_agents) if ranked[a]]
    while proposers:
        proposals: dict[int, list[int]] = {}
        for a in proposers:
            proposals.setdefault(ranked[a][pointer[a]], []).append(a)
        proposers = []
        for c in sorted(proposals):
            # positions are distinct within a ranking, so the order the pool
            # is gathered in cannot change the selection
            pool = holders[c] + proposals[c]
            pool.sort(key=system.priorities[c].position)
            cap = system.capacities[c]
            holders[c] = pool[:cap]
            for a in holders[c]:
                held[a] = c
            for a in pool[cap:]:
                held[a] = None
                pointer[a] += 1
                if pointer[a] < len(ranked[a]):
                    proposers.append(a)
    return Matching(tuple(held))


# ---------------------------------------------------------------------------
# Reverse rejecting


def _validate_permutation(order: Sequence[int], size: int, what: str) -> tuple[int, ...]:
    if sorted(order) != list(range(size)):
        raise InstanceError(f"{what} must be a permutation of 0..{size - 1}")
    return tuple(order)


def rev_allocate(system: ReserveSystem, baseline: Sequence[int]) -> Matching:
    """Reverse rejecting: walk the baseline order backwards, rejecting each
    agent whose removal (together with all strictly lower-priority edges in
    the categories they are eligible for) keeps a maximum matching of the
    original size; return a maximum matching of the surviving graph.

    The whole state is one cut per category: the active agents of c are
    the first ``thresh[c]`` of its eligible prefix. A rejection lowers the
    cut of each of the agent's categories to the agent's own position, so a
    rejected agent sits at or below every cut of its categories and needs no
    mark of its own. A check copies the cuts into ``limit`` and lowers the
    checked agent's categories the same way; the agent is then inactive, and
    the check is kept as the new cuts if the working matching regains its
    size on them.

    Each check costs one augmenting search per matched unit it cuts
    (``bipartite.augment_backward`` on the cut prefixes), against one
    maximum matching for the whole of ``mma_allocate``. Which path a search
    finds cannot change what is returned: a check only asks whether a
    matching of the original size still exists on the active edges, which
    any exact search answers the same way, and the returned matching is
    computed from scratch on the surviving graph."""
    order = _validate_permutation(baseline, system.num_agents, "baseline")
    graph = build_graph(system)
    match = maximum_matching(graph)
    m = match.size()
    capacities, members = graph.capacities, match.members
    elig = [system.eligible_agents(c) for c in range(system.num_categories)]
    # every agent looked up is eligible: the agent's own categories, and the
    # occupants of a matching on the eligibility graph
    rank = [ranking.eligible_ranks() for ranking in system.priorities]
    thresh = [len(agents) for agents in elig]

    for agent in reversed(order):
        limit = list(thresh)
        journal: list[tuple[int, Optional[int]]] = []
        if match.assignment[agent] is not None:
            journal.append((agent, match.assignment[agent]))
            match.unassign(agent)
        for c in graph.agent_adj[agent]:
            ranks = rank[c]
            pos = ranks[agent]
            if pos >= limit[c]:
                continue  # c's cut already excludes the agent: no occupant ranks below it
            limit[c] = pos
            for b in [b for b in members[c] if ranks[b] > pos]:
                journal.append((b, c))
                match.unassign(b)
        lost = len(journal)  # one entry per unit cut so far
        if all(augment_backward(elig, limit, match, capacities, journal) for _ in range(lost)):
            thresh = limit
        else:
            match.undo(journal)

    # Deterministic final pass from scratch on the surviving graph.
    final_graph = EligibilityGraph.from_members(
        system.num_agents,
        [agents[:cut] for agents, cut in zip(elig, thresh)],
        capacities,
    )
    final = maximum_matching(final_graph)
    assert final.size() == m
    return final.to_matching()


# ---------------------------------------------------------------------------
# Maximum matching adjustment


DISPLACED = "displaced"
SKIPPED = "skipped"


class TraceEntry(NamedTuple):
    agent: int
    category: int
    outcome: str
    displaced: Optional[int] = None


class MMATrace(Record):
    """Proposal log sufficient to replay the adjustment phase exactly."""

    __slots__ = _fields = ("initial", "log")
    initial: Matching
    log: tuple[TraceEntry, ...]

    def __init__(self, initial: Matching, log: tuple[TraceEntry, ...]) -> None:
        self._init(initial, log)

    def replay(self, num_categories: int) -> Matching:
        match = GraphMatching.from_matching(self.initial, num_categories)
        for entry in self.log:
            if entry.outcome == DISPLACED:
                assert match.assignment[entry.displaced] == entry.category
                match.unassign(entry.displaced)
                match.assign(entry.agent, entry.category)
        return match.to_matching()


def mma_allocate(
    system: ReserveSystem,
    initial: Optional[GraphMatching] = None,
    agent_order: Optional[Sequence[int]] = None,
    category_order: Optional[Sequence[int]] = None,
) -> tuple[Matching, MMATrace]:
    """Maximum matching adjustment: start from a maximum matching, then let
    unmatched agents displace the lowest-priority occupant of any eligible
    category that ranks them higher. Each (agent, category) pair is checked
    at most once; a displaced agent re-enters the proposal pool. A seed
    ``initial`` is checked here for eligibility, capacities and maximality.

    Without a seed the start is one ``maximum_matching`` run: its greedy
    first phase seats each category's agents at once, and it starts no
    phase once every slot is full, so the matching is the one its frozen
    reference in ``tests/test_bipartite.py`` returns. The adjustment then
    reads ranks from the rankings' ``eligible_ranks()`` and moves agents on
    a flat copy of the assignment, since a displacement leaves every load
    as it was. ``tests/test_rules_basic.py`` compares the output and the
    trace with a reference copy of the rule.
    """
    graph = build_graph(system)
    if initial is None:
        match = maximum_matching(graph)
    else:
        for agent, c in enumerate(initial.assignment):
            if c is not None and not system.is_eligible(agent, c):
                raise InstanceError(f"seed matches agent {agent} to ineligible category {c}")
        for c, load in enumerate(initial.load):
            if load > system.capacities[c]:
                raise InstanceError(
                    f"seed overfills category {c}: {load} > {system.capacities[c]}"
                )
        match = initial.copy()
        best = maximum_matching(graph, seed=match)
        if best.size() != match.size():
            raise InstanceError(
                f"seed has {match.size()} matched agents, maximum is {best.size()}"
            )
    initial_matching = match.to_matching()

    # The pool holds scan ranks, distinct ints: agent_rank[a] is a's rank
    # and by_rank[rank] its agent.
    by_rank: Sequence[int]
    agent_rank: Sequence[int]
    if agent_order is None:
        by_rank = agent_rank = range(system.num_agents)
    else:
        by_rank = _validate_permutation(agent_order, system.num_agents, "agent order")
        agent_rank = [0] * system.num_agents
        for rank, a in enumerate(by_rank):
            agent_rank[a] = rank
    if category_order is None:
        cats_of: Sequence[Sequence[int]] = graph.agent_adj
    else:
        order = _validate_permutation(
            category_order, system.num_categories, "category order"
        )
        cat_rank = [0] * system.num_categories
        for rank, c in enumerate(order):
            cat_rank[c] = rank
        cats_of = [sorted(adj, key=cat_rank.__getitem__) for adj in graph.agent_adj]
    # Every agent looked up is eligible: a proposer for its own categories,
    # and an occupant of a matching on the eligibility graph (a seed is
    # checked above).
    rank = [ranking.eligible_ranks() for ranking in system.priorities]
    eligible = [system.eligible_agents(c) for c in range(system.num_categories)]
    # Per category, a heap of its occupants' negated ranks, the lowest
    # priority on top: the occupant at -p is eligible[c][p].
    occupants = [
        [-rank[c][b] for b in match.members[c]]
        for c in range(system.num_categories)
    ]
    for heap in occupants:
        heapq.heapify(heap)

    # A displacement swaps one agent for another inside a full category, so
    # the loads never change and the adjustment works on the assignment
    # alone.
    capacities, load = graph.capacities, match.load
    assignment = list(match.assignment)
    # An agent proposes down cats_of[agent] and never to the same category
    # twice, so what it has proposed to is a prefix: proposed[agent] long.
    proposed = [0] * system.num_agents
    log: list[TraceEntry] = []
    # tuple.__new__ builds a TraceEntry without its Python-level __new__
    entry = tuple.__new__
    # An agent joins the pool when it is unmatched and leaves it before it
    # is matched, so every pop is an unmatched agent. One with no category
    # would propose nothing, so it never joins.
    pool = [
        agent_rank[a]
        for a in range(system.num_agents)
        if assignment[a] is None and cats_of[a]
    ]
    heapq.heapify(pool)
    while pool:
        agent = by_rank[heapq.heappop(pool)]
        cats = cats_of[agent]
        i = proposed[agent]
        while i < len(cats):
            c = cats[i]
            i += 1
            # an unmatched agent next to a free slot contradicts a maximum seed
            assert load[c] == capacities[c]
            heap = occupants[c]
            if not heap:
                continue  # zero-capacity category
            pos = rank[c][agent]
            if pos < -heap[0]:
                lowest = eligible[c][-heapq.heapreplace(heap, -pos)]
                assignment[lowest] = None
                assignment[agent] = c
                log.append(entry(TraceEntry, (agent, c, DISPLACED, lowest)))
                heapq.heappush(pool, agent_rank[lowest])
                break
            log.append(entry(TraceEntry, (agent, c, SKIPPED, None)))
        proposed[agent] = i
    return Matching(tuple(assignment)), MMATrace(initial_matching, tuple(log))
