from __future__ import annotations

import itertools
import random
import sys
from collections import deque
from typing import Optional, Sequence

import pytest

from util import num_edges

from reservematch.bipartite import (
    EligibilityGraph,
    GraphMatching,
    START_LOSES,
    START_UNMATCHED,
    augment_backward,
    build_graph,
    find_alternating_path,
    maximum_matching,
)
from reservematch.cli import GeneratorSpec
from reservematch.model import InstanceError, PriorityRanking, ReserveSystem, as_sequential
from reservematch.rules_basic import mma_allocate


def brute_force_max(graph) -> int:
    """Independent oracle: try every assignment, keep the largest valid one."""
    best = 0
    options = [(None,) + tuple(adj) for adj in graph.agent_adj]
    for combo in itertools.product(*options):
        loads = [0] * graph.num_categories
        ok = True
        for c in combo:
            if c is None:
                continue
            loads[c] += 1
            if loads[c] > graph.capacities[c]:
                ok = False
                break
        if ok:
            best = max(best, sum(1 for c in combo if c is not None))
    return best


def random_system(rng: random.Random, max_agents=6, max_categories=3) -> ReserveSystem:
    n = rng.randint(1, max_agents)
    ncat = rng.randint(1, max_categories)
    priorities = []
    caps = []
    for _ in range(ncat):
        order = list(range(n))
        rng.shuffle(order)
        priorities.append(PriorityRanking(tuple(order), rng.randint(0, n)))
        caps.append(rng.randint(0, 2))
    return ReserveSystem(n, ncat, tuple(caps), tuple(priorities))


def test_build_graph_edges(contested_pair, grouped_six):
    g = build_graph(contested_pair)
    assert g.agent_adj == ((0,), (0, 1), (1,))
    assert g.num_categories == 2
    g6 = build_graph(grouped_six.base)
    # 3 + 6 + 3 eligibility edges
    assert num_edges(g6) == 12
    assert g6.agent_adj == ((0, 1),) * 3 + ((1, 2),) * 3


def test_build_graph_edgeless():
    system = ReserveSystem(
        2, 1, (1,), (PriorityRanking((0, 1), 0),)
    )
    assert num_edges(build_graph(system)) == 0


def test_maximum_matching_sizes(contested_pair, grouped_six):
    assert maximum_matching(build_graph(contested_pair)).size() == 2
    assert maximum_matching(build_graph(grouped_six.base)).size() == 3


def test_maximum_matching_empty_graph():
    system = ReserveSystem(2, 1, (1,), (PriorityRanking((0, 1), 0),))
    assert maximum_matching(build_graph(system)).size() == 0


def test_maximum_matching_agrees_with_brute_force():
    rng = random.Random(1234)
    for _ in range(200):
        system = random_system(rng)
        graph = build_graph(system)
        assert maximum_matching(graph).size() == brute_force_max(graph)


def test_seeded_augmentation_preserves_matched_agents():
    rng = random.Random(99)
    for _ in range(100):
        system = random_system(rng)
        graph = build_graph(system)
        # any valid partial matching as a seed
        seed = GraphMatching(graph.num_agents, graph.num_categories)
        for a in range(graph.num_agents):
            choices = [
                c
                for c in graph.agent_adj[a]
                if seed.load[c] < graph.capacities[c]
            ]
            if choices and rng.random() < 0.6:
                seed.assign(a, rng.choice(choices))
        before = {a for a, c in enumerate(seed.assignment) if c is not None}
        result = maximum_matching(graph, seed=seed)
        after = {a for a, c in enumerate(result.assignment) if c is not None}
        assert before <= after
        assert result.size() == brute_force_max(graph)


def test_invalid_seed_rejected(contested_pair):
    # a seed is checked where it enters, in mma_allocate: eligibility in
    # agent order first, then capacities
    bad = GraphMatching(3, 2)
    bad.assign(2, 0)  # agent 2 is not eligible for category 0
    with pytest.raises(InstanceError, match="^seed matches agent 2 to ineligible category 0$"):
        mma_allocate(contested_pair, initial=bad)
    over = GraphMatching(3, 2)
    over.assign(0, 0)
    over.assign(1, 0)
    with pytest.raises(InstanceError, match=r"^seed overfills category 0: 2 > 1$"):
        mma_allocate(contested_pair, initial=over)
    both = GraphMatching(3, 2)
    both.assign(0, 0)
    both.assign(1, 0)
    both.assign(2, 0)
    with pytest.raises(InstanceError, match="^seed matches agent 2 to ineligible category 0$"):
        mma_allocate(contested_pair, initial=both)


def test_long_augmenting_path_needs_no_recursion():
    # agent i fits categories i and i+1, the last agent only category 0: the
    # first phase fills categories 0..n-2, the second needs one path through
    # all n agents to reach the free category n-1
    n = 400
    agent_adj = tuple((i, i + 1) for i in range(n - 1)) + ((0,),)
    graph = EligibilityGraph(agent_adj, (1,) * n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        match = maximum_matching(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert match.size() == n
    assert match.assignment == [i + 1 for i in range(n - 1)] + [0]


def test_size_counter_tracks_moves():
    rng = random.Random(2024)
    num_agents, num_categories = 6, 3

    def matched(match):
        return sum(1 for c in match.assignment if c is not None)

    for _ in range(200):
        match = GraphMatching(num_agents, num_categories)
        for _ in range(30):
            op = rng.choice(("assign", "unassign", "copy", "from_matching", "path"))
            agent = rng.randrange(num_agents)
            if op == "assign":
                match.assign(agent, rng.randrange(num_categories))
            elif op == "unassign":
                match.unassign(agent)
            elif op == "copy":
                match = match.copy()
            elif op == "from_matching":
                match = GraphMatching.from_matching(match.to_matching(), num_categories)
            else:
                # a backward search over random member lists applies an
                # augmenting path when it finds one
                members = [
                    rng.sample(range(num_agents), rng.randint(0, num_agents))
                    for _ in range(num_categories)
                ]
                caps = [rng.randint(0, 3) for _ in range(num_categories)]
                augment_backward(members, list(map(len, members)), match, caps, [])
            assert match.size() == matched(match)


def test_backward_searches_reach_the_maximum_one_path_at_a_time():
    """The Berge certificate the seeded dual maximum rests on: from any
    start within capacity, each search that finds a path applies it and
    adds exactly one pair, every step keeps eligibility and capacities, and
    the search that finds none leaves a maximum matching. Undoing the
    searches' journal gives the start back."""
    rng = random.Random("backward-berge")
    seen = set()
    for trial in range(300):
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.randint(0, 40),
            num_categories=rng.randint(1, 6),
            capacity=rng.choice(["const:0", "uniform:0:2", "uniform:0:6"]),
            density=rng.choice([0.05, 0.2, 0.5, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme=rng.choice(["equal", "random:2", "random:3"]),
            seed=trial,
        ).build())
        n, caps = seq.num_agents, seq.capacities
        elig = [seq.base.eligible_agents(c) for c in range(seq.num_categories)]
        # both stages' member lists: the preferential categories', then all
        for members in (
            [agents if c in seq.preferential else () for c, agents in enumerate(elig)],
            elig,
        ):
            match = GraphMatching(n, seq.num_categories)
            pairs = [(a, c) for c, agents in enumerate(members) for a in agents]
            rng.shuffle(pairs)
            for a, c in pairs[:rng.randint(0, len(pairs))]:
                if match.assignment[a] is None and match.load[c] < caps[c]:
                    match.assign(a, c)
            maximum = maximum_matching(EligibilityGraph.from_members(n, members, caps)).size()
            limit = [len(agents) for agents in members]
            start, journal = list(match.assignment), []
            size, paths = match.size(), 0
            while augment_backward(members, limit, match, caps, journal):
                paths += 1
                assert match.size() == size + 1, trial
                size += 1
                for a, c in enumerate(match.assignment):
                    assert c is None or a in members[c], trial
                assert all(load <= cap for load, cap in zip(match.load, caps)), trial
            assert size == maximum, trial
            match.undo(journal)
            assert match.assignment == start and match.size() == sum(
                c is not None for c in start), trial
            seen.update({
                "zero capacity": 0 in caps,
                "agent with no category": n > len(set().union(*elig)),
                "tied tiers": len(set(seq.precedence.tier_of)) < seq.num_categories,
                "several paths": paths > 1,
                "maximum start": paths == 0 and maximum > 0,
            }.items())
    assert {name for name, hit in seen if hit} == {
        "zero capacity", "agent with no category", "tied tiers",
        "several paths", "maximum start",
    }


def test_determinism(grouped_six):
    graph = build_graph(grouped_six.base)
    a = maximum_matching(graph)
    b = maximum_matching(graph)
    assert a.assignment == b.assignment


# ---------------------------------------------------------------------------
# Hopcroft-Karp against the pre-greedy-phase reference

_INF = float("inf")


# ``maximum_matching`` as it was before its first phase became a greedy pass
# and its loops were trimmed, kept verbatim: ``mma`` and ``rev`` outputs
# depend on which maximum matching is returned, so the two must agree.
def _hk_reference(
    graph: EligibilityGraph,
    seed: Optional[GraphMatching] = None,
    category_mask: Optional[Sequence[bool]] = None,
) -> GraphMatching:
    """Maximum-cardinality matching via Hopcroft-Karp with category loads.

    Augments the seed when one is given: matched agents never become
    unmatched, only reassigned along augmenting paths. ``category_mask``
    restricts the search to the categories it marks (used for the
    preferential-side initial matching).
    """
    if seed is not None:
        match = seed.copy()
    else:
        match = GraphMatching(graph.num_agents, graph.num_categories)

    def cat_ok(c: int) -> bool:
        return category_mask is None or category_mask[c]

    n = graph.num_agents
    dist: list[float] = [0.0] * n

    def bfs() -> bool:
        queue: deque[int] = deque()
        for a in range(n):
            if match.assignment[a] is None:
                dist[a] = 0
                queue.append(a)
            else:
                dist[a] = _INF
        frontier = _INF
        # A full category's members all get their distance the first time
        # any agent reaches it, so each category is expanded once.
        expanded = [False] * graph.num_categories
        while queue:
            a = queue.popleft()
            if dist[a] >= frontier:
                continue
            for c in graph.agent_adj[a]:
                if not cat_ok(c):
                    continue
                if match.load[c] < graph.capacities[c]:
                    if frontier == _INF:
                        frontier = dist[a] + 1
                elif not expanded[c]:
                    expanded[c] = True
                    for b in match.members[c]:
                        if dist[b] == _INF:
                            dist[b] = dist[a] + 1
                            queue.append(b)
        return frontier != _INF

    # (category, layer) pairs whose scan for agents at that layer came up
    # empty this phase; a category is full for the rest of the phase once
    # scanned, so only an agent of that layer entering it can revive it.
    dead: set[tuple[int, float]] = set()

    def moves(a: int):
        """Yield (c, b): agent a can enter c by pushing its member b one
        layer on, or by taking a free slot when b is None."""
        layer = dist[a] + 1
        for c in graph.agent_adj[a]:
            if not cat_ok(c) or (c, layer) in dead:
                continue
            if match.load[c] < graph.capacities[c]:
                yield c, None
                return  # never resumed: a free slot ends the search
            for b in sorted(match.members[c]):
                if dist[b] == layer:
                    yield c, b
            dead.add((c, layer))

    def dfs(root: int) -> bool:
        """Depth-first search for an augmenting path along the layers, on an
        explicit stack: agents, categories and candidates are visited in
        ascending order, and an agent that leads nowhere leaves the layers."""
        path = [root]  # agents on the current path
        cats: list[int] = []  # cats[k]: the category path[k] is entering
        steps = [moves(root)]
        while steps:
            step = next(steps[-1], None)
            if step is None:
                dist[path.pop()] = _INF
                steps.pop()
                if cats:
                    cats.pop()
                continue
            c, b = step
            cats.append(c)
            if b is None:
                for agent, cat in zip(reversed(path), reversed(cats)):
                    match.assign(agent, cat)
                    dead.discard((cat, dist[agent]))
                return True
            path.append(b)
            steps.append(moves(b))
        return False

    while bfs():
        dead.clear()
        for a in range(n):
            if match.assignment[a] is None:
                dfs(a)
    return match


def _random_graph(rng: random.Random) -> EligibilityGraph:
    n = rng.randint(0, 60)
    k = rng.randint(1, 6)
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    kind = rng.choice(("const:0", "const:1", "uniform:0:3", "uniform:0:8"))
    if kind.startswith("const"):
        caps = (int(kind[6:]),) * k
    else:
        caps = tuple(rng.randint(0, int(kind.rsplit(":", 1)[1])) for _ in range(k))
    agent_adj = tuple(
        tuple(c for c in range(k) if rng.random() < density) for _ in range(n)
    )
    return EligibilityGraph(agent_adj, caps)


def _marked(graph: EligibilityGraph, mask: Sequence[bool]) -> EligibilityGraph:
    """The subgraph on the categories ``mask`` marks."""
    return EligibilityGraph(
        tuple(tuple(c for c in cats if mask[c]) for cats in graph.agent_adj),
        graph.capacities,
    )


def _random_seed(rng: random.Random, graph: EligibilityGraph, kind: str):
    if kind == "none":
        return None
    seed = GraphMatching(graph.num_agents, graph.num_categories)
    if kind == "partial":
        for a, adj in enumerate(graph.agent_adj):
            if adj and rng.random() < 0.4:
                c = rng.choice(adj)
                if seed.load[c] < graph.capacities[c]:
                    seed.assign(a, c)
    return seed


def test_maximum_matching_equals_reference_on_random_graphs():
    rng = random.Random(2024)
    kinds = ("none", "empty", "partial")
    # how the phase loop ended: with every slot full (no further phase
    # starts) or with a free slot left (the last search found no path)
    ends = {"every slot full": 0, "a free slot left": 0}
    for trial in range(2400):
        graph = searched = _random_graph(rng)
        mask = None
        if trial % 2:
            # the masked reference against the marked-category subgraph,
            # seeded inside the marked categories
            mask = [rng.random() < 0.6 for _ in range(graph.num_categories)]
            searched = _marked(graph, mask)
        seed = _random_seed(rng, searched, kinds[trial % 3])
        expected = _hk_reference(graph, seed, mask)
        got = maximum_matching(searched, seed)
        assert got.assignment == expected.assignment, (trial, graph, seed, mask)
        assert got.load == expected.load and got.size() == expected.size()
        # mma's heaps and rev's cuts read the member sets
        assert got.members == expected.members, (trial, graph, seed, mask)
        full = got.load == list(searched.capacities)
        ends["every slot full" if full else "a free slot left"] += 1
    assert all(ends.values()), ends


def test_maximum_matching_runs_no_search_once_every_slot_is_full(monkeypatch):
    """Counts, not timings: a phase starts only while some category has a
    free slot. On the mma-large shape at seed 5 the greedy pass fills all
    2000 slots, so no layered search runs; at seed 1 it fills 1998, one
    phase fills the rest, and the search after it, which could find no
    path, is not run."""
    from reservematch import bipartite

    queues = []

    class CountingDeque(deque):
        def __init__(self, *args):
            queues.append(None)
            super().__init__(*args)

    monkeypatch.setattr(bipartite, "deque", CountingDeque)
    for seed, greedy, searches in ((5, 2000, 0), (1, 1998, 1)):
        graph = build_graph(GeneratorSpec(4000, 10, "const:200", 0.1, seed=seed).build())
        free = list(graph.capacities)
        for cats in graph.agent_adj:
            taken = next((c for c in cats if free[c]), None)
            if taken is not None:
                free[taken] -= 1
        assert sum(graph.capacities) - sum(free) == greedy, seed
        queues.clear()
        assert maximum_matching(graph).size() == sum(graph.capacities) == 2000
        assert len(queues) == searches, seed


def test_maximum_matching_equals_reference_at_scale():
    # the mma-large shape: 4000 agents, 10 categories of capacity 200
    system = GeneratorSpec(4000, 10, "const:200", 0.1, seed=5).build()
    graph = build_graph(system)
    assert maximum_matching(graph).assignment == _hk_reference(graph).assignment
    mask = [c % 2 == 0 for c in range(10)]
    assert (
        maximum_matching(_marked(graph, mask)).assignment
        == _hk_reference(graph, category_mask=mask).assignment
    )


# ---------------------------------------------------------------------------
# alternating paths


def test_shift_path_to_vacancy(grouped_six):
    graph = build_graph(grouped_six.base)
    match = GraphMatching(6, 3)
    match.assign(1, 0)
    match.assign(4, 1)
    path = find_alternating_path(
        graph, match, start=1, frozen_agents={1}
    )
    # agent 4 can leave c1 for the free c2 slot
    assert path is not None
    assert path.nodes == (1, 4, 2)
    assert path.start_kind == START_LOSES


def test_path_respects_frozen_sets(grouped_six):
    graph = build_graph(grouped_six.base)
    match = GraphMatching(6, 3)
    match.assign(1, 0)
    match.assign(4, 1)
    assert (
        find_alternating_path(graph, match, start=1, frozen_agents={1, 4}) is None
    )
    assert (
        find_alternating_path(
            graph, match, start=1, frozen_categories={0, 1, 2}
        )
        is None
    )


def test_path_none_when_no_agents(contested_pair):
    graph = build_graph(contested_pair)
    empty = GraphMatching(3, 2)
    assert find_alternating_path(graph, empty, start=0) is None


def test_unmatched_entry_path(grouped_six):
    graph = build_graph(grouped_six.base)
    match = GraphMatching(6, 3)
    match.assign(1, 0)
    path = find_alternating_path(graph, match, end=2, from_unmatched=True)
    assert path is not None
    assert path.start_kind == START_UNMATCHED
    assert path.nodes[-1] == 2
    assert match.assignment[path.nodes[0]] is None
