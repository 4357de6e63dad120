from __future__ import annotations

import itertools
import random
import sys

import pytest

from reservematch.bipartite import (
    AlternatingPath,
    EligibilityGraph,
    GraphMatching,
    InvalidSeed,
    PathInconsistent,
    END_VACANCY,
    START_LOSES,
    START_UNMATCHED,
    apply_path,
    build_graph,
    find_alternating_path,
    maximum_matching,
)
from reservematch.model import PriorityRanking, ReserveSystem


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
    assert g.category_adj == ((0, 1), (1, 2))
    g6 = build_graph(grouped_six.base)
    # 3 + 6 + 3 eligibility edges
    assert g6.num_edges() == 12
    assert g6.category_adj[0] == (0, 1, 2)
    assert g6.category_adj[1] == (0, 1, 2, 3, 4, 5)
    assert g6.category_adj[2] == (3, 4, 5)


def test_build_graph_edgeless():
    system = ReserveSystem(
        2, 1, (1,), (PriorityRanking((0, 1), 0),)
    )
    assert build_graph(system).num_edges() == 0


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
    graph = build_graph(contested_pair)
    bad = GraphMatching(3, 2)
    bad.assign(2, 0)  # agent 2 is not eligible for category 0
    with pytest.raises(InvalidSeed):
        maximum_matching(graph, seed=bad)
    over = GraphMatching(3, 2)
    over.assign(0, 0)
    over.assign(1, 0)
    with pytest.raises(InvalidSeed):
        maximum_matching(graph, seed=over)


def test_long_augmenting_path_needs_no_recursion():
    # agent i fits categories i and i+1, the last agent only category 0: the
    # first phase fills categories 0..n-2, the second needs one path through
    # all n agents to reach the free category n-1
    n = 400
    agent_adj = tuple((i, i + 1) for i in range(n - 1)) + ((0,),)
    category_adj = ((0, n - 1),) + tuple((c - 1, c) for c in range(1, n))
    graph = EligibilityGraph(agent_adj, category_adj, (1,) * n)
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
                # random node sequences; apply_path rejects the ones that do
                # not fit the matching
                length = rng.randint(2, 5)
                nodes = tuple(
                    rng.randrange(num_agents if k % 2 else num_categories)
                    for k in range(length)
                )
                kind = rng.choice((START_LOSES, START_UNMATCHED))
                if kind == START_UNMATCHED:
                    nodes = (agent,) + nodes[: length - 1]
                try:
                    match = apply_path(match, AlternatingPath(nodes, kind, END_VACANCY))
                except PathInconsistent:
                    pass
            assert match.size() == matched(match)


def test_determinism(grouped_six):
    graph = build_graph(grouped_six.base)
    a = maximum_matching(graph)
    b = maximum_matching(graph)
    assert a.assignment == b.assignment


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


def test_apply_path_shift_and_involution(contested_pair):
    graph = build_graph(contested_pair)
    match = GraphMatching(3, 2)
    match.assign(1, 0)
    path = AlternatingPath((0, 1, 1), START_LOSES, "vacancy")
    shifted = apply_path(match, path, graph)
    assert shifted.assignment[1] == 1
    assert shifted.load[0] == 0
    # same path again undoes the update
    back = apply_path(shifted, path, graph)
    assert back.assignment == match.assignment


def test_apply_path_augmenting_step(contested_pair):
    graph = build_graph(contested_pair)
    match = GraphMatching(3, 2)
    path = AlternatingPath((2, 1), START_UNMATCHED, "vacancy")
    grown = apply_path(match, path, graph)
    assert grown.size() == match.size() + 1
    assert apply_path(grown, path, graph).assignment == match.assignment


def test_apply_path_inconsistent(contested_pair):
    graph = build_graph(contested_pair)
    match = GraphMatching(3, 2)
    match.assign(2, 1)
    # agent 1 is matched to neither path-adjacent category
    bad = AlternatingPath((0, 1, 1), START_LOSES, "vacancy")
    with pytest.raises(PathInconsistent):
        apply_path(match, bad)
    # an unmatched-endpoint flip must name an eligible category
    ineligible = AlternatingPath((2, 0), START_UNMATCHED, "vacancy")
    with pytest.raises(PathInconsistent):
        apply_path(GraphMatching(3, 2), ineligible, graph)
