from __future__ import annotations

import heapq
import itertools
import random
import statistics
import time

import pytest

from util import (
    agent_categories,
    chain_instance,
    fundamental_verdicts,
    mma_induced_matchings,
)

from reservematch import axioms, rules_basic
from reservematch.bipartite import (
    EligibilityGraph,
    GraphMatching,
    build_graph,
    maximum_matching,
)
from reservematch.cli import GeneratorSpec
from reservematch.harness import oracle_maxima
from reservematch.model import InstanceError, Matching, PriorityRanking, ReserveSystem
from reservematch.rules_basic import (
    DISPLACED,
    SKIPPED,
    MMATrace,
    NotMaximumSeed,
    TraceEntry,
    _validate_permutation,
    da_allocate,
    mma_allocate,
    rev_allocate,
)


def seed_matching(assignment, num_categories):
    return GraphMatching.from_matching(Matching(assignment), num_categories)


def random_system(rng, max_agents=5, max_categories=3):
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



# ---------------------------------------------------------------------------
# deferred acceptance


def test_da_no_eligible_agents():
    system = ReserveSystem(
        2, 2, (1, 1), (PriorityRanking((0, 1), 0), PriorityRanking((0, 1), 0))
    )
    assert da_allocate(system) == Matching((None, None))


def test_da_default_prefs_ascending(contested_pair):
    # agent 1 proposes to c0 first; agent 0 is pushed out and has nowhere else to go
    assert da_allocate(contested_pair) == Matching((None, 0, 1))


def test_da_three_axioms_hold_but_cardinality_can_fail(da_gap):
    out = da_allocate(da_gap)
    maxima = oracle_maxima(da_gap)
    verdicts = fundamental_verdicts(da_gap, out, maxima.m)
    assert all(v.passed for v in verdicts[:3])
    assert not verdicts[3].passed  # strands an agent below the maximum
    assert out == Matching((0, None))


def test_da_three_axioms_on_sweep():
    rng = random.Random(5150)
    for _ in range(150):
        system = random_system(rng)
        out = da_allocate(system)
        verdicts = fundamental_verdicts(system, out, out.matched_count())[:3]
        assert all(v.passed for v in verdicts), (system, out)


def _da_reference(system):
    """Deferred acceptance as it was before it kept each category's holders:
    every round rescans all agents, and every category all its holders."""
    ranked = tuple(agent_categories(system, a) for a in range(system.num_agents))
    held = [None] * system.num_agents
    pointer = [0] * system.num_agents

    while True:
        proposals = {}
        for a in range(system.num_agents):
            if held[a] is None and pointer[a] < len(ranked[a]):
                proposals.setdefault(ranked[a][pointer[a]], []).append(a)
        if not proposals:
            break
        for c in sorted(proposals):
            pool = [a for a in range(system.num_agents) if held[a] == c]
            pool.extend(proposals[c])
            pool.sort(key=lambda a: system.position(c, a))
            keep = set(pool[: system.capacities[c]])
            for a in pool:
                if a in keep:
                    held[a] = c
                else:
                    held[a] = None
                    pointer[a] += 1
    return Matching(tuple(held))


def test_da_equals_reference():
    rng = random.Random(77)
    for trial in range(600):
        system = GeneratorSpec(
            num_agents=rng.randint(0, 40),
            num_categories=rng.randint(1, 6),
            capacity=rng.choice(["const:0", "const:1", "uniform:0:3", "uniform:0:8"]),
            density=rng.choice([0.1, 0.3, 0.6, 1.0]),
            seed=trial,
        ).build()
        assert da_allocate(system) == _da_reference(system), trial
    chain = chain_instance(500).base
    assert da_allocate(chain) == _da_reference(chain)


# ---------------------------------------------------------------------------
# reverse rejecting


def test_rev_forward_baseline(contested_pair):
    assert rev_allocate(contested_pair, (0, 1, 2)) == Matching((0, 1, None))


def test_rev_reverse_baseline(contested_pair):
    assert rev_allocate(contested_pair, (2, 1, 0)) == Matching((None, 0, 1))


def test_rev_single_agent():
    system = ReserveSystem(1, 1, (1,), (PriorityRanking((0,), 1),))
    assert rev_allocate(system, (0,)) == Matching((0,))


def test_rev_invalid_baseline(contested_pair):
    with pytest.raises(InstanceError):
        rev_allocate(contested_pair, (0, 1))


def test_rev_four_axioms_all_baselines_small_sweep():
    rng = random.Random(77)
    for _ in range(40):
        system = random_system(rng, max_agents=5)
        maxima = oracle_maxima(system)
        for baseline in itertools.permutations(range(system.num_agents)):
            out = rev_allocate(system, baseline)
            verdicts = fundamental_verdicts(system, out, maxima.m)
            assert all(v.passed for v in verdicts), (system, baseline, out)


def _thresholded_graph(system, removed, thresh):
    agent_adj = [
        ()
        if removed[a]
        else tuple(
            c for c in agent_categories(system, a) if system.position(c, a) < thresh[c]
        )
        for a in range(system.num_agents)
    ]
    return EligibilityGraph(tuple(agent_adj), system.capacities)


def _rev_reference(system, baseline):
    """Reverse rejecting by its definition, one fresh maximum matching per
    agent: reject i iff the graph without i and without the edges ranked
    below i keeps a matching of the original size."""
    removed = [False] * system.num_agents
    thresh = [system.priorities[c].eligible_cutoff for c in range(system.num_categories)]
    m = maximum_matching(_thresholded_graph(system, removed, thresh)).size()
    for agent in reversed(baseline):
        cut = list(thresh)
        for c in agent_categories(system, agent):
            cut[c] = min(cut[c], system.position(c, agent))
        trial = removed[:agent] + [True] + removed[agent + 1 :]
        if maximum_matching(_thresholded_graph(system, trial, cut)).size() == m:
            removed, thresh = trial, cut
    return maximum_matching(_thresholded_graph(system, removed, thresh)).to_matching()


def test_rev_matches_definition_on_larger_instances():
    rng = random.Random(2502)
    for _ in range(40):
        system = GeneratorSpec(
            num_agents=rng.randint(20, 60),
            num_categories=rng.randint(3, 6),
            capacity="uniform:1:5",
            density=rng.choice([0.2, 0.4, 0.7]),
            seed=rng.randrange(1 << 30),
        ).build()
        baseline = rng.sample(range(system.num_agents), system.num_agents)
        assert rev_allocate(system, baseline) == _rev_reference(system, baseline)


# The rule as it was before the rejection phase kept only its per-category
# cuts, copied verbatim apart from names, annotations and docstrings: the
# removed marks, the agent under check and its tentative cuts live in a
# graph object whose ``prefix`` slices a fresh tuple per expanded category.
# The rewrite must return the same matching on every instance.


class _ThresholdGraphParent:
    """Per-category priority thresholds and removed agents, plus the agent
    under check (``banned``) and its tentative cuts (``tight``). An edge
    (a, c) is active iff a is neither removed nor banned and sits in c's
    active priority prefix."""

    def __init__(self, system):
        self.system = system
        self.removed = [False] * system.num_agents
        self.thresh = [
            system.priorities[c].eligible_cutoff for c in range(system.num_categories)
        ]
        self.tight = {}
        self.banned = None

    def prefix(self, c):
        limit = min(self.thresh[c], self.tight.get(c, self.thresh[c]))
        return self.system.priorities[c].ordered_agents[:limit]

    def begin_check(self, agent):
        self.banned = agent
        self.tight = {
            c: self.system.position(c, agent)
            for c in agent_categories(self.system, agent)
        }

    def commit_check(self):
        assert self.banned is not None
        self.removed[self.banned] = True
        for c, pos in self.tight.items():
            self.thresh[c] = min(self.thresh[c], pos)
        self.banned = None
        self.tight = {}

    def abort_check(self):
        self.banned = None
        self.tight = {}


def _augment_once_parent(tg, match, capacities, journal):
    removed, banned, assignment = tg.removed, tg.banned, match.assignment
    stack = [c for c, cap in enumerate(capacities) if match.load[c] < cap]
    queued = [False] * len(capacities)
    for c in stack:
        queued[c] = True
    parent = {}
    while stack:
        c = stack.pop()
        for a in tg.prefix(c):
            if removed[a] or a == banned:
                continue
            d = assignment[a]
            if d is None:
                while True:
                    journal.append((a, assignment[a]))
                    match.assign(a, c)
                    if c not in parent:
                        return True
                    a, c = parent[c]
            if not queued[d]:
                queued[d] = True
                parent[d] = (a, c)
                stack.append(d)
    return False


def _rev_parent(system, baseline):
    order = _validate_permutation(baseline, system.num_agents, "baseline")
    graph = build_graph(system)
    match = maximum_matching(graph)
    m = match.size()
    tg = _ThresholdGraphParent(system)

    for agent in reversed(order):
        tg.begin_check(agent)
        journal = []
        if match.assignment[agent] is not None:
            journal.append((agent, match.assignment[agent]))
            match.unassign(agent)
        for c, pos in tg.tight.items():
            for b in [b for b in match.members[c] if system.position(c, b) > pos]:
                journal.append((b, c))
                match.unassign(b)
        lost = len(journal)
        if all(
            _augment_once_parent(tg, match, graph.capacities, journal)
            for _ in range(lost)
        ):
            tg.commit_check()
        else:
            tg.abort_check()
            for agent_id, old in reversed(journal):
                if old is None:
                    match.unassign(agent_id)
                else:
                    match.assign(agent_id, old)

    agent_adj = []
    for a in range(system.num_agents):
        if tg.removed[a]:
            agent_adj.append(())
        else:
            agent_adj.append(
                tuple(c for c in graph.agent_adj[a] if system.position(c, a) < tg.thresh[c])
            )
    final_graph = EligibilityGraph(tuple(agent_adj), graph.capacities)
    final = maximum_matching(final_graph)
    assert final.size() == m
    return final.to_matching()


def test_rev_equals_parent_on_random_instances():
    rng = random.Random(1414)
    shapes = {"zero capacity": 0, "agent without category": 0, "saturated": 0}
    for trial in range(1500):
        system = GeneratorSpec(
            num_agents=rng.randint(0, 40),
            num_categories=rng.randint(1, 6),
            capacity=rng.choice(["const:0", "const:1", "uniform:0:3", "uniform:0:8"]),
            density=rng.choice([0.1, 0.3, 0.6, 1.0]),
            seed=trial,
        ).build()
        eligible = [system.eligible_agents(c) for c in range(system.num_categories)]
        shapes["zero capacity"] += 0 in system.capacities
        shapes["agent without category"] += any(
            not adj for adj in build_graph(system).agent_adj
        )
        shapes["saturated"] += sum(system.capacities) <= len(set().union(*eligible))
        baseline = rng.sample(range(system.num_agents), system.num_agents)
        assert rev_allocate(system, baseline) == _rev_parent(system, baseline), trial
    assert all(shapes.values()), shapes


def test_rev_equals_parent_at_rev_medium_size():
    for seed in range(3):
        system = GeneratorSpec(400, 10, capacity="const:20", density=0.1, seed=seed).build()
        baseline = random.Random(seed).sample(range(400), 400)
        assert rev_allocate(system, baseline) == _rev_parent(system, baseline), seed


def test_rev_searches_per_agent_grow_and_mma_matches_once(monkeypatch):
    """Criterion 9's instances, counted instead of timed: rev runs more
    augmenting searches per agent as the instances grow, and mma computes
    one maximum matching."""
    searches = []
    augment = rules_basic.augment_backward

    def counted_augment(*args):
        searches.append(None)
        return augment(*args)

    monkeypatch.setattr(rules_basic, "augment_backward", counted_augment)
    medians = []
    for size in (500, 1000, 2000):
        per_agent = []
        for seed in range(3):
            system = GeneratorSpec(
                size, 10, capacity=f"const:{size // 20}", density=0.1, seed=seed
            ).build()
            searches.clear()
            rev_allocate(system, list(range(size)))
            per_agent.append(len(searches) / size)
        medians.append(statistics.median(per_agent))
    assert medians[0] < medians[1] < medians[2], medians

    matchings = []
    matching = rules_basic.maximum_matching

    def counted_matching(*args, **kwargs):
        matchings.append(None)
        return matching(*args, **kwargs)

    monkeypatch.setattr(rules_basic, "maximum_matching", counted_matching)
    mma_allocate(GeneratorSpec(2000, 10, capacity="const:100", density=0.1).build())
    assert len(matchings) == 1


def test_rev_baseline_dependence_witness(contested_pair):
    first = rev_allocate(contested_pair, (0, 1, 2))
    second = rev_allocate(contested_pair, (2, 1, 0))
    assert set(first.matched_agents()) != set(second.matched_agents())


# ---------------------------------------------------------------------------
# maximum matching adjustment


def test_mma_two_policies(contested_pair):
    seed = seed_matching((0, None, 1), 2)
    out_c0_first, trace = mma_allocate(contested_pair, initial=seed.copy())
    assert out_c0_first == Matching((None, 0, 1))
    assert trace.replay(2) == out_c0_first
    out_c1_first, trace2 = mma_allocate(
        contested_pair, initial=seed.copy(), category_order=(1, 0)
    )
    assert out_c1_first == Matching((0, 1, None))
    assert trace2.replay(2) == out_c1_first


def test_mma_fixed_point(contested_pair):
    seed = seed_matching((None, 0, 1), 2)
    out, trace = mma_allocate(contested_pair, initial=seed)
    assert out == Matching((None, 0, 1))
    assert all(entry.outcome == "skipped" for entry in trace.log)


def test_mma_rejects_non_maximum_seed(contested_pair):
    seed = seed_matching((0, None, None), 2)
    with pytest.raises(NotMaximumSeed):
        mma_allocate(contested_pair, initial=seed)


def test_mma_per_category_loads_constant():
    rng = random.Random(4040)
    for _ in range(120):
        system = random_system(rng)
        out, trace = mma_allocate(system)
        initial_loads = trace.initial.loads(system.num_categories)
        assert out.loads(system.num_categories) == initial_loads
        # every prefix of the replay keeps the load vector
        match = GraphMatching.from_matching(trace.initial, system.num_categories)
        for entry in trace.log:
            if entry.outcome == "displaced":
                match.unassign(entry.displaced)
                match.assign(entry.agent, entry.category)
                assert tuple(match.load) == initial_loads


def test_mma_four_axioms_on_sweep():
    rng = random.Random(31337)
    for _ in range(150):
        system = random_system(rng, max_agents=6)
        maxima = oracle_maxima(system)
        out, _ = mma_allocate(system)
        verdicts = fundamental_verdicts(system, out, maxima.m)
        assert all(v.passed for v in verdicts), (system, out)


def test_mma_consistent_matching_failure_witness(contested_pair):
    """Different proposal policies from the same seed give different
    matchings (and even different matched sets)."""
    seed = seed_matching((0, None, 1), 2)
    first, _ = mma_allocate(contested_pair, initial=seed.copy())
    second, _ = mma_allocate(contested_pair, initial=seed.copy(), category_order=(1, 0))
    assert first != second
    assert set(first.matched_agents()) != set(second.matched_agents())


def test_mma_characterization_small():
    """Every four-axiom matching is reachable by some run, and every run
    yields a four-axiom matching (exhaustive execution-tree enumeration)."""
    rng = random.Random(2718)
    for _ in range(40):
        system = random_system(rng, max_agents=4, max_categories=2)
        maxima = oracle_maxima(system)
        produced = mma_induced_matchings(system, maxima)
        assert produced == set(maxima.four_axiom_matchings)


# ``mma_allocate`` as it was with tuple heaps, every unmatched agent in the
# pool and a stale-entry check, kept line for line but for its name and
# docstring: the rule's output and its whole trace follow the pop order.
def _mma_reference(system, initial=None, agent_order=None, category_order=None):
    graph = build_graph(system)
    if initial is None:
        match = maximum_matching(graph)
    else:
        match = initial.copy()
        best = maximum_matching(graph, seed=match)
        if best.size() != match.size():
            raise NotMaximumSeed(
                f"seed has {match.size()} matched agents, maximum is {best.size()}"
            )
    initial_matching = match.to_matching()

    if agent_order is None:
        agent_rank = list(range(system.num_agents))
    else:
        order = _validate_permutation(agent_order, system.num_agents, "agent order")
        agent_rank = [0] * system.num_agents
        for rank, a in enumerate(order):
            agent_rank[a] = rank
    if category_order is None:
        cats_of = graph.agent_adj
    else:
        order = _validate_permutation(
            category_order, system.num_categories, "category order"
        )
        cat_rank = [0] * system.num_categories
        for rank, c in enumerate(order):
            cat_rank[c] = rank
        cats_of = [sorted(adj, key=cat_rank.__getitem__) for adj in graph.agent_adj]
    position = [ranking.position for ranking in system.priorities]
    occupants = [
        [(-position[c](b), b) for b in match.members[c]]
        for c in range(system.num_categories)
    ]
    for heap in occupants:
        heapq.heapify(heap)

    capacities, load, assignment = graph.capacities, match.load, match.assignment
    proposed = [0] * system.num_agents
    log = []
    pool = [
        (agent_rank[a], a)
        for a in range(system.num_agents)
        if assignment[a] is None
    ]
    heapq.heapify(pool)
    while pool:
        _, agent = heapq.heappop(pool)
        if assignment[agent] is not None:
            continue  # stale entry
        cats = cats_of[agent]
        i = proposed[agent]
        while i < len(cats):
            c = cats[i]
            i += 1
            assert load[c] == capacities[c]
            heap = occupants[c]
            if not heap:
                continue  # zero-capacity category
            rank = position[c](agent)
            if rank < -heap[0][0]:
                lowest = heapq.heapreplace(heap, (-rank, agent))[1]
                match.unassign(lowest)
                match.assign(agent, c)
                log.append(TraceEntry(agent, c, DISPLACED, lowest))
                heapq.heappush(pool, (agent_rank[lowest], lowest))
                break
            log.append(TraceEntry(agent, c, SKIPPED))
        proposed[agent] = i
    return match.to_matching(), MMATrace(initial_matching, tuple(log))


def _random_maximum_seed(rng, system):
    """A maximum matching grown by Hopcroft-Karp from a random feasible
    partial one, so that it is seldom the rule's own start."""
    graph = build_graph(system)
    start = GraphMatching(system.num_agents, system.num_categories)
    for a in rng.sample(range(system.num_agents), system.num_agents):
        open_ = [c for c in graph.agent_adj[a] if start.load[c] < graph.capacities[c]]
        if open_ and rng.random() < 0.7:
            start.assign(a, rng.choice(open_))
    return maximum_matching(graph, seed=start)


def _assert_mma_equals_reference(system, seed=None, agent_order=None, category_order=None):
    got = mma_allocate(
        system, None if seed is None else seed.copy(), agent_order, category_order
    )
    want = _mma_reference(
        system, None if seed is None else seed.copy(), agent_order, category_order
    )
    assert got[0] == want[0]
    assert got[1].initial == want[1].initial
    assert got[1].log == want[1].log
    # tuple == would let plain tuples pass; replay and the tests read fields
    assert all(type(e) is TraceEntry for e in got[1].log)
    return want[1]


def test_mma_equals_reference_on_random_instances():
    rng = random.Random(2323)
    shapes = dict.fromkeys(
        ("agent order", "category order", "seed", "zero capacity",
         "agent without category", "displacement"), 0
    )
    for trial in range(1200):
        system = GeneratorSpec(
            num_agents=rng.randint(0, 30),
            num_categories=rng.randint(1, 5),
            capacity=rng.choice(["const:0", "const:1", "uniform:0:3", "uniform:1:6"]),
            density=rng.choice([0.1, 0.3, 0.6, 1.0]),
            seed=trial,
        ).build()
        n, k = system.num_agents, system.num_categories
        agent_order = rng.sample(range(n), n) if rng.random() < 0.5 else None
        category_order = rng.sample(range(k), k) if rng.random() < 0.5 else None
        seed = _random_maximum_seed(rng, system) if rng.random() < 0.5 else None
        trace = _assert_mma_equals_reference(system, seed, agent_order, category_order)
        shapes["agent order"] += agent_order is not None
        shapes["category order"] += category_order is not None
        shapes["seed"] += seed is not None
        shapes["zero capacity"] += 0 in system.capacities
        shapes["agent without category"] += not all(build_graph(system).agent_adj)
        shapes["displacement"] += any(e.outcome == DISPLACED for e in trace.log)
    assert all(shapes.values()), shapes


def test_mma_equals_reference_at_mma_large_size():
    system = GeneratorSpec(4000, 10, capacity="const:200", density=0.1, seed=51).build()
    order = random.Random(51).sample(range(4000), 4000)
    trace = _assert_mma_equals_reference(system)
    assert sum(e.outcome == DISPLACED for e in trace.log) > 100
    _assert_mma_equals_reference(system, agent_order=order)


def test_mma_faster_than_rev_at_360_agents():
    """Time both rules at 120 and 360 agents; mma must be faster than rev at
    360. Criterion 9 checks that the ratio grows with size."""
    from reservematch.cli import GeneratorSpec

    ratios = []
    for size in (120, 360):
        spec = GeneratorSpec(size, 6, capacity=f"const:{size // 12}", density=0.2, seed=9)
        system = spec.build()
        t0 = time.perf_counter()
        mma_allocate(system)
        t_mma = time.perf_counter() - t0
        t0 = time.perf_counter()
        rev_allocate(system, list(range(size)))
        t_rev = time.perf_counter() - t0
        ratios.append(t_rev / max(t_mma, 1e-9))
    assert ratios[-1] > 1.0
