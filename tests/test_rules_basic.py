from __future__ import annotations

import itertools
import random
import statistics
import time

import pytest

from util import chain_instance, fundamental_verdicts, mma_induced_matchings

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
    MMATrace,
    NotMaximumSeed,
    PrefsNotEligible,
    _validate_permutation,
    da_allocate,
    default_preferences,
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


def test_da_first_category_preference(contested_pair):
    # agent 1 prefers c0; agent 0 is pushed out and has nowhere else to go
    out = da_allocate(contested_pair, prefs=((0,), (0, 1), (1,)))
    assert out == Matching((None, 0, 1))


def test_da_second_category_preference(contested_pair):
    out = da_allocate(contested_pair, prefs=((0,), (1, 0), (1,)))
    assert out == Matching((0, 1, None))


def test_da_no_eligible_agents():
    system = ReserveSystem(
        2, 2, (1, 1), (PriorityRanking((0, 1), 0), PriorityRanking((0, 1), 0))
    )
    assert da_allocate(system) == Matching((None, None))


def test_da_default_prefs_ascending(contested_pair):
    assert default_preferences(contested_pair) == ((0,), (0, 1), (1,))
    assert da_allocate(contested_pair) == Matching((None, 0, 1))


def test_da_rejects_ineligible_pref(contested_pair):
    with pytest.raises(PrefsNotEligible):
        da_allocate(contested_pair, prefs=((0, 1), (0, 1), (1,)))


def test_da_preference_errors_name_the_first_bad_agent(contested_pair):
    # agent 1 repeats a category before agent 2 lists an ineligible one
    with pytest.raises(InstanceError, match="agent 1's preference list"):
        da_allocate(contested_pair, prefs=((0,), (0, 0), (0,)))
    # an ineligible category is named before the list's repeat
    with pytest.raises(PrefsNotEligible, match="agent 2 lists category 0"):
        da_allocate(contested_pair, prefs=((0,), (0, 1), (0, 0)))


def test_da_validates_long_chain_preferences_without_ranking_scans(monkeypatch):
    """Validating the 2000-agent chain's preference lists reads the
    eligibility graph; a per-agent scan of all 2001 rankings is banned."""
    chain = chain_instance(2000).base
    prefs = default_preferences(chain)
    expected = da_allocate(chain)

    def scan(self, agent):
        raise AssertionError("agent_categories scans every ranking")

    monkeypatch.setattr(ReserveSystem, "agent_categories", scan)
    assert da_allocate(chain, prefs) == expected


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


def _da_reference(system, prefs=None):
    """Deferred acceptance as it was before it kept each category's holders:
    every round rescans all agents, and every category all its holders."""
    if prefs is None:
        ranked = tuple(system.agent_categories(a) for a in range(system.num_agents))
    else:
        ranked = tuple(tuple(lst) for lst in prefs)
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
        prefs = [list(adj) for adj in default_preferences(system)]
        for lst in prefs:
            rng.shuffle(lst)
        assert da_allocate(system, prefs) == _da_reference(system, prefs), trial
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
            c for c in system.agent_categories(a) if system.position(c, a) < thresh[c]
        )
        for a in range(system.num_agents)
    ]
    category_adj = tuple(
        tuple(a for a, adj in enumerate(agent_adj) if c in adj)
        for c in range(system.num_categories)
    )
    return EligibilityGraph(tuple(agent_adj), category_adj, system.capacities)


def _rev_reference(system, baseline):
    """Reverse rejecting by its definition, one fresh maximum matching per
    agent: reject i iff the graph without i and without the edges ranked
    below i keeps a matching of the original size."""
    removed = [False] * system.num_agents
    thresh = [system.priorities[c].eligible_cutoff for c in range(system.num_categories)]
    m = maximum_matching(_thresholded_graph(system, removed, thresh)).size()
    for agent in reversed(baseline):
        cut = list(thresh)
        for c in system.agent_categories(agent):
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
            for c in self.system.agent_categories(agent)
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
    category_adj = [[] for _ in range(system.num_categories)]
    for a, adj in enumerate(agent_adj):
        for c in adj:
            category_adj[c].append(a)
    final_graph = EligibilityGraph(
        tuple(agent_adj),
        tuple(tuple(adj) for adj in category_adj),
        graph.capacities,
    )
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
    augment = rules_basic._augment_once

    def counted_augment(*args):
        searches.append(None)
        return augment(*args)

    monkeypatch.setattr(rules_basic, "_augment_once", counted_augment)
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


def test_mma_faster_than_rev_trend():
    """Time both rules on growing instances; the ratio must grow with size."""
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
