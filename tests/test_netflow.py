from __future__ import annotations

import itertools
import random

import pytest

from reservematch.cli import GeneratorSpec
from reservematch.model import Matching, as_sequential
from reservematch.netflow import (
    BoundedFlowNetwork,
    DecodeAmbiguity,
    Flow,
    OPEN_CLASS,
    PREF_CLASS,
    WarmFlow,
    _verify,
    agent_groups,
    build_compact_network,
    build_reserve_network,
    feasible_flow,
    flow_to_matching,
    matching_to_flow,
)
from reservematch.rules_sequential import dual_maximum_matching


def enumerate_matchings(system):
    """Brute-force oracle over all eligibility-compliant matchings."""
    base = system.base
    options = [(None,) + base.agent_categories(a) for a in range(base.num_agents)]
    for combo in itertools.product(*options):
        loads = [0] * base.num_categories
        ok = True
        for c in combo:
            if c is not None:
                loads[c] += 1
                if loads[c] > base.capacities[c]:
                    ok = False
                    break
        if ok:
            yield Matching(combo)


def test_reserve_network_shape(grouped_six):
    rn = build_reserve_network(grouped_six)
    net = rn.network
    # s + 6 agents + 3 categories + 2 class nodes + t
    assert net.num_nodes == 13
    assert len(rn.group_edge) == 6
    assert len(rn.assign_edge) == 12
    open_edge = rn.class_edge[OPEN_CLASS]
    pref_edge = rn.class_edge[PREF_CLASS]
    assert (net.lower[open_edge], net.upper[open_edge]) == (0, 3)
    assert (net.lower[pref_edge], net.upper[pref_edge]) == (0, 3)


def test_reserve_network_no_preferential(precedence_chain):
    rn = build_reserve_network(precedence_chain)
    pref_node = rn.class_node[PREF_CLASS]
    incoming = [e for e in range(rn.network.num_edges()) if rn.network.dst[e] == pref_node]
    assert incoming == []


def test_reserve_network_single_pair():
    from reservematch.model import (
        PrecedenceOrder,
        PriorityRanking,
        ReserveSystem,
        SequentialReserveSystem,
    )

    system = SequentialReserveSystem(
        base=ReserveSystem(1, 1, (1,), (PriorityRanking((0,), 1),)),
        preferential=frozenset(),
        precedence=PrecedenceOrder((0,)),
    )
    rn = build_reserve_network(system)
    flow = matching_to_flow(rn, system, _dual_maximum(system))
    assert flow.total == 1


def test_feasible_with_witness(grouped_six):
    rn = build_reserve_network(grouped_six)
    net = rn.network
    net.set_lower(rn.assign_edge[(1, 0)], 1)
    net.set_lower(rn.class_edge[PREF_CLASS], 2)
    net.set_lower(rn.class_edge[OPEN_CLASS], 1)
    flow = feasible_flow(net)
    assert flow is not None  # witnessed by 1->c0, 3->c1, 4->c2


def test_infeasible_conflicting_lowers(grouped_six):
    rn = build_reserve_network(grouped_six)
    net = rn.network
    net.set_lower(rn.assign_edge[(0, 0)], 1)
    net.set_lower(rn.assign_edge[(0, 1)], 1)  # one agent cannot carry two units
    assert feasible_flow(net) is None


def test_all_zero_lowers_feasible(grouped_six):
    rn = build_reserve_network(grouped_six)
    assert feasible_flow(rn.network) is not None


def _dual_maximum(system):
    return dual_maximum_matching(system)[0].to_matching()


def _class_bounds_feasible(build, seq, pref, open_):
    rn = build(seq)
    rn.network.set_lower(rn.class_edge[PREF_CLASS], pref)
    rn.network.set_lower(rn.class_edge[OPEN_CLASS], open_)
    return feasible_flow(rn.network) is not None


def _maxima_are_tight(build, seq, b, m):
    """The network carries class totals (b, m - b), and raising either
    class lower bound by one leaves no feasible flow."""
    return [
        _class_bounds_feasible(build, seq, pref, open_)
        for pref, open_ in ((b, m - b), (b + 1, m - b), (b, m - b + 1))
    ] == [True, False, False]


def test_flow_maxima_match_oracle(grouped_six, precedence_chain):
    for system in (grouped_six, precedence_chain):
        seq = as_sequential(system)
        space = list(enumerate_matchings(seq))
        b = max(mu.beneficiary_count(seq.preferential) for mu in space)
        m = max(mu.matched_count() for mu in space)
        for build in (build_reserve_network, build_compact_network):
            assert _maxima_are_tight(build, seq, b, m)


def test_compact_and_full_agree_on_maxima(grouped_six):
    for build in (build_reserve_network, build_compact_network):
        assert _maxima_are_tight(build, grouped_six, 2, 3)


def test_matching_to_flow_round_trip():
    """The dual maximum carried through either network meets the class
    totals (b, m - b) and totals m; the full network decodes it back."""
    rng = random.Random(1957)
    for _ in range(240):
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.randint(0, 12),
            num_categories=rng.randint(1, 4),
            capacity=rng.choice(["uniform:0:3", "const:0", "const:1"]),
            density=rng.choice([0.2, 0.5, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme=rng.choice(["equal", "strict", "random:2"]),
            seed=rng.randrange(1 << 30),
        ).build())
        mu, b, m = dual_maximum_matching(seq)
        matching = mu.to_matching()
        for build in (build_reserve_network, build_compact_network):
            rn = build(seq)
            net = rn.network
            net.set_lower(rn.class_edge[PREF_CLASS], b)
            net.set_lower(rn.class_edge[OPEN_CLASS], m - b)
            flow = matching_to_flow(rn, seq, matching)
            _verify(net, list(flow.values))
            assert flow.total == m
            if build is build_reserve_network:
                assert flow_to_matching(rn, flow) == matching


def test_agent_groups(grouped_six):
    groups = agent_groups(grouped_six)
    assert groups == {0: (0, 1, 2), 1: (3, 4, 5)}
    cn = build_compact_network(grouped_six)
    edge = cn.group_edge[0]
    assert (cn.network.lower[edge], cn.network.upper[edge]) == (0, 3)
    assert set(cn.assign_edge) == {(0, 0), (0, 1), (1, 1), (1, 2)}


def test_groups_all_distinct_and_all_same(contested_pair, precedence_chain):
    assert len(agent_groups(as_sequential(contested_pair))) == 3
    from reservematch.model import (
        PrecedenceOrder,
        PriorityRanking,
        ReserveSystem,
        SequentialReserveSystem,
    )

    same = SequentialReserveSystem(
        base=ReserveSystem(
            4,
            2,
            (1, 1),
            (PriorityRanking((0, 1, 2, 3), 4), PriorityRanking((3, 2, 1, 0), 4)),
        ),
        preferential=frozenset({0}),
        precedence=PrecedenceOrder((0, 0)),
    )
    assert len(agent_groups(same)) == 1


def test_flow_to_matching_full(grouped_six):
    rn = build_reserve_network(grouped_six)
    net = rn.network
    for pair in [(1, 0), (3, 1), (4, 2)]:
        net.set_lower(rn.assign_edge[pair], 1)
    flow = feasible_flow(net)
    matching = flow_to_matching(rn, flow)
    assert matching == Matching((None, 0, None, 1, 2, None))


def test_flow_to_matching_single_edge(grouped_six):
    rn = build_reserve_network(grouped_six)
    net = rn.network
    net.set_lower(rn.assign_edge[(1, 0)], 1)
    # cap everything else so only the pinned unit flows
    for (a, c), e in rn.assign_edge.items():
        if (a, c) != (1, 0):
            net.set_upper(e, 0)
    flow = feasible_flow(net)
    assert flow_to_matching(rn, flow) == Matching((None, 0, None, None, None, None))


def test_flow_to_matching_zero_flow(grouped_six):
    rn = build_reserve_network(grouped_six)
    for e in rn.group_edge.values():
        rn.network.set_upper(e, 0)
    flow = feasible_flow(rn.network)
    assert flow_to_matching(rn, flow) == Matching((None,) * 6)


def test_compact_decode_requires_ledger_pin(grouped_six):
    cn = build_compact_network(grouped_six)
    flow = matching_to_flow(cn, grouped_six, _dual_maximum(grouped_six))
    assert flow.total > 0
    with pytest.raises(DecodeAmbiguity):
        flow_to_matching(cn, flow, ledger=[])


def test_compact_decode_equals_full_on_distinct_sets():
    """With every eligibility set distinct, each group holds one agent, so
    the compact network decodes a flow unit by unit like the full one."""
    rng = random.Random(1618)
    decoded = 0
    for _ in range(200):
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.randint(1, 8),
            num_categories=rng.randint(1, 4),
            capacity="uniform:0:3",
            density=rng.choice([0.3, 0.6]),
            preferential_fraction=rng.choice([0.0, 0.5]),
            seed=rng.randrange(1 << 30),
        ).build())
        if len(agent_groups(seq)) < seq.num_agents:
            continue
        loads = [0] * seq.num_categories
        assignment = [None] * seq.num_agents
        for agent in range(seq.num_agents):
            room = [c for c in seq.base.agent_categories(agent) if loads[c] < seq.capacities[c]]
            if room and rng.random() < 0.7:
                assignment[agent] = rng.choice(room)
                loads[assignment[agent]] += 1
        matching = Matching(tuple(assignment))
        for build in (build_reserve_network, build_compact_network):
            rn = build(seq)
            for (k, c), e in rn.assign_edge.items():
                (agent,) = rn.group_members[k]
                if assignment[agent] == c:
                    rn.network.set_lower(e, 1)
                else:
                    rn.network.set_upper(e, 0)
            assert flow_to_matching(rn, feasible_flow(rn.network)) == matching
        decoded += 1
    assert decoded >= 50
    cn = build_compact_network(as_sequential(GeneratorSpec(3, 1, seed=5).build()))
    idle = Flow((0,) * cn.network.num_edges(), 0)
    with pytest.raises(DecodeAmbiguity):
        flow_to_matching(cn, idle, ledger=[(0, 0), (0, 0)])


def test_flow_values_verified_internally():
    net = BoundedFlowNetwork(3, 0, 2, names=["s", "v", "t"])
    net.add_edge(0, 1, 0, 5)
    net.add_edge(1, 2, 0, 3)
    net.set_lower(1, 3)  # the edge into the sink must run full
    flow = feasible_flow(net)
    assert flow.total == 3
    assert flow.values == (3, 3)


def test_dot_export(grouped_six):
    rn = build_reserve_network(grouped_six)
    dot = rn.network.to_dot()
    assert dot.startswith("digraph")
    assert '"(0, 3)"' in dot  # class edges carry their bound pair
    assert '"C*"' in dot and '"C0"' in dot


def _random_network(rng):
    n = rng.randint(2, 7)
    net = BoundedFlowNetwork(n, 0, n - 1)
    if rng.random() < 0.4:
        net.add_edge(0, n - 1, 0, rng.randint(1, 2))
    for _ in range(rng.randint(1, 12)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            upper = rng.randint(0, 3)
            net.add_edge(u, v, rng.choice([0, 0, 0, min(1, upper)]), upper)
    return net


def _with_lower(net, edge, value):
    copy = BoundedFlowNetwork(net.num_nodes, net.source, net.sink)
    for e in range(net.num_edges()):
        lower = value if e == edge else net.lower[e]
        copy.add_edge(net.src[e], net.dst[e], 0, net.upper[e])
        copy.set_lower(e, lower)
    return copy


def test_warm_pin_agrees_with_fresh_solve():
    rng = random.Random(2718)
    pins = successes = 0
    for _ in range(400):
        net = _random_network(rng)
        start = feasible_flow(net)
        if start is None or net.num_edges() == 0:
            continue
        warm = WarmFlow(net, start)
        for _ in range(rng.randint(1, 6)):
            e = rng.randrange(net.num_edges())
            expected = feasible_flow(_with_lower(net, e, max(1, net.lower[e]))) is not None
            before = (list(warm.values), warm.total, list(net.lower), list(net.upper))
            assert warm.pin(e) == expected
            pins += 1
            if expected:
                successes += 1
                assert net.lower[e] >= 1
                _verify(net, warm.values)
                out_of_source = sum(
                    warm.values[d] for d in range(net.num_edges()) if net.src[d] == net.source
                ) - sum(
                    warm.values[d] for d in range(net.num_edges()) if net.dst[d] == net.source
                )
                assert warm.total == out_of_source
            else:
                assert (list(warm.values), warm.total, list(net.lower), list(net.upper)) == before
    assert 0 < successes < pins


def test_warm_drop_unit_removes_a_pinned_unit(grouped_six):
    cn = build_compact_network(grouped_six)
    net = cn.network
    warm = WarmFlow(net, matching_to_flow(cn, grouped_six, _dual_maximum(grouped_six)))
    edge = cn.assign_edge[(0, 0)]
    assert warm.pin(edge)
    path = [cn.group_edge[0], edge, cn.category_edge[0], cn.class_edge[PREF_CLASS]]
    for e in path:
        net.set_upper(e, net.upper[e] - 1)
    net.set_lower(edge, 0)
    warm.drop_unit(path)
    assert warm.flow().total == 2
