from __future__ import annotations

import contextlib
import itertools
import random
import re
import signal
from collections import Counter, deque
from operator import lt
from typing import Optional

import pytest

from util import (
    add_edge,
    agent_categories,
    agent_groups,
    assign_edge_map,
    class_node,
    set_upper,
)

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
    build_compact_network,
    build_reserve_network,
    feasible_flow,
    flow_to_matching,
    matching_to_flow,
    pinned_alternative,
)
from reservematch.rules_sequential import dual_maximum_matching


def enumerate_matchings(system):
    """Brute-force oracle over all eligibility-compliant matchings."""
    base = system.base
    options = [(None,) + agent_categories(base, a) for a in range(base.num_agents)]
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
    assert len(assign_edge_map(rn)) == 12
    open_edge = rn.class_edge[OPEN_CLASS]
    pref_edge = rn.class_edge[PREF_CLASS]
    assert (net.lower[open_edge], net.upper[open_edge]) == (0, 3)
    assert (net.lower[pref_edge], net.upper[pref_edge]) == (0, 3)


def test_reserve_network_no_preferential(precedence_chain):
    rn = build_reserve_network(precedence_chain)
    pref_node = class_node(rn)[PREF_CLASS]
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
    net.set_lower(rn.assign_edge(1, 0), 1)
    net.set_lower(rn.class_edge[PREF_CLASS], 2)
    net.set_lower(rn.class_edge[OPEN_CLASS], 1)
    flow = feasible_flow(net)
    assert flow is not None  # witnessed by 1->c0, 3->c1, 4->c2


def test_infeasible_conflicting_lowers(grouped_six):
    rn = build_reserve_network(grouped_six)
    net = rn.network
    net.set_lower(rn.assign_edge(0, 0), 1)
    net.set_lower(rn.assign_edge(0, 1), 1)  # one agent cannot carry two units
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
    assert set(assign_edge_map(cn)) == {(0, 0), (0, 1), (1, 1), (1, 2)}


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
        net.set_lower(rn.assign_edge(*pair), 1)
    flow = feasible_flow(net)
    matching = flow_to_matching(rn, flow)
    assert matching == Matching((None, 0, None, 1, 2, None))


def test_flow_to_matching_single_edge(grouped_six):
    rn = build_reserve_network(grouped_six)
    net = rn.network
    net.set_lower(rn.assign_edge(1, 0), 1)
    # cap everything else so only the pinned unit flows
    for (a, c), e in assign_edge_map(rn).items():
        if (a, c) != (1, 0):
            set_upper(net, e, 0)
    flow = feasible_flow(net)
    assert flow_to_matching(rn, flow) == Matching((None, 0, None, None, None, None))


def test_flow_to_matching_zero_flow(grouped_six):
    rn = build_reserve_network(grouped_six)
    for e in rn.group_edge:
        set_upper(rn.network, e, 0)
    flow = feasible_flow(rn.network)
    assert flow_to_matching(rn, flow) == Matching((None,) * 6)


def test_compact_decode_requires_ledger_pin(grouped_six):
    cn = build_compact_network(grouped_six)
    flow = matching_to_flow(cn, grouped_six, _dual_maximum(grouped_six))
    assert flow.total > 0
    with pytest.raises(DecodeAmbiguity):
        flow_to_matching(cn, flow)


def test_decode_rejects_an_agent_carrying_two_units(grouped_six):
    rn = build_reserve_network(grouped_six)
    edges = assign_edge_map(rn)
    values = [0] * rn.network.num_edges()
    values[edges[1, 0]] = values[edges[1, 1]] = 1  # agent 1's group into c0 and c1
    with pytest.raises(DecodeAmbiguity, match="^agent 1 carries two units$"):
        flow_to_matching(rn, Flow(tuple(values), 2))


@pytest.mark.parametrize(
    "lower, upper", [(-1, 1), (2, 1)], ids=["negative-lower", "upper-below-lower"]
)
def test_add_edges_rejects_bad_bounds_before_adding_any_edge(lower, upper):
    network = BoundedFlowNetwork(2, 0, 1)
    message = re.escape(f"bad bounds ({lower}, {upper}) on edge 1->0")
    with pytest.raises(ValueError, match=f"^{message}$"):
        network.add_edges([0, 1], [1, 0], [0, lower], [1, upper])
    assert network.num_edges() == 0


# flow values on the path source 0 -> 1 -> sink 2, each edge bounded [0, 2]
@pytest.mark.parametrize(
    "values, message",
    [
        ([1], "1 flow values for 2 edges"),
        ([3, 3], "edge 0 flow 3 outside [0, 2]"),
        ([2, 1], "conservation violated at node 1"),
    ],
    ids=["wrong-length", "out-of-bounds", "not-conserved"],
)
def test_verify_rejects_a_flow_that_breaks_the_network(values, message):
    network = BoundedFlowNetwork(3, 0, 2)
    network.add_edges([0, 1], [1, 2], [0, 0], [2, 2])
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        _verify(network, values)


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
            room = [c for c in agent_categories(seq.base, agent) if loads[c] < seq.capacities[c]]
            if room and rng.random() < 0.7:
                assignment[agent] = rng.choice(room)
                loads[assignment[agent]] += 1
        matching = Matching(tuple(assignment))
        for build in (build_reserve_network, build_compact_network):
            rn = build(seq)
            for (k, c), e in assign_edge_map(rn).items():
                (agent,) = rn.group_members[k]
                if assignment[agent] == c:
                    rn.network.set_lower(e, 1)
                else:
                    set_upper(rn.network, e, 0)
            assert flow_to_matching(rn, feasible_flow(rn.network)) == matching
        decoded += 1
    assert decoded >= 50


def test_flow_values_verified_internally():
    net = BoundedFlowNetwork(3, 0, 2)
    add_edge(net, 0, 1, 0, 5)
    add_edge(net, 1, 2, 0, 3)
    net.set_lower(1, 3)  # the edge into the sink must run full
    flow = feasible_flow(net)
    assert flow.total == 3
    assert flow.values == (3, 3)


def test_dot_export(grouped_six):
    rn = build_reserve_network(grouped_six)
    dot = rn.to_dot()
    assert dot.startswith("digraph")
    assert '"(0, 3)"' in dot  # class edges carry their bound pair
    assert '"C*"' in dot and '"C0"' in dot


def _random_network(rng):
    n = rng.randint(2, 7)
    net = BoundedFlowNetwork(n, 0, n - 1)
    if rng.random() < 0.4:
        add_edge(net, 0, n - 1, 0, rng.randint(1, 2))
    for _ in range(rng.randint(1, 12)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            upper = rng.randint(0, 3)
            add_edge(net, u, v, rng.choice([0, 0, 0, min(1, upper)]), upper)
    return net


def _with_lower(net, edge, value):
    copy = BoundedFlowNetwork(net.num_nodes, net.source, net.sink)
    for e in range(net.num_edges()):
        lower = value if e == edge else net.lower[e]
        add_edge(copy, net.src[e], net.dst[e], 0, net.upper[e])
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
            raised = net.lower[e] + 1
            expected = feasible_flow(_with_lower(net, e, raised)) is not None
            before = (warm.flow(), list(net.lower), list(net.upper))
            assert warm.pin(e) == expected
            pins += 1
            if expected:
                successes += 1
                assert net.lower[e] == raised
                flow = warm.flow()
                _verify(net, flow.values)
                out_of_source = sum(
                    flow.values[d] for d in range(net.num_edges()) if net.src[d] == net.source
                ) - sum(
                    flow.values[d] for d in range(net.num_edges()) if net.dst[d] == net.source
                )
                assert flow.total == out_of_source
            else:
                assert (warm.flow(), list(net.lower), list(net.upper)) == before
    assert 0 < successes < pins


def test_warm_flow_refuses_a_total_its_values_do_not_carry():
    net = BoundedFlowNetwork(3, 0, 2)  # s -> a -> t, both edges [0, 1]
    add_edge(net, 0, 1, 0, 1)
    add_edge(net, 1, 2, 0, 1)
    with pytest.raises(ValueError, match="total 5"):
        WarmFlow(net, Flow((1, 1), 5))
    warm = WarmFlow(net, Flow((1, 1), 1))
    assert warm.pin(0)
    assert warm.flow().total == 1


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail a block that has not ended after ``seconds`` (a search whose
    current-arc pointers stop advancing never ends) instead of hanging."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_feasible_flow_on_a_long_path():
    # one augmenting path of 3000 arcs: the blocking-flow search keeps its
    # path on a list, not on the interpreter's call stack
    n = 3000
    net = BoundedFlowNetwork(n, 0, n - 1)
    for v in range(n - 1):
        add_edge(net, v, v + 1, 0, 1)
    net.set_lower(0, 1)
    with _deadline(60):
        flow = feasible_flow(net)
    assert flow == Flow((1,) * (n - 1), 1)


# ---------------------------------------------------------------------------
# feasible_flow against the recursive reference


# ``_Dinic`` and ``feasible_flow`` as they were before the blocking-flow
# search moved onto an explicit stack, its BFS stopped at the sink and its
# residual arrays were built in bulk, kept verbatim: a refute's witness is
# decoded from this flow, so the two must return the same one.
class _DinicReference:
    """Plain max-flow core on non-negative capacities."""

    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add(self, u: int, v: int, cap: int) -> int:
        arc = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(arc)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(arc + 1)
        return arc

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue: deque[int] = deque([s])
            while queue:
                u = queue.popleft()
                for arc in self.adj[u]:
                    v = self.to[arc]
                    if self.cap[arc] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, limit: int) -> int:
                if u == t:
                    return limit
                while it[u] < len(self.adj[u]):
                    arc = self.adj[u][it[u]]
                    v = self.to[arc]
                    if self.cap[arc] > 0 and level[v] == level[u] + 1:
                        pushed = dfs(v, min(limit, self.cap[arc]))
                        if pushed > 0:
                            self.cap[arc] -= pushed
                            self.cap[arc ^ 1] += pushed
                            return pushed
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if pushed == 0:
                    break
                flow += pushed

    def flow_on(self, arc: int, original_cap: int) -> int:
        return original_cap - self.cap[arc]


def _dinic_reference(network: BoundedFlowNetwork) -> Optional[Flow]:
    """Some integral flow meeting all bounds, or None when none exists."""
    for e in range(network.num_edges()):
        if network.lower[e] > network.upper[e]:
            return None
    n = network.num_nodes
    super_s, super_t = n, n + 1
    dinic = _DinicReference(n + 2)
    excess = [0] * n
    edge_arcs: list[int] = []
    for e in range(network.num_edges()):
        lo, up = network.lower[e], network.upper[e]
        edge_arcs.append(dinic.add(network.src[e], network.dst[e], up - lo))
        excess[network.dst[e]] += lo
        excess[network.src[e]] -= lo
    dinic.add(network.sink, network.source, 1 << 60)
    need = 0
    for v in range(n):
        if excess[v] > 0:
            dinic.add(super_s, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            dinic.add(v, super_t, -excess[v])
    if dinic.max_flow(super_s, super_t) < need:
        return None
    values = [
        network.lower[e] + dinic.flow_on(edge_arcs[e], network.upper[e] - network.lower[e])
        for e in range(network.num_edges())
    ]
    _verify(network, values)
    total = sum(
        values[e] for e in range(network.num_edges()) if network.src[e] == network.source
    ) - sum(
        values[e] for e in range(network.num_edges()) if network.dst[e] == network.source
    )
    return Flow(tuple(values), total)


def test_feasible_flow_equals_reference_on_random_networks():
    rng = random.Random(1970)
    feasible = 0
    for trial in range(1000):
        net = _random_network(rng)
        expected = _dinic_reference(net)
        with _deadline(60):
            got = feasible_flow(net)
        assert got == expected, (trial, net.src, net.dst, net.lower, net.upper)
        feasible += expected is not None
    assert 100 < feasible < 900


def _random_pins(rng, seq, rn):
    """Unit lower bounds on a few assignment edges: the pairs of a random
    eligibility-compliant matching, or arbitrary edges."""
    if rng.random() < 0.5:
        loads = [0] * seq.num_categories
        pairs = []
        for agent in rng.sample(range(seq.num_agents), seq.num_agents):
            room = [
                c for c in agent_categories(seq.base, agent) if loads[c] < seq.capacities[c]
            ]
            if room and rng.random() < 0.5:
                c = rng.choice(room)
                loads[c] += 1
                pairs.append((agent, c))
        return pairs
    edges = sorted(assign_edge_map(rn))
    return rng.sample(edges, min(len(edges), rng.randint(1, 6)))


def test_feasible_flow_equals_reference_on_reserve_networks():
    rng = random.Random(1956)
    feasible = infeasible = 0
    for trial in range(300):
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.randint(1, 40),
            num_categories=rng.randint(1, 6),
            capacity=rng.choice(["uniform:0:3", "uniform:1:6", "const:2"]),
            density=rng.choice([0.2, 0.5, 0.9]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme=rng.choice(["strict", "random:2", "equal"]),
            seed=rng.randrange(1 << 30),
        ).build())
        _, b, m = dual_maximum_matching(seq)
        rn = build_reserve_network(seq)
        net = rn.network
        for pin in _random_pins(rng, seq, rn):
            net.set_lower(rn.assign_edge(*pin), 1)
        net.set_lower(rn.class_edge[PREF_CLASS], b)
        net.set_lower(rn.class_edge[OPEN_CLASS], m - b)
        expected = _dinic_reference(net)
        with _deadline(60):
            got = feasible_flow(net)
        assert got == expected, trial
        if expected is None:
            infeasible += 1
        else:
            feasible += 1
    assert feasible > 50 and infeasible > 50


# ---------------------------------------------------------------------------
# WarmFlow against its incidence-list form


# ``WarmFlow`` as it was before it moved onto ``_Dinic``'s arc arrays, kept
# verbatim but for its name: each scu candidate of the ``flow`` and
# ``compact`` rules is one pin, so the two must take the same cycle, answer
# every pin alike and hold the same flow after it.
class _WarmFlowReference:
    """A feasible integral flow kept feasible while lower bounds rise one
    unit at a time.

    When an edge carries no unit above its lower bound, a feasible flow with
    that bound one higher exists exactly when the residual graph of the
    current flow has a cycle through the edge (feasible flows with lower
    bounds: Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 6), so each
    pin is at most one breadth-first search instead of a fresh solve. The
    residual graph is the one ``feasible_flow`` solves: every edge plus an
    uncapacitated sink -> source arc carrying ``total``.
    """

    __slots__ = ("network", "values", "total", "_incident")

    def __init__(self, network: BoundedFlowNetwork, flow: Flow):
        self.network = network
        self.values = list(flow.values)
        self.total = flow.total
        _verify(network, self.values)
        # arcs at each node in edge-id order; -1 is the sink -> source arc
        self._incident: list[list[int]] = [[] for _ in range(network.num_nodes)]
        for e in range(network.num_edges()):
            self._incident[network.src[e]].append(e)
            if network.dst[e] != network.src[e]:
                self._incident[network.dst[e]].append(e)
        self._incident[network.source].append(-1)
        self._incident[network.sink].append(-1)

    def flow(self) -> Flow:
        """Snapshot of the maintained flow, checked in full."""
        _verify(self.network, self.values)
        return Flow(tuple(self.values), self.total)

    def pin(self, edge: int) -> bool:
        """Raise ``edge``'s lower bound by one and keep the flow feasible;
        False (and nothing changed) when no feasible flow carries that many
        units there. A unit above the old bound is pinned in place; else
        one residual cycle through the edge brings one in."""
        net, values = self.network, self.values
        if values[edge] <= net.lower[edge]:
            if values[edge] >= net.upper[edge]:
                return False
            cycle = self._residual_path(net.dst[edge], net.src[edge])
            if cycle is None:
                return False
            cycle.append((edge, 1))
            for e, step in cycle:
                if e < 0:
                    self.total += step
                    assert self.total >= 0, "sink -> source flow went negative"
                else:
                    values[e] += step
                    assert net.lower[e] <= values[e] <= net.upper[e], (
                        f"edge {e} flow {values[e]} outside "
                        f"[{net.lower[e]}, {net.upper[e]}]"
                    )
        net.set_lower(edge, net.lower[edge] + 1)
        return True

    def _residual_path(self, start: int, goal: int) -> Optional[list[tuple[int, int]]]:
        """Shortest residual path as (edge, +1 forward / -1 backward) steps,
        closing as soon as ``goal`` is discovered."""
        net, values = self.network, self.values
        src, dst, lower, upper = net.src, net.dst, net.lower, net.upper
        source, sink = net.source, net.sink
        parent: dict[int, tuple[int, int, int]] = {start: (start, 0, 0)}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for e in self._incident[u]:
                if e < 0:
                    if u == sink:
                        v, step = source, 1
                    elif self.total > 0:
                        v, step = sink, -1
                    else:
                        continue
                elif src[e] == u:
                    if values[e] >= upper[e]:
                        continue
                    v, step = dst[e], 1
                else:
                    if values[e] <= lower[e]:
                        continue
                    v, step = src[e], -1
                if v in parent:
                    continue
                parent[v] = (u, e, step)
                if v == goal:
                    path = []
                    while v != start:
                        v, e, step = parent[v]
                        path.append((e, step))
                    path.reverse()
                    return path
                queue.append(v)
        return None


def _pins_agree(warm, reference, edges):
    """Pin ``edges`` in turn on both engines, each on its own copy of one
    network; the answer, the flow and the lower bounds agree after every
    pin. Returns the number of pins that succeeded."""
    successes = 0
    for e in edges:
        answer = warm.pin(e)
        assert answer == reference.pin(e), e
        assert warm.flow() == reference.flow(), e
        assert warm.network.lower == reference.network.lower, e
        successes += answer
    return successes


def _copy_network(net):
    copy = BoundedFlowNetwork(net.num_nodes, net.source, net.sink)
    copy.add_edges(list(net.src), list(net.dst), list(net.lower), list(net.upper))
    return copy


def test_warm_flow_equals_reference_on_random_networks():
    rng = random.Random(1993)
    pins = successes = 0
    for _ in range(1500):
        net = _random_network(rng)
        start = feasible_flow(net)
        if start is None or net.num_edges() == 0:
            continue
        twin = _copy_network(net)
        edges = [rng.randrange(net.num_edges()) for _ in range(rng.randint(1, 12))]
        successes += _pins_agree(WarmFlow(net, start), _WarmFlowReference(twin, start), edges)
        pins += len(edges)
    assert 0.2 * pins < successes < 0.8 * pins


@pytest.mark.parametrize("build", [build_reserve_network, build_compact_network],
                         ids=["full", "compact"])
def test_warm_flow_equals_reference_on_reserve_networks(build):
    """Started as the ``flow`` and ``compact`` scu states start: class
    bounds b and m - b, the flow of the dual maximum matching."""
    rng = random.Random(2024)
    pins = successes = 0
    for _ in range(150):
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.randint(1, 40),
            num_categories=rng.randint(1, 6),
            capacity=rng.choice(["uniform:0:3", "uniform:1:6", "const:2"]),
            density=rng.choice([0.2, 0.5, 0.9]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme=rng.choice(["strict", "random:2", "equal"]),
            seed=rng.randrange(1 << 30),
        ).build())
        mu, b, m = dual_maximum_matching(seq)
        engines = []
        for engine in (WarmFlow, _WarmFlowReference):
            rn = build(seq)
            rn.network.set_lower(rn.class_edge[PREF_CLASS], b)
            rn.network.set_lower(rn.class_edge[OPEN_CLASS], m - b)
            engines.append(engine(rn.network, matching_to_flow(rn, seq, mu.to_matching())))
        assign = sorted(assign_edge_map(rn).values())
        if not assign:
            continue
        edges = [
            rng.choice(assign) if rng.random() < 0.8 else rng.randrange(rn.network.num_edges())
            for _ in range(rng.randint(1, 3 * seq.num_agents))
        ]
        successes += _pins_agree(*engines, edges)
        pins += len(edges)
    assert 0.1 * pins < successes < 0.9 * pins


# ---------------------------------------------------------------------------
# Reserve networks against the two builders they replaced


# ``BoundedFlowNetwork`` (with its node names and ``to_dot``),
# ``ReserveNetwork``, ``_layers``, ``_add_class_edges``,
# ``build_reserve_network``, ``_eligibility_classes`` and
# ``build_compact_network`` as they were before the one ``ReserveNetwork``
# constructor, kept line for line but for names, annotations and docstrings:
# Dinic's arc order, and so every precedence witness, follows the full
# network's edge ids, and the DOT export prints them.
class _NetworkReference:
    def __init__(self, num_nodes, source, sink, names=None):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.names = names or [str(v) for v in range(num_nodes)]
        self.src: list[int] = []
        self.dst: list[int] = []
        self.lower: list[int] = []
        self.upper: list[int] = []

    def add_edge(self, u, v, lower=0, upper=0):
        if lower < 0 or upper < lower:
            raise ValueError(f"bad bounds ({lower}, {upper}) on edge {u}->{v}")
        self.src.append(u)
        self.dst.append(v)
        self.lower.append(lower)
        self.upper.append(upper)
        return len(self.src) - 1

    def add_edges(self, us, vs, lower, upper):
        if (lower and min(lower) < 0) or any(map(lt, upper, lower)):
            k = next(k for k, (lo, up) in enumerate(zip(lower, upper)) if lo < 0 or up < lo)
            raise ValueError(f"bad bounds ({lower[k]}, {upper[k]}) on edge {us[k]}->{vs[k]}")
        first = len(self.src)
        self.src += us
        self.dst += vs
        self.lower += lower
        self.upper += upper
        return range(first, len(self.src))

    def num_edges(self):
        return len(self.src)

    def to_dot(self):
        lines = ["digraph flow {", "  rankdir=LR;"]
        for v in range(self.num_nodes):
            lines.append(f'  n{v} [label="{self.names[v]}"];')
        for e in range(self.num_edges()):
            lines.append(
                f'  n{self.src[e]} -> n{self.dst[e]} '
                f'[label="({self.lower[e]}, {self.upper[e]})"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


class _ReserveReference:
    def __init__(self, network, group_of, group_members, group_node, category_node, class_node):
        self.network = network
        self.group_of = group_of
        self.group_members = group_members
        self.group_node = group_node
        self.category_node = category_node
        self.class_node = class_node
        self.group_edge: dict[int, int] = {}
        self.assign_edge: dict[tuple[int, int], int] = {}
        self.category_edge: dict[int, int] = {}
        self.class_edge: dict[str, int] = {}


def _layers_reference(system, label, groups):
    num_groups, num_categories = len(groups), system.num_categories
    names = (
        ["s"]
        + [f"{label}{k}" for k in range(num_groups)]
        + [f"c{c}" for c in range(num_categories)]
        + ["C0", "C*", "t"]
    )
    open_node = 1 + num_groups + num_categories
    return _ReserveReference(
        network=_NetworkReference(len(names), source=0, sink=open_node + 2, names=names),
        group_of={a: k for k, members in enumerate(groups) for a in members},
        group_members=groups,
        group_node=list(range(1, 1 + num_groups)),
        category_node=list(range(1 + num_groups, open_node)),
        class_node={OPEN_CLASS: open_node, PREF_CLASS: open_node + 1},
    )


def _add_class_edges_reference(system, rn):
    net = rn.network
    total_capacity = sum(system.capacities)
    open_node, pref_node = rn.class_node[OPEN_CLASS], rn.class_node[PREF_CLASS]
    for c in range(system.num_categories):
        target = pref_node if system.is_beneficial(c) else open_node
        rn.category_edge[c] = net.add_edge(
            rn.category_node[c], target, 0, system.capacities[c]
        )
    rn.class_edge[OPEN_CLASS] = net.add_edge(open_node, net.sink, 0, total_capacity)
    rn.class_edge[PREF_CLASS] = net.add_edge(pref_node, net.sink, 0, total_capacity)
    return rn


def _reserve_network_reference(system):
    base = system.base
    n = base.num_agents
    rn = _layers_reference(system, "i", [(a,) for a in range(n)])
    net, agent_node = rn.network, rn.group_node
    rn.group_edge.update(zip(range(n), net.add_edges([0] * n, agent_node, [0] * n, [1] * n)))
    pairs: list[tuple[int, int]] = []
    tails: list[int] = []
    heads: list[int] = []
    for c in range(base.num_categories):
        eligible = base.eligible_agents(c)
        pairs += [(a, c) for a in eligible]
        tails += [agent_node[a] for a in eligible]
        heads += [rn.category_node[c]] * len(eligible)
    edges = net.add_edges(tails, heads, [0] * len(pairs), [1] * len(pairs))
    rn.assign_edge.update(zip(pairs, edges))
    return _add_class_edges_reference(system, rn)


def _eligibility_classes_reference(system):
    cats: list[list[int]] = [[] for _ in range(system.num_agents)]
    for c in range(system.num_categories):
        for a in system.base.eligible_agents(c):
            cats[a].append(c)
    by_set: dict[tuple[int, ...], list[int]] = {}
    for a in range(system.num_agents):
        by_set.setdefault(tuple(cats[a]), []).append(a)
    return [(key, tuple(members)) for key, members in by_set.items()]


def _compact_network_reference(system):
    classes = _eligibility_classes_reference(system)
    rn = _layers_reference(system, "k", [members for _, members in classes])
    net = rn.network
    for k, (eligible, members) in enumerate(classes):
        size = len(members)
        rn.group_edge[k] = net.add_edge(0, rn.group_node[k], 0, size)
        for c in eligible:
            rn.assign_edge[(k, c)] = net.add_edge(
                rn.group_node[k], rn.category_node[c], 0, size
            )
    return _add_class_edges_reference(system, rn)


def _edge(net, e):
    return net.src[e], net.dst[e], net.lower[e], net.upper[e]


def test_reserve_networks_equal_reference():
    """The full network keeps every node id, edge id, bound, edge map and DOT
    line of the builder it replaced. The compact one keeps its nodes, group
    ids and edges, and its DOT text differs only in the order of its edge
    lines."""
    rng = random.Random(1962)
    sizes = set()
    for trial in range(300):
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.choice([0, rng.randint(1, 6), rng.randint(1, 30)]),
            num_categories=rng.choice([0, rng.randint(1, 3), rng.randint(1, 6)]),
            capacity=rng.choice(["uniform:0:3", "uniform:1:6", "const:0"]),
            density=rng.choice([0.2, 0.5, 0.9, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme=rng.choice(["strict", "random:2", "equal"]),
            seed=rng.randrange(1 << 30),
        ).build())
        sizes.add((seq.num_agents > 0, seq.num_categories > 0))

        rn, ref = build_reserve_network(seq), _reserve_network_reference(seq)
        net, ref_net = rn.network, ref.network
        assert (net.num_nodes, net.source, net.sink) == (
            ref_net.num_nodes, ref_net.source, ref_net.sink
        ), trial
        assert (net.src, net.dst, net.lower, net.upper) == (
            ref_net.src, ref_net.dst, ref_net.lower, ref_net.upper
        ), trial
        assert list(assign_edge_map(rn).items()) == list(ref.assign_edge.items()), trial
        pairs = list(itertools.product(range(seq.num_agents), range(seq.num_categories)))
        assert [rn.assign_edge(*pair) for pair in pairs] == [
            ref.assign_edge.get(pair) for pair in pairs
        ], trial
        assert dict(enumerate(rn.group_edge)) == ref.group_edge, trial
        assert dict(enumerate(rn.category_edge)) == ref.category_edge, trial
        assert (rn.class_edge, class_node(rn)) == (ref.class_edge, ref.class_node), trial
        assert dict(enumerate(rn.group_of)) == ref.group_of, trial
        assert rn.group_members == ref.group_members, trial
        assert rn.to_dot() == ref_net.to_dot(), trial

        cn, ref = build_compact_network(seq), _compact_network_reference(seq)
        net, ref_net = cn.network, ref.network
        assert cn.group_members == ref.group_members, trial
        assert dict(enumerate(cn.group_of)) == ref.group_of, trial
        assert assign_edge_map(cn).keys() == ref.assign_edge.keys(), trial
        pairs = list(itertools.product(range(len(cn.group_members)), range(seq.num_categories)))
        assert [cn.assign_edge(*pair) for pair in pairs] == [
            assign_edge_map(cn).get(pair) for pair in pairs
        ], trial
        for maps, ref_maps in (
            (assign_edge_map(cn), ref.assign_edge),
            (dict(enumerate(cn.group_edge)), ref.group_edge),
            (dict(enumerate(cn.category_edge)), ref.category_edge),
            (cn.class_edge, ref.class_edge),
        ):
            assert {key: _edge(net, e) for key, e in maps.items()} == {
                key: _edge(ref_net, e) for key, e in ref_maps.items()
            }, trial
        assert net.num_edges() == ref_net.num_edges(), trial
        lines, ref_lines = cn.to_dot().splitlines(), ref_net.to_dot().splitlines()
        assert [line for line in lines if "->" not in line] == [
            line for line in ref_lines if "->" not in line
        ], trial
        assert sorted(lines) == sorted(ref_lines), trial
    assert sizes == {(False, False), (False, True), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# The precedence witness against the reference network, Dinic and decode


def _pinned_alternative_reference(seq, pins, b, m):
    """``pinned_alternative`` on the reference builder and Dinic, decoded
    through the reference's (agent, category) -> edge dict."""
    ref = _reserve_network_reference(seq)
    net = ref.network
    for pin in pins:
        if pin not in ref.assign_edge:
            return None
        net.lower[ref.assign_edge[pin]] = 1
    net.lower[ref.class_edge[PREF_CLASS]] = b
    net.lower[ref.class_edge[OPEN_CLASS]] = m - b
    flow = _dinic_reference(net)
    if flow is None:
        return None
    assignment = [None] * seq.num_agents
    for (agent, c), e in ref.assign_edge.items():
        if flow.values[e]:
            assert assignment[agent] is None
            assignment[agent] = c
    return Matching(tuple(assignment))


def test_pinned_alternative_equals_reference():
    """Every witness a precedence refute could decode equals the one of the
    reference network, Dinic and decode, over strict, two-tier and equal
    tiers, zero capacities, agents eligible nowhere, b = 0 and m = b. Pins
    come from a random eligibility-compliant matching, as a refute's do;
    some add an ineligible pair (no witness) or a second pin on an agent."""
    rng = random.Random(1970_2025)
    seen = Counter()
    for trial in range(400):
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.randint(1, 24),
            num_categories=rng.randint(1, 5),
            capacity=rng.choice(["uniform:0:3", "uniform:1:4", "const:0", "const:2"]),
            density=rng.choice([0.1, 0.3, 0.6, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.5, 1.0]),
            tier_scheme=rng.choice(["strict", "random:2", "equal"]),
            seed=rng.randrange(1 << 30),
        ).build())
        _, b, m = dual_maximum_matching(seq)
        pins = _random_pins(rng, seq, build_reserve_network(seq))[: rng.randint(0, 6)]
        kind = rng.choice(["matching", "matching", "ineligible", "two on one agent"])
        ineligible = [
            (a, c) for a in range(seq.num_agents) for c in range(seq.num_categories)
            if not seq.base.is_eligible(a, c)
        ]
        second = [
            (a, d) for a, c in pins[:1] for d in agent_categories(seq.base, a) if d != c
        ]
        if kind == "ineligible" and ineligible:
            pins.insert(rng.randint(0, len(pins)), rng.choice(ineligible))
        elif kind == "two on one agent" and second:
            pins.append(second[0])
        else:
            kind = "matching"
        expected = _pinned_alternative_reference(seq, pins, b, m)
        assert pinned_alternative(seq, pins, b, m) == expected, trial
        seen[kind, expected is not None] += 1
        seen["no category"] += any(not agent_categories(seq.base, a) for a in range(seq.num_agents))
        seen["zero capacity"] += 0 in seq.capacities
        seen["b = 0"] += b == 0 < m
        seen["m = b"] += m == b > 0
    assert seen["ineligible", True] == 0 and seen["ineligible", False] > 20
    assert seen["two on one agent", False] > 10
    assert seen["matching", True] > 50 and seen["matching", False] > 10
    assert min(seen[key] for key in ("no category", "zero capacity", "b = 0", "m = b")) > 20
