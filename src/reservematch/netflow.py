"""Directed flow networks with per-edge lower and upper bounds.

Provides feasibility under lower bounds via the standard circulation
transformation (subtract lower bounds, add an excess/deficit supernode pair,
saturate with Dinic), a warm-started feasible flow (``WarmFlow``) that takes
unit lower bounds one at a time with one residual-cycle search each, and the
three-layer reserve network with one node per group of agents sharing an
eligibility set; the full network is the case of one agent per group. A
matching and a reserve-network flow convert both ways (``matching_to_flow``,
``flow_to_matching``). All flows are integral; augmentation and search order
are fixed by edge id, so results are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .model import Matching, SequentialReserveSystem


class DecodeAmbiguity(ValueError):
    """A flow unit names no single agent: it sits on a group of several
    agents, or on an agent that already has an assignment."""


@dataclass(frozen=True)
class Flow:
    """Integral per-edge flow values plus the total leaving the source."""

    values: tuple[int, ...]
    total: int


class BoundedFlowNetwork:
    """Edge list with mutable bounds, solved by ``feasible_flow`` or kept
    feasible by a ``WarmFlow``."""

    __slots__ = ("num_nodes", "source", "sink", "names", "src", "dst", "lower", "upper")

    def __init__(
        self,
        num_nodes: int,
        source: int,
        sink: int,
        names: Optional[list[str]] = None,
    ):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.names = names or [str(v) for v in range(num_nodes)]
        self.src: list[int] = []
        self.dst: list[int] = []
        self.lower: list[int] = []
        self.upper: list[int] = []

    def add_edge(self, u: int, v: int, lower: int = 0, upper: int = 0) -> int:
        if lower < 0 or upper < lower:
            raise ValueError(f"bad bounds ({lower}, {upper}) on edge {u}->{v}")
        self.src.append(u)
        self.dst.append(v)
        self.lower.append(lower)
        self.upper.append(upper)
        return len(self.src) - 1

    def num_edges(self) -> int:
        return len(self.src)

    def set_lower(self, edge_id: int, value: int) -> None:
        self.lower[edge_id] = value

    def set_upper(self, edge_id: int, value: int) -> None:
        self.upper[edge_id] = value

    def to_dot(self) -> str:
        """Graphviz export; edges labeled with their (lower, upper) pair."""
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


class _Dinic:
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


def _verify(network: BoundedFlowNetwork, values: list[int]) -> None:
    balance = [0] * network.num_nodes
    for e in range(network.num_edges()):
        f = values[e]
        if not network.lower[e] <= f <= network.upper[e]:
            raise AssertionError(
                f"edge {e} flow {f} outside [{network.lower[e]}, {network.upper[e]}]"
            )
        balance[network.src[e]] -= f
        balance[network.dst[e]] += f
    for v in range(network.num_nodes):
        if v in (network.source, network.sink):
            continue
        if balance[v] != 0:
            raise AssertionError(f"conservation violated at node {v}")


def feasible_flow(network: BoundedFlowNetwork) -> Optional[Flow]:
    """Some integral flow meeting all bounds, or None when none exists."""
    for e in range(network.num_edges()):
        if network.lower[e] > network.upper[e]:
            return None
    n = network.num_nodes
    super_s, super_t = n, n + 1
    dinic = _Dinic(n + 2)
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


class WarmFlow:
    """A feasible integral flow kept feasible while unit lower bounds are
    pinned one edge at a time.

    A feasible flow with lower bound 1 on an empty edge exists exactly when
    the residual graph of the current flow has a cycle through that edge
    (feasible flows with lower bounds: Ahuja, Magnanti & Orlin, *Network
    Flows*, 1993, ch. 6), so each pin is one breadth-first search instead of
    a fresh solve. The residual graph is the one ``feasible_flow`` solves:
    every edge plus an uncapacitated sink -> source arc carrying ``total``.
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
        """Raise ``edge``'s lower bound to 1 and keep the flow feasible; False
        (and nothing changed) when no feasible flow carries a unit there."""
        net, values = self.network, self.values
        if values[edge] >= 1:
            net.set_lower(edge, max(net.lower[edge], 1))
            return True
        if net.upper[edge] < 1:
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
        net.set_lower(edge, 1)
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

    def drop_unit(self, path: list[int]) -> None:
        """Take one unit off a source-to-sink path of edges whose bounds the
        caller has just lowered by the unit it removed."""
        net, values = self.network, self.values
        assert net.src[path[0]] == net.source and net.dst[path[-1]] == net.sink
        for a, b in zip(path, path[1:]):
            assert net.dst[a] == net.src[b], "edges do not form a path"
        for e in path:
            values[e] -= 1
            assert net.lower[e] <= values[e] <= net.upper[e], (
                f"edge {e} flow {values[e]} outside [{net.lower[e]}, {net.upper[e]}]"
            )
        self.total -= 1


# ---------------------------------------------------------------------------
# Reserve networks

OPEN_CLASS = "open"
PREF_CLASS = "preferential"


@dataclass
class ReserveNetwork:
    """Three-layer network: source -> groups -> categories -> class nodes ->
    sink, where a group is a set of agents with one eligibility set. The full
    network has one group per agent (``group_of`` is the identity), the
    compact one a group per distinct eligibility set; a group's edges carry
    up to its size in units."""

    network: BoundedFlowNetwork
    group_of: dict[int, int]
    group_members: list[tuple[int, ...]]
    group_node: list[int]
    category_node: list[int]
    class_node: dict[str, int]
    group_edge: dict[int, int] = field(default_factory=dict)
    assign_edge: dict[tuple[int, int], int] = field(default_factory=dict)
    category_edge: dict[int, int] = field(default_factory=dict)
    class_edge: dict[str, int] = field(default_factory=dict)


def _layers(
    system: SequentialReserveSystem, label: str, groups: list[tuple[int, ...]]
) -> ReserveNetwork:
    """The nodes of a reserve network with ``groups`` as its group layer
    (named ``label`` plus the group id), and no edges yet."""
    num_groups, num_categories = len(groups), system.num_categories
    names = (
        ["s"]
        + [f"{label}{k}" for k in range(num_groups)]
        + [f"c{c}" for c in range(num_categories)]
        + ["C0", "C*", "t"]
    )
    open_node = 1 + num_groups + num_categories
    return ReserveNetwork(
        network=BoundedFlowNetwork(len(names), source=0, sink=open_node + 2, names=names),
        group_of={a: k for k, members in enumerate(groups) for a in members},
        group_members=groups,
        group_node=list(range(1, 1 + num_groups)),
        category_node=list(range(1 + num_groups, open_node)),
        class_node={OPEN_CLASS: open_node, PREF_CLASS: open_node + 1},
    )


def _add_class_edges(system: SequentialReserveSystem, rn: ReserveNetwork) -> ReserveNetwork:
    """Category -> class edges with the capacities, then the uncapacitated
    class -> sink edges."""
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


def build_reserve_network(system: SequentialReserveSystem) -> ReserveNetwork:
    """The full network: one unit group per agent, agent edges first, then
    the assignment edges category by category."""
    base = system.base
    rn = _layers(system, "i", [(a,) for a in range(base.num_agents)])
    net, agent_node = rn.network, rn.group_node
    for a in range(base.num_agents):
        rn.group_edge[a] = net.add_edge(0, agent_node[a], 0, 1)
    for c in range(base.num_categories):
        for a in base.eligible_agents(c):
            rn.assign_edge[(a, c)] = net.add_edge(agent_node[a], rn.category_node[c], 0, 1)
    return _add_class_edges(system, rn)


def _eligibility_classes(
    system: SequentialReserveSystem,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(eligible categories, members) per distinct eligibility set, in
    ascending order of each set's smallest member; one pass over the
    eligible lists."""
    cats: list[list[int]] = [[] for _ in range(system.num_agents)]
    for c in range(system.num_categories):
        for a in system.base.eligible_agents(c):
            cats[a].append(c)
    by_set: dict[tuple[int, ...], list[int]] = {}
    for a in range(system.num_agents):
        by_set.setdefault(tuple(cats[a]), []).append(a)
    return [(key, tuple(members)) for key, members in by_set.items()]


def agent_groups(system: SequentialReserveSystem) -> dict[int, tuple[int, ...]]:
    """Partition agents by identical eligible-category sets.

    Group ids are assigned in ascending order of each group's smallest member.
    """
    return {k: members for k, (_, members) in enumerate(_eligibility_classes(system))}


def build_compact_network(system: SequentialReserveSystem) -> ReserveNetwork:
    """The grouped network: one group per distinct eligibility set, each
    group edge followed by that group's assignment edges."""
    classes = _eligibility_classes(system)
    rn = _layers(system, "k", [members for _, members in classes])
    net = rn.network
    for k, (eligible, members) in enumerate(classes):
        size = len(members)
        rn.group_edge[k] = net.add_edge(0, rn.group_node[k], 0, size)
        for c in eligible:
            rn.assign_edge[(k, c)] = net.add_edge(
                rn.group_node[k], rn.category_node[c], 0, size
            )
    return _add_class_edges(system, rn)


def flow_to_matching(
    reserve: ReserveNetwork,
    flow: Flow,
    ledger: Optional[list[tuple[int, int]]] = None,
) -> Matching:
    """Decode a flow into a matching: the ledger's fixes, plus each unit on
    a single-agent group as that agent's assignment.

    The sequential procedure takes fixed units off the network as it pins
    them and keeps them in its ledger, so a unit still on a group of several
    agents names no agent and is rejected as ambiguous.
    """
    assignment: list[Optional[int]] = [None] * len(reserve.group_of)
    for a, c in ledger or ():
        if assignment[a] is not None:
            raise DecodeAmbiguity(f"ledger fixes agent {a} twice")
        assignment[a] = c
    for (k, c), e in reserve.assign_edge.items():
        units = flow.values[e]
        if units == 0:
            continue
        members = reserve.group_members[k]
        if len(members) > 1:
            raise DecodeAmbiguity(
                f"group {k} carries {units} unpinned units into category {c}"
            )
        if assignment[members[0]] is not None:
            raise DecodeAmbiguity(f"agent {members[0]} carries two units")
        assignment[members[0]] = c
    return Matching(tuple(assignment))


def matching_to_flow(
    reserve: ReserveNetwork, system: SequentialReserveSystem, matching: Matching
) -> Flow:
    """The flow that carries each matched agent's unit through its group,
    its category and that category's class; the inverse of
    ``flow_to_matching``. Every pair of ``matching`` must be eligible."""
    values = [0] * reserve.network.num_edges()
    for a, c in enumerate(matching.assignment):
        if c is None:
            continue
        k = reserve.group_of[a]
        klass = PREF_CLASS if system.is_beneficial(c) else OPEN_CLASS
        for e in (
            reserve.group_edge[k],
            reserve.assign_edge[(k, c)],
            reserve.category_edge[c],
            reserve.class_edge[klass],
        ):
            values[e] += 1
    return Flow(tuple(values), matching.matched_count())


def pinned_alternative(
    system: SequentialReserveSystem,
    pins: Iterable[tuple[int, int]],
    b: int,
    m: int,
) -> Optional[Matching]:
    """A matching that holds every pinned (agent, category) pair and meets
    the class totals b and m - b, decoded from a feasible flow on a fresh
    full reserve network; None when none exists. A pin with no edge is an
    ineligible pair, which no eligibility-compliant matching holds."""
    rn = build_reserve_network(system)
    net = rn.network
    for pin in pins:
        edge = rn.assign_edge.get(pin)
        if edge is None:
            return None
        net.set_lower(edge, 1)
    net.set_lower(rn.class_edge[PREF_CLASS], b)
    net.set_lower(rn.class_edge[OPEN_CLASS], m - b)
    flow = feasible_flow(net)
    return None if flow is None else flow_to_matching(rn, flow)
