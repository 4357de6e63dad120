"""Directed flow networks with per-edge lower and upper bounds.

Both flow engines work on one residual layout (``_Residual``): arc 2e
carries edge e's room forward and arc 2e + 1 its room backward. Feasibility
under lower bounds uses the standard circulation transformation (subtract
lower bounds, add an excess/deficit supernode pair, saturate with Dinic). A
warm-started feasible flow (``WarmFlow``) lets lower bounds rise one unit at
a time with at most one residual-cycle search each. The three-layer reserve
network has one node per group of agents sharing an eligibility set; the
full network is the case of one agent per group. Its edge lists are laid out
layer by layer in bulk, and a category's assignment edges are one id range,
so a (group, category) edge id is that category's offset plus the group's
position among the category's groups. A matching and a reserve-network flow
convert both ways (``matching_to_flow``, ``flow_to_matching``). All flows are
integral; augmentation and search order are fixed by edge id, so results are
deterministic."""

from __future__ import annotations

import gc
from collections import deque
from itertools import accumulate, chain, compress, count, repeat
from operator import add, le, lt, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .bipartite import build_graph
from .model import Matching, Record, SequentialReserveSystem


class DecodeAmbiguity(ValueError):
    """A flow unit names no single agent: it sits on a group of several
    agents, or on an agent that already has an assignment."""


class Flow(Record):
    """Integral per-edge flow values plus the total leaving the source."""

    __slots__ = _fields = ("values", "total")
    values: tuple[int, ...]
    total: int

    def __init__(self, values: tuple[int, ...], total: int) -> None:
        self._init(values, total)


class BoundedFlowNetwork:
    """Edge list with mutable bounds, solved by ``feasible_flow`` or kept
    feasible by a ``WarmFlow``."""

    __slots__ = ("num_nodes", "source", "sink", "src", "dst", "lower", "upper")

    def __init__(self, num_nodes: int, source: int, sink: int):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.src: list[int] = []
        self.dst: list[int] = []
        self.lower: list[int] = []
        self.upper: list[int] = []

    def add_edges(
        self, us: list[int], vs: list[int], lower: list[int], upper: list[int]
    ) -> range:
        """One edge per (u, v, lower, upper), once every bound is checked;
        the new edge ids, in that order."""
        if (lower and min(lower) < 0) or any(map(lt, upper, lower)):
            k = next(k for k, (lo, up) in enumerate(zip(lower, upper)) if lo < 0 or up < lo)
            raise ValueError(f"bad bounds ({lower[k]}, {upper[k]}) on edge {us[k]}->{vs[k]}")
        first = len(self.src)
        self.src += us
        self.dst += vs
        self.lower += lower
        self.upper += upper
        return range(first, len(self.src))

    def num_edges(self) -> int:
        return len(self.src)

    def set_lower(self, edge_id: int, value: int) -> None:
        self.lower[edge_id] = value


_UNBOUNDED = 1 << 60  # the sink -> source arc's capacity


class _Residual:
    """Residual arcs on non-negative capacities, built in bulk: arc 2e
    carries ``caps[e]`` from ``tails[e]`` to ``heads[e]`` and arc 2e + 1 is
    its reverse, with no room until flow is pushed. Each node's arcs are
    scanned in ascending arc id."""

    def __init__(self, num_nodes: int, tails: list[int], heads: list[int], caps: list[int]):
        arcs = 2 * len(tails)
        self.n = num_nodes
        self.to = [0] * arcs
        self.to[0::2] = heads
        self.to[1::2] = tails
        self.cap = [0] * arcs
        self.cap[0::2] = caps
        tail = [0] * arcs
        tail[0::2] = tails
        tail[1::2] = heads
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        adj = self.adj
        for arc, u in enumerate(tail):
            adj[u].append(arc)

    def path(self, start: int, goal: int) -> Optional[list[int]]:
        """The arcs of a shortest path from ``start`` to ``goal`` over arcs
        with room, found breadth-first and closed as soon as ``goal`` is
        discovered; None when there is none (or ``goal`` is ``start``)."""
        to, cap, adj = self.to, self.cap, self.adj
        parent = {start: -1}
        queue = deque([start])
        while queue:
            for arc in adj[queue.popleft()]:
                v = to[arc]
                if cap[arc] and v not in parent:
                    parent[v] = arc
                    if v == goal:
                        path = []
                        while v != start:
                            arc = parent[v]
                            path.append(arc)
                            v = to[arc ^ 1]
                        path.reverse()
                        return path
                    queue.append(v)
        return None


class _Dinic(_Residual):
    """Plain max-flow core (Dinic 1970, with current-arc pointers)."""

    def max_flow(self, s: int, t: int) -> int:
        to, cap, adj = self.to, self.cap, self.adj
        flow = 0
        while True:
            # levels by breadth-first layers, up to the layer that reaches t;
            # t's layer-mates lie on no shortest s-t path and stay unlevelled
            level = [-1] * self.n
            level[s] = 0
            layer = [s]
            depth = 0
            while layer and level[t] < 0:
                depth += 1
                found = []
                for u in layer:
                    for arc in adj[u]:
                        if cap[arc] and level[to[arc]] < 0:
                            v = to[arc]
                            level[v] = depth
                            found.append(v)
                layer = found
            if level[t] < 0:
                return flow
            for v in layer:
                level[v] = -1
            level[t] = depth
            # blocking flow: walk down admissible arcs from s on an explicit
            # path, retreat past dead ends and augment on reaching t; it[u]
            # is u's current arc. The paths are those of the plain walk that
            # starts again from s after each augmentation: that walk would
            # retrace the path up to its first saturated arc, so the search
            # resumes at that arc's tail; and it would step into a dead end
            # only to retreat at once, so a dead end leaves the level graph.
            it = [0] * self.n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    room = [cap[arc] for arc in path]
                    pushed = min(room)
                    for arc in path:
                        cap[arc] -= pushed
                        cap[arc ^ 1] += pushed
                    flow += pushed
                    j = room.index(pushed)
                    u = to[path[j] ^ 1]
                    del path[j:]
                arcs, want = adj[u], level[u] + 1
                for i in range(it[u], len(arcs)):
                    arc = arcs[i]
                    if cap[arc] and level[to[arc]] == want:
                        it[u] = i
                        path.append(arc)
                        u = to[arc]
                        break
                else:
                    if not path:
                        break
                    level[u] = -1
                    u = to[path.pop() ^ 1]
                    it[u] += 1


def _verify(network: BoundedFlowNetwork, values: Sequence[int]) -> int:
    """Check every bound and conservation at every node but the source and
    sink, both read from the edge lists; return the net flow out of the
    source. Only edges that carry flow move a node's balance."""
    if len(values) != network.num_edges():
        raise AssertionError(f"{len(values)} flow values for {network.num_edges()} edges")
    lower, upper = network.lower, network.upper
    if not (all(map(le, lower, values)) and all(map(le, values, upper))):
        e = next(e for e, (lo, up, f) in enumerate(zip(lower, upper, values)) if not lo <= f <= up)
        raise AssertionError(f"edge {e} flow {values[e]} outside [{lower[e]}, {upper[e]}]")
    balance = [0] * network.num_nodes
    for u, v, f in compress(zip(network.src, network.dst, values), values):
        balance[u] -= f
        balance[v] += f
    total = -balance[network.source]
    balance[network.source] = balance[network.sink] = 0
    if any(balance):
        raise AssertionError(f"conservation violated at node {next(compress(count(), balance))}")
    return total


def feasible_flow(network: BoundedFlowNetwork) -> Optional[Flow]:
    """Some integral flow meeting all bounds, or None when none exists."""
    lower, upper = network.lower, network.upper
    caps = list(map(sub, upper, lower))
    if caps and min(caps) < 0:
        return None
    n = network.num_nodes
    super_s, super_t = n, n + 1
    excess = [0] * n
    for u, v, lo in compress(zip(network.src, network.dst, lower), lower):
        excess[v] += lo
        excess[u] -= lo
    # every edge, then the sink -> source arc, then the supernode arcs
    tails, heads = network.src + [network.sink], network.dst + [network.source]
    caps.append(_UNBOUNDED)
    need = 0
    for v in compress(range(n), excess):
        units = excess[v]
        if units > 0:
            tails.append(super_s)
            heads.append(v)
            caps.append(units)
            need += units
        else:
            tails.append(v)
            heads.append(super_t)
            caps.append(-units)
    dinic = _Dinic(n + 2, tails, heads, caps)
    if dinic.max_flow(super_s, super_t) < need:
        return None
    # the flow above an edge's lower bound sits on its reverse arc
    values = list(map(add, lower, dinic.cap[1::2]))
    return Flow(tuple(values), _verify(network, values))


class WarmFlow:
    """A feasible integral flow kept feasible while lower bounds rise one
    unit at a time.

    When an edge carries no unit above its lower bound, a feasible flow with
    that bound one higher exists exactly when the residual graph of the
    current flow has a cycle through the edge (feasible flows with lower
    bounds: Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 6), so each
    pin is at most one breadth-first search instead of a fresh solve. The
    residual graph is the one ``feasible_flow`` solves: every edge e, with
    ``upper - value`` on arc 2e and ``value - lower`` on arc 2e + 1, then an
    uncapacitated sink -> source arc whose reverse holds the total.
    """

    __slots__ = ("network", "_residual")

    def __init__(self, network: BoundedFlowNetwork, flow: Flow):
        self.network = network
        values = list(flow.values)
        total = _verify(network, values)
        if flow.total != total:
            raise ValueError(f"flow total {flow.total}, but {total} units leave the source")
        self._residual = _Residual(
            network.num_nodes,
            network.src + [network.sink],
            network.dst + [network.source],
            list(map(sub, network.upper, values)) + [_UNBOUNDED],
        )
        self._residual.cap[1::2] = list(map(sub, values, network.lower)) + [total]

    def flow(self) -> Flow:
        """Snapshot of the maintained flow, checked in full."""
        cap = self._residual.cap
        values = list(map(add, self.network.lower, cap[1:-1:2]))
        _verify(self.network, values)
        return Flow(tuple(values), cap[-1])

    def pin(self, edge: int) -> bool:
        """Raise ``edge``'s lower bound by one and keep the flow feasible;
        False (and nothing changed) when no feasible flow carries that many
        units there. A unit above the old bound is pinned in place; else
        one residual cycle through the edge brings one in."""
        net, residual = self.network, self._residual
        cap, forward, back = residual.cap, 2 * edge, 2 * edge + 1
        if not cap[back]:
            if not cap[forward]:
                return False
            cycle = residual.path(net.dst[edge], net.src[edge])
            if cycle is None:
                return False
            cycle.append(forward)
            for arc in cycle:
                cap[arc] -= 1
                cap[arc ^ 1] += 1
                assert cap[arc] >= 0, f"arc {arc} lost more room than it had"
        cap[back] -= 1
        net.set_lower(edge, net.lower[edge] + 1)
        return True


# ---------------------------------------------------------------------------
# Reserve networks

OPEN_CLASS = "open"
PREF_CLASS = "preferential"


class ReserveNetwork:
    """Three-layer network: source -> groups -> categories -> class nodes ->
    sink, where a group is a set of agents with one eligibility set and its
    edges carry up to its size in units. ``category_groups[c]`` lists the
    groups eligible for category c, in the order their edges into c get
    their ids, and ``rank[c]`` maps each of them to its index there.

    Node ids: the source 0, group k at 1 + k, then the categories, the open
    and preferential class nodes and the sink. Edge ids: the group edges in
    group order, the assignment edges category by category, the category ->
    class edges, then the open and preferential class -> sink edges. Each
    layer is laid out in bulk. Category c's assignment edges are the ids
    ``assign_start[c]`` up to ``assign_start[c + 1]``, so group k's edge into
    c is ``assign_start[c] + rank[c][k]``. Group k's node is named ``label``
    plus k, and only ``to_dot`` names nodes."""

    __slots__ = (
        "network", "label", "group_of", "group_members", "category_groups", "rank",
        "group_edge", "assign_start", "category_edge", "class_edge",
    )

    def __init__(
        self,
        system: SequentialReserveSystem,
        label: str,
        groups: list[tuple[int, ...]],
        category_groups: Sequence[Sequence[int]],
        rank: Sequence[Mapping[int, int]],
    ) -> None:
        num_groups, num_categories = len(groups), system.num_categories
        first_category = 1 + num_groups
        open_node = first_category + num_categories
        pref_node = open_node + 1
        net = BoundedFlowNetwork(open_node + 3, source=0, sink=open_node + 2)
        self.network = net
        self.label = label
        self.group_members = groups
        self.category_groups = category_groups
        self.rank = rank
        self.group_of = group_of = [0] * system.num_agents
        for k, members in enumerate(groups):
            for a in members:
                group_of[a] = k
        sizes = list(map(len, groups))
        self.group_edge = net.add_edges(
            [0] * num_groups, list(range(1, first_category)), [0] * num_groups, sizes
        )
        widths = list(map(len, category_groups))
        self.assign_start = list(accumulate(widths, initial=len(self.group_edge)))
        edge_groups = list(chain.from_iterable(category_groups))  # in assignment-edge order
        net.add_edges(
            list(map(add, edge_groups, repeat(1))),
            list(chain.from_iterable(map(repeat, range(first_category, open_node), widths))),
            [0] * len(edge_groups),
            list(map(sizes.__getitem__, edge_groups)),
        )
        self.category_edge = net.add_edges(
            list(range(first_category, open_node)),
            [pref_node if system.is_beneficial(c) else open_node for c in range(num_categories)],
            [0] * num_categories,
            list(system.capacities),
        )
        total_capacity = sum(system.capacities)
        open_edge, pref_edge = net.add_edges(
            [open_node, pref_node], [net.sink] * 2, [0, 0], [total_capacity] * 2
        )
        self.class_edge = {OPEN_CLASS: open_edge, PREF_CLASS: pref_edge}

    def assign_edge(self, group: int, category: int) -> Optional[int]:
        """The id of ``group``'s edge into ``category``; None when the group
        is not eligible there."""
        index = self.rank[category].get(group)
        return None if index is None else self.assign_start[category] + index

    def assign_edges(self) -> Iterator[tuple[int, int, int]]:
        """(group, category, edge id) of every assignment edge, in id order."""
        for c, (groups, start) in enumerate(zip(self.category_groups, self.assign_start)):
            for e, k in enumerate(groups, start):
                yield k, c, e

    def to_dot(self) -> str:
        """Graphviz export; edges labeled with their (lower, upper) pair."""
        net = self.network
        names = (
            ["s"]
            + [f"{self.label}{k}" for k in range(len(self.group_members))]
            + [f"c{c}" for c in range(len(self.category_edge))]
            + ["C0", "C*", "t"]
        )
        lines = ["digraph flow {", "  rankdir=LR;"]
        lines += [f'  n{v} [label="{name}"];' for v, name in enumerate(names)]
        lines += [
            f'  n{u} -> n{v} [label="({lo}, {up})"];'
            for u, v, lo, up in zip(net.src, net.dst, net.lower, net.upper)
        ]
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_reserve_network(system: SequentialReserveSystem) -> ReserveNetwork:
    """The full network: one group per agent, group k being agent k, so a
    category's groups and their indices are its eligible agents and their
    ranks."""
    base = system.base
    return ReserveNetwork(
        system,
        "i",
        list(zip(range(base.num_agents))),
        [ranking.eligible() for ranking in base.priorities],
        [ranking.eligible_ranks() for ranking in base.priorities],
    )


def build_compact_network(system: SequentialReserveSystem) -> ReserveNetwork:
    """The grouped network: one group per distinct eligibility set, in
    ascending order of each set's smallest member."""
    by_set: dict[tuple[int, ...], list[int]] = {}
    for a, eligible in enumerate(build_graph(system.base).agent_adj):
        by_set.setdefault(eligible, []).append(a)
    category_groups: list[list[int]] = [[] for _ in range(system.num_categories)]
    for k, eligible in enumerate(by_set):
        for c in eligible:
            category_groups[c].append(k)
    return ReserveNetwork(
        system,
        "k",
        [tuple(members) for members in by_set.values()],
        category_groups,
        [dict(zip(groups, range(len(groups)))) for groups in category_groups],
    )


def flow_to_matching(reserve: ReserveNetwork, flow: Flow) -> Matching:
    """Decode a flow into a matching, one category's edge range at a time:
    each unit on a single-agent group is that agent's assignment. A unit on
    a group of several agents names no agent and is rejected as
    ambiguous."""
    assignment: list[Optional[int]] = [None] * len(reserve.group_of)
    values, group_members = flow.values, reserve.group_members
    for c, (groups, start) in enumerate(zip(reserve.category_groups, reserve.assign_start)):
        units = values[start:start + len(groups)]
        for k, carried in compress(zip(groups, units), units):
            members = group_members[k]
            if len(members) > 1:
                raise DecodeAmbiguity(
                    f"group {k} carries {carried} units into category {c}"
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
            reserve.assign_edge(k, c),
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
    # The residual graph's one list per node makes the collector run about
    # once per 700 nodes, and its first passes traverse every list of the
    # network: about a tenth of a 100,000-agent refute. Nothing here makes a
    # cycle, and the network is garbage on return, so the collector pauses
    # for the call.
    collecting = gc.isenabled()
    gc.disable()
    try:
        rn = build_reserve_network(system)
        net = rn.network
        for agent, category in pins:
            edge = rn.assign_edge(agent, category)
            if edge is None:
                return None
            net.set_lower(edge, 1)
        net.set_lower(rn.class_edge[PREF_CLASS], b)
        net.set_lower(rn.class_edge[OPEN_CLASS], m - b)
        flow = feasible_flow(net)
        return None if flow is None else flow_to_matching(rn, flow)
    finally:
        if collecting:
            gc.enable()
