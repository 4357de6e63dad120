"""Eligibility graphs, maximum-cardinality matching, and alternating paths.

The matching side generalizes Hopcroft-Karp to categories with multi-unit
capacity (no node duplication; categories carry loads). All searches scan
adjacency in ascending index order so results are deterministic. From an
empty start, the first phase runs as a greedy pass over the agents in index
order: with nobody matched, a phase-one search can only take the agent's
first category with a free slot, so the pass returns the same matching.

``augment_backward`` is the cheap exact test beside it: one augmenting-path
search run backwards from the free slots over per-category agent prefixes,
with no graph. ``rev`` runs it per rejection check, and ``check`` runs it
on each stage of the dual maximum matching until it finds no path, which
certifies the stage (at most isqrt(n) + 1 times before Hopcroft-Karp
takes over).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .model import Matching, Record, ReserveSystem


class EligibilityGraph(Record):
    """Bipartite agent-category graph with per-category capacities.

    Each agent's adjacency list is sorted ascending by category index; an
    edge (i, c) exists iff agent i is eligible for category c.
    """

    __slots__ = _fields = ("agent_adj", "capacities")
    agent_adj: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    def __init__(
        self,
        agent_adj: tuple[tuple[int, ...], ...],
        capacities: tuple[int, ...],
    ) -> None:
        self._init(agent_adj, capacities)

    @property
    def num_agents(self) -> int:
        return len(self.agent_adj)

    @property
    def num_categories(self) -> int:
        return len(self.capacities)

    def has_edge(self, agent: int, c: int) -> bool:
        return c in self.agent_adj[agent]

    @classmethod
    def from_members(
        cls,
        num_agents: int,
        members: Sequence[Sequence[int]],
        capacities: tuple[int, ...],
    ) -> "EligibilityGraph":
        """The graph in which category c is adjacent to exactly the agents
        of ``members[c]``, listed in any order."""
        agent_adj: list[list[int]] = [[] for _ in range(num_agents)]
        for c, agents in enumerate(members):
            for agent in agents:
                agent_adj[agent].append(c)  # ascending c, so already sorted
        return cls(tuple(map(tuple, agent_adj)), capacities)


def build_graph(system: ReserveSystem) -> EligibilityGraph:
    return EligibilityGraph.from_members(
        system.num_agents,
        [system.eligible_agents(c) for c in range(system.num_categories)],
        system.capacities,
    )


class GraphMatching:
    """Mutable working matching over an eligibility graph.

    Mutate only through ``assign``, ``seat`` and ``unassign``: they keep
    the loads, the member sets and the running count of matched agents in
    step.
    """

    __slots__ = ("assignment", "load", "members", "_size")

    def __init__(self, num_agents: int, num_categories: int):
        self.assignment: list[Optional[int]] = [None] * num_agents
        self.load: list[int] = [0] * num_categories
        self.members: list[set[int]] = [set() for _ in range(num_categories)]
        self._size = 0

    def copy(self) -> "GraphMatching":
        other = GraphMatching(len(self.assignment), len(self.load))
        other.assignment = list(self.assignment)
        other.load = list(self.load)
        other.members = [set(m) for m in self.members]
        other._size = self._size
        return other

    def assign(self, agent: int, c: int) -> None:
        old = self.assignment[agent]
        if old is None:
            self._size += 1
        else:
            self.load[old] -= 1
            self.members[old].discard(agent)
        self.assignment[agent] = c
        self.load[c] += 1
        self.members[c].add(agent)

    def seat(self, c: int, agents: Sequence[int]) -> None:
        """Match each of ``agents`` to category c at once: the agents are
        distinct and all unmatched. Like ``assign``, it leaves capacities
        to the caller."""
        assignment = self.assignment
        for agent in agents:
            assignment[agent] = c
        self.load[c] += len(agents)
        self.members[c].update(agents)
        self._size += len(agents)

    def unassign(self, agent: int) -> None:
        old = self.assignment[agent]
        if old is not None:
            self.load[old] -= 1
            self.members[old].discard(agent)
            self.assignment[agent] = None
            self._size -= 1

    def undo(self, journal: Sequence[tuple[int, Optional[int]]]) -> None:
        """Reverse the moves in ``journal``, each (agent, category it held
        before the move), latest first."""
        for agent, held in reversed(journal):
            if held is None:
                self.unassign(agent)
            else:
                self.assign(agent, held)

    def size(self) -> int:
        """Number of matched agents, O(1)."""
        return self._size

    def to_matching(self) -> Matching:
        return Matching(tuple(self.assignment))

    @classmethod
    def from_matching(cls, matching: Matching, num_categories: int) -> "GraphMatching":
        gm = cls(len(matching.assignment), num_categories)
        for c, agents in enumerate(matching.occupants(num_categories)):
            gm.seat(c, agents)
        return gm

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GraphMatching) and self.assignment == other.assignment

    def __repr__(self) -> str:
        pairs = {a: c for a, c in enumerate(self.assignment) if c is not None}
        return f"GraphMatching({pairs})"


def maximum_matching(
    graph: EligibilityGraph,
    seed: Optional[GraphMatching] = None,
) -> GraphMatching:
    """Maximum-cardinality matching via Hopcroft-Karp with category loads.

    Augments a copy of the seed when one is given: matched agents never
    become unmatched, only reassigned along augmenting paths. The seed must
    be a matching on ``graph``; its callers check it where it enters. To
    match a subset of the categories, pass the graph restricted to them
    (``EligibilityGraph.from_members``).

    From an empty start the first phase is a greedy pass: each agent, in
    index order, takes its first category with a free slot. That
    is exactly what the first phase's searches do, because with nobody
    matched every agent sits at layer 0 and no member of a full category
    sits at layer 1, so the search from an agent can only end at a free
    slot of one of its own categories. Which maximum matching is returned
    is part of the output of ``mma`` and ``rev``: the visit order of every
    phase must not change.
    """
    if seed is not None:
        match = seed.copy()
    else:
        match = GraphMatching(graph.num_agents, graph.num_categories)

    n, caps = graph.num_agents, graph.capacities
    assignment, load, members = match.assignment, match.load, match.members
    adj = graph.agent_adj

    if match._size == 0:
        for a, cats in enumerate(adj):
            for c in cats:
                if load[c] < caps[c]:
                    match.assign(a, c)
                    break

    inf = n + 1  # above every layer
    dist = [inf] * n
    # An agent with no category to enter starts no search and is reached by
    # none, so the phases skip it.
    active = [a for a in range(n) if adj[a]]

    def bfs() -> bool:
        queue: deque[int] = deque()
        for a in active:
            if assignment[a] is None:
                dist[a] = 0
                queue.append(a)
            else:
                dist[a] = inf
        frontier = inf
        # A full category's members all get their distance the first time
        # any agent reaches it, so each category is expanded once.
        expanded = [False] * graph.num_categories
        while queue:
            a = queue.popleft()
            if dist[a] >= frontier:
                continue
            for c in adj[a]:
                if load[c] < caps[c]:
                    if frontier == inf:
                        frontier = dist[a] + 1
                elif not expanded[c]:
                    expanded[c] = True
                    for b in members[c]:
                        if dist[b] == inf:
                            dist[b] = dist[a] + 1
                            queue.append(b)
        return frontier != inf

    # (category, layer) pairs whose scan for agents at that layer came up
    # empty this phase; a category is full for the rest of the phase once
    # scanned, so only an agent of that layer entering it can revive it.
    dead: set[tuple[int, int]] = set()
    # Full categories' members in ascending order, sorted on first visit
    # and dropped when an augmentation changes them.
    ordered: dict[int, list[int]] = {}

    def moves(a: int):
        """Yield (c, b): agent a can enter c by pushing its member b one
        layer on, or by taking a free slot when b is None."""
        layer = dist[a] + 1
        for c in adj[a]:
            if (c, layer) in dead:
                continue
            if load[c] < caps[c]:
                yield c, None
                return  # never resumed: a free slot ends the search
            row = ordered.get(c)
            if row is None:
                row = ordered[c] = sorted(members[c])
            for b in row:
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
                dist[path.pop()] = inf
                steps.pop()
                if cats:
                    cats.pop()
                continue
            c, b = step
            cats.append(c)
            if b is None:
                # every category the path moves an agent out of or into
                for cat in cats:
                    ordered.pop(cat, None)
                for agent, cat in zip(reversed(path), reversed(cats)):
                    match.assign(agent, cat)
                    dead.discard((cat, dist[agent]))
                return True
            path.append(b)
            steps.append(moves(b))
        return False

    while bfs():
        dead.clear()
        for a in active:
            if assignment[a] is None:
                dfs(a)
    return match


def augment_backward(
    elig: Sequence[Sequence[int]],
    limit: Sequence[int],
    match: GraphMatching,
    capacities: Sequence[int],
    journal: list[tuple[int, Optional[int]]],
) -> bool:
    """One augmenting-path search over the active edges, run backwards from
    the categories with a free slot. The active agents of category c are
    ``elig[c][:limit[c]]``, scanned in that order; no graph is needed.

    Each category is expanded at most once per search: its active agents
    are scanned, a free agent there closes the path, and a matched one
    queues the category it holds. So a search costs one pass over the active
    edges, and it is exact: it returns False iff the working matching has
    no augmenting path on the active edges (Berge), which certifies that it
    is maximum there.

    A path found is applied to ``match`` at once, and every move is appended
    to ``journal`` as (agent, category it held), so that
    ``match.undo(journal)`` takes it back.
    Callers rely only on whether a path exists, never on which one is found.
    """
    assignment = match.assignment
    stack = [c for c, cap in enumerate(capacities) if match.load[c] < cap]
    queued = [False] * len(capacities)
    for c in stack:
        queued[c] = True
    # category -> (agent that leaves it, category that agent moves to)
    parent: dict[int, tuple[int, int]] = {}
    while stack:
        c = stack.pop()
        agents = elig[c]
        for i in range(limit[c]):
            a = agents[i]
            d = assignment[a]
            if d is None:
                # a enters c; each displaced agent steps toward the free slot
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


# ---------------------------------------------------------------------------
# Alternating paths

START_LOSES = "loses"  # start category sheds one unit along the path
END_VACANCY = "vacancy"  # end category absorbs one unit into a free slot
START_UNMATCHED = "unmatched"  # path starts at an unmatched agent
END_TERMINAL = "terminal"  # end category was explicitly requested


class AlternatingPath(Record):
    """A unit shift along matched/eligible edges.

    ``nodes`` alternates category, agent, category, ... Each agent in the
    sequence is currently matched to the category on its left and moves to
    the category on its right. A path whose first node is an agent starts
    with an unmatched agent entering the second node.
    """

    __slots__ = _fields = ("nodes", "start_kind", "end_kind")
    nodes: tuple[int, ...]
    start_kind: str
    end_kind: str

    def __init__(self, nodes: tuple[int, ...], start_kind: str, end_kind: str) -> None:
        self._init(nodes, start_kind, end_kind)


def find_alternating_path(
    graph: EligibilityGraph,
    match: GraphMatching,
    start: Optional[int] = None,
    end: Optional[int] = None,
    frozen_agents: Iterable[int] = (),
    frozen_categories: Iterable[int] = (),
    from_unmatched: bool = False,
) -> Optional[AlternatingPath]:
    """Search for a unit-shift path, exhaustively over the reachable structure.

    * ``start=c``: the path sheds one unit from c and ends at a category with
      a free slot (or exactly at ``end`` when given, regardless of room; the
      caller owns that context, e.g. a slot about to be vacated).
    * ``end=c`` with ``from_unmatched``: the path starts at an unmatched
      agent and pushes one unit into c.
    * ``end=c`` alone: the path sheds from some other category into c.

    Frozen agents/categories never appear inside the path.
    """
    frozen_a = set(frozen_agents)
    frozen_c = set(frozen_categories)

    if start is not None:
        reach = forward_reach(graph, match, start, frozen_a, frozen_c)
        if end is not None:
            if end in reach.entered:
                return _build_forward_path(reach, start, end, END_TERMINAL)
            return None
        for c in sorted(reach.entered):
            if match.load[c] < graph.capacities[c]:
                return _build_forward_path(reach, start, c, END_VACANCY)
        return None

    if end is None:
        raise ValueError("either start or end must be given")

    send = send_reach(graph, match, end, frozen_a, frozen_c)
    if from_unmatched:
        for w in range(graph.num_agents):
            if w in frozen_a or match.assignment[w] is not None:
                continue
            for e in graph.agent_adj[w]:
                if e == end:
                    return AlternatingPath((w, end), START_UNMATCHED, END_TERMINAL)
                if e in send.senders:
                    tail = _build_send_path(send, e, end)
                    return AlternatingPath((w,) + tail, START_UNMATCHED, END_TERMINAL)
        return None

    if not send.senders:
        return None
    origin = min(send.senders)
    return AlternatingPath(_build_send_path(send, origin, end), START_LOSES, END_TERMINAL)


class ForwardReach:
    __slots__ = ("entered", "parent")

    def __init__(self, entered: set[int], parent: dict[int, tuple[int, int]]) -> None:
        self.entered = entered
        self.parent = parent  # category -> (previous category, agent moved)


def forward_reach(
    graph: EligibilityGraph,
    match: GraphMatching,
    start: int,
    frozen_agents: set[int],
    frozen_categories: set[int],
) -> ForwardReach:
    """Categories reachable by shifting units away from ``start``.

    Each step moves one currently-matched, non-frozen agent from the frontier
    category to another category it is eligible for. Passing through a full
    category is legal (its load change cancels); only the endpoint needs
    room, which the caller checks.
    """
    entered: set[int] = set()
    parent: dict[int, tuple[int, int]] = {}
    queue: deque[int] = deque([start])
    while queue:
        d = queue.popleft()
        for x in sorted(match.members[d]):
            if x in frozen_agents:
                continue
            for e in graph.agent_adj[x]:
                if e == d or e == start or e in frozen_categories:
                    continue
                if e not in entered:
                    entered.add(e)
                    parent[e] = (d, x)
                    queue.append(e)
    return ForwardReach(entered, parent)


def _build_forward_path(
    reach: ForwardReach, start: int, target: int, end_kind: str
) -> AlternatingPath:
    nodes: list[int] = [target]
    c = target
    while c != start:
        d, x = reach.parent[c]
        nodes.append(x)
        nodes.append(d)
        c = d
    nodes.reverse()
    return AlternatingPath(tuple(nodes), START_LOSES, end_kind)


class SendReach:
    __slots__ = ("senders", "parent")

    def __init__(self, senders: set[int], parent: dict[int, tuple[int, int]]) -> None:
        self.senders = senders
        self.parent = parent  # category -> (next category, agent moved)


def send_reach(
    graph: EligibilityGraph,
    match: GraphMatching,
    end: int,
    frozen_agents: set[int],
    frozen_categories: set[int],
) -> SendReach:
    """Categories that can push one unit into ``end`` through chained moves."""
    senders: set[int] = set()
    parent: dict[int, tuple[int, int]] = {}
    queue: deque[int] = deque([end])
    seen = {end}
    while queue:
        e = queue.popleft()
        for c in range(graph.num_categories):
            if c in seen or c in frozen_categories:
                continue
            mover = None
            for y in sorted(match.members[c]):
                if y in frozen_agents:
                    continue
                if graph.has_edge(y, e):
                    mover = y
                    break
            if mover is not None:
                senders.add(c)
                parent[c] = (e, mover)
                seen.add(c)
                queue.append(c)
    return SendReach(senders, parent)


def _build_send_path(send: SendReach, origin: int, end: int) -> tuple[int, ...]:
    nodes: list[int] = [origin]
    c = origin
    while c != end:
        e, y = send.parent[c]
        nodes.append(y)
        nodes.append(e)
        c = e
    return tuple(nodes)
