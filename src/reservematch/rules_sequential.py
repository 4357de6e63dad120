"""Sequential category updating over a precedence order.

One candidate loop, ``scu_allocate``, walks the categories in precedence
order and offers each unfixed eligible agent to a working state's ``step``.
Three interchangeable states answer whether some matching keeps every
earlier fix, places the candidate and keeps both maxima:

* ``flow``: the reference form; a feasible flow on the full reserve network
  (one group per agent) is kept warm, and every candidate raises the lower
  bound on its edge by one unit with at most one residual-cycle search
  (``WarmFlow.pin``).
* ``compact``: the same pins on the grouped network (one group per
  eligibility set), where the lower bound on a group's edge into a
  category counts the group's agents fixed there. In both network states a
  fix stays on the network as that lower bound, the form
  ``scu_feasibility_check`` states every fix in, and the class bounds stay
  b and m - b throughout.
* ``bipartite`` (the default): explicit matching plus one residual-cycle
  search per candidate through the pinned edge in the residual reserve
  network of the working matching. The search runs on the network's
  category quotient, K + 3 nodes (categories, the two classes and the
  source), whose arcs the state keeps as sets of agents updated in O(deg)
  per moved agent; a candidate costs O(K^2) plus its cycle, whatever the
  number of agents. The state's start seats agents in the candidate loop's
  order, so most candidates are already at their category and are fixed
  with no search: 71 % of the steps on the benchmark's ``scu-small``
  shape, 72 % on ``scu-large`` and 66 % at 32,000 agents, but 24 % with
  8000 agents in 160 sparse categories. Most of the other cycles are one swap, found
  as the root's direct arc with no queue: 68 % of the step searches on
  ``scu-small``, 79 % on ``scu-large`` and 80 % at 32,000 agents, but 10 %
  in the sparse case.

All three start from a dual maximum matching, which yields both maxima: the
network states take ``dual_maximum_matching``'s and ``bipartite`` builds its
own on the quotient, with the search its candidates run (``_quotient_path``)
rooted at the source. All three keep one fix ledger (``FixLedger``) and
return the identical matching; the fixed set equals the matched set on
termination, which is asserted every run.

``dual_maximum_matching`` is one loop over two stages, the preferential
categories and then all of them. ``check`` passes the matching under check
as its start: each stage is seeded from it and runs backward augmenting
searches (``bipartite.augment_backward``) until one finds no path, which
certifies the stage, so a maximum matching, or one a few units short, costs
no graph and no Hopcroft-Karp pass. Unseeded, or when all isqrt(n) + 1
allowed searches find a path, a stage runs Hopcroft-Karp on its own graph.
"""

from __future__ import annotations

from collections import defaultdict, deque
from math import isqrt
from typing import Callable, Collection, Optional, Sequence, Union

from .bipartite import (
    EligibilityGraph,
    GraphMatching,
    augment_backward,
    build_graph,
    maximum_matching,
)
from .model import (
    AnySystem,
    Matching,
    SequentialReserveSystem,
    as_sequential,
)
from .netflow import (
    OPEN_CLASS,
    PREF_CLASS,
    WarmFlow,
    build_compact_network,
    build_reserve_network,
    matching_to_flow,
    pinned_alternative,
)

TraceSink = Callable[[dict], None]

IMPLEMENTATIONS = ("flow", "compact", "bipartite")
DEFAULT_IMPL = "bipartite"

FIXED = "fixed"
NO_CHANGE = "no-change"


def dual_maximum_matching(
    system: AnySystem, start: Optional[Matching] = None
) -> tuple[GraphMatching, int, int]:
    """A matching that is simultaneously maximum-cardinality and maximum in
    preferential-category assignments: match the preferential subgraph to its
    maximum first, then augment in the full graph (augmentation preserves all
    per-category loads except the endpoint gain).

    Each stage is one set of member lists: the preferential categories'
    eligible agents (``()`` at the open ones), when there are preferential
    categories, then every category's. With ``start``, a stage is seeded
    from its pairs in ``start`` that fit the capacities, and then backward
    augmenting searches (``augment_backward``) over its lists apply one
    path each until a search finds none. That search proves the stage
    maximum (Berge), so a maximum ``start`` costs one search per stage and
    no graph. Each search is at most one pass over the stage's edges, and
    Hopcroft-Karp bounds its own work by O(sqrt(n)) phases of one pass
    each, so a stage gets at most isqrt(n) + 1 searches. When the last of
    them still found a path, their paths are undone and Hopcroft-Karp
    finishes the stage from the seed on the stage's own graph, as it does
    from the previous stage's matching without ``start``. b and m do not
    depend on the seed.
    """
    seq = as_sequential(system)
    n, caps = seq.num_agents, seq.capacities
    elig = [seq.base.eligible_agents(c) for c in range(seq.num_categories)]
    stages = [elig]
    if seq.preferential:
        stages.insert(0, [
            agents if c in seq.preferential else () for c, agents in enumerate(elig)
        ])
    match = GraphMatching(n, seq.num_categories)
    sizes = []
    for members in stages:
        searches_left = 0
        if start is not None:
            _seed_from(match, start, members, caps)
            limit = [len(agents) for agents in members]
            journal: list[tuple[int, Optional[int]]] = []
            searches_left = isqrt(n) + 1
            while searches_left and augment_backward(members, limit, match, caps, journal):
                searches_left -= 1
            if not searches_left:
                # from the matching the searches leave, Hopcroft-Karp took
                # up to 1.5x as long as from the seed
                match.undo(journal)
        if not searches_left:  # unseeded, or the last allowed search found a path
            graph = EligibilityGraph.from_members(n, members, caps)
            match = maximum_matching(graph, seed=match)
        sizes.append(match.size())
    b = sizes[0] if seq.preferential else 0
    m = sizes[-1]
    assert _beneficiary_load(match, seq) == b
    return match, b, m


def _seed_from(
    match: GraphMatching,
    start: Matching,
    members: Sequence[Sequence[int]],
    caps: Sequence[int],
) -> None:
    """Add the pairs (agent, c) of ``start`` with agent in the stage's
    ``members[c]`` whose agent is still unmatched in ``match``, category by
    category: the first of them in ``members[c]``'s order, as many as c has
    free slots, seated in one ``GraphMatching.seat``."""
    held, assignment, load = start.assignment, match.assignment, match.load
    for c, agents in enumerate(members):
        free = caps[c] - load[c]
        if free > 0 and agents:
            pairs = [a for a in agents if held[a] == c and assignment[a] is None]
            match.seat(c, pairs[:free])


def _beneficiary_load(match: GraphMatching, seq: SequentialReserveSystem) -> int:
    return sum(match.load[c] for c in seq.preferential)


def scu_feasibility_check(
    system: AnySystem,
    fixed: Sequence[tuple[int, int]],
    agent: int,
    category: int,
    b: Optional[int] = None,
    m: Optional[int] = None,
) -> bool:
    """Does some matching fix every pair in ``fixed``, assign ``agent`` to
    ``category``, and keep both maxima? Decided exactly by a feasibility pass
    on the reserve network with unit lower bounds on the pinned edges and
    class-total lower bounds b and m-b."""
    seq = as_sequential(system)
    if not seq.base.is_eligible(agent, category):
        raise ValueError(f"agent {agent} is not eligible for category {category}")
    if any(agent == a for a, _ in fixed):
        raise ValueError(f"agent {agent} is already fixed")
    if b is None or m is None:
        _, b, m = dual_maximum_matching(seq)
    return pinned_alternative(seq, [*fixed, (agent, category)], b, m) is not None


def scu_allocate(
    system: AnySystem,
    impl: str = DEFAULT_IMPL,
    trace_sink: Optional[TraceSink] = None,
) -> Matching:
    """Run the sequential rule; basic instances are coerced to an empty
    preferential set and a single tier.

    Each category in precedence order offers its unfixed eligible agents,
    highest priority first, to the state's ``step`` until its fixes fill
    its capacity."""
    seq = as_sequential(system)
    state: Union[SCUState, SCUNetworkState]
    if impl == "bipartite":
        state = SCUState(seq)
    elif impl in ("flow", "compact"):
        state = SCUNetworkState(seq, impl == "compact")
    else:
        raise ValueError(f"unknown implementation {impl!r}; expected one of {IMPLEMENTATIONS}")
    processed: list[int] = []
    _emit(trace_sink, "init", state, processed, b=state.b, m=state.m)
    for c in seq.precedence.strict_sequence():
        for agent in seq.base.eligible_agents(c):
            if agent in state.in_x:
                continue
            if state.fixed_count[c] == seq.capacities[c]:
                break
            if state.step(agent, c) == FIXED:
                _emit(trace_sink, "fixed", state, processed, agent=agent, category=c)
        processed.append(c)
    matching = state.finish()
    assert set(matching.matched_agents()) == state.in_x, "fixed set must equal matched set"
    assert matching.matched_count() == state.m, "cardinality must stay maximal"
    assert matching.beneficiary_count(seq.preferential) == state.b
    _emit(trace_sink, "done", state, processed)
    return matching


def _emit(
    sink: Optional[TraceSink],
    event: str,
    state: Union[SCUState, SCUNetworkState],
    processed: Sequence[int],
    **extra,
) -> None:
    if sink is None:
        return
    record = {
        "event": event,
        "fixed": [[a, c] for a, c in state.X],
        "processed_categories": sorted(processed),
    }
    record.update(extra)
    record.update(state.trace_fields())
    sink(record)


class FixLedger:
    """The fixes of a run: pairs in insertion order, the fixed agents, and
    the number of fixes per category."""

    def __init__(self, num_categories: int):
        self.X: list[tuple[int, int]] = []
        self.in_x: set[int] = set()
        self.fixed_count = [0] * num_categories

    def fix(self, agent: int, category: int) -> None:
        self.X.append((agent, category))
        self.in_x.add(agent)
        self.fixed_count[category] += 1


# ---------------------------------------------------------------------------
# Flow implementations (reference and compact)


class SCUNetworkState(FixLedger):
    """Working state of the ``flow`` and ``compact`` rules: the reserve
    network (one group per agent, or per eligibility set) with a warm
    feasible flow on it, the fix ledger and the two maxima.

    The warm flow starts from the dual maximum matching
    (``dual_maximum_matching``): it yields b and m and, carried unit by
    unit through the network, already meets the class bounds b and m - b.
    Each candidate is then one pin on it (``WarmFlow.pin``) instead of a
    fresh feasibility solve.
    """

    def __init__(self, seq: SequentialReserveSystem, compact: bool):
        super().__init__(seq.num_categories)
        self.seq = seq
        self.reserve = build_compact_network(seq) if compact else build_reserve_network(seq)
        mu, self.b, self.m = dual_maximum_matching(seq)
        net = self.reserve.network
        net.set_lower(self.reserve.class_edge[PREF_CLASS], self.b)
        net.set_lower(self.reserve.class_edge[OPEN_CLASS], self.m - self.b)
        self.warm = WarmFlow(net, matching_to_flow(self.reserve, seq, mu.to_matching()))

    def step(self, agent: int, c: int) -> str:
        """Fix ``agent`` at ``c`` if some matching keeps every fix, places
        the agent there and keeps both maxima: the fix is one more unit of
        lower bound on the group's edge into ``c``."""
        edge = self.reserve.assign_edge(self.reserve.group_of[agent], c)
        if not self.warm.pin(edge):
            return NO_CHANGE
        self.fix(agent, c)
        return FIXED

    def finish(self) -> Matching:
        """The ledger as a matching, once every unit on the network is a fix:
        each assignment edge carries exactly its lower bound."""
        values, lower = self.warm.flow().values, self.reserve.network.lower
        for k, c, e in self.reserve.assign_edges():
            assert values[e] == lower[e], f"group {k} has an unfixed unit in category {c}"
        assignment: list[Optional[int]] = [None] * self.seq.num_agents
        for a, c in self.X:
            assignment[a] = c
        return Matching(tuple(assignment))

    def trace_fields(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# Bipartite implementation


class SCUState(FixLedger):
    """Working state of the ``bipartite`` rule: the evolving matching on the
    eligibility graph (built once, here), the fix ledger, the two maxima and
    the rows of the category quotient of the residual reserve network:

    * ``via[d][e]``: the unfixed members of d eligible for e. Every member of
      d is eligible for d, so ``via[d][d]`` is the set ``unfixed[d]``, the
      unfixed members of d;
    * ``free[e]``: the unmatched agents eligible for e.

    Move agents only through ``move`` and fix them only through ``fix``:
    both keep the rows in step with the matching in O(deg) per agent, and
    ``beneficiaries``, the number of agents in preferential categories, in
    O(1).

    The state builds its own start, a dual maximum matching, in two stages,
    each seating agents in the order the candidate loop offers them:
    categories in precedence order (``strict_sequence``), each taking its
    highest-priority unmatched eligible agents up to its capacity. Stage 1
    seats agents so in the preferential categories, builds the rows once
    from that matching and applies augmenting paths that end in a
    preferential category until none is left: b is its size. Stage 2 seats
    the agents still unmatched so in every category and augments to any
    category: m is its size. Most candidates then find themselves already
    at their category, and their step is a fix with no search. Each path
    is found by the candidates' search on the K + 3 nodes of the quotient
    (``_quotient_path``), rooted at the source, so the start runs no search
    over the agents. Its class arcs add no path: a category with a free
    slot is expanded only in stage 1 and only when it is open, and in stage
    1 the open class leads nowhere, as no open category holds anyone.
    """

    def __init__(self, system: AnySystem):
        self.seq = seq = as_sequential(system)
        super().__init__(seq.num_categories)
        self.graph = graph = build_graph(seq.base)
        k = graph.num_categories
        self.mu = mu = GraphMatching(graph.num_agents, k)
        self.unfixed: list[set[int]] = [set() for _ in range(k)]
        self.via: list[defaultdict[int, set[int]]] = [
            defaultdict(set, {d: self.unfixed[d]}) for d in range(k)
        ]
        self.free: list[set[int]] = [set() for _ in range(k)]
        # the categories of each class node: open (0) and preferential (1)
        self.classes = tuple(
            [d for d in range(k) if (d in seq.preferential) == pref] for pref in (False, True)
        )
        caps, load, assignment = seq.capacities, mu.load, mu.assignment
        self.is_pref = is_pref = [d in seq.preferential for d in range(k)]
        order = seq.precedence.strict_sequence()
        # stage 1: the preferential maximum; open categories hold nobody
        # yet, so no path passes through them
        for c in order:
            if is_pref[c]:
                for agent in seq.base.eligible_agents(c):
                    if load[c] == caps[c]:
                        break
                    if assignment[agent] is None:
                        mu.assign(agent, c)
        self.beneficiaries = mu.size()
        for agent, here in enumerate(assignment):
            rows = self._rows_at(here)
            for e in graph.agent_adj[agent]:
                rows[e].add(agent)
        self._augment(is_pref)
        self.b = mu.size()
        # stage 2: the cardinality maximum; an augmenting path raises only
        # its end's load, and no end is preferential once b is maximum
        for c in order:
            for agent in seq.base.eligible_agents(c):
                if load[c] == caps[c]:
                    break
                if assignment[agent] is None:
                    self.move(agent, c)
        self._augment([True] * k)
        self.m = mu.size()
        assert self.beneficiaries == self.b, "stage 2 moved the beneficiary count"

    def _augment(self, ends: Sequence[bool]) -> None:
        """Apply augmenting paths from the source to a category marked in
        ``ends`` with a free slot until none is left."""
        caps, load = self.seq.capacities, self.mu.load

        def open_ends() -> set[int]:
            return {e for e, end in enumerate(ends) if end and load[e] < caps[e]}

        while (path := _quotient_path(self, len(ends) + 2, open_ends())) is not None:
            for x, _, target in _movers(self, path):
                self.move(x, target)

    def step(self, agent: int, c: int) -> str:
        return scu_bipartite_step(self, agent, c)

    def _rows_at(self, here: Optional[int]) -> Union[list[set[int]], defaultdict[int, set[int]]]:
        """The rows that list an unfixed agent at ``here`` (None: unmatched),
        indexed by the categories it is eligible for."""
        return self.free if here is None else self.via[here]

    def move(self, agent: int, target: Optional[int]) -> None:
        """Reassign an unfixed agent to ``target`` (None: unmatch it)."""
        adj = self.graph.agent_adj[agent]
        here = self.mu.assignment[agent]
        rows = self._rows_at(here)
        for e in adj:
            rows[e].discard(agent)
        if here is not None:
            self.beneficiaries -= self.is_pref[here]
        if target is None:
            self.mu.unassign(agent)
        else:
            self.mu.assign(agent, target)
            self.beneficiaries += self.is_pref[target]
        rows = self._rows_at(target)
        for e in adj:
            rows[e].add(agent)

    def fix(self, agent: int, category: int) -> None:
        """Fix an unfixed agent in ``category``, moving it there first if it
        is elsewhere; a fixed agent is listed in no row."""
        here = self.mu.assignment[agent]
        rows = self._rows_at(here)
        for e in self.graph.agent_adj[agent]:
            rows[e].discard(agent)
        if here != category:
            if here is not None:
                self.beneficiaries -= self.is_pref[here]
            self.mu.assign(agent, category)
            self.beneficiaries += self.is_pref[category]
        super().fix(agent, category)

    def finish(self) -> Matching:
        for a, c in self.X:
            assert self.mu.assignment[a] == c, f"fixed agent {a} moved"
        # the steps check the running count; recount it once here
        assert _beneficiary_load(self.mu, self.seq) == self.beneficiaries == self.b
        return self.mu.to_matching()

    def trace_fields(self) -> dict:
        return {"matching": list(self.mu.assignment)}


# A move: (agent, its category before the step, its category after), with
# None for unmatched.
Move = tuple[int, Optional[int], Optional[int]]


def scu_bipartite_step(state: SCUState, agent: int, category: int) -> str:
    """One candidate evaluation while ``category`` is being processed.

    An agent already matched there is fixed in place. Otherwise the step
    applies a cycle through the pinned edge (agent, category) in the residual
    reserve network of the working matching, if one exists. It exists exactly
    when some matching keeps every fix, assigns the agent to the category and
    keeps both maxima (feasible flows with lower bounds), which is the
    question ``scu_feasibility_check`` answers. The cycle is found on the
    category quotient (``_quotient_path``, rooted at ``category``) as a path
    to the node the agent leaves, and then expanded to one moving agent per
    arc, so a candidate costs O(K^2) plus its cycle, whatever n is. A
    one-swap candidate needs no search: when an unfixed member of
    ``category`` is eligible where the candidate sits (for an unmatched
    candidate, when ``category`` has any unfixed member), the path is that
    one arc. In ``scu_allocate`` every unmatched candidate is one swap: its
    category is full, as m is maximum, and not all fixed, or the loop would
    have stopped.
    """
    cur = state.mu.assignment[agent]
    moves: list[Move] = []
    if cur != category:
        leaves = len(state.via) + 2 if cur is None else cur
        path = _quotient_path(state, category, (leaves,))
        if path is None:
            return NO_CHANGE
        moves = _movers(state, path)
        for x, _, target in moves:
            state.move(x, target)
    state.fix(agent, category)
    _check_state(state, moves + [(agent, cur, category)])
    return FIXED


def _quotient_path(
    state: SCUState, root: int, goals: Collection[int]
) -> Optional[list[int]]:
    """Breadth-first search on the category quotient of the residual reserve
    network, from ``root`` to the first node it discovers in ``goals``. A
    step searches from the candidate's category to the node the candidate
    leaves; the start searches from the source to the categories with a
    free slot that its stage allows.

    Nodes are category d as d, class k (1 = preferential) as K + k and the
    source as K + 2. An agent node of the residual network has one in-arc,
    from its category or from the source, so reachability is the same on
    the quotient, whose arcs are: d to e if some unfixed member of d is
    eligible for e (it moves there); d to the source if d has an unfixed
    member (it drops out); d to its class if d has a free slot; a class to
    each of its categories with load > 0 (that category gives up a unit);
    the source to e if some unmatched agent is eligible for e. Class totals
    stay at b and m - b, so no arc runs through the sink. A goal is never
    expanded, and each of the K + 3 nodes is expanded at most once.

    A category root with one goal, as every step has, is first tested for
    the direct arc to that goal (``via[root][goal]``, or ``unfixed[root]``
    for the source) and returns ``[root, goal]`` without a queue. That is
    the search's own path: its first expansion discovers every successor of
    the root and returns the first one in ``goals``, which with one goal is
    the goal.
    """
    mu, via, free, unfixed = state.mu, state.via, state.free, state.unfixed
    num_categories = len(via)
    source = num_categories + 2
    if root < num_categories and len(goals) == 1:
        (goal,) = goals
        if unfixed[root] if goal == source else via[root].get(goal):
            return [root, goal]
    caps, is_pref = state.seq.capacities, state.is_pref
    parent = {root: root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        if node < num_categories:
            succ = [e for e, members in via[node].items() if members]
            if unfixed[node]:
                succ.append(source)
            if mu.load[node] < caps[node]:
                succ.append(num_categories + is_pref[node])
        elif node == source:
            succ = [e for e in range(num_categories) if free[e]]
        else:
            succ = [d for d in state.classes[node - num_categories] if mu.load[d] > 0]
        for nxt in succ:
            if nxt in parent:
                continue
            parent[nxt] = node
            if nxt in goals:
                path = [nxt]
                while nxt != root:
                    nxt = parent[nxt]
                    path.append(nxt)
                path.reverse()
                return path
            queue.append(nxt)
    return None


def _movers(state: SCUState, path: Sequence[int]) -> list[Move]:
    """One move per agent arc of a quotient path, of a step or of the start;
    class arcs move no agent. Each node of the simple path gives up at most
    one agent and a step's candidate sits at its last node, so the movers
    are distinct and none is the candidate."""
    num_categories = len(state.via)
    source = num_categories + 2
    moves: list[Move] = []
    for u, v in zip(path, path[1:]):
        if u == source:
            moves.append((_any(state.free[v]), None, v))
        elif u < num_categories and v == source:
            moves.append((_any(state.unfixed[u]), u, None))
        elif u < num_categories and v < num_categories:
            moves.append((_any(state.via[u][v]), u, v))
    return moves


def _any(row: set[int]) -> int:
    """Some member of a non-empty row, which stays in the row.

    ``next(iter(row))`` scans the row's table from slot 0. A set does not
    shrink its table on ``discard``, and each pick's agent leaves the row,
    so the front of the table fills with dead slots that every later pick
    passes again: O(n^2 / K) over a run. ``set.pop`` starts its scan where
    the previous pop stopped (CPython keeps that position on the set), so
    successive picks share one sweep of the table; adding the member back
    leaves the row's contents as they were."""
    agent = row.pop()
    row.add(agent)
    return agent


def _check_state(state: SCUState, moves: Sequence[Move]) -> None:
    """Invariants after one fix, checked on what the step changed: the last
    fix and the ``moves`` (the candidate's last), O(deg) per moved agent.
    Each moved agent's quotient rows match its category and fixed status:
    every ``free`` row, and the ``via`` rows of its old and new category."""
    mu, free, via, caps = state.mu, state.free, state.via, state.seq.capacities
    agent, c = state.X[-1]
    assert mu.assignment[agent] == c, f"agent {agent} not placed in category {c}"
    for x, old, here in moves:
        assert x == agent or x not in state.in_x, f"fixed agent {x} moved"
        assert mu.assignment[x] == here, f"agent {x} not moved to {here}"
        if here is not None:
            assert mu.load[here] <= caps[here], f"category {here} over capacity"
        unfixed = here is not None and x not in state.in_x
        left = via[old] if old is not None and old != here else None
        held = via[here] if here is not None else None
        for e in state.graph.agent_adj[x]:
            assert (x in free[e]) == (here is None), f"free[{e}] wrong for agent {x}"
            if left is not None:
                assert x not in left.get(e, ()), f"via[{old}][{e}] wrong for agent {x}"
            if held is not None:
                assert (x in held.get(e, ())) == unfixed, f"via[{here}][{e}] wrong for agent {x}"
    assert mu.size() == state.m, "cardinality must stay maximal"
    assert state.beneficiaries == state.b, "beneficiary count must stay maximal"
