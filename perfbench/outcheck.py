"""Independent O(n*K) check of a solve output, and the refute-matching tamper.

Shares no code with ``reservematch.axioms``, the module the benchmark times:
it reads the instance and matching files as plain JSON data.
"""

from __future__ import annotations

import json
from typing import Any, Optional

Assignment = list[Optional[int]]


def read_assignment(text: str, num_agents: int) -> Assignment:
    """The matching file's assignment; it must name every agent exactly once."""
    entries = json.loads(text)["assignment"]
    if sorted(entries, key=int) != [str(a) for a in range(num_agents)]:
        raise ValueError("matching does not list agents 0..n-1 exactly once")
    return [entries[str(a)] for a in range(num_agents)]


def _positions(raw: dict[str, Any]) -> list[list[int]]:
    table = []
    for entry in sorted(raw["categories"], key=lambda e: e["id"]):
        pos = [0] * raw["agents"]
        for rank, agent in enumerate(entry["ranking"]):
            pos[agent] = rank
        table.append(pos)
    return table


def violations(raw: dict[str, Any], assignment: Assignment) -> list[str]:
    """Names of the properties the matching breaks: eligibility, capacity,
    respect-priorities (no unmatched eligible agent ranks above a category's
    lowest occupant) and non-wastefulness. Empty when all hold."""
    cats = sorted(raw["categories"], key=lambda e: e["id"])
    cutoff = [e["eligible_cutoff"] for e in cats]
    capacity = [e["capacity"] for e in cats]
    pos = _positions(raw)
    load = [0] * len(cats)
    lowest = [-1] * len(cats)
    found: set[str] = set()
    for agent, c in enumerate(assignment):
        if c is None:
            continue
        if pos[c][agent] >= cutoff[c]:
            found.add("eligibility")
        load[c] += 1
        lowest[c] = max(lowest[c], pos[c][agent])
    if any(load[c] > capacity[c] for c in range(len(cats))):
        found.add("capacity")
    for agent, c in enumerate(assignment):
        if c is not None:
            continue
        for d in range(len(cats)):
            rank = pos[d][agent]
            if rank >= cutoff[d]:
                continue
            if rank < lowest[d]:
                found.add("respect-priorities")
            if load[d] < capacity[d]:
                found.add("non-wastefulness")
    return sorted(found)


def tamper(raw: dict[str, Any], assignment: Assignment) -> Assignment:
    """Unmatch one agent: the highest-numbered agent that sits in a
    non-preferential category above that category's lowest occupant.

    The dropped agent is eligible there, left with a free seat, and ranks
    above the remaining lowest occupant, so the result always fails
    respect-priorities, non-wastefulness and max-cardinality, and passes
    eligibility and max-beneficiary. Taking the highest-numbered such agent
    makes checkers that scan agents in index order meet the witness last,
    so a refute costs about as much on every instance.
    """
    preferential = set(raw.get("preferential") or [])
    pos = _positions(raw)
    members: dict[int, list[int]] = {}
    for agent, c in enumerate(assignment):
        if c is not None and c not in preferential:
            members.setdefault(c, []).append(agent)
    candidates = []
    for c, agents in members.items():
        lowest = max(agents, key=lambda a: pos[c][a])
        candidates += [a for a in agents if a != lowest]
    if not candidates:
        raise ValueError("no open category holds two agents")
    out = list(assignment)
    out[max(candidates)] = None
    return out


def to_json(assignment: Assignment) -> str:
    return json.dumps({"assignment": {str(a): c for a, c in enumerate(assignment)}}) + "\n"
