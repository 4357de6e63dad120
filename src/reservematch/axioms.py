"""Matching-level verdicts for every axiom defined on matchings.

Each check returns an AxiomVerdict carrying a pass flag and, on failure, a
structured witness that mechanically re-derives the violation. The
existential precedence check is decided exactly, either by enumerating all
eligibility-compliant matchings (oracle mode) or by a lower-bounded flow
feasibility pass (flow mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .model import (
    AnySystem,
    Matching,
    ReserveSystem,
    SequentialReserveSystem,
    as_sequential,
    base_of,
)
from .netflow import (
    OPEN_CLASS,
    PREF_CLASS,
    build_reserve_network,
    feasible_flow,
    flow_to_matching,
)

ELIGIBILITY = "eligibility"
RESPECT_PRIORITIES = "respect-priorities"
NON_WASTEFULNESS = "non-wastefulness"
MAX_CARDINALITY = "max-cardinality"
MAX_BENEFICIARY = "max-beneficiary"
ORDER_PRESERVATION_SWAP = "order-preservation-swap"
RESPECT_PRECEDENCE = "respect-precedence"
ORDER_PRESERVATION_HYBRID = "order-preservation-hybrid"

FUNDAMENTAL = (ELIGIBILITY, RESPECT_PRIORITIES, NON_WASTEFULNESS, MAX_CARDINALITY)
SEQUENTIAL = (MAX_BENEFICIARY, ORDER_PRESERVATION_SWAP, RESPECT_PRECEDENCE)


class NotHybridInstance(ValueError):
    """The instance carries no hybrid open-category split."""


class OracleBoundExceeded(ValueError):
    """Oracle-mode precedence check refused on an oversized instance."""


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    passed: bool
    witness: Optional[dict[str, Any]] = None

    def to_raw(self) -> dict[str, Any]:
        out: dict[str, Any] = {"axiom": self.axiom, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def check_eligibility(system: AnySystem, matching: Matching) -> AxiomVerdict:
    base = base_of(system)
    for agent, c in enumerate(matching.assignment):
        if c is not None and not base.is_eligible(agent, c):
            return AxiomVerdict(
                ELIGIBILITY, False, {"agent": agent, "category": c}
            )
    return AxiomVerdict(ELIGIBILITY, True)


def check_respect_priorities(system: AnySystem, matching: Matching) -> AxiomVerdict:
    """No unmatched agent ranks above an occupant of any category. The
    witness is the first failing (unmatched agent, category) pair in index
    order, with the lowest-index occupant it outranks there; O(n·K)."""
    base = base_of(system)
    occupants: list[list[int]] = [[] for _ in range(base.num_categories)]
    for agent, c in enumerate(matching.assignment):
        if c is not None:
            occupants[c].append(agent)
    lowest = [
        max((base.position(c, b) for b in occ), default=-1)
        for c, occ in enumerate(occupants)
    ]
    for agent, assigned in enumerate(matching.assignment):
        if assigned is not None:
            continue
        for c in range(base.num_categories):
            pos = base.position(c, agent)
            if pos < lowest[c]:
                other = next(b for b in occupants[c] if pos < base.position(c, b))
                return AxiomVerdict(
                    RESPECT_PRIORITIES,
                    False,
                    {"unmatched": agent, "matched": other, "category": c},
                )
    return AxiomVerdict(RESPECT_PRIORITIES, True)


def check_nonwasteful(system: AnySystem, matching: Matching) -> AxiomVerdict:
    """No unmatched agent is eligible for a category with a free slot. The
    witness is the lowest-index such agent with its lowest-index such
    category; only the eligible prefixes of non-full categories are read."""
    base = base_of(system)
    assignment = matching.assignment
    loads = matching.loads(base.num_categories)
    witness = min(
        (
            (a, c)
            for c, cap in enumerate(base.capacities)
            if loads[c] < cap
            for a in base.eligible_agents(c)
            if assignment[a] is None
        ),
        default=None,
    )
    if witness is None:
        return AxiomVerdict(NON_WASTEFULNESS, True)
    agent, c = witness
    return AxiomVerdict(
        NON_WASTEFULNESS,
        False,
        {
            "agent": agent,
            "category": c,
            "load": loads[c],
            "capacity": base.capacities[c],
        },
    )


def check_max_cardinality(
    system: AnySystem, matching: Matching, max_size: int
) -> AxiomVerdict:
    size = matching.matched_count()
    if size == max_size:
        return AxiomVerdict(MAX_CARDINALITY, True)
    return AxiomVerdict(
        MAX_CARDINALITY, False, {"matched": size, "maximum": max_size}
    )


def check_max_beneficiary(
    system: AnySystem, matching: Matching, b: int
) -> AxiomVerdict:
    seq = as_sequential(system)
    count = matching.beneficiary_count(seq.preferential)
    if count == b:
        return AxiomVerdict(MAX_BENEFICIARY, True)
    return AxiomVerdict(
        MAX_BENEFICIARY, False, {"beneficiaries": count, "maximum": b}
    )


def check_order_preservation_swap(
    system: AnySystem, matching: Matching
) -> AxiomVerdict:
    """No matched pair may swap so that the higher-priority agent moves into
    the strictly earlier category: flags (i, j) with μ(j) earlier than μ(i),
    i above j at μ(j), and mutual eligibility."""
    seq = as_sequential(system)
    base = seq.base
    for i in range(base.num_agents):
        ci = matching.assignment[i]
        if ci is None:
            continue
        for j in range(base.num_agents):
            if i == j:
                continue
            cj = matching.assignment[j]
            if cj is None or not seq.precedence.before(cj, ci):
                continue
            if not base.is_eligible(i, cj) or not base.is_eligible(j, ci):
                continue
            if base.position(cj, i) < base.position(cj, j):
                return AxiomVerdict(
                    ORDER_PRESERVATION_SWAP,
                    False,
                    {"i": i, "j": j, "category_i": ci, "category_j": cj},
                )
    return AxiomVerdict(ORDER_PRESERVATION_SWAP, True)


def _precedence_flags(seq: SequentialReserveSystem, matching: Matching):
    """Premise-satisfying candidates (i, j, c): agent i sits strictly later
    (or unmatched, which has the lowest precedence of all) than category c,
    which holds a lower-priority occupant j -- or, with j = None, has a free
    slot i is eligible for. The free-slot form is what makes the axiom pin
    down a unique matching among the maxima: without it, an agent parked late
    next to an empty earlier category forms no pair at all."""
    base = seq.base
    loads = matching.loads(base.num_categories)
    for cj in range(base.num_categories):
        occupants = matching.agents_in(cj)
        for i in range(base.num_agents):
            ci = matching.assignment[i]
            if ci == cj:
                continue
            if ci is not None and not seq.precedence.before(cj, ci):
                continue
            if not base.is_eligible(i, cj):
                continue
            for j in occupants:
                if base.is_eligible(j, cj) and base.position(cj, i) < base.position(cj, j):
                    yield i, j, cj
                    break
            else:
                if loads[cj] < base.capacities[cj]:
                    yield i, None, cj


def _alternative_exists_flow(
    seq: SequentialReserveSystem,
    matching: Matching,
    i: int,
    cj: int,
    b: int,
    m: int,
) -> Optional[dict[str, Any]]:
    """Feasibility of the alternative matching in flow form: pin the earlier
    categories' occupants, pin cj's higher-priority occupants, force i into
    cj, and require both class totals."""
    base = seq.base
    rn = build_reserve_network(seq)
    net = rn.network
    pinned = set()
    for c in range(base.num_categories):
        if seq.precedence.before(c, cj):
            for k in matching.agents_in(c):
                net.set_lower(rn.assign_edge[(k, c)], 1)
                pinned.add(k)
    for ell in matching.agents_in(cj):
        if base.position(cj, ell) < base.position(cj, i):
            net.set_lower(rn.assign_edge[(ell, cj)], 1)
            pinned.add(ell)
    if i in pinned:
        return None
    net.set_lower(rn.assign_edge[(i, cj)], 1)
    net.set_lower(rn.class_edge[PREF_CLASS], b)
    net.set_lower(rn.class_edge[OPEN_CLASS], m - b)
    flow = feasible_flow(net)
    if flow is None:
        return None
    alt = flow_to_matching(rn, flow)
    return {str(a): c for a, c in enumerate(alt.assignment)}


def _alternative_exists_oracle(
    seq: SequentialReserveSystem,
    matching: Matching,
    i: int,
    cj: int,
    b: int,
    m: int,
    space,
) -> Optional[dict[str, Any]]:
    base = seq.base
    earlier_pins = {
        k: c
        for c in range(base.num_categories)
        if seq.precedence.before(c, cj)
        for k in matching.agents_in(c)
    }
    priority_pins = {
        ell: cj
        for ell in matching.agents_in(cj)
        if base.position(cj, ell) < base.position(cj, i)
    }
    if i in earlier_pins or i in priority_pins:
        return None
    for alt in space:
        if alt.matched_count() != m:
            continue
        if alt.beneficiary_count(seq.preferential) != b:
            continue
        if alt.assignment[i] != cj:
            continue
        if any(alt.assignment[k] != c for k, c in earlier_pins.items()):
            continue
        if any(alt.assignment[k] != c for k, c in priority_pins.items()):
            continue
        return {str(a): c for a, c in enumerate(alt.assignment)}
    return None


def check_respect_precedence(
    system: AnySystem,
    matching: Matching,
    search: str = "flow",
    b: Optional[int] = None,
    m: Optional[int] = None,
    oracle_bound: int = 10_000_000,
) -> AxiomVerdict:
    """Fails when some pair admits an alternative matching that keeps every
    earlier category's occupants and cj's higher-priority occupants in
    place, moves i into cj, and preserves both maxima."""
    seq = as_sequential(system)
    if b is None or m is None:
        from .rules_sequential import dual_maximum_matching

        _, b, m = dual_maximum_matching(seq)
    space = None
    if search == "oracle":
        from .harness import MatchingSpace, SpaceTooLarge

        try:
            space = list(MatchingSpace(seq, max_size=oracle_bound))
        except SpaceTooLarge as exc:
            raise OracleBoundExceeded(str(exc)) from exc
    elif search != "flow":
        raise ValueError(f"unknown search mode {search!r}")
    for i, j, cj in _precedence_flags(seq, matching):
        if search == "flow":
            alt = _alternative_exists_flow(seq, matching, i, cj, b, m)
        else:
            alt = _alternative_exists_oracle(seq, matching, i, cj, b, m, space)
        if alt is not None:
            return AxiomVerdict(
                RESPECT_PRECEDENCE,
                False,
                {"i": i, "j": j, "category_j": cj, "alternative": alt},
            )
    return AxiomVerdict(RESPECT_PRECEDENCE, True)


def check_order_preservation_hybrid(
    system: AnySystem, matching: Matching
) -> AxiomVerdict:
    """The two-clause form specific to an early-open / preferential /
    late-open split. Requires the instance's hybrid marker."""
    seq = as_sequential(system)
    if seq.hybrid is None:
        raise NotHybridInstance("instance carries no hybrid marker")
    base = seq.base
    early, late = seq.hybrid.open_early, seq.hybrid.open_late
    pref = seq.preferential
    for i in range(base.num_agents):
        ci = matching.assignment[i]
        for j in range(base.num_agents):
            if i == j:
                continue
            cj = matching.assignment[j]
            if cj is None:
                continue
            if not base.is_eligible(i, cj):
                continue
            if base.position(cj, i) >= base.position(cj, j):
                continue
            # clause 1: i held by preferential or late-open, j eligible there
            if (
                ci is not None
                and (ci in pref or ci in late)
                and base.is_eligible(j, ci)
                and cj in early
            ):
                return AxiomVerdict(
                    ORDER_PRESERVATION_HYBRID,
                    False,
                    {"clause": 1, "i": i, "j": j, "category_i": ci, "category_j": cj},
                )
            # clause 2: j held by preferential or early-open, i parked late-open
            if (cj in pref or cj in early) and ci is not None and ci in late:
                return AxiomVerdict(
                    ORDER_PRESERVATION_HYBRID,
                    False,
                    {"clause": 2, "i": i, "j": j, "category_i": ci, "category_j": cj},
                )
    return AxiomVerdict(ORDER_PRESERVATION_HYBRID, True)
