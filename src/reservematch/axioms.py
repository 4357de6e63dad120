"""Matching-level verdicts for every axiom defined on matchings.

Each check returns an AxiomVerdict carrying a pass flag and, on failure, a
structured witness that mechanically re-derives the violation. The
existential precedence check is decided exactly, either by enumerating all
eligibility-compliant matchings (oracle mode) or by a lower-bounded flow
feasibility pass (flow mode).
"""

from __future__ import annotations

from typing import Any, Optional

from .model import (
    AnySystem,
    InstanceError,
    Matching,
    Record,
    ReserveSystem,
    SequentialReserveSystem,
    as_sequential,
    base_of,
)
from .netflow import pinned_alternative
from .rules_sequential import dual_maximum_matching

ELIGIBILITY = "eligibility"
RESPECT_PRIORITIES = "respect-priorities"
NON_WASTEFULNESS = "non-wastefulness"
MAX_CARDINALITY = "max-cardinality"
MAX_BENEFICIARY = "max-beneficiary"
ORDER_PRESERVATION_SWAP = "order-preservation-swap"
RESPECT_PRECEDENCE = "respect-precedence"
ORDER_PRESERVATION_HYBRID = "order-preservation-hybrid"

Assignment = tuple[Optional[int], ...]

FUNDAMENTAL = (ELIGIBILITY, RESPECT_PRIORITIES, NON_WASTEFULNESS, MAX_CARDINALITY)
SEQUENTIAL = (MAX_BENEFICIARY, ORDER_PRESERVATION_SWAP, RESPECT_PRECEDENCE)


class NotHybridInstance(InstanceError):
    """The instance carries no hybrid open-category split."""


class OracleBoundExceeded(InstanceError):
    """Oracle-mode precedence check refused on an oversized instance."""


class AxiomVerdict(Record):
    __slots__ = _fields = ("axiom", "passed", "witness")
    axiom: str
    passed: bool
    witness: Optional[dict[str, Any]]

    def __init__(
        self, axiom: str, passed: bool, witness: Optional[dict[str, Any]] = None
    ) -> None:
        self._init(axiom, passed, witness)

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
    order, with the lowest-index occupant it outranks there. Only each
    category's ranking above its lowest occupant is read, so an
    eligibility-compliant matching never needs a rank map beyond the
    eligible prefixes; O(n·K) at worst."""
    base = base_of(system)
    assignment = matching.assignment
    occupants: list[list[int]] = [[] for _ in range(base.num_categories)]
    for agent, c in enumerate(assignment):
        if c is not None:
            occupants[c].append(agent)
    lowest = [
        max((base.position(c, b) for b in occ), default=-1)
        for c, occ in enumerate(occupants)
    ]
    witness = min(
        (
            (agent, c, pos)
            for c in range(base.num_categories)
            for pos, agent in enumerate(
                base.priorities[c].ordered_agents[: max(lowest[c], 0)]
            )
            if assignment[agent] is None
        ),
        default=None,
    )
    if witness is None:
        return AxiomVerdict(RESPECT_PRIORITIES, True)
    agent, c, pos = witness
    other = next(b for b in occupants[c] if pos < base.position(c, b))
    return AxiomVerdict(
        RESPECT_PRIORITIES,
        False,
        {"unmatched": agent, "matched": other, "category": c},
    )


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


def _own_ranks(base: ReserveSystem, assignment: Assignment) -> list[Optional[int]]:
    """Each occupant's position at its own category, None for an unmatched
    agent. An occupant that is not eligible there gets the category's cutoff:
    every eligible agent ranks above it, as above its true position."""
    rank_of = [ranking.eligible_ranks().get for ranking in base.priorities]
    cutoff = [ranking.eligible_cutoff for ranking in base.priorities]
    return [
        None if c is None else rank_of[c](agent, cutoff[c]) for agent, c in enumerate(assignment)
    ]


def _swap_bounds(
    base: ReserveSystem,
    assignment: Assignment,
    own: list[Optional[int]],
    allowed: list[list[bool]],
) -> list[list[int]]:
    """bound[d][e]: the lowest rank at d among d's occupants who are eligible
    for e, over the category pairs with allowed[d][e] (-1 where there is
    none). An agent held at e who is eligible for d outranks such an occupant
    iff its position at d is below bound[d][e]. One pass over the eligible
    prefixes."""
    k = base.num_categories
    bound = [[-1] * k for _ in range(k)]
    for e in range(k):
        for j in base.eligible_agents(e):
            d = assignment[j]
            if d is not None and allowed[d][e] and own[j] > bound[d][e]:
                bound[d][e] = own[j]
    return bound


def _first_outranking(
    base: ReserveSystem, assignment: Assignment, bound: list[list[int]]
) -> Optional[int]:
    """The lowest-index matched agent i, held at e, with a category d it is
    eligible for where its position is below bound[d][e]. Only the prefix
    of each eligible list above the row's largest bound is read."""
    first: Optional[int] = None
    for d, row in enumerate(bound):
        eligible = base.eligible_agents(d)
        for p in range(max(row, default=-1)):
            i = eligible[p]
            e = assignment[i]
            if e is not None and p < row[e] and (first is None or i < first):
                first = i
    return first


def _swap_partner(
    seq: SequentialReserveSystem, matching: Matching, i: int
) -> Optional[dict[str, Any]]:
    """The witness for agent i: its first swap partner j in index order."""
    base = seq.base
    ci = matching.assignment[i]
    for j in range(base.num_agents):
        if i == j:
            continue
        cj = matching.assignment[j]
        if cj is None or not seq.precedence.before(cj, ci):
            continue
        if not base.is_eligible(i, cj) or not base.is_eligible(j, ci):
            continue
        if base.position(cj, i) < base.position(cj, j):
            return {"i": i, "j": j, "category_i": ci, "category_j": cj}
    return None


def check_order_preservation_swap(
    system: AnySystem, matching: Matching
) -> AxiomVerdict:
    """No matched pair may swap so that the higher-priority agent moves into
    the strictly earlier category: flags (i, j) with μ(j) earlier than μ(i),
    i above j at μ(j), and mutual eligibility. The witness is the first such
    pair in index order; O(n + edges + K²), plus O(n) for the witness."""
    seq = as_sequential(system)
    base = seq.base
    assignment = matching.assignment
    tier = seq.precedence.tier_of
    allowed = [[td < te for te in tier] for td in tier]
    bound = _swap_bounds(base, assignment, _own_ranks(base, assignment), allowed)
    i = _first_outranking(base, assignment, bound)
    if i is None:
        return AxiomVerdict(ORDER_PRESERVATION_SWAP, True)
    return AxiomVerdict(
        ORDER_PRESERVATION_SWAP, False, _swap_partner(seq, matching, i)
    )


def _precedence_flags(seq: SequentialReserveSystem, matching: Matching):
    """Premise-satisfying candidates (i, j, c): agent i sits strictly later
    (or unmatched, which has the lowest precedence of all) than category c,
    which holds a lower-priority occupant j -- or, with j = None, has a free
    slot i is eligible for. The free-slot form is what makes the axiom pin
    down a unique matching among the maxima: without it, an agent parked late
    next to an empty earlier category forms no pair at all.

    Flags come by c, then i, with j the first qualifying occupant in index
    order. A full category is read only down to its lowest eligible
    occupant, and j is looked up only for a flag that is yielded."""
    base = seq.base
    assignment = matching.assignment
    tier = seq.precedence.tier_of
    own = _own_ranks(base, assignment)
    occupants: list[list[int]] = [[] for _ in range(base.num_categories)]
    for agent, c in enumerate(assignment):
        if c is not None:
            occupants[c].append(agent)
    for cj, occ in enumerate(occupants):
        cutoff = base.priorities[cj].eligible_cutoff
        lowest = max((own[j] for j in occ if own[j] < cutoff), default=-1)
        eligible = base.eligible_agents(cj)
        if len(occ) >= base.capacities[cj]:
            eligible = eligible[: max(lowest, 0)]
        flagged = sorted(
            (i, p)
            for p, i in enumerate(eligible)
            if assignment[i] is None or tier[cj] < tier[assignment[i]]
        )
        for i, p in flagged:
            if p < lowest:
                yield i, next(j for j in occ if p < own[j] < cutoff), cj
            else:
                yield i, None, cj


def _alternative_pins(
    seq: SequentialReserveSystem, matching: Matching, i: int, cj: int
) -> list[tuple[int, int]]:
    """The pairs an alternative matching for the flag (i, cj) must hold:
    the occupants of strictly earlier tiers, cj's occupants ranked above i,
    and i at cj. A flagged i is unmatched or held strictly later than cj, so
    it is none of those occupants."""
    tier = seq.precedence.tier_of
    rank = seq.base.position(cj, i)
    pins = [
        (k, c)
        for k, c in enumerate(matching.assignment)
        if c is not None and (tier[c] < tier[cj] or (c == cj and seq.base.position(cj, k) < rank))
    ]
    return pins + [(i, cj)]


def _alternative_in_space(
    seq: SequentialReserveSystem, pins: list[tuple[int, int]], b: int, m: int, space
) -> Optional[Matching]:
    """The first matching of the enumerated ``space`` that holds every pin
    and both maxima."""
    for alt in space:
        if (
            alt.matched_count() == m
            and alt.beneficiary_count(seq.preferential) == b
            and all(alt.assignment[k] == c for k, c in pins)
        ):
            return alt
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
        pins = _alternative_pins(seq, matching, i, cj)
        if search == "flow":
            alt = pinned_alternative(seq, pins, b, m)
        else:
            alt = _alternative_in_space(seq, pins, b, m, space)
        if alt is not None:
            witness = dict(zip(map(str, range(len(alt.assignment))), alt.assignment))
            return AxiomVerdict(
                RESPECT_PRECEDENCE,
                False,
                {"i": i, "j": j, "category_j": cj, "alternative": witness},
            )
    return AxiomVerdict(RESPECT_PRECEDENCE, True)


def _hybrid_witness(
    seq: SequentialReserveSystem, matching: Matching, i: int
) -> Optional[dict[str, Any]]:
    """The witness for agent i: its first partner j in index order that
    meets either clause, clause 1 tested first."""
    base = seq.base
    early, late = seq.hybrid.open_early, seq.hybrid.open_late
    pref = seq.preferential
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
            return {"clause": 1, "i": i, "j": j, "category_i": ci, "category_j": cj}
        # clause 2: j held by preferential or early-open, i parked late-open
        if (cj in pref or cj in early) and ci is not None and ci in late:
            return {"clause": 2, "i": i, "j": j, "category_i": ci, "category_j": cj}
    return None


def check_order_preservation_hybrid(
    system: AnySystem, matching: Matching
) -> AxiomVerdict:
    """The two-clause form specific to an early-open / preferential /
    late-open split. Requires the instance's hybrid marker. Clause 1 is the
    swap scan from early-open into preferential or late-open categories;
    clause 2 needs one lowest-occupant rank per preferential or early-open
    category. O(n + edges + K²), plus O(n) for the witness."""
    seq = as_sequential(system)
    if seq.hybrid is None:
        raise NotHybridInstance("instance carries no hybrid marker")
    base = seq.base
    early, late = seq.hybrid.open_early, seq.hybrid.open_late
    held_before = seq.preferential | early
    assignment = matching.assignment
    k = base.num_categories
    allowed = [
        [d in early and e not in early for e in range(k)] for d in range(k)
    ]
    own = _own_ranks(base, assignment)
    bound = _swap_bounds(base, assignment, own, allowed)
    # clause 2 asks nothing of j's eligibility: every occupant of an earlier
    # category counts against an agent parked late-open
    lowest = [-1] * k
    for j, d in enumerate(assignment):
        if d is not None and d in held_before and own[j] > lowest[d]:
            lowest[d] = own[j]
    for d in held_before:
        for e in late:
            bound[d][e] = max(bound[d][e], lowest[d])
    i = _first_outranking(base, assignment, bound)
    if i is None:
        return AxiomVerdict(ORDER_PRESERVATION_HYBRID, True)
    return AxiomVerdict(
        ORDER_PRESERVATION_HYBRID, False, _hybrid_witness(seq, matching, i)
    )
