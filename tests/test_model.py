from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from reservematch import axioms
from reservematch.cli import run_checks

from reservematch.model import (
    DuplicateAgentInRanking,
    InstanceError,
    Matching,
    NegativeCapacity,
    PrecedenceOrder,
    PriorityRanking,
    RankingIncomplete,
    ReserveSystem,
    SequentialReserveSystem,
    TierCountMismatch,
    UnknownCategoryInPreferential,
    as_sequential,
    canonical_json,
    instance_to_json,
    matching_to_json,
    matching_to_raw,
    parse_instance,
    parse_matching,
    validate_instance,
)
from reservematch.rules_basic import mma_allocate


def _contested_pair_raw():
    return {
        "agents": 3,
        "categories": [
            {"id": 0, "capacity": 1, "ranking": [1, 0, 2], "eligible_cutoff": 2},
            {"id": 1, "capacity": 1, "ranking": [1, 2, 0], "eligible_cutoff": 2},
        ],
    }


def test_validate_basic_instance():
    system = validate_instance(_contested_pair_raw())
    assert isinstance(system, ReserveSystem)
    assert system.capacities == (1, 1)
    assert system.eligible_agents(0) == (1, 0)
    assert system.eligible_agents(1) == (1, 2)


def test_validate_sequential_instance():
    raw = {
        "agents": 6,
        "categories": [
            {"id": 0, "capacity": 1, "ranking": [1, 0, 2, 3, 4, 5], "eligible_cutoff": 3},
            {"id": 1, "capacity": 1, "ranking": [1, 3, 5, 2, 4, 0], "eligible_cutoff": 6},
            {"id": 2, "capacity": 1, "ranking": [4, 3, 5, 0, 1, 2], "eligible_cutoff": 3},
        ],
        "preferential": [0, 2],
        "tiers": [0, 1, 2],
    }
    system = validate_instance(raw)
    assert isinstance(system, SequentialReserveSystem)
    assert system.preferential == frozenset({0, 2})
    assert system.open_categories() == frozenset({1})
    assert system.precedence.strict_sequence() == (0, 1, 2)


def test_duplicate_agent_in_ranking():
    raw = _contested_pair_raw()
    raw["categories"][0]["ranking"] = [1, 1, 2]
    with pytest.raises(DuplicateAgentInRanking, match="category 0"):
        validate_instance(raw)


def test_ranking_incomplete():
    raw = _contested_pair_raw()
    raw["categories"][1]["ranking"] = [1, 2]
    with pytest.raises(RankingIncomplete, match="category 1"):
        validate_instance(raw)


def test_negative_capacity():
    raw = _contested_pair_raw()
    raw["categories"][1]["capacity"] = -2
    with pytest.raises(NegativeCapacity, match="category 1"):
        validate_instance(raw)


def test_unknown_preferential_category():
    raw = _contested_pair_raw()
    raw["preferential"] = [5]
    with pytest.raises(UnknownCategoryInPreferential, match="5"):
        validate_instance(raw)


def test_tier_count_mismatch():
    raw = _contested_pair_raw()
    raw["tiers"] = [0]
    with pytest.raises(TierCountMismatch):
        validate_instance(raw)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("categories", "", "categories must be an array"),
        ("preferential", "0", "preferential must be an array"),
        ("tiers", {"0": 0, "1": 0}, "tiers must be an array"),
        ("hybrid", [["open_early", [0]]], "hybrid must be an object"),
        ("hybrid", {"open_early": [0], "open_late": "1"}, "hybrid.open_late must be an array"),
    ],
)
def test_list_fields_must_be_json_arrays(field, value, message):
    """A string or an object in a list-typed field is not read as its
    characters or its keys."""
    raw = _contested_pair_raw()
    raw[field] = value
    with pytest.raises(InstanceError, match=message):
        validate_instance(raw)


def test_eligibility_prefix_and_cutoff_zero(contested_pair):
    empty = PriorityRanking((0, 1, 2), 0)
    assert empty.eligible() == ()
    ranking = contested_pair.priorities[0]
    assert ranking.eligible() == ranking.ordered_agents[: ranking.eligible_cutoff]


def test_compare_priority(contested_pair):
    assert contested_pair.compare_priority(0, 1, 0)  # agent 1 above agent 0 at c0
    assert contested_pair.compare_priority(1, 2, 0)
    assert not contested_pair.compare_priority(0, 0, 1)
    with pytest.raises(ValueError):
        contested_pair.compare_priority(0, 1, 1)


def test_compare_priority_total_order(contested_pair):
    for c in range(contested_pair.num_categories):
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                assert contested_pair.compare_priority(c, a, b) != (
                    contested_pair.compare_priority(c, b, a)
                )


def test_instance_round_trip(grouped_six, contested_pair):
    for system in (grouped_six, contested_pair):
        text = instance_to_json(system)
        again = parse_instance(text)
        assert instance_to_json(again) == text


def test_hybrid_marker_round_trip():
    raw = {
        "agents": 2,
        "categories": [
            {"id": 0, "capacity": 1, "ranking": [0, 1], "eligible_cutoff": 2},
            {"id": 1, "capacity": 1, "ranking": [0, 1], "eligible_cutoff": 1},
            {"id": 2, "capacity": 1, "ranking": [1, 0], "eligible_cutoff": 2},
        ],
        "preferential": [1],
        "tiers": [0, 1, 2],
        "hybrid": {"open_early": [0], "open_late": [2]},
    }
    system = validate_instance(raw)
    assert system.hybrid is not None
    assert system.hybrid.open_early == frozenset({0})
    text = instance_to_json(system)
    assert instance_to_json(parse_instance(text)) == text


def test_hybrid_marker_must_partition_open():
    raw = {
        "agents": 1,
        "categories": [
            {"id": 0, "capacity": 1, "ranking": [0], "eligible_cutoff": 1},
            {"id": 1, "capacity": 1, "ranking": [0], "eligible_cutoff": 1},
        ],
        "preferential": [0],
        "tiers": [0, 1],
        "hybrid": {"open_early": [1], "open_late": [1]},
    }
    with pytest.raises(InstanceError, match="partition"):
        validate_instance(raw)


def test_hybrid_marker_alone_makes_the_instance_sequential():
    raw = {
        "agents": 2,
        "categories": [
            {"id": 0, "capacity": 1, "ranking": [0, 1], "eligible_cutoff": 2},
            {"id": 1, "capacity": 1, "ranking": [1, 0], "eligible_cutoff": 2},
        ],
        "hybrid": {"open_early": [0], "open_late": [1]},
    }
    system = validate_instance(raw)
    assert isinstance(system, SequentialReserveSystem)
    assert system.preferential == frozenset()
    assert system.precedence.tier_of == (0, 0)
    assert system.hybrid.open_late == frozenset({1})
    raw["hybrid"]["open_early"] = [0, 7]  # not an open category of this instance
    with pytest.raises(InstanceError, match="partition"):
        validate_instance(raw)


def test_matching_round_trip(contested_pair):
    matching = Matching((0, 1, None))
    text = matching_to_json(matching)
    assert parse_matching(text, contested_pair) == matching
    assert matching_to_json(parse_matching(text, contested_pair)) == text


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 101, 4000])
def test_matching_writer_is_the_canonical_form(n):
    rng = random.Random(n)
    matching = Matching(tuple(rng.choice((None, 0, 3, 12)) for _ in range(n)))
    assert matching_to_json(matching) == canonical_json(matching_to_raw(matching))


def test_matching_capacity_enforced(contested_pair):
    text = json.dumps({"assignment": {"0": 0, "1": 0, "2": None}})
    with pytest.raises(InstanceError, match="capacity"):
        parse_matching(text, contested_pair)


def test_matching_helpers(grouped_six):
    matching = Matching((None, 0, None, 1, 2, None))
    assert matching.matched_count() == 3
    assert matching.loads(3) == (1, 1, 1)
    assert matching.agents_in(1) == (3,)
    assert matching.beneficiary_count(grouped_six.preferential) == 2


def test_as_sequential_coercion(contested_pair):
    seq = as_sequential(contested_pair)
    assert seq.preferential == frozenset()
    assert seq.precedence.tier_of == (0, 0)
    assert seq.precedence.strict_sequence() == (0, 1)


def test_precedence_order_ties():
    order = PrecedenceOrder((1, 0, 1))
    assert order.strict_sequence() == (1, 0, 2)
    assert order.before(1, 0) and not order.before(0, 2)
    assert not order.is_strict()


def test_capacity_zero_and_oversized_are_legal():
    raw = _contested_pair_raw()
    raw["categories"][0]["capacity"] = 0
    raw["categories"][1]["capacity"] = 99
    system = validate_instance(raw)
    assert system.capacities == (0, 99)


def test_rank_maps_match_full_position_map():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(0, 9)
        order = list(range(n))
        rng.shuffle(order)
        ranking = PriorityRanking(tuple(order), rng.randint(0, n))
        fresh = PriorityRanking(tuple(order), ranking.eligible_cutoff)
        full = {a: p for p, a in enumerate(order)}
        agents = list(range(n))
        rng.shuffle(agents)  # ineligible agents are queried in any order
        for a in agents:
            assert ranking.position(a) == full[a]
            assert ranking.is_eligible(a) == (full[a] < ranking.eligible_cutoff)
        # the lazily built map leaves equality, hash and repr alone
        assert ranking == fresh and hash(ranking) == hash(fresh)
        assert repr(ranking) == repr(fresh)


@pytest.mark.parametrize(
    "ranking, cutoff, error, message",
    [
        ((1, 1, 2), 2, DuplicateAgentInRanking, "agent 1 appears twice in the ranking of category 1"),
        ((0, 1, 2, 0), 2, DuplicateAgentInRanking, "agent 0 appears twice in the ranking of category 1"),
        ((1, 1, 7), 2, DuplicateAgentInRanking, "agent 1 appears twice in the ranking of category 1"),
        ((7, 1, 1), 2, RankingIncomplete, "ranking of category 1 names unknown agent 7"),
        ((0, -1, 2), 2, RankingIncomplete, "ranking of category 1 names unknown agent -1"),
        ((1, 2), 2, RankingIncomplete, "ranking of category 1 lists 2 of 3 agents"),
        ((), 0, RankingIncomplete, "ranking of category 1 lists 0 of 3 agents"),
        ((0, 1, 2), 4, InstanceError, "category 1 cutoff 4 out of range"),
        ((0, 1, 2), -1, InstanceError, "category 1 cutoff -1 out of range"),
    ],
)
def test_ranking_validation_messages(ranking, cutoff, error, message):
    raw = _contested_pair_raw()
    raw["categories"][1].update(ranking=list(ranking), eligible_cutoff=cutoff)
    for build in (
        lambda: validate_instance(raw),
        lambda: ReserveSystem(
            3, 2, (1, 1), (PriorityRanking((1, 0, 2), 2), PriorityRanking(ranking, cutoff))
        ),
    ):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error and str(caught.value) == message


def _chain(n):
    """Agent i is eligible for categories i and i + 1, capacity 1: n
    categories, but only 2n - 1 eligible pairs."""
    everyone = list(range(n))
    priorities = []
    for c in range(n):
        top = tuple(a for a in (c - 1, c) if a >= 0)
        order = top + tuple(a for a in everyone if a not in top)
        priorities.append(PriorityRanking(order, len(top)))
    return ReserveSystem(n, n, (1,) * n, tuple(priorities))


def test_chain_instance_memory_follows_eligibility():
    # Measured peaks at 1000 agents: 67 MB with a position map over every
    # agent per category, 9.4 MB with the eligible-prefix maps; the rankings
    # alone take 8 MB.
    tracemalloc.start()
    try:
        system = _chain(1000)
        matching, _ = mma_allocate(system)
        verdicts = run_checks(
            system,
            matching,
            [axioms.ELIGIBILITY, axioms.NON_WASTEFULNESS, axioms.MAX_CARDINALITY],
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(v.passed for v in verdicts)
    assert peak < 30_000_000, f"peak {peak / 1e6:.1f} MB"
