from __future__ import annotations

import random

import pytest

from util import hybrid_instance as _hybrid_instance

from reservematch import axioms
from reservematch.cli import GeneratorSpec
from reservematch.harness import MatchingSpace, oracle_maxima
from reservematch.model import (
    HybridMarker,
    Matching,
    PrecedenceOrder,
    PriorityRanking,
    ReserveSystem,
    SequentialReserveSystem,
    as_sequential,
)
from reservematch.rules_basic import mma_allocate
from reservematch.rules_sequential import scu_allocate


def test_eligibility(contested_pair):
    bad = axioms.check_eligibility(contested_pair, Matching((None, None, 0)))
    assert not bad.passed and bad.witness == {"agent": 2, "category": 0}
    assert axioms.check_eligibility(contested_pair, Matching((None, 0, 1))).passed
    assert axioms.check_eligibility(contested_pair, Matching((None, None, None))).passed


def test_respect_priorities(contested_pair):
    bad = axioms.check_respect_priorities(contested_pair, Matching((0, None, 1)))
    assert not bad.passed
    assert bad.witness == {"unmatched": 1, "matched": 0, "category": 0}
    assert axioms.check_respect_priorities(contested_pair, Matching((None, 0, 1))).passed
    # vacuous when everyone who could envy is matched
    assert axioms.check_respect_priorities(contested_pair, Matching((0, 1, None))).passed


def _respect_priorities_reference(system, matching):
    """The definition as a quadratic scan: unmatched agents, then categories,
    then occupants, all in index order."""
    for agent in range(system.num_agents):
        if matching.assignment[agent] is not None:
            continue
        for c in range(system.num_categories):
            for other in matching.agents_in(c):
                if system.position(c, agent) < system.position(c, other):
                    return False, {"unmatched": agent, "matched": other, "category": c}
    return True, None


def test_respect_priorities_matches_quadratic_scan():
    rng = random.Random(4711)
    outcomes = set()
    for _ in range(150):
        system = GeneratorSpec(
            num_agents=rng.randint(1, 30),
            num_categories=rng.randint(1, 5),
            capacity=rng.choice(["uniform:0:3", "const:2", "uniform:1:6"]),
            density=rng.choice([0.2, 0.5, 1.0]),
            seed=rng.randrange(1 << 30),
        ).build()
        # a random eligibility-compliant matching within capacities
        loads = [0] * system.num_categories
        assignment = [None] * system.num_agents
        for agent in rng.sample(range(system.num_agents), system.num_agents):
            room = [
                c
                for c in system.agent_categories(agent)
                if loads[c] < system.capacities[c]
            ]
            if room and rng.random() < 0.7:
                assignment[agent] = rng.choice(room)
                loads[assignment[agent]] += 1
        for matching in (Matching(tuple(assignment)), mma_allocate(system)[0]):
            verdict = axioms.check_respect_priorities(system, matching)
            expected = _respect_priorities_reference(system, matching)
            assert (verdict.passed, verdict.witness) == expected
            outcomes.add(verdict.passed)
    assert outcomes == {True, False}


def test_nonwasteful(contested_pair):
    bad = axioms.check_nonwasteful(contested_pair, Matching((None, 1, None)))
    assert not bad.passed
    assert bad.witness == {"agent": 0, "category": 0, "load": 0, "capacity": 1}
    assert axioms.check_nonwasteful(contested_pair, Matching((None, 0, 1))).passed


def test_nonwasteful_no_eligible():
    system = ReserveSystem(1, 1, (1,), (PriorityRanking((0,), 0),))
    assert axioms.check_nonwasteful(system, Matching((None,))).passed


def _nonwasteful_reference(system, matching):
    """Agent first, category second, every pair: the O(n·K) definition."""
    loads = matching.loads(system.num_categories)
    for agent, assigned in enumerate(matching.assignment):
        if assigned is not None:
            continue
        for c in range(system.num_categories):
            if system.is_eligible(agent, c) and loads[c] < system.capacities[c]:
                return {"agent": agent, "category": c, "load": loads[c],
                        "capacity": system.capacities[c]}
    return None


def test_nonwasteful_matches_reference_scan():
    rng = random.Random(3131)
    failures = 0
    for _ in range(300):
        system = GeneratorSpec(
            num_agents=rng.randint(0, 12),
            num_categories=rng.randint(0, 5),
            capacity=rng.choice(["uniform:0:3", "const:1", "const:0"]),
            density=rng.choice([0.0, 0.3, 0.7, 1.0]),
            seed=rng.randrange(1 << 30),
        ).build()
        k = system.num_categories
        # arbitrary pairs: ineligible ones and overfilled categories included
        matching = Matching(tuple(
            rng.randrange(k) if k and rng.random() < rng.random() else None
            for _ in range(system.num_agents)
        ))
        verdict = axioms.check_nonwasteful(system, matching)
        expected = _nonwasteful_reference(system, matching)
        assert verdict.passed == (expected is None)
        assert verdict.witness == expected
        failures += expected is not None
    assert 50 < failures < 250  # both verdicts are exercised


def test_max_cardinality(contested_pair):
    assert axioms.check_max_cardinality(contested_pair, Matching((None, 0, 1)), 2).passed
    short = axioms.check_max_cardinality(contested_pair, Matching((None, 0, None)), 2)
    assert not short.passed and short.witness == {"matched": 1, "maximum": 2}
    empty = ReserveSystem(0, 0, (), ())
    assert axioms.check_max_cardinality(empty, Matching(()), 0).passed


def test_max_beneficiary(grouped_six):
    good = Matching((None, 0, None, 1, 2, None))
    assert axioms.check_max_beneficiary(grouped_six, good, 2).passed
    skewed = Matching((None, 1, None, None, 2, None))
    verdict = axioms.check_max_beneficiary(grouped_six, skewed, 2)
    assert not verdict.passed and verdict.witness["beneficiaries"] == 1


def test_max_beneficiary_trivial_when_no_preferential(contested_pair):
    seq = as_sequential(contested_pair)
    assert axioms.check_max_beneficiary(seq, Matching((None, None, None)), 0).passed


def test_order_preservation_swap_pass(precedence_chain):
    parked = Matching((0, None, 1))  # agent 2 holds the later category
    assert axioms.check_order_preservation_swap(precedence_chain, parked).passed


def test_order_preservation_swap_vacuous_on_equal_tiers(contested_pair):
    seq = as_sequential(contested_pair)
    for matching in MatchingSpace(seq):
        assert axioms.check_order_preservation_swap(seq, matching).passed


def test_order_preservation_swap_witness():
    # two tiers; the early category prefers agent 0 who is parked late
    system = SequentialReserveSystem(
        base=ReserveSystem(
            2,
            2,
            (1, 1),
            (PriorityRanking((0, 1), 2), PriorityRanking((0, 1), 2)),
        ),
        preferential=frozenset(),
        precedence=PrecedenceOrder((0, 1)),
    )
    swapped = Matching((1, 0))  # agent 1 early, agent 0 late
    verdict = axioms.check_order_preservation_swap(system, swapped)
    assert not verdict.passed
    assert verdict.witness == {"i": 0, "j": 1, "category_i": 1, "category_j": 0}
    # exhaustive cross-check: the equal-priority reverse matching passes
    assert axioms.check_order_preservation_swap(system, Matching((0, 1))).passed


def test_respect_precedence_verdicts(precedence_chain):
    maxima = oracle_maxima(precedence_chain)
    parked = Matching((0, None, 1))
    settled = Matching((None, 1, 0))
    for search in ("flow", "oracle"):
        verdict = axioms.check_respect_precedence(
            precedence_chain, parked, search=search, b=maxima.b, m=maxima.m
        )
        assert not verdict.passed
        assert verdict.witness["i"] == 2 and verdict.witness["j"] == 0
        alt = verdict.witness["alternative"]
        assert alt["2"] == 0 and alt["1"] == 1
        assert axioms.check_respect_precedence(
            precedence_chain, settled, search=search, b=maxima.b, m=maxima.m
        ).passed


def test_respect_precedence_single_category_rule_output():
    system = SequentialReserveSystem(
        base=ReserveSystem(2, 1, (1,), (PriorityRanking((0, 1), 2),)),
        preferential=frozenset(),
        precedence=PrecedenceOrder((0,)),
    )
    out = scu_allocate(system)
    assert axioms.check_respect_precedence(system, out).passed


def test_respect_precedence_flags_empty_earlier_seat():
    """The free-slot form: an agent parked late while an earlier category has
    an empty seat it could take without disturbing anything."""
    system = SequentialReserveSystem(
        base=ReserveSystem(
            1, 2, (1, 1), (PriorityRanking((0,), 1), PriorityRanking((0,), 1))
        ),
        preferential=frozenset(),
        precedence=PrecedenceOrder((0, 1)),
    )
    late = Matching((1,))
    verdict = axioms.check_respect_precedence(system, late)
    assert not verdict.passed and verdict.witness["j"] is None
    assert axioms.check_respect_precedence(system, Matching((0,))).passed


def test_oracle_mode_bound(grouped_six):
    with pytest.raises(axioms.OracleBoundExceeded):
        axioms.check_respect_precedence(
            grouped_six,
            Matching((None,) * 6),
            search="oracle",
            b=2,
            m=3,
            oracle_bound=10,
        )


def test_flow_and_oracle_modes_agree():
    rng = random.Random(2121)
    for _ in range(60):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 5),
            num_categories=rng.randint(1, 3),
            capacity="uniform:0:2",
            density=rng.choice([0.3, 0.6, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.5]),
            tier_scheme=rng.choice(["equal", "strict"]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        maxima = oracle_maxima(system)
        for matching in MatchingSpace(system):
            flow = axioms.check_respect_precedence(
                system, matching, search="flow", b=maxima.b, m=maxima.m
            )
            oracle = axioms.check_respect_precedence(
                system, matching, search="oracle", b=maxima.b, m=maxima.m
            )
            assert flow.passed == oracle.passed, (system, matching)


def test_precedence_implies_swap_on_maxima():
    rng = random.Random(515)
    for _ in range(80):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 5),
            num_categories=rng.randint(1, 3),
            capacity="uniform:0:2",
            density=rng.choice([0.3, 0.6, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.5]),
            tier_scheme=rng.choice(["equal", "strict", "random:2"]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        seq = as_sequential(system)
        maxima = oracle_maxima(system)
        for matching in maxima.max_cardinality_matchings:
            if matching.beneficiary_count(seq.preferential) != maxima.b:
                continue
            if axioms.check_respect_precedence(
                system, matching, b=maxima.b, m=maxima.m
            ).passed:
                assert axioms.check_order_preservation_swap(system, matching).passed


def test_max_cardinality_implies_nonwasteful():
    rng = random.Random(616)
    for _ in range(80):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 6),
            num_categories=rng.randint(1, 3),
            capacity="uniform:0:2",
            density=rng.choice([0.3, 0.7, 1.0]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        maxima = oracle_maxima(system)
        for matching in maxima.max_cardinality_matchings:
            assert axioms.check_nonwasteful(system, matching).passed


def test_witness_soundness():
    """Replaying a failure witness against the raw definition re-derives it."""
    rng = random.Random(717)
    for _ in range(50):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 5),
            num_categories=rng.randint(1, 3),
            capacity="uniform:0:2",
            density=0.7,
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        base = system if isinstance(system, ReserveSystem) else system.base
        for matching in MatchingSpace(system):
            verdict = axioms.check_respect_priorities(system, matching)
            if not verdict.passed:
                w = verdict.witness
                assert matching.assignment[w["unmatched"]] is None
                assert matching.assignment[w["matched"]] == w["category"]
                assert base.position(w["category"], w["unmatched"]) < base.position(
                    w["category"], w["matched"]
                )
            verdict = axioms.check_nonwasteful(system, matching)
            if not verdict.passed:
                w = verdict.witness
                assert matching.assignment[w["agent"]] is None
                assert base.is_eligible(w["agent"], w["category"])
                assert w["load"] < w["capacity"]


# ---------------------------------------------------------------------------
# hybrid split




def test_hybrid_requires_marker(grouped_six):
    with pytest.raises(axioms.NotHybridInstance):
        axioms.check_order_preservation_hybrid(grouped_six, Matching((None,) * 6))


def test_hybrid_zero_late_capacity_reduces_clause_two():
    rng = random.Random(11)
    system = _hybrid_instance(rng, 3)
    # zero out the late-open block: clause 2 can never fire
    caps = list(system.capacities)
    for c in system.hybrid.open_late:
        caps[c] = 0
    base = ReserveSystem(
        system.num_agents, system.num_categories, tuple(caps), system.base.priorities
    )
    system = SequentialReserveSystem(
        base=base,
        preferential=system.preferential,
        precedence=system.precedence,
        hybrid=system.hybrid,
    )
    for matching in MatchingSpace(system):
        verdict = axioms.check_order_preservation_hybrid(system, matching)
        if not verdict.passed:
            assert verdict.witness["clause"] == 1


def test_hybrid_clause_one_violation():
    # agent 0 outranks agent 1 at the early-open category but sits in the
    # preferential one while agent 1 holds the early seat
    system = SequentialReserveSystem(
        base=ReserveSystem(
            3,
            3,
            (1, 1, 1),
            (
                PriorityRanking((0, 1, 2), 3),
                PriorityRanking((0, 1, 2), 3),
                PriorityRanking((0, 1, 2), 3),
            ),
        ),
        preferential=frozenset({1}),
        precedence=PrecedenceOrder((0, 1, 2)),
        hybrid=HybridMarker(frozenset({0}), frozenset({2})),
    )
    verdict = axioms.check_order_preservation_hybrid(system, Matching((1, 0, None)))
    assert not verdict.passed and verdict.witness["clause"] == 1


def test_hybrid_empty_matching_passes():
    rng = random.Random(5)
    system = _hybrid_instance(rng, 2)
    empty = Matching((None, None))
    assert axioms.check_order_preservation_hybrid(system, empty).passed


def test_hybrid_agrees_with_swap_form():
    rng = random.Random(424242)
    for _ in range(80):
        system = _hybrid_instance(rng, rng.randint(1, 4))
        for matching in MatchingSpace(system):
            swap = axioms.check_order_preservation_swap(system, matching).passed
            hybrid = axioms.check_order_preservation_hybrid(system, matching).passed
            assert swap == hybrid, (system, matching)
