from __future__ import annotations

import json
import random

import pytest

from util import agent_categories, hybrid_instance as _hybrid_instance, oversized_instance

from reservematch import axioms
from reservematch.cli import GeneratorSpec, main
from reservematch.harness import MatchingSpace, oracle_maxima
from reservematch.model import (
    HybridMarker,
    InstanceError,
    Matching,
    PrecedenceOrder,
    PriorityRanking,
    ReserveSystem,
    SequentialReserveSystem,
    as_sequential,
    instance_to_json,
    matching_to_json,
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
            for other in [b for b, d in enumerate(matching.assignment) if d == c]:
                if system.position(c, agent) < system.position(c, other):
                    return False, {"unmatched": agent, "matched": other, "category": c}
    return True, None


def _respect_priorities_rank_scan(system, matching):
    """The O(n·K) form of the check that reads every unmatched agent's
    position at every category against the category's lowest occupant rank,
    building each category's full rank map."""
    occupants = [
        [b for b, d in enumerate(matching.assignment) if d == c]
        for c in range(system.num_categories)
    ]
    lowest = [
        max((system.position(c, b) for b in occ), default=-1)
        for c, occ in enumerate(occupants)
    ]
    for agent, assigned in enumerate(matching.assignment):
        if assigned is not None:
            continue
        for c in range(system.num_categories):
            pos = system.position(c, agent)
            if pos < lowest[c]:
                other = next(b for b in occupants[c] if pos < system.position(c, b))
                return False, {"unmatched": agent, "matched": other, "category": c}
    return True, None


def test_respect_priorities_matches_quadratic_scan():
    rng = random.Random(4711)
    outcomes = set()
    ineligible_occupants = 0
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
                for c in agent_categories(system, agent)
                if loads[c] < system.capacities[c]
            ]
            if room and rng.random() < 0.7:
                assignment[agent] = rng.choice(room)
                loads[assignment[agent]] += 1
        compliant = Matching(tuple(assignment))
        # the check of a compliant matching reads only the eligible prefixes
        assert all(r._full is None for r in system.priorities)
        axioms.check_respect_priorities(system, compliant)
        assert all(r._full is None for r in system.priorities)
        # any pairs within capacities, ineligible ones included
        loads = [0] * system.num_categories
        assignment = [None] * system.num_agents
        for agent in rng.sample(range(system.num_agents), system.num_agents):
            c = rng.randrange(system.num_categories)
            if loads[c] < system.capacities[c] and rng.random() < 0.7:
                assignment[agent] = c
                loads[c] += 1
        anywhere = Matching(tuple(assignment))
        ineligible_occupants += not axioms.check_eligibility(system, anywhere).passed
        for matching in (compliant, mma_allocate(system)[0], anywhere):
            verdict = axioms.check_respect_priorities(system, matching)
            expected = _respect_priorities_reference(system, matching)
            assert (verdict.passed, verdict.witness) == expected
            assert _respect_priorities_rank_scan(system, matching) == expected
            outcomes.add(verdict.passed)
    assert outcomes == {True, False}
    assert ineligible_occupants >= 50


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


def _swap_reference(system, matching):
    """The definition as a quadratic scan over (i, j) in index order."""
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
                return False, {"i": i, "j": j, "category_i": ci, "category_j": cj}
    return True, None


def _precedence_flags_reference(seq, matching):
    """Every (i, j, c) premise by category, then agent, then occupant, all in
    index order: category × agent × occupant."""
    base = seq.base
    loads = matching.loads(base.num_categories)
    flags = []
    for cj in range(base.num_categories):
        occupants = [j for j, d in enumerate(matching.assignment) if d == cj]
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
                    flags.append((i, j, cj))
                    break
            else:
                if loads[cj] < base.capacities[cj]:
                    flags.append((i, None, cj))
    return flags


def _hybrid_reference(seq, matching):
    """Both clauses over every (i, j) in index order, clause 1 first."""
    base = seq.base
    early, late = seq.hybrid.open_early, seq.hybrid.open_late
    pref = seq.preferential
    for i in range(base.num_agents):
        ci = matching.assignment[i]
        for j in range(base.num_agents):
            if i == j:
                continue
            cj = matching.assignment[j]
            if cj is None or not base.is_eligible(i, cj):
                continue
            if base.position(cj, i) >= base.position(cj, j):
                continue
            if (
                ci is not None
                and (ci in pref or ci in late)
                and base.is_eligible(j, ci)
                and cj in early
            ):
                return False, {"clause": 1, "i": i, "j": j, "category_i": ci, "category_j": cj}
            if (cj in pref or cj in early) and ci is not None and ci in late:
                return False, {"clause": 2, "i": i, "j": j, "category_i": ci, "category_j": cj}
    return True, None


def _random_matching(rng, system, eligible_only):
    """Capacity-respecting; with eligible_only False, pairs are drawn from all
    categories, so ineligible ones show up."""
    base = system.base if isinstance(system, SequentialReserveSystem) else system
    loads = [0] * base.num_categories
    assignment = [None] * base.num_agents
    for agent in rng.sample(range(base.num_agents), base.num_agents):
        options = (
            agent_categories(base, agent) if eligible_only else range(base.num_categories)
        )
        room = [c for c in options if loads[c] < base.capacities[c]]
        if room and rng.random() < 0.8:
            assignment[agent] = rng.choice(room)
            loads[assignment[agent]] += 1
    return Matching(tuple(assignment))


def _sequential_sweep(rng, count):
    """Random sequential instances (strict, equal and tied tiers, zero
    capacities included) and hybrid ones, each with solver outputs and
    random matchings."""
    for index in range(count):
        if index % 3 == 2:
            system = _hybrid_instance(rng, rng.randint(1, 12))
        else:
            system = as_sequential(GeneratorSpec(
                num_agents=rng.randint(1, 30),
                num_categories=rng.randint(1, 6),
                capacity=rng.choice(["uniform:0:3", "const:0", "const:1", "uniform:1:5"]),
                density=rng.choice([0.0, 0.3, 0.6, 1.0]),
                preferential_fraction=rng.choice([0.0, 0.4]),
                tier_scheme=rng.choice(["equal", "strict", "random:2", "random:3"]),
                seed=rng.randrange(1 << 30),
            ).build())
        matchings = [
            scu_allocate(system),
            mma_allocate(system.base)[0],
            _random_matching(rng, system, True),
            _random_matching(rng, system, False),
            _random_matching(rng, system, False),
        ]
        for matching in matchings:
            yield system, matching


def test_sequential_scans_match_quadratic_references():
    rng = random.Random(90210)
    swaps, flag_counts, hybrids = set(), set(), set()
    for system, matching in _sequential_sweep(rng, 240):
        verdict = axioms.check_order_preservation_swap(system, matching)
        expected = _swap_reference(system, matching)
        assert (verdict.passed, verdict.witness) == expected, (system, matching)
        swaps.add(verdict.passed)
        flags = list(axioms._precedence_flags(system, matching))
        assert flags == _precedence_flags_reference(system, matching), (system, matching)
        flag_counts.add(min(len(flags), 2))
        if system.hybrid is not None:
            verdict = axioms.check_order_preservation_hybrid(system, matching)
            expected = _hybrid_reference(system, matching)
            assert (verdict.passed, verdict.witness) == expected, (system, matching)
            hybrids.add(expected[1]["clause"] if expected[1] else 0)
    # both verdicts, empty and longer flag lists, and both hybrid clauses
    assert swaps == {True, False}
    assert flag_counts == {0, 1, 2}
    assert hybrids == {0, 1, 2}


def test_respect_precedence_ineligible_pin_agrees_with_oracle():
    """A flag whose pins include an occupant held where it is not eligible
    has no eligibility-compliant alternative: the flow search answers that
    (it once raised KeyError on the missing edge), as the oracle does."""
    rng = random.Random(6060)
    compared = 0
    for _ in range(80):
        system = GeneratorSpec(
            num_agents=rng.randint(2, 6),
            num_categories=rng.randint(2, 4),
            capacity="uniform:1:2",
            density=rng.choice([0.3, 0.6]),
            preferential_fraction=rng.choice([0.0, 0.4]),
            tier_scheme="strict",
            seed=rng.randrange(1 << 30),
        ).build()
        maxima = oracle_maxima(system)
        for _ in range(3):
            matching = _random_matching(rng, system, False)
            if axioms.check_eligibility(system, matching).passed:
                continue
            verdicts = [
                axioms.check_respect_precedence(
                    system, matching, search=search, b=maxima.b, m=maxima.m
                ).passed
                for search in ("flow", "oracle")
            ]
            assert verdicts[0] == verdicts[1], (system, matching)
            compared += 1
    assert compared > 50


def test_check_ineligible_earlier_pin_exits_1_not_traceback(tmp_path, capsys):
    # agent 0 sits in c0, which does not admit it; agent 1 could take the
    # free seat of the later c1, and that flag pins agent 0 in c0
    system = SequentialReserveSystem(
        base=ReserveSystem(
            2, 2, (1, 1), (PriorityRanking((1, 0), 1), PriorityRanking((1, 0), 2))
        ),
        preferential=frozenset(),
        precedence=PrecedenceOrder((0, 1)),
    )
    inst, held = tmp_path / "inst.json", tmp_path / "m.json"
    inst.write_text(instance_to_json(system))
    held.write_text(matching_to_json(Matching((0, None))))
    verdicts = {}
    for search in ("flow", "oracle"):
        code = main(["--format", "json", "check", "-i", str(inst), "-m", str(held),
                     "--axiom", "eligibility", "--axiom", "respect-precedence",
                     "--search", search])
        assert code == 1
        verdicts[search] = [
            (v["axiom"], v["pass"]) for v in json.loads(capsys.readouterr().out)
        ]
    assert verdicts["flow"] == verdicts["oracle"] == [
        ("eligibility", False), ("respect-precedence", True)
    ]


def test_passing_check_rank_lookups_grow_linearly(tmp_path, monkeypatch, capsys):
    """Counts, not timings: a return to a pair scan multiplies the lookups
    by about 16 when the agents grow 4×."""
    counts = {"lookups": 0}
    for name in ("position", "is_eligible"):
        original = getattr(PriorityRanking, name)

        def counted(self, agent, _original=original):
            counts["lookups"] += 1
            return _original(self, agent)

        monkeypatch.setattr(PriorityRanking, name, counted)
    per_size = []
    for n in (400, 1600):
        system = GeneratorSpec(
            num_agents=n,
            num_categories=10,
            capacity=f"const:{n // 20}",
            density=0.3,
            preferential_fraction=0.4,
            tier_scheme="strict",
            seed=1,
        ).build()
        inst, out = tmp_path / f"inst{n}.json", tmp_path / f"out{n}.json"
        inst.write_text(instance_to_json(system))
        out.write_text(matching_to_json(scu_allocate(system)))
        counts["lookups"] = 0
        assert main(["check", "-i", str(inst), "-m", str(out)]) == 0
        per_size.append(counts["lookups"])
    capsys.readouterr()
    assert per_size[0] > 0
    assert per_size[1] < 6 * per_size[0], per_size


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


def test_oracle_mode_bound():
    # an oversized oracle check is refused as bad input, before any flag
    with pytest.raises(InstanceError, match="^estimated space exceeds bound 10000000$"):
        axioms.check_respect_precedence(
            oversized_instance(), Matching((None,) * 12), search="oracle", b=0, m=12
        )


def test_unknown_search_mode(grouped_six):
    with pytest.raises(ValueError, match="^unknown search mode 'x'$"):
        axioms.check_respect_precedence(grouped_six, Matching((None,) * 6), search="x")


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


# ---------------------------------------------------------------------------
# run_checks: the name-to-checker table


@pytest.fixture
def maxima_starts(monkeypatch):
    """The ``start`` of each ``dual_maximum_matching`` call ``run_checks``
    makes."""
    starts = []
    original = axioms.dual_maximum_matching

    def counted(seq, start=None):
        starts.append(start)
        return original(seq, start=start)

    monkeypatch.setattr(axioms, "dual_maximum_matching", counted)
    return starts


def test_applicable_names_the_axioms_each_instance_carries(contested_pair, grouped_six):
    hybrid = _hybrid_instance(random.Random(3), 4)
    assert axioms.applicable(contested_pair) == list(axioms.FUNDAMENTAL)
    assert axioms.applicable(grouped_six) == [*axioms.FUNDAMENTAL, *axioms.SEQUENTIAL]
    assert axioms.applicable(hybrid) == list(axioms.NAMES)


def test_run_checks_refuses_an_unknown_name_before_any_work(grouped_six, maxima_starts):
    matching = Matching((None,) * 6)
    with pytest.raises(InstanceError, match="unknown axiom 'bogus'"):
        axioms.run_checks(grouped_six, matching, [axioms.MAX_CARDINALITY, "bogus"])
    assert maxima_starts == []


def test_run_checks_computes_no_maxima_for_axioms_that_need_none(grouped_six, maxima_starts):
    names = [axioms.ELIGIBILITY, axioms.RESPECT_PRIORITIES, axioms.NON_WASTEFULNESS]
    verdicts = axioms.run_checks(grouped_six, Matching((None, 0, None, 1, 2, None)), names)
    assert [(v.axiom, v.passed) for v in verdicts] == [(name, True) for name in names]
    assert maxima_starts == []


def test_run_checks_computes_the_maxima_once_from_the_matching(grouped_six, maxima_starts):
    matching = Matching((None, 0, None, 1, 2, None))  # the scu outcome
    names = [axioms.MAX_CARDINALITY, axioms.RESPECT_PRECEDENCE]
    verdicts = axioms.run_checks(grouped_six, matching, names)
    assert [(v.axiom, v.passed) for v in verdicts] == [(name, True) for name in names]
    assert maxima_starts == [matching]


def test_run_checks_runs_a_checker_wrapped_after_import(contested_pair, monkeypatch):
    """The table reads the module's checkers on each call, so a span or a
    timer set on ``axioms.check_*`` is the one that runs."""
    seen = []
    original = axioms.check_eligibility

    def wrapped(system, matching):
        seen.append(matching)
        return original(system, matching)

    monkeypatch.setattr(axioms, "check_eligibility", wrapped)
    matching = Matching((None, 0, 1))
    verdicts = axioms.run_checks(contested_pair, matching, [axioms.ELIGIBILITY] * 2)
    assert [v.passed for v in verdicts] == [True, True]
    assert seen == [matching, matching]
