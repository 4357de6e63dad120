from __future__ import annotations

import itertools
import random

import pytest

from util import agent_categories, oversized_instance, report_ok, sweep_instance

from reservematch.cli import GeneratorSpec
from reservematch.harness import (
    ORACLE_BOUND,
    MatchingSpace,
    corpus,
    hide_categories,
    oracle_maxima,
    promotions,
    report_consistency,
    report_independence_of_baseline,
    report_no_incentive_to_hide,
    report_respect_improvements,
)
from reservematch.model import InstanceError, Matching, PriorityRanking, ReserveSystem, base_of
from reservematch.rules_basic import da_allocate, mma_allocate, rev_allocate
from reservematch.rules_sequential import scu_allocate


def test_matching_space_exhaustive(contested_pair):
    space = list(MatchingSpace(contested_pair))
    assert len(space) == len(set(space))
    # agent options: 2 * 3 * 2 combos, minus capacity-violating ones
    assert Matching((None, None, None)) in space
    assert Matching((0, 1, None)) in space
    assert all(
        max(mu.loads(2)) <= 1 for mu in space
    )


def test_matching_space_enumerates_in_product_order():
    """The oracle's order is the product over the agents of (unmatched, then
    each eligible category ascending), capacity-violating combinations
    dropped: the first matching in it is the ``--search oracle`` witness.
    Agents eligible nowhere and categories of capacity 0 are among the
    draws."""
    rng = random.Random(5150)
    drawn = {"eligible nowhere": False, "capacity 0": False}
    for _ in range(300):
        base = base_of(sweep_instance(rng))
        options = [(None,) + agent_categories(base, a) for a in range(base.num_agents)]
        drawn["eligible nowhere"] |= (None,) in options
        drawn["capacity 0"] |= 0 in base.capacities
        expected = [
            Matching(combo)
            for combo in itertools.product(*options)
            if all(combo.count(c) <= q for c, q in enumerate(base.capacities))
        ]
        assert list(MatchingSpace(base)) == expected, base
    assert all(drawn.values()), drawn


def test_matching_space_bound():
    with pytest.raises(InstanceError, match=f"^estimated space exceeds bound {ORACLE_BOUND}$"):
        MatchingSpace(oversized_instance())
    # one agent fewer: 4 ** 11 is within the bound, so the space is built
    MatchingSpace(ReserveSystem(11, 3, (4, 4, 4), (PriorityRanking(tuple(range(11)), 11),) * 3))


def test_oracle_contested_pair(contested_pair):
    maxima = oracle_maxima(contested_pair)
    assert maxima.m == 2
    assert set(maxima.max_cardinality_matchings) == {
        Matching((0, None, 1)),
        Matching((None, 0, 1)),
        Matching((0, 1, None)),
    }
    assert set(maxima.four_axiom_matchings) == {
        Matching((None, 0, 1)),
        Matching((0, 1, None)),
    }


def test_oracle_grouped_six(grouped_six):
    maxima = oracle_maxima(grouped_six)
    assert (maxima.m, maxima.b) == (3, 2)


def test_oracle_empty_instance():
    system = ReserveSystem(0, 0, (), ())
    maxima = oracle_maxima(system)
    assert (maxima.m, maxima.b) == (0, 0)


def test_oracle_agrees_with_matcher():
    from reservematch.bipartite import build_graph, maximum_matching
    from reservematch.rules_sequential import dual_maximum_matching

    rng = random.Random(989)
    for _ in range(100):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 6),
            num_categories=rng.randint(1, 3),
            capacity="uniform:0:2",
            density=rng.choice([0.3, 0.6, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.5]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        maxima = oracle_maxima(system)
        assert maximum_matching(build_graph(base_of(system))).size() == maxima.m
        _, b, m = dual_maximum_matching(system)
        assert (b, m) == (maxima.b, maxima.m)


# ---------------------------------------------------------------------------
# perturbations


def test_hide_categories_structure(grouped_six):
    hidden = hide_categories(grouped_six, 1, [0])
    assert not base_of(hidden).is_eligible(1, 0)
    # everyone else keeps their standing
    base = base_of(grouped_six)
    after = base_of(hidden)
    for c in range(3):
        keep = [a for a in base.priorities[c].eligible() if not (a == 1 and c == 0)]
        assert [a for a in after.priorities[c].eligible()] == keep


def test_hide_categories_rejects_an_ineligible_agent(contested_pair):
    with pytest.raises(ValueError, match="^agent 2 is not eligible for category 0$"):
        hide_categories(contested_pair, 2, [0])


def test_promotions_cover_swaps_and_unhide(contested_pair):
    perturbed = list(promotions(contested_pair, 0))
    # agent 0: one upward swap at c0 (position 1 -> 0), one unhide at c1
    assert len(perturbed) == 2
    swapped = base_of(perturbed[0])
    assert swapped.priorities[0].ordered_agents[0] == 0
    unhidden = base_of(perturbed[1])
    assert unhidden.is_eligible(0, 1)
    assert unhidden.priorities[1].eligible_cutoff == 3


def test_scu_passes_hide_and_improvements():
    rng = random.Random(27)
    rule = lambda system: scu_allocate(system, impl="compact")
    for _ in range(25):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 5),
            num_categories=rng.randint(1, 3),
            capacity="uniform:0:2",
            density=rng.choice([0.4, 0.8]),
            preferential_fraction=rng.choice([0.0, 0.5]),
            tier_scheme=rng.choice(["equal", "strict"]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        assert report_ok(report_no_incentive_to_hide(rule, system))
        assert report_ok(report_respect_improvements(rule, system))
        assert report_ok(report_consistency(rule, system))


def test_da_and_rev_pass_incentive_properties():
    rng = random.Random(37)
    for _ in range(20):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 5),
            num_categories=rng.randint(1, 3),
            capacity="uniform:0:2",
            density=rng.choice([0.4, 0.8]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        da_rule = lambda s: da_allocate(base_of(s))
        rev_rule = lambda s: rev_allocate(base_of(s), list(range(base_of(s).num_agents)))
        assert report_ok(report_no_incentive_to_hide(da_rule, system))
        assert report_ok(report_respect_improvements(da_rule, system))
        assert report_ok(report_no_incentive_to_hide(rev_rule, system))
        assert report_ok(report_respect_improvements(rev_rule, system))


def test_harness_reads_eligibility_from_the_graph(contested_pair, grouped_six, capsys):
    """The oracle, the hiding report (exhaustive up to five agents, sampled
    beyond) and ``verify`` take each agent's eligible categories from the
    eligibility graph (``ReserveSystem`` has no O(K) per-agent scan), and
    give the same results on every call."""
    from reservematch.cli import main

    systems = (contested_pair, grouped_six)
    before = [
        (oracle_maxima(s), report_no_incentive_to_hide(scu_allocate, s).to_raw())
        for s in systems
    ]
    after = [
        (oracle_maxima(s), report_no_incentive_to_hide(scu_allocate, s).to_raw())
        for s in systems
    ]
    assert after == before
    assert main(["verify", "--rule", "scu", "--sweep", "small"]) == 0
    capsys.readouterr()


def test_greedy_strawman_fails_hide():
    """Negative control: a one-shot rule where every agent applies only to
    their largest-index eligible category rewards hiding that category."""

    def strawman(system):
        base = base_of(system)
        applicants: dict[int, list[int]] = {}
        for a in range(base.num_agents):
            cats = agent_categories(base, a)
            if cats:
                applicants.setdefault(cats[-1], []).append(a)
        assignment: list = [None] * base.num_agents
        for c, pool in applicants.items():
            pool.sort(key=lambda a: base.position(c, a))
            for a in pool[: base.capacities[c]]:
                assignment[a] = c
        return Matching(tuple(assignment))

    # both apply to c1 where agent 1 wins; agent 0, unmatched, becomes
    # matched by hiding c1 and falling back to c0
    system = ReserveSystem(
        2,
        2,
        (1, 1),
        (PriorityRanking((0, 1), 1), PriorityRanking((1, 0), 2)),
    )
    report = report_no_incentive_to_hide(strawman, system)
    assert not report_ok(report)
    assert report.counterexamples[0]["agent"] == 0


def test_single_category_hide_trivial():
    system = ReserveSystem(1, 1, (1,), (PriorityRanking((0,), 1),))
    report = report_no_incentive_to_hide(lambda s: da_allocate(base_of(s)), system)
    assert report_ok(report)


def test_consistency_two_levels(contested_pair):
    from reservematch.bipartite import GraphMatching

    toggle = iter([Matching((None, 0, 1)), Matching((0, 1, None))])
    flaky = lambda system: next(toggle)
    report = report_consistency(flaky, contested_pair)
    assert not report_ok(report)
    assert report.counterexamples[0]["level"] == "matched-agents"

    toggle2 = iter([Matching((None, 0, 1)), Matching((None, 0, 1))])
    assert report_ok(report_consistency(lambda s: next(toggle2), contested_pair))


def test_rev_baseline_dependence_found(contested_pair):
    report = report_independence_of_baseline(
        lambda system, order: rev_allocate(base_of(system), order), contested_pair
    )
    assert not report_ok(report)  # the corpus witness


def test_baseline_independence_trivial_cases(contested_pair):
    # a rule that ignores its baseline passes; single agent passes
    report = report_independence_of_baseline(
        lambda system, order: da_allocate(base_of(system)), contested_pair
    )
    assert report_ok(report)
    single = ReserveSystem(1, 1, (1,), (PriorityRanking((0,), 1),))
    report = report_independence_of_baseline(
        lambda system, order: rev_allocate(base_of(system), order), single
    )
    assert report_ok(report)


def test_sampled_reports_run_a_fixed_number_of_trials():
    # 30 agents eligible everywhere in ten categories of capacity 3: every
    # sampled agent has a category to hide, all 30 are matched, and they
    # have 290 promotions, more than the 200 sampled
    rankings = tuple(
        PriorityRanking(tuple((a + c) % 30 for a in range(30)), 30) for c in range(10)
    )
    system = ReserveSystem(30, 10, (3,) * 10, rankings)
    assert da_allocate(system).matched_count() == 30
    assert sum(1 for a in range(30) for _ in promotions(system, a)) == 290
    assert report_no_incentive_to_hide(da_allocate, system).trials == 200
    assert report_respect_improvements(da_allocate, system).trials == 200
    report = report_independence_of_baseline(
        lambda system, order: rev_allocate(base_of(system), order), system
    )
    assert report.trials == 20


def test_corpus_contains_required_witnesses(da_gap, contested_pair):
    names = corpus()
    assert {"contested-pair", "precedence-chain", "grouped-six", "da-gap"} <= set(names)
    # deferred acceptance cardinality gap
    out = da_allocate(da_gap)
    assert out.matched_count() < oracle_maxima(da_gap).m
    # adjustment-rule matching inconsistency across policies
    from reservematch.bipartite import GraphMatching

    seed = GraphMatching.from_matching(Matching((0, None, 1)), 2)
    first, _ = mma_allocate(contested_pair, initial=seed.copy())
    second, _ = mma_allocate(contested_pair, initial=seed.copy(), category_order=(1, 0))
    assert first != second
