"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures. Run with ``pytest tests/test_acceptance.py -v -s``.

Seeds are fixed; the sweeps are regenerated identically on every run.
"""

from __future__ import annotations

import random
import time

import pytest

from util import (
    fundamental_verdicts,
    hybrid_instance,
    mma_induced_matchings,
    sweep_instance,
)

from reservematch import axioms
from reservematch.bipartite import GraphMatching
from reservematch.cli import GeneratorSpec, run_bench
from reservematch.harness import (
    MatchingSpace,
    corpus,
    oracle_maxima,
    report_consistency,
    report_independence_of_baseline,
    report_no_incentive_to_hide,
    report_respect_improvements,
)
from reservematch.model import Matching, as_sequential, base_of
from reservematch.netflow import (
    OPEN_CLASS,
    PREF_CLASS,
    agent_groups,
    build_compact_network,
    build_reserve_network,
)
from reservematch.rules_basic import da_allocate, mma_allocate, rev_allocate
from reservematch.rules_sequential import dual_maximum_matching, scu_allocate

SWEEP_SEED = 20240811
SWEEP_SIZE = 5200


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _passline(number, text):
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(SWEEP_SEED)
    return [sweep_instance(rng) for _ in range(SWEEP_SIZE)]


def test_criterion_01_adjustment_golden(contested_pair):
    seed = GraphMatching.from_matching(Matching((0, None, 1)), 2)
    elapsed_a, (out_a, _) = _best_of(
        5, lambda: mma_allocate(contested_pair, initial=seed.copy())
    )
    assert out_a == Matching((None, 0, 1))
    elapsed_b, (out_b, _) = _best_of(
        5,
        lambda: mma_allocate(contested_pair, initial=seed.copy(), category_order=(1, 0)),
    )
    assert out_b == Matching((0, 1, None))
    assert elapsed_a < 0.001 and elapsed_b < 0.001
    _passline(
        1,
        f"adjustment rule reproduces both policy branches exactly "
        f"({elapsed_a * 1e6:.0f} us / {elapsed_b * 1e6:.0f} us)",
    )


def test_criterion_02_precedence_golden(precedence_chain):
    elapsed, out = _best_of(5, lambda: scu_allocate(precedence_chain))
    assert out == Matching((None, 1, 0))
    assert elapsed < 0.001
    parked = Matching((0, None, 1))
    verdict = axioms.check_respect_precedence(precedence_chain, parked)
    assert not verdict.passed
    assert verdict.witness["i"] == 2 and verdict.witness["j"] == 0
    alternative = verdict.witness["alternative"]
    assert alternative == {"0": None, "1": 1, "2": 0}
    assert axioms.check_respect_precedence(precedence_chain, out).passed
    _passline(
        2,
        f"sequential rule settles the chain and the precedence check flags "
        f"the parked matching with the settled witness ({elapsed * 1e6:.0f} us)",
    )


def test_criterion_03_network_golden(grouped_six):
    rn = build_reserve_network(grouped_six)
    assert rn.network.num_nodes == 13  # s + 6 + 3 + 2 + t
    for klass in (OPEN_CLASS, PREF_CLASS):
        edge = rn.class_edge[klass]
        assert (rn.network.lower[edge], rn.network.upper[edge]) == (0, 3)
    groups = agent_groups(grouped_six)
    assert len(groups) == 2
    assert groups[0] == (0, 1, 2) and groups[1] == (3, 4, 5)
    cn = build_compact_network(grouped_six)
    assert len(cn.group_edge) == 2

    expected = Matching((None, 0, None, 1, 2, None))
    worst = 0.0
    for impl in ("flow", "compact", "bipartite"):
        elapsed, out = _best_of(3, lambda impl=impl: scu_allocate(grouped_six, impl=impl))
        assert out == expected, impl
        worst = max(worst, elapsed)
    maxima = oracle_maxima(grouped_six)
    assert (maxima.m, maxima.b) == (3, 2)
    assert worst < 0.010
    _passline(
        3,
        f"network topology, 2 groups, and identical three-way output; "
        f"slowest implementation {worst * 1e3:.2f} ms",
    )


def test_criterion_04_four_axiom_sweep(sweep):
    start = time.perf_counter()
    checked = 0
    for system in sweep:
        base = base_of(system)
        maxima = oracle_maxima(system)
        mma_out, _ = mma_allocate(base)
        scu_out = scu_allocate(system)
        for out in (mma_out, scu_out):
            verdicts = fundamental_verdicts(system, out, maxima.m)
            assert all(v.passed for v in verdicts), (system, out)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 5000
    assert elapsed < 300
    _passline(
        4,
        f"MMA and SCU pass all four axioms on {checked} seeded instances "
        f"in {elapsed:.1f} s",
    )


def test_criterion_05_uniqueness(sweep):
    checked = 0
    for system in sweep:
        seq = as_sequential(system)
        if not seq.precedence.is_strict():
            continue
        maxima = oracle_maxima(system)
        scu_out = scu_allocate(system)
        winners = []
        for candidate in maxima.max_cardinality_matchings:
            if candidate.beneficiary_count(seq.preferential) != maxima.b:
                continue
            if axioms.check_respect_precedence(
                system, candidate, b=maxima.b, m=maxima.m
            ).passed:
                winners.append(candidate)
        assert winners == [scu_out], (system, winners, scu_out)
        checked += 1
    assert checked > 500
    _passline(
        5,
        f"exactly one eligible/max-cardinality/max-beneficiary/precedence "
        f"matching on {checked} strict-tier instances, always the rule's own",
    )


def test_criterion_06_characterization():
    rng = random.Random(SWEEP_SEED + 6)
    start = time.perf_counter()
    checked = 0
    for _ in range(260):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 5),
            num_categories=rng.randint(1, 2),
            capacity=rng.choice(["uniform:0:2", "const:1", "const:2"]),
            density=rng.choice([0.3, 0.5, 0.8, 1.0]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        maxima = oracle_maxima(system)
        produced = mma_induced_matchings(system, maxima)
        assert produced == set(maxima.four_axiom_matchings), system
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _passline(
        6,
        f"four-axiom matchings == adjustment-reachable outcomes on {checked} "
        f"instances in {elapsed:.1f} s",
    )


def test_criterion_07_implementation_equivalence():
    rng = random.Random(SWEEP_SEED + 7)
    for _ in range(1000):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 12),
            num_categories=rng.randint(1, 4),
            capacity="uniform:0:3",
            density=rng.choice([0.2, 0.4, 0.7, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.3, 0.6, 1.0]),
            tier_scheme=rng.choice(["equal", "strict", "random:2", "random:3"]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        flow = scu_allocate(system, impl="flow")
        compact = scu_allocate(system, impl="compact")
        bipartite = scu_allocate(system, impl="bipartite")
        assert flow == compact == bipartite, system
    _passline(7, "flow, compact, and bipartite agree on 1000 seeded instances")


def test_criterion_08_incentive_consistency(contested_pair, da_gap):
    rng = random.Random(SWEEP_SEED + 8)
    rule = lambda system: scu_allocate(system)
    trials = 0
    for _ in range(120):
        spec = GeneratorSpec(
            num_agents=rng.randint(1, 5),
            num_categories=rng.randint(1, 3),
            capacity="uniform:0:2",
            density=rng.choice([0.3, 0.6, 0.9]),
            preferential_fraction=rng.choice([0.0, 0.5, 1.0]),
            tier_scheme=rng.choice(["equal", "strict", "random:2"]),
            seed=rng.randrange(1 << 30),
        )
        system = spec.build()
        hide = report_no_incentive_to_hide(rule, system)
        improve = report_respect_improvements(rule, system)
        consistent = report_consistency(rule, system)
        assert hide.ok and improve.ok and consistent.ok, system
        trials += hide.trials + improve.trials + consistent.trials

    # required negative witnesses in the corpus
    dependence = report_independence_of_baseline(
        lambda system, order: rev_allocate(base_of(system), order), contested_pair
    )
    assert not dependence.ok
    gap = da_allocate(da_gap)
    assert gap.matched_count() < oracle_maxima(da_gap).m
    seed = GraphMatching.from_matching(Matching((0, None, 1)), 2)
    first, _ = mma_allocate(contested_pair, initial=seed.copy())
    second, _ = mma_allocate(contested_pair, initial=seed.copy(), category_order=(1, 0))
    assert first != second
    _passline(
        8,
        f"SCU clean over {trials} exhaustive perturbations; corpus holds the "
        f"baseline-dependence, cardinality-gap, and inconsistency witnesses",
    )


def test_criterion_09_performance_trend():
    report = run_bench(
        sizes=(500, 1000, 2000), rules=("mma", "rev"), repetitions=3, seed=0
    )
    ratios = [entry["ratio"] for entry in report["rev_over_mma"]]
    assert ratios[0] < ratios[1] < ratios[2], ratios
    mma_2000 = next(
        entry["seconds"]
        for entry in report["medians"]
        if entry["rule"] == "mma" and entry["size"] == 2000
    )
    assert mma_2000 < 1.0
    _passline(
        9,
        f"rev/mma median ratio grows {ratios[0]:.0f} -> {ratios[1]:.0f} -> "
        f"{ratios[2]:.0f}; mma at 2000 agents takes {mma_2000 * 1e3:.0f} ms",
    )


def test_criterion_10_proposition_checks(sweep):
    rng = random.Random(SWEEP_SEED + 10)
    hybrid_checked = 0
    for _ in range(120):
        system = hybrid_instance(rng, rng.randint(1, 4))
        for matching in MatchingSpace(system):
            swap = axioms.check_order_preservation_swap(system, matching).passed
            hybrid = axioms.check_order_preservation_hybrid(system, matching).passed
            assert swap == hybrid, (system, matching)
            hybrid_checked += 1

    implication_checked = 0
    for system in sweep[:400]:
        seq = as_sequential(system)
        maxima = oracle_maxima(system)
        for matching in maxima.max_cardinality_matchings:
            if matching.beneficiary_count(seq.preferential) != maxima.b:
                continue
            if axioms.check_respect_precedence(
                system, matching, b=maxima.b, m=maxima.m
            ).passed:
                assert axioms.check_order_preservation_swap(system, matching).passed
                implication_checked += 1
    _passline(
        10,
        f"swap and hybrid verdicts agree on {hybrid_checked} matchings; "
        f"precedence implies swapping on {implication_checked} maxima matchings",
    )
