"""The adversarial corpus: degenerate instances and a long augmenting chain.
Small cases are judged by the exhaustive oracle; the 2000-agent chain goes
through ``solve`` and ``check`` with their expected exit codes."""

from __future__ import annotations

import json

import pytest

from reservematch import axioms
from reservematch.cli import main
from reservematch.harness import oracle_maxima
from reservematch.model import (
    Matching,
    as_sequential,
    base_of,
    instance_to_raw,
    matching_to_json,
    parse_instance,
    parse_matching,
)
from reservematch.rules_basic import mma_allocate
from reservematch.rules_sequential import IMPLEMENTATIONS, scu_allocate

from util import chain_instance, is_strict

SMALL = (
    "zero_agents",
    "zero_capacities",
    "no_eligible_edges",
    "no_categories",
    "chain_small",
    "tiers_one",
    "tiers_strict",
)


def _load(corpus_dir, name):
    return parse_instance((corpus_dir / f"{name}.json").read_text())


def _precedence_winners(system, maxima):
    """Every maximum matching with b beneficiaries that respects
    precedence, by the oracle search."""
    seq = as_sequential(system)
    return [
        mu
        for mu in maxima.max_cardinality_matchings
        if mu.beneficiary_count(seq.preferential) == maxima.b
        and axioms.check_respect_precedence(
            system, mu, search="oracle", b=maxima.b, m=maxima.m
        ).passed
    ]


@pytest.mark.parametrize("name", SMALL)
def test_small_corpus_agrees_with_oracle(corpus_dir, tmp_path, capsys, name):
    system = _load(corpus_dir, name)
    maxima = oracle_maxima(system)
    outputs = {impl: scu_allocate(system, impl=impl) for impl in IMPLEMENTATIONS}
    scu_out = outputs["bipartite"]
    assert set(outputs.values()) == {scu_out}
    assert scu_out in maxima.four_axiom_matchings
    winners = _precedence_winners(system, maxima)
    assert scu_out in winners
    if is_strict(as_sequential(system).precedence):
        assert winners == [scu_out]
    mma_out, _ = mma_allocate(base_of(system))
    assert mma_out in maxima.four_axiom_matchings

    instance, out = str(corpus_dir / f"{name}.json"), tmp_path / "out.json"
    assert main(["solve", "-i", instance, "--rule", "scu", "-o", str(out)]) == 0
    assert parse_matching(out.read_text(), system) == scu_out
    assert main(["check", "-i", instance, "-m", str(out)]) == 0
    capsys.readouterr()


def test_one_tier_against_strict_tiers(corpus_dir):
    """The same instance with one tier and with strict tiers: both process
    the categories in index order, so the rule's output is the same, but
    only strict tiers make it the one matching that respects precedence."""
    one, strict = _load(corpus_dir, "tiers_one"), _load(corpus_dir, "tiers_strict")
    assert one.base == strict.base and one.preferential == strict.preferential
    assert set(one.precedence.tier_of) == {0} and is_strict(strict.precedence)
    assert scu_allocate(one) == scu_allocate(strict)
    assert len(_precedence_winners(one, oracle_maxima(one))) > 1
    assert len(_precedence_winners(strict, oracle_maxima(strict))) == 1


def test_chain_corpus_file_matches_chain_instance(corpus_dir):
    assert _load(corpus_dir, "chain_small") == chain_instance(5)


def test_long_chain_solves_and_checks(capsys, tmp_path):
    """At 2000 agents the rule shifts every agent up one category and
    ``check`` passes it; the parked matching i -> c_i fails only
    respect-precedence, with a witness that shifts every agent."""
    n = 2000
    system = chain_instance(n)
    shifted = Matching(tuple(range(1, n + 1)))
    instance, out, parked = (
        str(tmp_path / f) for f in ("chain.json", "out.json", "parked.json")
    )
    with open(instance, "w", encoding="utf-8") as handle:
        json.dump(instance_to_raw(system), handle)
    assert main(["solve", "-i", instance, "--rule", "scu", "-o", out]) == 0
    with open(out, encoding="utf-8") as handle:
        assert parse_matching(handle.read(), system) == shifted
    assert main(["check", "-i", instance, "-m", out]) == 0

    with open(parked, "w", encoding="utf-8") as handle:
        handle.write(matching_to_json(Matching(tuple(range(n)))))
    capsys.readouterr()
    assert main(["--format", "json", "check", "-i", instance, "-m", parked]) == 1
    failed = [v for v in json.loads(capsys.readouterr().out) if not v["pass"]]
    assert [v["axiom"] for v in failed] == ["respect-precedence"]
    alternative = failed[0]["witness"]["alternative"]
    assert alternative == {str(a): c for a, c in enumerate(shifted.assignment)}
