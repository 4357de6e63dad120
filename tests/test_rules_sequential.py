from __future__ import annotations

import json
import random
import re
from collections import Counter, deque
from math import isqrt

import pytest

from test_bipartite import _hk_reference
from util import assign_edge_map

from reservematch import axioms
from reservematch.bipartite import EligibilityGraph, GraphMatching, build_graph
from reservematch.cli import GeneratorSpec, main
from reservematch.harness import oracle_maxima
from reservematch.model import (
    Matching,
    PrecedenceOrder,
    PriorityRanking,
    ReserveSystem,
    SequentialReserveSystem,
    as_sequential,
    instance_to_json,
    matching_to_json,
    parse_matching,
)
from reservematch.netflow import (
    OPEN_CLASS,
    PREF_CLASS,
    build_compact_network,
    build_reserve_network,
)
from reservematch.rules_basic import mma_allocate
from reservematch.rules_sequential import (
    FIXED,
    NO_CHANGE,
    SCUNetworkState,
    SCUState,
    dual_maximum_matching,
    scu_allocate,
    scu_bipartite_step,
    scu_feasibility_check,
)

IMPLS = ("flow", "compact", "bipartite")


def random_sequential(rng, max_agents=12, max_categories=4):
    spec = GeneratorSpec(
        num_agents=rng.randint(1, max_agents),
        num_categories=rng.randint(1, max_categories),
        capacity="uniform:0:3",
        density=rng.choice([0.2, 0.4, 0.7, 1.0]),
        preferential_fraction=rng.choice([0.0, 0.3, 0.6, 1.0]),
        tier_scheme=rng.choice(["equal", "strict", "random:2", "random:3"]),
        seed=rng.randrange(1 << 30),
    )
    return spec.build()


# ---------------------------------------------------------------------------
# dual maximum matching


def test_dual_maximum_values(grouped_six):
    match, b, m = dual_maximum_matching(grouped_six)
    assert (b, m) == (2, 3)
    loads = match.load
    assert loads[0] + loads[2] == 2 and sum(loads) == 3


def test_dual_maximum_no_preferential(contested_pair):
    _, b, m = dual_maximum_matching(contested_pair)
    assert (b, m) == (0, 2)


def test_dual_maximum_all_preferential(contested_pair):
    seq = SequentialReserveSystem(
        base=contested_pair,
        preferential=frozenset({0, 1}),
        precedence=PrecedenceOrder((0, 0)),
    )
    _, b, m = dual_maximum_matching(seq)
    assert b == m == 2


def test_dual_maximum_agrees_with_oracle():
    rng = random.Random(8080)
    for _ in range(120):
        system = random_sequential(rng, max_agents=6, max_categories=3)
        maxima = oracle_maxima(system)
        _, b, m = dual_maximum_matching(system)
        assert (b, m) == (maxima.b, maxima.m)


def _dual_maximum_reference(system):
    """``dual_maximum_matching`` without a start as it was when Hopcroft-Karp
    took a category mask: one graph, the preferential stage masked."""
    seq = as_sequential(system)
    graph = build_graph(seq.base)
    stage1 = GraphMatching(graph.num_agents, graph.num_categories)
    if seq.preferential:
        category_mask = [seq.is_beneficial(c) for c in range(seq.num_categories)]
        stage1 = _hk_reference(graph, seed=stage1, category_mask=category_mask)
    b = stage1.size()
    match = _hk_reference(graph, seed=stage1)
    return match, b, match.size()


def test_dual_maximum_equals_masked_reference():
    """Each stage on its own graph returns the matching, b and m of the
    masked Hopcroft-Karp stages on one graph."""
    rng = random.Random("dual-reference")
    seen = set()
    for trial in range(160):
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.choice([0, rng.randint(0, 20), rng.randint(0, 200)]),
            num_categories=rng.randint(1, 8),
            capacity=rng.choice(["const:0", "const:1", "uniform:0:3", "uniform:0:20"]),
            density=rng.choice([0.1, 0.3, 0.6, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme="equal",
            seed=trial,
        ).build())
        match, b, m = dual_maximum_matching(seq)
        expected, b_ref, m_ref = _dual_maximum_reference(seq)
        assert (match.assignment, b, m) == (expected.assignment, b_ref, m_ref), trial
        seen.update({
            "no agents": seq.num_agents == 0,
            "zero capacity": 0 in seq.capacities,
            "none preferential": not seq.preferential,
            "some preferential": 0 < len(seq.preferential) < seq.num_categories,
            "all preferential": len(seq.preferential) == seq.num_categories,
        }.items())
    assert {name for name, hit in seen if hit} == {
        "no agents", "zero capacity", "none preferential",
        "some preferential", "all preferential",
    }


def _random_start(rng, system, kind):
    """A matching to seed from: arbitrary pairs (ineligible ones and
    overfilled categories included), or a random part of a dual maximum."""
    base = as_sequential(system).base
    n, k = base.num_agents, base.num_categories
    if kind == "arbitrary":
        return Matching(tuple(
            rng.randrange(k) if k and rng.random() < 0.7 else None for _ in range(n)
        ))
    match, _, _ = dual_maximum_matching(system)
    keep = 1.0 if kind == "maximum" else rng.random()
    return Matching(tuple(
        c if rng.random() < keep else None for c in match.assignment
    ))


@pytest.mark.parametrize("kind", ["arbitrary", "partial", "maximum"])
def test_seeded_dual_maximum_matches_unseeded(kind):
    rng = random.Random(f"seeded-{kind}")
    for _ in range(100):
        system = random_sequential(rng, max_agents=10, max_categories=4)
        seq = as_sequential(system)
        if rng.random() < 0.2:  # every category preferential
            seq = SequentialReserveSystem(
                seq.base, frozenset(range(seq.num_categories)), seq.precedence
            )
        start = _random_start(rng, seq, kind)
        _, b, m = dual_maximum_matching(seq)
        match, b_seeded, m_seeded = dual_maximum_matching(seq, start=start)
        assert (b_seeded, m_seeded) == (b, m)
        assert match.size() == m
        assert sum(match.load[c] for c in seq.preferential) == b
        for agent, c in enumerate(match.assignment):
            assert c is None or seq.base.is_eligible(agent, c)
        assert all(load <= cap for load, cap in zip(match.load, seq.capacities))
        if kind == "maximum":  # no augmenting path: the start comes back as is
            assert tuple(match.assignment) == start.assignment


def _count_graph_calls(monkeypatch) -> Counter:
    """Count graph builds, at ``EligibilityGraph.from_members`` (which
    ``build_graph`` calls too), and ``maximum_matching`` calls from every
    module that holds the name."""
    from reservematch import bipartite, rules_basic, rules_sequential

    calls: Counter = Counter()
    from_members = EligibilityGraph.from_members

    def counted_graph(cls, *args, **kwargs):
        calls["from_members"] += 1
        return from_members(*args, **kwargs)

    monkeypatch.setattr(EligibilityGraph, "from_members", classmethod(counted_graph))
    hopcroft_karp = bipartite.maximum_matching

    def counted_hopcroft_karp(*args, **kwargs):
        calls["maximum_matching"] += 1
        return hopcroft_karp(*args, **kwargs)

    for module in (bipartite, rules_basic, rules_sequential):
        monkeypatch.setattr(module, "maximum_matching", counted_hopcroft_karp)
    return calls


def _deficit_one(rng, match):
    """``match`` with one random matched agent unmatched."""
    assignment = list(match.assignment)
    matched = [a for a, c in enumerate(assignment) if c is not None]
    if matched:
        assignment[rng.choice(matched)] = None
    return Matching(tuple(assignment))


def _grid_systems():
    rng = random.Random("seeded-grid")
    for trial in range(240):
        yield as_sequential(GeneratorSpec(
            num_agents=rng.randint(0, 60),
            num_categories=rng.randint(1, 6),
            capacity=rng.choice(["const:0", "const:1", "uniform:0:3", "uniform:0:8"]),
            density=rng.choice([0.1, 0.3, 0.6, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme=rng.choice(["equal", "strict", "random:2"]),
            seed=trial,
        ).build())
    yield as_sequential(GeneratorSpec(
        1000, 12, capacity="uniform:0:60", density=0.08,
        preferential_fraction=0.4, tier_scheme="random:3", seed=1000,
    ).build())


@pytest.mark.parametrize("kind", ["maximum", "deficit-one", "partial", "arbitrary"])
def test_seeded_dual_maximum_grid(kind, monkeypatch):
    """Every kind of start gives the unseeded b and m; a maximum start is
    certified by the backward searches alone and comes back unchanged, and
    a start one unit short needs no Hopcroft-Karp pass either."""
    rng = random.Random(f"grid-{kind}")
    seen = set()
    for seq in _grid_systems():
        unseeded, b, m = dual_maximum_matching(seq)
        if kind == "deficit-one":
            start = _deficit_one(rng, unseeded)
        else:
            start = _random_start(rng, seq, kind)
        with monkeypatch.context() as patch:
            calls = _count_graph_calls(patch)
            match, b_seeded, m_seeded = dual_maximum_matching(seq, start=start)
        assert (b_seeded, m_seeded) == (b, m)
        assert (match.size(), sum(match.load[c] for c in seq.preferential)) == (m, b)
        for agent, c in enumerate(match.assignment):
            assert c is None or seq.base.is_eligible(agent, c)
        assert all(load <= cap for load, cap in zip(match.load, seq.capacities))
        # each stage runs at most one Hopcroft-Karp pass, on a graph it
        # builds for that pass alone
        assert calls["from_members"] == calls["maximum_matching"] <= 2
        if kind == "maximum":
            assert tuple(match.assignment) == start.assignment
        if kind in ("maximum", "deficit-one"):
            assert not calls
        seen.update({
            "no agents": seq.num_agents == 0,
            "zero capacity": 0 in seq.capacities,
            "none preferential": not seq.preferential,
            "some preferential": 0 < len(seq.preferential) < seq.num_categories,
            "all preferential": len(seq.preferential) == seq.num_categories,
            "hopcroft-karp": bool(calls["maximum_matching"]),
        }.items())
    wanted = {"no agents", "zero capacity", "none preferential",
              "some preferential", "all preferential"}
    if kind in ("partial", "arbitrary"):
        wanted.add("hopcroft-karp")
    assert {name for name, hit in seen if hit} >= wanted


def _count_searches(monkeypatch) -> list:
    """Record each ``augment_backward`` call of ``dual_maximum_matching`` as
    (the stage's member lists, whether it found a path)."""
    from reservematch import rules_sequential

    searches = []
    search = rules_sequential.augment_backward

    def counted_search(members, *args):
        found = search(members, *args)
        searches.append((members, found))
        return found

    monkeypatch.setattr(rules_sequential, "augment_backward", counted_search)
    return searches


def _per_stage(searches) -> list:
    """The outcomes of ``searches``, one list per stage, in stage order."""
    stages: dict = {}
    for members, found in searches:
        stages.setdefault(id(members), []).append(found)
    return list(stages.values())


@pytest.mark.parametrize("preferential_fraction", [0.0, 0.4])
def test_seeded_stage_runs_at_most_isqrt_n_plus_one_searches(
    preferential_fraction, monkeypatch
):
    """A seeded stage runs backward searches until one finds no path, at
    most isqrt(n) + 1 of them, and runs Hopcroft-Karp, from the seed, only
    when the last allowed search still found one. A start k <= isqrt(n)
    short of maximum needs at most k paths per stage, so it builds no
    graph."""
    from reservematch import rules_sequential

    seq = as_sequential(GeneratorSpec(
        400, 10, capacity="const:20", density=0.15,
        preferential_fraction=preferential_fraction, tier_scheme="random:3", seed=401,
    ).build())
    unseeded, b, m = dual_maximum_matching(seq)
    bound = isqrt(seq.num_agents) + 1
    assert (b > bound and m - b > bound) if seq.preferential else m > bound
    rng = random.Random("search-bound")
    matched = [a for a, c in enumerate(unseeded.assignment) if c is not None]
    for k in (1, bound - 1):
        assignment = list(unseeded.assignment)
        for agent in rng.sample(matched, k):
            assignment[agent] = None
        with monkeypatch.context() as patch:
            calls = _count_graph_calls(patch)
            searches = _count_searches(patch)
            match, b_seeded, m_seeded = dual_maximum_matching(
                seq, start=Matching(tuple(assignment))
            )
        assert (b_seeded, m_seeded, match.size()) == (b, m, m)
        assert not calls
        for stage in _per_stage(searches):
            assert len(stage) <= k + 1 and stage[-1] is False and all(stage[:-1])
    # from an empty start every stage needs more paths than the bound
    seed_sizes = []
    with monkeypatch.context() as patch:
        calls = _count_graph_calls(patch)
        searches = _count_searches(patch)
        hopcroft_karp = rules_sequential.maximum_matching

        def seeded_hopcroft_karp(graph, seed):
            seed_sizes.append(seed.size())
            return hopcroft_karp(graph, seed=seed)

        patch.setattr(rules_sequential, "maximum_matching", seeded_hopcroft_karp)
        match, b_seeded, m_seeded = dual_maximum_matching(
            seq, start=Matching((None,) * seq.num_agents)
        )
    assert (b_seeded, m_seeded, match.size()) == (b, m, m)
    stages = _per_stage(searches)
    assert stages == [[True] * bound] * (2 if seq.preferential else 1)
    assert calls == {"from_members": len(stages), "maximum_matching": len(stages)}
    # Hopcroft-Karp starts from the seed: the searches' paths are undone
    assert seed_sizes == ([0, b] if seq.preferential else [0])


def _tampered(seq, assignment):
    """Unmatch the highest-numbered agent that sits in an open category
    above that category's lowest occupant, as the benchmark's refute does:
    one unit short of maximum, with b intact."""
    candidates = []
    for c in seq.open_categories():
        agents = [a for a, held in enumerate(assignment) if held == c]
        if agents:
            lowest = max(agents, key=lambda a: seq.base.position(c, a))
            candidates += [a for a in agents if a != lowest]
    out = list(assignment)
    out[max(candidates)] = None
    return Matching(tuple(out))


@pytest.mark.parametrize("rule", ["scu", "mma"])
def test_check_certifies_maxima_without_hopcroft_karp(rule, tmp_path, monkeypatch, capsys):
    """A passing check builds no graph and runs no Hopcroft-Karp pass: the
    backward searches certify both maxima. One unit short, one more search
    applies the missing path and the next certifies the stage, still with
    no graph; the check says what the Hopcroft-Karp path says."""
    from reservematch import rules_sequential

    seq = as_sequential(GeneratorSpec(
        400, 10, capacity="const:20", density=0.15,
        preferential_fraction=0.4, tier_scheme="random:3", seed=400,
    ).build())
    instance = tmp_path / "instance.json"
    instance.write_text(instance_to_json(seq))
    solved = tmp_path / "solved.json"
    if rule == "scu":
        names = list(axioms.FUNDAMENTAL + axioms.SEQUENTIAL)
        argv = ["solve", "-i", str(instance), "--rule", "scu", "-o", str(solved)]
    else:
        # mma moves agents within a category, so from a dual maximum seed
        # it keeps b as well as m
        names = list(axioms.FUNDAMENTAL) + [axioms.MAX_BENEFICIARY]
        seed = tmp_path / "seed.json"
        seed.write_text(matching_to_json(dual_maximum_matching(seq)[0].to_matching()))
        argv = ["solve", "-i", str(instance), "--rule", "mma", "--seed-matching", str(seed),
                "-o", str(solved)]
    assert main(argv) == 0
    check = ["--format", "json", "check", "-i", str(instance)]
    for name in names:
        check += ["--axiom", name]
    capsys.readouterr()

    with monkeypatch.context() as patch:
        calls = _count_graph_calls(patch)
        assert main(check + ["-m", str(solved)]) == 0
    assert not calls
    assert all(v["pass"] for v in json.loads(capsys.readouterr().out))

    solution = parse_matching(solved.read_text(), seq)
    short = tmp_path / "short.json"
    short.write_text(matching_to_json(_tampered(seq, solution.assignment)))
    with monkeypatch.context() as patch:
        calls = _count_graph_calls(patch)
        assert main(check + ["-m", str(short)]) == 1
    assert not calls
    certified = capsys.readouterr().out
    with monkeypatch.context() as patch:
        patch.setattr(rules_sequential, "augment_backward", lambda *args: True)
        calls = _count_graph_calls(patch)
        assert main(check + ["-m", str(short)]) == 1
    assert calls == {"from_members": 2, "maximum_matching": 2}
    assert capsys.readouterr().out == certified


def test_scu_state_builds_the_graph_once(grouped_six, monkeypatch):
    from reservematch import rules_sequential

    _, b, m = dual_maximum_matching(grouped_six)
    build_graph = rules_sequential.build_graph
    built = []

    def counting_build(system):
        built.append(system)
        return build_graph(system)

    monkeypatch.setattr(rules_sequential, "build_graph", counting_build)
    state = SCUState(grouped_six)
    assert len(built) == 1 and state.graph == build_graph(grouped_six.base)
    assert (state.b, state.m) == (b, m)


def test_default_scu_runs_no_hopcroft_karp(grouped_six, corpus_dir, tmp_path, monkeypatch):
    """The bipartite state builds its start on the category quotient, so
    ``scu_allocate`` and ``solve --rule scu`` run no Hopcroft-Karp pass."""
    from reservematch import rules_sequential

    def no_hopcroft_karp(*args, **kwargs):
        raise AssertionError("the default scu rule ran Hopcroft-Karp")

    monkeypatch.setattr(rules_sequential, "maximum_matching", no_hopcroft_karp)
    expected = Matching((None, 0, None, 1, 2, None))
    assert scu_allocate(grouped_six) == expected
    out = tmp_path / "matching.json"
    instance = str(corpus_dir / "grouped_six.json")
    assert main(["solve", "-i", instance, "--rule", "scu", "-o", str(out)]) == 0
    assert out.read_text() == matching_to_json(expected)


def test_start_agrees_with_hopcroft_karp():
    """The state's start is a dual maximum matching: its b and m are
    Hopcroft-Karp's (and, on small instances, the oracle's), it is eligible
    and within capacity, and its rows are the ones its matching implies."""
    rng = random.Random(20261018)
    seen = set()
    for i in range(1200):
        small = i % 5 == 0
        seq = as_sequential(GeneratorSpec(
            num_agents=rng.randint(0, 5 if small else 40),
            num_categories=rng.randint(1, 3 if small else 6),
            capacity=rng.choice(["const:0", "const:1", "uniform:0:3", "uniform:0:8"]),
            density=rng.choice([0.1, 0.3, 0.6, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme=rng.choice(["equal", "strict", "random:2", "random:3"]),
            seed=rng.randrange(1 << 30),
        ).build())
        state = SCUState(seq)
        mu = state.mu
        _, b, m = dual_maximum_matching(seq)
        assert (state.b, state.m) == (b, m)
        if small:
            maxima = oracle_maxima(seq)
            assert (state.b, state.m) == (maxima.b, maxima.m)
        assert (mu.size(), sum(mu.load[c] for c in seq.preferential)) == (m, b)
        for agent, c in enumerate(mu.assignment):
            assert c is None or seq.base.is_eligible(agent, c)
        assert all(load <= cap for load, cap in zip(mu.load, seq.capacities))
        via, free, unfixed = _quotient_rows(state)
        kept = [{e: row for e, row in rows.items() if row} for rows in state.via]
        assert (kept, state.free, state.unfixed) == (via, free, unfixed)
        seen.update({
            "zero capacity": 0 in seq.capacities,
            "all preferential": len(seq.preferential) == seq.num_categories,
            "none preferential": not seq.preferential,
            "augmented": 0 < b < m,
        }.items())
    assert all((kind, True) in seen for kind, _ in seen)


@pytest.mark.parametrize("compact", [False, True], ids=["flow", "compact"])
def test_network_state_starts_without_a_flow_solve(grouped_six, monkeypatch, compact):
    """The network states start from the dual maximum matching, so building
    one runs no Dinic pass."""
    from reservematch import netflow

    def no_dinic(*args, **kwargs):
        raise AssertionError("a Dinic pass ran while the state was built")

    monkeypatch.setattr(netflow, "_Dinic", no_dinic)
    state = SCUNetworkState(grouped_six, compact)
    _, b, m = dual_maximum_matching(grouped_six)
    assert (state.b, state.m, state.warm.flow().total) == (b, m, m)


def test_default_implementation_is_bipartite(grouped_six, corpus_dir, tmp_path, monkeypatch):
    """``scu_allocate`` and ``solve --rule scu`` without ``--impl`` run the
    bipartite rule, which builds no reserve network."""
    from reservematch import rules_sequential

    def no_network(*args, **kwargs):
        raise AssertionError("the default scu rule built a reserve network")

    monkeypatch.setattr(rules_sequential, "SCUNetworkState", no_network)
    expected = Matching((None, 0, None, 1, 2, None))
    assert scu_allocate(grouped_six) == expected
    out = tmp_path / "matching.json"
    instance = str(corpus_dir / "grouped_six.json")
    assert main(["solve", "-i", instance, "--rule", "scu", "-o", str(out)]) == 0
    assert out.read_text() == matching_to_json(expected)


# ---------------------------------------------------------------------------
# feasibility checks


def test_feasibility_check_open_slot(grouped_six):
    assert scu_feasibility_check(grouped_six, [], 1, 0)


def test_feasibility_check_with_fixed_agent(grouped_six):
    # 1 fixed to c0; agent 0 into c1 still leaves 2 beneficiaries reachable
    assert scu_feasibility_check(grouped_six, [(1, 0)], 0, 1)


def test_feasibility_check_capacity_conflict(grouped_six):
    assert not scu_feasibility_check(grouped_six, [(1, 0)], 0, 0)


def test_feasibility_check_precedence_chain(precedence_chain):
    assert scu_feasibility_check(precedence_chain, [], 2, 0)


def test_feasibility_check_preconditions(grouped_six):
    with pytest.raises(ValueError):
        scu_feasibility_check(grouped_six, [], 5, 0)  # agent 5 not eligible for c0
    with pytest.raises(ValueError):
        scu_feasibility_check(grouped_six, [(1, 0)], 1, 1)


# ---------------------------------------------------------------------------
# the rule itself


@pytest.mark.parametrize("impl", IMPLS)
def test_scu_precedence_chain(precedence_chain, impl):
    assert scu_allocate(precedence_chain, impl=impl) == Matching((None, 1, 0))


@pytest.mark.parametrize("impl", IMPLS)
def test_scu_grouped_six(grouped_six, impl):
    assert scu_allocate(grouped_six, impl=impl) == Matching((None, 0, None, 1, 2, None))


@pytest.mark.parametrize("impl", IMPLS)
def test_scu_zero_capacity(impl):
    system = SequentialReserveSystem(
        base=ReserveSystem(
            2, 2, (0, 0), (PriorityRanking((0, 1), 2), PriorityRanking((0, 1), 2))
        ),
        preferential=frozenset({0}),
        precedence=PrecedenceOrder((0, 1)),
    )
    assert scu_allocate(system, impl=impl) == Matching((None, None))


def test_scu_rejects_an_unknown_implementation(grouped_six):
    message = "unknown implementation 'x'; expected one of ('flow', 'compact', 'bipartite')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scu_allocate(grouped_six, impl="x")


def test_scu_basic_coercion_axioms(contested_pair):
    """On a plain instance the rule degenerates to a priority-respecting
    maximum-cardinality rule; it need not equal the adjustment rule's output
    but must satisfy the same four axioms."""
    out = scu_allocate(contested_pair)
    maxima = oracle_maxima(contested_pair)
    assert axioms.check_eligibility(contested_pair, out).passed
    assert axioms.check_respect_priorities(contested_pair, out).passed
    assert axioms.check_nonwasteful(contested_pair, out).passed
    assert axioms.check_max_cardinality(contested_pair, out, maxima.m).passed
    mma_out, _ = mma_allocate(contested_pair)
    assert out.matched_count() == mma_out.matched_count()


def test_scu_implementations_agree_thousand():
    rng = random.Random(20240601)
    for _ in range(1000):
        system = random_sequential(rng)
        outs = [scu_allocate(system, impl=impl) for impl in IMPLS]
        assert outs[0] == outs[1] == outs[2], system


def test_scu_consistency(grouped_six):
    for impl in IMPLS:
        assert scu_allocate(grouped_six, impl=impl) == scu_allocate(
            grouped_six, impl=impl
        )


def test_scu_output_preserves_maxima():
    rng = random.Random(606)
    for _ in range(80):
        system = random_sequential(rng, max_agents=7, max_categories=3)
        seq = as_sequential(system)
        _, b, m = dual_maximum_matching(seq)
        out = scu_allocate(system)
        assert out.matched_count() == m
        assert out.beneficiary_count(seq.preferential) == b


def _without_matching(records):
    return [{k: v for k, v in r.items() if k != "matching"} for r in records]


@pytest.mark.parametrize("impl", IMPLS)
def test_scu_trace_records_fixes(grouped_six, impl):
    records = []
    scu_allocate(grouped_six, impl=impl, trace_sink=records.append)
    events = [r["event"] for r in records]
    assert events[0] == "init" and events[-1] == "done"
    fixes = [(r["agent"], r["category"]) for r in records if r["event"] == "fixed"]
    assert fixes == [(1, 0), (3, 1), (4, 2)]
    # fixed set only grows, and the final fixed set is the matched set
    sizes = [len(r["fixed"]) for r in records]
    assert sizes == sorted(sizes)
    assert records[-1]["fixed"] == [[1, 0], [3, 1], [4, 2]]
    # only bipartite carries its working matching; the rest of every record
    # is the same for the three implementations
    rng = random.Random(f"trace-{impl}")
    systems = [grouped_six] + [random_sequential(rng) for _ in range(40)]
    for system in systems:
        records, reference = [], []
        scu_allocate(system, impl=impl, trace_sink=records.append)
        scu_allocate(system, impl="compact", trace_sink=reference.append)
        assert all(("matching" in r) == (impl == "bipartite") for r in records)
        assert _without_matching(records) == reference
        if impl == "bipartite":
            _assert_dual_maximum(system, records[0])


def _assert_dual_maximum(system, init):
    """The working matching an ``init`` record carries is the state's start:
    eligible, within capacity, with m matched agents and b beneficiaries."""
    seq = as_sequential(system)
    start = init["matching"]
    assert all(c is None or seq.base.is_eligible(a, c) for a, c in enumerate(start))
    load = Counter(c for c in start if c is not None)
    assert all(load[c] <= cap for c, cap in enumerate(seq.capacities))
    assert sum(load.values()) == init["m"]
    assert sum(load[c] for c in seq.preferential) == init["b"]


# ---------------------------------------------------------------------------
# per-step case analysis


def test_step_case_already_matched(grouped_six):
    state = SCUState(grouped_six)
    agent = next(a for a in range(6) if state.mu.assignment[a] == 0)
    before = list(state.mu.assignment)
    assert scu_bipartite_step(state, agent, 0) == FIXED
    assert list(state.mu.assignment) == before
    assert state.X == [(agent, 0)]


def test_step_case_unmatched_displaces():
    # two agents contest one unit slot; the higher-priority one arrives second
    system = SequentialReserveSystem(
        base=ReserveSystem(
            2, 1, (1,), (PriorityRanking((0, 1), 2),)
        ),
        preferential=frozenset(),
        precedence=PrecedenceOrder((0,)),
    )
    state = SCUState(system)
    state.move(0, None)
    state.move(1, 0)
    assert scu_bipartite_step(state, 0, 0) == FIXED
    assert state.mu.assignment[0] == 0 and state.mu.assignment[1] is None


def test_step_no_change_when_all_branches_fail():
    # single slot already held by the top-priority agent
    system = SequentialReserveSystem(
        base=ReserveSystem(
            2, 1, (1,), (PriorityRanking((0, 1), 2),)
        ),
        preferential=frozenset(),
        precedence=PrecedenceOrder((0,)),
    )
    state = SCUState(system)
    assert state.mu.assignment[0] == 0
    assert scu_bipartite_step(state, 0, 0) == FIXED
    before = list(state.mu.assignment)
    assert scu_bipartite_step(state, 1, 0) == NO_CHANGE
    assert state.X == [(0, 0)]
    assert list(state.mu.assignment) == before


def test_step_reroute_case(grouped_six):
    """An agent matched elsewhere is pulled in while its old seat refills."""
    state = SCUState(grouped_six)
    # drive processing of c0 to completion, then fix the first c1 candidate
    for agent in grouped_six.base.eligible_agents(0):
        if state.fixed_count[0] == 1:
            break
        if agent not in state.in_x:
            scu_bipartite_step(state, agent, 0)
    assert state.mu.assignment[1] == 0
    candidates = [a for a in grouped_six.base.eligible_agents(1) if a not in state.in_x]
    fixed = None
    for agent in candidates:
        if scu_bipartite_step(state, agent, 1) == FIXED:
            fixed = agent
            break
    assert fixed == 3
    assert state.mu.assignment[3] == 1


def test_step_agrees_with_feasibility_check():
    """Every step the rule takes fixes its candidate exactly when the flow
    feasibility check says some matching keeps the fixes, places the
    candidate and keeps both maxima."""
    rng = random.Random(31337)
    for _ in range(200):
        seq = as_sequential(random_sequential(rng))
        state = SCUState(seq)
        for c in seq.precedence.strict_sequence():
            for agent in seq.base.eligible_agents(c):
                if agent in state.in_x:
                    continue
                if state.fixed_count[c] == seq.capacities[c]:
                    break
                expected = scu_feasibility_check(
                    seq, state.X, agent, c, state.b, state.m
                )
                assert (scu_bipartite_step(state, agent, c) == FIXED) == expected


def _quotient_rows(state):
    """The three row families of the category quotient, recomputed from the
    matching and the fixed set; ``via`` rows list only non-empty sets."""
    k = state.graph.num_categories
    via = [{} for _ in range(k)]
    free = [set() for _ in range(k)]
    unfixed = [set() for _ in range(k)]
    for agent, here in enumerate(state.mu.assignment):
        if here is None:
            for e in state.graph.agent_adj[agent]:
                free[e].add(agent)
        elif agent not in state.in_x:
            unfixed[here].add(agent)
            for e in state.graph.agent_adj[agent]:
                via[here].setdefault(e, set()).add(agent)
    return via, free, unfixed


def test_quotient_rows_follow_every_step():
    """After every step, the rows the state keeps equal the rows recomputed
    from its matching and fixed set, on instances with zero capacities, tied
    tiers and every category preferential among them."""
    rng = random.Random(9090)
    kinds = set()
    for _ in range(240):
        seq = as_sequential(random_sequential(rng))
        if rng.random() < 0.2:
            seq = SequentialReserveSystem(
                seq.base, frozenset(range(seq.num_categories)), seq.precedence
            )
        kinds.update({
            "zero capacity": 0 in seq.capacities,
            "tied tiers": len(set(seq.precedence.tier_of)) < seq.num_categories,
            "all preferential": len(seq.preferential) == seq.num_categories > 1,
        }.items())
        state = SCUState(seq)
        for c in seq.precedence.strict_sequence():
            for agent in seq.base.eligible_agents(c):
                if agent in state.in_x:
                    continue
                if state.fixed_count[c] == seq.capacities[c]:
                    break
                state.step(agent, c)
                via, free, unfixed = _quotient_rows(state)
                kept = [{e: row for e, row in rows.items() if row} for rows in state.via]
                assert (kept, state.free, state.unfixed) == (via, free, unfixed)
        assert state.finish() == scu_allocate(seq, impl="compact")
    assert all((kind, True) in kinds for kind in ("zero capacity", "tied tiers", "all preferential"))


def _step_with_a_cycle(monkeypatch):
    """(state, moves) right after the first step whose cycle moves an
    agent other than the candidate from one category to another, with the
    ``moves`` the step handed to ``_check_state``."""
    from reservematch import rules_sequential

    check = rules_sequential._check_state
    seen = []

    def record(state, moves):
        check(state, moves)
        seen.append(list(moves))

    monkeypatch.setattr(rules_sequential, "_check_state", record)
    rng = random.Random(2612)
    for _ in range(500):
        seq = as_sequential(random_sequential(rng))
        state = SCUState(seq)
        for c in seq.precedence.strict_sequence():
            for agent in seq.base.eligible_agents(c):
                if agent in state.in_x:
                    continue
                if state.fixed_count[c] == seq.capacities[c]:
                    break
                seen.clear()
                state.step(agent, c)
                if seen and any(
                    old is not None and here is not None and old != here
                    for _, old, here in seen[0][:-1]
                ):
                    monkeypatch.setattr(rules_sequential, "_check_state", check)
                    return state, seen[0]
    raise AssertionError("no step moved an agent between two categories")


def test_invariant_check_names_each_corrupted_row(monkeypatch):
    """Four faults, one at a time, on the rows of a state right after a
    step with a cycle: each makes ``_check_state`` fail on the row it
    corrupted, and the state passes again once it is undone."""
    from reservematch.rules_sequential import _check_state

    state, moves = _step_with_a_cycle(monkeypatch)
    agent, c = state.X[-1]
    x, old, here = next(
        (x, old, here) for x, old, here in moves[:-1]
        if old is not None and here is not None and old != here
    )
    adj = state.graph.agent_adj
    e, f = adj[x][0], adj[x][-1]
    faults = [  # what goes wrong, the agent, its row by name, and the change
        ("a fixed agent back in a via row", agent, f"via[{c}]", state.via[c], adj[agent][-1], "add"),
        ("a moved agent left in its old via row", x, f"via[{old}]", state.via[old], e, "add"),
        ("a moved agent dropped from its new via row", x, f"via[{here}]", state.via[here], f,
         "discard"),
        ("a matched agent in a free row", x, "free", state.free, e, "add"),
    ]
    _check_state(state, moves)
    for fault, member, name, rows, at, change in faults:
        row = rows[at]
        assert (member in row) == (change == "discard"), fault
        getattr(row, change)(member)
        with pytest.raises(AssertionError, match=re.escape(f"{name}[{at}] wrong for agent {member}")):
            _check_state(state, moves)
        getattr(row, "discard" if change == "add" else "add")(member)
        _check_state(state, moves)


def test_candidate_search_expands_at_most_k_plus_3_nodes(monkeypatch):
    """Counts, not timings: each search of the start and of each candidate
    runs on the K + 3 nodes of the category quotient whatever the number of
    agents; a search over the agent nodes expands O(n) of them. Every step
    whose candidate is not yet at its category runs exactly one search, and
    no other step runs one. A step whose goal is a direct successor of its
    root returns that arc and expands no node."""
    from reservematch import rules_sequential

    search, step = rules_sequential._quotient_path, rules_sequential.scu_bipartite_step
    popped = [0]
    searches = []  # (root, path, nodes expanded) of each search
    displaced = [0]  # steps whose candidate is not at its category

    class CountingDeque(deque):
        def popleft(self):
            popped[0] += 1
            return super().popleft()

    def counted(state, root, goals):
        before = popped[0]
        path = search(state, root, goals)
        searches.append((root, path, popped[0] - before))
        return path

    def counted_step(state, agent, category):
        displaced[0] += state.mu.assignment[agent] != category
        return step(state, agent, category)

    monkeypatch.setattr(rules_sequential, "deque", CountingDeque)
    monkeypatch.setattr(rules_sequential, "_quotient_path", counted)
    monkeypatch.setattr(rules_sequential, "scu_bipartite_step", counted_step)
    for n in (400, 1600):
        system = GeneratorSpec(
            num_agents=n,
            num_categories=10,
            capacity=f"const:{n // 20}",
            density=0.3,
            preferential_fraction=0.4,
            tier_scheme="random:3",
            seed=1,
        ).build()
        searches.clear()
        SCUState(system)
        # the start: at least the last, failing search of each stage
        assert len(searches) >= 2
        assert max(expanded for _, _, expanded in searches) <= 10 + 3, n
        searches.clear()
        displaced[0] = 0
        scu_allocate(system, impl="bipartite")
        assert max(expanded for _, _, expanded in searches) <= 10 + 3, n
        steps = [(path, expanded) for root, path, expanded in searches if root < 10]
        assert len(steps) == displaced[0], n
        direct = [expanded for path, expanded in steps if path is not None and len(path) == 2]
        assert direct and not any(direct), n
        assert any(expanded for _, expanded in steps), n


def test_start_places_most_candidates_in_place(monkeypatch):
    """The start seats agents in the candidate loop's order, precedence and
    then priority, so most candidates are already at their category and
    their step runs no search."""
    from reservematch import rules_sequential

    step = rules_sequential.scu_bipartite_step
    in_place = Counter()

    def counted_step(state, agent, category):
        in_place[state.mu.assignment[agent] == category] += 1
        return step(state, agent, category)

    monkeypatch.setattr(rules_sequential, "scu_bipartite_step", counted_step)
    system = GeneratorSpec(1600, 10, "const:80", 0.3, 0.4, "random:3", seed=1).build()
    scu_allocate(system, impl="bipartite")
    assert in_place[True] > in_place[False], in_place


# The two quotient searches of the bipartite state as they were before the
# start's augmenting-path search was folded into the candidates' search,
# kept verbatim: the trace records and the outputs of the rule depend on
# which path each search returns, so the one search must find the same.
def _quotient_path_reference(seq, state, cur, c):
    mu, via, free, unfixed = state.mu, state.via, state.free, state.unfixed
    num_categories = len(via)
    caps, preferential = seq.capacities, seq.preferential
    source = num_categories + 2
    goal = source if cur is None else cur
    parent = {c: c}
    queue = deque([c])
    while queue:
        node = queue.popleft()
        if node < num_categories:
            succ = [e for e, members in via[node].items() if members]
            if unfixed[node]:
                succ.append(source)
            if mu.load[node] < caps[node]:
                succ.append(num_categories + (node in preferential))
        elif node == source:
            succ = [e for e in range(num_categories) if free[e]]
        else:
            succ = [d for d in state.classes[node - num_categories] if mu.load[d] > 0]
        for nxt in succ:
            if nxt in parent:
                continue
            parent[nxt] = node
            if nxt == goal:
                path = [nxt]
                while nxt != c:
                    nxt = parent[nxt]
                    path.append(nxt)
                path.reverse()
                return path
            queue.append(nxt)
    return None


def _augmenting_path_reference(state, ends):
    via, free, load = state.via, state.free, state.mu.load
    caps = state.seq.capacities
    source = len(via) + 2
    parent = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node == source:
            succ = [e for e, members in enumerate(free) if members]
        else:
            succ = [e for e, members in via[node].items() if members]
        for nxt in succ:
            if nxt in parent:
                continue
            parent[nxt] = node
            if ends[nxt] and load[nxt] < caps[nxt]:
                path = [nxt]
                while nxt != source:
                    nxt = parent[nxt]
                    path.append(nxt)
                path.reverse()
                return path
            queue.append(nxt)
    return None


def test_one_quotient_search_finds_the_reference_paths(monkeypatch):
    """Every search of the start and of every candidate returns the path the
    two separate searches returned, on the grid of
    ``test_start_agrees_with_hopcroft_karp`` and on 1000 and 3000 agents."""
    from reservematch import rules_sequential

    search, augment = rules_sequential._quotient_path, rules_sequential.SCUState._augment
    stage_ends, found = [], []
    outcomes = Counter()

    def start_stage(state, ends):
        stage_ends.append(ends)
        augment(state, ends)

    def checked(state, root, goals):
        path = search(state, root, goals)
        if root == len(state.via) + 2:  # the source: a search of the start
            assert path == _augmenting_path_reference(state, stage_ends[-1])
            outcomes["start", path is not None] += 1
        found.append(path)
        return path

    monkeypatch.setattr(rules_sequential.SCUState, "_augment", start_stage)
    monkeypatch.setattr(rules_sequential, "_quotient_path", checked)
    rng = random.Random(20261018)
    specs = [
        GeneratorSpec(
            num_agents=rng.randint(0, 5 if i % 5 == 0 else 40),
            num_categories=rng.randint(1, 3 if i % 5 == 0 else 6),
            capacity=rng.choice(["const:0", "const:1", "uniform:0:3", "uniform:0:8"]),
            density=rng.choice([0.1, 0.3, 0.6, 1.0]),
            preferential_fraction=rng.choice([0.0, 0.4, 1.0]),
            tier_scheme=rng.choice(["equal", "strict", "random:2", "random:3"]),
            seed=rng.randrange(1 << 30),
        )
        for i in range(1200)
    ]
    specs += [
        GeneratorSpec(n, 10, f"const:{n // 20}", 0.3, 0.4, "random:3", seed=n)
        for n in (1000, 3000)
    ]
    for spec in specs:
        seq = as_sequential(spec.build())
        state = SCUState(seq)
        for c in seq.precedence.strict_sequence():
            for agent in seq.base.eligible_agents(c):
                if agent in state.in_x:
                    continue
                if state.fixed_count[c] == seq.capacities[c]:
                    break
                cur = state.mu.assignment[agent]
                expected = None if cur == c else _quotient_path_reference(seq, state, cur, c)
                found.clear()
                state.step(agent, c)
                assert found == ([] if cur == c else [expected])
                outcomes["step", expected is not None] += 1
                if expected is not None:
                    arc = "source" if cur is None else "category"
                    outcomes["step path", "longer" if len(expected) > 2 else arc] += 1
    assert min(outcomes[kind, hit] for kind in ("start", "step") for hit in (False, True)) > 0
    # both branches of the direct-arc test, and the breadth-first search past it
    assert min(outcomes["step path", shape] for shape in ("category", "source", "longer")) > 0


@pytest.mark.parametrize("compact", [False, True], ids=["flow", "compact"])
def test_network_step_agrees_with_feasibility_check(compact):
    """The flow and compact rules fix each candidate exactly when the
    one-shot feasibility check says some matching keeps the fixes, places
    the candidate and keeps both maxima."""
    rng = random.Random(4711)
    for _ in range(200):
        seq = as_sequential(random_sequential(rng))
        state = SCUNetworkState(seq, compact)
        for c in seq.precedence.strict_sequence():
            for agent in seq.base.eligible_agents(c):
                if agent in state.in_x:
                    continue
                if state.fixed_count[c] == seq.capacities[c]:
                    break
                expected = scu_feasibility_check(
                    seq, state.X, agent, c, state.b, state.m
                )
                assert (state.step(agent, c) == FIXED) == expected
                _assert_fixes_are_lower_bounds(seq, state, compact)
        state.finish()


def _assert_fixes_are_lower_bounds(seq, state, compact):
    """Every fix stays on the network as one unit of lower bound on its
    group's edge into its category; no other bound moves."""
    rn, net = state.reserve, state.reserve.network
    fresh = (build_compact_network if compact else build_reserve_network)(seq)
    fixes = Counter((rn.group_of[a], c) for a, c in state.X)
    edges = assign_edge_map(rn)
    assert {pair: net.lower[e] for pair, e in edges.items()} == {
        pair: fixes[pair] for pair in edges
    }
    assert net.upper == fresh.network.upper
    assert net.lower[rn.class_edge[PREF_CLASS]] == state.b
    assert net.lower[rn.class_edge[OPEN_CLASS]] == state.m - state.b


@pytest.mark.parametrize("compact", [False, True], ids=["flow", "compact"])
def test_network_finish_rejects_unfixed_units(grouped_six, compact):
    """A freshly built state carries the dual maximum matching's units, none
    of them fixed, so it has no matching to return yet."""
    state = SCUNetworkState(grouped_six, compact)
    assert state.m > 0
    with pytest.raises(AssertionError, match="unfixed unit"):
        state.finish()
