from __future__ import annotations

import copy
import gc
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import compare_priority, is_strict

from reservematch import axioms, model
from reservematch.axioms import run_checks

from reservematch.model import (
    DuplicateAgentInRanking,
    HybridMarker,
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
    _integer,
    _typed,
    as_sequential,
    canonical_json,
    check_capacities,
    instance_to_json,
    matching_to_json,
    parse_instance,
    parse_matching,
    validate_instance,
    validate_matching,
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
    "capacities, rankings, message",
    [((1,), 2, "expected 2 capacities, got 1"), ((1, 1), 1, "expected 2 rankings, got 1")],
    ids=["capacities", "rankings"],
)
def test_reserve_system_needs_a_capacity_and_a_ranking_per_category(
    capacities, rankings, message
):
    ranking = PriorityRanking((0, 1), 2)
    with pytest.raises(InstanceError, match=f"^{message}$"):
        ReserveSystem(2, 2, capacities, (ranking,) * rankings)


def test_sequential_system_needs_a_tier_per_category(contested_pair):
    with pytest.raises(TierCountMismatch, match="^expected 2 tiers, got 1$"):
        SequentialReserveSystem(contested_pair, frozenset(), PrecedenceOrder((0,)))


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
    assert compare_priority(contested_pair, 0, 1, 0)  # agent 1 above agent 0 at c0
    assert compare_priority(contested_pair, 1, 2, 0)
    assert not compare_priority(contested_pair, 0, 0, 1)
    with pytest.raises(ValueError):
        compare_priority(contested_pair, 0, 1, 1)


def test_compare_priority_total_order(contested_pair):
    for c in range(contested_pair.num_categories):
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                assert compare_priority(contested_pair, c, a, b) != (
                    compare_priority(contested_pair, c, b, a)
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
    raw = {"assignment": {str(a): c for a, c in enumerate(matching.assignment)}}
    assert matching_to_json(matching) == canonical_json(raw)


_JSON_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        # keys the encoder converts to strings
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(obj=_JSON_DATA)
def test_canonical_json_is_the_indented_stdlib_form(obj):
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_canonical_json_leaves_no_cyclic_garbage(grouped_six):
    raw = {"instance": model.instance_to_raw(grouped_six), "pairs": [(0, [1, {}]), ()]}
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        canonical_json(raw)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def _validate_matching_reference(raw, system):
    """``validate_matching`` as a loop over the entries in file order only."""
    base = model.base_of(system)
    try:
        entries = _typed(raw["assignment"], dict, "assignment")
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"malformed matching data: {exc}") from exc
    assignment = [None] * base.num_agents
    for key, value in entries.items():
        try:
            agent = int(key)
        except ValueError:
            agent = None
        if agent is None or key != str(agent):
            raise InstanceError(f"matching key {key!r} is not an agent index")
        if not 0 <= agent < base.num_agents:
            raise InstanceError(f"matching names unknown agent {agent}")
        if value is None:
            continue
        c = _integer(value, f"category of agent {agent}")
        if not 0 <= c < base.num_categories:
            raise InstanceError(f"matching assigns agent {agent} to unknown category {c}")
        assignment[agent] = c
    matching = Matching(tuple(assignment))
    check_capacities(matching, system)
    return matching


_MATCHING_CORRUPTIONS = (
    "float", "true", "string", "list", "negative", "unknown category",
    "missing key", "foreign key", "padded key", "overfull",
)


def _corrupt_matching(rng, entries, n, k, how):
    """Spoil a full-key assignment of ``n`` agents in place, one way; the
    spoiled data keeps ``n`` keys unless the way is a missing key."""
    key = str(rng.randrange(n))
    if how in ("float", "true", "string", "list"):
        entries[key] = {"float": 1.0, "true": True, "string": "0", "list": [1]}[how]
    elif how == "negative":
        entries[key] = -1
    elif how == "unknown category":
        entries[key] = k + rng.randint(0, 2)
    elif how == "missing key":
        del entries[key]
    elif how in ("foreign key", "padded key"):
        value = entries.pop(key)
        entries[str(n + rng.randint(0, 2)) if how == "foreign key" else "0" + key] = value
    else:
        for agent in range(n):
            entries[str(agent)] = 0


def _matching_outcome(validate, raw, system):
    """The class and message of the error ``validate`` raises, or the
    matching it returns."""
    try:
        return validate(raw, system)
    except Exception as exc:  # every class counts; the reference is the judge
        return type(exc), str(exc)


def test_matching_validation_equals_reference():
    """On full-key assignments, each spoiled one way or not at all, reading
    by key lookup gives the matching or the error, with its message, that
    the loop over the entries gives."""
    rng = random.Random(3434)
    raised = dict.fromkeys(_MATCHING_CORRUPTIONS, 0)
    for trial in range(1500):
        n, k = rng.randint(1, 12), rng.randint(1, 4)
        system = ReserveSystem(
            n, k, tuple(rng.randint(n // 2, n) for _ in range(k)),
            tuple(PriorityRanking(tuple(rng.sample(range(n), n)), n) for _ in range(k)),
        )
        entries = {str(a): rng.choice([None, *range(k)]) for a in range(n)}
        if rng.random() < 0.5:  # file order is not index order
            entries = dict(rng.sample(sorted(entries.items()), n))
        how = None if trial % 10 == 0 else rng.choice(_MATCHING_CORRUPTIONS)
        if how is not None:
            _corrupt_matching(rng, entries, n, k, how)
        got, want = (
            _matching_outcome(validate, {"assignment": entries}, system)
            for validate in (validate_matching, _validate_matching_reference)
        )
        assert got == want, (trial, how)
        if how is not None:
            raised[how] += isinstance(got, tuple)
    del raised["missing key"]  # it leaves its agent unmatched, which is no error
    assert all(raised.values()), raised


def test_canonical_matching_file_is_read_by_key_lookup(monkeypatch):
    # int() reads each key only on the per-entry loop, so a full-key file
    # that matching_to_json wrote must never reach it
    n = 4000
    rng = random.Random(n)
    system = ReserveSystem(
        n, 3, (n, n, n), tuple(PriorityRanking(tuple(range(n)), n) for _ in range(3))
    )
    matching = Matching(tuple(rng.choice((None, 0, 1, 2)) for _ in range(n)))
    raw = json.loads(matching_to_json(matching))

    def no_int(*args):
        raise AssertionError("the matching was read by the per-entry loop")

    monkeypatch.setattr(model, "int", no_int, raising=False)
    assert validate_matching(raw, system) == matching
    with pytest.raises(AssertionError, match="per-entry loop"):
        validate_matching({"assignment": {"0": 0}}, system)


def test_matching_capacity_enforced(contested_pair):
    text = json.dumps({"assignment": {"0": 0, "1": 0, "2": None}})
    with pytest.raises(InstanceError, match="capacity"):
        parse_matching(text, contested_pair)


def test_matching_helpers(grouped_six):
    matching = Matching((None, 0, None, 1, 2, None))
    assert matching.matched_count() == 3
    assert matching.loads(3) == (1, 1, 1)
    assert matching.beneficiary_count(grouped_six.preferential) == 2


def test_matching_occupants_group_the_matched_agents_by_category():
    rng = random.Random(35)
    for _ in range(500):
        k = rng.randint(0, 5)
        choices = [None, *range(k)]
        matching = Matching(tuple(rng.choice(choices) for _ in range(rng.randint(0, 12))))
        occupants = matching.occupants(k)
        assert len(occupants) == k
        assert all(held == sorted(held) for held in occupants)
        assert sorted(a for held in occupants for a in held) == list(matching.matched_agents())
        assert all(matching.assignment[a] == c for c, held in enumerate(occupants) for a in held)
        assert tuple(map(len, occupants)) == matching.loads(k)
    assert Matching((None, 2, None)).occupants(4) == [[], [], [1], []]


def test_as_sequential_coercion(contested_pair):
    seq = as_sequential(contested_pair)
    assert seq.preferential == frozenset()
    assert seq.precedence.tier_of == (0, 0)
    assert seq.precedence.strict_sequence() == (0, 1)


def test_precedence_order_ties():
    order = PrecedenceOrder((1, 0, 1))
    assert order.strict_sequence() == (1, 0, 2)
    assert order.before(1, 0) and not order.before(0, 2)
    assert not is_strict(order)


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


# ``ReserveSystem.__init__``, ``_validate_instance`` and ``validate_instance``
# as they were with three passes per ranking (``len(set(r))``, ``min``,
# ``max``) and a set-of-types check, kept line for line but for names and
# docstrings: every error they raised, and its message, must stay the same.
class _ReserveSystemReference(ReserveSystem):
    __slots__ = ()

    def __init__(self, num_agents, num_categories, capacities, priorities):
        self._init(num_agents, num_categories, capacities, priorities)
        if len(self.capacities) != self.num_categories:
            raise InstanceError(
                f"expected {self.num_categories} capacities, got {len(self.capacities)}"
            )
        if len(self.priorities) != self.num_categories:
            raise InstanceError(
                f"expected {self.num_categories} rankings, got {len(self.priorities)}"
            )
        for c, q in enumerate(self.capacities):
            if q < 0:
                raise NegativeCapacity(f"category {c} has negative capacity {q}")
        n = self.num_agents
        for c, ranking in enumerate(self.priorities):
            r = ranking.ordered_agents
            if (
                len(r) == n == len(set(r))
                and (n == 0 or (0 <= min(r) and max(r) < n))
                and 0 <= ranking.eligible_cutoff <= n
            ):
                continue
            seen = set()
            for a in ranking.ordered_agents:
                if a in seen:
                    raise DuplicateAgentInRanking(
                        f"agent {a} appears twice in the ranking of category {c}"
                    )
                if not 0 <= a < self.num_agents:
                    raise RankingIncomplete(
                        f"ranking of category {c} names unknown agent {a}"
                    )
                seen.add(a)
            if len(seen) != self.num_agents:
                raise RankingIncomplete(
                    f"ranking of category {c} lists {len(seen)} of "
                    f"{self.num_agents} agents"
                )
            if not 0 <= ranking.eligible_cutoff <= self.num_agents:
                raise InstanceError(
                    f"category {c} cutoff {ranking.eligible_cutoff} out of range"
                )


def _validate_instance_reference(raw):
    try:
        return _validate_instance_body_reference(raw)
    except InstanceError:
        raise
    except KeyError as exc:
        raise InstanceError(f"malformed instance data: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise InstanceError(f"malformed instance data: {exc}") from exc


def _validate_instance_body_reference(raw):
    num_agents = _integer(raw["agents"], "agents")
    categories = _typed(raw["categories"], list, "categories")
    if num_agents < 0:
        raise InstanceError(f"negative agent count {num_agents}")

    num_categories = len(categories)
    ids = sorted(_integer(entry["id"], "category id") for entry in categories)
    if ids != list(range(num_categories)):
        raise InstanceError(
            f"category ids must be exactly 0..{num_categories - 1}, got {ids}"
        )
    by_id = {int(entry["id"]): entry for entry in categories}

    capacities = []
    priorities = []
    for c in range(num_categories):
        entry = by_id[c]
        capacities.append(_integer(entry["capacity"], "capacity", c))
        ranking = _typed(entry["ranking"], list, "ranking", c)
        if set(map(type, ranking)) <= {int}:
            ranking = tuple(ranking)
        else:
            ranking = tuple(_integer(a, "ranking element", c) for a in ranking)
        cutoff = _integer(entry["eligible_cutoff"], "eligible_cutoff", c)
        priorities.append(PriorityRanking(ranking, cutoff))
    base = _ReserveSystemReference(
        num_agents, num_categories, tuple(capacities), tuple(priorities)
    )

    has_pref = "preferential" in raw and raw["preferential"] is not None
    has_tiers = "tiers" in raw and raw["tiers"] is not None
    has_hybrid = raw.get("hybrid") is not None
    if not has_pref and not has_tiers and not has_hybrid:
        return base

    preferential = frozenset(
        _integer(c, "preferential category")
        for c in (_typed(raw["preferential"], list, "preferential") if has_pref else ())
    )
    tiers = _typed(raw["tiers"], list, "tiers") if has_tiers else [0] * num_categories
    if len(tiers) != num_categories:
        raise TierCountMismatch(
            f"expected {num_categories} tiers, got {len(tiers)}"
        )
    hybrid = None
    if has_hybrid:
        marker = _typed(raw["hybrid"], dict, "hybrid")
        hybrid = HybridMarker(
            open_early=frozenset(
                _integer(c, "hybrid category")
                for c in _typed(marker["open_early"], list, "hybrid.open_early")
            ),
            open_late=frozenset(
                _integer(c, "hybrid category")
                for c in _typed(marker["open_late"], list, "hybrid.open_late")
            ),
        )
    return SequentialReserveSystem(
        base=base,
        preferential=preferential,
        precedence=PrecedenceOrder(
            tuple(_integer(t, "tier", c) for c, t in enumerate(tiers))
        ),
        hybrid=hybrid,
    )


_CORRUPTIONS = (
    "true", "float", "string", "duplicate", "negative", "out of range", "short",
    "long", "cutoff",
)


def _corrupt(rng, entry, n, how):
    """Spoil one category entry of an ``n``-agent instance in place, one way."""
    r = entry["ranking"]
    i = rng.randrange(n)
    if how in ("true", "float", "string"):
        r[i] = {"true": True, "float": 1.0, "string": "1"}[how]
    elif how == "duplicate":
        r[i] = r[rng.choice([j for j in range(n) if j != i])]
    elif how == "negative":
        r[i] = -rng.randint(1, 3)
    elif how == "out of range":
        r[i] = n + rng.randint(0, 2)
    elif how == "short":
        del r[i]
    elif how == "long":
        r.insert(i, rng.choice(r + [n]))
    else:
        entry["eligible_cutoff"] = rng.choice([-1, -2, n + 1, n + 3])


def _outcome(build):
    """The class and message of the error ``build()`` raises, or the
    validated system's rankings and capacities."""
    try:
        system = build()
    except Exception as exc:  # every class counts; the reference is the judge
        return type(exc), str(exc)
    return system.priorities, system.capacities


def test_ranking_validation_equals_reference():
    """On dense random rankings, each spoiled one way, validation raises the
    error its three-pass form raised, with the same message; the same holds
    for the ``ReserveSystem`` constructor, except that a string element there
    raises ``TypeError`` from a different comparison (an instance file cannot
    hold one: the element type check comes first)."""
    rng = random.Random(4242)
    raised = dict.fromkeys(_CORRUPTIONS, 0)
    for trial in range(1500):
        n, k = rng.randint(2, 12), rng.randint(1, 4)
        raw = {"agents": n, "categories": []}
        for c in range(k):
            ranking = rng.sample(range(n), n)
            raw["categories"].append(
                {"id": c, "capacity": rng.randint(0, 2), "ranking": ranking,
                 "eligible_cutoff": rng.randint(0, n)}
            )
        how = None if trial % 10 == 0 else rng.choice(_CORRUPTIONS)
        if how is not None:
            _corrupt(rng, raw["categories"][rng.randrange(k)], n, how)
        got = _outcome(lambda: validate_instance(raw))
        assert got == _outcome(lambda: _validate_instance_reference(raw)), (trial, how)
        if how is None:
            assert not isinstance(got[0], type), trial
            continue
        raised[how] += isinstance(got[0], type)
        rankings = tuple(
            PriorityRanking(tuple(e["ranking"]), e["eligible_cutoff"])
            for e in raw["categories"]
        )
        capacities = tuple(e["capacity"] for e in raw["categories"])
        got, want = (
            _outcome(lambda: cls(n, k, capacities, rankings))
            for cls in (ReserveSystem, _ReserveSystemReference)
        )
        if how == "string":
            assert got[0] is want[0] is TypeError, trial
        else:
            assert got == want, (trial, how)
    assert all(raised.values()), raised


def test_records_have_value_semantics():
    """The model types keep the equality, hash, repr and immutability of the
    frozen dataclasses they replace, and survive pickle and copy."""
    ranking = PriorityRanking((1, 0), 1)
    base = ReserveSystem(2, 1, (1,), (ranking,))
    seq = SequentialReserveSystem(
        base, frozenset({0}), PrecedenceOrder((0,)), HybridMarker(frozenset(), frozenset())
    )
    assert repr(Matching((0, None))) == "Matching(assignment=(0, None))"
    assert (
        repr(axioms.AxiomVerdict(axioms.ELIGIBILITY, True))
        == "AxiomVerdict(axiom='eligibility', passed=True, witness=None)"
    )
    assert repr(seq) == (
        "SequentialReserveSystem(base=ReserveSystem(num_agents=2, num_categories=1, "
        "capacities=(1,), priorities=(PriorityRanking(ordered_agents=(1, 0), "
        "eligible_cutoff=1),)), preferential=frozenset({0}), "
        "precedence=PrecedenceOrder(tier_of=(0,)), "
        "hybrid=HybridMarker(open_early=frozenset(), open_late=frozenset()))"
    )
    # equality needs the same class, not just the same field values
    assert Matching((0,)) != PrecedenceOrder((0,))
    assert Matching((0,)) == Matching((0,)) and Matching((0,)) != Matching((None,))
    assert hash(Matching((0, None))) == hash(((0, None),))
    assert hash(ranking) == hash(((1, 0), 1))
    assert hash(seq) == hash((base, seq.preferential, seq.precedence, seq.hybrid))
    ranking.position(0)  # builds the lazy map, which is not a field
    assert ranking == PriorityRanking((1, 0), 1)
    for record in (Matching((0, None)), ranking, base, seq):
        with pytest.raises(AttributeError):
            record.assignment = (1,)
        with pytest.raises(AttributeError):
            del record.assignment
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
    with pytest.raises(AttributeError):
        ranking.eligible_cutoff = 0
    with pytest.raises(AttributeError):
        del seq.hybrid
    assert copy.deepcopy(ranking).position(1) == 0


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
