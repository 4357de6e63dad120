"""Domain model: rationing instances, matchings, and their canonical JSON forms.

Agents and categories are dense integer indices (0..n-1). Every category
ranks all agents; a cutoff position splits the ranking into an eligible
prefix and an ineligible tail. A sequential instance adds a set of
preferential-treatment categories and a weak precedence order expressed as
integer tiers (equal tiers are processed simultaneously).

All types are immutable after validation and safe to share across solver
runs. They are ``Record`` classes: plain slotted classes with value
equality, hashing and a field ``repr``, the semantics of a frozen dataclass
without the cost of importing ``dataclasses`` on every start of the CLI.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Any, Mapping, Optional, Union


class InstanceError(ValueError):
    """Instance or matching data failed validation."""


class DuplicateAgentInRanking(InstanceError):
    pass


class RankingIncomplete(InstanceError):
    pass


class NegativeCapacity(InstanceError):
    pass


class UnknownCategoryInPreferential(InstanceError):
    pass


class TierCountMismatch(InstanceError):
    pass


class Record:
    """Base of the immutable value types.

    A subclass names its fields in ``_fields``, in the order of its
    ``__init__`` parameters (pickle and ``copy`` rebuild a record by calling
    the class on its field values), and sets them with ``_init``. Two
    records are equal when they are of the same class and their field values
    are equal; the hash is that of the field-value tuple and the ``repr``
    reads ``Name(field=value, ...)``, as for a frozen dataclass. Fields
    cannot be assigned or deleted after ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values: Any) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class PriorityRanking(Record):
    """A strict total order over all agents plus an eligibility cutoff.

    Agents at positions < ``eligible_cutoff`` are eligible; the relative
    order of agents below the cutoff carries no meaning. Only the eligible
    prefix gets a rank map up front; the map over all agents is built on the
    first ``position`` query for an ineligible agent.
    """

    _fields = ("ordered_agents", "eligible_cutoff")
    __slots__ = _fields + ("_rank", "_full")
    ordered_agents: tuple[int, ...]
    eligible_cutoff: int
    _rank: dict[int, int]
    _full: Optional[dict[int, int]]

    def __init__(self, ordered_agents: tuple[int, ...], eligible_cutoff: int) -> None:
        prefix = ordered_agents[: max(eligible_cutoff, 0)]
        self._init(ordered_agents, eligible_cutoff)
        object.__setattr__(self, "_rank", dict(zip(prefix, range(len(prefix)))))
        object.__setattr__(self, "_full", None)

    def position(self, agent: int) -> int:
        try:
            return self._rank[agent]
        except KeyError:
            pass
        if self._full is None:
            object.__setattr__(
                self, "_full", {a: p for p, a in enumerate(self.ordered_agents)}
            )
        return self._full[agent]

    def is_eligible(self, agent: int) -> bool:
        return agent in self._rank

    def eligible(self) -> tuple[int, ...]:
        """Eligible agents, highest priority first."""
        return self.ordered_agents[: self.eligible_cutoff]

    def eligible_ranks(self) -> Mapping[int, int]:
        """Each eligible agent's index in ``eligible()``, read-only."""
        return MappingProxyType(self._rank)


class ReserveSystem(Record):
    """A basic instance: capacities and one priority ranking per category."""

    __slots__ = _fields = ("num_agents", "num_categories", "capacities", "priorities")
    num_agents: int
    num_categories: int
    capacities: tuple[int, ...]
    priorities: tuple[PriorityRanking, ...]

    def __init__(
        self,
        num_agents: int,
        num_categories: int,
        capacities: tuple[int, ...],
        priorities: tuple[PriorityRanking, ...],
    ) -> None:
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
        everyone = set(range(n))
        for c, ranking in enumerate(self.priorities):
            r = ranking.ordered_agents
            # n entries naming every agent: each agent exactly once
            if len(r) == n and set(r) == everyone and 0 <= ranking.eligible_cutoff <= n:
                continue
            # a bad ranking: rescan it to raise the first error in order
            seen: set[int] = set()
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

    def eligible_agents(self, c: int) -> tuple[int, ...]:
        """Agents eligible for category c, highest priority first."""
        return self.priorities[c].eligible()

    def is_eligible(self, agent: int, c: int) -> bool:
        return self.priorities[c].is_eligible(agent)

    def position(self, c: int, agent: int) -> int:
        return self.priorities[c].position(agent)


class PrecedenceOrder(Record):
    """Tier per category; smaller tiers are processed earlier, ties together."""

    __slots__ = _fields = ("tier_of",)
    tier_of: tuple[int, ...]

    def __init__(self, tier_of: tuple[int, ...]) -> None:
        self._init(tier_of)
        for c, t in enumerate(self.tier_of):
            if t < 0:
                raise InstanceError(f"category {c} has negative tier {t}")

    def before(self, c: int, d: int) -> bool:
        """Strictly earlier tier (the strict relation; ties are incomparable)."""
        return self.tier_of[c] < self.tier_of[d]

    def strict_sequence(self) -> tuple[int, ...]:
        """Processing order: by tier, ties broken by ascending category index."""
        return tuple(
            sorted(range(len(self.tier_of)), key=lambda c: (self.tier_of[c], c))
        )


class HybridMarker(Record):
    """Names the split of open categories into an early and a late block."""

    __slots__ = _fields = ("open_early", "open_late")
    open_early: frozenset[int]
    open_late: frozenset[int]

    def __init__(self, open_early: frozenset[int], open_late: frozenset[int]) -> None:
        self._init(open_early, open_late)


class SequentialReserveSystem(Record):
    """A basic instance plus preferential categories and a precedence order."""

    __slots__ = _fields = ("base", "preferential", "precedence", "hybrid")
    base: ReserveSystem
    preferential: frozenset[int]
    precedence: PrecedenceOrder
    hybrid: Optional[HybridMarker]

    def __init__(
        self,
        base: ReserveSystem,
        preferential: frozenset[int],
        precedence: PrecedenceOrder,
        hybrid: Optional[HybridMarker] = None,
    ) -> None:
        self._init(base, preferential, precedence, hybrid)
        for c in self.preferential:
            if not 0 <= c < self.base.num_categories:
                raise UnknownCategoryInPreferential(
                    f"preferential set names unknown category {c}"
                )
        if len(self.precedence.tier_of) != self.base.num_categories:
            raise TierCountMismatch(
                f"expected {self.base.num_categories} tiers, got "
                f"{len(self.precedence.tier_of)}"
            )
        if self.hybrid is not None:
            opens = self.open_categories()
            if self.hybrid.open_early | self.hybrid.open_late != opens or (
                self.hybrid.open_early & self.hybrid.open_late
            ):
                raise InstanceError("hybrid marker must partition the open categories")

    @property
    def num_agents(self) -> int:
        return self.base.num_agents

    @property
    def num_categories(self) -> int:
        return self.base.num_categories

    @property
    def capacities(self) -> tuple[int, ...]:
        return self.base.capacities

    def is_beneficial(self, c: int) -> bool:
        return c in self.preferential

    def open_categories(self) -> frozenset[int]:
        return frozenset(range(self.num_categories)) - self.preferential


AnySystem = Union[ReserveSystem, SequentialReserveSystem]


def as_sequential(system: AnySystem) -> SequentialReserveSystem:
    """Coerce a basic instance: empty preferential set, all tiers equal."""
    if isinstance(system, SequentialReserveSystem):
        return system
    return SequentialReserveSystem(
        base=system,
        preferential=frozenset(),
        precedence=PrecedenceOrder((0,) * system.num_categories),
    )


def base_of(system: AnySystem) -> ReserveSystem:
    return system.base if isinstance(system, SequentialReserveSystem) else system


class Matching(Record):
    """Partial assignment of agents to categories (None = unmatched)."""

    __slots__ = _fields = ("assignment",)
    assignment: tuple[Optional[int], ...]

    def __init__(self, assignment: tuple[Optional[int], ...]) -> None:
        self._init(assignment)

    def matched_agents(self) -> tuple[int, ...]:
        return tuple(a for a, c in enumerate(self.assignment) if c is not None)

    def matched_count(self) -> int:
        return sum(1 for c in self.assignment if c is not None)

    def loads(self, num_categories: int) -> tuple[int, ...]:
        loads = [0] * num_categories
        for c in self.assignment:
            if c is not None:
                loads[c] += 1
        return tuple(loads)

    def beneficiary_count(self, preferential: frozenset[int]) -> int:
        return sum(1 for c in self.assignment if c is not None and c in preferential)


def check_capacities(matching: Matching, system: AnySystem) -> None:
    base = base_of(system)
    loads = matching.loads(base.num_categories)
    for c, (load, cap) in enumerate(zip(loads, base.capacities)):
        if load > cap:
            raise InstanceError(
                f"category {c} holds {load} agents but has capacity {cap}"
            )


# ---------------------------------------------------------------------------
# Canonical JSON forms


def canonical_json(obj: Any) -> str:
    """Fixed serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _integer(value: Any, what: str, category: Optional[int] = None) -> int:
    """An integer-valued scalar field: a JSON integer. Bools, floats and
    strings are rejected rather than truncated or parsed, so ``1.7``,
    ``true`` and ``"1"`` are all errors."""
    if type(value) is int:
        return value
    where = what if category is None else f"{what} of category {category}"
    raise InstanceError(f"{where} must be an integer, got {value!r}")


def _typed(value: Any, kind: type, what: str, category: Optional[int] = None) -> Any:
    """A field that must be a JSON array (``list``) or object (``dict``):
    any other iterable would be read as its characters or its keys."""
    if type(value) is kind:
        return value
    where = what if category is None else f"{what} of category {category}"
    name = "an array" if kind is list else "an object"
    raise InstanceError(f"{where} must be {name}, got {type(value).__name__}")


def validate_instance(raw: Mapping[str, Any]) -> AnySystem:
    """Validate parsed instance data; returns a sequential instance only when
    the data carries a preferential set, tiers or a hybrid marker. Malformed
    data of any shape raises InstanceError."""
    try:
        return _validate_instance(raw)
    except InstanceError:
        raise
    except KeyError as exc:
        raise InstanceError(f"malformed instance data: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise InstanceError(f"malformed instance data: {exc}") from exc


def _validate_instance(raw: Mapping[str, Any]) -> AnySystem:
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
        if list(map(type, ranking)).count(int) == len(ranking):
            ranking = tuple(ranking)
        else:
            ranking = tuple(_integer(a, "ranking element", c) for a in ranking)
        cutoff = _integer(entry["eligible_cutoff"], "eligible_cutoff", c)
        priorities.append(PriorityRanking(ranking, cutoff))
    base = ReserveSystem(num_agents, num_categories, tuple(capacities), tuple(priorities))

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


def instance_to_raw(system: AnySystem) -> dict[str, Any]:
    base = base_of(system)
    raw: dict[str, Any] = {
        "agents": base.num_agents,
        "categories": [
            {
                "id": c,
                "capacity": base.capacities[c],
                "ranking": list(base.priorities[c].ordered_agents),
                "eligible_cutoff": base.priorities[c].eligible_cutoff,
            }
            for c in range(base.num_categories)
        ],
    }
    if isinstance(system, SequentialReserveSystem):
        raw["preferential"] = sorted(system.preferential)
        raw["tiers"] = list(system.precedence.tier_of)
        if system.hybrid is not None:
            raw["hybrid"] = {
                "open_early": sorted(system.hybrid.open_early),
                "open_late": sorted(system.hybrid.open_late),
            }
    return raw


def _json_data(text: str) -> Any:
    try:
        return json.loads(text)
    except RecursionError:
        raise InstanceError("JSON nested too deeply") from None


def parse_instance(text: str) -> AnySystem:
    return validate_instance(_json_data(text))


def instance_to_json(system: AnySystem) -> str:
    return canonical_json(instance_to_raw(system))


def matching_to_json(matching: Matching) -> str:
    """The ``canonical_json`` of ``{"assignment": {str(a): c for each agent
    a}}``, written directly: the keys sorted as strings ("10" before "2"),
    two-space indent, ``null`` for an unmatched agent and a trailing newline.

    The rows are sorted whole. Each reads ``"key": value`` after the same
    indent, and the closing quote (0x22) sorts below every digit, so a key
    that is a prefix of another ("1", "10") sorts first, as the keys do."""
    assignment = matching.assignment
    if not assignment:
        return '{\n  "assignment": {}\n}\n'
    rows = [
        f'    "{a}": {"null" if c is None else c}' for a, c in enumerate(assignment)
    ]
    rows.sort()
    return '{\n  "assignment": {\n' + ",\n".join(rows) + "\n  }\n}\n"


def validate_matching(raw: Mapping[str, Any], system: AnySystem) -> Matching:
    """Validate parsed matching data against an instance.

    Capacities must be respected; eligibility is deliberately not required
    here (axiom checkers evaluate it). Agents missing from the data are
    unmatched. The key of agent i is ``str(i)`` exactly: any other text
    ``int()`` reads ("01", " 1", "+1") is an error, so no two keys name one
    agent.
    """
    base = base_of(system)
    try:
        entries = _typed(raw["assignment"], dict, "assignment")
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"malformed matching data: {exc}") from exc
    assignment: list[Optional[int]] = [None] * base.num_agents
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
        c = value if type(value) is int else _integer(value, f"category of agent {agent}")
        if not 0 <= c < base.num_categories:
            raise InstanceError(
                f"matching assigns agent {agent} to unknown category {c}"
            )
        assignment[agent] = c
    matching = Matching(tuple(assignment))
    check_capacities(matching, system)
    return matching


def parse_matching(text: str, system: AnySystem) -> Matching:
    return validate_matching(_json_data(text), system)
