"""Seeded instance generator owned by the benchmark.

This is a copy of the sampling logic of ``reservematch.cli.GeneratorSpec``,
less its correlated-rankings option, which no workload uses. It is kept
here on purpose: the benchmark's inputs must not change when a later change
edits the program's own generator. It builds the instance as plain JSON
data and imports nothing from ``reservematch``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class InstanceSpec:
    """Instance shape; the fields mean what ``GeneratorSpec``'s do."""

    agents: int
    categories: int
    capacity: int
    density: float
    preferential_fraction: float = 0.0
    tiers: str = "equal"


def build(spec: InstanceSpec, seed: int) -> dict[str, Any]:
    """The instance as its JSON data; the same spec and seed give the same data."""
    rng = random.Random(seed)
    n, ncat = spec.agents, spec.categories
    # GeneratorSpec draws a base order for correlated rankings first; drawing
    # it here too keeps the random stream, and so the instances, the same.
    rng.shuffle(list(range(n)))
    categories = []
    for c in range(ncat):
        order = list(range(n))
        rng.shuffle(order)
        cutoff = sum(1 for _ in range(n) if rng.random() < spec.density)
        categories.append(
            {"id": c, "capacity": spec.capacity, "ranking": order, "eligible_cutoff": cutoff}
        )
    raw: dict[str, Any] = {"agents": n, "categories": categories}

    pref_count = round(spec.preferential_fraction * ncat)
    if pref_count == 0 and spec.tiers == "equal":
        return raw
    preferential = rng.sample(range(ncat), pref_count)
    if spec.tiers == "equal":
        tiers = [0] * ncat
    elif spec.tiers == "strict":
        tiers = list(range(ncat))
        rng.shuffle(tiers)
    elif spec.tiers.startswith("random:"):
        k = int(spec.tiers.split(":", 1)[1])
        tiers = [rng.randrange(max(1, k)) for _ in range(ncat)]
    else:
        raise ValueError(f"unknown tier scheme {spec.tiers!r}")
    raw["preferential"] = sorted(preferential)
    raw["tiers"] = tiers
    return raw


def to_json(raw: dict[str, Any]) -> str:
    """Canonical instance text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"
