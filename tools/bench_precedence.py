"""Time of a respect-precedence refute, split by the flow layers it runs.

For each size in ``SIZES`` the script builds one instance with
``GeneratorSpec`` (strict tiers, 10 categories, capacity n/20, density 0.3,
preferential fraction 0.4, seed 1), solves it with ``mma`` (untimed), takes b
and m from the seeded dual maximum as ``check`` does (untimed), and then times
``check_respect_precedence`` on the ``mma`` matching, which fails the axiom.
Each call is split into the own times of the flow layers it runs:

* ``build``: the full reserve network (``netflow.build_reserve_network``);
* ``transform``: ``netflow.feasible_flow`` outside the three layers it
  calls: the circulation transform, its excess and supernode arcs, and the
  edge values read back from the residual capacities;
* ``residual``: the residual arcs and their adjacency
  (``netflow._Residual.__init__``);
* ``dinic``: the blocking flows (``netflow._Dinic.max_flow``);
* ``verify``: the check of every bound and of conservation
  (``netflow._verify``);
* ``decode``: the matching read from the flow (``netflow.flow_to_matching``);
* ``rest``: the rest of the call: the axiom's flags, pins and witness, and
  the pins set on the network.

The driver and its clock are ``layer_timing.py``'s:

    python3 tools/bench_precedence.py parent=../parent/src change=src
"""

from __future__ import annotations

import layer_timing

LAYERS = ("build", "transform", "residual", "dinic", "verify", "decode", "rest", "total")
SIZES = (2000, 4000, 8000, 32000, 100000)
SEED = 1
REPEATS = 5  # timed refutes of each size per run


def _refute_op(n: int):
    """(system, mma matching, b, m) of the ``n``-agent instance."""
    from reservematch.cli import GeneratorSpec
    from reservematch.model import as_sequential
    from reservematch.rules_basic import mma_allocate
    from reservematch.rules_sequential import dual_maximum_matching

    system = GeneratorSpec(
        num_agents=n,
        num_categories=10,
        capacity=f"const:{n // 20}",
        density=0.3,
        preferential_fraction=0.4,
        tier_scheme="strict",
        seed=SEED,
    ).build()
    matching = mma_allocate(as_sequential(system).base)[0]
    _, b, m = dual_maximum_matching(as_sequential(system), start=matching)
    return system, matching, b, m


def _layers() -> dict:
    """The clock's layers: the functions each one times."""
    from reservematch import netflow

    return {
        "build": (netflow, "build_reserve_network"),
        "transform": (netflow, "feasible_flow"),
        "residual": (netflow._Residual, "__init__"),
        "dinic": (netflow._Dinic, "max_flow"),
        "verify": (netflow, "_verify"),
        "decode": (netflow, "flow_to_matching"),
    }


def measure() -> dict:
    from reservematch import axioms

    clock = layer_timing.LayerClock(_layers())
    samples: dict = {}
    for n in SIZES:
        system, matching, b, m = _refute_op(n)
        row = samples[str(n)] = {layer: [] for layer in LAYERS}
        with clock.patched():
            for _ in range(REPEATS):
                verdict, spent = clock.run(
                    axioms.check_respect_precedence, system, matching, b=b, m=m
                )
                if verdict.passed:
                    raise SystemExit(f"error: the {n}-agent mma matching passed")
                for layer in LAYERS:
                    row[layer].append(spent[layer])
    return samples


if __name__ == "__main__":
    raise SystemExit(layer_timing.main(__file__, __doc__, "BENCH_precedence.json", {
        "instance": "strict tiers, 10 categories, capacity n/20, density 0.3, "
                    f"preferential fraction 0.4, seed {SEED}; the mma matching",
        "repeats_per_run": REPEATS,
    }, measure))
