"""CPU time of a respect-precedence refute, split by the flow layers it runs.

For each size in ``SIZES`` the script builds one instance with
``GeneratorSpec`` (strict tiers, 10 categories, capacity n/20, density 0.3,
preferential fraction 0.4, seed 1), solves it with ``mma`` (untimed), takes b
and m from the seeded dual maximum as ``check`` does (untimed), and then times
``check_respect_precedence`` on the ``mma`` matching, which fails the axiom.
Each call is split into layers, in CPU seconds (``time.process_time``):

* ``build``: ``netflow.build_reserve_network``;
* ``dinic``: ``netflow.feasible_flow`` less the ``_verify`` it runs (the
  residual arrays, the blocking flows and the decode of the edge values);
* ``verify``: ``netflow._verify``;
* ``decode``: ``netflow.flow_to_matching``;
* ``total``: the whole ``check_respect_precedence`` call.

Each side is a label and the ``src`` directory to import ``reservematch``
from. As in ``bench_check.py``, each of ``ROUNDS`` rounds runs each side once
in a fresh interpreter, alternating which goes first; the medians and
quartiles over all rounds, and the ratio of the first side's median total to
each other side's, go to ``--out``:

    python3 tools/bench_precedence.py parent=../parent/src change=src

Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench_check import alternate, summary  # the same rounds and quartiles

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("build", "dinic", "verify", "decode", "total")
SIZES = (2000, 4000, 8000)
SEED = 1
REPEATS = 5  # timed refutes of each size per run
ROUNDS = 10  # runs of each side, alternating which goes first


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


def measure() -> dict:
    from reservematch import axioms, netflow

    spent = dict.fromkeys(LAYERS, 0.0)
    wrapped = {
        "build": "build_reserve_network",
        "dinic": "feasible_flow",
        "verify": "_verify",
        "decode": "flow_to_matching",
    }
    originals = {layer: getattr(netflow, name) for layer, name in wrapped.items()}

    def timer(layer, fn):
        def timed(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.process_time() - start

        return timed

    samples: dict = {}
    for layer, name in wrapped.items():
        setattr(netflow, name, timer(layer, originals[layer]))
    try:
        for n in SIZES:
            system, matching, b, m = _refute_op(n)
            row = samples.setdefault(str(n), {layer: [] for layer in LAYERS})
            for _ in range(REPEATS):
                spent.update(dict.fromkeys(LAYERS, 0.0))
                t0 = time.process_time()
                verdict = axioms.check_respect_precedence(system, matching, b=b, m=m)
                spent["total"] = time.process_time() - t0
                if verdict.passed:
                    raise SystemExit(f"error: the {n}-agent mma matching passed")
                spent["dinic"] -= spent["verify"]  # _verify runs inside feasible_flow
                for layer in LAYERS:
                    row[layer].append(spent[layer])
    finally:
        for layer, name in wrapped.items():
            setattr(netflow, name, originals[layer])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="LABEL=SRC",
                        help="a label and the src directory to import reservematch from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_precedence.json"))
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # child: one run of SRC
    args = parser.parse_args(argv)
    if args.measure:
        sys.path.insert(0, args.measure)
        print(json.dumps(measure()))
        return 0
    if not args.sides or not all("=" in side for side in args.sides):
        parser.error("give at least one LABEL=SRC")

    sides = dict(side.split("=", 1) for side in args.sides)
    samples: dict = {label: {} for label in sides}
    for label, runs in alternate(__file__, sides, ROUNDS).items():
        for run_ in runs:
            for size, layers in run_.items():
                for layer, values in layers.items():
                    samples[label].setdefault(size, {}).setdefault(layer, []).extend(values)
    runs = {
        label: {
            size: {layer: summary(values) for layer, values in layers.items()}
            for size, layers in sizes.items()
        }
        for label, sizes in samples.items()
    }
    first = next(iter(sides))
    report = {
        "settings": {
            "clock": "time.process_time, CPU seconds",
            "instance": "strict tiers, 10 categories, capacity n/20, density 0.3, "
                        f"preferential fraction 0.4, seed {SEED}; the mma matching",
            "repeats_per_run": REPEATS,
            "rounds": ROUNDS,
            "sides": list(sides),
        },
        "runs": runs,
        f"speedup_over_{first}": {
            label: {
                size: round(runs[first][size]["total"]["p50"] / layers["total"]["p50"], 3)
                for size, layers in sizes.items()
            }
            for label, sizes in runs.items()
            if label != first
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for label, sizes in runs.items():
        for size, layers in sizes.items():
            cells = "  ".join(f"{layer}={v['p50']}" for layer, v in layers.items())
            print(f"{label}\t{size}\t{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
