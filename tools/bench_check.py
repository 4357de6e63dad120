"""Per-layer CPU time of ``reservematch check`` on the benchmark's four
workload shapes.

The shapes are ``perfbench/run.py``'s ``WORKLOADS``: for each one the script
builds instances of its spec with ``GeneratorSpec`` on fixed seeds, solves
them once (untimed) with its solve arguments, and then times ``check``
in-process on the solve output ("check", expected to pass) and on a matching
known to fail ("refute": the benchmark's tampered output, or the mma
matching where the workload refutes that), with the workload's axioms. Each
call is split into four layers, in CPU seconds (``time.process_time``):

* ``parse_instance`` and ``parse_matching``;
* ``dual_maxima``: ``dual_maximum_matching(seq, start=matching)``, the b and m
  that ``check`` certifies, or recomputes with Hopcroft-Karp;
* ``axioms``: the rest of ``cli.run_checks``;

and it counts the Hopcroft-Karp passes (``maximum_matching`` calls) inside
``dual_maxima``.

Each side is a label and the ``src`` directory to import ``reservematch``
from. Each of ``ROUNDS`` rounds runs each side once in a fresh interpreter,
alternating which goes first, so that two checkouts share the machine's slow
and fast stretches; the medians and quartiles over all rounds go to
``--out``:

    python3 tools/bench_check.py parent=../parent/src change=src

Uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("parse_instance", "parse_matching", "dual_maxima", "axioms", "total")
SEEDS = range(7000, 7004)  # one instance per seed and shape
REPEATS = 5  # timed passes over each shape's ops per run
ROUNDS = 10  # runs of each side, alternating which goes first


def _generator_spec(cli, spec, seed: int):
    """``GeneratorSpec`` of a benchmark ``InstanceSpec``."""
    return cli.GeneratorSpec(
        num_agents=spec.agents,
        num_categories=spec.categories,
        capacity=f"const:{spec.capacity}",
        density=spec.density,
        preferential_fraction=spec.preferential_fraction,
        tier_scheme=spec.tiers,
        seed=seed,
    )


def _solve(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")


def _ops(cli, wl, work):
    """(kind, instance text, matching text, axiom names, whether every
    verdict passes) per op of the benchmark workload ``wl``."""
    import outcheck  # the benchmark's tamper, on plain JSON data

    ops = []
    for seed in SEEDS:
        system = _generator_spec(cli, wl.spec, seed).build()
        inst = work / f"{wl.name}-{seed}.json"
        inst.write_text(cli.instance_to_json(system))
        argv = ["solve", "-i", str(inst), *wl.solve_args]
        if wl.baseline:
            order = random.Random(seed).sample(range(system.num_agents), system.num_agents)
            argv += ["--baseline", ",".join(map(str, order))]
        solved, refute = work / "solved.json", work / "refute.json"
        _solve(cli, argv + ["-o", str(solved)])
        if wl.refute_mma:
            _solve(cli, ["solve", "-i", str(inst), "--rule", "mma", "-o", str(refute)])
        else:
            raw = json.loads(inst.read_text())
            assignment = outcheck.read_assignment(solved.read_text(), raw["agents"])
            refute.write_text(outcheck.to_json(outcheck.tamper(raw, assignment)))
        text = inst.read_text()
        axioms = list(wl.axioms) or cli._applicable_axioms(system)
        ops.append(("check", text, solved.read_text(), axioms, True))
        ops.append(("refute", text, refute.read_text(), axioms, False))
    return ops


def measure(wl) -> dict:
    from reservematch import cli, rules_sequential

    with tempfile.TemporaryDirectory() as tmp:
        ops = _ops(cli, wl, Path(tmp))
    spent = {"dual_maxima": 0.0, "hk": 0}
    dual, hk = cli.dual_maximum_matching, rules_sequential.maximum_matching

    def timed_dual(*args, **kwargs):
        start = time.process_time()
        try:
            return dual(*args, **kwargs)
        finally:
            spent["dual_maxima"] += time.process_time() - start

    def counted_hk(*args, **kwargs):
        spent["hk"] += 1
        return hk(*args, **kwargs)

    cli.dual_maximum_matching = timed_dual
    rules_sequential.maximum_matching = counted_hk
    samples: dict = {}
    try:
        for _ in range(REPEATS):
            for kind, inst_text, match_text, names, passes in ops:
                spent.update(dual_maxima=0.0, hk=0)
                t0 = time.process_time()
                system = cli.parse_instance(inst_text)
                t1 = time.process_time()
                matching = cli.parse_matching(match_text, system)
                t2 = time.process_time()
                verdicts = cli.run_checks(system, matching, names)
                t3 = time.process_time()
                if all(v.passed for v in verdicts) != passes:
                    raise SystemExit(f"error: {wl.name} {kind} gave the wrong verdict")
                row = samples.setdefault(kind, {name: [] for name in LAYERS + ("hk_passes",)})
                row["parse_instance"].append(t1 - t0)
                row["parse_matching"].append(t2 - t1)
                row["dual_maxima"].append(spent["dual_maxima"])
                row["axioms"].append(t3 - t2 - spent["dual_maxima"])
                row["total"].append(t3 - t0)
                row["hk_passes"].append(spent["hk"])
    finally:
        cli.dual_maximum_matching, rules_sequential.maximum_matching = dual, hk
    return samples


def summary(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "p25": round(q1, 6), "p50": round(median, 6),
            "p75": round(q3, 6)}


def alternate(script: str, sides: dict, rounds: int) -> dict:
    """Each label's child outputs, one per round. A round runs ``script
    --measure SRC`` once per side in a fresh interpreter, alternating which
    side goes first, and parses the JSON it prints."""
    outputs: dict = {label: [] for label in sides}
    for round_ in range(rounds):
        order = list(sides) if round_ % 2 == 0 else list(reversed(sides))
        for label in order:
            done = subprocess.run(
                [sys.executable, script, "--measure", sides[label]],
                check=True, capture_output=True, text=True,
            )
            outputs[label].append(json.loads(done.stdout))
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="LABEL=SRC",
                        help="a label and the src directory to import reservematch from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_check.json"))
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # child: one run of SRC
    args = parser.parse_args(argv)
    if args.measure:
        sys.path[:0] = [args.measure, str(ROOT / "perfbench")]
        import run  # the benchmark's workloads

        print(json.dumps({name: measure(wl) for name, wl in run.WORKLOADS.items()}))
        return 0
    if not args.sides or not all("=" in side for side in args.sides):
        parser.error("give at least one LABEL=SRC")

    sides = dict(side.split("=", 1) for side in args.sides)
    samples: dict = {label: {} for label in sides}
    for label, runs in alternate(__file__, sides, ROUNDS).items():
        for run_ in runs:
            for shape, kinds in run_.items():
                for kind, layers in kinds.items():
                    for layer, values in layers.items():
                        stored = samples[label].setdefault(shape, {}).setdefault(kind, {})
                        stored.setdefault(layer, []).extend(values)
    report = {
        "settings": {
            "clock": "time.process_time, CPU seconds",
            "instance_seeds": f"{SEEDS.start}..{SEEDS.stop - 1}",
            "repeats_per_run": REPEATS,
            "rounds": ROUNDS,
            "sides": list(sides),
        },
        "runs": {
            label: {
                shape: {
                    kind: {layer: summary(values) for layer, values in layers.items()}
                    for kind, layers in kinds.items()
                }
                for shape, kinds in shapes.items()
            }
            for label, shapes in samples.items()
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for label, shapes in report["runs"].items():
        for shape, kinds in shapes.items():
            for kind, layers in kinds.items():
                cells = "  ".join(f"{layer}={v['p50']}" for layer, v in layers.items())
                print(f"{label}\t{shape}\t{kind}\t{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
