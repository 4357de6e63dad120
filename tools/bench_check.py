"""Per-layer time of ``reservematch check`` on the benchmark's four
workload shapes.

The shapes are ``perfbench/run.py``'s ``WORKLOADS``: for each one the script
builds instances of its spec with the benchmark's generator on fixed seeds,
solves them once (untimed) with its solve arguments, and then times
``check`` in-process on the solve output ("check", expected to pass) and on
a matching known to fail ("refute": the benchmark's tampered output, or the
mma matching where the workload refutes that), with the workload's axioms.
Each call is split into the own times of ``parse_instance``,
``parse_matching``, ``dual_maxima`` (``dual_maximum_matching(seq,
start=matching)``, the b and m that ``check`` certifies), ``hopcroft_karp``
(its ``maximum_matching`` calls, where it recomputes them), ``axioms`` (the
rest of ``axioms.run_checks``, the name-to-checker table ``check`` runs)
and ``rest``; ``hk_passes`` counts the Hopcroft-Karp passes. Each call runs
with the garbage collector paused, as ``cli.main`` runs a command
(``layer_timing.collector_paused``). The driver and its clock are
``layer_timing.py``'s:

    python3 tools/bench_check.py parent=../parent/src change=src
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

import layer_timing

LAYERS = ("parse_instance", "parse_matching", "dual_maxima", "hopcroft_karp", "axioms", "rest",
          "total", "hk_passes")
SEEDS = range(7000, 7004)  # one instance per seed and shape
REPEATS = 5  # timed passes over each shape's ops per run


def _solve(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")


def _ops(cli, wl, work):
    """(kind, instance text, matching text, axiom names, whether every
    verdict passes) per op of the benchmark workload ``wl``."""
    import instances
    import outcheck  # the benchmark's tamper, on plain JSON data
    from reservematch import axioms

    ops = []
    for seed in SEEDS:
        raw = instances.build(wl.spec, seed)
        inst = work / f"{wl.name}-{seed}.json"
        inst.write_text(instances.to_json(raw))
        argv = ["solve", "-i", str(inst), *wl.solve_args]
        if wl.baseline:
            order = random.Random(seed).sample(range(wl.spec.agents), wl.spec.agents)
            argv += ["--baseline", ",".join(map(str, order))]
        solved, refute = work / "solved.json", work / "refute.json"
        _solve(cli, argv + ["-o", str(solved)])
        if wl.refute_mma:
            _solve(cli, ["solve", "-i", str(inst), "--rule", "mma", "-o", str(refute)])
        else:
            assignment = outcheck.read_assignment(solved.read_text(), raw["agents"])
            refute.write_text(outcheck.to_json(outcheck.tamper(raw, assignment)))
        text = inst.read_text()
        names = list(wl.axioms) or axioms.applicable(cli.parse_instance(text))
        ops.append(("check", text, solved.read_text(), names, True))
        ops.append(("refute", text, refute.read_text(), names, False))
    return ops


def _layers() -> dict:
    """The clock's layers: the functions each one times."""
    from reservematch import axioms, cli, rules_sequential

    return {
        "parse_instance": (cli, "parse_instance"),
        "parse_matching": (cli, "parse_matching"),
        "axioms": (axioms, "run_checks"),
        "dual_maxima": (axioms, "dual_maximum_matching"),
        "hopcroft_karp": (rules_sequential, "maximum_matching"),
    }


def measure() -> dict:
    import run  # the benchmark's workloads
    from reservematch import axioms, cli

    with tempfile.TemporaryDirectory() as tmp:
        ops = {name: _ops(cli, wl, Path(tmp)) for name, wl in run.WORKLOADS.items()}

    @layer_timing.collector_paused
    def check(inst_text, match_text, names):
        system = cli.parse_instance(inst_text)
        return axioms.run_checks(system, cli.parse_matching(match_text, system), names)

    clock = layer_timing.LayerClock(_layers())
    samples: dict = {}
    with clock.patched():
        for shape, shape_ops in ops.items():
            for _ in range(REPEATS):
                for kind, inst_text, match_text, names, passes in shape_ops:
                    verdicts, spent = clock.run(check, inst_text, match_text, names)
                    if all(v.passed for v in verdicts) != passes:
                        raise SystemExit(f"error: {shape} {kind} gave the wrong verdict")
                    spent["hk_passes"] = clock.calls["hopcroft_karp"]
                    row = samples.setdefault(shape, {}).setdefault(kind, {})
                    for layer in LAYERS:
                        row.setdefault(layer, []).append(spent[layer])
    return samples


if __name__ == "__main__":
    raise SystemExit(layer_timing.main(__file__, __doc__, "BENCH_check.json", {
        "instance_seeds": f"{SEEDS.start}..{SEEDS.stop - 1}",
        "repeats_per_run": REPEATS,
    }, measure))
