"""Per-layer time of the benchmark's ops: ``solve``, ``check`` and
``refute`` on each of ``perfbench/run.py``'s ``WORKLOADS``.

For each workload the script builds instances of its spec with the
benchmark's generator on fixed seeds and times each op in-process as
``cli.main(argv)``, stdout captured, with the benchmark's own arguments: the
workload's solve arguments (and a seeded ``--baseline`` for ``rev``); a
``check`` of the solve output with the workload's ``--axiom`` names, which
must exit 0; and the ``refute``, the same check of a matching known to fail
(the ``mma`` matching, or the benchmark's tampered solve output, both made
untimed), which must exit 1.

Each op is split into the own times (``layer_timing.LayerClock``) of one
layer map per kind, and ``rest``: the file reads and writes, the argument
parsing and the report. A solve's map is its rule's: ``json_load``
(``model._json_data``), ``validate`` (``model.validate_instance``),
``graph_build`` (``build_graph``), the rule's phases and ``writer``
(``model.matching_to_json``). The phases are ``hopcroft_karp``
(``maximum_matching``) and the rest of ``mma_allocate`` (``proposals``) or
of ``rev_allocate`` (``rejections``); or, for ``scu``, ``scu_start``
(``SCUState.__init__`` without the graph build) and ``steps`` (the rest of
``scu_allocate``, the step searches and invariant checks included). A
check's and a refute's map is ``parse_instance``, ``parse_matching``,
``dual_maxima`` (``dual_maximum_matching(seq, start=matching)``, the b and m
that ``check`` certifies) and ``axioms`` (the rest of ``axioms.run_checks``,
the name-to-checker table ``check`` runs).

Each layer is a phase, entered at most twice per op: a timed call costs
about a microsecond or two, so a layer timed per step would skew the split
it reports. ``cli.main`` pauses the garbage collector for the command
itself, so this timer adds no pause. The driver and its clock are
``layer_timing.py``'s:

    python3 tools/bench_ops.py parent=../parent/src change=src
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from pathlib import Path

import layer_timing

MAPS = ("mma", "rev", "scu", "check")  # each rule's solve map, and check's
EXIT = {"solve": 0, "check": 0, "refute": 1}  # the exit code each kind of op must give
SEEDS = range(7000, 7004)  # one instance per seed and workload
REPEATS = 5  # timed passes over each workload's ops per run


def map_name(workload: str, kind: str) -> str:
    """The layer map of ``kind`` on ``workload``: a solve's is its rule's."""
    import run

    args = run.WORKLOADS[workload].solve_args
    return args[args.index("--rule") + 1] if kind == "solve" else "check"


def _layers(name: str) -> dict:
    """The clock's layers of the map ``name``: the functions each one times."""
    from reservematch import axioms, cli, model, rules_basic, rules_sequential

    if name == "check":
        return {
            "parse_instance": (cli, "parse_instance"),
            "parse_matching": (cli, "parse_matching"),
            "dual_maxima": (axioms, "dual_maximum_matching"),
            "axioms": (axioms, "run_checks"),
        }
    if name == "scu":
        graph, phases = rules_sequential, {
            "scu_start": (rules_sequential.SCUState, "__init__"),
            "steps": (cli, "scu_allocate"),
        }
    else:
        graph, phases = rules_basic, {
            "hopcroft_karp": (rules_basic, "maximum_matching"),
            {"mma": "proposals", "rev": "rejections"}[name]: (cli, f"{name}_allocate"),
        }
    return {
        "json_load": (model, "_json_data"),
        "validate": (model, "validate_instance"),
        "graph_build": (graph, "build_graph"),
        **phases,
        "writer": (cli, "matching_to_json"),
    }


def _solve(cli, argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")


def _ops(cli, wl, seed: int, work: Path) -> list:
    """(kind, argv) of each op on the ``seed`` instance of the benchmark
    workload ``wl``, in the order the benchmark runs them."""
    import instances
    import outcheck  # the benchmark's tamper, on plain JSON data

    raw = instances.build(wl.spec, seed)
    inst = work / f"{wl.name}-{seed}.json"
    inst.write_text(instances.to_json(raw))
    solved, refute = inst.with_suffix(".out"), inst.with_suffix(".refute")
    solve = ["solve", "-i", str(inst), "-o", str(solved), *wl.solve_args]
    if wl.baseline:
        order = list(range(wl.spec.agents))
        random.Random(f"baseline/{seed}").shuffle(order)
        solve += ["--baseline", ",".join(map(str, order))]
    _solve(cli, solve)
    if wl.refute_mma:
        _solve(cli, ["solve", "-i", str(inst), "--rule", "mma", "-o", str(refute)])
    else:
        assignment = outcheck.read_assignment(solved.read_text(), raw["agents"])
        refute.write_text(outcheck.to_json(outcheck.tamper(raw, assignment)))
    axiom_args = [arg for name in wl.axioms for arg in ("--axiom", name)]
    check = ["--format", "json", "check", "-i", str(inst), *axiom_args, "-m"]
    return [("solve", solve), ("check", check + [str(solved)]), ("refute", check + [str(refute)])]


def measure() -> dict:
    import run  # the benchmark's workloads
    from reservematch import cli

    clocks = {name: layer_timing.LayerClock(_layers(name)) for name in MAPS}
    samples: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, wl in run.WORKLOADS.items():
            ops = [op for seed in SEEDS for op in _ops(cli, wl, seed, Path(tmp))]
            for _ in range(REPEATS):
                for kind, argv in ops:
                    stdout = contextlib.redirect_stdout(io.StringIO())
                    with clocks[map_name(workload, kind)].patched() as clock, stdout:
                        code, spent = clock.run(cli.main, argv)
                    if code != EXIT[kind]:
                        raise SystemExit(f"error: {workload} {kind} exited {code}")
                    row = samples.setdefault(workload, {}).setdefault(kind, {})
                    for layer, seconds in spent.items():
                        row.setdefault(layer, []).append(seconds)
    return samples


if __name__ == "__main__":
    raise SystemExit(layer_timing.main(__file__, __doc__, "BENCH_ops.json", {
        "ops": "perfbench/run.py's solve, check and refute on each workload: "
               "cli.main in-process, with perfbench's arguments",
        "instance_seeds": f"{SEEDS.start}..{SEEDS.stop - 1}",
        "repeats_per_run": REPEATS,
    }, measure))
