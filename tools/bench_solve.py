"""Per-layer time of ``reservematch solve`` on the benchmark's ``mma-large``
and ``scu-large`` shapes.

The shapes are ``perfbench/run.py``'s ``WORKLOADS``: the script builds
instances of each spec with the benchmark's generator on fixed seeds and
times ``cli.main(["solve", *SOLVE_ARGS, "-o", OUT, "-i", FILE])``
in-process, stdout captured, with the workload's own solve arguments
(``--rule mma``; ``--rule scu --impl bipartite``), as the benchmark runs it.
Both split each call into the own times (``layer_timing.LayerClock``) of
``json_load`` (``model._json_data``), ``validate``
(``model.validate_instance``), ``graph_build`` (``build_graph``),
``writer`` (``model.matching_to_json``) and ``rest`` (the summary, the
text report and the file I/O). The rule's own part is

* ``mma-large``: ``hopcroft_karp`` (``maximum_matching`` inside
  ``mma_allocate``) and ``proposals`` (the rest of ``mma_allocate``);
* ``scu-large``: ``scu_start`` (``SCUState.__init__`` without the graph
  build) and ``steps`` (the rest of ``scu_allocate``: the step searches and
  the invariant checks included).

Each layer is a phase that runs once per solve. A timed call costs about a
microsecond or two, and a layer timed per step would add that hundreds of
times per solve, enough to skew the split it reports.
``cli.main`` pauses the garbage collector for the command itself, so this
timer adds no pause. The driver and its clock are ``layer_timing.py``'s:

    python3 tools/bench_solve.py parent=../parent/src change=src
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import layer_timing

LAYERS = {
    "mma-large": (
        "json_load", "validate", "graph_build", "hopcroft_karp", "proposals", "writer",
        "rest", "total",
    ),
    "scu-large": (
        "json_load", "validate", "graph_build", "scu_start", "steps", "writer", "rest", "total",
    ),
}
SEEDS = range(7100, 7104)  # one instance per seed and workload
REPEATS = 5  # timed solves of each instance per run


def _layers(workload: str) -> dict:
    """The clock's layers of ``workload`` beside the shared ones."""
    from reservematch import cli, model, rules_basic, rules_sequential

    shared = {
        "json_load": (model, "_json_data"),
        "validate": (model, "validate_instance"),
        "writer": (cli, "matching_to_json"),
    }
    if workload == "mma-large":
        return {
            **shared,
            "graph_build": (rules_basic, "build_graph"),
            "hopcroft_karp": (rules_basic, "maximum_matching"),
            "proposals": (cli, "mma_allocate"),
        }
    return {
        **shared,
        "graph_build": (rules_sequential, "build_graph"),
        "scu_start": (rules_sequential.SCUState, "__init__"),
        "steps": (cli, "scu_allocate"),
    }


def measure() -> dict:
    import instances
    import run  # the benchmark's workloads
    from reservematch import cli

    samples: dict = {workload: {layer: [] for layer in layers}
                     for workload, layers in LAYERS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, layers in LAYERS.items():
            spec = run.WORKLOADS[workload]
            files = [Path(tmp) / f"{workload}-{seed}.json" for seed in SEEDS]
            for path, seed in zip(files, SEEDS):
                path.write_text(instances.to_json(instances.build(spec.spec, seed)))
            argv = ["solve", *spec.solve_args, "-o", str(Path(tmp) / "out.json"), "-i"]
            clock = layer_timing.LayerClock(_layers(workload))
            with clock.patched():
                for _ in range(REPEATS):
                    for path in files:
                        with contextlib.redirect_stdout(io.StringIO()):
                            code, spent = clock.run(cli.main, argv + [str(path)])
                        if code != 0:
                            raise SystemExit(f"error: solve of {path.name} exited {code}")
                        for layer in layers:
                            samples[workload][layer].append(spent[layer])
    return samples


if __name__ == "__main__":
    raise SystemExit(layer_timing.main(__file__, __doc__, "BENCH_solve.json", {
        "workloads": {
            "mma-large": "perfbench mma-large: solve --rule mma -o FILE, in-process",
            "scu-large": "perfbench scu-large: solve --rule scu --impl bipartite -o FILE, "
                         "in-process",
        },
        "instance_seeds": f"{SEEDS.start}..{SEEDS.stop - 1}",
        "repeats_per_run": REPEATS,
    }, measure))
