"""Per-layer time of ``reservematch solve --rule mma`` on the benchmark's
``mma-large`` shape.

The shape is ``perfbench/run.py``'s ``WORKLOADS["mma-large"]``: the script
builds instances of its spec with the benchmark's generator on fixed seeds
and times ``cli.main(["solve", "-i", FILE, "--rule", "mma", "-o", OUT])``
in-process, stdout captured, as the benchmark runs it. Each call is split
into ``json_load`` (``model._json_data``), ``validate``
(``model.validate_instance``), ``graph_build`` and ``hopcroft_karp``
(``bipartite.build_graph`` and ``maximum_matching`` inside ``mma_allocate``),
``proposals`` (the rest of ``mma_allocate``), ``writer``
(``model.matching_to_json``) and ``rest`` (the summary, the text report and
the file I/O). The driver and its clock are ``layer_timing.py``'s:

    python3 tools/bench_solve.py parent=../parent/src change=src
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import layer_timing

WORKLOAD = "mma-large"
LAYERS = (
    "json_load", "validate", "graph_build", "hopcroft_karp", "proposals", "writer",
    "rest", "total",
)
SEEDS = range(7100, 7104)  # one instance per seed
REPEATS = 5  # timed solves of each instance per run


def measure() -> dict:
    import instances
    import run  # the benchmark's workloads
    from reservematch import cli, model, rules_basic

    clock = layer_timing.LayerClock({
        "json_load": (model, "_json_data"),
        "validate": (model, "validate_instance"),
        "graph_build": (rules_basic, "build_graph"),
        "hopcroft_karp": (rules_basic, "maximum_matching"),
        "proposals": (cli, "mma_allocate"),
        "writer": (cli, "matching_to_json"),
    })
    samples = {layer: [] for layer in LAYERS}
    with tempfile.TemporaryDirectory() as tmp:
        files = [Path(tmp) / f"{WORKLOAD}-{seed}.json" for seed in SEEDS]
        for path, seed in zip(files, SEEDS):
            path.write_text(instances.to_json(instances.build(run.WORKLOADS[WORKLOAD].spec, seed)))
        argv = ["solve", "--rule", "mma", "-o", str(Path(tmp) / "out.json"), "-i"]
        with clock.patched():
            for _ in range(REPEATS):
                for path in files:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code, spent = clock.run(cli.main, argv + [str(path)])
                    if code != 0:
                        raise SystemExit(f"error: solve of {path.name} exited {code}")
                    # the graph build and HK run inside mma_allocate
                    spent["proposals"] -= spent["graph_build"] + spent["hopcroft_karp"]
                    spent["rest"] = spent["total"] - sum(spent[layer] for layer in clock.layers)
                    for layer in LAYERS:
                        samples[layer].append(spent[layer])
    return samples


if __name__ == "__main__":
    raise SystemExit(layer_timing.main(__file__, __doc__, "BENCH_solve.json", {
        "workload": f"perfbench {WORKLOAD}: solve --rule mma -o FILE, in-process",
        "instance_seeds": f"{SEEDS.start}..{SEEDS.stop - 1}",
        "repeats_per_run": REPEATS,
    }, measure))
