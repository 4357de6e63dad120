"""Per-layer CPU time of ``reservematch solve --rule mma`` on the benchmark's
``mma-large`` shape.

The shape is ``perfbench/run.py``'s ``WORKLOADS["mma-large"]``: the script
builds instances of its spec with ``GeneratorSpec`` on fixed seeds and times
``cli.main(["solve", "-i", FILE, "--rule", "mma", "-o", OUT])`` in-process,
stdout captured, as the benchmark runs it. Each call is split into layers,
in CPU seconds (``time.process_time``):

* ``json_load``: ``model._json_data``, the ``json.loads`` of the instance;
* ``validate``: ``model.validate_instance``;
* ``graph_build``: ``bipartite.build_graph`` inside ``mma_allocate``;
* ``hopcroft_karp``: ``bipartite.maximum_matching`` inside ``mma_allocate``;
* ``proposals``: the rest of ``mma_allocate``, its proposal phase;
* ``writer``: ``model.matching_to_json``;
* ``rest``: the rest of the call: the summary, the text report on stdout,
  reading the instance file and writing the output file;
* ``total``: the whole call.

Each side is a label and the ``src`` directory to import ``reservematch``
from. As in ``bench_check.py``, each of ``ROUNDS`` rounds runs each side once
in a fresh interpreter, alternating which goes first; the medians and
quartiles over all rounds, and the ratio of the first side's median of each
layer to each other side's, go to ``--out``:

    python3 tools/bench_solve.py parent=../parent/src change=src

Uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from bench_check import _generator_spec, alternate, summary  # the same shapes and rounds

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "mma-large"
LAYERS = (
    "json_load", "validate", "graph_build", "hopcroft_karp", "proposals", "writer",
    "rest", "total",
)
SEEDS = range(7100, 7104)  # one instance per seed
REPEATS = 5  # timed solves of each instance per run
ROUNDS = 10  # runs of each side, alternating which goes first


def measure(wl) -> dict:
    from reservematch import cli, model, rules_basic

    spent = dict.fromkeys(LAYERS, 0.0)
    # layer -> (module, name); each is looked up in its module at call time
    wrapped = {
        "json_load": (model, "_json_data"),
        "validate": (model, "validate_instance"),
        "graph_build": (rules_basic, "build_graph"),
        "hopcroft_karp": (rules_basic, "maximum_matching"),
        "proposals": (cli, "mma_allocate"),
        "writer": (cli, "matching_to_json"),
    }
    originals = {layer: getattr(module, name) for layer, (module, name) in wrapped.items()}

    def timer(layer, fn):
        def timed(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.process_time() - start

        return timed

    samples = {layer: [] for layer in LAYERS}
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for seed in SEEDS:
            path = Path(tmp) / f"{WORKLOAD}-{seed}.json"
            path.write_text(cli.instance_to_json(_generator_spec(cli, wl.spec, seed).build()))
            files.append(path)
        argv = ["solve", "--rule", "mma", "-o", str(Path(tmp) / "out.json"), "-i"]
        for layer, (module, name) in wrapped.items():
            setattr(module, name, timer(layer, originals[layer]))
        try:
            for _ in range(REPEATS):
                for path in files:
                    spent.update(dict.fromkeys(LAYERS, 0.0))
                    with contextlib.redirect_stdout(io.StringIO()):
                        t0 = time.process_time()
                        code = cli.main(argv + [str(path)])
                        spent["total"] = time.process_time() - t0
                    if code != 0:
                        raise SystemExit(f"error: solve of {path.name} exited {code}")
                    # the graph build and HK run inside mma_allocate
                    spent["proposals"] -= spent["graph_build"] + spent["hopcroft_karp"]
                    spent["rest"] = spent["total"] - sum(
                        spent[layer] for layer in wrapped
                    )
                    for layer in LAYERS:
                        samples[layer].append(spent[layer])
        finally:
            for layer, (module, name) in wrapped.items():
                setattr(module, name, originals[layer])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="LABEL=SRC",
                        help="a label and the src directory to import reservematch from")
    parser.add_argument("--out", default=str(ROOT / "BENCH_solve.json"))
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # child: one run of SRC
    args = parser.parse_args(argv)
    if args.measure:
        sys.path[:0] = [args.measure, str(ROOT / "perfbench")]
        import run  # the benchmark's workloads

        print(json.dumps(measure(run.WORKLOADS[WORKLOAD])))
        return 0
    if not args.sides or not all("=" in side for side in args.sides):
        parser.error("give at least one LABEL=SRC")

    sides = dict(side.split("=", 1) for side in args.sides)
    samples: dict = {label: {layer: [] for layer in LAYERS} for label in sides}
    for label, runs in alternate(__file__, sides, ROUNDS).items():
        for run_ in runs:
            for layer, values in run_.items():
                samples[label][layer].extend(values)
    runs = {
        label: {layer: summary(values) for layer, values in layers.items()}
        for label, layers in samples.items()
    }
    first = next(iter(sides))
    report = {
        "settings": {
            "clock": "time.process_time, CPU seconds",
            "workload": f"perfbench {WORKLOAD}: solve --rule mma -o FILE, in-process",
            "instance_seeds": f"{SEEDS.start}..{SEEDS.stop - 1}",
            "repeats_per_run": REPEATS,
            "rounds": ROUNDS,
            "sides": list(sides),
        },
        "runs": runs,
        f"speedup_over_{first}": {
            label: {
                layer: round(runs[first][layer]["p50"] / v["p50"], 3) if v["p50"] else None
                for layer, v in layers.items()
            }
            for label, layers in runs.items()
            if label != first
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for label, layers in runs.items():
        cells = "  ".join(f"{layer}={v['p50']}" for layer, v in layers.items())
        print(f"{label}\t{cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
