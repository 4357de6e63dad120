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
* ``scu-large``: ``scu_start`` (``scu_state_init`` without the graph build,
  its own quotient searches included), ``quotient_search`` (the steps'
  ``rules_sequential._quotient_path`` calls), ``invariants``
  (``_check_state``) and ``steps`` (the rest of ``scu_allocate``).

Every timed call adds its timer's own cost, ``settings.timer_overhead``, to
the op; ``timed_calls`` counts the calls of the per-step layers. The driver
and its clock are ``layer_timing.py``'s:

    python3 tools/bench_solve.py parent=../parent/src change=src
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
import types
from pathlib import Path

import layer_timing

LAYERS = {
    "mma-large": (
        "json_load", "validate", "graph_build", "hopcroft_karp", "proposals", "writer",
        "rest", "total",
    ),
    "scu-large": (
        "json_load", "validate", "graph_build", "scu_start", "quotient_search", "invariants",
        "steps", "writer", "rest", "total",
    ),
}
PER_STEP = ("quotient_search", "invariants")  # layers timed once per scu step
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
        "scu_start": (rules_sequential, "scu_state_init"),
        "quotient_search": (rules_sequential, "_quotient_path"),
        "invariants": (rules_sequential, "_check_state"),
        "steps": (cli, "scu_allocate"),
    }


@contextlib.contextmanager
def _start_searches_untimed(search):
    """Run ``scu_state_init`` with the untimed ``search``, so that the
    start's own quotient searches stay in ``scu_start``."""
    from reservematch import rules_sequential

    timed_start = rules_sequential.scu_state_init

    def start(system):
        timed_search = rules_sequential._quotient_path
        rules_sequential._quotient_path = search
        try:
            return timed_start(system)
        finally:
            rules_sequential._quotient_path = timed_search

    rules_sequential.scu_state_init = start
    try:
        yield
    finally:
        rules_sequential.scu_state_init = timed_start


def measure() -> dict:
    import instances
    import run  # the benchmark's workloads
    from reservematch import cli, rules_sequential

    samples: dict = {workload: {layer: [] for layer in layers}
                     for workload, layers in LAYERS.items()}
    samples["timed_calls"] = {"scu-large": {layer: [] for layer in PER_STEP}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, layers in LAYERS.items():
            spec = run.WORKLOADS[workload]
            files = [Path(tmp) / f"{workload}-{seed}.json" for seed in SEEDS]
            for path, seed in zip(files, SEEDS):
                path.write_text(instances.to_json(instances.build(spec.spec, seed)))
            argv = ["solve", *spec.solve_args, "-o", str(Path(tmp) / "out.json"), "-i"]
            clock = layer_timing.LayerClock(_layers(workload))
            search = rules_sequential._quotient_path
            with clock.patched(), _start_searches_untimed(search):
                for _ in range(REPEATS):
                    for path in files:
                        with contextlib.redirect_stdout(io.StringIO()):
                            code, spent = clock.run(cli.main, argv + [str(path)])
                        if code != 0:
                            raise SystemExit(f"error: solve of {path.name} exited {code}")
                        for layer in layers:
                            samples[workload][layer].append(spent[layer])
                        for layer, counts in samples["timed_calls"].get(workload, {}).items():
                            counts.append(clock.calls[layer])
    return samples


def timer_overhead(calls: int = 20000) -> str:
    """The CPU time one timed call adds: a ``LayerClock`` timer around a
    no-op against the bare no-op, over ``calls`` calls of each."""
    target = types.SimpleNamespace(noop=lambda: None)

    def cpu_seconds() -> float:
        noop, start = target.noop, time.process_time()
        for _ in range(calls):
            noop()
        return time.process_time() - start

    bare = cpu_seconds()
    with layer_timing.LayerClock({"noop": (target, "noop")}).patched():
        timed = cpu_seconds()
    per_call_us = max(timed - bare, 0.0) / calls * 1e6
    return f"{per_call_us:.2f} CPU microseconds per timed call, over {calls} no-op calls"


if __name__ == "__main__":
    raise SystemExit(layer_timing.main(__file__, __doc__, "BENCH_solve.json", {
        "workloads": {
            "mma-large": "perfbench mma-large: solve --rule mma -o FILE, in-process",
            "scu-large": "perfbench scu-large: solve --rule scu --impl bipartite -o FILE, "
                         "in-process",
        },
        "instance_seeds": f"{SEEDS.start}..{SEEDS.stop - 1}",
        "repeats_per_run": REPEATS,
        "timer_overhead": timer_overhead(),
    }, measure))
