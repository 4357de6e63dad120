"""The driver of the ``tools/bench_*.py`` layer timers.

Each timer script defines ``measure()``: one run of its ops in the current
interpreter, returning nested dicts whose innermost values are lists of
samples, one per op, keyed by layer. Its command line is this module's
``main``:

    python3 tools/bench_<topic>.py parent=../parent/src change=src [--out FILE]

Each side is a label and the ``src`` directory to import ``reservematch``
from. Each of ``ROUNDS`` rounds runs ``measure()`` once per side in a fresh
interpreter, alternating which side goes first, so that two checkouts share
the machine's slow and fast stretches. The quartiles of every layer over all
rounds, and the ratio of the first side's median to each other side's
(``speedup_over_<first>``), go to ``--out``; the medians are printed.

Times are in reference seconds (``perfbench/calib.py``): the CPU seconds of
each layer of an op, scaled by the calibration kernel run just before and
just after that op, as ``perfbench/run.py`` scales each call. The speed of a
CPU second on a shared virtual machine swings about 2x for seconds at a
time; the scaling cancels most of that.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))  # calib, and the scripts' run and instances

import calib  # noqa: E402

ROUNDS = 10  # runs of each side, alternating which goes first
CLOCK = (
    "reference seconds: CPU seconds scaled by perfbench/calib.py's kernel, "
    "run just before and just after each op"
)


def collector_paused(op):
    """``op`` with the garbage collector paused for each call and the
    caller's setting restored after, as ``reservematch.cli.main`` runs each
    command: a timer of library calls runs its ops this way, so that it
    times them as the command line runs them."""

    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return op(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


class LayerClock:
    """Times ops layer by layer. ``layers`` maps a layer to the (module,
    attribute name) of the function it times; inside ``patched()`` each such
    attribute is a timer around the function, so callers that look it up in
    its module at call time are timed. A layer's time is its own: a timed
    call's time less that of the timed calls made inside it."""

    def __init__(self, layers: dict):
        self.layers = layers
        self.spent = dict.fromkeys(layers, 0.0)
        self.calls = dict.fromkeys(layers, 0)
        self._covered = 0.0  # the op's time so far inside timed calls, nested ones once

    @contextlib.contextmanager
    def patched(self):
        originals = {layer: getattr(module, name) for layer, (module, name) in self.layers.items()}
        try:
            for layer, (module, name) in self.layers.items():
                setattr(module, name, self._timer(layer, originals[layer]))
            yield self
        finally:
            for layer, (module, name) in self.layers.items():
                setattr(module, name, originals[layer])

    def _timer(self, layer, fn):
        def timed(*args, **kwargs):
            self.calls[layer] += 1
            covered = self._covered
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.process_time() - start
                self.spent[layer] += elapsed - (self._covered - covered)
                self._covered = covered + elapsed

        return timed

    def run(self, op, *args, **kwargs):
        """``(op(*args, **kwargs), seconds)``: the reference seconds of each
        layer within the call, of the call outside every timed call as
        ``"rest"``, and of the whole call as ``"total"``; the layers and
        ``rest`` sum to ``total``. The call counts of the layers are left in
        ``calls``."""
        self.spent = dict.fromkeys(self.layers, 0.0)
        self.calls = dict.fromkeys(self.layers, 0)
        self._covered = 0.0
        before = calib.kernel_s()
        start = time.process_time()
        result = op(*args, **kwargs)
        total = time.process_time() - start
        after = calib.kernel_s()
        self.spent["rest"] = total - self._covered
        self.spent["total"] = total
        return result, {layer: calib.scale(s, before, after) for layer, s in self.spent.items()}


def summary(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "p25": round(q1, 6), "p50": round(median, 6),
            "p75": round(q3, 6)}


def _speedup(first: list, other: list):
    median = statistics.median(other)
    return round(statistics.median(first) / median, 3) if median else None


def leaves(fn, *trees):
    """``fn`` of the sample lists at each place of nested dicts of one shape."""
    if isinstance(trees[0], list):
        return fn(*trees)
    return {key: leaves(fn, *(tree[key] for tree in trees)) for key in trees[0]}


def merge(into: dict, tree: dict) -> None:
    """Extend the sample lists of ``into`` by those of ``tree``."""
    for key, value in tree.items():
        if isinstance(value, list):
            into.setdefault(key, []).extend(value)
        else:
            merge(into.setdefault(key, {}), value)


def report(samples: dict, settings: dict) -> dict:
    """The ``--out`` document of each label's merged samples."""
    first = next(iter(samples))
    return {
        "settings": {**settings, "clock": CLOCK, "rounds": ROUNDS, "sides": list(samples)},
        "runs": {label: leaves(summary, tree) for label, tree in samples.items()},
        f"speedup_over_{first}": {
            label: leaves(_speedup, samples[first], tree)
            for label, tree in samples.items()
            if label != first
        },
    }


def _rows(tree: dict, path=()):
    """(keys, {layer: samples}) of each innermost dict of ``tree``."""
    if any(isinstance(value, list) for value in tree.values()):
        yield path, tree
        return
    for key, sub in tree.items():
        yield from _rows(sub, path + (key,))


def alternate(script: str, sides: dict) -> dict:
    """Each label's child outputs, one per round. A round runs ``script
    --measure SRC`` once per side in a fresh interpreter, alternating which
    side goes first, and parses the JSON it prints; a child's errors go to
    this process's standard error."""
    outputs: dict = {label: [] for label in sides}
    for round_ in range(ROUNDS):
        order = list(sides) if round_ % 2 == 0 else list(reversed(sides))
        for label in order:
            done = subprocess.run(
                [sys.executable, script, "--measure", sides[label]],
                check=True, stdout=subprocess.PIPE, text=True,
            )
            outputs[label].append(json.loads(done.stdout))
    return outputs


def main(script: str, doc: str, out: str, settings: dict, measure, argv=None) -> int:
    """The command line of the timer ``script``: ``doc`` is its docstring,
    ``out`` its default output file in the repository root and ``settings``
    what its ops hold fixed."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="LABEL=SRC",
                        help="a label and the src directory to import reservematch from")
    parser.add_argument("--out", default=str(ROOT / out))
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
    for label, runs in alternate(script, sides).items():
        for run in runs:
            merge(samples[label], run)
    document = report(samples, settings)
    Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    for label, tree in samples.items():
        for path, layers in _rows(tree):
            medians = {layer: round(statistics.median(v), 6) for layer, v in layers.items()}
            cells = "  ".join(f"{layer}={median}" for layer, median in medians.items())
            print("\t".join((label, *path, cells)))
    return 0
