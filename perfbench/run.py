"""Closed-loop benchmark of the reservematch command line.

One client and one process per workload: each op starts when the previous
one ends. An op calls ``reservematch.cli.main`` in-process with standard
output captured, on instance files the benchmark generates from ``--seed``:

* ``solve`` on the instance, writing the matching file;
* ``check`` on that matching, expected to pass (exit 0);
* ``refute``: ``check`` on a matching known to fail (exit 1, with a fixed
  set of failing axioms).

Only the three CLI calls are timed. Between them, outside the timers, every
solve output goes through an independent O(n*K) check (``outcheck``), and
every output file and verdict list is hashed: before the timed loop, ops on
the default-seed instances are compared with the sha256 digests recorded in
``expected.json`` (the byte-identity gate), and an instance solved twice in a
run must give the same bytes both times.

    python3 perfbench/run.py --workload scu-small --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # each workload in its own process
    python3 perfbench/run.py --record-digests      # rewrite expected.json

With ``--trace 1`` the run wraps each layer's public functions in span
recorders (``spans``), runs a fixed set of ops both untraced and traced, and
reports per-layer metrics and the tracing overhead instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when the run completed, whatever its verdict, and not 0 when it could not
run at all, such as when ``src/reservematch`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import calib
import instances
import outcheck
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPAN_DIR = ROOT / ".bench_out"
EXPECTED = BENCH_DIR / "expected.json"

DEFAULT_SEED = 0
GATE_OPS = 2  # default-seed instances per workload checked against expected.json
SETUP_SAMPLES = 15
# Highest percentile with at least ten samples beyond it at the op counts a
# 25-second run reaches on the slowest workloads (about 30 ops).
TAIL = 60
KINDS = ("solve", "check", "refute")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: instances.InstanceSpec
    solve_args: tuple[str, ...]
    # Axioms passed to check and refute; empty means every applicable axiom.
    axioms: tuple[str, ...]
    # The failing axioms the refute must report, sorted.
    refute_fails: tuple[str, ...]
    # Refute the instance's mma matching; otherwise the tampered solve output.
    refute_mma: bool = False
    # rev: a seeded random --baseline per instance.
    baseline: bool = False
    # Traced run: also solve with every scu --impl and require identical bytes.
    compare_impls: bool = False
    # Distinct instances generated per run: about the ops a run reaches, so
    # that set-up stays short and few instances repeat.
    pool: int = 40
    trace_ops: int = 4  # ops in the traced run


# Why each workload exists, and the layers it loads and bypasses, is in
# README.md next to this file.
_LINEAR_FUNDAMENTAL = ("eligibility", "non-wastefulness", "max-cardinality")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mma-large",
            instances.InstanceSpec(agents=4000, categories=10, capacity=200, density=0.1),
            ("--rule", "mma"),
            axioms=_LINEAR_FUNDAMENTAL,
            refute_fails=("max-cardinality", "non-wastefulness"),
            pool=40,
            trace_ops=4,
        ),
        Workload(
            "rev-medium",
            instances.InstanceSpec(agents=400, categories=10, capacity=20, density=0.1),
            ("--rule", "rev"),
            axioms=(),
            refute_fails=("max-cardinality", "non-wastefulness", "respect-priorities"),
            baseline=True,
            pool=64,
            trace_ops=8,
        ),
        Workload(
            "scu-small",
            instances.InstanceSpec(
                agents=200,
                categories=10,
                capacity=10,
                density=0.3,
                preferential_fraction=0.4,
                tiers="strict",
            ),
            ("--rule", "scu"),
            axioms=(),
            refute_fails=("order-preservation-swap", "respect-precedence"),
            refute_mma=True,
            compare_impls=True,
            pool=80,
            trace_ops=8,
        ),
        Workload(
            "scu-large",
            instances.InstanceSpec(
                agents=2000,
                categories=10,
                capacity=100,
                density=0.3,
                preferential_fraction=0.4,
                tiers="random:3",
            ),
            ("--rule", "scu", "--impl", "bipartite"),
            axioms=_LINEAR_FUNDAMENTAL + ("max-beneficiary",),
            refute_fails=("max-cardinality", "non-wastefulness"),
            pool=32,
            trace_ops=4,
        ),
    )
}


class OpFailed(Exception):
    """An op returned an unexpected exit code or broke an output check."""


@dataclass
class Instance:
    path: Path
    extra_args: tuple[str, ...] = ()
    mma_path: Optional[Path] = None


@dataclass
class OpResult:
    times: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# Program under test


def load_program() -> None:
    """Import ``reservematch`` from this checkout's ``src``, and nothing else."""
    if not (SRC / "reservematch" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'reservematch'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import reservematch.cli

    if not Path(reservematch.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: reservematch was imported from {reservematch.cli.__file__}")


def cli_call(argv: Sequence[str]) -> tuple[float, int, str]:
    """Run the CLI in-process; returns (reference seconds, exit code, stdout).

    The clock is this process's CPU time, not wall time: on a shared virtual
    machine the host takes the CPU away for stretches (steal time), which
    stretched single solves up to twice their CPU time. The CLI is
    single-threaded and CPU-bound. The CPU time is then scaled by the
    calibration kernel run just before and after the call (``calib``),
    because the speed of a CPU second changes too.
    """
    from reservematch.cli import main

    buf = io.StringIO()
    gc.collect()
    before = calib.kernel_s()
    with contextlib.redirect_stdout(buf):
        start = time.process_time()
        code = main(list(argv))
        elapsed = time.process_time() - start
    return calib.scale(elapsed, before, calib.kernel_s()), code, buf.getvalue()


SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.process_time(); "
    "import reservematch.cli; print(time.process_time() - start)"
)


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median CPU time, in reference seconds, for a fresh interpreter to
    import ``reservematch.cli``; the calibration kernel runs in this process
    just before and after each interpreter."""
    cmd = [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)  # writes bytecode caches
    times = []
    for _ in range(samples):
        before = calib.kernel_s()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        times.append(calib.scale(float(done.stdout), before, calib.kernel_s()))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Inputs


def instance_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def make_instances(wl: Workload, seed: int, count: int, work: Path) -> list[Instance]:
    """Write ``count`` instance files for ``seed`` (plus the mma matchings
    a refute needs); the same seed gives the same files."""
    made = []
    for index in range(count):
        iseed = instance_seed(seed, index)
        path = work / f"{wl.name}-{iseed}.json"
        path.write_text(instances.to_json(instances.build(wl.spec, iseed)))
        inst = Instance(path)
        if wl.baseline:
            order = list(range(wl.spec.agents))
            random.Random(f"baseline/{iseed}").shuffle(order)
            inst.extra_args = ("--baseline", ",".join(map(str, order)))
        if wl.refute_mma:
            inst.mma_path = work / f"{wl.name}-{iseed}.mma.json"
            _, code, _ = cli_call(
                ["solve", "-i", str(path), "--rule", "mma", "-o", str(inst.mma_path)]
            )
            if code != 0:
                raise OpFailed(f"mma solve for the refute matching exited {code}")
        made.append(inst)
    return made


# ---------------------------------------------------------------------------
# One op


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_verdicts(stdout: str) -> tuple[list[str], str]:
    """Failing axioms of a ``--format json check`` and the digest of its
    verdict list, witnesses included."""
    verdicts = json.loads(stdout)
    if not verdicts:
        raise OpFailed("check reported no verdicts")
    return sorted(v["axiom"] for v in verdicts if not v["pass"]), sha256(stdout)


def run_op(
    wl: Workload, inst: Instance, work: Path, rec: Optional[spans.Recorder] = None
) -> OpResult:
    result = OpResult()

    def call(kind: str, argv: list[str]) -> tuple[int, str]:
        with rec.span(spans.ROOT + kind) if rec else contextlib.nullcontext():
            elapsed, code, stdout = cli_call(argv)
        result.times[kind] = elapsed
        return code, stdout

    try:
        out = work / "out.json"
        solve = ["solve", "-i", str(inst.path), "-o", str(out), *wl.solve_args]
        code, _ = call("solve", solve + list(inst.extra_args))
        if code != 0:
            raise OpFailed(f"solve exited {code}")
        text = out.read_text()
        result.digests["solve"] = sha256(text)
        raw = json.loads(inst.path.read_text())
        assignment = outcheck.read_assignment(text, raw["agents"])
        broken = outcheck.violations(raw, assignment)
        if broken:
            raise OpFailed(f"solve output breaks {broken}")

        axiom_args = [arg for name in wl.axioms for arg in ("--axiom", name)]
        check = ["--format", "json", "check", "-i", str(inst.path), *axiom_args, "-m"]
        code, stdout = call("check", check + [str(out)])
        failing, result.digests["check"] = read_verdicts(stdout)
        if code != 0 or failing:
            raise OpFailed(f"check exited {code}, failing {failing}")

        if wl.refute_mma:
            refute = inst.mma_path
        else:
            refute = work / "refute.json"
            refute.write_text(outcheck.to_json(outcheck.tamper(raw, assignment)))
        code, stdout = call("refute", check + [str(refute)])
        failing, result.digests["refute"] = read_verdicts(stdout)
        if code != 1 or tuple(failing) != wl.refute_fails:
            raise OpFailed(
                f"refute exited {code}, failing {failing}, expected {list(wl.refute_fails)}"
            )
    except Exception as exc:  # an op boundary: any failure counts, the run goes on
        result.error = f"{type(exc).__name__}: {exc}"
    return result


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, res: OpResult, label: str) -> None:
        self.attempted += 1
        if res.error is not None:
            self.failed += 1
            print(f"FAILED {label}: {res.error}", file=sys.stderr)


def gate(
    wl: Workload, gate_instances: list[Instance], expected: list[dict[str, str]], work: Path
) -> Tally:
    """Run the default-seed ops and compare their digests with ``expected``."""
    tally = Tally()
    for index, inst in enumerate(gate_instances):
        res = run_op(wl, inst, work)
        if res.error is None and (index >= len(expected) or res.digests != expected[index]):
            res.error = f"byte-identity gate: digests {res.digests} differ from expected.json"
        tally.add(res, f"gate op {index}")
    return tally


# ---------------------------------------------------------------------------
# Statistics


def percentile(values: Sequence[float], pct: float) -> tuple[float, int, int]:
    """Nearest-rank percentile: (value, sample count, samples beyond it)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], n, n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Runs


@contextlib.contextmanager
def work_dir(wl: Workload, seed: int) -> Iterator[Path]:
    path = WORK / f"{wl.name}-{seed}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def load_expected(wl: Workload) -> list[dict[str, str]]:
    return json.loads(EXPECTED.read_text()).get(wl.name, [])


def timed_run(wl: Workload, seed: int, seconds: float) -> dict:
    setup_s = measure_setup()
    with work_dir(wl, seed) as work:
        gate_instances = make_instances(wl, DEFAULT_SEED, GATE_OPS, work)
        pool = make_instances(wl, seed, wl.pool, work)
        tally = gate(wl, gate_instances, load_expected(wl), work)

        samples: dict[str, list[float]] = {kind: [] for kind in KINDS}
        op_times: list[float] = []
        first: dict[int, dict[str, str]] = {}
        deadline = time.perf_counter() + seconds
        op = 0
        while op == 0 or time.perf_counter() < deadline:
            index = op % len(pool)
            res = run_op(wl, pool[index], work)
            if res.error is None and first.setdefault(index, res.digests) != res.digests:
                res.error = f"instance {index} solved twice gave different bytes"
            tally.add(res, f"op {op}")
            if res.error is None:
                for kind in KINDS:
                    samples[kind].append(res.times[kind])
                op_times.append(sum(res.times.values()))
            op += 1

    metrics: dict[str, tuple[float, str, str]] = {}
    for kind in KINDS:
        if not samples[kind]:
            continue
        for pct in (50, TAIL):
            value, n, beyond = percentile(samples[kind], pct)
            metrics[f"{kind}_s.p{pct}"] = (value, "s", f"n={n}, beyond={beyond}")
    if op_times:
        # Ops per second at the median op: a mean would let one stall move it.
        note = f"n={len(op_times)} ops, {sum(op_times):.3f} s in CLI calls"
        metrics["solve_per_s"] = (1 / statistics.median(op_times), "1/s", note)
    metrics["setup_s"] = (setup_s, "s", f"median of {SETUP_SAMPLES} fresh interpreters")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "this process")
    return report(tally, metrics)


def traced_run(wl: Workload, seed: int) -> dict:
    with work_dir(wl, seed) as work:
        gate_instances = make_instances(wl, DEFAULT_SEED, GATE_OPS, work)
        pool = make_instances(wl, seed, wl.trace_ops, work)
        tally = gate(wl, gate_instances, load_expected(wl), work)

        rec = spans.Recorder()
        untraced: list[OpResult] = []
        traced: list[OpResult] = []
        impl_ops: list[int] = []
        for index, inst in enumerate(pool):
            # Each instance runs untraced and traced back to back, in
            # alternating order, so that drift in machine speed cancels out
            # of the overhead ratio.
            if index % 2 == 0:
                untraced.append(run_op(wl, inst, work))
            rec.op = index
            with spans.traced(rec):
                res = run_op(wl, inst, work, rec)
                if res.error is None and wl.compare_impls:
                    res.error = compare_impls(inst, work, rec, len(pool), impl_ops)
            if index % 2 == 1:
                untraced.append(run_op(wl, inst, work))
            if res.error is None and res.digests != untraced[index].digests:
                res.error = "traced op gave other bytes than the untraced op"
            traced.append(res)
        for index, (plain, res) in enumerate(zip(untraced, traced)):
            tally.add(plain, f"untraced op {index}")
            tally.add(res, f"traced op {index}")

    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{wl.name}-{seed}.jsonl"
    spans.write_jsonl(rec.spans, str(span_file))
    print(f"{len(rec.spans)} spans written to {span_file.relative_to(ROOT)}")

    values = spans.layer_metrics(rec, list(range(len(pool))), impl_ops)
    metrics = {
        name: (values[name], spans.unit_of(name), "") for name in spans.metric_names()
    }
    plain_s = sum(sum(r.times.values()) for r in untraced)
    traced_s = sum(sum(r.times.values()) for r in traced)
    overhead = traced_s / plain_s if plain_s else 0.0
    note = f"{traced_s:.3f} s traced / {plain_s:.3f} s untraced"
    metrics["trace.overhead"] = (overhead, "ratio", note)
    return report(tally, metrics)


def compare_impls(
    inst: Instance, work: Path, rec: spans.Recorder, first_op: int, impl_ops: list[int]
) -> Optional[str]:
    """Solve with every scu implementation; None when all give the same bytes."""
    outputs = {}
    for impl in spans.IMPLS:
        rec.op = first_op + len(impl_ops)
        impl_ops.append(rec.op)
        out = work / f"impl-{impl}.json"
        with rec.span(spans.ROOT + "impl"):
            _, code, _ = cli_call(
                ["solve", "-i", str(inst.path), "--rule", "scu", "--impl", impl, "-o", str(out)]
            )
        if code != 0:
            return f"solve --impl {impl} exited {code}"
        outputs[impl] = out.read_text()
    if len(set(outputs.values())) != 1:
        return f"scu implementations disagree: {sorted(outputs)}"
    return None


def report(tally: Tally, metrics: dict[str, tuple[float, str, str]]) -> dict:
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<44} {value:>14.6f} {unit:<6} {note}")
    print(f"failed_ops {tally.failed}/{tally.attempted}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in its own process; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {done.returncode}")
        child = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def record_digests() -> dict:
    """Digests of the default-seed gate ops of every workload."""
    recorded = {}
    for wl in WORKLOADS.values():
        with work_dir(wl, DEFAULT_SEED) as work:
            made = make_instances(wl, DEFAULT_SEED, GATE_OPS, work)
            results = [run_op(wl, inst, work) for inst in made]
        for res in results:
            if res.error is not None:
                raise SystemExit(f"error: {wl.name}: {res.error}")
        recorded[wl.name] = [res.digests for res in results]
    return recorded


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite expected.json from the default-seed gate ops")
    args = parser.parse_args(argv)
    if args.record_digests == (args.workload is not None):
        parser.error("give exactly one of --workload and --record-digests")
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    load_program()
    if args.record_digests:
        EXPECTED.write_text(json.dumps(record_digests(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED.relative_to(ROOT)}")
        return 0
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(wl, args.seed)
    else:
        result = timed_run(wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
