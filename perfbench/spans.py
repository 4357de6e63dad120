"""Span recording for the traced run.

``traced`` replaces the public functions of each layer with wrappers that
record a span (name, start, end, parent span, op id) in every module
namespace that holds them, and counts calls of the cheap ``GraphMatching``
mutators instead of timing them. Spans stay in memory; ``write_jsonl``
writes them out once at the end, so the file grows linearly with run length.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

PACKAGE = "reservematch"

# Public functions wrapped per layer; layers are named after the modules.
TARGETS: dict[str, tuple[str, ...]] = {
    "model": ("parse_instance", "parse_matching", "matching_to_json"),
    "cli": ("cmd_solve", "cmd_check"),
    "bipartite": (
        "build_graph",
        "maximum_matching",
        "find_alternating_path",
        "forward_reach",
        "send_reach",
    ),
    "rules_basic": ("mma_allocate", "rev_allocate"),
    "rules_sequential": ("scu_allocate", "dual_maximum_matching", "scu_bipartite_step"),
    "netflow": (
        "build_reserve_network",
        "build_compact_network",
        "feasible_flow",
        "flow_to_matching",
    ),
    "axioms": (
        "check_eligibility",
        "check_respect_priorities",
        "check_nonwasteful",
        "check_max_cardinality",
        "check_max_beneficiary",
        "check_order_preservation_swap",
        "check_respect_precedence",
        "check_order_preservation_hybrid",
    ),
}
LAYERS = tuple(TARGETS)

# GraphMatching methods run millions of times per op: counted, not timed.
COUNTED_METHODS = ("assign", "unassign", "size")

ROOT = "op."  # prefix of the spans the benchmark opens around each CLI call
IMPL = "rules_sequential.impl."  # spans around scu_allocate, named by --impl


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    op: int


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # (op, name) -> count
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.op, name)] += amount


def _observe(rec: Recorder, name: str, result: Any) -> None:
    """Counts read from a layer's return value."""
    if name == "rules_basic.mma_allocate":
        log = result[1].log
        rec.count("rules_basic.mma.proposals", len(log))
        rec.count(
            "rules_basic.mma.displacements",
            sum(1 for entry in log if entry.outcome == "displaced"),
        )
    elif name == "rules_sequential.scu_bipartite_step" and result == "fixed":
        rec.count("rules_sequential.step.fixed")
    elif name == "netflow.feasible_flow" and result is not None:
        rec.count("netflow.feasible_flow.feasible")


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    if name == "rules_sequential.scu_allocate":
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def scu_wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            with rec.span(IMPL + bound.arguments["impl"]), rec.span(name):
                return fn(*args, **kwargs)

        return scu_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name):
            result = fn(*args, **kwargs)
        _observe(rec, name, result)
        return result

    return wrapper


def _count_wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def traced(rec: Recorder) -> Iterator[None]:
    """Install span wrappers for the duration of the block, then restore."""
    modules = {
        key: mod
        for key, mod in sys.modules.items()
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    }
    undo: list[tuple[Any, str, Any]] = []
    try:
        for layer, names in TARGETS.items():
            home = modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = _wrap(rec, f"{layer}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        graph_matching = modules[f"{PACKAGE}.bipartite"].GraphMatching
        for meth in COUNTED_METHODS:
            original = getattr(graph_matching, meth)
            undo.append((graph_matching, meth, original))
            setattr(graph_matching, meth, _count_wrap(rec, f"bipartite.{meth}", original))
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def write_jsonl(spans: Iterable[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(
                json.dumps(
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


def _outermost(spans: list[Span], i: int, names: frozenset[str]) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return False
        p = spans[p].parent
    return True


# Inclusive-time metrics (".s"): time inside the named functions, traced
# callees included, counting nested calls of the same group once.
INCLUSIVE = {
    "model.parse_instance.s": ("model.parse_instance",),
    "model.parse_matching.s": ("model.parse_matching",),
    "model.matching_to_json.s": ("model.matching_to_json",),
    "bipartite.build_graph.s": ("bipartite.build_graph",),
    "bipartite.maximum_matching.s": ("bipartite.maximum_matching",),
    "bipartite.reach.s": (
        "bipartite.find_alternating_path",
        "bipartite.forward_reach",
        "bipartite.send_reach",
    ),
    "rules_sequential.dual_maximum_matching.s": ("rules_sequential.dual_maximum_matching",),
    "netflow.build_network.s": ("netflow.build_reserve_network", "netflow.build_compact_network"),
    "netflow.feasible_flow.s": ("netflow.feasible_flow",),
    "netflow.flow_to_matching.s": ("netflow.flow_to_matching",),
    "axioms.check_respect_priorities.s": ("axioms.check_respect_priorities",),
    "axioms.check_order_preservation_swap.s": ("axioms.check_order_preservation_swap",),
    "axioms.check_respect_precedence.s": ("axioms.check_respect_precedence",),
    "axioms.other.s": (
        "axioms.check_eligibility",
        "axioms.check_nonwasteful",
        "axioms.check_max_cardinality",
        "axioms.check_max_beneficiary",
        "axioms.check_order_preservation_hybrid",
    ),
}
# Self-time metrics (".self_s"): the function minus its traced callees.
SELF = {
    "cli.cmd_solve.self_s": "cli.cmd_solve",
    "cli.cmd_check.self_s": "cli.cmd_check",
    "rules_basic.mma_allocate.self_s": "rules_basic.mma_allocate",
    "rules_basic.rev_allocate.self_s": "rules_basic.rev_allocate",
    "rules_sequential.scu_allocate.self_s": "rules_sequential.scu_allocate",
    "rules_sequential.step.self_s": "rules_sequential.scu_bipartite_step",
}
# Exact totals over the run's traced ops.
CALLS = {
    "bipartite.maximum_matching.calls": "bipartite.maximum_matching",
    "bipartite.forward_reach.calls": "bipartite.forward_reach",
    "bipartite.send_reach.calls": "bipartite.send_reach",
    "rules_sequential.step.calls": "rules_sequential.scu_bipartite_step",
    "netflow.feasible_flow.calls": "netflow.feasible_flow",
}
IMPLS = ("flow", "compact", "bipartite")


def _median_per_op(values: dict[int, float], ops: list[int]) -> float:
    return statistics.median(values.get(op, 0.0) for op in ops) if ops else 0.0


def layer_metrics(rec: Recorder, ops: list[int], impl_ops: list[int]) -> dict[str, float]:
    """Per-layer metrics over the traced ops ``ops``; ``impl_ops`` are the
    extra solves that time each scu implementation.

    ``.s`` and ``.self_s`` are medians over ops of the per-op sum; ``.calls``
    and the other counts are totals over ``ops``; ``<layer>.solve_share`` and
    ``<layer>.check_share`` are the layer's self time over the wall time of
    the solve, or the check and refute, calls.
    """
    spans = rec.spans
    own = self_times(spans)
    main = set(ops)
    out: dict[str, float] = {}

    def per_op(pick: Callable[[int], bool], weight: Callable[[int], float]) -> dict[int, float]:
        acc: dict[int, float] = {}
        for i, s in enumerate(spans):
            if pick(i):
                acc[s.op] = acc.get(s.op, 0.0) + weight(i)
        return acc

    def duration(i: int) -> float:
        return spans[i].end - spans[i].start

    for metric, names in INCLUSIVE.items():
        group = frozenset(names)

        def outermost_in_group(i: int) -> bool:
            return spans[i].op in main and spans[i].name in group and _outermost(spans, i, group)

        out[metric] = _median_per_op(per_op(outermost_in_group, duration), ops)
    for metric, name in SELF.items():
        out[metric] = _median_per_op(
            per_op(lambda i: spans[i].op in main and spans[i].name == name, lambda i: own[i]), ops
        )
    calls = Counter(s.name for s in spans if s.op in main)
    counts: Counter = Counter()
    for (op, name), value in rec.counts.items():
        if op in main:
            counts[name] += value
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    out["bipartite.moves"] = counts["bipartite.assign"] + counts["bipartite.unassign"]
    out["bipartite.size.calls"] = counts["bipartite.size"]
    proposals = counts["rules_basic.mma.proposals"]
    out["rules_basic.mma.proposals"] = proposals
    out["rules_basic.mma.displacements"] = counts["rules_basic.mma.displacements"]
    out["rules_basic.mma.displace_ratio"] = (
        counts["rules_basic.mma.displacements"] / proposals if proposals else 0.0
    )
    steps = calls["rules_sequential.scu_bipartite_step"]
    out["rules_sequential.step.fix_ratio"] = (
        counts["rules_sequential.step.fixed"] / steps if steps else 0.0
    )
    flows = calls["netflow.feasible_flow"]
    out["netflow.feasible_flow.feasible_ratio"] = (
        counts["netflow.feasible_flow.feasible"] / flows if flows else 0.0
    )
    every = main | set(impl_ops)
    for impl in IMPLS:
        name = IMPL + impl
        times = per_op(lambda i: spans[i].op in every and spans[i].name == name, duration)
        out[f"rules_sequential.impl.{impl}.s"] = statistics.median(times.values()) if times else 0.0

    roots = [_root_of(spans, i) for i in range(len(spans))]
    wall = {"solve": 0.0, "check": 0.0}
    busy = {(layer, kind): 0.0 for layer in LAYERS for kind in wall}
    for i, s in enumerate(spans):
        if s.op not in main:
            continue
        root = spans[roots[i]].name
        kind = "solve" if root == ROOT + "solve" else "check"
        if i == roots[i]:
            wall[kind] += s.end - s.start
        else:
            layer = s.name.split(".", 1)[0]
            if layer in LAYERS:
                busy[(layer, kind)] += own[i]
    for (layer, kind), value in busy.items():
        out[f"{layer}.{kind}_share"] = value / wall[kind] if wall[kind] else 0.0
    return out


def metric_names() -> list[str]:
    """Every per-layer metric ``layer_metrics`` reports, in report order."""
    names = list(INCLUSIVE) + list(SELF) + list(CALLS)
    names += [
        "bipartite.moves",
        "bipartite.size.calls",
        "rules_basic.mma.proposals",
        "rules_basic.mma.displacements",
        "rules_basic.mma.displace_ratio",
        "rules_sequential.step.fix_ratio",
        "netflow.feasible_flow.feasible_ratio",
    ]
    names += [f"rules_sequential.impl.{impl}.s" for impl in IMPLS]
    names += [f"{layer}.{kind}_share" for layer in LAYERS for kind in ("solve", "check")]
    return names


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"
