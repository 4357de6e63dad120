"""Command-line front end: solve, check, gen, verify, and bench.

Exit codes: 0 on success / all checks passing, 1 on a failed check or an
unexpected counterexample, 2 on usage or validation errors, 3 on an internal
error (a bug, reported with its traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
import time
from typing import Any, Callable, Optional, Sequence

# ``statistics`` and ``harness`` serve only ``bench`` and ``verify``, so they
# are imported there, off the start-up path of ``solve`` and ``check``.
from . import axioms
from .bipartite import GraphMatching
from .model import (
    AnySystem,
    InstanceError,
    Matching,
    PrecedenceOrder,
    PriorityRanking,
    ReserveSystem,
    SequentialReserveSystem,
    as_sequential,
    base_of,
    canonical_json,
    instance_to_json,
    matching_to_json,
    parse_instance,
    parse_matching,
)
from .netflow import build_compact_network, build_reserve_network
from .rules_basic import da_allocate, mma_allocate, rev_allocate
from .rules_sequential import (
    DEFAULT_IMPL,
    IMPLEMENTATIONS,
    dual_maximum_matching,
    scu_allocate,
)

RULES = ("da", "rev", "mma", "scu")

# Errors that mean the input was bad (exit 2), as opposed to a failed check.
_INPUT_ERRORS = (InstanceError, OSError, json.JSONDecodeError)

_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """``int(text)`` for ASCII ``-?[0-9]+`` only: anything else ``int()``
    would read (spaces, a ``+`` sign, ``_`` separators, non-ASCII digits)
    raises ValueError."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# argparse names an option's type in its error: "invalid int value: '1_0'"
_integer.__name__ = "int"

_FLOAT = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


def _float(text: str) -> float:
    """``float(text)`` for plain ASCII decimals (``-?`` digits with an
    optional ``.`` fraction) only: anything else ``float()`` would read
    (spaces, a ``+`` sign, ``_`` separators, non-ASCII digits, exponents,
    ``nan``, ``inf``) raises ValueError."""
    if _FLOAT.fullmatch(text) is None:
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


_float.__name__ = "float"


# ---------------------------------------------------------------------------
# Instance generation


class GeneratorSpec:
    """Deterministic random-instance description; same spec + seed gives a
    byte-identical instance file."""

    def __init__(
        self,
        num_agents: int,
        num_categories: int,
        capacity: str = "const:1",
        density: float = 0.5,
        preferential_fraction: float = 0.0,
        tier_scheme: str = "equal",
        seed: int = 0,
        correlated: bool = False,
    ):
        if num_agents < 0 or num_categories < 0:
            raise InstanceError("sizes must be non-negative")
        if not 0.0 <= density <= 1.0:
            raise InstanceError(f"density must be in [0, 1], got {density}")
        if not 0.0 <= preferential_fraction <= 1.0:
            raise InstanceError("preferential fraction must be in [0, 1]")
        self.num_agents = num_agents
        self.num_categories = num_categories
        self.capacity = capacity
        self.density = density
        self.preferential_fraction = preferential_fraction
        self.tier_scheme = tier_scheme
        self.seed = seed
        self.correlated = correlated

    def _capacity_for(self, rng: random.Random) -> int:
        kind, _, rest = self.capacity.partition(":")
        try:
            if kind == "const":
                return _integer(rest)
            if kind == "uniform":
                lo, hi = (_integer(x) for x in rest.split(":"))
                return rng.randint(lo, hi)
        except ValueError:
            raise InstanceError(
                f"bad capacity spec {self.capacity!r}: expected const:Q or "
                f"uniform:LO:HI with integers LO <= HI"
            ) from None
        raise InstanceError(f"unknown capacity spec {self.capacity!r}")

    def build(self) -> AnySystem:
        rng = random.Random(self.seed)
        n, ncat = self.num_agents, self.num_categories
        base_order = list(range(n))
        rng.shuffle(base_order)
        priorities = []
        capacities = []
        for _ in range(ncat):
            if self.correlated:
                order = list(base_order)
                for _ in range(max(1, n // 4)):
                    if n >= 2:
                        pos = rng.randrange(n - 1)
                        order[pos], order[pos + 1] = order[pos + 1], order[pos]
            else:
                order = list(range(n))
                rng.shuffle(order)
            cutoff = sum(1 for _ in range(n) if rng.random() < self.density)
            priorities.append(PriorityRanking(tuple(order), cutoff))
            capacities.append(self._capacity_for(rng))
        base = ReserveSystem(n, ncat, tuple(capacities), tuple(priorities))

        pref_count = round(self.preferential_fraction * ncat)
        wants_sequential = pref_count > 0 or self.tier_scheme != "equal"
        if not wants_sequential:
            return base
        preferential = frozenset(rng.sample(range(ncat), pref_count))
        if self.tier_scheme == "equal":
            tiers = [0] * ncat
        elif self.tier_scheme == "strict":
            tiers = list(range(ncat))
            rng.shuffle(tiers)
        elif self.tier_scheme.startswith("random:"):
            k = self.tier_scheme.split(":", 1)[1]
            if _INTEGER.fullmatch(k) is None or int(k) < 1:
                raise InstanceError(
                    f"bad tier scheme {self.tier_scheme!r}: expected random:K "
                    f"with an integer K >= 1"
                )
            tiers = [rng.randrange(int(k)) for _ in range(ncat)]
        else:
            raise InstanceError(f"unknown tier scheme {self.tier_scheme!r}")
        return SequentialReserveSystem(
            base=base,
            preferential=preferential,
            precedence=PrecedenceOrder(tuple(tiers)),
        )


# ---------------------------------------------------------------------------
# solve


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers, each ASCII ``-?[0-9]+``; the empty string is
    the empty list. Anything else ``int()`` would read (an empty element,
    spaces, a ``+`` sign, ``_`` separators, non-ASCII digits) is bad input."""
    if text == "":
        return []
    parts = text.split(",")
    if not all(_INTEGER.fullmatch(part) for part in parts):
        raise InstanceError(f"expected comma-separated integers, got {text!r}")
    return [int(part) for part in parts]


def _read_text(path: str) -> str:
    """An input file's text; a file that is not UTF-8 is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InstanceError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _solve_matching(system: AnySystem, args: argparse.Namespace) -> Matching:
    if args.rule == "da":
        return da_allocate(base_of(system))
    if args.rule == "rev":
        if args.baseline is None:
            raise InstanceError("rev requires --baseline")
        return rev_allocate(base_of(system), _parse_int_list(args.baseline))
    if args.rule == "mma":
        base = base_of(system)
        seed = None
        if args.seed_matching is not None:
            seed_matching = parse_matching(_read_text(args.seed_matching), base)
            seed = GraphMatching.from_matching(seed_matching, base.num_categories)
        agent_order = None if args.agent_order is None else _parse_int_list(args.agent_order)
        cat_order = (
            None if args.category_order is None else _parse_int_list(args.category_order)
        )
        matching, _ = mma_allocate(base, seed, agent_order, cat_order)
        return matching
    if args.rule == "scu":
        sink = None
        trace_handle = None
        if args.trace is not None:
            trace_handle = open(args.trace, "w", encoding="utf-8")

            def sink(record: dict) -> None:
                trace_handle.write(json.dumps(record, sort_keys=True) + "\n")

        try:
            return scu_allocate(system, impl=args.impl, trace_sink=sink)
        finally:
            if trace_handle is not None:
                trace_handle.close()
    raise InstanceError(f"unknown rule {args.rule!r}")


# The options only one rule reads, by destination: given with another rule
# they would be ignored, so they are bad input.
_RULE_OPTIONS = {
    "baseline": "rev",
    "seed_matching": "mma",
    "agent_order": "mma",
    "category_order": "mma",
    "trace": "scu",
}


def cmd_solve(args: argparse.Namespace) -> int:
    for dest, rule in _RULE_OPTIONS.items():
        if getattr(args, dest) is not None and args.rule != rule:
            option = "--" + dest.replace("_", "-")
            raise InstanceError(f"{option} is read by --rule {rule} only, not {args.rule}")
    system = parse_instance(_read_text(args.instance))
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(build_reserve_network(as_sequential(system)).to_dot())
    if args.dot_compact is not None:
        with open(args.dot_compact, "w", encoding="utf-8") as handle:
            handle.write(build_compact_network(as_sequential(system)).to_dot())
    matching = _solve_matching(system, args)
    seq = as_sequential(system)
    loads = matching.loads(seq.num_categories)
    summary = {
        "rule": args.rule,
        "matched": sum(loads),
        "beneficiaries": sum(loads[c] for c in seq.preferential),
        "loads": list(loads),
    }
    text = matching_to_json(matching)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.format == "json":
        # canonical_json({"matching": ..., "summary": summary}), built from the
        # matching text already written: each part nested two spaces deeper
        matching_text, summary_text = (
            part.rstrip("\n").replace("\n", "\n  ") for part in (text, canonical_json(summary))
        )
        print(f'{{\n  "matching": {matching_text},\n  "summary": {summary_text}\n}}')
    else:
        print(f"rule: {summary['rule']}")
        print(f"matched: {summary['matched']}")
        print(f"beneficiaries: {summary['beneficiaries']}")
        print("loads: " + ",".join(str(x) for x in summary["loads"]))
        pairs = ", ".join(
            f"{a}->{c}" for a, c in enumerate(matching.assignment) if c is not None
        )
        print(f"assignment: {pairs if pairs else '(empty)'}")
    return 0


# ---------------------------------------------------------------------------
# check


def _applicable_axioms(system: AnySystem) -> list[str]:
    names = list(axioms.FUNDAMENTAL)
    if isinstance(system, SequentialReserveSystem):
        names += list(axioms.SEQUENTIAL)
        if system.hybrid is not None:
            names.append(axioms.ORDER_PRESERVATION_HYBRID)
    return names


def run_checks(
    system: AnySystem,
    matching: Matching,
    names: Sequence[str],
    search: str = "flow",
) -> list[axioms.AxiomVerdict]:
    seq = as_sequential(system)
    need_m = axioms.MAX_CARDINALITY in names
    need_b = axioms.MAX_BENEFICIARY in names or axioms.RESPECT_PRECEDENCE in names
    m = b = None
    if need_m or need_b:
        # seeded from the matching under check: backward searches apply
        # paths until one finds none, which certifies the stage; only a
        # stage whose isqrt(n) + 1 searches all found a path runs
        # Hopcroft-Karp
        _, b, m = dual_maximum_matching(seq, start=matching)
    verdicts = []
    for name in names:
        if name == axioms.ELIGIBILITY:
            verdicts.append(axioms.check_eligibility(system, matching))
        elif name == axioms.RESPECT_PRIORITIES:
            verdicts.append(axioms.check_respect_priorities(system, matching))
        elif name == axioms.NON_WASTEFULNESS:
            verdicts.append(axioms.check_nonwasteful(system, matching))
        elif name == axioms.MAX_CARDINALITY:
            verdicts.append(axioms.check_max_cardinality(system, matching, m))
        elif name == axioms.MAX_BENEFICIARY:
            verdicts.append(axioms.check_max_beneficiary(system, matching, b))
        elif name == axioms.ORDER_PRESERVATION_SWAP:
            verdicts.append(axioms.check_order_preservation_swap(system, matching))
        elif name == axioms.RESPECT_PRECEDENCE:
            verdicts.append(
                axioms.check_respect_precedence(system, matching, search=search, b=b, m=m)
            )
        elif name == axioms.ORDER_PRESERVATION_HYBRID:
            verdicts.append(axioms.check_order_preservation_hybrid(system, matching))
        else:
            raise InstanceError(f"unknown axiom {name!r}")
    return verdicts


def cmd_check(args: argparse.Namespace) -> int:
    system = parse_instance(_read_text(args.instance))
    matching = parse_matching(_read_text(args.matching), system)
    names = _applicable_axioms(system) if args.axiom == ["all"] else args.axiom
    verdicts = run_checks(system, matching, names, search=args.search)
    if args.format == "json":
        print(canonical_json([v.to_raw() for v in verdicts]), end="")
    else:
        for v in verdicts:
            status = "pass" if v.passed else "FAIL"
            extra = "" if v.witness is None else f"  witness={json.dumps(v.witness, sort_keys=True)}"
            print(f"{v.axiom}: {status}{extra}")
    return 0 if all(v.passed for v in verdicts) else 1


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        num_agents=args.agents,
        num_categories=args.categories,
        capacity=args.capacity,
        density=args.density,
        preferential_fraction=args.preferential_fraction,
        tier_scheme=args.tiers,
        seed=args.seed,
        correlated=args.correlated,
    )
    text = instance_to_json(spec.build())
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# verify

# Properties a rule is expected to satisfy; everything else is reported but
# does not gate the exit code.
_GATED = {
    "da": {"no-incentive-to-hide", "respect-improvements", "consistency"},
    "rev": {"no-incentive-to-hide", "respect-improvements", "four-axioms"},
    "mma": {"four-axioms"},
    "scu": {
        "no-incentive-to-hide",
        "respect-improvements",
        "consistency",
        "four-axioms",
    },
}


def _rule_callable(rule: str) -> Callable[[AnySystem], Matching]:
    if rule == "da":
        return lambda system: da_allocate(base_of(system))
    if rule == "rev":
        return lambda system: rev_allocate(
            base_of(system), list(range(base_of(system).num_agents))
        )
    if rule == "mma":
        return lambda system: mma_allocate(base_of(system))[0]
    if rule == "scu":
        return scu_allocate
    raise InstanceError(f"unknown rule {rule!r}")


def _verify_sweep(sweep: str, seed: int) -> list[AnySystem]:
    from . import harness

    if sweep == "corpus":
        return list(harness.corpus().values())
    systems: list[AnySystem] = []
    if sweep == "small":
        count, max_agents, max_categories = 40, 5, 3
    elif sweep == "random":
        count, max_agents, max_categories = 25, 12, 4
    else:
        raise InstanceError(f"unknown sweep {sweep!r}")
    rng = random.Random(seed)
    while len(systems) < count:
        spec = GeneratorSpec(
            num_agents=rng.randint(1, max_agents),
            num_categories=rng.randint(1, max_categories),
            capacity="uniform:1:2",
            density=rng.choice([0.3, 0.5, 0.8]),
            preferential_fraction=rng.choice([0.0, 0.5]),
            tier_scheme=rng.choice(["equal", "strict", "random:2"]),
            seed=rng.randrange(1 << 30),
        )
        systems.append(spec.build())
    return systems


def cmd_verify(args: argparse.Namespace) -> int:
    from . import harness

    rule_fn = _rule_callable(args.rule)
    systems = _verify_sweep(args.sweep, args.seed)
    gated = _GATED[args.rule]
    results: list[dict[str, Any]] = []
    failed = False
    for idx, system in enumerate(systems):
        entry: dict[str, Any] = {"instance": idx}
        reports = [
            harness.report_no_incentive_to_hide(rule_fn, system, seed=args.seed),
            harness.report_respect_improvements(rule_fn, system, seed=args.seed),
            harness.report_consistency(rule_fn, system),
        ]
        if args.rule == "rev":
            reports.append(
                harness.report_independence_of_baseline(
                    lambda sys_, order: rev_allocate(base_of(sys_), order),
                    base_of(system),
                    seed=args.seed,
                )
            )
        matching = rule_fn(system)
        four = run_checks(system, matching, list(axioms.FUNDAMENTAL))
        failing = [v.to_raw() for v in four if not v.passed]
        reports.append(harness.PerturbationReport("four-axioms", 1, failing))
        entry["reports"] = [r.to_raw() for r in reports]
        for report in entry["reports"]:
            if report["counterexamples"] and report["property"] in gated:
                failed = True
                report["unexpected"] = True
        results.append(entry)
    out = {"rule": args.rule, "sweep": args.sweep, "seed": args.seed, "results": results}
    print(canonical_json(out), end="")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bench


def _timed(fn: Callable[[], Any]) -> float:
    """CPU seconds of one call: a stall of the machine does not count."""
    start = time.process_time()
    fn()
    return time.process_time() - start


def run_bench(
    sizes: Sequence[int],
    rules: Sequence[str],
    repetitions: int,
    seed: int,
    categories: int = 10,
    density: float = 0.1,
) -> dict[str, Any]:
    """Timing table over generated instances. Each repetition builds one
    instance per size and times every rule on it back to back, in one
    stretch of CPU speed; a ratio is the median of per-repetition ratios."""
    import statistics

    if categories < 1:
        raise InstanceError(f"--categories must be at least 1, got {categories}")
    if repetitions < 0:
        raise InstanceError(f"--repetitions must be at least 0, got {repetitions}")
    allocators = [(rule, _rule_callable(rule)) for rule in rules]
    rows: list[dict[str, Any]] = []
    samples: dict[tuple[str, int], list[float]] = {}
    for size in sizes:
        for rep in range(repetitions):
            system = GeneratorSpec(
                num_agents=size,
                num_categories=categories,
                capacity=f"const:{max(1, size // (2 * categories))}",
                density=density,
                seed=seed + rep,
            ).build()
            for rule, allocate in allocators:
                elapsed = _timed(lambda: allocate(system))
                samples.setdefault((rule, size), []).append(elapsed)
                rows.append(
                    {
                        "rule": rule,
                        "size": size,
                        "rep": rep,
                        "seed": seed + rep,
                        "seconds": elapsed,
                    }
                )
    report: dict[str, Any] = {
        "sizes": list(sizes),
        "rules": list(rules),
        "repetitions": repetitions,
        "seed": seed,
        "rows": rows,
        "medians": [
            {"rule": rule, "size": size, "seconds": statistics.median(values)}
            for (rule, size), values in sorted(samples.items())
        ],
    }
    if "mma" in rules and "rev" in rules and repetitions > 0:
        ratios = []
        for size in sizes:
            # the k-th samples of both rules ran on repetition k's instance
            pairs = zip(samples[("mma", size)], samples[("rev", size)])
            per_rep = [rev / mma if mma > 0 else float("inf") for mma, rev in pairs]
            ratios.append({"size": size, "ratio": statistics.median(per_rep)})
        report["rev_over_mma"] = ratios
        report["ratio_monotone"] = all(
            ratios[k]["ratio"] > ratios[k - 1]["ratio"] for k in range(1, len(ratios))
        )
    return report


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = _parse_int_list(args.sizes)
    if not sizes:
        raise InstanceError("--sizes names no size")
    if len(set(sizes)) < len(sizes):
        raise InstanceError(f"--sizes {args.sizes!r} names a size twice")
    rules = args.rules.split(",")
    for rule in rules:
        if rule not in RULES:
            raise InstanceError(f"unknown rule {rule!r} in --rules {args.rules!r}")
    if len(set(rules)) < len(rules):
        raise InstanceError(f"--rules {args.rules!r} names a rule twice")
    report = run_bench(
        sizes,
        rules,
        args.repetitions,
        args.seed,
        categories=args.categories,
        density=args.density,
    )
    if args.format == "json":
        print(canonical_json(report), end="")
    else:
        print("rule\tsize\tmedian_seconds")
        for row in report["medians"]:
            print(f"{row['rule']}\t{row['size']}\t{row['seconds']:.6f}")
        for ratio in report.get("rev_over_mma", []):
            print(f"ratio\t{ratio['size']}\t{ratio['ratio']:.3f}")
    if report.get("rev_over_mma") and not report.get("ratio_monotone", True):
        print("rev/mma ratio is not increasing across sizes", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reservematch",
        description="Category-reserve allocation: solvers, axiom checks, "
        "instance generation, and benchmarks.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an allocation rule on an instance")
    solve.add_argument("--instance", "-i", required=True)
    solve.add_argument("--rule", required=True, choices=RULES)
    solve.add_argument("--baseline", help="comma-separated agent order (rev)")
    solve.add_argument("--seed-matching", help="matching file seeding mma")
    solve.add_argument("--agent-order", help="comma-separated scan order (mma)")
    solve.add_argument("--category-order", help="comma-separated proposal order (mma)")
    solve.add_argument("--impl", choices=IMPLEMENTATIONS, default=DEFAULT_IMPL)
    solve.add_argument("--trace", help="JSON-lines step trace (scu)")
    solve.add_argument("--output", "-o", help="write the matching file here")
    solve.add_argument("--dot", help="export the full reserve network as DOT")
    solve.add_argument("--dot-compact", help="export the grouped network as DOT")

    check = sub.add_parser("check", help="evaluate axioms on a matching file")
    check.add_argument("--instance", "-i", required=True)
    check.add_argument("--matching", "-m", required=True)
    check.add_argument(
        "--axiom",
        action="append",
        default=None,
        help="axiom name, repeatable; default: all applicable",
    )
    check.add_argument("--search", choices=("flow", "oracle"), default="flow")

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--agents", type=_integer, required=True)
    gen.add_argument("--categories", type=_integer, required=True)
    gen.add_argument("--capacity", default="const:1")
    gen.add_argument("--density", type=_float, default=0.5)
    gen.add_argument("--preferential-fraction", type=_float, default=0.0)
    gen.add_argument("--tiers", default="equal")
    gen.add_argument("--seed", type=_integer, default=0)
    gen.add_argument("--correlated", action="store_true")
    gen.add_argument("--output", "-o")

    verify = sub.add_parser("verify", help="run property sweeps for a rule")
    verify.add_argument("--rule", required=True, choices=RULES)
    verify.add_argument("--sweep", choices=("small", "corpus", "random"), default="small")
    verify.add_argument("--seed", type=_integer, default=0)

    bench = sub.add_parser("bench", help="time rules on generated instances, in CPU seconds")
    bench.add_argument("--sizes", default="500,1000,2000")
    bench.add_argument("--rules", default="mma,rev")
    bench.add_argument("--repetitions", type=_integer, default=3)
    bench.add_argument("--seed", type=_integer, default=0)
    bench.add_argument("--categories", type=_integer, default=10)
    bench.add_argument("--density", type=_float, default=0.1)
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call rather than at import, so
    importing stays cheap and later in-process calls reuse it. Each
    parse_args call returns a fresh namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    # argparse drops a "--" given as an option's "=" value (--agents=--) and
    # stores an empty list where one value belongs, unchecked by its type
    for name, value in vars(args).items():
        if isinstance(value, list) and (not value or [] in value):
            _shared_parser().error(f"argument --{name.replace('_', '-')}: expected one argument")
    if getattr(args, "axiom", None) is None and args.command == "check":
        args.axiom = ["all"]
    # looked up per call, not stored in the cached parser, so a command
    # wrapped after the first call (a profiler's span) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not bad input or a failed check: exit 1 would read as
        # "axiom failed"
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
