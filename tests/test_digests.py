"""Byte identity of the command line's outputs against a committed golden
file, ``tests/digests.json``.

Each case is one ``reservematch`` command run in-process; its digest is one
sha256 over its exit code, its standard output and every file it writes.
The inputs are the corpus instances, three hybrid instances and small generated
instances of equal, strict and ``random:2`` tiers with preferential fractions
0 and 0.4. Each instance is solved by ``da``, ``rev`` (reversed-identity
baseline), ``mma`` and ``scu`` under each implementation (with its trace and
both DOT exports), and once with ``--format json``; each solve output, a
swapped-pair tampering and a one-unit-short tampering of the ``scu`` output
are checked with ``--format json check`` and the default axioms.

A change that is meant to alter an output regenerates the file:

    PYTHONPATH=src python3 tests/test_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import random
import tempfile

from util import hybrid_instance

from reservematch.cli import main
from reservematch.model import instance_to_json

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "digests.json"
CORPUS = HERE / "corpus"
IMPLS = ("flow", "compact", "bipartite")
# (case name, seed, agents) of the hybrid instances: the last two have rev
# outputs that fail the hybrid order-preservation form by clause 2
HYBRIDS = (("hybrid", 4, 5), ("hybrid-27", 27, 6), ("hybrid-38", 38, 5))


def _generated() -> dict[str, list[str]]:
    """``gen`` options of the generated instances, by name: every tier scheme
    with both preferential fractions, on seven small shapes."""
    specs = {}
    shapes = itertools.product(("equal", "strict", "random:2"), ("0", "0.4"), range(7))
    for tiers, fraction, k in shapes:
        specs[f"gen-{tiers.replace(':', '')}-p{fraction}-{k}"] = [
            "--agents", str(3 + k % 5),
            "--categories", str(1 + k % 4),
            "--capacity", "uniform:0:2" if k % 2 else "const:1",
            "--density", ("0.3", "0.6", "0.9")[k % 3],
            "--preferential-fraction", fraction,
            "--tiers", tiers,
            "--seed", str(k),
        ]
    return specs


def _digest(code: int, stdout: str, written: dict[str, pathlib.Path]) -> str:
    files = {role: path.read_text(encoding="utf-8") for role, path in sorted(written.items())}
    return hashlib.sha256(json.dumps([code, stdout, files]).encode()).hexdigest()


def _run(argv: list[str], written: dict[str, pathlib.Path]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return _digest(code, out.getvalue(), written)


def _tampered(matching: pathlib.Path, how: str) -> str | None:
    """The matching file with its first two agents held at distinct
    categories swapped (``swap``) or its first matched agent unmatched
    (``short``); None where the matching has no such agents."""
    assignment = json.loads(matching.read_text())["assignment"]
    held = [agent for agent, c in assignment.items() if c is not None]
    if how == "short":
        if not held:
            return None
        assignment[held[0]] = None
    else:
        pair = next(
            ((a, b) for a, b in itertools.combinations(held, 2) if assignment[a] != assignment[b]),
            None,
        )
        if pair is None:
            return None
        a, b = pair
        assignment[a], assignment[b] = assignment[b], assignment[a]
    return json.dumps({"assignment": assignment})


def _instance_cases(name: str, instance: pathlib.Path, work: pathlib.Path) -> dict[str, str]:
    agents = json.loads(instance.read_text())["agents"]
    reversed_identity = ",".join(str(a) for a in reversed(range(agents)))
    solves = {
        "da": ["--rule", "da"],
        "rev": ["--rule", "rev", "--baseline", reversed_identity],
        "mma": ["--rule", "mma"],
    }
    digests, outputs = {}, {}
    for case, args in solves.items():
        outputs[case] = work / f"{case}.json"
        argv = ["solve", "-i", str(instance), *args, "-o", str(outputs[case])]
        digests[f"{name}/solve-{case}"] = _run(argv, {"output": outputs[case]})
    for impl in IMPLS:
        case = f"scu-{impl}"
        outputs[case] = work / f"{case}.json"
        written = {role: work / f"{case}.{role}" for role in ("trace", "dot", "dot-compact")}
        argv = ["solve", "-i", str(instance), "--rule", "scu", "--impl", impl,
                "-o", str(outputs[case])]
        for role, path in written.items():
            argv += [f"--{role}", str(path)]
        digests[f"{name}/solve-{case}"] = _run(argv, {"output": outputs[case], **written})
    outputs["scu-json"] = work / "scu-json.json"
    argv = ["--format", "json", "solve", "-i", str(instance), "--rule", "scu",
            "-o", str(outputs["scu-json"])]
    digests[f"{name}/solve-scu-json"] = _run(argv, {"output": outputs["scu-json"]})
    for how in ("swap", "short"):
        text = _tampered(outputs["scu-json"], how)
        if text is not None:
            outputs[how] = work / f"{how}.json"
            outputs[how].write_text(text)
    for case, matching in outputs.items():
        argv = ["--format", "json", "check", "-i", str(instance), "-m", str(matching)]
        digests[f"{name}/check-{case}"] = _run(argv, {})
    return digests


def compute() -> dict[str, str]:
    """Every case's digest, by case name."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        instances = {
            f"corpus-{path.stem}": path
            for path in sorted(CORPUS.glob("*.json"))
            if "categories" in json.loads(path.read_text())
        }
        for name, seed, agents in HYBRIDS:
            instances[name] = work / f"{name}.json"
            system = hybrid_instance(random.Random(seed), agents)
            instances[name].write_text(instance_to_json(system))
        for name, options in _generated().items():
            instances[name] = work / f"{name}.json"
            argv = ["gen", *options, "-o", str(instances[name])]
            digests[f"{name}/gen"] = _run(argv, {"output": instances[name]})
        for name, instance in instances.items():
            digests.update(_instance_cases(name, instance, work))
    return digests


def test_every_output_matches_its_golden_digest():
    golden = json.loads(GOLDEN.read_text())
    digests = compute()
    assert sorted(digests) == sorted(golden), "the set of cases changed"
    changed = [case for case in digests if digests[case] != golden[case]]
    assert not changed, f"{len(changed)} outputs changed, first {changed[0]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
