"""Property tests of the command line's exit-code contract: every valid
generated instance solves and checks with exit 0, every malformed one ends
with exit 2 and a single ``error:`` line, and a mutated argument vector ends
with exit 0, 1 or 2, never an internal error."""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from reservematch import axioms
from reservematch.cli import RULES, main
from util import MALFORMED_NUMBERS

# axioms each rule satisfies on every instance (da is stable but may leave
# the matching short of maximum cardinality)
RULE_AXIOMS = {
    "da": [axioms.ELIGIBILITY, axioms.RESPECT_PRIORITIES, axioms.NON_WASTEFULNESS],
    "rev": list(axioms.FUNDAMENTAL),
    "mma": list(axioms.FUNDAMENTAL),
    "scu": None,  # every applicable axiom, the sequential ones included
}

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def instances(draw, min_agents=0, min_categories=0):
    n = draw(st.integers(min_agents, 6))
    k = draw(st.integers(min_categories, 4))
    categories = [
        {
            "id": c,
            "capacity": draw(st.integers(0, 3)),
            "ranking": draw(st.permutations(range(n))),
            "eligible_cutoff": draw(st.integers(0, n)),
        }
        for c in range(k)
    ]
    raw = {"agents": n, "categories": draw(st.permutations(categories))}
    if draw(st.booleans()):
        raw["preferential"] = sorted(draw(st.sets(st.sampled_from(range(k))))) if k else []
        raw["tiers"] = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    return raw


def _run(*argv: str) -> tuple[int, str]:
    """The exit code and standard error of one in-process call; argparse
    exits through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@SETTINGS
@given(raw=instances(), data=st.data())
def test_valid_instances_solve_and_check(raw, data):
    with tempfile.TemporaryDirectory() as tmp:
        inst = pathlib.Path(tmp) / "inst.json"
        out = pathlib.Path(tmp) / "out.json"
        inst.write_text(json.dumps(raw))
        for rule, names in RULE_AXIOMS.items():
            extra = []
            if rule == "rev":
                if raw["agents"] == 0:
                    continue
                baseline = data.draw(st.permutations(range(raw["agents"])))
                extra = ["--baseline", ",".join(map(str, baseline))]
            code, err = _run("solve", "-i", str(inst), "--rule", rule, "-o", str(out), *extra)
            assert code == 0, (rule, err)
            axiom_args = [arg for name in names or [] for arg in ("--axiom", name)]
            code, err = _run("check", "-i", str(inst), "-m", str(out), *axiom_args)
            assert code == 0, (rule, err, out.read_text())


def _mutate(draw, raw) -> None:
    """One malformed change to a valid instance with at least one agent and
    one category."""
    n = raw["agents"]
    entry = draw(st.sampled_from(raw["categories"]))
    ranking = entry["ranking"]
    spot = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(
        ["drop-top", "drop-category", "non-integer", "non-array", "duplicate",
         "out-of-range", "cutoff"]
    ))
    if kind == "drop-top":
        del raw[draw(st.sampled_from(["agents", "categories"]))]
    elif kind == "drop-category":
        del entry[draw(st.sampled_from(["id", "capacity", "ranking", "eligible_cutoff"]))]
    elif kind == "non-integer":
        # the agent's own number as a string would be a valid ranking if read
        # as an integer
        ranking[spot] = draw(st.sampled_from(
            [ranking[spot] + 0.5, float(ranking[spot]), True, False, "x", "", "1.5",
             str(ranking[spot]), f" {ranking[spot]} "]
        ))
    elif kind == "non-array":
        # a list-typed field as a string or an object of its items, which a
        # reader that takes any iterable would read as valid characters or keys
        field = draw(st.sampled_from(
            ["categories", "ranking"] + [f for f in ("preferential", "tiers") if f in raw]
        ))
        holder = entry if field == "ranking" else raw
        items = [] if field == "categories" else holder[field]
        holder[field] = draw(st.sampled_from(
            ["".join(map(str, items)), {str(x): 0 for x in items}]
        ))
    elif kind == "duplicate" and n >= 2:
        ranking[spot] = ranking[(spot + draw(st.integers(1, n - 1))) % n]
    elif kind == "out-of-range":
        ranking[spot] = draw(st.sampled_from([-1, n, n + 7]))
    else:  # "cutoff", and "duplicate" with a single agent
        entry["eligible_cutoff"] = n + draw(st.integers(1, 3))


@SETTINGS
@given(raw=instances(min_agents=1, min_categories=1), data=st.data())
def test_malformed_instances_exit_2(raw, data):
    _mutate(data.draw, raw)
    with tempfile.TemporaryDirectory() as tmp:
        inst = pathlib.Path(tmp) / "inst.json"
        empty = pathlib.Path(tmp) / "empty.json"
        inst.write_text(json.dumps(raw))
        empty.write_text('{"assignment": {}}')
        for argv in (
            ("solve", "-i", str(inst), "--rule", "mma"),
            ("check", "-i", str(inst), "-m", str(empty)),
        ):
            code, err = _run(*argv)
            assert code == 2, (argv, raw)
            assert err.startswith("error: ") and err.count("\n") == 1, err


CORPUS = {
    path: json.loads(path.read_text())
    for path in sorted((pathlib.Path(__file__).parent / "corpus").glob("*.json"))
}
INSTANCES = [path for path, raw in CORPUS.items() if "agents" in raw]
MATCHINGS = [str(path) for path, raw in CORPUS.items() if "assignment" in raw]


@st.composite
def argument_vectors(draw):
    """A valid ``solve``, ``check`` or ``gen`` argument vector over the corpus
    files, as a list of option groups. File names other than the corpus
    paths are relative, and ``empty.json`` is the empty matching (a corpus
    matching may belong to another instance, which exits 2). Every size
    is at most 30: a huge ``gen`` size is valid input whose memory use grows
    without bound."""
    command = draw(st.sampled_from(["solve", "check", "gen"]))
    groups = [["--format", "json"]] if draw(st.booleans()) else []
    if command == "gen":
        groups += [["gen"], ["--agents", str(draw(st.integers(0, 30)))],
                   ["--categories", str(draw(st.integers(0, 30)))]]
        optional = [["--capacity", "const:2"], ["--capacity", "uniform:0:3"],
                    ["--density", "0.3"], ["--preferential-fraction", "0.5"],
                    ["--tiers", "strict"], ["--tiers", "random:3"], ["--seed", "7"],
                    ["--correlated"], ["-o", "gen.json"]]
    else:
        path = draw(st.sampled_from(INSTANCES))
        n, k = CORPUS[path]["agents"], len(CORPUS[path]["categories"])
        groups += [[command], ["-i", str(path)]]
    if command == "check":
        groups.append(["-m", draw(st.just("empty.json") | st.sampled_from(MATCHINGS))])
        optional = [["--axiom", name] for name in axioms.FUNDAMENTAL]
        optional += [["--axiom", "all"], ["--search", "oracle"]]
    elif command == "solve":
        rule = draw(st.sampled_from(RULES))
        groups.append(["--rule", rule])
        if rule == "rev":
            groups.append(["--baseline", ",".join(map(str, reversed(range(n))))])
        optional = [["-o", "out.json"], ["--dot", "full.dot"], ["--dot-compact", "compact.dot"]]
        optional += {
            "mma": [["--agent-order", ",".join(map(str, reversed(range(n))))],
                    ["--category-order", ",".join(map(str, reversed(range(k))))],
                    ["--seed-matching", "empty.json"]],
            "scu": [["--impl", "flow"], ["--impl", "compact"], ["--trace", "trace.jsonl"]],
        }.get(rule, [])
    return groups + draw(st.lists(st.sampled_from(optional), max_size=3))


def _mutate_argv(draw, groups) -> None:
    """Drop, duplicate or swap an option group, or give a value a malformed
    token."""
    if not groups:
        return
    i, j = (draw(st.integers(0, len(groups) - 1)) for _ in range(2))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "malform"]))
    if kind == "drop":
        del groups[i]
    elif kind == "duplicate":
        groups.insert(i, list(groups[i]))
    elif kind == "swap":
        groups[i], groups[j] = groups[j], groups[i]
    elif len(groups[i]) == 2:
        groups[i] = [groups[i][0], draw(st.sampled_from(MALFORMED_NUMBERS + ("", "-1")))]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(groups=argument_vectors(), data=st.data())
def test_mutated_argument_vectors_never_fail_internally(groups, data):
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_argv(data.draw, groups)
    argv = [token for group in groups for token in group]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pathlib.Path("empty.json").write_text('{"assignment": {}}')
            code, err = _run(*argv)
        finally:
            os.chdir(home)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err and "internal error:" not in err, (argv, err)
