"""Property tests of the command line's exit-code contract on generated
instance files: every valid instance solves and checks with exit 0, and every
malformed one ends with exit 2 and a single ``error:`` line."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from reservematch import axioms
from reservematch.cli import main

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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
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
