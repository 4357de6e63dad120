from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

import reservematch
from reservematch import cli
from reservematch.cli import main
from reservematch.model import instance_to_json, matching_to_json, Matching
from util import MALFORMED_NUMBERS, oversized_instance


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_scu_compact(capsys, corpus_dir, tmp_path):
    out_file = tmp_path / "matching.json"
    code, out = run_cli(
        capsys,
        "--format",
        "json",
        "solve",
        "-i",
        str(corpus_dir / "grouped_six.json"),
        "--rule",
        "scu",
        "--impl",
        "compact",
        "-o",
        str(out_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["matched"] == 3
    assert payload["summary"]["beneficiaries"] == 2
    assert payload["summary"]["loads"] == [1, 1, 1]
    assert payload["matching"]["assignment"] == {
        "0": None,
        "1": 0,
        "2": None,
        "3": 1,
        "4": 2,
        "5": None,
    }
    assert out_file.read_text() == matching_to_json(Matching((None, 0, None, 1, 2, None)))


@pytest.mark.parametrize("impl", ["flow", "compact", "bipartite"])
def test_solve_scu_impls_equal(capsys, corpus_dir, impl):
    code, out = run_cli(
        capsys,
        "--format",
        "json",
        "solve",
        "-i",
        str(corpus_dir / "grouped_six.json"),
        "--rule",
        "scu",
        "--impl",
        impl,
    )
    assert code == 0
    assert json.loads(out)["matching"]["assignment"]["1"] == 0


def test_solve_mma_four_axioms(capsys, corpus_dir, tmp_path):
    out_file = tmp_path / "m.json"
    code, _ = run_cli(
        capsys,
        "solve",
        "-i",
        str(corpus_dir / "contested_pair.json"),
        "--rule",
        "mma",
        "-o",
        str(out_file),
    )
    assert code == 0
    code, out = run_cli(
        capsys,
        "--format",
        "json",
        "check",
        "-i",
        str(corpus_dir / "contested_pair.json"),
        "-m",
        str(out_file),
    )
    assert code == 0
    verdicts = json.loads(out)
    assert all(v["pass"] for v in verdicts)


def test_solve_rev_with_baseline(capsys, corpus_dir):
    code, out = run_cli(
        capsys,
        "--format",
        "json",
        "solve",
        "-i",
        str(corpus_dir / "contested_pair.json"),
        "--rule",
        "rev",
        "--baseline",
        "0,1,2",
    )
    assert code == 0
    assert json.loads(out)["matching"]["assignment"] == {"0": 0, "1": 1, "2": None}


def test_solve_rev_requires_baseline(capsys, corpus_dir):
    code, _ = run_cli(
        capsys,
        "solve",
        "-i",
        str(corpus_dir / "contested_pair.json"),
        "--rule",
        "rev",
    )
    assert code == 2


def _zero_agent_instance(tmp_path):
    inst = tmp_path / "empty.json"
    inst.write_text(json.dumps({
        "agents": 0,
        "categories": [{"id": 0, "capacity": 1, "ranking": [], "eligible_cutoff": 0}],
    }))
    return inst


def test_solve_rev_empty_baseline_is_the_empty_order(capsys, tmp_path):
    inst = _zero_agent_instance(tmp_path)
    for rule, extra in (("rev", ["--baseline", ""]), ("mma", [])):
        code, out = run_cli(capsys, "--format", "json", "solve", "-i", str(inst),
                            "--rule", rule, *extra)
        assert code == 0, rule
        assert json.loads(out)["matching"]["assignment"] == {}
    # an absent --baseline is still an error
    code, _ = run_cli(capsys, "solve", "-i", str(inst), "--rule", "rev")
    assert code == 2


def test_solve_rev_empty_baseline_on_agents_exits_2(capsys, corpus_dir):
    code = main(["solve", "-i", str(corpus_dir / "contested_pair.json"),
                 "--rule", "rev", "--baseline", ""])
    assert code == 2
    assert "permutation" in capsys.readouterr().err


def test_repeated_main_calls_share_no_parsed_state(capsys, corpus_dir, tmp_path):
    matching = tmp_path / "m.json"
    matching.write_text(matching_to_json(Matching((None, 0, 1))))
    check = ["--format", "json", "check", "-i", str(corpus_dir / "contested_pair.json"),
             "-m", str(matching)]

    def axioms_reported(*extra):
        code, out = run_cli(capsys, *check, *extra)
        assert code == 0
        return [v["axiom"] for v in json.loads(out)]

    everything = ["eligibility", "respect-priorities", "non-wastefulness", "max-cardinality"]
    assert axioms_reported("--axiom", "eligibility") == ["eligibility"]
    assert axioms_reported() == everything
    assert axioms_reported("--axiom", "non-wastefulness") == ["non-wastefulness"]
    assert axioms_reported() == everything


def test_main_runs_a_command_wrapped_after_the_first_call(capsys, corpus_dir, monkeypatch):
    """The parser is built once, but each call runs the module's current
    ``cmd_<command>``, so a wrapper installed between calls sees the next."""
    from reservematch import cli

    solve = ["solve", "-i", str(corpus_dir / "grouped_six.json"), "--rule", "scu"]
    assert run_cli(capsys, *solve)[0] == 0
    calls = []
    original = cli.cmd_solve

    def wrapper(args):
        calls.append(args.rule)
        return original(args)

    monkeypatch.setattr(cli, "cmd_solve", wrapper)
    assert run_cli(capsys, *solve)[0] == 0
    assert calls == ["scu"]


def test_solve_mma_order_override(capsys, corpus_dir, tmp_path):
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(matching_to_json(Matching((0, None, 1))))
    code, out = run_cli(
        capsys,
        "--format",
        "json",
        "solve",
        "-i",
        str(corpus_dir / "contested_pair.json"),
        "--rule",
        "mma",
        "--seed-matching",
        str(seed_file),
        "--category-order",
        "1,0",
    )
    assert code == 0
    assert json.loads(out)["matching"]["assignment"] == {"0": 0, "1": 1, "2": None}


def test_check_respect_priorities_fail(capsys, corpus_dir):
    code, out = run_cli(
        capsys,
        "--format",
        "json",
        "check",
        "-i",
        str(corpus_dir / "contested_pair.json"),
        "-m",
        str(corpus_dir / "contested_pair_skewed.json"),
        "--axiom",
        "respect-priorities",
    )
    assert code == 1
    verdicts = json.loads(out)
    assert verdicts[0]["witness"] == {"unmatched": 1, "matched": 0, "category": 0}


def test_check_precedence_golden(capsys, corpus_dir):
    code, _ = run_cli(
        capsys,
        "check",
        "-i",
        str(corpus_dir / "precedence_chain.json"),
        "-m",
        str(corpus_dir / "precedence_chain_parked.json"),
        "--axiom",
        "respect-precedence",
    )
    assert code == 1
    code, _ = run_cli(
        capsys,
        "check",
        "-i",
        str(corpus_dir / "precedence_chain.json"),
        "-m",
        str(corpus_dir / "precedence_chain_settled.json"),
        "--axiom",
        "respect-precedence",
    )
    assert code == 0


_ALONE = "error: --axiom all names every applicable axiom; give it alone\n"


@pytest.mark.parametrize(
    "names, err",
    [
        (["bogus"], "error: unknown axiom 'bogus'\n"),
        (["eligibility", "bogus", "all"], "error: unknown axiom 'bogus'\n"),
        (["eligibility", "all"], _ALONE),
        (["all", "respect-precedence"], _ALONE),
        (["all", "all"], _ALONE),
        (["eligibility", "eligibility"], "error: --axiom eligibility is named twice\n"),
    ],
    ids=["unknown", "unknown-beside-all", "all-after-a-name", "all-before-a-name", "all-twice",
         "a-name-twice"],
)
def test_check_refuses_axiom_names_before_reading_a_file(capsys, tmp_path, names, err):
    """An unknown name, ``all`` beside another name, or a name given twice
    exits 2 with its own message before the instance is read: here neither
    file exists."""
    missing = str(tmp_path / "missing.json")
    argv = ["check", "-i", missing, "-m", missing]
    for name in names:
        argv += ["--axiom", name]
    assert main(argv) == 2
    assert capsys.readouterr().err == err


def test_check_axiom_all_alone_is_the_default(capsys, corpus_dir):
    check = ["--format", "json", "check", "-i", str(corpus_dir / "precedence_chain.json"),
             "-m", str(corpus_dir / "precedence_chain_parked.json")]
    assert run_cli(capsys, *check, "--axiom", "all") == run_cli(capsys, *check)


def test_check_defaults_to_every_axiom_of_a_hybrid_instance(capsys, tmp_path):
    """On an instance with a hybrid marker, the default ``--axiom all``
    adds the hybrid form: here agent 0 outranks agent 1 at the early-open
    category 0 but sits in the preferential category 1 while 1 holds 0."""
    category = {"capacity": 1, "ranking": [0, 1, 2], "eligible_cutoff": 3}
    raw = {
        "agents": 3,
        "categories": [{"id": c, **category} for c in range(3)],
        "preferential": [1],
        "tiers": [0, 1, 2],
        "hybrid": {"open_early": [0], "open_late": [2]},
    }
    instance, matching = tmp_path / "hybrid.json", tmp_path / "m.json"
    instance.write_text(json.dumps(raw))
    matching.write_text(matching_to_json(Matching((1, 0, None))))
    code, out = run_cli(capsys, "check", "-i", str(instance), "-m", str(matching))
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "eligibility", "respect-priorities", "non-wastefulness", "max-cardinality",
        "max-beneficiary", "order-preservation-swap", "respect-precedence",
        "order-preservation-hybrid",
    ]
    assert lines[-1] == (
        'order-preservation-hybrid: FAIL  witness={"category_i": 1, "category_j": 0, '
        '"clause": 1, "i": 0, "j": 1}'
    )


def test_check_empty_matching_eligibility(capsys, corpus_dir, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(matching_to_json(Matching((None, None, None))))
    code, _ = run_cli(
        capsys,
        "check",
        "-i",
        str(corpus_dir / "contested_pair.json"),
        "-m",
        str(empty),
        "--axiom",
        "eligibility",
    )
    assert code == 0


def test_gen_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run_cli(
            capsys,
            "gen",
            "--agents",
            "5",
            "--categories",
            "3",
            "--density",
            "0.5",
            "--seed",
            "7",
            "-o",
            str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_density_extremes(capsys, tmp_path):
    for density, expect_edges in (("0", 0), ("1", 6)):
        path = tmp_path / f"d{density}.json"
        code, _ = run_cli(
            capsys,
            "gen",
            "--agents",
            "3",
            "--categories",
            "2",
            "--density",
            density,
            "--seed",
            "1",
            "-o",
            str(path),
        )
        assert code == 0
        raw = json.loads(path.read_text())
        total = sum(entry["eligible_cutoff"] for entry in raw["categories"])
        assert total == expect_edges


def test_gen_correlated_mode(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run_cli(
            capsys,
            "gen",
            "--agents",
            "6",
            "--categories",
            "3",
            "--density",
            "0.8",
            "--correlated",
            "--seed",
            "5",
            "-o",
            str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    raw = json.loads(a.read_text())
    # rankings share a common backbone: nearby categories mostly agree
    assert len(raw["categories"]) == 3


def test_solve_trace_and_dot(capsys, corpus_dir, tmp_path):
    trace = tmp_path / "trace.jsonl"
    dot = tmp_path / "net.dot"
    dot_compact = tmp_path / "net_compact.dot"
    code, _ = run_cli(
        capsys,
        "solve",
        "-i",
        str(corpus_dir / "grouped_six.json"),
        "--rule",
        "scu",
        "--impl",
        "bipartite",
        "--trace",
        str(trace),
        "--dot",
        str(dot),
        "--dot-compact",
        str(dot_compact),
    )
    assert code == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines[0]["event"] == "init" and lines[-1]["event"] == "done"
    assert '"(0, 3)"' in dot.read_text()
    text = dot_compact.read_text()
    assert '"k0"' in text and '"k1"' in text


def test_verify_scu_small(capsys):
    code, out = run_cli(capsys, "verify", "--rule", "scu", "--sweep", "small", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    for entry in payload["results"]:
        for report in entry["reports"]:
            assert report["counterexamples"] == []


def test_verify_rev_corpus_reports_baseline_dependence(capsys):
    code, out = run_cli(capsys, "verify", "--rule", "rev", "--sweep", "corpus")
    assert code == 0  # dependence is expected for this rule, not gated
    payload = json.loads(out)
    dependence = [
        report
        for entry in payload["results"]
        for report in entry["reports"]
        if report["property"] == "independence-of-baseline"
    ]
    assert any(report["counterexamples"] for report in dependence)


def test_verify_da_gates_its_three_properties_only(capsys):
    """``da`` is not maximal: the small sweep reports an instance where it
    fails the four axioms, which its gate leaves out."""
    code, out = run_cli(capsys, "verify", "--rule", "da")
    assert code == 0
    reports = [report for entry in json.loads(out)["results"] for report in entry["reports"]]
    assert {r["property"] for r in reports if r["counterexamples"]} == {"four-axioms"}
    assert not any("unexpected" in report for report in reports)


def test_verify_random_sweep(capsys):
    code, out = run_cli(capsys, "verify", "--rule", "mma", "--sweep", "random", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["sweep"], payload["seed"], len(payload["results"])) == ("random", 1, 25)
    for entry in payload["results"]:
        for report in entry["reports"]:
            assert report["property"] != "four-axioms" or report["counterexamples"] == []


def test_verify_exits_1_and_marks_a_failed_gated_property(capsys, monkeypatch):
    """An ``mma`` that matches no one fails the four axioms, which ``mma``
    is gated on; only those reports are marked unexpected."""

    def match_no_one(rule):
        return lambda system: Matching((None,) * system.num_agents)

    monkeypatch.setattr(cli, "_rule_callable", match_no_one)
    code, out = run_cli(capsys, "verify", "--rule", "mma", "--sweep", "corpus")
    assert code == 1
    reports = [report for entry in json.loads(out)["results"] for report in entry["reports"]]
    failed = [report for report in reports if report["counterexamples"]]
    marked = [report for report in reports if report.get("unexpected")]
    assert marked and marked == [r for r in failed if r["property"] == "four-axioms"]


def test_bench_text_table(capsys):
    code, out = run_cli(
        capsys, "bench", "--sizes", "10,20", "--rules", "da,mma", "--repetitions", "1",
        "--categories", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule\tsize\tmedian_seconds"
    assert [line.split("\t")[:2] for line in lines[1:]] == [
        ["da", "10"], ["da", "20"], ["mma", "10"], ["mma", "20"]
    ]


def test_bench_exits_1_when_the_rev_over_mma_ratio_does_not_grow(capsys, monkeypatch):
    times = iter([1.0, 4.0, 1.0, 2.0])  # mma then rev, per size: ratios 4, then 2

    def timed(fn):
        fn()
        return next(times)

    monkeypatch.setattr(cli, "_timed", timed)
    code = main(["bench", "--sizes", "6,9", "--rules", "mma,rev", "--repetitions", "1",
                 "--categories", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines()[-2:] == ["ratio\t6\t4.000", "ratio\t9\t2.000"]
    assert captured.err == "rev/mma ratio is not increasing across sizes\n"


@pytest.mark.parametrize(
    "times, code",
    [([1.0, 1.0, 1.0, 10.0], 1), ([1.0, 10.0, 1.0, 1.0], 0)],
    ids=["falls-with-size", "grows-with-size"],
)
def test_bench_judges_the_ratio_trend_by_size_not_by_listed_order(
    capsys, monkeypatch, times, code
):
    """Sizes listed largest first: the ratio at 9 agents, then at 6. The
    table keeps the listed order; the trend is read in ascending size."""
    times = iter(times)

    def timed(fn):
        fn()
        return next(times)

    monkeypatch.setattr(cli, "_timed", timed)
    assert main(["bench", "--sizes", "9,6", "--rules", "mma,rev", "--repetitions", "1",
                 "--categories", "2"]) == code
    captured = capsys.readouterr()
    ratios = ["1.000", "10.000"] if code else ["10.000", "1.000"]
    assert captured.out.splitlines()[-2:] == [f"ratio\t9\t{ratios[0]}", f"ratio\t6\t{ratios[1]}"]
    assert captured.err == ("rev/mma ratio is not increasing across sizes\n" if code else "")


def test_bench_single_rule(capsys):
    code, out = run_cli(
        capsys,
        "--format",
        "json",
        "bench",
        "--sizes",
        "30,60",
        "--rules",
        "mma",
        "--repetitions",
        "1",
        "--categories",
        "3",
        "--density",
        "0.3",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2
    assert "rev_over_mma" not in payload


def test_bench_zero_repetitions(capsys):
    code, out = run_cli(
        capsys,
        "--format",
        "json",
        "bench",
        "--sizes",
        "10",
        "--rules",
        "mma,rev",
        "--repetitions",
        "0",
    )
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_bench_times_every_rule_of_a_repetition_on_one_instance(monkeypatch):
    calls = []
    times = iter([1.0, 10.0, 2.0, 2.0, 4.0, 40.0] * 2)

    def rule_callable(rule):
        return lambda system: calls.append((rule, system))

    def timed(fn):
        fn()
        return next(times)

    monkeypatch.setattr(cli, "_rule_callable", rule_callable)
    monkeypatch.setattr(cli, "_timed", timed)
    report = cli.run_bench(sizes=(6, 9), rules=("mma", "rev"), repetitions=3, seed=4, categories=2)
    assert [rule for rule, _ in calls] == ["mma", "rev"] * 6
    for (_, first), (_, second) in zip(calls[::2], calls[1::2]):
        assert first is second
    assert len({id(system) for _, system in calls}) == 6
    assert [(row["size"], row["rep"], row["rule"]) for row in report["rows"]] == [
        (size, rep, rule) for size in (6, 9) for rep in range(3) for rule in ("mma", "rev")
    ]
    # per-repetition ratios 10, 1, 10: their median, not median(rev) / median(mma) = 5
    assert report["rev_over_mma"] == [{"size": 6, "ratio": 10.0}, {"size": 9, "ratio": 10.0}]
    assert report["ratio_monotone"] is False
    assert report["medians"] == [
        {"rule": "mma", "size": 6, "seconds": 2.0},
        {"rule": "mma", "size": 9, "seconds": 2.0},
        {"rule": "rev", "size": 6, "seconds": 10.0},
        {"rule": "rev", "size": 9, "seconds": 10.0},
    ]


def test_bench_zero_categories_exits_2(capsys):
    # the generated capacity divides the size by the category count
    _bad_input_exit(capsys, "bench", "--sizes", "10", "--rules", "mma", "--categories", "0")


def test_malformed_instance_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"agents": 2}')
    code, _ = run_cli(capsys, "solve", "-i", str(bad), "--rule", "da")
    assert code == 2


def test_text_format_solve(capsys, corpus_dir):
    code, out = run_cli(
        capsys,
        "solve",
        "-i",
        str(corpus_dir / "precedence_chain.json"),
        "--rule",
        "scu",
    )
    assert code == 0
    assert "matched: 2" in out
    assert "assignment: 1->1, 2->0" in out


def _bad_input_exit(capsys, *argv) -> None:
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("id", None),  # None: the key is missing
        ("capacity", "x"),
        ("capacity", 1.5),
        ("capacity", True),
        ("eligible_cutoff", 2.0),
        ("id", False),
        # read as its characters or its keys, either would be the ranking 1, 0, 2
        ("ranking", "102"),
        ("ranking", {"1": 0, "0": 0, "2": 0}),
        # the category's own values as strings that hold them
        ("capacity", " 1 "),
        ("eligible_cutoff", "2"),
        # an integer, but not the category's index
        ("id", 5),
    ],
)
def test_malformed_category_exits_2(capsys, corpus_dir, tmp_path, field, value):
    raw = json.loads((corpus_dir / "contested_pair.json").read_text())
    if value is None:
        del raw["categories"][0][field]
    else:
        raw["categories"][0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    _bad_input_exit(capsys, "solve", "-i", str(bad), "--rule", "da")


@pytest.mark.parametrize(
    "field, value",
    [
        ("agents", 3.0),
        ("agents", True),
        ("tiers", [0, 1.5]),
        # list-typed fields as a string or an object, which a reader that takes
        # any iterable would read as valid characters or keys
        ("tiers", {"0": 5, "1": 0}),
        ("tiers", "01"),
        ("preferential", "1"),
        ("preferential", {"1": True}),
        ("hybrid", {"open_early": "0", "open_late": "1"}),
        ("hybrid", {"open_early": {"0": 1}, "open_late": [1]}),
        # a string that holds an integer is still a string
        ("agents", "3"),
        ("tiers", [0, "1"]),
        ("preferential", [" 1 "]),
        # integers, but negative
        ("agents", -1),
        ("tiers", [0, -1]),
    ],
)
def test_non_integer_scalars_exit_2(capsys, corpus_dir, tmp_path, field, value):
    raw = json.loads((corpus_dir / "precedence_chain.json").read_text())
    raw[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    _bad_input_exit(capsys, "solve", "-i", str(bad), "--rule", "scu")


def test_bad_baseline_exits_2(capsys, corpus_dir):
    _bad_input_exit(
        capsys,
        "solve",
        "-i",
        str(corpus_dir / "contested_pair.json"),
        "--rule",
        "rev",
        "--baseline",
        "0,x",
    )


@pytest.mark.parametrize(
    "option, value",
    [
        ("--baseline", "0,,1,2"),
        ("--agent-order", "0,1,2,"),
        ("--category-order", ",1,0"),
        ("--sizes", "10,,20"),
        # text int() reads as an integer but that is not ASCII -?[0-9]+
        ("--baseline", " 0,+1,0_2"),
        ("--agent-order", "\uff12,1,0"),
        ("--category-order", "1 ,0"),
        ("--sizes", "1_0"),
    ],
)
def test_empty_list_element_exits_2(capsys, corpus_dir, option, value):
    """An empty element of an integer list is bad input, not skipped: read
    without it, each of these lists is a valid value of its option. So is
    an element that is not ASCII digits with an optional leading ``-``."""
    instance = str(corpus_dir / "contested_pair.json")
    argv = {
        "--baseline": ["solve", "-i", instance, "--rule", "rev"],
        "--agent-order": ["solve", "-i", instance, "--rule", "mma"],
        "--category-order": ["solve", "-i", instance, "--rule", "mma"],
        "--sizes": ["bench", "--rules", "mma", "--repetitions", "1"],
    }[option]
    _bad_input_exit(capsys, *argv, option, value)


@pytest.mark.parametrize(
    "content",
    [b"[" * 200000, b'{"agents": "\xff"}', b"[]", b'{\n  "agents": 3,\n'],
    ids=["deep", "not-utf8", "top-level-list", "truncated"],
)
@pytest.mark.parametrize(
    "role", ["solve-instance", "check-instance", "check-matching", "seed-matching"]
)
def test_unreadable_json_exits_2(capsys, corpus_dir, tmp_path, role, content):
    """A file nested too deeply for the JSON parser, not UTF-8 at all,
    valid JSON that is not an object, or cut short, is bad input wherever it
    is read."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    instance = str(corpus_dir / "contested_pair.json")
    matching = str(corpus_dir / "contested_pair_skewed.json")
    argv = {
        "solve-instance": ["solve", "-i", str(bad), "--rule", "da"],
        "check-instance": ["check", "-i", str(bad), "-m", matching],
        "check-matching": ["check", "-i", instance, "-m", str(bad)],
        "seed-matching": ["solve", "-i", instance, "--rule", "mma", "--seed-matching", str(bad)],
    }[role]
    _bad_input_exit(capsys, *argv)


def test_directory_as_instance_exits_2(capsys, tmp_path):
    _bad_input_exit(capsys, "solve", "-i", str(tmp_path), "--rule", "da")


def test_hybrid_axiom_on_plain_instance_exits_2(capsys, corpus_dir, tmp_path):
    matching = tmp_path / "m.json"
    matching.write_text(matching_to_json(Matching((None, 1, 0))))
    _bad_input_exit(
        capsys,
        "check",
        "-i",
        str(corpus_dir / "precedence_chain.json"),
        "-m",
        str(matching),
        "--axiom",
        "order-preservation-hybrid",
    )


def test_hybrid_marker_outside_the_open_categories_exits_2(capsys, tmp_path):
    # a hybrid marker alone makes the instance sequential, so it is checked
    raw = {
        "agents": 1,
        "categories": [{"id": 0, "capacity": 1, "ranking": [0], "eligible_cutoff": 1}],
        "hybrid": {"open_early": [7], "open_late": []},
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    _bad_input_exit(capsys, "solve", "-i", str(bad), "--rule", "scu")


@pytest.mark.parametrize(
    "assignment",
    [
        {"x": 0},
        {"0": 1.0},
        {"0": True},
        # two keys naming one agent: neither placement may silently win
        {"1": 0, "01": 1},
        {"01": 1, "1": 0},
        {"1": None, " 1": 0},
        # a key that int() reads but that is not str(agent)
        {"+0": 0, " 1": 1},
        {"\uff11": 1},
        # an array, not an object: read as pairs it would place agent 1 in category 0
        ["10"],
        [["0", 1]],
        # a category as a string that holds an integer
        {"0": "0"},
        {"1": " 1 "},
    ],
)
def test_malformed_matching_exits_2(capsys, corpus_dir, tmp_path, assignment):
    matching = tmp_path / "m.json"
    matching.write_text(json.dumps({"assignment": assignment}))
    _bad_input_exit(
        capsys, "check", "-i", str(corpus_dir / "contested_pair.json"), "-m", str(matching)
    )


@pytest.mark.parametrize("value", [1.0, True, "0", [1]])
def test_malformed_full_key_matching_exits_2_as_the_sparse_form(
    capsys, corpus_dir, tmp_path, value
):
    # with a key for every agent the matching is read by key lookup; a bad
    # value there still gets the error line the per-entry loop writes
    errors = []
    for assignment in ({"1": value}, {"0": None, "1": value, "2": None}):
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"assignment": assignment}))
        code = main(
            ["check", "-i", str(corpus_dir / "contested_pair.json"), "-m", str(matching)]
        )
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1


@pytest.mark.parametrize("element", [1.7, True, "1", 1.0])
def test_non_integer_ranking_element_exits_2(capsys, corpus_dir, tmp_path, element):
    # a bare int() would truncate 1.7 to 1 and read True as 1; 1.0 hashes
    # and compares as 1, so only the element type check refuses it
    raw = json.loads((corpus_dir / "contested_pair.json").read_text())
    raw["categories"][0]["ranking"] = [0, element, 2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    _bad_input_exit(capsys, "solve", "-i", str(bad), "--rule", "da")


@pytest.mark.parametrize(
    "spec",
    [
        ["--capacity", "const:x"],
        ["--preferential-fraction", "0.5", "--tiers", "random:x"],
        ["--capacity", "uniform:3:1"],
        # text int() reads as an integer but that is not ASCII -?[0-9]+
        ["--capacity", "const:+1"],
        ["--capacity", "const: 1"],
        ["--capacity", "uniform:0:1_0"],
        ["--preferential-fraction", "0.5", "--tiers", "random:+2"],
        ["--tiers", "random:\uff12"],
        # K tiers to draw from: none, or fewer than none
        ["--tiers", "random:0"],
        ["--tiers", "random:-5"],
    ],
)
def test_gen_bad_spec_exits_2(capsys, tmp_path, spec):
    _bad_input_exit(
        capsys, "gen", "--agents", "3", "--categories", "2",
        "-o", str(tmp_path / "inst.json"), *spec,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--agents", "1_0", "--categories", "2"],
        ["gen", "--agents", "3", "--categories", " 2"],
        ["gen", "--agents", "3", "--categories", "2", "--seed", "\uff15"],
        ["gen", "--agents", "+3", "--categories", "2"],
        ["verify", "--rule", "da", "--seed", "1_0"],
        ["bench", "--sizes", "10", "--rules", "mma", "--repetitions", " 1"],
        ["bench", "--sizes", "10", "--rules", "mma", "--seed", "+0"],
        ["bench", "--sizes", "10", "--rules", "mma", "--categories", "1_0"],
    ],
)
def test_integer_option_exits_2_unless_plain_digits(capsys, argv):
    """An integer option takes ASCII ``-?[0-9]+`` only. argparse reports
    anything else ``int()`` would read as it reports ``--agents x``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "invalid int value" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--agents", "3", "--categories", "2", "--density", " 0.5"],
        ["gen", "--agents", "3", "--categories", "2", "--density", "0.0_5"],
        ["gen", "--agents", "3", "--categories", "2", "--density", "\uff10.\uff15"],
        ["gen", "--agents", "3", "--categories", "2", "--density", "5e-1"],
        ["gen", "--agents", "3", "--categories", "2", "--density", "nan"],
        ["gen", "--agents", "3", "--categories", "2", "--preferential-fraction", " 1"],
        ["gen", "--agents", "3", "--categories", "2", "--preferential-fraction", "+1"],
        ["gen", "--agents", "3", "--categories", "2", "--preferential-fraction", "inf"],
        ["bench", "--sizes", "10", "--rules", "mma", "--density", "0.1 "],
        ["bench", "--sizes", "10", "--rules", "mma", "--density", ""],
    ],
)
def test_float_option_exits_2_unless_plain_decimal(capsys, argv):
    """A float option takes ASCII ``-?`` digits with an optional ``.``
    fraction only. argparse reports anything else ``float()`` would read as
    it reports ``--density x``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "invalid float value" in err


def test_plain_decimal_options_are_read(capsys):
    outputs = set()
    for density in ("0.5", ".5", "0.50", "00.5"):
        code, out = run_cli(
            capsys, "gen", "--agents", "4", "--categories", "2", "--density", density,
            "--preferential-fraction", "1.", "--seed", "3",
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    # a negative decimal is read, and then refused by the range check
    _bad_input_exit(capsys, "gen", "--agents", "3", "--categories", "2", "--density", "-0.5")


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--sizes", "10", "--rules", "mma", "--repetitions", "-2"],
        ["bench", "--sizes", "10", "--rules", ""],
        ["bench", "--sizes", "10", "--rules", "mma,"],
        ["bench", "--sizes", "10", "--rules", "mma,,rev"],
        ["bench", "--sizes", "40,40", "--rules", "mma,rev"],
        ["bench", "--sizes", "10", "--rules", "mma,mma"],
    ],
)
def test_bench_request_that_times_nothing_exits_2(capsys, argv):
    """A negative repetition count or an empty rule name is bad input, not
    an empty table; a repeated size or rule is bad input, not a table whose
    rows or ratios read twice."""
    _bad_input_exit(capsys, *argv)


@pytest.mark.parametrize("rule", ["da", "rev", "mma"])
def test_trace_with_a_rule_that_writes_none_exits_2(capsys, corpus_dir, tmp_path, rule):
    trace = tmp_path / "trace.jsonl"
    _bad_input_exit(
        capsys, "solve", "-i", str(corpus_dir / "contested_pair.json"), "--rule", rule,
        "--baseline", "0,1,2", "--trace", str(trace),
    )
    assert not trace.exists()


def test_negative_integer_option_is_read(capsys):
    code, out = run_cli(capsys, "gen", "--agents", "2", "--categories", "1", "--seed", "-1")
    assert code == 0
    assert json.loads(out)["agents"] == 2


def _broken_rule(system):
    raise RuntimeError("boom")


def test_internal_error_exits_3(capsys, corpus_dir, monkeypatch):
    """A bug is neither bad input (2) nor a failed check (1): it exits 3,
    after its traceback and one ``internal error:`` line."""
    monkeypatch.setattr(cli, "da_allocate", _broken_rule)
    code = main(["solve", "-i", str(corpus_dir / "contested_pair.json"), "--rule", "da"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("Traceback (most recent call last):")
    assert err.count("internal error:") == 1
    assert err.splitlines()[-1] == "internal error: RuntimeError: boom"


_BREAK_DA = """
import reservematch.rules_basic

def da_allocate(system):
    raise RuntimeError("boom")

reservematch.rules_basic.da_allocate = da_allocate
"""


def test_internal_error_is_the_process_exit_code(corpus_dir, tmp_path):
    """``python -m reservematch.cli`` exits with main's code. A
    ``sitecustomize`` breaks ``da`` before the CLI module imports it."""
    (tmp_path / "sitecustomize.py").write_text(_BREAK_DA)
    src = pathlib.Path(reservematch.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tmp_path), str(src))))
    done = subprocess.run(
        [sys.executable, "-m", "reservematch.cli",
         "solve", "-i", str(corpus_dir / "contested_pair.json"), "--rule", "da"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 3
    assert done.stderr.splitlines()[-1] == "internal error: RuntimeError: boom"


_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import reservematch.cli
print(json.dumps({"new": sorted(set(sys.modules) - before), "all": sorted(sys.modules)}))
"""


def test_cli_import_loads_only_the_solve_path():
    """A fresh interpreter that imports the CLI loads neither ``dataclasses``
    (with ``inspect``) nor the ``bench``/``verify`` modules, but every layer
    the benchmark's traced run wraps."""
    src = pathlib.Path(reservematch.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(src)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    modules = json.loads(done.stdout)
    for name in ("dataclasses", "inspect", "statistics", "reservematch.harness"):
        assert name not in modules["new"], name
    targets = runpy.run_path(str(src.parent / "perfbench" / "spans.py"))["TARGETS"]
    for layer in targets:
        assert f"reservematch.{layer}" in modules["all"], layer


# ---------------------------------------------------------------------------
# The option surface, walked from the parser


# The solve options that only one rule reads, with a value that rule accepts
# on contested_pair.json (3 agents, 2 categories); None: a file the test
# writes.
_RULE_OPTIONS = {
    "--baseline": ("rev", "0,1,2"),
    "--seed-matching": ("mma", None),
    "--agent-order": ("mma", "2,0,1"),
    "--category-order": ("mma", "1,0"),
    "--impl": ("scu", "compact"),
    "--trace": ("scu", None),
}


def _value_options(command, types=None):
    """The long name of every option of the ``command`` subparser that takes
    a value, or only of those read through one of ``types``."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        max(action.option_strings, key=len)
        for action in sub.choices[command]._actions
        if action.option_strings and action.nargs != 0
        and (types is None or action.type in types)
    ]


# The two ways to give an option no value: ``--agents ""``, and ``--agents=--``,
# whose "--" argparse drops, storing an empty list unchecked by the type.
_NO_VALUE = ("", "=--")


def _rule_argv(rule, instance, output):
    argv = ["solve", "--instance", instance, "--rule", rule, "--output", output]
    return argv + (["--baseline", "0,1,2"] if rule == "rev" else [])


def _options_argv(argv, option, value):
    """``argv`` with ``option`` set to ``value``, replacing any value it had;
    a value that starts with ``=`` is joined to the option in one token."""
    tokens = [option + value] if value.startswith("=") else [option, value]
    if option in argv:
        at = argv.index(option)
        return argv[:at] + tokens + argv[at + 2:]
    return argv + tokens


def _exits_2_before_writing(capsys, argv, *paths):
    """One ``error:`` line and no traceback, exit 2, nothing on stdout and
    none of ``paths`` written; argparse's errors exit through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2, (argv, captured.err)
    assert captured.err.count("error:") == 1, captured.err
    assert "Traceback" not in captured.err, captured.err
    assert captured.out == ""
    for path in paths:
        assert not path.exists(), path


# each option with the rule that reads it; the options every rule reads with scu
_SOLVE_CASES = [
    (option, _RULE_OPTIONS[option][0] if option in _RULE_OPTIONS else "scu", value)
    for value in _NO_VALUE
    for option in _value_options("solve")
]


@pytest.mark.parametrize(
    "option, rule, value", _SOLVE_CASES, ids=[o + v for o, _, v in _SOLVE_CASES]
)
def test_solve_option_given_the_empty_string_exits_2(
    capsys, corpus_dir, tmp_path, option, rule, value
):
    """An empty path reaches ``open``, and an empty order is the empty list,
    which is no permutation of three agents: neither is ignored. ``=--``
    stores no value at all, which ``open`` and the rules do not take."""
    output = tmp_path / "out.json"
    argv = _rule_argv(rule, str(corpus_dir / "contested_pair.json"), str(output))
    _exits_2_before_writing(capsys, _options_argv(argv, option, value), output)


_FAILED_SOLVES = {
    "rev-without-baseline": ["--rule", "rev"],
    "rev-baseline-not-a-permutation": ["--rule", "rev", "--baseline", "0,0,1"],
    "mma-seed-not-maximum": ["--rule", "mma", "--seed-matching", "{seed}"],
    "mma-seed-ineligible": ["--rule", "mma", "--seed-matching", "{ineligible}"],
}


@pytest.mark.parametrize("case", sorted(_FAILED_SOLVES))
def test_failed_solve_writes_no_dot_export(capsys, corpus_dir, tmp_path, case):
    """The DOT exports are written only once the rule has run, so a rule
    that refuses its input leaves neither of them, nor the output, behind."""
    seed = tmp_path / "seed.json"
    seed.write_text(matching_to_json(Matching((0, None, None))))  # size 1 of 2
    ineligible = tmp_path / "ineligible.json"
    ineligible.write_text(matching_to_json(Matching((1, None, 0))))
    paths = [tmp_path / name for name in ("full.dot", "compact.dot", "out.json")]
    rule = [arg.format(seed=seed, ineligible=ineligible) for arg in _FAILED_SOLVES[case]]
    argv = ["solve", "-i", str(corpus_dir / "contested_pair.json"), *rule,
            "--dot", str(paths[0]), "--dot-compact", str(paths[1]), "-o", str(paths[2])]
    _exits_2_before_writing(capsys, argv, *paths)


# per case: argv over the files the test writes, and the line the refusal
# prints
_REFUSALS = {
    "oracle-space-over-the-bound": (
        ["check", "-i", "{oversized}", "-m", "{unmatched}", "--axiom", "respect-precedence",
         "--search", "oracle"],
        "error: estimated space exceeds bound 10000000\n",
    ),
    "mma-seed-ineligible": (
        ["solve", "-i", "{contested}", "--rule", "mma", "--seed-matching", "{ineligible}"],
        "error: seed matches agent 0 to ineligible category 1\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refused_input_exits_2_with_its_message(capsys, corpus_dir, tmp_path, case):
    """Input that the oracle's bound or mma's seed check refuses is bad
    input: one ``error:`` line naming the fault, exit 2."""
    files = {
        "oversized": instance_to_json(oversized_instance()),
        "unmatched": matching_to_json(Matching((None,) * 12)),
        # agent 0 in category 1 and agent 2 in category 0: both ineligible,
        # and the lower agent is named
        "ineligible": matching_to_json(Matching((1, None, 0))),
    }
    paths = {"contested": str(corpus_dir / "contested_pair.json")}
    for name, text in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    argv, err = _REFUSALS[case]
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == err and captured.out == ""


def test_oracle_search_skips_thousands_of_agents_eligible_nowhere(capsys, tmp_path):
    """Agents eligible nowhere leave the oracle's estimate as it is, so an
    instance within the bound can have thousands of them; the oracle does
    not enumerate them and agrees with the flow search."""
    raw = {
        "agents": 3000,
        "categories": [
            {"id": 0, "capacity": 1, "ranking": list(range(3000)), "eligible_cutoff": 1}
        ],
        "tiers": [0],
    }
    instance, matching = tmp_path / "instance.json", tmp_path / "matching.json"
    instance.write_text(json.dumps(raw))
    matching.write_text('{"assignment": {"0": 0}}')
    for search in ("oracle", "flow"):
        code = main(["check", "-i", str(instance), "-m", str(matching),
                     "--axiom", "respect-precedence", "--search", search])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, "respect-precedence: pass\n", ""), search


_GEN_CASES = [(option, value) for value in _NO_VALUE for option in _value_options("gen")]


@pytest.mark.parametrize(
    "option, value", _GEN_CASES, ids=[o + v for o, v in _GEN_CASES]
)
def test_gen_option_given_the_empty_string_exits_2(capsys, option, value):
    argv = ["gen", "--agents", "3", "--categories", "2"]
    _exits_2_before_writing(capsys, _options_argv(argv, option, value))


def _command_argv(command, corpus_dir, tmp_path):
    """A valid, quick argument vector of ``command`` (not ``solve``)."""
    matching = tmp_path / "m.json"
    matching.write_text(matching_to_json(Matching((None, None, None))))
    return {
        "gen": ["gen", "--agents", "3", "--categories", "2"],
        "check": ["check", "--instance", str(corpus_dir / "contested_pair.json"),
                  "--matching", str(matching)],
        "verify": ["verify", "--rule", "mma", "--sweep", "corpus"],
        "bench": ["bench", "--sizes", "4", "--rules", "mma", "--repetitions", "1"],
    }[command]


_COMMAND_CASES = [
    (command, option, value)
    for value in _NO_VALUE
    for command in ("check", "verify", "bench")
    for option in _value_options(command)
]


@pytest.mark.parametrize(
    "command, option, value",
    _COMMAND_CASES,
    ids=[c + o + v for c, o, v in _COMMAND_CASES],
)
def test_command_option_given_the_empty_string_exits_2(
    capsys, corpus_dir, tmp_path, command, option, value
):
    """``check``, ``verify`` and ``bench``: an empty value is refused, never
    read as no value (``bench --sizes ""`` printed an empty table)."""
    argv = _command_argv(command, corpus_dir, tmp_path)
    _exits_2_before_writing(capsys, _options_argv(argv, option, value))


@pytest.mark.parametrize("value", _NO_VALUE, ids=["empty", "=--"])
def test_format_given_no_value_exits_2(capsys, value):
    """The top-level option: ``--format=--`` printed the text report."""
    argv = _options_argv([], "--format", value) + ["gen", "--agents", "3", "--categories", "2"]
    _exits_2_before_writing(capsys, argv)


# MALFORMED_NUMBERS fed to every option with an integer or float type; a
# seed may be any integer, so only the other options get the negative.
_TYPED_CASES = [
    (command, option, token)
    for command in ("gen", "verify", "bench")
    for option in _value_options(command, (cli._integer, cli._float))
    for token in MALFORMED_NUMBERS + (() if option == "--seed" else ("-1",))
]


@pytest.mark.parametrize(
    "command, option, token",
    _TYPED_CASES,
    ids=[f"{c}{o}:{ascii(t)}" for c, o, t in _TYPED_CASES],
)
def test_typed_option_given_a_malformed_token_exits_2(
    capsys, corpus_dir, tmp_path, command, option, token
):
    argv = _command_argv(command, corpus_dir, tmp_path)
    _exits_2_before_writing(capsys, _options_argv(argv, option, token))


_CROSS_RULE_CASES = [
    (option, rule)
    for option, (own, _) in _RULE_OPTIONS.items()
    for rule in cli.RULES
    if rule != own
]


@pytest.mark.parametrize("option, rule", _CROSS_RULE_CASES)
def test_rule_option_given_to_another_rule_exits_2(capsys, corpus_dir, tmp_path, option, rule):
    """An option only one rule reads is bad input with any other rule, and
    is refused before anything is written."""
    output, trace = tmp_path / "out.json", tmp_path / "trace.jsonl"
    seed = tmp_path / "seed.json"
    seed.write_text(matching_to_json(Matching((None, None, None))))
    value = _RULE_OPTIONS[option][1] or str(trace if option == "--trace" else seed)
    argv = _rule_argv(rule, str(corpus_dir / "contested_pair.json"), str(output))
    _exits_2_before_writing(capsys, argv + [option, value], output, trace)


def test_rule_options_are_options_of_solve():
    """A renamed option would pass its cross-rule cases through argparse's
    unrecognized-argument error, so the table must name real options."""
    assert set(_RULE_OPTIONS) <= set(_value_options("solve"))


# ---------------------------------------------------------------------------
# The garbage collector: paused per command, the caller's setting restored


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    """The collector's setting before the test's call, restored after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if before else gc.disable)()


# per exit code: the command, and argv on the corpus
_EXIT_CASES = {
    0: ("solve", ["solve", "-i", "precedence_chain.json", "--rule", "scu"]),
    1: ("check", ["check", "-i", "precedence_chain.json", "-m", "precedence_chain_parked.json",
                  "--axiom", "respect-precedence"]),
    2: ("solve", ["solve", "-i", "missing.json", "--rule", "da"]),
    3: ("solve", ["solve", "-i", "precedence_chain.json", "--rule", "da"]),
}


@pytest.mark.parametrize("code", sorted(_EXIT_CASES))
def test_main_pauses_the_collector_for_the_command(
    capsys, corpus_dir, monkeypatch, collecting, code
):
    """The command runs with the collector off, and main leaves it as it
    found it, on every exit code (3: the command raises)."""
    command, argv = _EXIT_CASES[code]
    original = getattr(cli, f"cmd_{command}")
    seen = []

    def recorder(args):
        seen.append(gc.isenabled())
        if code == 3:
            raise RuntimeError("boom")
        return original(args)

    monkeypatch.setattr(cli, f"cmd_{command}", recorder)
    argv = [str(corpus_dir / arg) if arg.endswith(".json") else arg for arg in argv]
    assert main(argv) == code
    capsys.readouterr()
    assert seen == [False]
    assert gc.isenabled() is collecting


def _premise_instance(tmp_path, n):
    """An ``n``-agent instance with strict tiers, on which ``mma`` fails
    respect-precedence."""
    system = cli.GeneratorSpec(
        n, 10, capacity=f"const:{n // 20}", density=0.3, preferential_fraction=0.4,
        tier_scheme="strict", seed=1,
    ).build()
    path = tmp_path / f"instance-{n}.json"
    path.write_text(instance_to_json(system))
    return path


def _cyclic_garbage(capsys, n, tmp_path):
    """Per command on the ``n``-agent instance: its exit code, and the
    objects ``gc.collect()`` frees after it ran with the collector off."""
    inst, out = str(_premise_instance(tmp_path, n)), tmp_path / f"out-{n}"
    out.mkdir()
    scu_files = ["--trace", str(out / "trace"), "--dot", str(out / "dot"),
                 "--dot-compact", str(out / "dot-compact")]
    commands = {
        "da": ["solve", "-i", inst, "--rule", "da"],
        "rev": ["solve", "-i", inst, "--rule", "rev", "--baseline", ",".join(map(str, range(n)))],
        "mma": ["solve", "-i", inst, "--rule", "mma", "-o", str(out / "mma.json")],
        **{
            impl: ["solve", "-i", inst, "--rule", "scu", "--impl", impl, *scu_files,
                   "-o", str(out / "scu.json")]
            for impl in cli.IMPLEMENTATIONS
        },
        "check": ["--format", "json", "check", "-i", inst, "-m", str(out / "scu.json")],
        "refute": ["--format", "json", "check", "-i", inst, "-m", str(out / "mma.json")],
        "gen": ["gen", "--agents", str(n), "--categories", "10", "--tiers", "strict"],
    }
    found = {}
    before = gc.isenabled()
    gc.disable()
    try:
        for name, argv in commands.items():
            gc.collect()
            code = main(argv)
            found[name] = (code, gc.collect())
            printed = capsys.readouterr().out
            if name == "refute":
                failed = {v["axiom"]: v for v in json.loads(printed) if not v["pass"]}
                assert "witness" in failed["respect-precedence"]
    finally:
        if before:
            gc.enable()
    return found


def test_commands_leave_no_cyclic_garbage_that_grows_with_the_input(capsys, tmp_path):
    """The premise of the per-command pause: what the collector would free
    after a command does not grow from 40 to 400 agents, so a pause leaves
    no garbage in proportion to the input."""
    main(["gen", "--agents", "1", "--categories", "1"])  # builds the cached parser
    capsys.readouterr()
    small, large = (_cyclic_garbage(capsys, n, tmp_path) for n in (40, 400))
    assert {name: code for name, (code, _) in small.items()} == {
        **dict.fromkeys(small, 0), "refute": 1
    }
    assert large == small
