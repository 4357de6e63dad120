from __future__ import annotations

import json

import pytest

from reservematch.cli import main
from reservematch.model import matching_to_json, Matching


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
    "content", [b"[" * 200000, b'{"agents": "\xff"}'], ids=["deep", "not-utf8"]
)
@pytest.mark.parametrize(
    "role", ["solve-instance", "check-instance", "check-matching", "seed-matching"]
)
def test_unreadable_json_exits_2(capsys, corpus_dir, tmp_path, role, content):
    """A file nested too deeply for the JSON parser, or not UTF-8 at all,
    is bad input wherever it is read."""
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
        # an array, not an object: read as pairs it would place agent 1 in category 0
        ["10"],
        [["0", 1]],
    ],
)
def test_malformed_matching_exits_2(capsys, corpus_dir, tmp_path, assignment):
    matching = tmp_path / "m.json"
    matching.write_text(json.dumps({"assignment": assignment}))
    _bad_input_exit(
        capsys, "check", "-i", str(corpus_dir / "contested_pair.json"), "-m", str(matching)
    )


@pytest.mark.parametrize("element", [1.7, True])
def test_non_integer_ranking_element_exits_2(capsys, corpus_dir, tmp_path, element):
    # a bare int() would truncate 1.7 to 1 and read True as 1
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
    ],
)
def test_gen_bad_spec_exits_2(capsys, tmp_path, spec):
    _bad_input_exit(
        capsys, "gen", "--agents", "3", "--categories", "2",
        "-o", str(tmp_path / "inst.json"), *spec,
    )
