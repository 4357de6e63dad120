"""Tests for the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import instances  # noqa: E402
import outcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

run.load_program()

SMALL_REV = run.Workload(
    "rev-tiny",
    instances.InstanceSpec(agents=30, categories=4, capacity=3, density=0.4),
    ("--rule", "rev"),
    axioms=(),
    refute_fails=("max-cardinality", "non-wastefulness", "respect-priorities"),
    baseline=True,
)


@pytest.mark.parametrize("wl", list(run.WORKLOADS.values()), ids=list(run.WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(wl):
    first = instances.to_json(instances.build(wl.spec, 7))
    assert instances.to_json(instances.build(wl.spec, 7)) == first
    assert instances.to_json(instances.build(wl.spec, 8)) != first


def test_instance_files_repeat_per_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    made_a = run.make_instances(SMALL_REV, 3, 2, a)
    made_b = run.make_instances(SMALL_REV, 3, 2, b)
    for x, y in zip(made_a, made_b):
        assert x.path.read_bytes() == y.path.read_bytes()
        assert x.extra_args == y.extra_args


def test_percentile_reports_count_and_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 90) == (90.0, 100, 10)
    assert run.percentile(values, 50) == (50.0, 100, 50)
    assert run.percentile(values[:25], 60) == (90.0, 25, 10)
    assert run.percentile([4.0], 90) == (4.0, 1, 0)
    with pytest.raises(ValueError):
        run.percentile([], 50)



def test_scaling_cancels_machine_speed():
    # A call of 0.3 CPU seconds between kernel runs of 2 * REF_S ran at half
    # the reference speed, so it is 0.15 reference seconds.
    assert calib.scale(0.3, 2 * calib.REF_S, 2 * calib.REF_S) == pytest.approx(0.15)
    assert calib.scale(0.3, calib.REF_S, 3 * calib.REF_S) == pytest.approx(0.15)
    assert calib.kernel() == calib.kernel()

def test_self_time_on_nested_spans():
    # root 0..10 holds a 1..4 (which holds b 2..3) and c 5..9
    tree = [
        spans.Span("op.solve", 0.0, 10.0, -1, 0),
        spans.Span("x.a", 1.0, 4.0, 0, 0),
        spans.Span("x.b", 2.0, 3.0, 1, 0),
        spans.Span("x.c", 5.0, 9.0, 0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_on_nested_spans():
    rec = spans.Recorder()
    rec.spans = [
        # op 0: the solve holds rev_allocate, which holds two matchings
        spans.Span("op.solve", 0.0, 10.0, -1, 0),
        spans.Span("rules_basic.rev_allocate", 1.0, 9.0, 0, 0),
        spans.Span("bipartite.maximum_matching", 2.0, 3.0, 1, 0),
        spans.Span("bipartite.maximum_matching", 4.0, 6.0, 1, 0),
        # op 1
        spans.Span("op.solve", 20.0, 24.0, -1, 1),
        spans.Span("rules_basic.rev_allocate", 20.0, 24.0, 4, 1),
        spans.Span("bipartite.maximum_matching", 21.0, 22.0, 5, 1),
    ]
    rec.counts[(0, "bipartite.assign")] = 5
    rec.counts[(1, "bipartite.unassign")] = 2
    rec.counts[(9, "bipartite.assign")] = 100  # not a traced op
    out = spans.layer_metrics(rec, [0, 1], [])
    assert out["rules_basic.rev_allocate.self_s"] == pytest.approx((5.0 + 3.0) / 2)
    assert out["bipartite.maximum_matching.s"] == pytest.approx((3.0 + 1.0) / 2)
    assert out["bipartite.maximum_matching.calls"] == 3
    assert out["bipartite.moves"] == 7
    assert out["rules_basic.solve_share"] == pytest.approx(8.0 / 14.0)
    assert out["bipartite.solve_share"] == pytest.approx(4.0 / 14.0)
    assert set(out) == set(spans.metric_names())


def test_traced_restores_every_wrapped_function():
    from reservematch import bipartite, rules_basic, rules_sequential

    before = (rules_basic.maximum_matching, bipartite.GraphMatching.assign)
    rec = spans.Recorder()
    with spans.traced(rec):
        assert rules_basic.maximum_matching is rules_sequential.maximum_matching
        assert rules_basic.maximum_matching is bipartite.maximum_matching
        assert rules_basic.maximum_matching is not before[0]
    assert (rules_basic.maximum_matching, bipartite.GraphMatching.assign) == before


def test_tampered_expected_digest_counts_as_failed_op(tmp_path):
    gate_instances = run.make_instances(SMALL_REV, run.DEFAULT_SEED, 1, tmp_path)
    result = run.run_op(SMALL_REV, gate_instances[0], tmp_path)
    assert result.error is None
    expected = [dict(result.digests)]
    assert run.gate(SMALL_REV, gate_instances, expected, tmp_path) == run.Tally(1, 0)
    expected[0]["solve"] = "0" * 64
    assert run.gate(SMALL_REV, gate_instances, expected, tmp_path) == run.Tally(1, 1)


def test_outcheck_and_tamper_agree_with_the_refute_expectation(tmp_path):
    inst = run.make_instances(SMALL_REV, 5, 1, tmp_path)[0]
    result = run.run_op(SMALL_REV, inst, tmp_path)
    assert result.error is None
    raw = instances.build(SMALL_REV.spec, run.instance_seed(5, 0))
    assignment = outcheck.read_assignment((tmp_path / "out.json").read_text(), raw["agents"])
    assert outcheck.violations(raw, assignment) == []
    tampered = outcheck.tamper(raw, assignment)
    assert outcheck.violations(raw, tampered) == ["non-wastefulness", "respect-priorities"]
    first = raw["categories"][0]
    outsider = first["ranking"][first["eligible_cutoff"]]
    ineligible = list(assignment)
    ineligible[outsider] = 0
    assert "eligibility" in outcheck.violations(raw, ineligible)
