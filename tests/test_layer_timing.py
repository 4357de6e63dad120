"""The pure parts of the layer timers' driver, ``tools/layer_timing.py``:
the timers it puts on module attributes, the merging and summaries of the
children's samples, and the reference-second scaling; and the targets of
every ``tools/bench_*.py`` timer. No process is started."""

from __future__ import annotations

import gc
import importlib
import itertools
import pathlib
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import layer_timing  # noqa: E402

TIMERS = sorted(path.stem for path in (ROOT / "tools").glob("bench_*.py"))


@pytest.mark.parametrize("script", TIMERS)
def test_every_timer_target_resolves_in_src(script):
    """A timer looks its (module, attribute) pairs up only when it runs, so
    a renamed function would break it unseen: each pair of each layer map
    (one per kind of op where a script has several) names a function of the
    ``reservematch`` under test."""
    timer = importlib.import_module(script)
    if hasattr(timer, "MAPS"):  # bench_ops: one layer map per kind of op
        maps = [timer._layers(name) for name in timer.MAPS]
    else:
        maps = [timer._layers()]
    for layers in maps:
        for layer, (home, name) in layers.items():
            module = sys.modules[getattr(home, "__module__", home.__name__)]
            assert pathlib.Path(module.__file__).is_relative_to(ROOT / "src"), (script, layer)
            assert callable(getattr(home, name, None)), f"{script}: {layer} times {name}"


@pytest.mark.parametrize("script", TIMERS)
def test_every_timer_measures_its_layers_and_they_sum_to_the_total(monkeypatch, script):
    """Each timer's ``measure()`` on its fewest ops, one seed or size and
    one repeat, in this process: the samples are keyed by the script's
    layers, and in every op the layers' own times are non-negative and sum
    to the op's total. Each layer is a phase, entered at most twice per op
    (the dual maximum's two stages): a timed call costs microseconds, and a
    layer entered once per step would skew the split it reports."""
    timer = importlib.import_module(script)
    monkeypatch.setattr(timer, "REPEATS", 1)
    for name in ("SEEDS", "SIZES"):
        if hasattr(timer, name):
            monkeypatch.setattr(timer, name, getattr(timer, name)[:1])
    entered = []
    run = layer_timing.LayerClock.run

    def counted_run(clock, op, *args, **kwargs):
        result = run(clock, op, *args, **kwargs)
        entered.append(dict(clock.calls))
        return result

    monkeypatch.setattr(layer_timing.LayerClock, "run", counted_run)
    rows = list(layer_timing._rows(timer.measure()))
    assert rows and entered
    for calls in entered:
        assert max(calls.values()) <= 2, calls
    for path, layers in rows:
        if hasattr(timer, "MAPS"):  # bench_ops: rows by workload and kind, each on its map
            expected = (*timer._layers(timer.map_name(*path)), "rest", "total")
        else:
            expected = timer.LAYERS
        assert tuple(layers) == expected, path
        own = [samples for layer, samples in layers.items() if layer != "total"]
        for op, total in enumerate(layers["total"]):
            assert min(samples[op] for samples in own) >= -1e-9, (path, op)
            assert sum(samples[op] for samples in own) == pytest.approx(total, abs=1e-9), (path, op)


def _module():
    inner = types.SimpleNamespace(fn=lambda x: x + 1)
    outer = types.SimpleNamespace(fn=lambda x: inner.fn(x) * 2)
    return inner, outer


def test_patched_functions_are_restored_after_a_timed_call_raises():
    inner, outer = _module()
    originals = (inner.fn, outer.fn)
    clock = layer_timing.LayerClock({"inner": (inner, "fn"), "outer": (outer, "fn")})
    with pytest.raises(TypeError):
        with clock.patched():
            assert (inner.fn, outer.fn) != originals
            clock.run(outer.fn, "x")
    assert (inner.fn, outer.fn) == originals
    assert clock.calls == {"inner": 1, "outer": 1}


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_paused_op_runs_with_the_collector_off_and_restores_it(collecting):
    """``collector_paused`` pauses the collector as ``cli.main`` does: off
    inside the op, the caller's setting back after a return or a raise."""
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert layer_timing.collector_paused(gc.isenabled)() is False
        assert gc.isenabled() is collecting
        with pytest.raises(ZeroDivisionError):
            layer_timing.collector_paused(lambda: 1 / 0)()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


def _nest(path, layers):
    for key in reversed(path):
        layers = {key: layers}
    return layers


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


# a flat timer nests samples by layer, bench_precedence.py by size then
# layer, bench_ops.py by workload, kind, then layer
@pytest.mark.parametrize("path", [(), ("2000",), ("mma-large", "refute")])
def test_children_samples_merge_and_summarise_at_each_depth(path):
    samples: dict = {}
    for child in range(3):
        layer_timing.merge(samples, _nest(path, {"total": [child, child + 10], "hk": [1]}))
    assert samples == _nest(path, {"total": [0, 10, 1, 11, 2, 12], "hk": [1, 1, 1]})

    halved = layer_timing.leaves(lambda v: [x / 2 for x in v], samples)
    report = layer_timing.report({"a": samples, "b": halved}, {"repeats_per_run": 5})
    assert report["settings"] == {
        "clock": layer_timing.CLOCK,
        "repeats_per_run": 5,
        "rounds": layer_timing.ROUNDS,
        "sides": ["a", "b"],
    }
    assert _at(report["runs"]["a"], path) == {
        "total": {"n": 6, "p25": 0.75, "p50": 6.0, "p75": 11.25},
        "hk": {"n": 3, "p25": 1.0, "p50": 1.0, "p75": 1.0},
    }
    assert _at(report["speedup_over_a"]["b"], path) == {"total": 2.0, "hk": 2.0}


# kernel readings before and after the op, in REF_S, and their mean
@pytest.mark.parametrize("readings, mean", [((1, 1), 1), ((2, 2), 2), ((1, 3), 2)])
def test_a_kernel_slower_than_the_reference_scales_every_layer_down(monkeypatch, readings, mean):
    """Each process_time call reads one tick more than the last, so every
    layer's CPU time is a fixed count of ticks."""
    ticks = itertools.count()
    kernel = (reading * layer_timing.calib.REF_S for reading in readings)
    monkeypatch.setattr(layer_timing, "time", types.SimpleNamespace(process_time=ticks.__next__))
    monkeypatch.setattr(layer_timing.calib, "kernel_s", kernel.__next__)
    inner, outer = _module()
    clock = layer_timing.LayerClock({"inner": (inner, "fn"), "outer": (outer, "fn")})
    with clock.patched():
        result, spent = clock.run(outer.fn, 1)
    assert result == 4
    # total: ticks 0..5; outer: 1..4 less inner: 2..3
    assert spent == pytest.approx(
        {"inner": 1 / mean, "outer": 2 / mean, "rest": 2 / mean, "total": 5 / mean}
    )
