"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import calib
import spans
import suite
from spans import SpanTracer

from repro.bench.workloads import WORKLOADS
from repro.dift.shadow import shadow_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(spec, tmp_path, trace=False):
    # a constant calibration rate: scaling is the identity
    return suite.Run(spec, 1, trace, str(tmp_path),
                     calib.Calibrator(lambda: calib.REF_MOPS), SpanTracer())


def _straight(leg, sliced):
    """A fresh platform of ``leg`` run without slicing to where the
    sliced one stands (or to its end, if it halted)."""
    platform = leg.make()
    if sliced.reason == "halt":
        return platform, platform.run()
    return platform, platform.run(pause_at=leg.platform.total_instructions)


def _assert_same_state(leg, straight, result):
    sliced = leg.last
    assert (result.instructions, result.reason, result.sim_time.ps,
            result.exit_code) == (sliced.instructions, sliced.reason,
                                  sliced.sim_time.ps, sliced.exit_code), \
        leg.key
    assert straight.console() == leg.platform.console(), leg.key
    assert suite._violations(result) == suite._violations(sliced), leg.key
    if straight.engine is not None:
        fill = straight.engine.default_tag
        assert (shadow_digest(straight.memory.tags, fill)
                == shadow_digest(leg.platform.memory.tags, fill)), leg.key


@pytest.mark.parametrize("trace", [False, True])
def test_round_robin_slices_match_a_straight_run(tmp_path, trace):
    spec = dataclasses.replace(
        suite.SPECS["peripheral-taint"], slice_instructions=4000,
        guests=lambda seed: [
            (name, suite._with_program(WORKLOADS[name],
                                       WORKLOADS[name].build("quick")))
            for name in ("simple-sensor", "immo-fixed")])
    run = _run(spec, tmp_path, trace)
    prepared, __ = suite.setup_once(run)
    for __ in range(3):
        for __, legs in prepared.guests:
            assert suite.advance(run, legs) is None
    assert run.ops.failed == 0 and run.ops.attempted > 0
    for __, legs in prepared.guests:
        for leg in legs:
            assert len(leg.slices) == 3
            straight, result = _straight(leg, leg.last)
            _assert_same_state(leg, straight, result)
    if trace:
        traced = [leg for __, legs in prepared.guests for leg in legs
                  if leg.traced]
        assert all(run.tracer.self_time(leg.key, "cpu.run") > 0
                   for leg in traced)
        assert all(run.tracer.total(leg.key, "tlm.b_transport") > 0
                   for leg in traced)


def test_halting_guest_matches_a_straight_run(tmp_path):
    spec = dataclasses.replace(
        suite.SPECS["attack-campaign"],
        guests=lambda seed: suite._attack_guests(seed, "benign", 1))
    run = _run(spec, tmp_path)
    prepared, __ = suite.setup_once(run)
    (__, legs), = prepared.guests
    assert suite.advance(run, legs) is None
    assert {leg.last.reason for leg in legs} == {"halt"}
    for leg in legs:
        straight, result = _straight(leg, leg.last)
        _assert_same_state(leg, straight, result)


def test_disagreeing_legs_are_failed_operations(tmp_path):
    spec = dataclasses.replace(
        suite.SPECS["attack-campaign"],
        guests=lambda seed: suite._attack_guests(seed, "attack", 1))
    run = _run(spec, tmp_path)
    prepared, __ = suite.setup_once(run)
    (__, legs), = prepared.guests
    # the plain VP runs the injected payload to completion; every DIFT
    # engine stops it, so the legs cannot agree
    assert suite.advance(run, legs) is not None
    assert run.ops.failed == run.ops.attempted == len(legs)


def test_span_self_time_excludes_nested_spans(monkeypatch):
    ticks = iter(range(100))
    tracer = SpanTracer()
    with monkeypatch.context() as patched:
        # the wrappers capture the clock when they are made
        patched.setattr(spans.time, "perf_counter", lambda: next(ticks))
        bus = tracer.wrap("bus", lambda again: again and bus(False))
        cpu = tracer.wrap("cpu", lambda: bus(True))
    tracer.current = "leg"
    cpu()   # cpu 0..5 > bus 1..4 > bus 2..3
    assert (tracer.total("leg", "cpu"), tracer.self_time("leg", "cpu")) \
        == (5, 2)
    # a re-entered span counts once in the total, in each self time
    assert tracer.total("leg", "bus") == 3
    assert tracer.self_time("leg", "bus") == 3
    tracer.current = None
    cpu()
    assert tracer.total("leg", "cpu") == 5


# ---------------------------------------------------------------------- #
# calibration arithmetic
# ---------------------------------------------------------------------- #

def test_time_factor_against_a_fake_rate():
    assert calib.time_factor(calib.REF_MOPS) == 1.0
    assert calib.time_factor(2 * calib.REF_MOPS) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calib.time_factor(0.0)


def test_calibrator_brackets_each_span():
    rates = iter([1.0, 2.0, 4.0])
    calibrator = calib.Calibrator(lambda: next(rates))
    assert calibrator.sample() == 1.0   # nothing before it yet
    assert calibrator.sample() == pytest.approx(1.5)
    assert calibrator.sample() == pytest.approx(3.0)
    assert calibrator.median() == 2.0


def test_median_rate_scales_each_sample():
    fast = 2 * calib.REF_MOPS
    # 100 units of work per sample; the middle sample is the median
    samples = [(100, 1.0, fast), (100, 3.0, fast), (100, 2.0, fast)]
    assert suite.median_rate([samples], scaled=False) == pytest.approx(50.0)
    # a host twice the reference speed: the same seconds count double
    assert suite.median_rate([samples], scaled=True) == pytest.approx(25.0)
    # groups are weighted by their work, not averaged
    slow = [(300, 12.0, calib.REF_MOPS)]
    assert suite.median_rate([samples, slow], scaled=True) == \
        pytest.approx(600 / (300 * 0.04 + 300 * 0.04))


def test_tail_leaves_ten_samples_above():
    assert suite.tail([float(v) for v in range(1, 121)]) == (90.0, 108.0, 12)
    assert suite.tail([float(v) for v in range(1, 201)]) == (95.0, 190.0, 10)
    # too few samples for any tail: the median stands in
    assert suite.tail([1.0, 2.0, 3.0]) == (50.0, 2.0, 1)


# ---------------------------------------------------------------------- #
# the benchmark definition
# ---------------------------------------------------------------------- #

def _definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_names_follow_the_grammar():
    definition = _definition()
    names = [w["name"] for w in definition["workloads"]]
    names += [m["name"] for m in definition["end_to_end"]]
    names += [m["name"] for m in definition["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))


def test_workloads_match_the_runner():
    definition = _definition()
    assert [w["name"] for w in definition["workloads"]] == list(suite.SPECS)
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
