"""Workloads and measurement phases of the benchmark.

Every workload runs the same four phases, on its own guests:

1. **set-up** — build the guests, construct and load one platform per
   engine leg, generate the campaign matrix; repeated and the median
   reported (``setup_s``);
2. **engine legs** — every guest on the four engines (VP, VP+, VP+d,
   VP+d with the trace compiler), all legs live at once and advanced
   round-robin in equal instruction slices through
   ``Platform.run(pause_at=...)``, with a calibration sample after every
   slice (``mips_*``);
3. **reanalysis** — ``reanalyze_stream`` over event streams recorded
   from the workload's guests (``reanalyze_mips``);
4. **campaign** — the workload's job matrix through ``run_campaign``
   with an empty result cache, then resubmitted against the full cache
   (``campaign_jobs_per_s``, ``cached_jobs_per_s``, ``job_*``).

Every timed operation — a leg slice, a reanalysis, a set-up, a campaign
submission — is followed by a calibration sample (:mod:`calib`) and
scaled with the samples on both sides of it; metrics are medians over
many such operations.

The workloads differ in which layers those phases exercise; see
README.md for the layer -> metric -> workload table.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import calib
from spans import SpanTracer

from repro.bench.workloads import WORKLOADS, Workload, get_workload
from repro.campaign import (
    ResultCache,
    aggregate,
    deterministic_view,
    parse_matrix,
    run_campaign,
)
from repro.dift.engine import RECORD
from repro.dift.shadow import shadow_digest
from repro.gen.campaign import make_matrix, parse_gen_name
from repro.obs import Observability
from repro.sw import qsort, sha512
from repro.vp.platform import Platform

#: (key, dift, dift_mode, jit) — the four engines of the paper's Table II
#: plus the trace compiler on the fastest configuration that still detects
ENGINES = (
    ("vp", False, "full", False),
    ("vpplus", True, "full", False),
    ("vpd", True, "demand", False),
    ("vpd_jit", True, "demand", True),
)

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 5

TERMINAL_OK = ("paused", "halt")


# ---------------------------------------------------------------------- #
# workload definitions
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Spec:
    """One benchmark workload.

    ``guests(seed)`` returns ``(label, workload)`` pairs for the engine
    legs, ``streams(seed)`` the guests whose recorded event streams are
    reanalyzed, ``matrix(seed)`` the campaign's matrix document.  The
    number of rounds and passes derives from ``--seconds`` through the
    ``*_per_s`` rates only, so a run does the same work on every host.
    """

    guests: Callable[[int], List[Tuple[str, Workload]]]
    streams: Callable[[int], List[Tuple[str, Workload]]]
    matrix: Callable[[int], dict]
    slice_instructions: int
    rounds_per_s: float
    stream_instructions: int
    passes_per_s: float
    #: compute guests never raise a violation; peripheral guests may, as
    #: long as every DIFT engine raises the same ones
    zero_violations: bool
    warm_start: bool = False


def _with_program(workload: Workload, program) -> Workload:
    """``workload`` with a prebuilt program (restarts skip assembly)."""
    return dataclasses.replace(workload, build=lambda scale: program)


def _derived(seed: int, salt: int) -> int:
    return (seed * 0x9E3779B1 + salt) & 0xFFFFFFFF


def _compute_guests(seed):
    return [
        ("qsort", _with_program(WORKLOADS["qsort"],
                                qsort.build(n=16000,
                                            seed=_derived(seed, 1)))),
        ("dhrystone", _with_program(WORKLOADS["dhrystone"],
                                    WORKLOADS["dhrystone"].build("full"))),
        ("sha512", _with_program(WORKLOADS["sha512"],
                                 sha512.build(n=12 * 1024,
                                              seed=_derived(seed, 2)))),
    ]


def _peripheral_guests(seed):
    # the seed reaches these guests as the platform seed (sensor data)
    return [(name, _with_program(WORKLOADS[name],
                                 WORKLOADS[name].build("full")))
            for name in ("simple-sensor", "immo-fixed")]


#: campaign jobs per run on every workload: enough for a p90/p95 job-time
#: tail and for seed-to-seed changes of the corpus to average out
CAMPAIGN_JOBS = 200

#: jobs per cold submission: a run makes many short submissions rather
#: than one long one, so the median over them, each scaled with the
#: calibration next to it, rejects the host's slow moments
CAMPAIGN_CHUNK = 10

#: whole-matrix resubmissions against the full cache
CACHED_REPEATS = 3

#: calibration measurements per sample around a campaign submission: a
#: submission ends with its workers exiting, and a single 4 ms sample
#: taken then reads anywhere from a third to all of the host's speed
CAMPAIGN_CALIB = 5


def _registry_matrix(names, seed, max_instructions):
    """Registry guests x {full, demand} x platform seeds."""
    seeds = CAMPAIGN_JOBS // (2 * len(names))
    return {
        "schema": "repro.campaign.matrix/1",
        "defaults": {"scale": "quick", "max_instructions": max_instructions},
        "axes": {"workload": list(names), "dift_mode": ["full", "demand"],
                 "seed": [_derived(seed, salt) for salt in range(seeds)]},
    }


#: corpus cases per attack-campaign run (x2 variants x2 modes = jobs)
ATTACK_CASES = CAMPAIGN_JOBS // 4


def _attack_matrix(seed):
    return make_matrix(seed, ATTACK_CASES)


def _attack_guests(seed, variant, count):
    names = [name for name in _attack_matrix(seed)["axes"]["workload"]
             if parse_gen_name(name)[1] == variant]
    return [(name, get_workload(name)) for name in names[:count]]


SPECS: Dict[str, Spec] = {
    "compute": Spec(
        guests=_compute_guests,
        streams=_compute_guests,
        matrix=lambda seed: _registry_matrix(
            ("qsort", "dhrystone", "sha512"), seed, 10_000),
        slice_instructions=30_000,
        rounds_per_s=0.8,
        stream_instructions=15_000,
        passes_per_s=0.5,
        zero_violations=True,
    ),
    "peripheral-taint": Spec(
        guests=_peripheral_guests,
        streams=_peripheral_guests,
        matrix=lambda seed: _registry_matrix(
            ("simple-sensor", "immo-fixed"), seed, 10_000),
        slice_instructions=12_000,
        rounds_per_s=0.8,
        stream_instructions=10_000,
        passes_per_s=0.5,
        zero_violations=False,
    ),
    "attack-campaign": Spec(
        guests=lambda seed: _attack_guests(seed, "benign", 8),
        streams=lambda seed: _attack_guests(seed, "attack", 24),
        matrix=_attack_matrix,
        slice_instructions=30_000,
        rounds_per_s=0.5,
        stream_instructions=200_000,
        passes_per_s=0.2,
        zero_violations=False,
        warm_start=True,
    ),
}


def phase_sizes(spec: Spec, seconds: float, trace: bool) -> dict:
    """Rounds/passes per phase: a function of ``--seconds`` only.

    A traced run advances twice as many legs per round (every engine
    has an untraced twin), so it runs half the rounds.
    """
    rounds = max(3, round(seconds * spec.rounds_per_s))
    return {
        "rounds": max(3, rounds // 2) if trace else rounds,
        "passes": max(3, round(seconds * spec.passes_per_s)),
    }


# ---------------------------------------------------------------------- #
# shared state of one run
# ---------------------------------------------------------------------- #

@dataclass
class Ops:
    """Operations attempted/failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, ok: bool, count: int, message: str) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.errors.append(message)


@dataclass
class Run:
    spec: Spec
    seed: int
    trace: bool
    workdir: str
    calibrator: calib.Calibrator
    tracer: SpanTracer
    ops: Ops = field(default_factory=Ops)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def timed(self, fn, *args, calib_samples=1, **kwargs):
        """``(result, raw_seconds, host_mops)`` of one call; the rate is
        the mean of the calibration samples just before and after it,
        each the median of ``calib_samples`` measurements."""
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        return result, elapsed, self.calibrator.sample(calib_samples)


def workers() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Larger of ``ru_maxrss`` for this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------- #
# phase 1: set-up
# ---------------------------------------------------------------------- #

@dataclass
class Leg:
    """One guest on one engine; rebuilt when its guest halts."""

    guest: str
    engine: str
    make: Callable[[], Platform]
    traced: bool
    platform: Optional[Platform] = None
    #: per slice: (instructions, raw seconds, host Mops next to it)
    slices: List[Tuple[int, float, float]] = field(default_factory=list)
    #: obs counters of retired platforms (traced legs only)
    counters: Dict[str, float] = field(default_factory=dict)
    reclaim_attempts: int = 0
    last = None

    @property
    def key(self):
        return (self.guest, self.engine, self.traced)


def _platform_factory(workload: Workload, engine, seed: int, traced: bool):
    __, dift, dift_mode, jit = engine

    def make() -> Platform:
        return workload.make_platform(
            "full", dift, obs=Observability() if traced else None,
            dift_mode=dift_mode, seed=seed, engine_mode=RECORD, jit=jit)

    return make


@dataclass
class Prepared:
    guests: List[Tuple[str, List[Leg]]]
    jobs: list


def setup_once(run: Run) -> Tuple[Prepared, Dict[str, float]]:
    """Everything before the first timed operation, with its layer split."""
    spec, seed = run.spec, run.seed
    started = time.perf_counter()
    jobs = parse_matrix(spec.matrix(seed)).jobs()
    corpus = time.perf_counter()
    guests = spec.guests(seed)
    built = time.perf_counter()
    twins = (False, True) if run.trace else (False,)
    prepared = []
    for label, workload in guests:
        legs = []
        for engine in ENGINES:
            for traced in twins:
                leg = Leg(label, engine[0],
                          _platform_factory(workload, engine, seed, traced),
                          traced)
                if not traced:
                    # traced twins are built at their first slice, so
                    # set-up is the same work with and without tracing
                    leg.platform = leg.make()
                legs.append(leg)
        prepared.append((label, legs))
    done = time.perf_counter()
    return Prepared(prepared, jobs), {
        "gen.corpus_s": corpus - started,
        "asm.assemble_s": built - corpus,
        "platform.build_s": done - built,
    }


def setup(run: Run) -> Prepared:
    samples, parts = [], []
    prepared = None
    for __ in range(SETUP_REPEATS):
        prepared = None
        gc.collect()   # the previous repetition's platforms, untimed
        (prepared, split), elapsed, mops = run.timed(setup_once, run)
        samples.append((1, elapsed, mops))
        parts.append(split)
    run.metrics["setup_s"] = 1 / median_rate([samples], scaled=True)
    run.layers["raw.setup_s"] = 1 / median_rate([samples], scaled=False)
    for name in parts[0]:
        run.layers[name] = statistics.median(p[name] for p in parts)
    return prepared


# ---------------------------------------------------------------------- #
# phase 2: round-robin engine legs
# ---------------------------------------------------------------------- #

def _violations(result):
    return tuple((v.kind, v.tag, v.required, v.unit, v.pc, v.context)
                 for v in result.violations)


def _agree(spec: Spec, legs: List[Leg]) -> Optional[str]:
    """Why the legs of one guest disagree after a slice, or None."""
    ref = legs[0]
    ref_result = ref.last
    console = ref.platform.console()
    dift_violations = None
    for leg in legs:
        result = leg.last
        if result.reason not in TERMINAL_OK:
            return f"{leg.engine} stopped with {result.reason!r}"
        if result.reason == "halt" and result.exit_code != 0:
            return f"{leg.engine} failed its self-check (exit {result.exit_code})"
        if (result.instructions, result.reason, result.sim_time.ps) != (
                ref_result.instructions, ref_result.reason,
                ref_result.sim_time.ps):
            return (f"{leg.engine} at {result.instructions} instr "
                    f"{result.reason} t={result.sim_time} != "
                    f"{ref.engine} at {ref_result.instructions} instr "
                    f"{ref_result.reason} t={ref_result.sim_time}")
        if leg.platform.console() != console:
            return f"{leg.engine} console differs from {ref.engine}"
        if leg.engine == "vp":
            continue
        violations = _violations(result)
        if spec.zero_violations and violations:
            return f"{leg.engine} raised {len(violations)} violation(s)"
        if dift_violations is None:
            dift_violations = violations
        elif violations != dift_violations:
            return f"{leg.engine} violation set differs"
    return None


_COUNTERS = ("cpu.instructions", "cpu.quanta", "cpu.decode_cache.misses",
             "engine.lub_calls", "engine.checks_performed",
             "dift.fast_steps", "dift.slow_steps", "dift.reclaims",
             "dift.reclaim_skipped_pages", "shadow.tainted_pages",
             "shadow.materialized_pages", "jit.blocks.compiled",
             "jit.exec.trace_instructions", "jit.invalidations",
             "tlm.transactions_routed", "sim.delta_cycles")


def _retire(leg: Leg) -> None:
    """Fold a traced platform's counters into its leg before dropping it."""
    platform = leg.platform
    if leg.traced and platform is not None:
        for name, value in platform.obs.snapshot().items():
            if name.startswith("periph.") and name.endswith((".reads",
                                                             ".writes")):
                name = "periph." + name.rsplit(".", 1)[1]   # all devices
            elif name not in _COUNTERS:
                continue
            leg.counters[name] = leg.counters.get(name, 0) + value
        live = platform.cpu.liveness
        if live is not None:
            leg.reclaim_attempts += live.reclaim_attempts
    leg.platform = None


def _instrument(run: Run, leg: Leg) -> None:
    """Spans around the layer entry points of a traced leg's platform."""
    if leg.traced:
        tracer = run.tracer
        platform = leg.platform
        tracer.wrap_instance(platform.cpu, "run", "cpu.run")
        tracer.wrap_instance(platform.router, "b_transport",
                             "tlm.b_transport")
        tracer.wrap_instance(platform.kernel, "run", "kernel.run")


def advance(run: Run, legs: List[Leg]) -> Optional[str]:
    """Advance every leg of one guest by one slice (building a fresh
    platform for a leg that has none); the legs' agreement problem, or
    None."""
    tracer = run.tracer
    for leg in legs:
        if leg.platform is None:
            leg.platform = leg.make()
            _instrument(run, leg)
        platform = leg.platform
        before = platform.total_instructions
        tracer.current = leg.key if leg.traced else None
        started = time.perf_counter()
        leg.last = platform.run(
            pause_at=before + run.spec.slice_instructions)
        elapsed = time.perf_counter() - started
        tracer.current = None
        mops = run.calibrator.sample()
        executed = platform.total_instructions - before
        if executed:
            leg.slices.append((executed, elapsed, mops))
    problem = _agree(run.spec, legs)
    run.ops.check(problem is None, len(legs), f"{legs[0].guest}: {problem}")
    return problem


def run_legs(run: Run, prepared: Prepared, rounds: int) -> None:
    """Round-robin: every round advances every guest's legs one slice.
    The legs of a guest that halted or disagreed start over."""
    for __ in range(rounds):
        for __, legs in prepared.guests:
            problem = advance(run, legs)
            if problem is not None or legs[0].last.reason == "halt":
                for leg in legs:
                    _retire(leg)
                # a platform holds reference cycles (kernel <-> processes)
                # and two RAM-sized buffers; free them before the next
                # round rather than whenever the collector gets to them
                gc.collect()
    for __, legs in prepared.guests:
        for leg in legs:
            _retire(leg)


def median_rate(groups, scaled: bool) -> float:
    """Work per second over groups of ``(work, seconds, host_mops)``
    samples: per group the median seconds per unit of work, weighted by
    the group's work.  Groups are guests (or streams) with different
    speeds; the median within one makes a slowed sample (a host hiccup,
    a one-off compile) not move the figure.  ``scaled`` takes each
    sample to the reference host with the calibration next to it."""
    work = 0
    seconds = 0.0
    for samples in groups:
        if not samples:
            continue
        per_unit = statistics.median(
            elapsed * (calib.time_factor(mops) if scaled else 1.0) / done
            for done, elapsed, mops in samples)
        done = sum(sample[0] for sample in samples)
        work += done
        seconds += done * per_unit
    return work / seconds if seconds else 0.0


def legs_metrics(run: Run, prepared: Prepared) -> None:
    legs = [leg for __, guest_legs in prepared.guests for leg in guest_legs]

    def select(engine, traced=False):
        return [leg for leg in legs
                if leg.engine == engine and leg.traced == traced]

    mips = {}
    for engine, *__ in ENGINES:
        groups = [leg.slices for leg in select(engine)]
        mips[engine] = median_rate(groups, True) / 1e6
        run.metrics[f"mips_{engine}"] = mips[engine]
        run.layers[f"raw.mips_{engine}"] = median_rate(groups, False) / 1e6
    run.layers["dift.overhead_vpplus"] = mips["vp"] / mips["vpplus"]
    run.layers["dift.overhead_vpd"] = mips["vp"] / mips["vpd"]
    if not run.trace:
        return

    tracer = run.tracer

    def span(engine, name, self_time=False):
        read = tracer.self_time if self_time else tracer.total
        return sum(read(leg.key, name) for leg in select(engine, True))

    def count(engine, name):
        return sum(leg.counters.get(name, 0) for leg in select(engine, True))

    untraced = sum(s[1] for leg in legs if not leg.traced for s in leg.slices)
    traced = sum(s[1] for leg in legs if leg.traced for s in leg.slices)
    run.layers["trace.overhead"] = traced / untraced if untraced else 0.0

    for engine, *__ in ENGINES:
        run.layers[f"cpu.self_s.{engine}"] = span(engine, "cpu.run", True)
    run.layers["cpu.instructions"] = count("vp", "cpu.instructions")
    run.layers["cpu.quanta"] = count("vp", "cpu.quanta")
    run.layers["cpu.decode_cache.misses"] = count("vp",
                                                  "cpu.decode_cache.misses")
    run.layers["dift.propagation_s"] = (run.layers["cpu.self_s.vpplus"]
                                        - run.layers["cpu.self_s.vp"])
    run.layers["engine.lub_calls"] = count("vpplus", "engine.lub_calls")
    run.layers["engine.checks_performed"] = count("vpplus",
                                                  "engine.checks_performed")

    fast, slow = count("vpd", "dift.fast_steps"), count("vpd",
                                                        "dift.slow_steps")
    attempts = sum(leg.reclaim_attempts for leg in select("vpd", True))
    reclaims = count("vpd", "dift.reclaims")
    run.layers["dift.fast_steps"] = fast
    run.layers["dift.slow_steps"] = slow
    run.layers["dift.clean_fraction"] = fast / (fast + slow) if fast + slow else 0.0
    run.layers["dift.reclaims"] = reclaims
    run.layers["liveness.reclaim_attempts"] = attempts
    run.layers["liveness.reclaim_success_ratio"] = (reclaims / attempts
                                                    if attempts else 0.0)
    run.layers["liveness.try_reclaim_s"] = span("vpd", "liveness.try_reclaim")
    run.layers["shadow.tainted_pages"] = count("vpd", "shadow.tainted_pages")
    run.layers["shadow.materialized_pages"] = count(
        "vpd", "shadow.materialized_pages")
    run.layers["dift.reclaim_skipped_pages"] = count(
        "vpd", "dift.reclaim_skipped_pages")

    jit_instr = count("vpd_jit", "cpu.instructions")
    run.layers["jit.compile_s"] = span("vpd_jit", "jit.compile_block")
    run.layers["jit.blocks.compiled"] = count("vpd_jit", "jit.blocks.compiled")
    run.layers["jit.exec.trace_ratio"] = (
        count("vpd_jit", "jit.exec.trace_instructions") / jit_instr
        if jit_instr else 0.0)
    run.layers["jit.invalidations"] = count("vpd_jit", "jit.invalidations")

    run.layers["tlm.b_transport_s"] = span("vp", "tlm.b_transport")
    run.layers["tlm.transactions_routed"] = count("vp",
                                                  "tlm.transactions_routed")
    run.layers["periph.reads"] = count("vp", "periph.reads")
    run.layers["periph.writes"] = count("vp", "periph.writes")
    run.layers["kernel.self_s"] = span("vp", "kernel.run", True)
    run.layers["sim.delta_cycles"] = count("vp", "sim.delta_cycles")


# ---------------------------------------------------------------------- #
# phase 3: offline reanalysis
# ---------------------------------------------------------------------- #

def _record(run: Run, label: str, workload: Workload, path: str):
    """Record ``label``'s stream; returns the live run's reference."""
    program, config = workload.make_config(
        "full", True, seed=run.seed, engine_mode=RECORD)
    config = dataclasses.replace(config, record_events=path)
    platform = Platform.from_config(config)
    platform.load(program)
    workload.externals(platform, "full")
    workload.prepare(platform, program, "full")
    run.tracer.current = "record" if run.trace else None
    result = platform.run(max_instructions=run.spec.stream_instructions)
    platform.finish_recording()
    run.tracer.current = None
    return {
        "path": path,
        "instructions": result.instructions,
        "violations": _violations(result),
        "digest": shadow_digest(platform.memory.tags,
                                platform.engine.default_tag),
    }


def run_reanalysis(run: Run, passes: int) -> None:
    from repro.dift.monitor import reanalyze_stream

    streams = []
    for index, (label, workload) in enumerate(run.spec.streams(run.seed)):
        path = os.path.join(run.workdir, f"stream{index}.ev")
        streams.append(_record(run, label, workload, path))
    samples = [[] for __ in streams]
    for __ in range(passes):
        for stream, timings in zip(streams, samples):
            run.tracer.current = "reanalysis" if run.trace else None
            result, elapsed, mops = run.timed(reanalyze_stream,
                                              stream["path"])
            run.tracer.current = None
            timings.append((stream["instructions"], elapsed, mops))
            replayed = _violations(result)
            stream["events"] = result.events
            run.ops.check(
                replayed == stream["violations"]
                and result.monitor.shadow_digest() == stream["digest"],
                1, f"reanalysis of {stream['path']} diverged from the "
                   f"live run")
    run.metrics["reanalyze_mips"] = median_rate(samples, True) / 1e6
    run.layers["raw.reanalyze_mips"] = median_rate(samples, False) / 1e6
    if run.trace:
        tracer = run.tracer
        run.layers["events.record_s"] = (
            tracer.total("record", "events.write_many")
            + tracer.total("record", "events.close"))
        run.layers["events.stream_bytes"] = sum(
            os.path.getsize(s["path"]) for s in streams)
        run.layers["events.decode_s"] = (
            tracer.total("reanalysis", "events.read_stream") / passes)
        run.layers["monitor.drain_s"] = (
            tracer.total("reanalysis", "monitor.drain") / passes)
        run.layers["monitor.events"] = sum(s["events"] for s in streams)


# ---------------------------------------------------------------------- #
# phase 4: campaign
# ---------------------------------------------------------------------- #

def _job_ok(record) -> bool:
    """Campaign oracle: attacks are detected, everything else is silent."""
    if record.status != "ok":
        return False
    if record.job.workload.startswith("gen/"):
        variant = parse_gen_name(record.job.workload)[1]
        if variant == "attack":
            return record.reason == "security" and record.violations > 0
        return record.reason == "halt" and record.violations == 0
    return record.violations == 0


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples above)`` for the highest of the
    usual percentiles that leaves at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(0, math.ceil(pct / 100.0 * n) - 1)   # nearest rank
        above = n - rank - 1
        if above >= 10:
            break
    return pct, ordered[rank], above


def run_campaign_phase(run: Run, prepared: Prepared) -> None:
    """The matrix submitted in chunks of :data:`CAMPAIGN_CHUNK` jobs into
    an initially empty result cache, then resubmitted whole
    :data:`CACHED_REPEATS` times against the full cache.  Rates are
    medians over submissions, each scaled with the calibration samples
    on both sides of it; job times are pooled over all chunks, each
    scaled with its chunk's calibration."""
    jobs = prepared.jobs
    nproc = workers()
    cache = ResultCache(os.path.join(run.workdir, "cache"))
    logs = os.path.join(run.workdir, "logs")
    cold_samples, cached_samples, walls, raw_walls = [], [], [], []
    cold_records = []
    capacity = 0.0
    run.tracer.current = "campaign" if run.trace else None
    run.calibrator.sample(CAMPAIGN_CALIB)
    for first in range(0, len(jobs), CAMPAIGN_CHUNK):
        chunk = jobs[first:first + CAMPAIGN_CHUNK]
        cold, elapsed, mops = run.timed(run_campaign, chunk, jobs=nproc,
                                        log_dir=logs, cache=cache,
                                        calib_samples=CAMPAIGN_CALIB)
        cold_samples.append((len(chunk), elapsed, mops))
        capacity += nproc * elapsed
        for record in cold.records:
            run.ops.check(_job_ok(record) and not record.cached, 1,
                          f"cold job {record.job.job_id}: {record.status} "
                          f"{record.reason} violations={record.violations}")
            if record.ran:
                wall = record.timing["wall_seconds"]
                raw_walls.append(wall)
                walls.append(wall * calib.time_factor(mops))
        cold_records += cold.records
    cold_view = deterministic_view(aggregate(cold_records))
    hits = 0
    for __ in range(CACHED_REPEATS):
        warm, elapsed, mops = run.timed(run_campaign, jobs, jobs=nproc,
                                        log_dir=logs, cache=cache,
                                        calib_samples=CAMPAIGN_CALIB)
        cached_samples.append((len(jobs), elapsed, mops))
        hits += warm.cache_hits
        for record in warm.records:
            run.ops.check(_job_ok(record) and record.cached, 1,
                          f"cached job {record.job.job_id} was "
                          f"{'served' if record.cached else 'simulated'}")
        run.ops.check(
            warm.cache_hits == len(jobs)
            and deterministic_view(aggregate(warm.records)) == cold_view,
            1, "cached resubmission differs from the cold run outside "
               "timing")
    run.tracer.current = None

    run.metrics["campaign_jobs_per_s"] = median_rate([cold_samples], True)
    run.metrics["cached_jobs_per_s"] = median_rate([cached_samples], True)
    run.layers["raw.campaign_jobs_per_s"] = median_rate([cold_samples], False)
    run.layers["raw.cached_jobs_per_s"] = median_rate([cached_samples],
                                                      False)
    # per-job times are layer metrics: a generated job runs for ~10 ms,
    # mostly first-touch page faults of a fresh process, and their
    # median moved 20-45% between runs with or without calibration
    pct, value, above = tail(walls)
    run.layers["job_p50_s"] = statistics.median(walls)
    run.layers["job_tail_s"] = value
    run.layers["raw.job_p50_s"] = statistics.median(raw_walls)
    run.layers["raw.job_tail_s"] = tail(raw_walls)[1]
    run.layers["campaign.tail_percentile"] = pct
    run.layers["campaign.job_samples"] = len(walls)
    run.notes.append(f"job_tail_s is p{pct:g} of {len(walls)} job "
                     f"samples ({above} above it)")
    run.layers["campaign.pool_utilisation"] = sum(raw_walls) / capacity
    run.layers["campaign.retries"] = sum(r.attempts - 1 for r in cold_records)
    run.layers["cache.hit_ratio"] = hits / (CACHED_REPEATS * len(jobs))
    if run.trace:
        tracer = run.tracer
        run.layers["cache.put_s"] = tracer.total("campaign", "cache.put")
        run.layers["cache.get_s"] = (tracer.total("campaign", "cache.get")
                                     / CACHED_REPEATS)
        run.layers["obs.merge_s"] = tracer.total("campaign", "obs.merge")

    failures = 0
    if run.spec.warm_start:
        failures = warm_start_probe(run, jobs, nproc)
    run.layers["campaign.warm_start_failures"] = failures


def warm_start_probe(run: Run, jobs, nproc: int) -> int:
    """Submit the matrix once with ``warm_start=True``; 1 if it fails.

    Kept apart from the attempted/failed operation counts: it is a known
    defect of the program, measured so that its fix shows, and the
    benchmark's own workloads must run without failed operations.
    """
    logs = os.path.join(run.workdir, "warm-start")
    try:
        result = run_campaign(jobs, jobs=nproc, log_dir=logs,
                              warm_start=True)
    except Exception as exc:  # the defect under observation; report it
        run.notes.append(f"warm-start submission failed: "
                         f"{type(exc).__name__}: {exc}")
        return 1
    bad = [r.job.job_id for r in result.records if not _job_ok(r)]
    if bad:
        run.notes.append(f"warm-start submission: {len(bad)} job(s) "
                         f"not ok, first {bad[0]}")
        return 1
    run.notes.append("warm-start submission succeeded")
    return 0


# ---------------------------------------------------------------------- #
# the whole run
# ---------------------------------------------------------------------- #

def _install_layer_spans(tracer: SpanTracer) -> None:
    """Class/module-level spans around entry points the runner cannot
    reach through one platform instance."""
    import repro.campaign.report as report
    import repro.dift.monitor as monitor
    import repro.vp.jit as jit
    from repro.dift.events import EventWriter
    from repro.dift.liveness import TaintLiveness

    tracer.patch(jit, "compile_block", "jit.compile_block")
    tracer.patch(TaintLiveness, "try_reclaim", "liveness.try_reclaim")
    tracer.patch(EventWriter, "write_many", "events.write_many")
    tracer.patch(EventWriter, "close", "events.close")
    tracer.patch(monitor, "read_stream", "events.read_stream")
    tracer.patch(monitor.DiftMonitor, "drain", "monitor.drain")
    tracer.patch(ResultCache, "get", "cache.get")
    tracer.patch(ResultCache, "put", "cache.put")
    tracer.patch(report, "merge_snapshots", "obs.merge")


def execute(spec: Spec, seed: int, seconds: float, trace: bool,
            workdir: str) -> Run:
    calibrator = calib.Calibrator()
    run = Run(spec, seed, trace, workdir, calibrator, SpanTracer())
    sizes = phase_sizes(spec, seconds, trace)
    if trace:
        _install_layer_spans(run.tracer)
    try:
        calibrator.sample()   # brackets the first operation from below
        prepared = setup(run)
        run_legs(run, prepared, sizes["rounds"])
        legs_metrics(run, prepared)
        run_reanalysis(run, sizes["passes"])
        run_campaign_phase(run, prepared)
    finally:
        run.tracer.restore()
    run.layers["raw.peak_rss_mb"] = peak_rss_mb()
    run.layers["host.calib_mops"] = calibrator.median()
    run.metrics["peak_rss_mb"] = run.layers["raw.peak_rss_mb"]
    return run
