"""The Table II benchmark registry.

Seven workloads matching the paper's set: qsort, dhrystone, primes,
sha512, simple-sensor, freertos-tasks (rtos), immo-fixed.  Each workload
knows how to build its guest program at a given *scale* and how to set up
the platform (peripheral parameters, CAN environment).

Scales: ``"quick"`` for test-suite runs (hundreds of thousands of
instructions total) and ``"full"`` for the Table II reproduction
(millions of instructions per benchmark — a few minutes of host time on a
pure-Python ISS; the paper's binaries ran billions on a C++ VP, we scale
the iteration counts and keep the workload character).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional

from repro.asm.assembler import Program
from repro.dift.engine import RAISE
from repro.policy import SecurityPolicy, builders
from repro.sw import (
    dhrystone,
    immobilizer,
    primes,
    qsort,
    rtos,
    sensor_app,
    sha512,
)
from repro.sysc.time import SimTime
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform


def benchmark_policy() -> SecurityPolicy:
    """Representative security policy for the VP+ measurements.

    IFP-3 with all three execution-clearance checks enabled and
    input/output devices cleared — the full per-instruction DIFT cost
    without (expected) violations.

    Memory defaults to the lattice *bottom* class ``(LC, HI)``: untouched
    RAM carries no information, and classifying sources/sinks at
    ``(LC, LI)`` keeps every flow of the compute benchmarks legal exactly
    as before (nothing ever flows *into* plain RAM's class — only out of
    sources and into cleared sinks).  Starting at bottom also lets
    demand-mode DIFT begin in the clean state.
    """
    policy = SecurityPolicy(builders.ifp3(), default_class=builders.LC_HI,
                            name="benchmark")
    policy.classify_source("sensor0", builders.LC_LI)
    policy.classify_source("uart0.rx", builders.LC_LI)
    policy.classify_source("can0.rx", builders.LC_LI)
    policy.clear_sink("uart0.tx", builders.LC_LI)
    policy.clear_sink("can0.tx", builders.LC_LI)
    policy.set_execution_clearance(fetch=builders.LC_LI,
                                   branch=builders.LC_LI,
                                   mem_addr=builders.LC_LI)
    return policy


def _noop_prepare(platform: "Platform", program: Program, scale: str) -> None:
    return None


def _noop_externals(platform: "Platform", scale: str) -> None:
    return None


@dataclass
class Workload:
    """One benchmark: program builder + platform configuration.

    ``externals`` constructs non-kernel environment models (e.g. the
    engine ECU on the CAN bus) and registers them on the platform;
    ``prepare`` injects the initial stimulus (UART feeds, first
    challenge).  They are separate hooks because snapshot restore must
    re-run ``externals`` (the objects live outside the snapshot's module
    tree and are re-created, then loaded from the ``externals`` section)
    but must *not* re-run ``prepare`` — the stimulus already happened and
    its effects are part of the checkpointed state.
    """

    name: str
    build: Callable[[str], Program]            # scale -> program
    platform_kwargs: Callable[[str], dict]
    policy: Callable[[Program], Optional[SecurityPolicy]]
    prepare: Callable[[Platform, Program, str], None]
    externals: Callable[[Platform, str], None] = _noop_externals
    #: optional success predicate ``(platform, result, dift) -> bool``;
    #: when set, the campaign worker consults it instead of its default
    #: "budget or exit 0" notion.  Generated attack workloads use it:
    #: a *detected* attack stops early with reason ``security``, which
    #: is the expected outcome, not a failure.
    ok_check: Optional[Callable[[Platform, object, bool], bool]] = None

    def make_config(self, scale: str, dift: bool, obs=None,
                    dift_mode: str = "full",
                    seed: Optional[int] = None,
                    engine_mode: str = RAISE,
                    jit=False) -> "tuple[Program, PlatformConfig]":
        """Build the guest program and its :class:`PlatformConfig`."""
        program = self.build(scale)
        policy = self.policy(program) if dift else None
        kwargs = self.platform_kwargs(scale)
        if seed is not None:
            kwargs.setdefault("seed", seed)
        config = PlatformConfig(policy=policy, engine_mode=engine_mode,
                                obs=obs, dift_mode=dift_mode, jit=jit,
                                **kwargs)
        return program, config

    def make_platform(self, scale: str, dift: bool, obs=None,
                      dift_mode: str = "full",
                      seed: Optional[int] = None,
                      engine_mode: str = RAISE,
                      jit=False) -> Platform:
        program, config = self.make_config(
            scale, dift, obs=obs, dift_mode=dift_mode, seed=seed,
            engine_mode=engine_mode, jit=jit)
        platform = Platform.from_config(config)
        platform.load(program)
        self.externals(platform, scale)
        self.prepare(platform, program, scale)
        return platform

    def restore_externals(self, scale: str):
        """``externals=`` callback for :meth:`Platform.restore`."""
        return lambda platform: self.externals(platform, scale)


def _default_policy(program: Program) -> SecurityPolicy:
    return benchmark_policy()


#: Registry builds are memoized per scale for the process lifetime.
#: Registry guests are pure functions of their scale, and nothing
#: mutates a :class:`Program` once assembled, so every caller (the cache
#: key, each DIFT mode, forked campaign workers) can share one.  Bounded
#: by construction: two scales per registry workload.
_once_per_scale = lru_cache(maxsize=2)


def _simple(name, build_quick, build_full, **platform_kwargs) -> Workload:
    @_once_per_scale
    def build(scale: str) -> Program:
        return build_quick() if scale == "quick" else build_full()

    return Workload(
        name=name,
        build=build,
        platform_kwargs=lambda scale: dict(platform_kwargs),
        policy=_default_policy,
        prepare=_noop_prepare,
    )


def _immo_policy(program: Program) -> SecurityPolicy:
    from repro.casestudy.immobilizer import baseline_policy
    return baseline_policy(program)


def _immo_externals(platform: Platform, scale: str) -> None:
    from repro.casestudy.immobilizer import PIN, EngineEcu
    n = 40 if scale == "quick" else 400
    engine = EngineEcu(platform.can_bus, PIN, n_challenges=n)
    platform.register_external("engine_ecu", engine)


def _immo_prepare(platform: Platform, program: Program, scale: str) -> None:
    platform.uart.feed(b"c")
    platform.external("engine_ecu").start()


def _immo_platform_kwargs(scale: str) -> dict:
    return {"aes_declassify_to": builders.LC_LI}


def _make_immo() -> Workload:
    @_once_per_scale
    def build(scale: str) -> Program:
        n = 40 if scale == "quick" else 400
        return immobilizer.build(variant="fixed", n_challenges=n)

    return Workload(
        name="immo-fixed",
        build=build,
        platform_kwargs=_immo_platform_kwargs,
        policy=_immo_policy,
        prepare=_immo_prepare,
        externals=_immo_externals,
    )


def _make_sensor() -> Workload:
    @_once_per_scale
    def build(scale: str) -> Program:
        return sensor_app.build(n_frames=50 if scale == "quick" else 1000)

    return Workload(
        name="simple-sensor",
        build=build,
        platform_kwargs=lambda scale: {"sensor_period": SimTime.us(100)},
        policy=_default_policy,
        prepare=_noop_prepare,
    )


WORKLOADS: Dict[str, Workload] = {
    "qsort": _simple(
        "qsort",
        lambda: qsort.build(n=1200),
        lambda: qsort.build(n=16000)),
    "dhrystone": _simple(
        "dhrystone",
        lambda: dhrystone.build(iterations=400),
        lambda: dhrystone.build(iterations=5000)),
    "primes": _simple(
        "primes",
        lambda: primes.build(limit=3000),
        lambda: primes.build(limit=20000)),
    "sha512": _simple(
        "sha512",
        lambda: sha512.build(n=512),
        lambda: sha512.build(n=12 * 1024)),
    "simple-sensor": _make_sensor(),
    "freertos-tasks": _simple(
        "freertos-tasks",
        lambda: rtos.build(n_ticks=20, tick_us=100),
        lambda: rtos.build(n_ticks=200, tick_us=100)),
    "immo-fixed": _make_immo(),
}

#: paper order for Table II
TABLE2_ORDER = ["qsort", "dhrystone", "primes", "sha512", "simple-sensor",
                "freertos-tasks", "immo-fixed"]


class UnknownWorkloadError(LookupError):
    """Raised when a workload name is not in the registry."""


def workload_names() -> List[str]:
    """Registry names in paper (Table II) order."""
    return list(TABLE2_ORDER)


def get_workload(name: str) -> Workload:
    """Registry lookup by name, with an error listing what exists.

    Campaign matrices and CLI flags reference workloads by name; a typo
    should name the valid choices, not die with a bare ``KeyError``.
    """
    if name.startswith("gen/"):
        # dynamic generated-attack workload (repro.gen): resolved on
        # demand rather than registered — the family is unbounded
        from repro.gen.campaign import gen_workload
        try:
            return gen_workload(name)
        except ValueError as exc:
            raise UnknownWorkloadError(str(exc)) from None
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; available: {known} "
            f"(or a dynamic 'gen/<case-seed-hex>/<attack|benign>' "
            f"name)") from None
