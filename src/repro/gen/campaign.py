"""Campaign integration: generated cases as dynamic workloads.

The campaign runner addresses workloads by registry name.  Generated
cases are an *unbounded* family, so instead of registering them
eagerly, :func:`gen_workload` resolves the dynamic name form

    ``gen/<case-seed-hex>/<variant>``      (variant: attack | benign)

into a fully-formed :class:`repro.bench.workloads.Workload` on demand —
:func:`repro.bench.workloads.get_workload` falls back to this resolver
for any ``gen/``-prefixed name, which makes generated cases first-class
matrix citizens::

    {"schema": "repro.campaign.matrix/1",
     "axes": {"workload": ["gen/0000002a/attack"],
              "dift_mode": ["full", "demand"]}}

Because the campaign's success notion ("ran to budget or exited 0")
is wrong for attack runs — a *detected* attack stops early with reason
``security`` and that is the expected outcome — the resolved workload
carries an ``ok_check`` hook the worker consults instead:

* ``attack`` under a policy: ok iff the DIFT engine detected it;
* ``attack`` without a policy: ok iff the payload ran (console ``X``);
* ``benign``: ok iff the guest exited 0 with no violations.

:func:`make_matrix` emits a ready-to-run matrix document covering a
corpus seed range across both DIFT modes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.gen.generator import case_from_seed, iter_cases
from repro.gen.spec import GeneratedAttack

VARIANTS = ("attack", "benign")
_PREFIX = "gen/"


def is_gen_name(name: str) -> bool:
    return isinstance(name, str) and name.startswith(_PREFIX)


def parse_gen_name(name: str) -> Tuple[int, str]:
    """``gen/<case-seed-hex>/<variant>`` → ``(case_seed, variant)``."""
    parts = name.split("/")
    if len(parts) != 3 or parts[0] != "gen":
        raise ValueError(
            f"bad generated-workload name {name!r}; expected "
            f"'gen/<case-seed-hex>/<attack|benign>'")
    try:
        case_seed = int(parts[1], 16)
    except ValueError:
        raise ValueError(
            f"bad case seed {parts[1]!r} in {name!r} (hex expected)"
        ) from None
    if parts[2] not in VARIANTS:
        raise ValueError(
            f"bad variant {parts[2]!r} in {name!r}; "
            f"expected one of {VARIANTS}")
    return case_seed, parts[2]


def gen_name(case_seed: int, variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return f"gen/{case_seed:08x}/{variant}"


# Bounded (least recently resolved evicted first): a long-lived service
# resolves an unbounded family of names.
@lru_cache(maxsize=256)
def _case(case_seed: int) -> GeneratedAttack:
    """One shared case per seed, so the attack and benign twins and
    both DIFT modes reuse its single assembled build."""
    return case_from_seed(case_seed)


def gen_workload(name: str):
    """Resolve a ``gen/...`` name into a Workload (used by get_workload)."""
    from repro.bench.workloads import Workload

    case_seed, variant = parse_gen_name(name)
    case = _case(case_seed)
    program, attack_input, benign_input = case.build()
    feed = attack_input if variant == "attack" else benign_input

    def _ok_check(platform, result, dift: bool) -> bool:
        if variant == "attack":
            if dift:
                return bool(result.detected)
            return (result.reason == "halt" and result.exit_code == 0
                    and "X" in platform.console())
        return (result.reason == "halt" and result.exit_code == 0
                and not result.violations)

    return Workload(
        name=name,
        build=lambda scale: program,
        platform_kwargs=lambda scale: {},
        policy=lambda prog: case.policy(prog),
        prepare=lambda platform, prog, scale: platform.uart.feed(feed),
        ok_check=_ok_check,
    )


def make_matrix(seed: int, count: int,
                dift_modes: Tuple[str, ...] = ("full", "demand"),
                max_instructions: Optional[int] = 200_000
                ) -> Dict[str, object]:
    """A ``repro.campaign.matrix/1`` document over ``count`` cases.

    Every case contributes its attack and its benign twin, crossed with
    the requested DIFT modes — the campaign-scale version of the
    detection-soundness oracle.
    """
    workloads = []
    for case in _first_cases(seed, count):
        workloads.append(gen_name(case.case_seed, "attack"))
        workloads.append(gen_name(case.case_seed, "benign"))
    document: Dict[str, object] = {
        "schema": "repro.campaign.matrix/1",
        "axes": {
            "workload": workloads,
            "dift_mode": list(dift_modes),
        },
    }
    if max_instructions is not None:
        document["defaults"] = {"max_instructions": max_instructions}
    return document


def _first_cases(seed: int, count: int):
    stream = iter_cases(seed)
    return [next(stream) for _ in range(count)]
