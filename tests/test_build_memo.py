"""Guest builds are made once per process; job keys stay the same.

Registry workloads memoize ``Workload.build(scale)`` and generated cases
resolve through a bounded per-seed cache, so a campaign assembles each
guest once (in the parent, while computing cache keys) and its forked
workers inherit the built programs.  Sharing must not change what is
built: every cache key below is pinned to the value computed before the
builds were memoized, and a memoized program equals a fresh assembly
byte for byte.

The golden keys in ``job_keys_golden.json`` cover the registry at both
scales and ``make_matrix(1, 3)``.  Regenerate them (only for a change
that is *meant* to alter job identities) with::

    PYTHONPATH=src python tests/test_build_memo.py \
        > tests/job_keys_golden.json
"""

from __future__ import annotations

import json
import os

import pytest

from repro.asm.assembler import Assembler
from repro.bench.workloads import WORKLOADS, get_workload, workload_names
from repro.campaign import job_key
from repro.campaign.matrix import full_matrix, parse_matrix
from repro.gen import campaign as gen_campaign
from repro.gen.campaign import gen_name, make_matrix, parse_gen_name
from repro.gen.generator import case_from_seed

GOLDEN = os.path.join(os.path.dirname(__file__), "job_keys_golden.json")


def _specs():
    return (full_matrix(scale="quick").jobs()
            + full_matrix(scale="full").jobs()
            + parse_matrix(make_matrix(1, 3)).jobs())


def current_keys() -> dict:
    return {f"{spec.job_id}@{spec.scale}": job_key(spec)
            for spec in _specs()}


def _same_program(a, b) -> None:
    assert a.image == b.image
    assert a.entry == b.entry
    assert a.symbols == b.symbols


@pytest.fixture
def assemblies(monkeypatch):
    """Count every assembly in the process (all builders go through
    :meth:`Assembler.assemble`)."""
    calls = []
    original = Assembler.assemble

    def counting(self, source):
        calls.append(len(source))
        return original(self, source)

    monkeypatch.setattr(Assembler, "assemble", counting)
    return calls


def test_job_keys_match_golden():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert current_keys() == golden


def test_twins_share_one_program():
    case_seed, _ = parse_gen_name(make_matrix(1, 1)["axes"]["workload"][0])
    attack = get_workload(gen_name(case_seed, "attack"))
    benign = get_workload(gen_name(case_seed, "benign"))
    assert attack.build("quick") is benign.build("quick")


@pytest.mark.parametrize("name", workload_names())
@pytest.mark.parametrize("scale", ["quick", "full"])
def test_memoized_registry_build_equals_fresh_assembly(name, scale):
    build = get_workload(name).build
    memoized = build(scale)
    assert build(scale) is memoized
    _same_program(memoized, build.__wrapped__(scale))


def test_memoized_generated_build_equals_fresh_assembly():
    name = make_matrix(2, 1)["axes"]["workload"][0]
    memoized = get_workload(name).build("quick")
    fresh, _, _ = case_from_seed(parse_gen_name(name)[0]).build()
    assert fresh is not memoized
    _same_program(memoized, fresh)


@pytest.mark.parametrize("name", ["qsort", "immo-fixed",
                                  gen_name(0x5EE1, "attack")])
def test_seen_workload_assembles_nothing(name, assemblies):
    # start cold, so the counter is seen to count the first build
    if name in WORKLOADS:
        WORKLOADS[name].build.cache_clear()
    else:
        gen_campaign._case.cache_clear()
    specs = parse_matrix({"axes": {"workload": [name],
                                   "dift_mode": ["full", "demand"]}}).jobs()
    job_key(specs[0])
    assert assemblies
    del assemblies[:]
    for spec in specs:
        job_key(spec)
        get_workload(name).build(spec.scale)
    assert assemblies == []


if __name__ == "__main__":
    print(json.dumps(current_keys(), indent=4, sort_keys=True))
