"""Exact bus statistics of the MMIO-bound guests, pinned to golden values.

simple-sensor and immo-fixed spend a quarter of their instructions on
MMIO, so every routed transaction, every peripheral register access and
every clearance check on the way is visible in the counters below.  A
change that only makes the simulator faster (bus decode, payload
construction, delay arithmetic, sink-clearance lookup) must leave every
one of them identical, along with the simulated time, the console, the
violations and the recorded ``repro.dift.events/1`` stream.

The golden values in ``bus_statistics_golden.json`` were captured from
the simulator before the MMIO transaction path was optimised.
Regenerate them (only for a change that is *meant* to alter simulated
behaviour) with::

    PYTHONPATH=src python tests/test_bus_statistics.py \
        > tests/bus_statistics_golden.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.bench.workloads import get_workload
from repro.dift.engine import RECORD
from repro.obs import Observability
from repro.vp.platform import Platform

BUDGET = 60_000
SEED = 7
GUESTS = ("simple-sensor", "immo-fixed")
MODES = ("plain", "full", "demand")

#: counters pinned besides the bus ones; zero-valued counters are left
#: out on both sides, so a counter that starts moving still shows up
_EXACT = ("engine.checks_performed", "engine.lub_calls",
          "sim.delta_cycles", "cpu.irqs_taken")


def _pinned(name: str) -> bool:
    return (name == "tlm.transactions_routed" or name in _EXACT
            or (name.startswith("tlm.target.")
                and name.endswith(".transactions"))
            or (name.startswith("periph.")
                and name.endswith((".reads", ".writes"))))


def capture(guest: str, mode: str, directory: str) -> dict:
    """Run ``guest`` for ``BUDGET`` instructions under ``mode``."""
    workload = get_workload(guest)
    obs = Observability()
    program, config = workload.make_config(
        "full", mode != "plain", obs=obs,
        dift_mode="full" if mode == "plain" else mode, seed=SEED,
        engine_mode=RECORD)
    stream = None
    if mode == "full":   # recording is incompatible with demand mode
        stream = os.path.join(directory, f"{guest}.ev")
        config = dataclasses.replace(config, record_events=stream)
    platform = Platform.from_config(config)
    platform.load(program)
    workload.externals(platform, "full")
    workload.prepare(platform, program, "full")
    result = platform.run(max_instructions=BUDGET)
    platform.finish_recording()
    stats = {
        "instret": platform.total_instructions,
        "reason": result.reason,
        "sim_time_ps": result.sim_time.ps,
        "console_sha256": hashlib.sha256(platform.uart.tx_log).hexdigest(),
        "violations": [[v.kind, v.tag, v.required, v.unit, v.pc, v.context]
                       for v in result.violations],
        "counters": {name: value
                     for name, value in sorted(obs.snapshot().items())
                     if _pinned(name) and value},
    }
    if stream is not None:
        with open(stream, "rb") as handle:
            stats["events_sha256"] = hashlib.sha256(
                handle.read()).hexdigest()
    return stats


@pytest.fixture(scope="module")
def golden():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "bus_statistics_golden.json")
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("guest", GUESTS)
def test_bus_statistics_match_golden(guest, mode, golden, tmp_path):
    assert capture(guest, mode, str(tmp_path)) == golden[f"{guest}/{mode}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        print(json.dumps({f"{guest}/{mode}": capture(guest, mode, directory)
                          for guest in GUESTS for mode in MODES},
                         indent=4, sort_keys=True))
