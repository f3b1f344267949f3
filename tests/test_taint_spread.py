"""The taint-spread gauges against a naive per-byte reference.

``taint.tagged_mem_bytes``, ``taint.mem_spread_ratio`` and
``shadow.tainted_pages`` come from one chunked scan of the RAM shadow
per snapshot, which settles each 64 KiB chunk at the default tag with a
single comparison.  Here they
are held to a byte-by-byte count after random tag writes, with default
tags that are non-zero and that differ from the lattice bottom, writes
that straddle page and chunk boundaries, and RAM sizes that are not a
multiple of the chunk (or of the page).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.policy import SecurityPolicy
from repro.policy.lattice import Lattice
from repro.vp.config import PlatformConfig
from repro.vp.platform import Platform

PAGE = 4096
CHUNK = 64 * 1024

#: bottom ``LC`` deliberately gets the non-zero tag 2
_CLASSES = ("HC", "MC", "LC")
_FLOWS = (("LC", "MC"), ("MC", "HC"))

RAM_SIZES = (3 * CHUNK, 2 * CHUNK + 5 * PAGE + 123, CHUNK - 1)

#: tag writes whose runs cross page and chunk boundaries
_boundary = st.builds(
    lambda base, delta: max(0, base + delta),
    st.sampled_from([n * PAGE for n in range(0, 50)]
                    + [n * CHUNK for n in range(4)]),
    st.integers(min_value=-64, max_value=64))
_write = st.tuples(_boundary,
                   st.integers(min_value=1, max_value=CHUNK + PAGE),
                   st.integers(min_value=0, max_value=2))


def _platform(default_class: str, ram_size: int) -> Platform:
    policy = SecurityPolicy(Lattice(_CLASSES, _FLOWS),
                            default_class=default_class)
    config = PlatformConfig(policy=policy, ram_size=ram_size,
                            dift_mode="demand", obs=Observability())
    return Platform.from_config(config)


def _reference(tags: bytes, default: int, bottom: int):
    tagged = sum(1 for tag in tags if tag != default)
    pages = sum(1 for start in range(0, len(tags), PAGE)
                if any(tag != bottom for tag in tags[start:start + PAGE]))
    return tagged, tagged / len(tags), pages


@settings(max_examples=60, deadline=None)
@given(default_class=st.sampled_from(_CLASSES),
       ram_size=st.sampled_from(RAM_SIZES),
       background=st.none() | st.integers(min_value=0, max_value=2),
       writes=st.lists(_write, max_size=6))
def test_gauges_match_naive_count(default_class, ram_size, background,
                                  writes):
    platform = _platform(default_class, ram_size)
    memory = platform.memory
    if background is not None:
        # uniform chunks at a tag that need not be the default
        memory.fill_tags(0, ram_size, background)
    for offset, length, tag in writes:
        offset = min(offset, ram_size - 1)
        memory.fill_tags(offset, min(length, ram_size - offset), tag)
    engine = platform.engine
    assert engine.bottom_tag == 2
    snap = platform.obs.snapshot()
    tagged, ratio, pages = _reference(bytes(memory.tags),
                                      engine.default_tag, engine.bottom_tag)
    assert snap["taint.tagged_mem_bytes"] == tagged
    assert snap["taint.mem_spread_ratio"] == ratio
    assert snap["shadow.tainted_pages"] == pages


def test_uniform_non_bottom_default_counts_every_page():
    # a whole RAM at a non-bottom default: nothing re-tagged, yet every
    # page (the partial last one included) holds an above-bottom tag
    ram_size = 2 * CHUNK + 5 * PAGE + 123
    platform = _platform("HC", ram_size)
    snap = platform.obs.snapshot()
    assert snap["taint.tagged_mem_bytes"] == 0
    assert snap["taint.mem_spread_ratio"] == 0.0
    assert snap["shadow.tainted_pages"] == -(-ram_size // PAGE)


def test_one_scan_per_snapshot(monkeypatch):
    calls = []
    scan = Platform._taint_spread

    def counted(self):
        calls.append(1)
        return scan(self)

    monkeypatch.setattr(Platform, "_taint_spread", counted)
    platform = _platform("LC", 3 * CHUNK)
    platform.memory.fill_tags(PAGE - 1, 2, 0)
    snap = platform.obs.snapshot()
    assert len(calls) == 1
    assert (snap["taint.tagged_mem_bytes"], snap["shadow.tainted_pages"]) \
        == (2, 2)
