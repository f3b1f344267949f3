"""Tests for the TLM layer: payloads, sockets, routing, DMI."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BusError
from repro.sysc import (
    OK,
    GenericPayload,
    InitiatorSocket,
    Kernel,
    Router,
    SimTime,
    TargetSocket,
)
from repro.vp.memory import Memory


class TestPayload:
    def test_make_read(self):
        payload = GenericPayload.make_read(0x100, 4)
        assert payload.is_read()
        assert payload.length == 4
        assert payload.tags is None
        assert not payload.ok()

    def test_make_read_tagged(self):
        payload = GenericPayload.make_read(0x100, 4, tagged=True)
        assert payload.tags is not None
        assert len(payload.tags) == 4

    def test_make_write(self):
        payload = GenericPayload.make_write(0x10, b"\x01\x02",
                                            tags=b"\x00\x01")
        assert payload.is_write()
        assert payload.data == bytearray(b"\x01\x02")
        assert payload.tags == bytearray(b"\x00\x01")


class TestSockets:
    def test_unbound_initiator_raises(self):
        socket = InitiatorSocket("i")
        with pytest.raises(BusError, match="unbound"):
            socket.b_transport(GenericPayload.make_read(0, 4), SimTime(0))

    def test_unregistered_target_raises(self):
        target = TargetSocket("t")
        with pytest.raises(BusError, match="no registered transport"):
            target.b_transport(GenericPayload.make_read(0, 4), SimTime(0))

    def test_bound_round_trip(self):
        target = TargetSocket("t")
        seen = []

        def transport(payload, delay):
            seen.append(payload.address)
            payload.response = OK
            return delay + SimTime.ns(7)

        target.register_b_transport(transport)
        initiator = InitiatorSocket("i")
        initiator.bind(target)
        delay = initiator.b_transport(GenericPayload.make_read(0x42, 4),
                                      SimTime.ns(3))
        assert seen == [0x42]
        assert delay == SimTime.ns(10)


def make_memory_router(size=0x100, base=0x1000):
    kernel = Kernel()
    memory = Memory(kernel, "ram", size)
    router = Router("bus", latency=SimTime.ns(10))
    router.map_target(base, size, memory.tsock, "ram")
    return router, memory


class TestRouter:
    def test_address_translation(self):
        router, memory = make_memory_router()
        memory.load(0x10, b"\xAA\xBB\xCC\xDD")
        payload = GenericPayload.make_read(0x1010, 4)
        router.b_transport(payload, SimTime(0))
        assert payload.ok()
        assert bytes(payload.data) == b"\xAA\xBB\xCC\xDD"
        # address restored after routing (non-destructive)
        assert payload.address == 0x1010

    def test_write_then_read(self):
        router, memory = make_memory_router()
        write = GenericPayload.make_write(0x1020, b"hello")
        router.b_transport(write, SimTime(0))
        assert write.ok()
        assert memory.read_block(0x20, 5) == b"hello"

    def test_unmapped_address_raises(self):
        router, __ = make_memory_router()
        with pytest.raises(BusError, match="no target"):
            router.b_transport(GenericPayload.make_read(0x9999, 4),
                               SimTime(0))

    def test_crossing_target_boundary_raises(self):
        router, __ = make_memory_router(size=0x100, base=0x1000)
        with pytest.raises(BusError, match="crosses"):
            router.b_transport(GenericPayload.make_read(0x10FE, 4),
                               SimTime(0))

    def test_overlapping_map_rejected(self):
        router, memory = make_memory_router()
        with pytest.raises(BusError, match="overlaps"):
            router.map_target(0x1080, 0x100, memory.tsock, "ram2")

    def test_adjacent_maps_allowed(self):
        router, memory = make_memory_router()
        kernel = Kernel()
        other = Memory(kernel, "ram2", 0x100)
        router.map_target(0x1100, 0x100, other.tsock, "ram2")
        assert router.target_names() == ["ram", "ram2"]

    def test_transaction_counter(self):
        router, __ = make_memory_router()
        assert router.transactions_routed == 0
        router.b_transport(GenericPayload.make_read(0x1000, 4), SimTime(0))
        assert router.transactions_routed == 1

    def test_decode(self):
        router, __ = make_memory_router()
        entry = router.decode(0x1050)
        assert entry.name == "ram"
        with pytest.raises(BusError):
            router.decode(0x50)


#: a map as (gap before, size) pairs laid out upwards from a base; a zero
#: gap makes two targets adjacent
_layouts = st.tuples(
    st.integers(0, 0x1000),
    st.lists(st.tuples(st.integers(0, 0x40), st.integers(1, 0x40)),
             min_size=1, max_size=10))


def _build_map(layout):
    base, pairs = layout
    router = Router("bus", latency=SimTime.ns(10))
    ranges = []
    seen = []   # (target, local address) of every delivered transaction
    start = base
    for index, (gap, size) in enumerate(pairs):
        start += gap
        name = f"t{index}"
        target = TargetSocket(name)

        def transport(payload, delay, name=name):
            seen.append((name, payload.address))
            payload.response = OK
            return delay + SimTime.ns(1)

        target.register_b_transport(transport)
        router.map_target(start, size, target, name)
        ranges.append((start, start + size, name))
        start += size
    return router, ranges, seen


def _probes(ranges):
    """Every boundary of interest: each target's first and last byte and
    their neighbours (gaps, adjacent starts), below the first target
    and above the last."""
    addresses = {0, ranges[0][0] - 1, ranges[-1][1], ranges[-1][1] + 0x100}
    for start, end, __ in ranges:
        addresses.update((start - 1, start, start + 1, end - 2, end - 1, end))
    return sorted(a for a in addresses if a >= 0)


def _reference_route(ranges, address, length):
    """Linear-scan decode: the routed (name, local address), or the kind
    of bus error."""
    for start, end, name in ranges:
        if start <= address < end:
            if address + length > end:
                return "crosses"
            return name, address - start
    return "no target"


class TestRouterDecodeProperty:
    @settings(max_examples=150, deadline=None)
    @given(_layouts, st.sampled_from([1, 2, 4, 8]))
    def test_decode_matches_linear_scan(self, layout, length):
        router, ranges, seen = _build_map(layout)
        for address in _probes(ranges):
            expected = _reference_route(ranges, address, length)
            # decode alone: the covering entry or "no target"
            covering = [name for start, end, name in ranges
                        if start <= address < end]
            if covering:
                assert router.decode(address).name == covering[0]
            else:
                with pytest.raises(BusError, match="no target"):
                    router.decode(address)
            # a whole transaction: routing, translation, delay, errors
            payload = GenericPayload.make_read(address, length)
            before = router.transactions_routed
            if isinstance(expected, str):
                with pytest.raises(BusError, match=expected) as error:
                    router.b_transport(payload, SimTime.ns(3))
                assert error.value.address == address
                assert router.transactions_routed == before
                continue
            delay = router.b_transport(payload, SimTime.ns(3))
            assert delay == SimTime.ns(14)
            assert payload.ok()
            assert seen.pop() == expected
            assert payload.address == address   # restored after routing
            assert router.transactions_routed == before + 1
        assert not seen


class TestDmi:
    def test_dmi_grant_and_lookup(self):
        router, memory = make_memory_router()
        router.register_dmi(0x1000, 0x100, memory.data, memory.tags)
        region = router.get_dmi(0x1040)
        assert region is not None
        region.data[0x40] = 0x99
        assert memory.data[0x40] == 0x99  # live alias

    def test_dmi_miss(self):
        router, memory = make_memory_router()
        router.register_dmi(0x1000, 0x100, memory.data, None)
        assert router.get_dmi(0x2000) is None


class TestTaggedMemoryTransport:
    def test_read_returns_tags(self):
        kernel = Kernel()
        memory = Memory(kernel, "ram", 0x100, tagged=True, default_tag=1)
        memory.load(0x10, b"\x01\x02", tag=3)
        payload = GenericPayload.make_read(0x10, 2, tagged=True)
        memory.tsock.b_transport(payload, SimTime(0))
        assert bytes(payload.tags) == b"\x03\x03"

    def test_write_stores_tags(self):
        kernel = Kernel()
        memory = Memory(kernel, "ram", 0x100, tagged=True, default_tag=1)
        payload = GenericPayload.make_write(0x20, b"\xAB", tags=b"\x02")
        memory.tsock.b_transport(payload, SimTime(0))
        assert memory.tag_of(0x20) == 2

    def test_untagged_write_resets_to_default(self):
        kernel = Kernel()
        memory = Memory(kernel, "ram", 0x100, tagged=True, default_tag=1)
        memory.fill_tags(0x20, 1, 3)
        payload = GenericPayload.make_write(0x20, b"\xAB")
        memory.tsock.b_transport(payload, SimTime(0))
        assert memory.tag_of(0x20) == 1

    def test_out_of_range_address_error(self):
        kernel = Kernel()
        memory = Memory(kernel, "ram", 0x10)
        payload = GenericPayload.make_read(0x20, 4)
        memory.tsock.b_transport(payload, SimTime(0))
        assert payload.response == "address-error"
