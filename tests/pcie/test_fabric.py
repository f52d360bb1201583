"""Unit tests for the PCIe fabric: routing, timing, peer-to-peer."""

import pytest

from repro.pcie import (
    INNOVA2_LINK,
    MemoryRegion,
    MmioRegion,
    PcieEndpoint,
    PcieError,
    PcieFabric,
    PcieLinkConfig,
)
from repro.sim import Simulator
from repro.telemetry import Telemetry


def build_fabric(latency=0.0, telemetry=None):
    sim = Simulator(telemetry=telemetry)
    fabric = PcieFabric(sim)
    config = PcieLinkConfig(latency=latency)
    host = MemoryRegion("host", 1 << 20)
    device = MemoryRegion("device", 1 << 16)
    fabric.attach(host, config)
    fabric.attach(device, config)
    fabric.map_window(0x0000_0000, 1 << 20, host)
    fabric.map_window(0x1000_0000, 1 << 16, device)
    return sim, fabric, host, device


class TestAddressing:
    def test_decode_finds_bar(self):
        _sim, fabric, host, device = build_fabric()
        assert fabric.decode(0x100).endpoint is host
        assert fabric.decode(0x1000_0100).endpoint is device

    def test_unmapped_address_raises(self):
        _sim, fabric, *_ = build_fabric()
        with pytest.raises(PcieError):
            fabric.decode(0x9000_0000)

    def test_overlapping_windows_rejected(self):
        sim = Simulator()
        fabric = PcieFabric(sim)
        a = MemoryRegion("a", 0x1000)
        fabric.attach(a)
        fabric.map_window(0x0, 0x1000, a)
        with pytest.raises(PcieError):
            fabric.map_window(0x800, 0x1000, a)

    def test_double_attach_rejected(self):
        sim = Simulator()
        fabric = PcieFabric(sim)
        a = MemoryRegion("a", 0x1000)
        fabric.attach(a)
        with pytest.raises(PcieError):
            fabric.attach(a)

    def test_unattached_requester_rejected(self):
        _sim, fabric, *_ = build_fabric()
        stranger = MemoryRegion("stranger", 0x100)
        with pytest.raises(PcieError):
            fabric.post_write(stranger, 0x0, b"x")


class TestTransactions:
    def test_write_then_read_roundtrip(self):
        sim, fabric, host, device = build_fabric()
        results = []

        def proc(sim):
            yield fabric.post_write(device, 0x100, b"hello")
            data = yield fabric.read(device, 0x100, 5)
            results.append(data)

        sim.spawn(proc(sim))
        sim.run()
        assert results == [b"hello"]

    def test_peer_to_peer_write(self):
        sim, fabric, host, device = build_fabric()

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0040, b"p2p!")

        sim.spawn(proc(sim))
        sim.run()
        assert device.handle_read(0x40, 4) == b"p2p!"

    def test_large_write_splits_into_mps_tlps(self):
        sim, fabric, host, device = build_fabric()

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0000, bytes(1024))

        sim.spawn(proc(sim))
        sim.run()
        assert fabric.stats_tlps["MWr"] == 4  # 1024 / MPS 256

    def test_large_read_completion_split(self):
        sim, fabric, host, device = build_fabric()
        device.write_local(0, bytes(range(256)) * 4)
        results = []

        def proc(sim):
            data = yield fabric.read(host, 0x1000_0000, 1024)
            results.append(data)

        sim.spawn(proc(sim))
        sim.run()
        assert results[0] == bytes(range(256)) * 4
        assert fabric.stats_tlps["CplD"] == 4

    def test_read_time_includes_round_trip_latency(self):
        sim, fabric, host, device = build_fabric(latency=1e-6)
        finish = []

        def proc(sim):
            yield fabric.read(host, 0x1000_0000, 4)
            finish.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        # Request crosses two hops (1 us total one-way) and completion the
        # same; serialization of tiny TLPs adds a little on top.
        assert finish[0] >= 2e-6
        assert finish[0] < 3e-6

    def test_bandwidth_limits_throughput(self):
        sim, fabric, host, device = build_fabric()
        finish = []
        total = 1 << 20  # 1 MiB

        def proc(sim):
            yield fabric.post_write(host, 0x0, length=total)
            finish.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        # Gen3 x8 effective ~59.8 Gbps; 8 Mbit payload + TLP overheads.
        expected_min = (total * 8) / INNOVA2_LINK.effective_data_bps
        assert finish[0] >= expected_min

    def test_timing_only_write_has_no_side_effect(self):
        sim, fabric, host, device = build_fabric()

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0000, length=512)

        sim.spawn(proc(sim))
        sim.run()
        assert device.handle_read(0, 4) == b"\x00\x00\x00\x00"
        assert device.stats_writes == 0

    def test_zero_length_read_rejected(self):
        _sim, fabric, host, _device = build_fabric()
        with pytest.raises(PcieError):
            fabric.read(host, 0x0, 0)


class TestObservedTransactions:
    """A live trace context or tracer records a transaction; it never
    changes its completion or its timing."""

    def _traced_fabric(self, **telemetry):
        sim, fabric, host, device = build_fabric(
            latency=200e-9, telemetry=Telemetry(**telemetry))
        ctx = sim.telemetry.spans.start_trace("pkt", 0.0)
        return sim, fabric, host, device, ctx

    def test_on_done_fires_under_a_span_context(self):
        sim, fabric, host, device, ctx = self._traced_fabric(
            trace=False, spans=True)
        fired = []
        fabric.post_write(device, 0x100, b"hello", trace_ctx=ctx,
                          on_done=lambda: fired.append(("write", sim.now)))
        fabric.post_write(device, 0x200, bytes(1000), trace_ctx=ctx,
                          trace_stage="pcie.train",
                          on_done=lambda: fired.append(("train", sim.now)))
        fabric.read(device, 0x300, 600, trace_ctx=ctx,
                    on_done=lambda data: fired.append(("read", len(data))))
        sim.run()
        assert sorted(kind for kind, _ in fired) == ["read", "train",
                                                    "write"]
        spans = sim.telemetry.spans.get_trace(ctx).spans
        assert len(spans) == 3
        assert all(span.end is not None for span in spans)
        # Each callback ran at its write's delivery, when its span closed.
        closes = {span.stage: span.end for span in spans}
        assert dict(fired)["write"] == closes["pcie.write"]
        assert dict(fired)["train"] == closes["pcie.train"]

    def test_deferred_write_span_closes_at_delivery(self):
        sim, fabric, host, device, ctx = self._traced_fabric(
            trace=False, spans=True)
        handle = fabric.post_write_deferred(device, 0x100, b"cqe",
                                            trace_ctx=ctx,
                                            trace_stage="pcie.cqe_write")
        sim.run()
        late = handle.delivery + 1e-6
        sim.schedule_at(late, handle.commit)
        sim.run()
        (span,) = sim.telemetry.spans.get_trace(ctx).spans
        assert (span.stage, span.start, span.end) == (
            "pcie.cqe_write", 0.0, handle.delivery)
        assert host.handle_read(0x100, 3) == b"cqe"

    def test_tracer_records_both_lanes_at_retire(self):
        timings = {}
        for traced in (False, True):
            sim, fabric, host, device = build_fabric(
                latency=200e-9, telemetry=Telemetry(trace=traced))
            done = []
            fabric.post_write(device, 0x100, b"x" * 64,
                              on_done=lambda: done.append(sim.now))
            sim.run()
            timings[traced] = done
            if traced:
                lanes = sorted(
                    (event["tid"], event["name"], event["args"]["bits"])
                    for event in sim.telemetry.tracer.events
                    if event["ph"] == "X")
                assert [name for _tid, name, _bits in lanes] == ["Tlp",
                                                                 "Tlp"]
                assert lanes[0][2] == lanes[1][2] > 64 * 8
        assert timings[True] == timings[False]


class TestMmio:
    def test_doorbell_callback_invoked(self):
        sim = Simulator()
        fabric = PcieFabric(sim)
        rings = []
        doorbell = MmioRegion("db", lambda addr, data: rings.append((addr, data)))
        host = MemoryRegion("host", 0x1000)
        fabric.attach(host)
        fabric.attach(doorbell)
        fabric.map_window(0x2000_0000, 0x1000, doorbell)

        def proc(sim):
            yield fabric.post_write(host, 0x2000_0800, b"\x01\x00\x00\x00")

        sim.spawn(proc(sim))
        sim.run()
        assert rings == [(0x800, b"\x01\x00\x00\x00")]

    def test_write_only_mmio_read_raises(self):
        region = MmioRegion("db", lambda a, d: None)
        with pytest.raises(PcieError):
            region.handle_read(0, 4)


class TestMemoryRegion:
    def test_out_of_bounds_read_raises(self):
        mem = MemoryRegion("m", 0x100)
        with pytest.raises(PcieError):
            mem.handle_read(0xF0, 0x20)

    def test_out_of_bounds_write_raises(self):
        mem = MemoryRegion("m", 0x100)
        with pytest.raises(PcieError):
            mem.handle_write(0xFF, b"ab")

    def test_stats_count_accesses(self):
        mem = MemoryRegion("m", 0x100)
        mem.handle_write(0, b"a")
        mem.handle_read(0, 1)
        assert mem.stats_writes == 1 and mem.stats_reads == 1


class TestLinkConfig:
    def test_gen3_x8_rate(self):
        config = PcieLinkConfig(generation=3, lanes=8)
        assert config.raw_bps == pytest.approx(63.0e9, rel=0.01)

    def test_gen5_x16_rate(self):
        config = PcieLinkConfig(generation=5, lanes=16)
        assert config.raw_bps == pytest.approx(504.1e9, rel=0.01)

    def test_invalid_generation(self):
        with pytest.raises(ValueError):
            PcieLinkConfig(generation=2)

    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            PcieLinkConfig(lanes=3)
