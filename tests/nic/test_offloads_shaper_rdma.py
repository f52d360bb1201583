"""Unit tests for checksum offloads, the shaper and the RDMA engine."""

import pytest

from repro.net import Flow, Ipv4, PROTO_TCP, PROTO_UDP, Tcp, Udp, \
    fragment_packet
from repro.nic import CQE_FLAG_L3_OK, CQE_FLAG_L4_OK, ChecksumOffload, \
    Shaper
from repro.nic.rdma import RcQp, RdmaEngine, RdmaError
from repro.nic.wqe import OP_RDMA_SEND, TxWqe
from repro.sim import Simulator


def tcp_packet(payload=b"data", checksum=True):
    flow = Flow("02:00:00:00:00:01", "02:00:00:00:00:02",
                "10.0.0.1", "10.0.0.2", 80, 443, proto=PROTO_TCP)
    return flow.make_packet(payload, fill_checksums=checksum)


class TestChecksumOffload:
    def test_valid_packet_sets_both_flags(self):
        flags = ChecksumOffload().validate(tcp_packet())
        assert flags & CQE_FLAG_L3_OK
        assert flags & CQE_FLAG_L4_OK

    def test_corrupt_l4_clears_flag(self):
        packet = tcp_packet()
        packet.find(Tcp).checksum ^= 0xFFFF
        flags = ChecksumOffload().validate(packet)
        assert flags & CQE_FLAG_L3_OK
        assert not (flags & CQE_FLAG_L4_OK)

    def test_fragment_skips_l4_validation(self):
        offload = ChecksumOffload()
        packet = tcp_packet(payload=bytes(3000))
        fragment = fragment_packet(packet, mtu=1500)[0]
        flags = offload.validate(fragment)
        assert flags & CQE_FLAG_L3_OK
        assert not (flags & CQE_FLAG_L4_OK)
        assert offload.stats_rx_l4_skipped == 1

    def test_tx_fill_produces_valid_checksum(self):
        packet = tcp_packet(checksum=False)
        ChecksumOffload().fill(packet)
        ip = packet.find(Ipv4)
        assert packet.find(Tcp).verify(ip.src, ip.dst, packet.payload)


class TestShaper:
    def test_police_passes_then_drops(self):
        sim = Simulator()
        shaper = Shaper(sim)
        shaper.add_limiter("t", rate_bps=1e6, burst_bits=8000)
        assert shaper.police("t", 8000)
        assert not shaper.police("t", 1)
        assert shaper.stats_dropped["t"] == 1

    def test_unknown_meter_passes(self):
        sim = Simulator()
        assert Shaper(sim).police("ghost", 1e12)

    def test_refill_restores_budget(self):
        sim = Simulator()
        shaper = Shaper(sim)
        shaper.add_limiter("t", rate_bps=1e6, burst_bits=1000)
        shaper.police("t", 1000)

        def later(sim):
            yield sim.timeout(1e-3)  # 1000 bits accrue
            assert shaper.police("t", 900)

        sim.spawn(later(sim))
        sim.run()

    def test_delay_for_shaping(self):
        sim = Simulator()
        shaper = Shaper(sim)
        shaper.add_limiter("t", rate_bps=1000.0, burst_bits=0.0)
        assert shaper.delay_for("t", 500) == pytest.approx(0.5)

    def test_remove_limiter(self):
        sim = Simulator()
        shaper = Shaper(sim)
        shaper.add_limiter("t", 1e3)
        shaper.remove_limiter("t")
        assert not shaper.has_limiter("t")


class _Loopback:
    """Two RDMA engines wired directly (no NIC) for transport tests."""

    def __init__(self, sim, drop_first_n=0):
        self.sim = sim
        self.delivered = {"a": [], "b": []}
        self.completed = []
        self.drop_remaining = drop_first_n
        self.a = self._engine("a", "b")
        self.b = self._engine("b", "a")
        self.qp_a = RcQp(1, _FakeSq(), None, _mac(1), _ip(1))
        self.qp_b = RcQp(2, _FakeSq(), None, _mac(2), _ip(2))
        self.a.register_qp(self.qp_a)
        self.b.register_qp(self.qp_b)
        self.qp_a.connect(_mac(2), _ip(2), 2)
        self.qp_b.connect(_mac(1), _ip(1), 1)

    def _engine(self, name, peer_name):
        def egress(qp, frame, name=name, peer_name=peer_name):
            if frame.find_all(type(None)):
                pass
            if self.drop_remaining > 0 and name == "a":
                from repro.net import Bth
                bth = frame.find(Bth)
                if bth is not None and not bth.is_ack:
                    self.drop_remaining -= 1
                    return  # lost on the wire
            peer = self.b if peer_name == "b" else self.a
            # Deliver with a small wire delay.
            self.sim.schedule(1e-6, lambda: peer.on_ingress(frame))

        def deliver(qp, payload, flags, context, first, last,
                    name=name):
            self.delivered[name].append(payload)

        def complete(qp, wqe):
            self.completed.append(wqe.wqe_index)

        return RdmaEngine(self.sim, mtu=1024, retransmit_timeout=50e-6,
                          egress=egress, deliver_segment=deliver,
                          complete_send=complete)


class _FakeSq:
    qpn = 0
    vport = 0


def _mac(n):
    return f"02:00:00:00:00:{n:02x}"


def _ip(n):
    return f"10.0.0.{n}"


class TestRdmaEngine:
    def test_message_segmentation_and_delivery(self):
        sim = Simulator()
        loop = _Loopback(sim)
        wqe = TxWqe(OP_RDMA_SEND, 1, 0, 0, 2500)

        loop.a.start_message(loop.qp_a, wqe, bytes(2500))
        sim.run(until=0.01)
        # 3 segments at MTU 1024 delivered to b in order.
        assert [len(p) for p in loop.delivered["b"]] == [1024, 1024, 452]
        # Send completion fired after the ack.
        assert loop.completed == [0]

    def test_retransmission_recovers_loss(self):
        sim = Simulator()
        loop = _Loopback(sim, drop_first_n=1)
        wqe = TxWqe(OP_RDMA_SEND, 1, 0, 0, 2048)

        loop.a.start_message(loop.qp_a, wqe, bytes(2048))
        sim.run(until=0.01)
        assert sum(len(p) for p in loop.delivered["b"]) == 2048
        assert loop.qp_a.stats_retransmits > 0
        assert loop.completed == [0]

    def test_duplicate_segment_reacked_not_redelivered(self):
        sim = Simulator()
        loop = _Loopback(sim)
        wqe = TxWqe(OP_RDMA_SEND, 1, 0, 0, 100)
        loop.a.start_message(loop.qp_a, wqe, b"x" * 100)
        # Duplicate the segment mid-flight (as a spurious retransmission
        # after a delayed ack would).
        def dup(sim):
            yield sim.timeout(0.5e-6)
            if loop.qp_a.outstanding:
                loop.a._retransmit(loop.qp_a)

        sim.spawn(dup(sim))
        sim.run(until=0.01)
        assert loop.delivered["b"] == [b"x" * 100]
        assert loop.qp_b.stats_duplicate_segments == 1
        assert loop.completed == [0]

    def test_unconnected_send_rejected(self):
        sim = Simulator()
        engine = RdmaEngine(sim, egress=lambda *a: None,
                            deliver_segment=lambda *a: None,
                            complete_send=lambda *a: None)
        qp = RcQp(3, _FakeSq(), None, _mac(3), _ip(3))
        engine.register_qp(qp)
        wqe = TxWqe(OP_RDMA_SEND, 3, 0, 0, 10)
        with pytest.raises(RdmaError):
            engine.start_message(qp, wqe, b"x")

    def test_duplicate_qpn_rejected(self):
        sim = Simulator()
        engine = RdmaEngine(sim, egress=lambda *a: None,
                            deliver_segment=lambda *a: None,
                            complete_send=lambda *a: None)
        qp = RcQp(3, _FakeSq(), None, _mac(3), _ip(3))
        engine.register_qp(qp)
        with pytest.raises(RdmaError):
            engine.register_qp(qp)

    def test_foreign_packet_ignored(self):
        sim = Simulator()
        loop = _Loopback(sim)
        from repro.net import Packet
        assert loop.a.on_ingress(Packet(payload=b"not roce")) is False

    def test_per_packet_overhead_accounting(self):
        sim = Simulator()
        engine = RdmaEngine(sim, egress=lambda *a: None,
                            deliver_segment=lambda *a: None,
                            complete_send=lambda *a: None)
        # eth 14 + ip 20 + udp 8 + bth 12 + icrc 4
        assert engine.per_packet_overhead() == 58
