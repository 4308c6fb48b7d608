import random

from darklens.fingerprint import (
    PortFingerprintRow,
    ProbeTool,
    fingerprint_packet,
    masscan_ip_id,
    port_fingerprint_table,
)
from darklens.model import (
    DarknetEvent, PacketMeta, Protocol, TrafficType, ip_to_int, write_csv,
)
from helpers import TYPE_INDEX, port_tally


def _tcp(dst="10.0.0.1", dport=80, seq=0, ip_id=0):
    return PacketMeta(
        0, ip_to_int("198.51.100.9"), ip_to_int(dst), Protocol.TCP,
        51000, dport, 0x02, ip_id, seq, None, 60,
    )


def _udp(ip_id=0):
    return PacketMeta(
        0, ip_to_int("198.51.100.9"), ip_to_int("10.0.0.1"), Protocol.UDP,
        51000, 53, None, ip_id, None, None, 60,
    )


class TestFingerprint:
    def test_fixed_id_constant(self):
        assert fingerprint_packet(_tcp(ip_id=54321)) is ProbeTool.ZMAP
        assert fingerprint_packet(_udp(ip_id=54321)) is ProbeTool.ZMAP

    def test_xor_id(self):
        # 10.0.0.1 = 0x0A000001; port 80 = 0x50; seq chosen so the XOR keeps
        # only low-16 bits: 0x0A000001 ^ 0x50 ^ 0x0A000051 = 0.
        dst = "10.0.0.1"
        seq = 0x0A000051
        assert masscan_ip_id(ip_to_int(dst), 80, seq) == 0
        assert fingerprint_packet(_tcp(dst=dst, dport=80, seq=seq, ip_id=0)) is ProbeTool.MASSCAN

    def test_fixed_id_wins_over_xor_collision(self):
        # Build a probe whose XOR fingerprint equals the fixed constant too.
        dst = ip_to_int("10.0.0.1")
        seq = (dst ^ 80 ^ 54321) & 0xFFFFFFFF
        assert masscan_ip_id(dst, 80, seq) == 54321
        p = _tcp(dst="10.0.0.1", dport=80, seq=seq, ip_id=54321)
        assert fingerprint_packet(p) is ProbeTool.ZMAP

    def test_udp_never_matches_xor_rule(self):
        # Without a TCP sequence number there is nothing to validate against.
        p = _udp(ip_id=masscan_ip_id(ip_to_int("10.0.0.1"), 53, 0))
        assert fingerprint_packet(p) in (ProbeTool.ZMAP, ProbeTool.OTHER)
        assert fingerprint_packet(_udp(ip_id=7)) is ProbeTool.OTHER

    def test_other(self):
        assert fingerprint_packet(_tcp(ip_id=1)) is ProbeTool.OTHER

    def test_random_packets_match_independent_oracle(self):
        rng = random.Random(161803)
        for _ in range(5000):
            dst = rng.getrandbits(32)
            dport = rng.randrange(65536)
            seq = rng.getrandbits(32)
            ip_id = rng.getrandbits(16)
            p = PacketMeta(0, 1, dst, Protocol.TCP, 2, dport, 0x02, ip_id, seq, None, 60)
            got = fingerprint_packet(p)
            if ip_id == 54321:
                want = ProbeTool.ZMAP
            elif ip_id == ((dst ^ dport ^ seq) % 65536):
                want = ProbeTool.MASSCAN
            else:
                want = ProbeTool.OTHER
            assert got is want


def _ev(port, tt, zmap=0, masscan=0, other=0, src="198.51.100.9"):
    pkts = zmap + masscan + other
    return DarknetEvent(
        src_ip=ip_to_int(src),
        dst_port=port,
        traffic_type=TYPE_INDEX[tt],
        start_ts=0,
        end_ts=1,
        pkt_count=pkts,
        unique_dst_count=1,
        zmap_pkts=zmap,
        masscan_pkts=masscan,
        other_pkts=other,
    )


class TestPortTable:
    def test_aggregation_and_ranking(self):
        evs = [
            _ev(23, TrafficType.TCP_SYN, zmap=5),
            _ev(23, TrafficType.TCP_SYN, masscan=7, src="198.51.100.10"),
            _ev(23, TrafficType.UDP, other=2),
            _ev(53, TrafficType.UDP, other=30),
            _ev(0, TrafficType.ICMP_ECHO_REQUEST, other=1),
        ]
        rows = port_fingerprint_table(port_tally(evs))
        assert [(r.port, r.protocol, r.total_pkts) for r in rows] == [
            (53, "udp", 30),
            (23, "tcp", 12),
            (23, "udp", 2),
            (0, "icmp", 1),
        ]
        tcp23 = rows[1]
        assert (tcp23.zmap_pkts, tcp23.masscan_pkts, tcp23.other_pkts) == (5, 7, 0)

    def test_tie_breaks_toward_lower_port_then_protocol(self):
        evs = [
            _ev(80, TrafficType.TCP_SYN, zmap=5),
            _ev(22, TrafficType.TCP_SYN, zmap=5),
            _ev(22, TrafficType.UDP, zmap=5),
        ]
        rows = port_fingerprint_table(port_tally(evs))
        assert [(r.port, r.protocol) for r in rows] == [(22, "tcp"), (22, "udp"), (80, "tcp")]

    def test_csv_writer(self, tmp_path):
        p = tmp_path / "ports.csv"
        rows = port_fingerprint_table(port_tally([_ev(23, TrafficType.TCP_SYN, zmap=5)]))
        write_csv(p, PortFingerprintRow._fields, rows)
        lines = p.read_text().splitlines()
        assert lines[0] == "port,protocol,zmap_pkts,masscan_pkts,other_pkts,total_pkts"
        assert lines[1] == "23,tcp,5,0,0,5"
