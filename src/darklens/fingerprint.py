"""Scanner tool fingerprinting from IP header quirks.

Two widely deployed scanners leave recognizable marks in the IPv4 ID field:
one stamps a fixed constant, the other derives the ID from destination and
sequence fields so it can validate responses statelessly. The fixed-constant
check runs first, so it wins ties.
"""
from __future__ import annotations

import enum
from typing import Mapping, NamedTuple, Sequence, Tuple

from .model import TRAFFIC_TYPES, PacketMeta, Protocol, TrafficType


class ProbeTool(str, enum.Enum):
    ZMAP = "zmap"
    MASSCAN = "masscan"
    OTHER = "other"


# The IP ID the fixed-constant scanner stamps on every probe.
ZMAP_IP_ID = 54321


def masscan_ip_id(dst_ip: int, dst_port: int, tcp_seq: int) -> int:
    """IP ID the stateless-validation scanner would emit for this probe.

    dst_port and tcp_seq are zero-extended to 32 bits before the XOR; only the
    low 16 bits survive into the ID field.
    """
    return (dst_ip ^ dst_port ^ tcp_seq) & 0xFFFF


def fingerprint_packet(p: PacketMeta) -> ProbeTool:
    if p.ip_id == ZMAP_IP_ID:
        return ProbeTool.ZMAP
    if p.protocol is Protocol.TCP and p.tcp_seq is not None:
        if p.ip_id == masscan_ip_id(p.dst_ip, p.dst_port, p.tcp_seq):
            return ProbeTool.MASSCAN
    return ProbeTool.OTHER


_TYPE_TO_PROTOCOL = {
    TrafficType.TCP_SYN: "tcp",
    TrafficType.UDP: "udp",
    TrafficType.ICMP_ECHO_REQUEST: "icmp",
}

class PortFingerprintRow(NamedTuple):
    """One ports.csv row; the field names are the CSV header."""

    port: int
    protocol: str
    zmap_pkts: int
    masscan_pkts: int
    other_pkts: int
    total_pkts: int


def port_fingerprint_table(
    tally: Mapping[Tuple[int, int], Sequence[int]]
) -> list[PortFingerprintRow]:
    """One row per (port, protocol) of a tool tally, busiest first.

    tally maps (dst_port, traffic-type index) to the [zmap, masscan, other]
    packet counts of the events on it. Ties on total packets break toward
    the lower port number, then protocol name, so the ranking is
    deterministic. ICMP rows appear under port 0.
    """
    rows = [
        PortFingerprintRow(port, _TYPE_TO_PROTOCOL[TRAFFIC_TYPES[ttype]], z, m, o, z + m + o)
        for (port, ttype), (z, m, o) in tally.items()
    ]
    rows.sort(key=lambda r: (-r.total_pkts, r.port, r.protocol))
    return rows

