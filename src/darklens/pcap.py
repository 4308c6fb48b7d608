"""Classic pcap decoding tuned for darknet captures.

Scope is deliberately narrow: classic pcap only (magic 0xa1b2c3d4 family, both
byte orders, micro- or nanosecond variants), Ethernet or raw-IP link layers,
IPv4 with TCP, UDP or ICMP on top. Everything else is either skipped and
counted (per-packet oddities) or fatal (a file we cannot interpret at all).
The pcapng container is out of scope.

The reader is a single-pass iterator; skip counters are valid once iteration
finishes. The whole capture is held in memory, which is fine for the multi
hundred MB files a telescope rotates through and keeps the hot loop free of
syscalls.
"""
from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

from .model import PacketMeta, Protocol, TCP_ACK, TCP_SYN, TrafficType

MAGIC_US_BE = 0xA1B2C3D4
MAGIC_US_LE = 0xD4C3B2A1
MAGIC_NS_BE = 0xA1B23C4D
MAGIC_NS_LE = 0x4D3CB2A1

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

ETHERTYPE_IPV4 = 0x0800

ICMP_ECHO_REQUEST_TYPE = 8

# One unpack per header. IPv4: version/IHL, ID, flags + fragment offset,
# protocol, source, destination. TCP: ports, sequence number, flags byte.
_IPV4_HDR = struct.Struct("!BxxxHHxBxxII")
_TCP_HDR = struct.Struct("!HHI5xB")
_PORTS_HDR = struct.Struct("!HH")


class PcapReadError(ValueError):
    pass


class BadMagicError(PcapReadError):
    pass


class UnsupportedLinkTypeError(PcapReadError):
    pass


class PcapReader:
    """Iterate the packets of one classic pcap file, as PacketMeta-ordered tuples.

    Per-packet problems never abort the run: frames that are not IPv4, records
    cut short of their declared headers, IP fragments past offset 0, and
    transports other than TCP/UDP/ICMP are each skipped and counted.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self._buf = fh.read()
        if len(self._buf) < 24:
            raise BadMagicError(f"{path}: file shorter than a pcap global header")
        magic = struct.unpack(">I", self._buf[:4])[0]
        if magic in (MAGIC_US_BE, MAGIC_NS_BE):
            self._endian = ">"
        elif magic in (MAGIC_US_LE, MAGIC_NS_LE):
            self._endian = "<"
        else:
            raise BadMagicError(f"{path}: bad pcap magic 0x{magic:08x}")
        self._nanos = magic in (MAGIC_NS_BE, MAGIC_NS_LE)
        _vmaj, _vmin, _tz, _sig, _snap, network = struct.unpack(
            self._endian + "HHiIII", self._buf[4:24]
        )
        if network not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise UnsupportedLinkTypeError(f"{path}: unsupported link type {network}")
        self.linktype = network
        self.records_total = 0
        self.packets_read = 0
        self.skipped_non_ipv4 = 0
        self.skipped_truncated = 0
        self.skipped_transport = 0

    @property
    def total_skipped(self) -> int:
        return self.skipped_non_ipv4 + self.skipped_truncated + self.skipped_transport

    def __iter__(self) -> Iterator[tuple]:
        """Yield each decoded packet as a plain tuple in PacketMeta field order.

        The counters are kept in locals and written back when iteration ends.
        """
        buf = self._buf
        n = len(buf)
        rec_unpack = struct.Struct(self._endian + "IIII").unpack_from
        ipv4_unpack = _IPV4_HDR.unpack_from
        tcp_unpack = _TCP_HDR.unpack_from
        ports_unpack = _PORTS_HDR.unpack_from
        nanos = self._nanos
        l2_off = 14 if self.linktype == LINKTYPE_ETHERNET else 0
        is_ethernet = self.linktype == LINKTYPE_ETHERNET
        tcp = Protocol.TCP
        udp = Protocol.UDP
        icmp = Protocol.ICMP
        records = self.records_total
        read = self.packets_read
        non_ipv4 = self.skipped_non_ipv4
        truncated = self.skipped_truncated
        transport = self.skipped_transport

        off = 24
        try:
            while off + 16 <= n:
                ts_sec, ts_frac, caplen, origlen = rec_unpack(buf, off)
                off += 16
                records += 1
                end = off + caplen
                if end > n:
                    # record header promises more bytes than the file holds
                    truncated += 1
                    break
                data_off = off
                off = end

                if nanos:
                    ts_us = ts_sec * 1_000_000 + ts_frac // 1000
                else:
                    ts_us = ts_sec * 1_000_000 + ts_frac

                ip_off = data_off + l2_off
                if is_ethernet:
                    if caplen < 14:
                        truncated += 1
                        continue
                    if buf[data_off + 12] != 0x08 or buf[data_off + 13] != 0x00:
                        non_ipv4 += 1
                        continue

                if end - ip_off < 20:
                    truncated += 1
                    continue
                vihl, ip_id, frag, proto, src_ip, dst_ip = ipv4_unpack(buf, ip_off)
                if vihl >> 4 != 4:
                    non_ipv4 += 1
                    continue
                ihl = (vihl & 0x0F) * 4
                if ihl < 20 or ip_off + ihl > end:
                    truncated += 1
                    continue
                if frag & 0x1FFF:
                    # non-first fragment, transport header lives in another packet
                    transport += 1
                    continue
                l4 = ip_off + ihl

                if proto == 6:
                    if end - l4 < 20:
                        truncated += 1
                        continue
                    src_port, dst_port, tcp_seq, tcp_flags = tcp_unpack(buf, l4)
                    read += 1
                    yield (ts_us, src_ip, dst_ip, tcp, src_port, dst_port,
                           tcp_flags & 0x3F, ip_id, tcp_seq, None, origlen)
                elif proto == 17:
                    if end - l4 < 8:
                        truncated += 1
                        continue
                    src_port, dst_port = ports_unpack(buf, l4)
                    read += 1
                    yield (ts_us, src_ip, dst_ip, udp, src_port, dst_port,
                           None, ip_id, None, None, origlen)
                elif proto == 1:
                    if end - l4 < 4:
                        truncated += 1
                        continue
                    read += 1
                    yield (ts_us, src_ip, dst_ip, icmp, None, None,
                           None, ip_id, None, buf[l4], origlen)
                else:
                    transport += 1
        finally:
            self.records_total = records
            self.packets_read = read
            self.skipped_non_ipv4 = non_ipv4
            self.skipped_truncated = truncated
            self.skipped_transport = transport


def classify_traffic_type(p: PacketMeta) -> Optional[TrafficType]:
    """Map a packet to its scanning traffic class, or None for non-scanning.

    TCP counts only with SYN set and ACK clear; a SYN-ACK is backscatter from
    a spoofed-source victim, not a probe. Every UDP datagram counts. ICMP
    counts only for echo requests.
    """
    proto = p.protocol
    if proto is Protocol.TCP:
        flags = p.tcp_flags
        if flags & TCP_SYN and not flags & TCP_ACK:
            return TrafficType.TCP_SYN
        return None
    if proto is Protocol.UDP:
        return TrafficType.UDP
    if p.icmp_type == ICMP_ECHO_REQUEST_TYPE:
        return TrafficType.ICMP_ECHO_REQUEST
    return None


def write_pcap(path, packets, linktype: int = LINKTYPE_ETHERNET, snaplen: int = 65535) -> int:
    """Write (ts_us, frame_bytes) pairs as a little-endian classic pcap.

    Returns the number of records written. Frames longer than snaplen are
    stored truncated with orig_len preserved, mirroring capture behavior.
    """
    rec_hdr = struct.Struct("<IIII")
    count = 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", MAGIC_US_BE, 2, 4, 0, 0, snaplen, linktype))
        for ts_us, frame in packets:
            caplen = min(len(frame), snaplen)
            fh.write(rec_hdr.pack(ts_us // 1_000_000, ts_us % 1_000_000, caplen, len(frame)))
            fh.write(frame[:caplen])
            count += 1
    return count
