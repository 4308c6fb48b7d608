"""Classic pcap decoding tuned for darknet captures.

Scope is deliberately narrow: classic pcap only (magic 0xa1b2c3d4 family, both
byte orders, micro- or nanosecond variants), Ethernet or raw-IP link layers,
IPv4 with TCP, UDP or ICMP on top. Everything else is either skipped and
counted (per-packet oddities) or fatal (a file we cannot interpret at all).
The pcapng container is out of scope.

The reader is a single-pass iterator; skip counters are valid once iteration
finishes. It reads each record's header and then its bytes through one
buffer of BLOCK bytes, so memory is one buffer plus the largest record,
whatever the size of the file.
"""
from __future__ import annotations

import os
import struct
from typing import Iterator, Optional, Tuple

from .model import PacketMeta, Protocol, TCP_ACK, TCP_SYN, TrafficType

MAGIC_US_BE = 0xA1B2C3D4
MAGIC_US_LE = 0xD4C3B2A1
MAGIC_NS_BE = 0xA1B23C4D
MAGIC_NS_LE = 0x4D3CB2A1

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

ICMP_ECHO_REQUEST_TYPE = 8

# Size of the read buffer over the capture.
BLOCK = 1 << 20

# One unpack per header. IPv4: version/IHL, ID, flags + fragment offset,
# protocol, source, destination. TCP: ports, sequence number, flags byte.
_IPV4_HDR = struct.Struct("!BxxxHHxBxxII")
_TCP_HDR = struct.Struct("!HHI5xB")
_PORTS_HDR = struct.Struct("!HH")


class BadMagicError(ValueError):
    pass


class UnsupportedLinkTypeError(ValueError):
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
            header = fh.read(24)
        if len(header) < 24:
            raise BadMagicError(f"{path}: file shorter than a pcap global header")
        magic = struct.unpack(">I", header[:4])[0]
        if magic in (MAGIC_US_BE, MAGIC_NS_BE):
            self._endian = ">"
        elif magic in (MAGIC_US_LE, MAGIC_NS_LE):
            self._endian = "<"
        else:
            raise BadMagicError(f"{path}: bad pcap magic 0x{magic:08x}")
        self._nanos = magic in (MAGIC_NS_BE, MAGIC_NS_LE)
        network = struct.unpack_from(self._endian + "I", header, 20)[0]
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

        A record is counted once its bytes are in hand, or as truncated once
        its header says it ends past the end of the file, and is then not read.
        A read that comes back short (the file shrank) ends the iteration.
        The counters are kept in locals and written back when iteration ends.
        """
        rec_unpack = struct.Struct(self._endian + "IIII").unpack
        ipv4_unpack = _IPV4_HDR.unpack_from
        tcp_unpack = _TCP_HDR.unpack_from
        ports_unpack = _PORTS_HDR.unpack_from
        nanos = self._nanos
        ip_off = 14 if self.linktype == LINKTYPE_ETHERNET else 0
        is_ethernet = self.linktype == LINKTYPE_ETHERNET
        tcp = Protocol.TCP
        udp = Protocol.UDP
        icmp = Protocol.ICMP
        records = self.records_total
        read = self.packets_read
        non_ipv4 = self.skipped_non_ipv4
        truncated = self.skipped_truncated
        transport = self.skipped_transport

        fh = open(self.path, "rb", buffering=BLOCK)
        try:
            fh.seek(24)
            read_bytes = fh.read
            # A record said to end past the file is not read, so a garbled
            # caplen costs no memory.
            left = os.fstat(fh.fileno()).st_size - 24
            while left >= 16:
                hdr = read_bytes(16)
                if len(hdr) < 16:
                    break
                ts_sec, ts_frac, caplen, origlen = rec_unpack(hdr)
                records += 1
                left -= 16 + caplen
                buf = read_bytes(caplen) if left >= 0 else b""
                if len(buf) < caplen:
                    truncated += 1
                    break

                if nanos:
                    ts_us = ts_sec * 1_000_000 + ts_frac // 1000
                else:
                    ts_us = ts_sec * 1_000_000 + ts_frac

                if is_ethernet:
                    if caplen < 14:
                        truncated += 1
                        continue
                    if buf[12] != 0x08 or buf[13] != 0x00:
                        non_ipv4 += 1
                        continue

                if caplen - ip_off < 20:
                    truncated += 1
                    continue
                vihl, ip_id, frag, proto, src_ip, dst_ip = ipv4_unpack(buf, ip_off)
                if vihl >> 4 != 4:
                    non_ipv4 += 1
                    continue
                ihl = (vihl & 0x0F) * 4
                if ihl < 20 or ip_off + ihl > caplen:
                    truncated += 1
                    continue
                if frag & 0x1FFF:
                    # non-first fragment, transport header lives in another packet
                    transport += 1
                    continue
                l4 = ip_off + ihl

                if proto == 6:
                    if caplen - l4 < 20:
                        truncated += 1
                        continue
                    src_port, dst_port, tcp_seq, tcp_flags = tcp_unpack(buf, l4)
                    read += 1
                    yield (ts_us, src_ip, dst_ip, tcp, src_port, dst_port,
                           tcp_flags & 0x3F, ip_id, tcp_seq, None, origlen)
                elif proto == 17:
                    if caplen - l4 < 8:
                        truncated += 1
                        continue
                    src_port, dst_port = ports_unpack(buf, l4)
                    read += 1
                    yield (ts_us, src_ip, dst_ip, udp, src_port, dst_port,
                           None, ip_id, None, None, origlen)
                elif proto == 1:
                    if caplen - l4 < 4:
                        truncated += 1
                        continue
                    read += 1
                    yield (ts_us, src_ip, dst_ip, icmp, None, None,
                           None, ip_id, None, buf[l4], origlen)
                else:
                    transport += 1
        finally:
            fh.close()
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
