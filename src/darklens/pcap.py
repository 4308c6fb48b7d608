"""Classic pcap decoding tuned for darknet captures.

Scope is deliberately narrow: classic pcap only (magic 0xa1b2c3d4 family, both
byte orders, micro- or nanosecond variants), Ethernet or raw-IP link layers,
IPv4 with TCP, UDP or ICMP on top. Everything else is either skipped and
counted (per-packet oddities) or fatal (a file we cannot interpret at all).
The pcapng container is out of scope.

The reader is a single-pass iterator; skip counters are valid once iteration
finishes. It reads the capture BLOCK bytes at a time and decodes each record
where it lies in the block, so memory is one block plus the largest record,
whatever the size of the file. A record costs one unpack of its header in the
file's byte order, and an IPv4 frame with IHL 5 that holds 8 transport bytes
one more, in network order, of its link, IPv4 and transport headers at once;
IP options, frames that are not IPv4 and shorter frames take a branch that
reads each header on its own. Whether a record ends past the end of the file
is checked only where the block is refilled, against the bytes not yet read.
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

# Bytes read from the capture at a time.
BLOCK = 1 << 16

# Network-order layouts, from the record header on (its 16 bytes skipped):
# the link layer, whose Ethernet type is an empty field on raw IP; then the
# IPv4 fixed header's version/IHL, ID, flags + fragment offset, protocol,
# source and destination; then the transport fields: TCP's ports, sequence
# number and flags byte, or the first two 16-bit words alone (UDP's ports, or
# ICMP's type and code).
_L2_HDR = {LINKTYPE_ETHERNET: "!16x12x2s", LINKTYPE_RAW_IP: "!16x0s"}
_IPV4_HDR = "BxxxHHxBxxII"
_TCP_HDR = "HHI5xB"
_PORTS_HDR = "HH"


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
        self.packets_read = 0
        self.skipped_non_ipv4 = 0
        self.skipped_truncated = 0
        self.skipped_transport = 0

    @property
    def total_skipped(self) -> int:
        return self.skipped_non_ipv4 + self.skipped_truncated + self.skipped_transport

    @property
    def records_total(self) -> int:
        """Every record header read: each one is a packet read or a skip."""
        return self.packets_read + self.total_skipped

    def __iter__(self) -> Iterator[tuple]:
        """Yield each decoded packet as a plain tuple in PacketMeta field order.

        The capture is read BLOCK bytes at a time and each record is decoded
        at its offset in the block; a record that runs past the block's end
        is carried over into the next read. A record is counted once its
        header is in hand. Each record costs one unpack of its header, and
        an IPv4 frame with IHL 5 that holds 8 transport bytes one more, of
        its link, IPv4 and transport headers at once: with the TCP sequence
        number and flags when the frame holds a whole TCP header, and with
        the first two 16-bit words alone otherwise (UDP's ports, ICMP's
        type; a TCP header so short is truncated). IP options, frames that
        are not IPv4 and shorter frames take a branch that reads each
        header on its own. The bytes not yet read are counted only where the
        block is refilled: a record whose header says it ends past them is
        truncated there, and its bytes are not read, so the records a file
        gains after its size was taken are not read either. A read that
        comes back short of a record (the file shrank) ends the iteration.
        The counters are kept in locals and written back when iteration ends.
        """
        rec_unpack = struct.Struct(self._endian + "IIII").unpack_from
        l2 = _L2_HDR[self.linktype]
        tcp_body = struct.Struct(l2 + _IPV4_HDR + _TCP_HDR).unpack_from
        ports_body = struct.Struct(l2 + _IPV4_HDR + _PORTS_HDR).unpack_from
        ip_unpack = struct.Struct(l2 + _IPV4_HDR).unpack_from
        tcp_unpack = struct.Struct("!" + _TCP_HDR).unpack_from
        ports_unpack = struct.Struct("!" + _PORTS_HDR).unpack_from
        nanos = self._nanos
        is_ethernet = self.linktype == LINKTYPE_ETHERNET
        ip_off = 14 if is_ethernet else 0
        ipv4_type = b"\x08\x00" if is_ethernet else b""
        ip_end = ip_off + 20
        tcp_end = ip_end + 20
        ports_end = ip_end + 8
        ip_start = 16 + ip_off  # from the record header to the IPv4 header
        tcp = Protocol.TCP
        udp = Protocol.UDP
        icmp = Protocol.ICMP
        read = self.packets_read
        non_ipv4 = self.skipped_non_ipv4
        truncated = self.skipped_truncated
        transport = self.skipped_transport

        fh = open(self.path, "rb")
        try:
            fh.seek(24)
            read_bytes = fh.read
            # Bytes of the file not yet read. A record said to end past them
            # is not read, so a garbled caplen costs no memory.
            unread = os.fstat(fh.fileno()).st_size - 24
            buf = b""
            have = 0  # len(buf)
            pos = 0  # offset in buf of the next record header
            while True:
                if have - pos < 16:
                    if have - pos + unread < 16:
                        break
                    more = read_bytes(min(max(BLOCK, 16), unread))
                    unread -= len(more)
                    buf = buf[pos:] + more
                    have = len(buf)
                    pos = 0
                    if have < 16:
                        break
                ts_sec, ts_frac, caplen, origlen = rec_unpack(buf, pos)
                rec = pos
                pos += 16 + caplen
                if pos > have:
                    if pos - have > unread:
                        truncated += 1
                        break
                    more = read_bytes(min(max(BLOCK, pos - have), unread))
                    unread -= len(more)
                    buf = buf[rec:] + more
                    have = len(buf)
                    pos -= rec
                    rec = 0
                    if pos > have:
                        truncated += 1
                        break

                # Offsets below are from rec, the record's header. rest counts
                # the transport bytes in hand; where one unpack read every
                # header it is the least that unpack's caplen test ensures,
                # 20 or 8, which the rules below (TCP needs 20 bytes, UDP 8,
                # ICMP 4) tell apart as they would the exact count.
                if caplen >= tcp_end:
                    (l2_type, vihl, ip_id, frag, proto, src_ip, dst_ip,
                     src_port, dst_port, tcp_seq, tcp_flags) = tcp_body(buf, rec)
                    rest = 20
                elif caplen >= ports_end:
                    (l2_type, vihl, ip_id, frag, proto, src_ip, dst_ip,
                     src_port, dst_port) = ports_body(buf, rec)
                    rest = 8
                else:
                    vihl = 0
                if vihl != 0x45 or l2_type != ipv4_type:
                    # Every other shape, read one header at a time: IP
                    # options, a frame that is not IPv4, or one too short
                    # for either layout. A frame too short for the IPv4
                    # header is not IPv4 if its Ethernet type says so, and
                    # truncated otherwise.
                    if caplen < ip_end:
                        if is_ethernet and caplen >= 14 and buf[rec + 28:rec + 30] != ipv4_type:
                            non_ipv4 += 1
                        else:
                            truncated += 1
                        continue
                    l2_type, vihl, ip_id, frag, proto, src_ip, dst_ip = ip_unpack(buf, rec)
                    if l2_type != ipv4_type or vihl >> 4 != 4:
                        non_ipv4 += 1
                        continue
                    ihl = (vihl & 0x0F) * 4
                    if ihl < 20 or ip_off + ihl > caplen:
                        truncated += 1
                        continue
                    rest = caplen - ip_off - ihl
                    l4 = rec + (ip_start + ihl)
                    if rest >= 20:
                        src_port, dst_port, tcp_seq, tcp_flags = tcp_unpack(buf, l4)
                    elif rest >= 4:
                        src_port, dst_port = ports_unpack(buf, l4)
                if frag & 0x1FFF:
                    # non-first fragment, transport header lives in another packet
                    transport += 1
                    continue

                if nanos:
                    ts_us = ts_sec * 1_000_000 + ts_frac // 1000
                else:
                    ts_us = ts_sec * 1_000_000 + ts_frac

                if proto == 6:
                    if rest < 20:
                        truncated += 1
                        continue
                    read += 1
                    yield (ts_us, src_ip, dst_ip, tcp, src_port, dst_port,
                           tcp_flags & 0x3F, ip_id, tcp_seq, None, origlen)
                elif proto == 17:
                    if rest < 8:
                        truncated += 1
                        continue
                    read += 1
                    yield (ts_us, src_ip, dst_ip, udp, src_port, dst_port,
                           None, ip_id, None, None, origlen)
                elif proto == 1:
                    if rest < 4:
                        truncated += 1
                        continue
                    # The type is the first byte of the ICMP header.
                    read += 1
                    yield (ts_us, src_ip, dst_ip, icmp, None, None,
                           None, ip_id, None, src_port >> 8, origlen)
                else:
                    transport += 1
        finally:
            fh.close()
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

