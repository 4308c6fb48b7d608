import itertools
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import darklens.pcap as pcap_mod
from darklens.model import PacketMeta, Protocol, TrafficType, ip_to_int
from darklens.pcap import (
    BadMagicError,
    LINKTYPE_RAW_IP,
    PcapReader,
    UnsupportedLinkTypeError,
    classify_traffic_type,
)
from helpers import (
    PCAP_COUNTERS,
    check_packet_meta,
    US,
    build_pcap,
    eth_frame,
    oracle_decode_pcap,
    oracle_icmp,
    oracle_ipv4,
    oracle_tcp,
    oracle_udp,
    traced_peak,
    write_pcap,
)


def _syn_frame(src="198.51.100.9", dst="10.0.0.5", sport=51000, dport=23,
               seq=0xDEADBEEF, flags=0x02, ip_id=54321):
    return eth_frame(oracle_ipv4(src, dst, 6, oracle_tcp(sport, dport, seq, flags), ip_id=ip_id))


def _read_all(data, tmp_path, name="t.pcap"):
    """The reader and its packets, each tuple named as a PacketMeta."""
    p = tmp_path / name
    p.write_bytes(data)
    reader = PcapReader(p)
    pkts = [PacketMeta._make(t) for t in reader]
    return reader, pkts


class TestDecode:
    def test_tcp_syn_fields(self, tmp_path):
        data = build_pcap([(1654041600 * US + 123456, _syn_frame())])
        reader, pkts = _read_all(data, tmp_path)
        assert reader.packets_read == 1
        (p,) = pkts
        assert p.ts_us == 1654041600 * US + 123456
        assert p.src_ip == ip_to_int("198.51.100.9")
        assert p.dst_ip == ip_to_int("10.0.0.5")
        assert p.protocol is Protocol.TCP
        assert (p.src_port, p.dst_port) == (51000, 23)
        assert p.tcp_flags == 0x02
        assert p.tcp_seq == 0xDEADBEEF
        assert p.ip_id == 54321
        assert p.icmp_type is None

    def test_udp_fields(self, tmp_path):
        frame = eth_frame(oracle_ipv4("198.51.100.9", "10.0.1.7", 17, oracle_udp(40000, 53), ip_id=9))
        _, pkts = _read_all(build_pcap([(5 * US, frame)]), tmp_path)
        (p,) = pkts
        assert p.protocol is Protocol.UDP
        assert (p.src_port, p.dst_port) == (40000, 53)
        assert p.tcp_flags is None and p.tcp_seq is None

    def test_icmp_echo_fields(self, tmp_path):
        frame = eth_frame(oracle_ipv4("198.51.100.9", "10.0.1.7", 1, oracle_icmp(8)))
        _, pkts = _read_all(build_pcap([(5 * US, frame)]), tmp_path)
        (p,) = pkts
        assert p.protocol is Protocol.ICMP
        assert p.icmp_type == 8
        assert p.src_port is None and p.dst_port is None

    def test_packets_are_plain_tuples_in_field_order(self, tmp_path):
        p = tmp_path / "t.pcap"
        p.write_bytes(build_pcap([(1 * US, _syn_frame())]))
        (t,) = PcapReader(p)
        assert type(t) is tuple
        assert t == PacketMeta(1 * US, ip_to_int("198.51.100.9"), ip_to_int("10.0.0.5"),
                               Protocol.TCP, 51000, 23, 0x02, 54321, 0xDEADBEEF, None, 54)

    def test_big_endian_equivalent(self, tmp_path):
        recs = [(7 * US + 42, _syn_frame())]
        _, le = _read_all(build_pcap(recs, endian="<"), tmp_path, "le.pcap")
        _, be = _read_all(build_pcap(recs, endian=">"), tmp_path, "be.pcap")
        assert le == be

    def test_nanosecond_magic_truncates_to_us(self, tmp_path):
        recs = [(7 * US + 42, _syn_frame())]
        _, pkts = _read_all(build_pcap(recs, nanos=True), tmp_path)
        assert pkts[0].ts_us == 7 * US + 42

    def test_raw_ip_linktype(self, tmp_path):
        ip_pkt = oracle_ipv4("198.51.100.9", "10.0.0.5", 6, oracle_tcp(51000, 23, 1, 0x02))
        _, pkts = _read_all(build_pcap([(1 * US, ip_pkt)], linktype=101), tmp_path)
        assert pkts[0].dst_port == 23
        assert PcapReader.__module__  # silence linters about unused import
        assert LINKTYPE_RAW_IP == 101

    def test_pkt_len_is_original_length(self, tmp_path):
        frame = _syn_frame()
        data = bytearray(build_pcap([(1 * US, frame)]))
        # Patch orig_len to simulate snaplen truncation: incl_len stays.
        data[24 + 12 : 24 + 16] = (400).to_bytes(4, "little")
        _, pkts = _read_all(bytes(data), tmp_path)
        assert pkts[0].pkt_len == 400


class TestRejects:
    def test_bad_magic_is_fatal(self, tmp_path):
        data = build_pcap([], magic_override=0x0A0D0D0A)  # pcapng SHB
        p = tmp_path / "bad.pcap"
        p.write_bytes(data)
        with pytest.raises(BadMagicError):
            PcapReader(p)

    def test_unsupported_linktype_is_fatal(self, tmp_path):
        data = build_pcap([], linktype=105)  # 802.11
        p = tmp_path / "wifi.pcap"
        p.write_bytes(data)
        with pytest.raises(UnsupportedLinkTypeError):
            PcapReader(p)

    def test_truncated_header_is_fatal(self, tmp_path):
        p = tmp_path / "short.pcap"
        p.write_bytes(build_pcap([])[:20])
        with pytest.raises(BadMagicError):
            PcapReader(p)

    def test_non_ipv4_ethertype_skipped(self, tmp_path):
        arp = bytes(6) + bytes(6) + b"\x08\x06" + bytes(28)
        data = build_pcap([(1 * US, arp), (2 * US, _syn_frame())])
        reader, pkts = _read_all(data, tmp_path)
        assert len(pkts) == 1
        assert reader.skipped_non_ipv4 == 1
        assert reader.records_total == 2
        assert reader.packets_read == 1

    def test_ipv6_version_skipped(self, tmp_path):
        v6ish = eth_frame(b"\x60" + bytes(39))
        reader, pkts = _read_all(build_pcap([(1 * US, v6ish)]), tmp_path)
        assert pkts == []
        assert reader.skipped_non_ipv4 == 1

    def test_fragment_skipped(self, tmp_path):
        frag = eth_frame(
            oracle_ipv4("198.51.100.9", "10.0.0.5", 17, oracle_udp(40000, 53), frag_off=185)
        )
        reader, pkts = _read_all(build_pcap([(1 * US, frag)]), tmp_path)
        assert pkts == []
        assert reader.skipped_transport == 1

    def test_other_transport_skipped(self, tmp_path):
        gre = eth_frame(oracle_ipv4("198.51.100.9", "10.0.0.5", 47, bytes(8)))
        reader, pkts = _read_all(build_pcap([(1 * US, gre)]), tmp_path)
        assert pkts == []
        assert reader.skipped_transport == 1

    def test_truncated_record_counted_not_fatal(self, tmp_path):
        good = (2 * US, _syn_frame())
        data = bytearray(build_pcap([(1 * US, _syn_frame()), good]))
        # Chop the first frame to 30 bytes but leave incl_len claiming 54:
        # the reader must notice the overrun and stop cleanly.
        first_rec_off = 24
        data[first_rec_off + 8 : first_rec_off + 12] = (400).to_bytes(4, "little")
        reader, pkts = _read_all(bytes(data), tmp_path)
        assert reader.skipped_truncated >= 1

    def test_short_transport_header_counted(self, tmp_path):
        stub = eth_frame(oracle_ipv4("198.51.100.9", "10.0.0.5", 6, b"\x01\x02"))
        reader, pkts = _read_all(build_pcap([(1 * US, stub)]), tmp_path)
        assert pkts == []
        assert reader.skipped_truncated == 1

    def test_counters_conserve_record_count(self, tmp_path):
        rng = random.Random(20220601)
        records = []
        for i in range(500):
            roll = rng.random()
            if roll < 0.5:
                records.append((i * US, _syn_frame(sport=1024 + i)))
            elif roll < 0.65:
                records.append((i * US, bytes(6) + bytes(6) + b"\x86\xdd" + bytes(40)))
            elif roll < 0.8:
                records.append((i * US, eth_frame(oracle_ipv4("1.2.3.4", "5.6.7.8", 47, bytes(4)))))
            elif roll < 0.9:
                records.append((i * US, eth_frame(oracle_ipv4("1.2.3.4", "5.6.7.8", 6, bytes(3)))))
            else:
                records.append(
                    (i * US, eth_frame(oracle_ipv4("1.2.3.4", "5.6.7.8", 17, oracle_udp(1, 2), frag_off=99)))
                )
        reader, pkts = _read_all(build_pcap(records), tmp_path)
        assert reader.records_total == 500
        assert reader.packets_read == len(pkts)
        assert reader.packets_read + reader.total_skipped == 500
        for p in pkts:
            check_packet_meta(p)


class TestClassify:
    def test_syn_only_is_scan(self):
        p = PacketMeta(0, 1, 2, Protocol.TCP, 1, 80, 0x02, 0, 0, None, 60)
        assert classify_traffic_type(p) is TrafficType.TCP_SYN

    def test_syn_ack_is_backscatter(self):
        p = PacketMeta(0, 1, 2, Protocol.TCP, 1, 80, 0x12, 0, 0, None, 60)
        assert classify_traffic_type(p) is None

    def test_rst_is_backscatter(self):
        p = PacketMeta(0, 1, 2, Protocol.TCP, 1, 80, 0x04, 0, 0, None, 60)
        assert classify_traffic_type(p) is None

    def test_syn_with_extra_non_ack_bits_still_scan(self):
        p = PacketMeta(0, 1, 2, Protocol.TCP, 1, 80, 0x02 | 0x20, 0, 0, None, 60)
        assert classify_traffic_type(p) is TrafficType.TCP_SYN

    def test_udp_always_scan(self):
        p = PacketMeta(0, 1, 2, Protocol.UDP, 1, 53, None, 0, None, None, 60)
        assert classify_traffic_type(p) is TrafficType.UDP

    def test_echo_request_is_scan(self):
        p = PacketMeta(0, 1, 2, Protocol.ICMP, None, None, None, 0, None, 8, 60)
        assert classify_traffic_type(p) is TrafficType.ICMP_ECHO_REQUEST

    def test_echo_reply_is_backscatter(self):
        p = PacketMeta(0, 1, 2, Protocol.ICMP, None, None, None, 0, None, 0, 60)
        assert classify_traffic_type(p) is None

    def test_dest_unreachable_is_not_scan(self):
        p = PacketMeta(0, 1, 2, Protocol.ICMP, None, None, None, 0, None, 3, 60)
        assert classify_traffic_type(p) is None


class TestWriter:
    def test_round_trip(self, tmp_path):
        frames = [
            (1654041600 * US + 1, _syn_frame()),
            (1654041600 * US + 2, eth_frame(oracle_ipv4("1.2.3.4", "10.0.0.9", 17, oracle_udp(4000, 161)))),
            (1654041600 * US + 3, eth_frame(oracle_ipv4("1.2.3.4", "10.0.0.9", 1, oracle_icmp(8)))),
        ]
        out = tmp_path / "w.pcap"
        write_pcap(out, frames)
        via_writer = PcapReader(out)
        ref = tmp_path / "ref.pcap"
        ref.write_bytes(build_pcap(frames))
        assert list(via_writer) == list(PcapReader(ref))


# ---------------------------------------------------------------------------
# PcapReader against the field-by-field oracle in helpers.py.


def _raw_pcap(records, endian="<", nanos=False, linktype=1, tail=b""):
    """Classic pcap from (ts_sec, ts_frac, caplen, origlen, data) records.

    caplen is written as given, so a record may claim more bytes than it
    carries; tail is appended after the last record.
    """
    order = "big" if endian == ">" else "little"
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    out = bytearray(magic.to_bytes(4, order))
    out += (2).to_bytes(2, order) + (4).to_bytes(2, order) + bytes(8)
    out += (65535).to_bytes(4, order) + linktype.to_bytes(4, order)
    for ts_sec, ts_frac, caplen, origlen, data in records:
        for field in (ts_sec, ts_frac, caplen, origlen):
            out += field.to_bytes(4, order)
        out += data
    return bytes(out + tail)


# Read sizes around one record header (16 bytes) and a short frame, so every
# record of a test capture straddles a block edge at some size, plus the
# default.
BLOCKS = (1, 2, 15, 16, 17, 64, pcap_mod.BLOCK)


def _check_against_oracle(data, blocks=BLOCKS):
    """Assert PcapReader decodes data like the oracle at every read size in blocks.

    Returns the oracle's counters.
    """
    expected, counts = oracle_decode_pcap(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.pcap"
        path.write_bytes(data)
        for block in blocks:
            reader = PcapReader(path)
            with mock.patch.object(pcap_mod, "BLOCK", block):
                got = list(reader)
            assert got == expected, f"BLOCK {block}"
            assert {name: getattr(reader, name) for name in PCAP_COUNTERS} == counts, \
                f"BLOCK {block}"
    return counts


@st.composite
def _frame(draw, ethernet):
    """One IPv4-ish frame with random header bytes and a few pinned fields.

    Returns the frame and the offsets of its header boundaries.
    """
    version = draw(st.one_of(st.just(4), st.just(4), st.sampled_from([4, 6, 0, 5, 15])))
    ihl = draw(st.one_of(st.just(5), st.integers(5, 15), st.integers(0, 4)))
    hdr = bytearray(draw(st.binary(min_size=max(20, ihl * 4), max_size=max(20, ihl * 4))))
    hdr[0] = version << 4 | ihl
    frag = draw(st.one_of(st.sampled_from([0, 0x4000, 0x2000, 0x8000, 0x2001, 0x1FFF]),
                          st.integers(0, 0xFFFF)))
    hdr[6:8] = frag.to_bytes(2, "big")
    hdr[9] = draw(st.sampled_from([6, 6, 17, 17, 1, 1, 0, 47, 58, 255]))
    l4 = draw(st.one_of(st.binary(min_size=20, max_size=40), st.binary(max_size=19)))
    l2 = b""
    if ethernet:
        ethertype = draw(st.one_of(
            st.just(0x0800), st.just(0x0800), st.sampled_from([0x0800, 0x86DD, 0x0806, 0x0801, 0x0008])
        ))
        l2 = draw(st.binary(min_size=12, max_size=12)) + ethertype.to_bytes(2, "big")
    frame = l2 + bytes(hdr) + l4
    ip = len(l2)
    l4_off = ip + ihl * 4
    boundaries = [0, 1, 13, 14, ip + 19, ip + 20, l4_off - 1, l4_off, l4_off + 3, l4_off + 4,
                  l4_off + 7, l4_off + 8, l4_off + 13, l4_off + 14, l4_off + 19, l4_off + 20]
    return frame, [b for b in boundaries if 0 <= b <= len(frame)]


@st.composite
def _capture(draw):
    linktype = draw(st.sampled_from([1, 101]))
    records = []
    for _ in range(draw(st.integers(0, 12))):
        frame, boundaries = draw(_frame(linktype == 1))
        cut = draw(st.one_of(st.none(), st.none(), st.sampled_from(boundaries),
                             st.integers(0, len(frame))))
        data = frame if cut is None else frame[:cut]
        origlen = draw(st.one_of(st.just(len(frame)), st.integers(0, 2**32 - 1)))
        ts_sec = draw(st.integers(0, 2**32 - 1))
        ts_frac = draw(st.integers(0, 2**32 - 1))
        records.append((ts_sec, ts_frac, len(data), origlen, data))
    tail = b""
    ending = draw(st.sampled_from(["clean", "short record header", "caplen overrun"]))
    if ending == "short record header":
        tail = draw(st.binary(min_size=1, max_size=15))
    elif ending == "caplen overrun" and records:
        ts_sec, ts_frac, caplen, origlen, data = records[-1]
        records[-1] = (ts_sec, ts_frac, caplen + draw(st.integers(1, 64)), origlen, data)
    return _raw_pcap(
        records,
        endian=draw(st.sampled_from(["<", ">"])),
        nanos=draw(st.booleans()),
        linktype=linktype,
        tail=tail,
    )


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(_capture(), st.integers(1, 64))
    def test_property_same_packets_and_counters(self, data, block):
        # Besides BLOCKS, one drawn read size below a record or two, so records
        # and their headers straddle block edges anywhere.
        _check_against_oracle(data, (*BLOCKS, block))

    @pytest.mark.parametrize("shapes", ["mixed", "alternating"])
    @pytest.mark.parametrize("ending", ["clean", "short-record-header", "caplen-overrun"])
    @pytest.mark.parametrize("linktype", [1, 101], ids=["ethernet", "raw-ip"])
    @pytest.mark.parametrize("nanos", [False, True], ids=["us", "ns"])
    @pytest.mark.parametrize("endian", ["<", ">"], ids=["le", "be"])
    def test_every_block_size_from_1_to_64(self, endian, nanos, linktype, ending, shapes):
        # mixed: every skip next to each transport. alternating: the record
        # lengths of a scanner capture (TCP 54 bytes on Ethernet, UDP and ICMP
        # 42) and a TCP frame with IP options, one after the other.
        ips = [
            oracle_ipv4("198.51.100.9", "10.0.0.5", 6, oracle_tcp(51000, 23, 7, 0x02), ip_id=54321),
            oracle_ipv4("198.51.100.9", "10.0.0.6", 17, oracle_udp(40000, 53)),
            oracle_ipv4("198.51.100.9", "10.0.0.7", 1, oracle_icmp(8)),
        ]
        if shapes == "mixed":
            ips += [oracle_ipv4("198.51.100.9", "10.0.0.8", 47, bytes(8)), b"\x60" + bytes(39)]
        else:
            ips.append(_with_options(6, oracle_tcp(51001, 80, 9, 0x02), bytes(range(1, 9))))
        frames = [eth_frame(ip) if linktype == 1 else ip for ip in ips]
        if shapes == "mixed":
            frames.append(frames[0][:30])
        records = [(1654041600 + i, 999_999_999 if nanos else 999_999, len(f), len(f), f)
                   for i, f in enumerate(frames * 3 + frames[:1])]
        tail = b""
        if ending == "short-record-header":
            tail = bytes(11)
        elif ending == "caplen-overrun":
            *_, data = records[-1]
            records[-1] = (1, 2, len(data) + 5, len(data), data)
        data = _raw_pcap(records, endian=endian, nanos=nanos, linktype=linktype, tail=tail)
        counts = _check_against_oracle(data, range(1, 65))
        overrun = ending == "caplen-overrun"
        read, cut = (10, 3) if shapes == "mixed" else (13, 0)
        assert (counts["packets_read"], counts["skipped_truncated"]) == (read - overrun,
                                                                         cut + overrun)

    @pytest.mark.parametrize("linktype", [1, 101], ids=["ethernet", "raw-ip"])
    @pytest.mark.parametrize("proto,l4,needed", [
        (6, oracle_tcp(51000, 23, 0xDEADBEEF, 0xC2), 20),
        (17, oracle_udp(40000, 53), 8),
        (1, oracle_icmp(8), 4),
    ], ids=["tcp", "udp", "icmp"])
    @pytest.mark.parametrize("options", [b"", bytes(range(1, 9))], ids=["ihl5", "ihl7"])
    @pytest.mark.parametrize("nanos", [False, True], ids=["us", "ns"])
    @pytest.mark.parametrize("endian", ["<", ">"], ids=["le", "be"])
    def test_every_cut_point(self, endian, nanos, linktype, proto, l4, needed, options):
        ip = _with_options(proto, l4, options)
        frame = eth_frame(ip) if linktype == 1 else ip
        records = [(7, 42, cut, len(frame), frame[:cut]) for cut in range(len(frame) + 1)]
        counts = _check_against_oracle(_raw_pcap(records, endian=endian, nanos=nanos,
                                                 linktype=linktype))
        assert counts["records_total"] == len(frame) + 1
        assert counts["packets_read"] == len(l4) - needed + 1


def _with_options(proto, l4, options):
    """An IPv4 packet carrying l4 whose header holds options (a multiple of 4 bytes).

    The options are the IP payload's first bytes; raising IHL over them makes
    them header options.
    """
    ip = bytearray(oracle_ipv4("198.51.100.9", "10.0.0.5", proto, options + l4, ip_id=54321))
    ip[0] = 0x40 | (5 + len(options) // 4)
    return bytes(ip)


def _drain(path):
    reader = PcapReader(path)
    for _ in reader:
        pass
    return reader


@pytest.mark.parametrize("garbled", [False, True], ids=["clean", "garbled-caplen"])
def test_memory_is_one_block_whatever_the_capture_size(tmp_path, garbled):
    path = tmp_path / "big.pcap"
    n = (16 << 20) // (16 + len(_syn_frame())) + 1
    data = bytearray(build_pcap(itertools.repeat((1654041600 * US, _syn_frame()), n)))
    if garbled:
        # The first record claims 4 GiB, more than the file holds.
        data[32:36] = (2**32 - 1).to_bytes(4, "little")
    path.write_bytes(data)
    del data
    assert path.stat().st_size > 16 << 20
    reader, peak = traced_peak(_drain, path)
    counts = (1, 0, 1) if garbled else (n, n, 0)
    assert (reader.records_total, reader.packets_read, reader.skipped_truncated) == counts
    assert peak < 3 << 20


@pytest.mark.parametrize("cut", [5, 16 + 20], ids=["in-record-header", "in-record-data"])
def test_capture_cut_short_while_read_ends_quietly(tmp_path, cut):
    # The file shrinks under the reader after its size was taken: the reads
    # past the first buffer come back short.
    path = tmp_path / "shrinking.pcap"
    rec = 16 + len(_syn_frame())
    n = 2 * pcap_mod.BLOCK // rec
    path.write_bytes(build_pcap(itertools.repeat((1654041600 * US, _syn_frame()), n)))
    assert path.stat().st_size > pcap_mod.BLOCK
    reader = PcapReader(path)
    packets = iter(reader)
    next(packets)
    with open(path, "r+b") as fh:
        fh.truncate(24 + (pcap_mod.BLOCK // rec + 10) * rec + cut)
    rest = list(packets)
    # Every record before the cut decodes; one cut inside its data is truncated.
    assert 1 + len(rest) == reader.packets_read == pcap_mod.BLOCK // rec + 10
    assert reader.skipped_truncated == (cut > 16)
    assert reader.records_total == reader.packets_read + reader.total_skipped


def test_capture_grown_while_read_stops_at_its_size_at_open(tmp_path):
    # The capture grows under the reader (a capture still being written): the
    # records appended after it took the file's size are not read, at every
    # read size up to a few records, so a block ends in each part of the
    # last record, its header included.
    path = tmp_path / "growing.pcap"
    records = build_pcap(itertools.repeat((1654041600 * US, _syn_frame()), 40))
    for block in [*range(1, 300), pcap_mod.BLOCK]:
        path.write_bytes(records)
        reader = PcapReader(path)
        with mock.patch.object(pcap_mod, "BLOCK", block):
            packets = iter(reader)
            next(packets)
            with open(path, "ab") as fh:
                fh.write(records[24:])
            rest = list(packets)
        assert 1 + len(rest) == reader.records_total == reader.packets_read == 40, block
