import csv
import ipaddress
import re

import pytest
from hypothesis import given, settings, strategies as st

from darklens.feeds import (
    AsnEntry,
    AsnMap,
    TagClass,
    UNKNOWN_ORIGIN,
    load_acked,
    load_asn_map,
    load_rdns,
    load_tags,
    origin_of,
)
from darklens.model import ip_to_int, parse_cidr
from helpers import NONCANONICAL_PREFIXES


def _entries(feed) -> int:
    """The entries a loaded feed holds: a dict's keys, an AsnMap's prefixes."""
    if isinstance(feed, AsnMap):
        return sum(map(len, feed._by_prefixlen.values()))
    return len(feed)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadLoop:
    """The rules every feed loader shares."""

    @pytest.mark.parametrize("load, good, wrong_widths", [
        (load_rdns, "10.0.0.1,a.example.net", ["10.0.0.2", "10.0.0.3,b,c"]),
        (load_tags, "10.0.0.1,benign,x", ["10.0.0.2,benign", "10.0.0.3,benign,x,y"]),
        (load_asn_map, "10.0.0.0/8,1,Org,US", ["10.0.0.0/8,1,Org", "10.0.0.0/8,1,Org,US,x"]),
        (lambda path: load_acked(path, path.with_name("none.csv")).ips,
         "10.0.0.1,Org", ["10.0.0.2,Org,x"]),
        (lambda path: load_acked(path.with_name("none.csv"), path).keywords,
         "kw,Org", ["kw2", "kw3,Org,x"]),
    ], ids=["rdns", "tags", "asn", "acked_ips", "acked_keywords"])
    def test_comments_and_blanks_skipped_wrong_widths_malformed(self, tmp_path, load, good,
                                                               wrong_widths):
        _write(tmp_path, "none.csv", "")
        text = "# a comment\n\n   \n  #indented,comment\n" + good + "\n"
        feed = load(_write(tmp_path, "feed.csv", text + "".join(w + "\n" for w in wrong_widths)))
        assert (_entries(feed), feed.malformed_lines) == (1, len(wrong_widths))

    def test_first_line_wins_for_rdns_and_tags(self, tmp_path):
        rdns = load_rdns(_write(tmp_path, "rdns.csv", "10.0.0.1,first.net\n10.0.0.1,second.net\n"))
        assert rdns == {ip_to_int("10.0.0.1"): "first.net"}
        tags = load_tags(_write(tmp_path, "tags.csv", "10.0.0.1,benign,a\n10.0.0.1,malicious,b\n"))
        assert tags == {ip_to_int("10.0.0.1"): (TagClass.BENIGN, ("a",))}

    def test_last_line_wins_for_an_asn_prefix(self, tmp_path):
        amap = load_asn_map(
            _write(tmp_path, "asn.csv", "10.0.0.0/8,1,First,US\n10.0.0.0/8,2,Second,DE\n")
        )
        assert (_entries(amap), amap.lookup(ip_to_int("10.0.0.1")).org) == (1, "Second")

    def test_repeated_asn_prefix_lines_are_counted(self, tmp_path):
        amap = load_asn_map(_write(tmp_path, "asn.csv", (
            "10.0.0.0/8,1,First,US\n10.0.0.0/16,2,Other,US\n10.0.0.0/8,3,Second,DE\n"
            "bad\n10.0.0.0/8,4,Third,FR\n"
        )))
        assert (amap.duplicate_lines, amap.malformed_lines, _entries(amap)) == (2, 1, 2)
        assert amap.lookup(ip_to_int("10.1.0.1")).org == "Third"

    @pytest.mark.parametrize("load", [load_rdns, load_tags, load_asn_map])
    def test_oversized_field_is_fatal(self, tmp_path, load):
        huge = "x" * (csv.field_size_limit() + 1)
        path = _write(tmp_path, "feed.csv", f"# a comment\n10.0.0.1,{huge}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: field larger than"):
            load(path)

    def test_bad_encoding_is_fatal(self, tmp_path):
        path = tmp_path / "rdns.csv"
        path.write_bytes(b"10.0.0.1,\xff.example.net\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: malformed line "
                                             r"\(UnicodeDecodeError: "):
            load_rdns(path)


class TestAcked:
    def test_ips_and_orgs(self, tmp_path):
        ips = _write(tmp_path, "acked_ips.csv", """\
# research scanners
162.142.125.1,Censys
167.94.138.2
162.142.125.1,SomebodyElse
""")
        kws = _write(tmp_path, "acked_kw.csv", """\
censys,Censys
shodan.io,Shodan
""")
        acked = load_acked(ips, kws)
        # first org wins on duplicate IP; an IP without an org maps to None
        assert acked.ips == {ip_to_int("162.142.125.1"): "Censys", ip_to_int("167.94.138.2"): None}
        assert list(acked.keywords.items()) == [("censys", "Censys"), ("shodan.io", "Shodan")]
        assert acked.malformed_lines == 0

    def test_malformed_counted(self, tmp_path):
        ips = _write(tmp_path, "ips.csv", "not-an-ip,X\n10.0.0.1,Ok\n")
        kws = _write(tmp_path, "kw.csv", "has space,Org\nGOOD,Org\n,Empty\n")
        acked = load_acked(ips, kws)
        assert acked.ips == {ip_to_int("10.0.0.1"): "Ok"}
        assert acked.keywords == {"good": "Org"}   # lowercased
        assert acked.malformed_lines == 3

    def test_keyword_order_preserved(self, tmp_path):
        ips = _write(tmp_path, "ips.csv", "")
        kws = _write(tmp_path, "kw.csv", "zeta,Z\nalpha,A\nmid,M\n")
        acked = load_acked(ips, kws)
        assert list(acked.keywords) == ["zeta", "alpha", "mid"]

    def test_non_canonical_ip_is_malformed(self, tmp_path):
        # inet_aton would read "010.0.0.1" as octal 8.0.0.1 and "10.1" as
        # 10.0.0.1; both are rotten lines, not acked addresses.
        ips = _write(tmp_path, "ips.csv", "010.0.0.1,Octal\n10.1,Short\n10.0.0.2,Ok\n")
        kws = _write(tmp_path, "kw.csv", "")
        acked = load_acked(ips, kws)
        assert acked.ips == {ip_to_int("10.0.0.2"): "Ok"}
        assert acked.malformed_lines == 2


class TestRdns:
    def test_load_and_lowercase(self, tmp_path):
        p = _write(tmp_path, "rdns.csv", """\
162.142.125.1,Scanner-01.Censys-Scanner.COM
198.51.100.7,host.example.net
bogus,name
""")
        rdns = load_rdns(p)
        assert rdns.get(ip_to_int("162.142.125.1")) == "scanner-01.censys-scanner.com"
        assert rdns.get(ip_to_int("198.51.100.7")) == "host.example.net"
        assert rdns.get(ip_to_int("203.0.113.1")) is None
        assert rdns.malformed_lines == 1

    def test_non_canonical_ip_is_malformed(self, tmp_path):
        p = _write(tmp_path, "rdns.csv", "010.0.0.1,octal.example.net\n10.0.0.1,ok.example.net\n")
        rdns = load_rdns(p)
        assert rdns.get(ip_to_int("8.0.0.1")) is None
        assert rdns.get(ip_to_int("10.0.0.1")) == "ok.example.net"
        assert rdns.malformed_lines == 1


class TestTags:
    def test_load(self, tmp_path):
        p = _write(tmp_path, "tags.csv", """\
198.51.100.9,Malicious,bruteforcer|ssh-scanner
198.51.100.10,benign,
198.51.100.11,unknown,telnet
198.51.100.12,odd-class,x
""")
        db = load_tags(p)
        e = db.get(ip_to_int("198.51.100.9"))
        assert e.classification is TagClass.MALICIOUS
        assert e.tags == ("bruteforcer", "ssh-scanner")
        assert db.get(ip_to_int("198.51.100.10")).tags == ()
        assert db.get(ip_to_int("198.51.100.11")).classification is TagClass.UNKNOWN
        assert db.get(ip_to_int("198.51.100.12")) is None
        assert db.malformed_lines == 1


class TestAsnMap:
    def test_longest_prefix_wins(self, tmp_path):
        p = _write(tmp_path, "asn.csv", """\
10.0.0.0/8,64500,BigNet,US
10.1.0.0/16,64501,SubNet,DE
10.1.2.0/24,64502,TinyNet,FR
""")
        amap = load_asn_map(p)
        assert _entries(amap) == 3
        assert amap.lookup(ip_to_int("10.1.2.3")).asn == 64502
        assert amap.lookup(ip_to_int("10.1.9.9")).asn == 64501
        assert amap.lookup(ip_to_int("10.200.0.1")).asn == 64500
        assert amap.lookup(ip_to_int("11.0.0.1")) is None

    def test_default_route(self, tmp_path):
        p = _write(tmp_path, "asn.csv", "0.0.0.0/0,64499,CatchAll,ZZ\n")
        amap = load_asn_map(p)
        assert amap.lookup(ip_to_int("8.8.8.8")).org == "CatchAll"

    def test_malformed_counted(self, tmp_path):
        p = _write(tmp_path, "asn.csv", """\
10.0.0.0/8,64500,BigNet,US
10.0.0.0/33,1,Bad,XX
10.0.0.0/8,notanasn,Bad,XX
short,row
""")
        amap = load_asn_map(p)
        assert _entries(amap) == 1
        assert amap.malformed_lines == 3

    @pytest.mark.parametrize("asn", ["+5", " 5", "5 ", "05", "1_0", "\u0665", "-5", "5.0", ""])
    def test_asn_must_be_canonical_decimal(self, tmp_path, asn):
        # int() takes all but the last three; each would have named an AS.
        p = _write(tmp_path, "asn.csv", f"10.0.0.0/8,64500,BigNet,US\n10.1.0.0/16,{asn},o,US\n")
        amap = load_asn_map(p)
        assert (_entries(amap), amap.malformed_lines) == (1, 1)
        assert amap.lookup(ip_to_int("10.1.0.1")).asn == 64500

    def test_asn_zero_is_canonical(self, tmp_path):
        amap = load_asn_map(_write(tmp_path, "asn.csv", "10.0.0.0/8,0,Reserved,ZZ\n"))
        assert (amap.lookup(ip_to_int("10.0.0.1")).asn, amap.malformed_lines) == (0, 0)

    def test_host_route(self):
        amap = AsnMap()
        amap.add(*parse_cidr("192.0.2.1/32"), AsnEntry(1, "One", "US"))
        amap.add(*parse_cidr("192.0.2.0/24"), AsnEntry(2, "Two", "US"))
        assert amap.lookup(ip_to_int("192.0.2.1")).asn == 1
        assert amap.lookup(ip_to_int("192.0.2.2")).asn == 2

    @pytest.mark.parametrize("cidr", NONCANONICAL_PREFIXES)
    def test_spellings_ipaddress_took_are_malformed(self, tmp_path, cidr):
        ipaddress.IPv4Network(cidr)  # accepted by the standard library
        with pytest.raises(ValueError):
            parse_cidr(cidr)
        amap = load_asn_map(_write(tmp_path, "asn.csv", f"{cidr},64500,BigNet,US\n"))
        assert (_entries(amap), amap.malformed_lines) == (0, 1)

    @pytest.mark.parametrize("cidr", [
        "10.0.0.1/8", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/+8", "10.0.0.0/ 8", "10.0.0.0/",
        "/8", "10.0.0/8", "010.0.0.0/8", "10.0.0.0/8/8", "10.0.0.0//8", "10.0.0.0/\u0668",
    ])
    def test_rejected_like_ipaddress(self, cidr):
        with pytest.raises(ValueError):
            ipaddress.IPv4Network(cidr)
        with pytest.raises(ValueError):
            parse_cidr(cidr)

    @settings(max_examples=500, deadline=None)
    @given(addr=st.one_of(st.integers(0, 2**32 - 1),
                          st.integers(0, 2**24 - 1).map(lambda a: a << 8),
                          st.integers(0, 255).map(lambda a: a << 24)),
           prefixlen=st.integers(0, 32))
    def test_parse_cidr_agrees_with_ipaddress(self, addr, prefixlen):
        text = f"{ipaddress.IPv4Address(addr)}/{prefixlen}"
        try:
            net = ipaddress.IPv4Network(text, strict=True)
        except ValueError:
            with pytest.raises(ValueError):
                parse_cidr(text)
        else:
            assert parse_cidr(text) == (int(net.network_address), net.prefixlen)

    def test_origin_of_falls_back_to_unknown(self):
        amap = AsnMap()
        assert origin_of(ip_to_int("192.0.2.1"), amap) is UNKNOWN_ORIGIN
        assert UNKNOWN_ORIGIN.asn == 0
