import ipaddress

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
    parse_cidr,
)
from darklens.model import ip_to_int


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


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
        assert acked.ips == {ip_to_int("162.142.125.1"), ip_to_int("167.94.138.2")}
        # first org wins on duplicate IP
        assert acked.org_by_ip[ip_to_int("162.142.125.1")] == "Censys"
        assert acked.org_by_ip.get(ip_to_int("167.94.138.2"), "") == ""
        assert acked.keywords == ["censys", "shodan.io"]
        assert acked.org_by_keyword["shodan.io"] == "Shodan"
        assert acked.malformed_lines == 0

    def test_malformed_counted(self, tmp_path):
        ips = _write(tmp_path, "ips.csv", "not-an-ip,X\n10.0.0.1,Ok\n")
        kws = _write(tmp_path, "kw.csv", "has space,Org\nGOOD,Org\n,Empty\n")
        acked = load_acked(ips, kws)
        assert ip_to_int("10.0.0.1") in acked.ips
        assert acked.keywords == ["good"]          # lowercased
        assert acked.malformed_lines == 3

    def test_keyword_order_preserved(self, tmp_path):
        ips = _write(tmp_path, "ips.csv", "")
        kws = _write(tmp_path, "kw.csv", "zeta,Z\nalpha,A\nmid,M\n")
        acked = load_acked(ips, kws)
        assert acked.keywords == ["zeta", "alpha", "mid"]

    def test_non_canonical_ip_is_malformed(self, tmp_path):
        # inet_aton would read "010.0.0.1" as octal 8.0.0.1 and "10.1" as
        # 10.0.0.1; both are rotten lines, not acked addresses.
        ips = _write(tmp_path, "ips.csv", "010.0.0.1,Octal\n10.1,Short\n10.0.0.2,Ok\n")
        kws = _write(tmp_path, "kw.csv", "")
        acked = load_acked(ips, kws)
        assert acked.ips == {ip_to_int("10.0.0.2")}
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
        assert len(amap) == 3
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
        assert len(amap) == 1
        assert amap.malformed_lines == 3

    def test_host_route(self):
        amap = AsnMap()
        amap.add(*parse_cidr("192.0.2.1/32"), AsnEntry(1, "One", "US"))
        amap.add(*parse_cidr("192.0.2.0/24"), AsnEntry(2, "Two", "US"))
        assert amap.lookup(ip_to_int("192.0.2.1")).asn == 1
        assert amap.lookup(ip_to_int("192.0.2.2")).asn == 2

    @pytest.mark.parametrize("cidr", [
        "10.0.0.0/255.0.0.0",      # netmask
        "10.0.0.0/0.255.255.255",  # hostmask
        "10.0.0.0",                # bare address
        "10.0.0.0/08",             # leading zero
        "10.0.0.0/008",
    ])
    def test_spellings_ipaddress_took_are_malformed(self, tmp_path, cidr):
        ipaddress.IPv4Network(cidr)  # accepted by the standard library
        with pytest.raises(ValueError):
            parse_cidr(cidr)
        amap = load_asn_map(_write(tmp_path, "asn.csv", f"{cidr},64500,BigNet,US\n"))
        assert (len(amap), amap.malformed_lines) == (0, 1)

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
