import csv
import ipaddress
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from darklens import model
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
from darklens.flows import FLOW_CSV_FIELDS, FlowReader
from darklens.model import int_to_ip, ip_to_int, parse_cidr
from helpers import NONCANONICAL_PREFIXES, oracle_asn_lookup, oracle_load_feed


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

    @pytest.mark.parametrize("load, good", [
        (load_rdns, "10.0.0.1,a.example.net"),
        (load_tags, "10.0.0.1,benign,x"),
        (load_asn_map, "10.0.0.0/8,1,Org,US"),
    ], ids=["rdns", "tags", "asn"])
    @pytest.mark.parametrize("bad", ["10.0.0.2,{}".format("x" * (csv.field_size_limit() + 1)),
                                     "10.0.0.2,a\rb"], ids=["oversized-field", "bare-cr"])
    def test_a_row_the_csv_tokeniser_refuses_is_malformed(self, tmp_path, load, good, bad):
        path = _write(tmp_path, "feed.csv", f"# a comment\n{bad}\n{good}\n")
        feed = load(path)
        assert (_entries(feed), feed.malformed_lines) == (1, 1)

    @pytest.mark.parametrize("load, good", [
        (load_rdns, b"10.0.0.1,a.example.net"),
        (load_tags, b"10.0.0.1,benign,x"),
        (load_asn_map, b"10.0.0.0/8,1,Org,US"),
        (lambda path: load_acked(path, path).ips, b"10.0.0.1,Org"),
    ], ids=["rdns", "tags", "asn", "acked"])
    def test_a_line_that_is_not_utf8_is_malformed(self, tmp_path, load, good):
        path = tmp_path / "feed.csv"
        path.write_bytes(b"10.0.0.2,\xff.example.net\n" + good + b"\r\n\xc3\n")
        feed = load(path)
        assert (_entries(feed), feed.malformed_lines) == (1, 2)

    def test_a_line_that_is_not_utf8_inside_a_quoted_field_reads_as_deleted(self, tmp_path):
        def spoiled_and_deleted(name, lines, bad):
            """Two files of lines: one whole, one without lines[bad]."""
            spoiled, deleted = tmp_path / f"spoiled.{name}", tmp_path / f"deleted.{name}"
            spoiled.write_bytes(b"".join(lines))
            deleted.write_bytes(b"".join(lines[:bad] + lines[bad + 1:]))
            return spoiled, deleted

        lines = [b'10.0.0.1,"a.\n', b"\xffb.\n", b'example.net"\n', b"10.0.0.2,c.net\n"]
        got, want = map(load_rdns, spoiled_and_deleted("csv", lines, 1))
        assert (got, got.malformed_lines) == (want, want.malformed_lines + 1) == (
            {ip_to_int("10.0.0.1"): "a.\nexample.net", ip_to_int("10.0.0.2"): "c.net"}, 1)

        # A flow CSV is read by the same loop, and counts the line as an invalid row.
        row = b",1654041600000000,I,198.51.100.9,192.0.2.10,udp,1,2,3,1000,\n"
        lines = [",".join(FLOW_CSV_FIELDS).encode() + b"\n", b'"edge\n', b"\xc3x\n", b'1"' + row,
                 b"router-2" + row]
        got, want = map(FlowReader, spoiled_and_deleted("flows", lines, 2))
        rows = list(got)
        assert (rows, got.invalid_rows) == (list(want), want.invalid_rows + 1)
        assert [(r[0], r[9]) for r in rows] == [("edge\n1", 1000), ("router-2", 1000)]
        assert got.invalid_rows == 1


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


class TestKeep:
    """A loader given keep checks and counts every line but keeps only what a join can read."""

    def test_rdns_and_tags_keep_only_addresses_in_keep(self, tmp_path):
        keep = {ip_to_int("10.0.0.1"), ip_to_int("10.0.0.9")}
        rdns = load_rdns(_write(tmp_path, "rdns.csv", (
            "10.0.0.2,b.net\n10.0.0.1,A.net\n10.0.0.1,second.net\n010.0.0.1,octal.net\n"
            '"10.0.0.9", quoted.net\n')), keep)
        assert (rdns, rdns.malformed_lines) == (
            {ip_to_int("10.0.0.1"): "a.net", ip_to_int("10.0.0.9"): "quoted.net"}, 1)
        tags = load_tags(_write(tmp_path, "tags.csv", (
            "10.0.0.2,benign,x\n10.0.0.9,MALICIOUS,y\n10.0.0.3,evil,z\n")), keep)
        assert (tags, tags.malformed_lines) == (
            {ip_to_int("10.0.0.9"): (TagClass.MALICIOUS, ("y",))}, 1)

    def test_asn_map_keeps_the_prefixes_that_cover_keep(self, tmp_path):
        text = (
            "10.0.0.0/8,1,Big,US\n10.1.0.0/16,2,Sub,DE\n10.2.0.0/16,3,Other,FR\n"
            "10.2.0.0/16,4,Again,FR\n11.0.0.0/8,5,Far,NL\n10.1.0.0/16,6,Last,DE\n"
            "10.1.2.0/24,7,Host bits,XX\n10.1.2.1/24,8,Bad,XX\n0.0.0.0/0,9,Default,ZZ\n"
        )
        full = load_asn_map(_write(tmp_path, "asn.csv", text))
        keep = {ip_to_int("10.1.9.9"), ip_to_int("12.0.0.1")}
        kept = load_asn_map(tmp_path / "asn.csv", keep)
        assert (kept.duplicate_lines, kept.malformed_lines) == (2, 1)
        assert (full.duplicate_lines, full.malformed_lines) == (2, 1)
        assert _entries(kept) == 3  # 10.0.0.0/8, 10.1.0.0/16 and the default route
        for ip in keep:
            assert kept.lookup(ip) == full.lookup(ip)
        assert kept.lookup(ip_to_int("10.1.9.9")).org == "Last"
        assert kept.lookup(ip_to_int("10.2.0.1")).org == "Big"  # not in keep: 10.2/16 dropped


# Addresses the drawn feeds share, so that lines repeat a key and keep holds some.
_POOL = [ip_to_int(quad) for quad in (
    "0.0.0.0", "10.0.0.0", "10.0.0.1", "10.0.1.7", "10.1.0.0", "192.0.2.5", "255.255.255.255")]
_QUADS = st.one_of(st.sampled_from(_POOL), st.integers(0, 2 ** 32 - 1))
# Spellings of an address that are not the canonical dotted quad.
_BAD_QUADS = ["010.0.0.1", "10.1", "1.2.3.256", "1.2.3.4.5", "0x0a.0.0.1", "1.2.3.٤",
              "1" * 4301]
_SPACES = [" ", "\t", "\x0b", "\x1c", "\x85", "　"]
_LOADERS = {"rdns": load_rdns, "tags": load_tags, "asn": load_asn_map}


@st.composite
def _canonical_fields(draw, kind):
    """The fields of a line in the spelling the row grammars take."""
    ip = draw(_QUADS)
    if kind == "rdns":
        return [int_to_ip(ip), draw(st.sampled_from(
            ["a.example.net", "Probe-1.GoodScan.NET", "x", "xn--ml-0ia.example", "a|b"]))]
    if kind == "tags":
        tags = draw(st.lists(st.sampled_from(["ssh", "Telnet", "", "mirai-like"]), max_size=3))
        return [int_to_ip(ip), draw(st.sampled_from(list(TagClass))).value, "|".join(tags)]
    prefixlen = draw(st.integers(0, 32))
    network = ip & ~((1 << (32 - prefixlen)) - 1)
    return [f"{int_to_ip(network)}/{prefixlen}", str(draw(st.integers(0, 2 ** 40))),
            draw(st.sampled_from(
                ["BigNet", "Org Inc.", "", "a  b", "~!#$%&'()*+-./;<=>?@[]^_`{|}"])),
            draw(st.sampled_from(["US", "", "DE"]))]


@st.composite
def _feed_line(draw, kind):
    """(line without its ending, whether it is canonical): a row, spoiled or not, or a comment."""
    shape = draw(st.sampled_from(["canonical"] * 4 + ["spoiled"] * 4 + ["comment", "blank"]))
    if shape == "comment":
        return draw(st.sampled_from(["# a comment", "  #indented,comment", "#"])), False
    if shape == "blank":
        return draw(st.sampled_from(["", "   ", "\t", "　"])), False
    fields = draw(_canonical_fields(kind))
    if shape == "canonical":
        return ",".join(fields), True
    i = draw(st.integers(0, len(fields) - 1))
    how = draw(st.sampled_from(["quote", "pad", "case", "quad", "host", "digits", "nul", "width",
                                "empty", "byte"]))
    if how == "quote":
        fields[i] = '"' + fields[i].replace('"', '""') + (', Inc."' if i == 2 else '"')
    elif how == "pad":
        fields[i] = draw(st.sampled_from(_SPACES)) + fields[i] + draw(st.sampled_from(_SPACES))
    elif how == "case":
        fields[i] = fields[i].upper()
        if kind == "tags":  # the Kelvin sign lower-cases to "k"
            fields[1] = draw(st.sampled_from([fields[1].upper(), "unKnown", "Benign"]))
    elif how == "quad":
        fields[0] = draw(st.sampled_from(_BAD_QUADS)) + ("/8" if kind == "asn" else "")
    elif how == "host" and kind == "asn":
        fields[0] = f"{int_to_ip(draw(_QUADS))}/{draw(st.integers(0, 32))}"
    elif how == "digits" and kind == "asn":
        if draw(st.booleans()):
            fields[1] = draw(st.sampled_from(["1" * 4301, "1" * 19, "01", "+5", "٥"]))
        else:
            fields[0] = fields[0].split("/")[0] + "/" + draw(st.sampled_from(
                ["0" * 4301 + "8", "08", "33", "99", "", "8/8"]))
    elif how == "digits":
        fields[0] = draw(st.sampled_from(["1" * 4301, "0" * 4301, "1" * 16]))
    elif how == "nul":
        fields[i] += "\x00"
    elif how == "byte":  # any character outside printable ASCII
        fields[i] += draw(st.sampled_from(["ü", "Ü", "\t", "\x7f", "\u3000", "\U0001f600"]))
    elif how == "width":
        fields = fields[:-1] if draw(st.booleans()) else fields + ["extra"]
    elif how == "empty":
        fields[-1] = ""
    return ",".join(fields), False


@st.composite
def _feed_file(draw, kind):
    """The lines of a feed, each (line, ending, canonical); the last may have no ending."""
    lines = draw(st.lists(st.tuples(_feed_line(kind), st.sampled_from(["\n", "\r\n"])),
                          min_size=1, max_size=25))
    lines = [(line, ending, canonical) for (line, canonical), ending in lines]
    if draw(st.integers(0, 9)) == 0:  # a bare CR inside a line: csv.reader refuses its row
        lines.insert(draw(st.integers(0, len(lines))), ("10.0.0.1,a\rb", "\n", False))
    if draw(st.booleans()):
        lines[-1] = (lines[-1][0], "", lines[-1][2])
    return lines


def _grammar_load(kind, line, path):
    """A load of the one line: (whether its row grammar took it, the feed)."""
    path.write_text(line + "\n", encoding="utf-8")
    calls = []

    def reader(lines):
        calls.append(1)
        return csv.reader(lines)

    with mock.patch.object(model, "csv", SimpleNamespace(reader=reader, Error=csv.Error)):
        feed = _LOADERS[kind](path)
    return not calls, feed


def _prefixes(amap) -> dict:
    return {(network, prefixlen): entry for prefixlen, bucket in amap._by_prefixlen.items()
            for network, entry in bucket.items()}


def _check_against_the_reference(kind, lines, keep):
    """Load the feed of lines in full and with keep, and hold both to oracle_load_feed.

    lines are (line, ending, canonical) triples; each canonical line must be
    one its row grammar takes.
    """
    load = _LOADERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "feed.csv")
        path.write_text("".join(line + ending for line, ending, _ in lines), encoding="utf-8")
        entries, malformed, duplicates = oracle_load_feed(path, kind)
        full, kept = load(path), load(path, keep)
        for feed in (full, kept):
            assert feed.malformed_lines == malformed
            assert getattr(feed, "duplicate_lines", 0) == duplicates
        if kind == "asn":
            assert _prefixes(full) == entries
            for ip in keep:
                assert kept.lookup(ip) == oracle_asn_lookup(entries, ip)
            for network, prefixlen in _prefixes(kept):
                mask = ~((1 << (32 - prefixlen)) - 1)
                assert any(ip & mask == network for ip in keep)
        else:
            assert full == entries
            assert kept == {ip: entry for ip, entry in entries.items() if ip in keep}

        # Every line its row grammar takes reads as csv.reader and the row rules read it.
        one = Path(tmp, "line.csv")
        for line, _ending, canonical in lines:
            taken, feed = _grammar_load(kind, line, one)
            assert taken or not canonical, line
            if taken:
                ref, ref_malformed, _ = oracle_load_feed(one, kind)
                got = _prefixes(feed) if kind == "asn" else feed
                assert (got, feed.malformed_lines) == (ref, ref_malformed) and ref, line


# Lines each row grammar must leave to csv.reader and the row rules, beside
# canonical ones for the same keys.
_HOSTILE = {
    "rdns": ["10.0.0.1,a.net", '"10.0.0.1",quoted.net', "10.0.0.1, padded.net ",
             "10.0.0.1,\x1cunit.net", "10.0.0.1,NUL\x00.net", "10.0.0.1,", "10.0.0.1, ",
             "010.0.0.1,octal.net", "10.0.0.1,a b.net", "10.0.0.1,a,b", "1" * 4301 + ",x",
             "10.0.0.1,a\rb.net", "10.0.0.1," + "x" * (csv.field_size_limit() + 1)],
    "tags": ["10.0.0.1,benign,a", "10.0.0.1,BENIGN,x", "10.0.0.1,un\u212anown,k",
             "10.0.0.1, benign ,x", '10.0.0.1,benign,"a|b"', "10.0.0.1,benign, a | b ",
             "10.0.0.1,evil,x", "10.0.0.1,benign", "10.0.0.01,benign,x"],
    "asn": ["10.0.0.0/8,1,Big,US", "10.0.0.0/08,1,Pad,US", "10.0.0.0/33,1,Long,US",
            "10.0.0.1/8,1,Host bits,US", "10.0.0.0/8,01,Zero,US", "10.0.0.0/8,+5,Sign,US",
            "10.0.0.0/8," + "1" * 19 + ",Nineteen,US", "10.0.0.0/8," + "1" * 4301 + ",Run,US",
            '10.0.0.0/8,2,"Org, Inc.",US', "10.0.0.0/8,3, Padded ,US", "10.0.0.0/8,4,Tab\t,US",
            "10.0.0.0/8,5,A\x00,US", " 10.0.0.0/8,6,Lead,US", "10.0.0.0/8, 7,Space,US",
            "10.0.0.0/16,8,Sub,DE", "10.0.0.0/8,9,Last,FR"],
}


class TestAgainstTheReference:
    """The loaders read every feed as the loop and row rules before the grammars did."""

    @pytest.mark.parametrize("kind", ["rdns", "tags", "asn"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_drawn_feeds_read_as_the_reference_reads_them(self, kind, data):
        lines = data.draw(_feed_file(kind))
        _check_against_the_reference(kind, lines, data.draw(st.sets(_QUADS, max_size=6)))

    @pytest.mark.parametrize("kind", sorted(_HOSTILE))
    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_hostile_lines_read_as_the_reference_reads_them(self, kind, ending):
        lines = [(line, ending, i == 0) for i, line in enumerate(_HOSTILE[kind])]
        for keep in (set(), {ip_to_int("10.0.0.1")}, {ip_to_int("11.0.0.1")}):
            _check_against_the_reference(kind, lines, keep)
