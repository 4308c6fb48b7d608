import random
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from darklens.cli import main
from darklens.detect import write_verdicts
from darklens.enrich import (
    EmptyAhSetError,
    NOT_PRESENT,
    TOP_TAGS,
    OriginRow,
    acked_sources,
    origin_table,
    tag_join,
)
from darklens.feeds import (
    AckedList,
    AsnEntry,
    AsnMap,
    TagClass,
    TagEntry,
    load_acked,
    load_rdns,
    origin_of,
)
from darklens.model import (
    AhVerdict, DarknetEvent, TrafficType, int_to_ip, ip_to_int, parse_cidr, slash24_of,
    write_csv, write_event_log,
)
from helpers import TYPE_INDEX, oracle_acked_sources

IP_A = ip_to_int("162.142.125.1")
IP_B = ip_to_int("198.51.100.9")


class TestMatchAcked:
    """One source against the IP list and the keywords."""

    def test_ip_entry(self):
        assert acked_sources({IP_A}, AckedList({IP_A: "Censys"}, {})) == {IP_A: "Censys"}

    def test_domain_keyword(self):
        acked = AckedList({}, {"censys": "Censys"})
        rdns = {IP_A: "scanner-01.censys-scanner.com"}
        assert acked_sources({IP_A}, acked, rdns) == {IP_A: "Censys"}

    def test_ip_beats_domain(self):
        acked = AckedList({IP_A: "ViaIp"}, {"censys": "ViaDomain"})
        assert acked_sources({IP_A}, acked, {IP_A: "x.censys.io"}) == {IP_A: "ViaIp"}

    def test_ip_without_org_beats_domain(self):
        acked = AckedList({IP_A: None}, {"censys": "ViaDomain"})
        assert acked_sources({IP_A}, acked, {IP_A: "x.censys.io"}) == {IP_A: None}

    def test_first_keyword_wins(self):
        acked = AckedList({}, {"scanner": "Generic", "censys": "Censys"})
        assert acked_sources({IP_A}, acked, {IP_A: "scanner-01.censys.io"}) == {IP_A: "Generic"}

    def test_case_insensitive_fqdn(self, tmp_path):
        (tmp_path / "ips.csv").write_text("")
        (tmp_path / "kw.csv").write_text("Shodan,Shodan\n")
        (tmp_path / "rdns.csv").write_text(f"{int_to_ip(IP_A)},Census.SHODAN.io\n")
        acked = load_acked(tmp_path / "ips.csv", tmp_path / "kw.csv")
        rdns = load_rdns(tmp_path / "rdns.csv")
        assert acked_sources({IP_A}, acked, rdns) == {IP_A: "Shodan"}

    def test_no_match(self):
        assert acked_sources({IP_A}, AckedList({}, {}), {IP_A: "host.example.net"}) == {}


class TestAckedSources:
    def test_only_matches_kept_with_their_org(self):
        acked = AckedList({IP_A: "Censys"}, {"goodscan": "GoodScan"})
        ip_c = ip_to_int("203.0.113.7")
        got = acked_sources({IP_A, IP_B, ip_c}, acked, {ip_c: "probe.goodscan.net"})
        assert got == {IP_A: "Censys", ip_c: "GoodScan"}

    def test_no_rdns_map_matches_by_ip_only(self):
        acked = AckedList({IP_A: None}, {"censys": "Censys"})
        assert acked_sources({IP_A, IP_B}, acked) == {IP_A: None}

    def test_no_list_matches_nothing(self):
        assert acked_sources({IP_A, IP_B}, None) == {}

    # A small address pool and a few keywords that are substrings of one
    # another, so duplicates, overlaps and IP-over-keyword cases are common.
    _ips = st.integers(0, 7).map(lambda i: f"192.0.2.{i}")
    _keywords = st.sampled_from(["scan", "scanner", "census", "probe", "Scan", "PROBE"])
    _orgs = st.sampled_from(["OrgA", "OrgB", "OrgC"])
    _labels = st.sampled_from(["x", "Scanner-1", "census", "probe", "host", "SCAN"])

    @settings(max_examples=300, deadline=None)
    @given(
        # An empty org writes a bare address, a blank one `ip, `: both name None.
        ip_rows=st.lists(st.tuples(_ips, st.one_of(_orgs, st.sampled_from(["", " "]))), max_size=6),
        kw_rows=st.lists(st.tuples(_keywords, _orgs), max_size=6),
        rdns_rows=st.lists(st.tuples(_ips, st.lists(_labels, min_size=1, max_size=3)), max_size=8),
    )
    def test_matches_oracle_over_loaded_files(self, tmp_path_factory, ip_rows, kw_rows, rdns_rows):
        d = tmp_path_factory.mktemp("acked")
        ip_lines = [f"{ip},{org}" if org else ip for ip, org in ip_rows]
        kw_lines = [f"{kw},{org}" for kw, org in kw_rows]
        rdns_lines = [f"{ip},{'.'.join(labels)}.example.NET" for ip, labels in rdns_rows]
        for name, lines in (("ips", ip_lines), ("kw", kw_lines), ("rdns", rdns_lines)):
            (d / f"{name}.csv").write_text("".join(line + "\n" for line in lines))
        acked = load_acked(d / "ips.csv", d / "kw.csv")
        rdns = load_rdns(d / "rdns.csv")
        sources = {ip_to_int(f"192.0.2.{i}") for i in range(8)}
        want = oracle_acked_sources(sources, ip_lines, kw_lines, rdns_lines)
        assert acked_sources(sources, acked, rdns) == want
        assert acked.malformed_lines == rdns.malformed_lines == 0


def _map(entries):
    amap = AsnMap()
    for cidr, asn, org, cc in entries:
        amap.add(*parse_cidr(cidr), AsnEntry(asn, org, cc))
    return amap


class TestOriginTable:
    def test_grouping_and_ranking(self):
        amap = _map([
            ("198.51.100.0/24", 64500, "BigScan", "US"),
            ("203.0.113.0/24", 64501, "LoneWolf", "DE"),
        ])
        ah = {ip_to_int("198.51.100.1"), ip_to_int("198.51.100.2"),
              ip_to_int("203.0.113.7")}
        pkts = {ip_to_int("198.51.100.1"): 10, ip_to_int("203.0.113.7"): 99}
        rows = origin_table(ah, pkts, amap, set())
        assert [r.asn for r in rows] == [64500, 64501]
        assert rows[0].unique_32s == 2
        assert rows[0].unique_24s == 1
        assert rows[0].pkts == 10          # missing IPs contribute zero pkts
        assert rows[1].pkts == 99

    def test_unmapped_sources_group_under_asn_zero(self):
        rows = origin_table({IP_A}, {}, AsnMap(), set())
        (row,) = rows
        assert (row.asn, row.org) == (0, "unknown")

    def test_acked_columns_zero_without_matches(self):
        amap = _map([("162.142.125.0/24", 398324, "Censys", "US")])
        (row,) = origin_table({IP_A}, {}, amap, set())
        assert (row.acked_32s, row.acked_24s) == (0, 0)

    def test_acked_columns_count_subset(self):
        amap = _map([("162.142.125.0/24", 398324, "Censys", "US")])
        ah = {IP_A, IP_A + 1}
        acked = AckedList({IP_A: "Censys"}, {})
        (row,) = origin_table(ah, {}, amap, acked_sources(ah, acked))
        assert row.unique_32s == 2
        assert (row.acked_32s, row.acked_24s) == (1, 1)

    def test_acked_ips_outside_ah_not_counted(self):
        amap = _map([("162.142.125.0/24", 398324, "Censys", "US")])
        (row,) = origin_table({IP_A}, {}, amap, {IP_A + 1, IP_B})
        assert (row.unique_32s, row.acked_32s, row.acked_24s) == (1, 0, 0)

    def test_matches_brute_force(self):
        rng = random.Random(60601)
        amap = _map([
            (f"198.51.{i}.0/24", 64500 + i % 5, f"org{i % 4}", ["US", "DE", "JP"][i % 3])
            for i in range(16)
        ])
        for _ in range(50):
            ah = {ip_to_int(f"198.51.{rng.randrange(20)}.{rng.randrange(1, 255)}")
                  for _ in range(rng.randrange(1, 60))}
            pkts = {ip: rng.randrange(0, 100) for ip in ah if rng.random() < 0.7}
            rows = origin_table(ah, pkts, amap, set())
            # brute force: regroup with dict-of-lists
            groups = {}
            for ip in ah:
                entry = origin_of(ip, amap)
                groups.setdefault((entry.asn, entry.org, entry.country), []).append(ip)
            assert len(rows) == len(groups)
            assert sum(r.unique_32s for r in rows) == len(ah)
            assert sum(r.pkts for r in rows) == sum(pkts.values())
            for r in rows:
                members = groups[(r.asn, r.org, r.country)]
                assert r.unique_32s == len(members)
                assert r.unique_24s == len({slash24_of(ip) for ip in members})
                assert r.pkts == sum(pkts.get(ip, 0) for ip in members)
            ranks = [(-r.unique_32s, r.asn, r.org) for r in rows]
            assert ranks == sorted(ranks)

    def test_csv_writer(self, tmp_path):
        amap = _map([("198.51.100.0/24", 64500, "BigScan", "US")])
        rows = origin_table({IP_B}, {IP_B: 5}, amap, set())
        p = tmp_path / "origins.csv"
        write_csv(p, OriginRow._fields, rows)
        lines = p.read_text().splitlines()
        assert lines[0] == "asn,org,country,unique_32s,unique_24s,pkts,acked_32s,acked_24s"
        assert lines[1] == "64500,BigScan,US,1,1,5,0,0"


def _tags(entries):
    return {ip: TagEntry(TagClass(cls), tuple(tags)) for ip, cls, tags in entries}


class TestTagJoin:
    def test_histogram_and_overlap(self):
        db = _tags([
            (1, "benign", ["research"]),
            (2, "malicious", ["bruteforcer", "ssh"]),
            (3, "malicious", ["ssh"]),
        ])
        res = tag_join({1, 2, 3, 4}, db)
        assert res.histogram == {"benign": 1, "malicious": 2, "unknown": 0, NOT_PRESENT: 1}
        assert res.overlap_fraction == 0.75
        assert res.top_tags == [("ssh", 2), ("bruteforcer", 1), ("research", 1)]

    def test_top_tags_keeps_the_twenty_most_frequent(self):
        # Tag i is on sources 0..i, so its count is i + 1 and the order is known.
        db = _tags([(ip, "unknown", [f"tag{i}" for i in range(ip, 30)]) for ip in range(30)])
        res = tag_join(set(range(30)), db)
        assert TOP_TAGS == 20
        assert res.top_tags == [(f"tag{i}", i + 1) for i in range(29, 9, -1)]

    def test_empty_ah_raises(self):
        with pytest.raises(EmptyAhSetError):
            tag_join(set(), {})

    def test_no_overlap(self):
        res = tag_join({1, 2}, {})
        assert res.overlap_fraction == 0.0
        assert res.histogram[NOT_PRESENT] == 2

    def test_report_tag_tables(self, tmp_path):
        ips = [ip_to_int("198.51.100.1"), ip_to_int("198.51.100.2")]
        events = tmp_path / "events.jsonl"
        write_event_log(events, [
            DarknetEvent(ip, 23, TYPE_INDEX[TrafficType.TCP_SYN], 0, 0, 1, 1, 0, 0, 1) for ip in ips
        ])
        verdicts = tmp_path / "verdicts.jsonl"
        write_verdicts(verdicts, [
            AhVerdict(ip, date(1970, 1, 1), frozenset({"D2"}), 0.0, 1, 1, True) for ip in ips
        ])
        tags = tmp_path / "tags.csv"
        tags.write_text("198.51.100.1,malicious,ssh\n")
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "report", str(events), str(verdicts), "--tags", str(tags)])
        assert rc == 0
        assert (out / "tag_classes.csv").read_text().splitlines() == [
            "classification,ip_count", "benign,0", "malicious,1", "unknown,0",
            "not_present,1",
        ]
        assert (out / "tags_top.csv").read_text().splitlines() == ["rank,tag,ip_count", "1,ssh,1"]
