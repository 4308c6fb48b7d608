import random
from datetime import date

import pytest

from darklens.cli import main
from darklens.detect import write_verdicts
from darklens.enrich import (
    EmptyAhSetError,
    MatchVia,
    NOT_PRESENT,
    OriginRow,
    acked_sources,
    match_acked,
    origin_table,
    tag_join,
)
from darklens.feeds import (
    AckedList,
    AsnEntry,
    AsnMap,
    RdnsMap,
    TagClass,
    TagDb,
    TagEntry,
    origin_of,
    parse_cidr,
)
from darklens.events import write_event_log
from darklens.model import (
    AhVerdict, DarknetEvent, EventKey, TrafficType, ip_to_int, slash24_of, write_csv,
)

IP_A = ip_to_int("162.142.125.1")
IP_B = ip_to_int("198.51.100.9")


def _acked(ips=(), keywords=()):
    acked = AckedList()
    for ip, org in ips:
        acked.ips.add(ip)
        if org:
            acked.org_by_ip[ip] = org
    for kw, org in keywords:
        acked.keywords.append(kw)
        acked.org_by_keyword[kw] = org
    return acked


def _rdns(entries):
    rdns = RdnsMap()
    rdns.entries.update(entries)
    return rdns


class TestMatchAcked:
    def test_ip_entry(self):
        acked = _acked(ips=[(IP_A, "Censys")])
        m = match_acked(IP_A, acked, RdnsMap())
        assert (m.acked, m.org, m.via) == (True, "Censys", MatchVia.IP_MATCH)

    def test_domain_keyword(self):
        acked = _acked(keywords=[("censys", "Censys")])
        rdns = _rdns({IP_A: "scanner-01.censys-scanner.com"})
        m = match_acked(IP_A, acked, rdns)
        assert (m.acked, m.org, m.via) == (True, "Censys", MatchVia.DOMAIN_MATCH)

    def test_ip_beats_domain(self):
        acked = _acked(ips=[(IP_A, "ViaIp")], keywords=[("censys", "ViaDomain")])
        rdns = _rdns({IP_A: "x.censys.io"})
        m = match_acked(IP_A, acked, rdns)
        assert (m.org, m.via) == ("ViaIp", MatchVia.IP_MATCH)

    def test_first_keyword_wins(self):
        acked = _acked(keywords=[("scanner", "Generic"), ("censys", "Censys")])
        rdns = _rdns({IP_A: "scanner-01.censys.io"})
        assert match_acked(IP_A, acked, rdns).org == "Generic"

    def test_case_insensitive_fqdn(self):
        acked = _acked(keywords=[("shodan", "Shodan")])
        rdns = RdnsMap()
        rdns.entries[IP_A] = "Census.SHODAN.io"
        assert match_acked(IP_A, acked, rdns).acked is True

    def test_no_match(self):
        m = match_acked(IP_A, _acked(), RdnsMap())
        assert (m.acked, m.org, m.via) == (False, None, MatchVia.NONE)


def _map(entries):
    amap = AsnMap()
    for cidr, asn, org, cc in entries:
        amap.add(*parse_cidr(cidr), AsnEntry(asn, org, cc))
    return amap


class TestAckedSources:
    def test_only_matches_kept_with_their_org(self):
        acked = _acked(ips=[(IP_A, "Censys")], keywords=[("goodscan", "GoodScan")])
        ip_c = ip_to_int("203.0.113.7")
        rdns = _rdns({ip_c: "probe.GoodScan.net"})
        got = acked_sources({IP_A, IP_B, ip_c}, acked, rdns)
        assert {ip: (m.org, m.via) for ip, m in got.items()} == {
            IP_A: ("Censys", MatchVia.IP_MATCH),
            ip_c: ("GoodScan", MatchVia.DOMAIN_MATCH),
        }

    def test_no_rdns_map_matches_by_ip_only(self):
        acked = _acked(ips=[(IP_A, None)], keywords=[("censys", "Censys")])
        assert set(acked_sources({IP_A, IP_B}, acked)) == {IP_A}

    def test_no_list_matches_nothing(self):
        assert acked_sources({IP_A, IP_B}, None) == {}


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
        acked = _acked(ips=[(IP_A, "Censys")])
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
    db = TagDb()
    for ip, cls, tags in entries:
        db.entries[ip] = TagEntry(TagClass(cls), tuple(tags))
    return db


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

    def test_top_n_truncates(self):
        db = _tags([(i, "unknown", [f"tag{i}"]) for i in range(30)])
        res = tag_join(set(range(30)), db, top_n=5)
        assert len(res.top_tags) == 5

    def test_top_n_zero_keeps_all(self):
        db = _tags([(i, "unknown", [f"tag{i}"]) for i in range(30)])
        res = tag_join(set(range(30)), db, top_n=0)
        assert len(res.top_tags) == 30

    def test_empty_ah_raises(self):
        with pytest.raises(EmptyAhSetError):
            tag_join(set(), TagDb())

    def test_no_overlap(self):
        res = tag_join({1, 2}, TagDb())
        assert res.overlap_fraction == 0.0
        assert res.histogram[NOT_PRESENT] == 2

    def test_report_tag_tables(self, tmp_path):
        ips = [ip_to_int("198.51.100.1"), ip_to_int("198.51.100.2")]
        events = tmp_path / "events.jsonl"
        write_event_log(events, [
            DarknetEvent(EventKey(ip, 23, TrafficType.TCP_SYN), 0, 0, 1, 1, 0, 0, 1) for ip in ips
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
