import argparse
import csv
import gc
import json
import os
import subprocess
import sys
import weakref
from datetime import date
from pathlib import Path

import pytest

import darklens
from darklens import enrich
from darklens import pcap as pcap_mod
from darklens.cli import build_parser, main
from darklens.detect import read_blocklist
from darklens.flows import FlowFormat
from darklens.model import (
    AhVerdict, DarknetEvent, Direction, EventKey, FlowRecord, Protocol, TrafficType, ip_to_int,
)
from darklens.pcap import PcapReader
from helpers import (
    NONCANONICAL_PREFIXES, US, build_pcap, eth_frame, oracle_ipv4, oracle_udp, write_flows_csv,
)

CONF = """\
darknet_prefixes = 10.0.0.0/22
event_timeout_s = 600
dispersion_fraction = 0.10
alpha = 0.0001
"""

SCENARIO = {
    "full_coverage_scanners": 3,
    "partial_scanners": 10,
    "noise_sources": 5,
    "backscatter_pkts": 20,
    "duration_s": 300,
    "flow_total_pkts": 200_000,
    "flow_ah_share": 0.10,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> events -> detect run once and shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    conf = root / "telescope.conf"
    conf.write_text(CONF)
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))

    synth_dir = root / "synth"
    rc = main(["--out-dir", str(synth_dir), "--seed", "42", "synth", str(scenario)])
    assert rc == 0

    run_dir = root / "run"
    rc = main([
        "--config", str(conf), "--out-dir", str(run_dir),
        "events", str(synth_dir / "synth.pcap"),
    ])
    assert rc == 0

    rc = main([
        "--config", str(conf), "--out-dir", str(run_dir),
        "detect", str(run_dir / "events.jsonl"),
    ])
    assert rc == 0
    return {
        "root": root, "conf": conf, "scenario": scenario,
        "synth": synth_dir, "run": run_dir,
    }


@pytest.fixture()
def feeds(pipeline):
    root = pipeline["root"]
    if not (root / "asn.csv").exists():
        (root / "asn.csv").write_text(
            "198.18.0.0/16,64500,ScanCo,US\n198.19.0.0/16,64501,ProbeNet,DE\n"
        )
        (root / "tags.csv").write_text(
            "198.18.0.1,malicious,bruteforcer|telnet\n198.18.0.2,benign,research\n"
        )
        (root / "acked_ips.csv").write_text("198.18.0.3,GoodScan\n")
        (root / "acked_kw.csv").write_text("goodscan,GoodScan\n")
        (root / "rdns.csv").write_text("198.18.0.4,probe-1.goodscan.net\n")
    return root


class TestPipeline:
    def test_synth_outputs(self, pipeline):
        for name in ("synth.pcap", "manifest.json", "flows.csv"):
            assert (pipeline["synth"] / name).exists()

    def test_events_output(self, pipeline):
        log = pipeline["run"] / "events.jsonl"
        manifest = json.loads((pipeline["synth"] / "manifest.json").read_text())
        events = log.read_text().splitlines()
        assert events
        total = sum(json.loads(line)["pkt_count"] for line in events)
        assert total == manifest["scanning_pkts"]

    def test_detect_outputs(self, pipeline):
        run = pipeline["run"]
        for name in (
            "blocklist_d1.txt", "blocklist_d2.txt", "blocklist_d3.txt",
            "blocklist_union.txt", "blocklist_union.stats.jsonl",
            "verdicts.jsonl", "detect_meta.json",
        ):
            assert (run / name).exists()
        meta = json.loads((run / "detect_meta.json").read_text())
        assert meta["thresholds"]["mode"] == "two-pass"
        assert meta["counts"]["union"] >= meta["counts"]["d1"]

    def test_d1_blocklist_matches_ground_truth(self, pipeline):
        manifest = json.loads((pipeline["synth"] / "manifest.json").read_text())
        got = read_blocklist(pipeline["run"] / "blocklist_d1.txt")
        assert got == {ip_to_int(ip) for ip in manifest["d1_expected"]}

    def test_blocklist_sorted_ascending(self, pipeline):
        lines = (pipeline["run"] / "blocklist_union.txt").read_text().splitlines()
        assert lines == sorted(lines, key=ip_to_int)

    def test_deterministic_rerun(self, pipeline, tmp_path):
        before = {
            name: (pipeline["run"] / name).read_bytes()
            for name in ("events.jsonl", "blocklist_union.txt", "verdicts.jsonl")
        }
        rerun = tmp_path / "rerun"
        main([
            "--config", str(pipeline["conf"]), "--out-dir", str(rerun),
            "events", str(pipeline["synth"] / "synth.pcap"),
        ])
        main([
            "--config", str(pipeline["conf"]), "--out-dir", str(rerun),
            "detect", str(rerun / "events.jsonl"),
        ])
        assert (rerun / "events.jsonl").read_bytes() == before["events.jsonl"]
        assert (rerun / "blocklist_union.txt").read_bytes() == before["blocklist_union.txt"]
        assert (rerun / "verdicts.jsonl").read_bytes() == before["verdicts.jsonl"]


class TestImpactCommand:
    def test_flow_impact_outputs(self, pipeline, tmp_path, capsys):
        out = tmp_path / "impact"
        rc = main([
            "--out-dir", str(out),
            "impact",
            "--blocklist", str(pipeline["run"] / "blocklist_union.txt"),
            "--flows", str(pipeline["synth"] / "flows.csv"),
        ])
        assert rc == 0
        lines = (out / "impact.csv").read_text().splitlines()
        assert lines[0] == "vantage_id,date,ah_pkts_est,total_pkts_est,fraction"
        assert len(lines) == 2  # one router
        assert (out / "presence.csv").exists()
        assert (out / "protocols_flows.csv").exists()
        assert "fraction=" in capsys.readouterr().out

    def test_series_outputs(self, pipeline, tmp_path):
        out = tmp_path / "series"
        rc = main([
            "--out-dir", str(out),
            "impact",
            "--blocklist", str(pipeline["run"] / "blocklist_union.txt"),
            "--pcap", str(pipeline["synth"] / "synth.pcap"),
            "--bin-width", "10",
            "--num-slash24", "4",
        ])
        assert rc == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "bin_start_ts,ah_pkts,total_pkts,inst_fraction,cum_fraction,per_slash24_rate"
        assert len(lines) > 1

    def test_empty_blocklist_exits_1(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = main([
            "--out-dir", str(tmp_path),
            "impact", "--blocklist", str(empty),
            "--flows", str(pipeline["synth"] / "flows.csv"),
        ])
        assert rc == 1
        assert "empty" in capsys.readouterr().out

    def test_wrong_day_exits_1(self, pipeline, tmp_path):
        rc = main([
            "--out-dir", str(tmp_path),
            "impact",
            "--blocklist", str(pipeline["run"] / "blocklist_union.txt"),
            "--flows", str(pipeline["synth"] / "flows.csv"),
            "--date", "1999-01-01",
        ])
        assert rc == 1

    @staticmethod
    def _flows_csv(path, routers, extra_rows=()):
        """One aggressive flow per router on 2022-06-01, then extra_rows as given."""
        write_flows_csv(path, [
            FlowRecord(
                router_id=router, ts_us=1654041600 * US, direction=Direction.INGRESS,
                src_ip=ip_to_int("198.18.0.1"), dst_ip=ip_to_int("192.0.2.1"),
                protocol=Protocol.TCP, src_port=40000, dst_port=23, sampled_pkts=1,
                sampling_denominator=100, tcp_flags=0x02,
            )
            for router in routers
        ], extra_rows)

    def test_invalid_rows_noted_when_day_has_no_flows(self, tmp_path, capsys):
        blocklist = tmp_path / "blocklist.txt"
        blocklist.write_text("198.18.0.1\n")
        flows = tmp_path / "flows.csv"
        self._flows_csv(flows, ["router-1"], [["router-1", "not-a-number"] + [""] * 9])
        rc = main([
            "--out-dir", str(tmp_path / "out"), "impact", "--blocklist", str(blocklist),
            "--flows", str(flows), "--date", "1999-01-01",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "warning: no flow records on 1999-01-01" in out
        assert "note: 1 invalid flow rows skipped" in out

    def test_router_id_with_comma_stays_one_field(self, tmp_path):
        blocklist = tmp_path / "blocklist.txt"
        blocklist.write_text("198.18.0.1\n")
        flows = tmp_path / "flows.csv"
        self._flows_csv(flows, ["edge,1", "router-2"])
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "impact", "--blocklist", str(blocklist), "--flows", str(flows)])
        assert rc == 0
        for name in ("presence.csv", "impact.csv"):
            with open(out / name, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert [row[0] for row in rows[1:]] == ["edge,1", "router-2"], name
            assert {len(row) for row in rows} == {len(rows[0])}, name
        assert (out / "presence.csv").read_bytes() == (
            b'router_id,presence_fraction\n"edge,1",1.0\nrouter-2,1.0\n'
        )

    def test_neither_input_is_fatal(self, pipeline, tmp_path, capsys):
        rc = main([
            "--out-dir", str(tmp_path),
            "impact", "--blocklist", str(pipeline["run"] / "blocklist_union.txt"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestReportCommand:
    def test_report_outputs(self, pipeline, feeds, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main([
            "--out-dir", str(out),
            "report", str(pipeline["run"] / "events.jsonl"),
            str(pipeline["run"] / "verdicts.jsonl"),
            "--asn-map", str(feeds / "asn.csv"),
            "--tags", str(feeds / "tags.csv"),
            "--acked-ips", str(feeds / "acked_ips.csv"),
            "--acked-keywords", str(feeds / "acked_kw.csv"),
            "--rdns", str(feeds / "rdns.csv"),
        ])
        assert rc == 0
        for name in (
            "origins.csv", "ports.csv", "zipf.csv", "intersections.csv",
            "timeseries.csv", "protocols_darknet.csv", "tag_classes.csv",
            "tags_top.csv", "report_meta.json",
        ):
            assert (out / name).exists(), name
        inter = (out / "intersections.csv").read_text().splitlines()
        assert inter[0] == "combo,ips,asns,orgs,countries"
        assert [line.split(",")[0] for line in inter[1:]] == [
            "D1", "D2", "D3", "D1&D2", "D2&D3", "D1&D3", "D1&D2&D3",
        ]
        ts = (out / "timeseries.csv").read_text().splitlines()
        assert ts[0] == "day,daily_ah,active_ah"
        assert "report tables ->" in capsys.readouterr().out

    def test_acked_list_matched_once_per_source(self, pipeline, feeds, tmp_path, monkeypatch):
        calls = []
        real = enrich.match_acked
        monkeypatch.setattr(enrich, "match_acked", lambda ip, *a: calls.append(ip) or real(ip, *a))
        rc = main([
            "--out-dir", str(tmp_path / "report"),
            "report", str(pipeline["run"] / "events.jsonl"),
            str(pipeline["run"] / "verdicts.jsonl"),
            "--tags", str(feeds / "tags.csv"), "--exclude-acked",
            "--acked-ips", str(feeds / "acked_ips.csv"),
            "--acked-keywords", str(feeds / "acked_kw.csv"),
            "--rdns", str(feeds / "rdns.csv"),
        ])
        assert rc == 0
        verdict_ips = {
            json.loads(line)["src_ip"]
            for line in (pipeline["run"] / "verdicts.jsonl").read_text().splitlines()
        }
        assert sorted(calls) == sorted(ip_to_int(ip) for ip in verdict_ips)

    def test_exclude_acked_drops_the_sources_origins_counts_as_acked(self, tmp_path, capsys):
        # A matches nothing, B is ACKed by its rDNS name, C by its address.
        ips = ["198.18.0.1", "198.18.0.2", "198.18.0.3"]
        (tmp_path / "events.jsonl").write_text("".join(
            DarknetEvent(EventKey(ip_to_int(ip), 23, TrafficType.TCP_SYN), 0, 0, 1, 1, 1, 0, 0)
            .to_json_line() + "\n" for ip in ips
        ))
        (tmp_path / "verdicts.jsonl").write_text("".join(
            AhVerdict(ip_to_int(ip), date(1970, 1, 1), frozenset({"D2"}), 0.001, 1, 1, True)
            .to_json_line() + "\n" for ip in ips
        ))
        (tmp_path / "tags.csv").write_text("198.18.0.1,malicious,mirai\n198.18.0.3,benign,research\n")
        (tmp_path / "acked_ips.csv").write_text("198.18.0.3,GoodScan\n")
        (tmp_path / "acked_kw.csv").write_text("goodscan,GoodScan\n")
        (tmp_path / "rdns.csv").write_text("198.18.0.2,probe-1.goodscan.net\n")
        out = tmp_path / "report"
        rc = main([
            "--out-dir", str(out), "report",
            str(tmp_path / "events.jsonl"), str(tmp_path / "verdicts.jsonl"),
            "--tags", str(tmp_path / "tags.csv"), "--exclude-acked",
            "--acked-ips", str(tmp_path / "acked_ips.csv"),
            "--acked-keywords", str(tmp_path / "acked_kw.csv"),
            "--rdns", str(tmp_path / "rdns.csv"),
        ])
        assert rc == 0
        assert "tag overlap: 1.000 of 1 sources" in capsys.readouterr().out
        assert (out / "tag_classes.csv").read_text().splitlines()[1:] == [
            "benign,0", "malicious,1", "unknown,0", "not_present,0",
        ]
        origins = list(csv.DictReader((out / "origins.csv").open()))
        assert [(r["unique_32s"], r["acked_32s"]) for r in origins] == [("3", "2")]

    def test_exclude_acked_without_lists_is_fatal(self, pipeline, feeds, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main([
            "--out-dir", str(out),
            "report", str(pipeline["run"] / "events.jsonl"),
            str(pipeline["run"] / "verdicts.jsonl"),
            "--tags", str(feeds / "tags.csv"), "--exclude-acked",
        ])
        assert rc == 2
        assert "--exclude-acked needs --acked-ips and --acked-keywords" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_empty_verdicts_exit_1(self, pipeline, tmp_path):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        rc = main([
            "--out-dir", str(tmp_path),
            "report", str(pipeline["run"] / "events.jsonl"), str(empty),
        ])
        assert rc == 1


def test_events_reports_outside_darknet_and_clamps(tmp_path, capsys):
    conf = tmp_path / "telescope.conf"
    conf.write_text(CONF)

    def probe(dst):
        return eth_frame(oracle_ipv4("198.51.100.9", dst, 17, oracle_udp(40000, 53)))

    frames = [(i * US, probe(f"10.0.0.{i}")) for i in range(5)]
    frames += [(10 * US + i, probe(f"192.168.0.{i}")) for i in range(3)]
    pcap = tmp_path / "mixed.pcap"
    pcap.write_bytes(build_pcap(frames))
    rc = main(["--config", str(conf), "--out-dir", str(tmp_path), "events", str(pcap)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dropped non-scanning: 0, outside darknet: 3, out of order: 0" in out
    assert "sketch_clamped: 0" in out
    (line,) = (tmp_path / "events.jsonl").read_text().splitlines()
    assert json.loads(line)["unique_dst_count"] == 5


def test_events_drops_each_capture_and_sums_its_counters(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "telescope.conf"
    conf.write_text(CONF)

    def probe(dst, proto=17):
        return eth_frame(oracle_ipv4("198.51.100.9", dst, proto, oracle_udp(40000, 53)))

    arp = bytes(6) + bytes(6) + b"\x08\x06" + bytes(28)
    first = tmp_path / "a.pcap"
    first.write_bytes(build_pcap(
        [(i * US, probe(f"10.0.0.{i}")) for i in range(3)]
        + [(4 * US, arp), (5 * US, eth_frame(bytes(10)))]
    ))
    second = tmp_path / "b.pcap"
    second.write_bytes(build_pcap(
        [(10 * US + i, probe(f"10.0.1.{i}")) for i in range(2)]
        + [(11 * US, probe("10.0.2.1", proto=47)), (12 * US, probe("10.0.2.2", proto=47)),
           (13 * US, arp)]
    ))

    refs = []
    dead_at_open = []

    class TrackedReader(PcapReader):
        def __init__(self, path):
            gc.collect()
            dead_at_open.append([ref() is None for ref in refs])
            super().__init__(path)
            refs.append(weakref.ref(self))

    # cmd_events imports PcapReader from darklens.pcap when it runs.
    monkeypatch.setattr(pcap_mod, "PcapReader", TrackedReader)
    rc = main(["--config", str(conf), "--out-dir", str(tmp_path), "events", str(first), str(second)])
    assert rc == 0
    assert dead_at_open == [[], [True]]
    out = capsys.readouterr().out
    assert "pcap files: 2\n" in out
    assert "packets read: 5 (skipped: non-ipv4 2, truncated 1, other transport 2)" in out


class TestFailureModes:
    def test_detect_rejects_event_wider_than_darknet(self, pipeline, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            '{"key": {"src_ip": "203.0.113.5", "dst_port": 23, "traffic_type": "tcp_syn"}, '
            '"start_ts": 1654041600000000, "end_ts": 1654041660000000, "pkt_count": 5000, '
            '"unique_dst_count": 5000, "zmap_pkts": 5000, "masscan_pkts": 0, "other_pkts": 0}\n'
        )
        out = tmp_path / "out"
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(out), "detect", str(log),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        for part in (str(log), "203.0.113.5", "port 23", "start_ts 1654041600000000", "1024"):
            assert part in err
        assert list(out.iterdir()) == []

    def test_detect_accepts_event_covering_the_whole_darknet(self, pipeline, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text(
            '{"key": {"src_ip": "203.0.113.5", "dst_port": 23, "traffic_type": "tcp_syn"}, '
            '"start_ts": 0, "end_ts": 1000000, "pkt_count": 1024, "unique_dst_count": 1024, '
            '"zmap_pkts": 1024, "masscan_pkts": 0, "other_pkts": 0}\n'
        )
        rc = main(["--config", str(pipeline["conf"]), "--out-dir", str(tmp_path), "detect", str(log)])
        assert rc == 0
        assert (tmp_path / "blocklist_d1.txt").read_text() == "203.0.113.5\n"

    def test_missing_pcap_names_path(self, pipeline, tmp_path, capsys):
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(tmp_path),
            "events", str(tmp_path / "nope.pcap"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "nope.pcap" in err
        assert not (tmp_path / "events.jsonl").exists()

    def test_bad_magic_cleans_partial_output(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\x0a\x0d\x0d\x0a" + bytes(20))
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(tmp_path),
            "events", str(bad),
        ])
        assert rc == 2
        assert not (tmp_path / "events.jsonl").exists()

    def test_events_without_config_is_fatal(self, pipeline, tmp_path, capsys):
        rc = main([
            "--out-dir", str(tmp_path),
            "events", str(pipeline["synth"] / "synth.pcap"),
        ])
        assert rc == 2
        assert "--config" in capsys.readouterr().err

    def test_detect_empty_log_exits_1(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "events.jsonl"
        empty.write_text("")
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(tmp_path),
            "detect", str(empty),
        ])
        assert rc == 1
        assert (tmp_path / "blocklist_union.txt").read_text() == ""

    def test_detect_union_empty_exits_1(self, pipeline, tmp_path):
        # Fixed thresholds nothing can reach, over a log whose events are tiny.
        log = tmp_path / "events.jsonl"
        log.write_text(
            '{"key": {"src_ip": "203.0.113.5", "dst_port": 23, "traffic_type": "tcp_syn"}, '
            '"start_ts": 0, "end_ts": 1000000, "pkt_count": 2, "unique_dst_count": 1, '
            '"zmap_pkts": 0, "masscan_pkts": 0, "other_pkts": 2}\n'
        )
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(tmp_path),
            "detect", str(log), "--fixed-thresholds", "1000000000", "1000000000",
        ])
        assert rc == 1
        assert (tmp_path / "blocklist_union.txt").read_text() == ""

    def test_negative_reorder_slack_is_fatal(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(out),
            "events", str(pipeline["synth"] / "synth.pcap"), "--reorder-slack", "-5",
        ])
        assert rc == 2
        assert "error: reorder slack -5.0 s must be finite and >= 0" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_timeout_rounding_to_zero_is_fatal(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "tiny_timeout.conf"
        conf.write_text("darknet_prefixes = 10.0.0.0/22\nevent_timeout_s = 0.0000001\n")
        out = tmp_path / "out"
        rc = main([
            "--config", str(conf), "--out-dir", str(out),
            "events", str(pipeline["synth"] / "synth.pcap"),
        ])
        assert rc == 2
        assert "error: event_timeout_s 1e-07 must round to at least 1 us" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("line", [f"darknet_prefixes = {p}" for p in NONCANONICAL_PREFIXES]
                             + ["darknet_size = 1024"])
    def test_config_line_rejected_is_fatal(self, pipeline, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(CONF + line + "\n")
        out = tmp_path / "out"
        rc = main([
            "--config", str(conf), "--out-dir", str(out),
            "events", str(pipeline["synth"] / "synth.pcap"),
        ])
        assert rc == 2
        key, _, value = line.partition(" = ")
        reason = f"unknown key '{key}'" if key == "darknet_size" else f"invalid IPv4 prefix '{value}'"
        assert f"error: line 5: {reason}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bin_width_rounding_to_zero_is_fatal(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "--out-dir", str(out), "impact",
            "--blocklist", str(pipeline["run"] / "blocklist_union.txt"),
            "--pcap", str(pipeline["synth"] / "synth.pcap"), "--bin-width", "1e-7",
        ])
        assert rc == 2
        assert "error: bin width 1e-07 s" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_out_dir_naming_a_file_is_fatal(self, pipeline, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(taken),
            "events", str(pipeline["synth"] / "synth.pcap"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and str(taken) in err
        assert taken.read_text() == "not a directory\n"

    def test_unknown_scenario_key_is_fatal(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text('{"bogus_knob": 1}')
        rc = main(["--out-dir", str(tmp_path), "synth", str(bad)])
        assert rc == 2
        assert "bogus_knob" in capsys.readouterr().err


ROTTEN_EVENT = '{"key":{"src_ip":"1.2.3.4"}}'
ROTTEN_VERDICT = '{"src_ip":"1.2.3.4","day":"2022-06-01"}'


class TestRottenInputs:
    """A malformed event or verdict line is a fatal input problem (exit 2)."""

    def _rotten_log(self, pipeline, tmp_path, name, bad_line):
        good = (pipeline["run"] / name).read_text().splitlines()
        path = tmp_path / f"in_{name}"
        path.write_text("\n".join(good[:2] + [bad_line] + good[2:]) + "\n")
        return path

    def test_detect_rotten_event_line_exits_2(self, pipeline, tmp_path, capsys):
        log = self._rotten_log(pipeline, tmp_path, "events.jsonl", ROTTEN_EVENT)
        out = tmp_path / "out"
        rc = main(["--config", str(pipeline["conf"]), "--out-dir", str(out), "detect", str(log)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {log}:3:" in err
        assert "dst_port" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("which", ["events", "verdicts"])
    def test_report_rotten_line_exits_2(self, pipeline, tmp_path, capsys, which):
        events = pipeline["run"] / "events.jsonl"
        verdicts = pipeline["run"] / "verdicts.jsonl"
        if which == "events":
            events = bad = self._rotten_log(pipeline, tmp_path, "events.jsonl", ROTTEN_EVENT)
        else:
            verdicts = bad = self._rotten_log(pipeline, tmp_path, "verdicts.jsonl", ROTTEN_VERDICT)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "report", str(events), str(verdicts)])
        assert rc == 2
        assert f"error: {bad}:3:" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_report_rotten_event_line_with_no_verdicts_exits_2(self, pipeline, tmp_path, capsys):
        log = self._rotten_log(pipeline, tmp_path, "events.jsonl", ROTTEN_EVENT)
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "report", str(log), str(empty)])
        assert rc == 2
        assert f"error: {log}:3:" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("defs", [["D4"], [], ["D1", "D4"], "D1"])
    def test_report_verdict_with_bad_defs_exits_2(self, pipeline, tmp_path, capsys, defs):
        good = json.loads((pipeline["run"] / "verdicts.jsonl").read_text().splitlines()[0])
        bad_line = json.dumps(dict(good, matched_defs=defs))
        verdicts = self._rotten_log(pipeline, tmp_path, "verdicts.jsonl", bad_line)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "report", str(pipeline["run"] / "events.jsonl"), str(verdicts)])
        assert rc == 2
        assert f"error: {verdicts}:3:" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fields, reason", [
        ({"pkt_count": 0, "zmap_pkts": 0, "masscan_pkts": 0, "other_pkts": 0}, "pkt_count"),
        ({"unique_dst_count": 0}, "unique_dst_count"),
        ({"other_pkts": 10 ** 6}, "partition"),
        ({"start_ts": 10 ** 18}, "start_ts"),
        ({"start_ts": 10 ** 22, "end_ts": 10 ** 22}, "<= start_ts <= end_ts <="),
        ({"start_ts": -(10 ** 22)}, "<= start_ts <= end_ts <="),
        ({"pkt_count": 1.9}, "pkt_count must be a JSON integer"),
        ({"pkt_count": True}, "pkt_count must be a JSON integer"),
        ({"zmap_pkts": "5"}, "zmap_pkts must be a JSON integer"),
    ])
    def test_detect_invalid_event_exits_2(self, pipeline, tmp_path, capsys, fields, reason):
        good = json.loads((pipeline["run"] / "events.jsonl").read_text().splitlines()[0])
        log = self._rotten_log(pipeline, tmp_path, "events.jsonl", json.dumps(dict(good, **fields)))
        out = tmp_path / "out"
        rc = main(["--config", str(pipeline["conf"]), "--out-dir", str(out), "detect", str(log)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {log}:3:" in err
        assert reason in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("spoil", [
        lambda ev: dict(ev, start_ts=10 ** 22, end_ts=10 ** 22),
        lambda ev: dict(ev, unique_dst_count=float(ev["unique_dst_count"])),
        lambda ev: dict(ev, key=dict(ev["key"], dst_port=str(ev["key"]["dst_port"]))),
    ], ids=["out_of_date_range", "float_count", "string_port"])
    def test_report_invalid_event_exits_2(self, pipeline, tmp_path, capsys, spoil):
        good = json.loads((pipeline["run"] / "events.jsonl").read_text().splitlines()[0])
        log = self._rotten_log(pipeline, tmp_path, "events.jsonl", json.dumps(spoil(good)))
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "report", str(log), str(pipeline["run"] / "verdicts.jsonl")])
        assert rc == 2
        assert f"error: {log}:3:" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fields, reason", [
        ({"is_daily": "false"}, "is_daily must be a JSON boolean"),
        ({"acked": "false"}, "acked must be a JSON boolean"),
        ({"is_daily": 0}, "is_daily must be a JSON boolean"),
        ({"max_event_pkts": 1.5}, "max_event_pkts must be a JSON integer"),
        ({"distinct_ports": "3"}, "distinct_ports must be a JSON integer"),
        ({"distinct_ports": True}, "distinct_ports must be a JSON integer"),
        ({"max_dispersion": "0.5"}, "max_dispersion must be a JSON number"),
    ])
    def test_report_verdict_with_bad_types_exits_2(self, pipeline, tmp_path, capsys, fields, reason):
        good = json.loads((pipeline["run"] / "verdicts.jsonl").read_text().splitlines()[0])
        verdicts = self._rotten_log(pipeline, tmp_path, "verdicts.jsonl", json.dumps(dict(good, **fields)))
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "report", str(pipeline["run"] / "events.jsonl"), str(verdicts)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {verdicts}:3:" in err
        assert reason in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("line", ["[1, 2]", "null", '"text"', '{"key": 5}', "{not json"])
    def test_detect_non_object_lines_exit_2(self, pipeline, tmp_path, capsys, line):
        log = tmp_path / "events.jsonl"
        log.write_text(line + "\n")
        out = tmp_path / "out"
        rc = main(["--config", str(pipeline["conf"]), "--out-dir", str(out), "detect", str(log)])
        assert rc == 2
        assert f"error: {log}:1:" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_no_output_holds_a_carriage_return(pipeline, feeds, tmp_path):
    """Every file events, detect, impact and report write ends lines with LF."""
    run, synth = pipeline["run"], pipeline["synth"]
    acked = ["--acked-ips", str(feeds / "acked_ips.csv"),
             "--acked-keywords", str(feeds / "acked_kw.csv"), "--rdns", str(feeds / "rdns.csv")]
    out = tmp_path / "out"
    assert main([
        "--out-dir", str(out), "impact", "--blocklist", str(run / "blocklist_union.txt"),
        "--flows", str(synth / "flows.csv"), "--pcap", str(synth / "synth.pcap"), *acked,
    ]) == 0
    assert main([
        "--out-dir", str(out), "report", str(run / "events.jsonl"), str(run / "verdicts.jsonl"),
        "--asn-map", str(feeds / "asn.csv"), "--tags", str(feeds / "tags.csv"), *acked,
    ]) == 0
    written = sorted(run.iterdir()) + sorted(out.iterdir())
    names = {path.name for path in written}
    assert {"events.jsonl", "verdicts.jsonl", "detect_meta.json", "impact.csv",
            "acked_impact.csv", "series.csv", "origins.csv", "ports.csv", "tag_classes.csv",
            "tags_top.csv", "report_meta.json"} <= names
    for path in written:
        data = path.read_bytes()
        assert b"\r" not in data, path.name
        assert data == b"" or data.endswith(b"\n"), path.name


# Runs one subcommand in a fresh interpreter, then reports its exit code, the
# darklens modules it loaded and which of the heavier imports it pulled in.
_FRESH_MAIN = """\
import json, sys
from darklens.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # --help
    rc = exc.code
print(json.dumps({
    "rc": rc,
    "darklens": sorted(name for name in sys.modules if name.partition(".")[0] == "darklens"),
    "heavy": [name for name in ("numpy", "dataclasses", "inspect", "fractions", "socket")
              if name in sys.modules],
}))
"""


def _fresh_main(argv):
    env = dict(os.environ)
    src = str(Path(darklens.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, *map(str, argv)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# What every subcommand loads: the parser and the names bench/layers.py
# patches on darklens.cli.
_CLI_MODULES = {"cli", "model", "feeds", "fingerprint"}


def _darklens(*names):
    return ["darklens"] + sorted(f"darklens.{name}" for name in _CLI_MODULES.union(names))


class TestStartupImports:
    """Each cron stage imports only the darklens modules it runs, and neither
    numpy nor dataclasses, inspect, fractions or socket."""

    @pytest.mark.parametrize("stage", ["events", "detect", "impact-flows", "impact-pcap", "report"])
    def test_pipeline_stage_does_not_import_numpy(self, pipeline, tmp_path, stage):
        synth, run = pipeline["synth"], pipeline["run"]
        conf = ["--config", str(pipeline["conf"]), "--out-dir", str(tmp_path)]
        blocklist = ["--blocklist", str(run / "blocklist_union.txt")]
        argv = {
            "events": conf + ["events", synth / "synth.pcap"],
            "detect": conf + ["detect", run / "events.jsonl"],
            "impact-flows": conf + ["impact", *blocklist, "--flows", synth / "flows.csv"],
            "impact-pcap": conf + ["impact", *blocklist, "--pcap", synth / "synth.pcap"],
            "report": conf + ["report", run / "events.jsonl", run / "verdicts.jsonl"],
        }[stage]
        modules = {
            "events": {"events", "hll", "pcap"},
            "detect": {"detect", "enrich"},
            "impact-flows": {"detect", "enrich", "impact", "flows"},
            "impact-pcap": {"detect", "enrich", "impact", "pcap"},
            "report": {"detect", "enrich", "impact"},
        }[stage]
        assert _fresh_main(argv) == {"rc": 0, "darklens": _darklens(*modules), "heavy": []}

    def test_help_loads_only_the_parser_modules(self):
        assert _fresh_main(["--help"]) == {"rc": 0, "darklens": _darklens(), "heavy": []}

    def test_synth_still_runs_from_the_cli(self, pipeline, tmp_path):
        argv = ["--out-dir", tmp_path, "--seed", "42", "synth", pipeline["scenario"]]
        got = _fresh_main(argv)
        assert got["rc"] == 0 and "numpy" in got["heavy"]
        assert (tmp_path / "synth.pcap").read_bytes() == (pipeline["synth"] / "synth.pcap").read_bytes()


def test_flow_format_choices_are_the_flow_formats():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (flow_format,) = [a for a in commands.choices["impact"]._actions if a.dest == "flow_format"]
    assert flow_format.choices == [f.value for f in FlowFormat]


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "darklens.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for sub in ("events", "detect", "impact", "report", "synth"):
            assert sub in proc.stdout
