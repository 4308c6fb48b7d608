import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import darklens
from darklens import enrich
from darklens import pcap as pcap_mod
from darklens.cli import _write_protocol_csv, build_parser, main
from darklens.events import EventBuilder
from darklens.fingerprint import PortFingerprintRow
from darklens.model import (
    AhVerdict, DarknetEvent, Direction, FlowRecord, Protocol, TrafficType, ip_to_int,
    read_blocklist, write_csv, write_event_log, write_lines,
)
from darklens.pcap import PcapReader
from helpers import (
    NONCANONICAL_PREFIXES, TYPE_INDEX, US, build_pcap, eth_frame, flow_json_line, oracle_ipv4,
    oracle_port_table, oracle_protocol_mix, oracle_udp, synthetic_events, traced_peak,
    write_flows_csv,
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

    def test_bad_date_is_refused_before_any_file_is_read(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([
                "--out-dir", str(out), "impact",
                "--blocklist", str(pipeline["run"] / "blocklist_union.txt"),
                "--flows", str(pipeline["synth"] / "flows.csv"), "--date", "2022-13-01",
            ])
        assert exc.value.code == 2
        assert "argument --date: invalid fromisoformat value: '2022-13-01'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

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


_FLOW_SOURCES = [ip_to_int(f"198.18.0.{i}") for i in range(1, 5)]


@st.composite
def _flow_record(draw):
    """A flow row on one of two days; sampled_pkts 0 makes it invalid in either format."""
    proto = draw(st.sampled_from(Protocol))
    ports = (None, None) if proto is Protocol.ICMP else (
        draw(st.integers(0, 65535)), draw(st.sampled_from((22, 23, 53))))
    return FlowRecord(
        draw(st.sampled_from(("r1", "r2", "edge,3"))),
        draw(st.integers(1654041600 * US, 1654214399 * US)), draw(st.sampled_from(Direction)),
        draw(st.sampled_from(_FLOW_SOURCES)), ip_to_int("192.0.2.1"), proto, *ports,
        draw(st.integers(0, 3)), draw(st.sampled_from((1, 100, 1000))),
        0x02 if proto is Protocol.TCP else None,
    )


class TestFlowFormats:
    """impact reads each --flows file's format off the file, so one list can mix them."""

    @staticmethod
    def _impact(root: Path, name: str, flows) -> tuple:
        """impact over flows: its exit code, stdout and the bytes of each file it wrote."""
        (root / "blocklist.txt").write_text("198.18.0.1\n198.18.0.3\n")
        out, stdout = root / name, io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["--out-dir", str(out), "impact", "--blocklist", str(root / "blocklist.txt"),
                       "--flows", *map(str, flows)])
        return rc, stdout.getvalue(), {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(_flow_record(), st.booleans()), max_size=20),
           blank=st.sampled_from(("", "\n", " \t\r\n\n")))
    def test_csv_and_jsonl_split_reads_as_one_csv(self, rows, blank):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_flows_csv(root / "all.csv", [rec for rec, _ in rows])
            write_flows_csv(root / "part.csv", [rec for rec, in_jsonl in rows if not in_jsonl])
            # Blank lines ahead of the first row do not make a JSONL file a CSV.
            (root / "part.jsonl").write_text(
                blank + "".join(flow_json_line(rec) for rec, in_jsonl in rows if in_jsonl))
            split = self._impact(root, "split", [root / "part.csv", root / "part.jsonl"])
            if not any(in_jsonl for _, in_jsonl in rows):
                assert split == (2, "", {})  # an empty or blank-only file names no format
                return
            rc, stdout, files = self._impact(root, "one", [root / "all.csv"])
            assert split == (rc, stdout, files)
            assert set(files) == (
                {"impact.csv", "presence.csv", "protocols_flows.csv"} if rc == 0 else set())


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
        real = enrich.acked_sources
        monkeypatch.setattr(
            enrich, "acked_sources", lambda ips, *a: real(calls.append(list(ips)) or ips, *a)
        )
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
        (sources,) = calls
        assert sorted(sources) == sorted(ip_to_int(ip) for ip in verdict_ips)

    def test_exclude_acked_drops_the_sources_origins_counts_as_acked(self, tmp_path, capsys):
        # A matches nothing, B is ACKed by its rDNS name, C by its address.
        ips = ["198.18.0.1", "198.18.0.2", "198.18.0.3"]
        (tmp_path / "events.jsonl").write_text("".join(
            DarknetEvent(ip_to_int(ip), 23, TYPE_INDEX[TrafficType.TCP_SYN], 0, 0, 1, 1, 1, 0, 0)
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
        origins = list(csv.DictReader((out / "origins.csv").read_text().splitlines()))
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

    def test_meta_counts_feed_lines_and_notes_them(self, pipeline, feeds, tmp_path, capsys):
        (tmp_path / "asn.csv").write_text(
            "198.18.0.0/16,1,A,US\n198.18.0.0/16,2,B,US\n198.18.0.0/16,3,C,US\nrotten\n"
        )
        (tmp_path / "rdns.csv").write_text("198.18.0.4,probe.net\n010.0.0.1,bad.net\n")
        out = tmp_path / "report"
        rc = main([
            "--out-dir", str(out), "report",
            str(pipeline["run"] / "events.jsonl"), str(pipeline["run"] / "verdicts.jsonl"),
            "--asn-map", str(tmp_path / "asn.csv"), "--tags", str(feeds / "tags.csv"),
            "--acked-ips", str(feeds / "acked_ips.csv"),
            "--acked-keywords", str(feeds / "acked_kw.csv"), "--rdns", str(tmp_path / "rdns.csv"),
        ])
        assert rc == 0
        assert json.loads((out / "report_meta.json").read_text())["feeds"] == {
            "acked": {"malformed_lines": 0},
            "rdns": {"malformed_lines": 1},
            "asn_map": {"malformed_lines": 1, "duplicate_lines": 2},
            "tags": {"malformed_lines": 0},
        }
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
        assert notes == [
            "note: feed rdns: 1 malformed lines",
            "note: feed asn_map: 1 malformed lines, 2 duplicate lines",
        ]

    def test_meta_lists_no_feed_when_none_is_given(self, pipeline, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(["--out-dir", str(out), "report",
                   str(pipeline["run"] / "events.jsonl"), str(pipeline["run"] / "verdicts.jsonl")])
        assert rc == 0
        assert json.loads((out / "report_meta.json").read_text())["feeds"] == {}
        assert "note:" not in capsys.readouterr().out

    def test_empty_verdicts_exit_1(self, pipeline, tmp_path):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        rc = main([
            "--out-dir", str(tmp_path),
            "report", str(pipeline["run"] / "events.jsonl"), str(empty),
        ])
        assert rc == 1


def _write_report_inputs(root: Path, events, ah) -> list:
    """An event log and one verdict per AH source; returns report's argv."""
    log, verdicts = root / "events.jsonl", root / "verdicts.jsonl"
    write_lines(log, (ev.to_json_line() for ev in events))
    write_lines(verdicts, (
        AhVerdict(ip, date(2022, 6, 1), frozenset({"D2"}), 0.0, 1, 0, True).to_json_line()
        for ip in sorted(ah)
    ))
    return ["--out-dir", str(root / "out"), "report", str(log), str(verdicts)]


_SOURCES = [ip_to_int(f"198.51.100.{i}") for i in range(1, 7)]
_EVENT = st.builds(
    lambda src, ttype, port, tools: DarknetEvent(
        src, 0 if ttype is TrafficType.ICMP_ECHO_REQUEST else port, TYPE_INDEX[ttype],
        1654041600 * US, 1654041600 * US, sum(tools), 1, *tools,
    ),
    st.sampled_from(_SOURCES), st.sampled_from(TrafficType), st.sampled_from((22, 23, 53, 80)),
    st.tuples(*[st.integers(0, 9)] * 3).filter(any),
)


class TestReportFold:
    """report folds each AH event into per-source and per-(port, type) sums."""

    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(_EVENT, max_size=30), ah=st.sets(st.sampled_from(_SOURCES), min_size=1))
    def test_tally_matches_the_per_event_oracles(self, events, ah):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            assert main(_write_report_inputs(root, events, ah)) == 0
            write_csv(root / "ports.csv", PortFingerprintRow._fields, oracle_port_table(events, ah))
            _write_protocol_csv(root / "protocols.csv", oracle_protocol_mix(events, ah))
            out = root / "out"
            assert (out / "ports.csv").read_bytes() == (root / "ports.csv").read_bytes()
            assert ((out / "protocols_darknet.csv").read_bytes()
                    == (root / "protocols.csv").read_bytes())

    def test_peak_does_not_grow_with_the_ah_event_count(self, tmp_path):
        # Every event is an AH event of a fixed population: 200 sources on
        # at most 50 ports a type. A list of the decoded AH events would add
        # about 2.3 MB between the two logs, against a peak near 0.3 MB.
        # Larger logs show the same, but tracemalloc slows report tenfold.
        ah = {ip_to_int("198.18.0.0") + i for i in range(200)}
        peaks = []
        for n in (10 ** 3, 10 ** 4):
            root = tmp_path / str(n)
            root.mkdir()
            argv = _write_report_inputs(
                root, synthetic_events(n, sources=200, ports=50, days=2, seed=7), ah)
            code, peak = traced_peak(main, argv)
            assert code == 0
            peaks.append(peak)
            assert json.loads((root / "out" / "report_meta.json").read_text())["events"] == n
        assert peaks[1] < peaks[0] + 2 ** 18, peaks


def test_detect_meta_counts_feed_lines(pipeline, feeds, tmp_path):
    (tmp_path / "acked_kw.csv").write_text("goodscan,GoodScan\nno org\n")
    out = tmp_path / "run"
    rc = main([
        "--config", str(pipeline["conf"]), "--out-dir", str(out),
        "detect", str(pipeline["run"] / "events.jsonl"),
        "--acked-ips", str(feeds / "acked_ips.csv"),
        "--acked-keywords", str(tmp_path / "acked_kw.csv"),
    ])
    assert rc == 0
    assert json.loads((out / "detect_meta.json").read_text())["feeds"] == {
        "acked": {"malformed_lines": 1},
    }
    assert json.loads((pipeline["run"] / "detect_meta.json").read_text())["feeds"] == {}


@pytest.mark.parametrize("command", ["detect", "impact", "report"])
def test_rdns_without_the_acked_lists_is_fatal(pipeline, feeds, tmp_path, capsys, command):
    run = pipeline["run"]
    argv = {
        "detect": ["--config", str(pipeline["conf"]), "detect", str(run / "events.jsonl")],
        "impact": ["impact", "--blocklist", str(run / "blocklist_union.txt"),
                   "--flows", str(pipeline["synth"] / "flows.csv")],
        "report": ["report", str(run / "events.jsonl"), str(run / "verdicts.jsonl")],
    }[command]
    out = tmp_path / "out"
    rc = main(["--out-dir", str(out), *argv, "--rdns", str(feeds / "rdns.csv")])
    assert rc == 2
    assert "error: --rdns needs --acked-ips and --acked-keywords" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_events_reports_outside_darknet(tmp_path, capsys):
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
    assert "sketch" not in out
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

    files = []
    closed_at_open = []

    def tracked_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    class TrackedReader(PcapReader):
        def __init__(self, path):
            closed_at_open.append([fh.closed for fh in files])
            super().__init__(path)

    # cmd_events imports PcapReader from darklens.pcap when it runs; the
    # reader opens each capture twice, for its header and for its records.
    monkeypatch.setattr(pcap_mod, "PcapReader", TrackedReader)
    monkeypatch.setattr(pcap_mod, "open", tracked_open, raising=False)
    rc = main(["--config", str(conf), "--out-dir", str(tmp_path), "events", str(first), str(second)])
    assert rc == 0
    assert closed_at_open == [[], [True, True]]
    assert len(files) == 4 and all(fh.closed for fh in files)
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

    def test_wide_event_names_its_line_past_a_blank_one(self, pipeline, tmp_path, capsys):
        event = (
            '{{"key": {{"src_ip": "203.0.113.5", "dst_port": 23, "traffic_type": "tcp_syn"}}, '
            '"start_ts": 1654041600000000, "end_ts": 1654041660000000, "pkt_count": {n}, '
            '"unique_dst_count": {n}, "zmap_pkts": {n}, "masscan_pkts": 0, "other_pkts": 0}}\n'
        )
        log = tmp_path / "events.jsonl"
        log.write_text(event.format(n=5) + "\n" + event.format(n=1025) + event.format(n=5))
        out = tmp_path / "out"
        rc = main(["--config", str(pipeline["conf"]), "--out-dir", str(out), "detect", str(log)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {log}:3: malformed line (ValueError: event from 203.0.113.5 port 23 at "
            "start_ts 1654041600000000 has 1025 distinct destinations, more than the 1024 "
            "addresses of the darknet)\n"
        )
        assert list(out.iterdir()) == []

    def test_wide_event_names_its_line_through_the_binary_copy(self, pipeline, tmp_path, capsys):
        def event(n):
            return DarknetEvent(ip_to_int("203.0.113.5"), 23, TYPE_INDEX[TrafficType.TCP_SYN],
                                1654041600000000, 1654041660000000, n, n, n, 0, 0)

        log = tmp_path / "events.jsonl"
        write_event_log(log, [event(5), event(1025), event(5)])
        out = tmp_path / "out"
        rc = main(["--config", str(pipeline["conf"]), "--out-dir", str(out), "detect", str(log)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no note: the binary copy was read
        assert captured.err == (
            f"error: {log}:2: malformed line (ValueError: event from 203.0.113.5 port 23 at "
            "start_ts 1654041600000000 has 1025 distinct destinations, more than the 1024 "
            "addresses of the darknet)\n"
        )
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

    def test_detect_blank_log_exits_1_with_the_empty_meta(self, pipeline, feeds, tmp_path, capsys):
        blank = tmp_path / "events.jsonl"
        blank.write_text("\n \t\n")
        (tmp_path / "acked_ips.csv").write_text("198.18.0.3,GoodScan\nnot an address,X\n")
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(tmp_path), "detect", str(blank),
            "--acked-ips", str(tmp_path / "acked_ips.csv"),
            "--acked-keywords", str(feeds / "acked_kw.csv"), "--rdns", str(feeds / "rdns.csv"),
        ])
        assert rc == 1
        assert "warning: empty event log" in capsys.readouterr().out
        for name in ("blocklist_d1.txt", "blocklist_d2.txt", "blocklist_d3.txt",
                     "blocklist_union.txt", "blocklist_union.stats.jsonl", "verdicts.jsonl"):
            assert (tmp_path / name).read_text() == ""
        assert json.loads((tmp_path / "detect_meta.json").read_text()) == {
            "events": 0,
            "warning": "empty event log",
            "feeds": {"acked": {"malformed_lines": 1}, "rdns": {"malformed_lines": 0}},
        }

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
        # 1e308 s passes a plain range check, but in microseconds it overflows.
        for slack, shown in (("-5", "-5.0"), ("1e308", "1e+308")):
            out = tmp_path / "out"
            rc = main([
                "--config", str(pipeline["conf"]), "--out-dir", str(out),
                "events", str(pipeline["synth"] / "synth.pcap"), "--reorder-slack", slack,
            ])
            assert rc == 2
            assert (f"error: reorder slack {shown} s must be finite and >= 0"
                    in capsys.readouterr().err)
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
        assert (f"error: {conf}: event_timeout_s 1e-07 must round to at least 1 us"
                in capsys.readouterr().err)
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
        assert f"error: {conf}: line 5: {reason}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_config_byte_not_utf8_names_the_file(self, pipeline, tmp_path, capsys):
        conf = tmp_path / "latin1.conf"
        conf.write_bytes(CONF.encode() + b"# caf\xe9\n")
        out = tmp_path / "out"
        rc = main([
            "--config", str(conf), "--out-dir", str(out),
            "events", str(pipeline["synth"] / "synth.pcap"),
        ])
        assert rc == 2
        assert f"error: {conf}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
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


class TestPublish:
    """Outputs are staged in <out-dir>/.<command>.partial and renamed in on success."""

    def test_interrupted_events_publishes_nothing(self, pipeline, tmp_path, monkeypatch):
        # A 1 s timeout closes events inside the fold, so some are written
        # before the interrupt.
        conf = tmp_path / "short.conf"
        conf.write_text(CONF.replace("event_timeout_s = 600", "event_timeout_s = 1"))
        fold = EventBuilder.fold
        yielded = []

        def fold_then_interrupt(self, reader):
            for ev in fold(self, reader):
                yield ev
                yielded.append(ev)
                if len(yielded) == 3:
                    raise KeyboardInterrupt

        monkeypatch.setattr(EventBuilder, "fold", fold_then_interrupt)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main([
                "--config", str(conf), "--out-dir", str(out),
                "events", str(pipeline["synth"] / "synth.pcap"),
            ])
        assert len(yielded) == 3
        assert os.listdir(out) == []

    def test_unexpected_exception_exits_3_and_publishes_nothing(
            self, pipeline, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "ports.csv").write_text("earlier run\n")

        def crash(args, staging):
            (staging / "ports.csv").write_text("half written\n")
            raise RuntimeError("a bug")

        monkeypatch.setattr("darklens.cli.cmd_report", crash)
        rc = main(["--out-dir", str(out), "report", str(pipeline["run"] / "events.jsonl"),
                   str(pipeline["run"] / "verdicts.jsonl")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:\nTraceback") and "RuntimeError: a bug" in err
        assert os.listdir(out) == ["ports.csv"]
        assert (out / "ports.csv").read_text() == "earlier run\n"

    def test_leftover_staging_is_discarded(self, pipeline, tmp_path):
        # A killed run with ACKed feeds left this; the next run has none.
        leftover = tmp_path / ".impact.partial"
        leftover.mkdir()
        (leftover / "acked_impact.csv").write_text("stale\n")
        rc = main([
            "--out-dir", str(tmp_path), "impact",
            "--blocklist", str(pipeline["run"] / "blocklist_union.txt"),
            "--flows", str(pipeline["synth"] / "flows.csv"),
        ])
        assert rc == 0
        assert sorted(os.listdir(tmp_path)) == ["impact.csv", "presence.csv", "protocols_flows.csv"]

    def test_bad_magic_keeps_the_previous_log(self, pipeline, tmp_path):
        before = (pipeline["run"] / "events.jsonl").read_bytes()
        (tmp_path / "events.jsonl").write_bytes(before)
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\x0a\x0d\x0d\x0a" + bytes(20))
        rc = main([
            "--config", str(pipeline["conf"]), "--out-dir", str(tmp_path),
            "events", str(bad),
        ])
        assert rc == 2
        assert (tmp_path / "events.jsonl").read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["bad.pcap", "events.jsonl"]

    def test_impact_removes_outputs_an_earlier_run_left(self, pipeline, feeds, tmp_path):
        blocklist = tmp_path / "blocklist.txt"
        blocklist.write_text("198.18.0.1\n")
        flows = tmp_path / "flows.csv"
        write_flows_csv(flows, [
            FlowRecord(
                router_id="router-1", ts_us=(1654041600 + day * 86_400) * US,
                direction=Direction.INGRESS, src_ip=ip_to_int("198.18.0.1"),
                dst_ip=ip_to_int("192.0.2.1"), protocol=Protocol.TCP, src_port=40000,
                dst_port=23, sampled_pkts=1, sampling_denominator=100, tcp_flags=0x02,
            )
            for day in (0, 1)
        ])
        out = tmp_path / "out"
        impact = ["--out-dir", str(out), "impact", "--blocklist", str(blocklist),
                  "--flows", str(flows)]
        assert main(impact + [
            "--pcap", str(pipeline["synth"] / "synth.pcap"),
            "--acked-ips", str(feeds / "acked_ips.csv"),
            "--acked-keywords", str(feeds / "acked_kw.csv"),
        ]) == 0
        assert sorted(os.listdir(out)) == [
            "acked_impact.csv", "impact.csv", "presence.csv", "protocols_flows.csv", "series.csv",
        ]
        assert main(impact + ["--date", "2022-06-02"]) == 0
        assert sorted(os.listdir(out)) == ["impact.csv", "presence.csv", "protocols_flows.csv"]
        assert (out / "impact.csv").read_text().splitlines()[1].split(",")[1] == "2022-06-02"
        # An empty result publishes too: it leaves none of the command's files.
        assert main(impact + ["--date", "1999-01-01"]) == 1
        assert os.listdir(out) == []

    def test_report_removes_tag_tables_an_earlier_run_left(self, pipeline, feeds, tmp_path):
        report = ["--out-dir", str(tmp_path), "report", str(pipeline["run"] / "events.jsonl"),
                  str(pipeline["run"] / "verdicts.jsonl")]
        (tmp_path / "unrelated.csv").write_text("kept\n")
        assert main(report + ["--tags", str(feeds / "tags.csv")]) == 0
        assert {"tag_classes.csv", "tags_top.csv"} <= set(os.listdir(tmp_path))
        assert main(report) == 0
        assert not {"tag_classes.csv", "tags_top.csv"} & set(os.listdir(tmp_path))
        assert (tmp_path / "unrelated.csv").read_text() == "kept\n"

    def test_chain_writes_exactly_the_readme_outputs(self, pipeline, feeds, tmp_path):
        """The README's quick-start chain leaves exactly the files its `# ->` lines name."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = set()
        for line in re.findall(r"^# ->.*(?:\n#    .*)*", readme, re.MULTILINE):
            line = re.sub(  # blocklist_{d1,d2}.txt -> blocklist_d1.txt, blocklist_d2.txt
                r"(\w*)\{([\w,]+)\}([\w.]*)",
                lambda m: " ".join(m[1] + part + m[3] for part in m[2].split(",")),
                line,
            )
            documented.update(re.findall(r"[\w.]+\.(?:pcap|jsonl|json|csv|txt|bin)\b", line))

        out = tmp_path / "demo"
        conf = ["--config", str(pipeline["conf"]), "--out-dir", str(out)]
        for argv in (
            ["--out-dir", str(out), "--seed", "42", "synth", str(pipeline["scenario"])],
            conf + ["events", str(out / "synth.pcap")],
            conf + ["detect", str(out / "events.jsonl")],
            ["--out-dir", str(out), "impact", "--blocklist", str(out / "blocklist_union.txt"),
             "--flows", str(out / "flows.csv"), "--pcap", str(out / "synth.pcap")],
            ["--out-dir", str(out), "report", str(out / "events.jsonl"),
             str(out / "verdicts.jsonl"), "--asn-map", str(feeds / "asn.csv"),
             "--tags", str(feeds / "tags.csv")],
        ):
            assert main(argv) == 0, argv
        assert sorted(os.listdir(out)) == sorted(documented)


class TestEventLogCopy:
    """detect and report write the same files whether they read the binary copy or the JSON."""

    def test_outputs_do_not_depend_on_the_path_read(self, pipeline, feeds, tmp_path, capsys):
        run = pipeline["run"]
        logs = {"binary": run / "events.jsonl"}
        for name in ("json", "tampered"):
            (tmp_path / name).mkdir()
            logs[name] = tmp_path / name / "events.jsonl"
            logs[name].write_bytes((run / "events.jsonl").read_bytes())
        copy = (run / "events.jsonl.bin").read_bytes()
        Path(f"{logs['tampered']}.bin").write_bytes(copy[:-1] + bytes([copy[-1] ^ 1]))
        outputs, printed = {}, {}
        for name, log in logs.items():
            out = tmp_path / f"out-{name}"
            assert main(["--config", str(pipeline["conf"]), "--out-dir", str(out),
                         "detect", str(log)]) == 0
            assert main(["--out-dir", str(out), "report", str(log), str(out / "verdicts.jsonl"),
                         "--asn-map", str(feeds / "asn.csv"), "--tags", str(feeds / "tags.csv")]) == 0
            outputs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
            printed[name] = capsys.readouterr().out
        assert outputs["binary"] == outputs["json"] == outputs["tampered"]
        assert len(outputs["binary"]) == 16  # 7 detect files, 9 report files with --tags
        assert "note:" not in printed["binary"] + printed["json"]
        note = (f"note: {logs['tampered']}: binary copy not used (record digest mismatch); "
                "decoding the JSON\n")
        assert printed["tampered"].count("note:") == printed["tampered"].count(note) == 2


ROTTEN_EVENT = '{"key":{"src_ip":"1.2.3.4"}}'
ROTTEN_VERDICT = '{"src_ip":"1.2.3.4","day":"2022-06-01"}'
# Too deeply nested for the JSON decoder, which raises RecursionError on it.
DEEP_LINE = "[" * 100_000


class TestRottenInputs:
    """A malformed event or verdict line is a fatal input problem (exit 2)."""

    def _rotten_log(self, pipeline, tmp_path, name, bad_line):
        good = (pipeline["run"] / name).read_text().splitlines()
        path = tmp_path / f"in_{name}"
        path.write_text("\n".join(good[:2] + [bad_line] + good[2:]) + "\n")
        return path

    def test_detect_rotten_event_line_exits_2(self, pipeline, tmp_path, capsys):
        for bad_line, reason in ((ROTTEN_EVENT, "dst_port"), (DEEP_LINE, "RecursionError")):
            log = self._rotten_log(pipeline, tmp_path, "events.jsonl", bad_line)
            out = tmp_path / "out"
            rc = main(["--config", str(pipeline["conf"]), "--out-dir", str(out), "detect", str(log)])
            assert rc == 2
            err = capsys.readouterr().err
            assert f"error: {log}:3:" in err
            assert reason in err
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("which", ["events", "verdicts"])
    def test_report_rotten_line_exits_2(self, pipeline, tmp_path, capsys, which):
        rotten = {"events": ROTTEN_EVENT, "verdicts": ROTTEN_VERDICT}[which]
        for bad_line in (rotten, DEEP_LINE):
            inputs = {name: pipeline["run"] / f"{name}.jsonl" for name in ("events", "verdicts")}
            inputs[which] = bad = self._rotten_log(pipeline, tmp_path, f"{which}.jsonl", bad_line)
            out = tmp_path / "out"
            rc = main(["--out-dir", str(out), "report", str(inputs["events"]),
                       str(inputs["verdicts"])])
            assert rc == 2
            assert f"error: {bad}:3:" in capsys.readouterr().err
            assert list(out.iterdir()) == []

    @staticmethod
    def _flows_jsonl_lines(csv_path):
        """flows.csv's rows as JSONL flow lines, each field of its JSON type."""
        counts = {"ts_us", "src_port", "dst_port", "sampled_pkts", "sampling_denominator"}
        with open(csv_path, encoding="utf-8", newline="") as fh:
            return [
                json.dumps({k: (int(v) if k in counts else v) if v else None
                            for k, v in row.items()}).encode()
                for row in csv.DictReader(fh)
            ]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("command, name", [
        ("detect", "events.jsonl"), ("report", "events.jsonl"), ("report", "verdicts.jsonl"),
        ("impact", "blocklist_union.txt"), ("impact", "flows.csv"), ("impact", "flows.jsonl"),
        ("report", "asn.csv"),
    ])
    def test_non_utf8_byte_names_file_and_line(self, pipeline, feeds, tmp_path, capsys, command,
                                               name, newline):
        run, synth = pipeline["run"], pipeline["synth"]
        if name == "flows.jsonl":
            good = self._flows_jsonl_lines(synth / "flows.csv")
        else:
            where = {"flows.csv": synth, "asn.csv": feeds}.get(name, run)
            good = (where / name).read_bytes().splitlines()
        bad = tmp_path / f"in_{name}"
        bad.write_bytes(newline.join(good[:2] + [b'{"src_ip":"\xff"}'] + good[2:]) + newline)
        inputs = {"events.jsonl": run / "events.jsonl", "verdicts.jsonl": run / "verdicts.jsonl",
                  "blocklist_union.txt": run / "blocklist_union.txt",
                  "flows.csv": synth / "flows.csv", name: bad}
        out = tmp_path / "out"
        if command == "detect":
            argv = ["--config", str(pipeline["conf"]), "--out-dir", str(out), "detect",
                    str(inputs["events.jsonl"])]
        elif command == "impact":
            flows = inputs.get("flows.jsonl", inputs["flows.csv"])
            argv = ["--out-dir", str(out), "impact",
                    "--blocklist", str(inputs["blocklist_union.txt"]), "--flows", str(flows)]
        else:
            argv = ["--out-dir", str(out), "report", str(inputs["events.jsonl"]),
                    str(inputs["verdicts.jsonl"])]
            if name == "asn.csv":
                argv += ["--asn-map", str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:3: malformed line (UnicodeDecodeError: 'utf-8' codec can't decode "
            "byte 0xff in position 11: invalid start byte)\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_impact_noncanonical_blocklist_address_names_file_and_line(
        self, pipeline, tmp_path, capsys, newline
    ):
        good = (pipeline["run"] / "blocklist_union.txt").read_text().splitlines()
        bad = tmp_path / "blocklist.txt"
        bad.write_bytes(newline.join(good[:2] + ["10.1"] + good[2:]).encode() + b"\n")
        out = tmp_path / "out"
        argv = ["--out-dir", str(out), "impact", "--blocklist", str(bad),
                "--flows", str(pipeline["synth"] / "flows.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:3: malformed line (ValueError: invalid IPv4 address '10.1')\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["impact", "report"])
    def test_oversized_csv_field_names_file_and_line(self, pipeline, feeds, tmp_path, capsys,
                                                     command):
        # The CSV tokeniser refuses a field over csv.field_size_limit().
        run = pipeline["run"]
        good = feeds / "asn.csv" if command == "report" else pipeline["synth"] / "flows.csv"
        lines = good.read_text().splitlines()
        bad = tmp_path / good.name
        bad.write_text("\n".join(lines[:2] + ["x" * (csv.field_size_limit() + 1)] + lines[2:]))
        out = tmp_path / "out"
        if command == "impact":
            argv = ["--out-dir", str(out), "impact",
                    "--blocklist", str(run / "blocklist_union.txt"), "--flows", str(bad)]
        else:
            argv = ["--out-dir", str(out), "report", str(run / "events.jsonl"),
                    str(run / "verdicts.jsonl"), "--asn-map", str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:3: field larger than field limit ({csv.field_size_limit()})\n"
        )
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
        ({"pkt_count": 2, "unique_dst_count": 1, "zmap_pkts": -5, "masscan_pkts": 7, "other_pkts": 0},
         "fingerprint counters must be >= 0"),
        ({"pkt_count": 2 ** 70, "zmap_pkts": 2 ** 70, "masscan_pkts": 0, "other_pkts": 0},
         "pkt_count must be in [1, 9223372036854775807]"),
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
        lambda ev: dict(ev, pkt_count=2, unique_dst_count=1, zmap_pkts=-5, masscan_pkts=7,
                        other_pkts=0),
        lambda ev: dict(ev, pkt_count=2 ** 70, zmap_pkts=2 ** 70, masscan_pkts=0, other_pkts=0),
    ], ids=["out_of_date_range", "float_count", "string_port", "negative_counter", "2^70_pkts"])
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

    @pytest.mark.parametrize("name", ["events.jsonl", "verdicts.jsonl"])
    def test_non_json_whitespace_around_a_line_exits_2(self, pipeline, tmp_path, capsys, name):
        # str.strip() would drop U+001C and U+3000; json.loads rejects them.
        good = (pipeline["run"] / name).read_text().splitlines()[0]
        bad = self._rotten_log(pipeline, tmp_path, name, f"\x1c {good}\u3000")
        events, verdicts = pipeline["run"] / "events.jsonl", pipeline["run"] / "verdicts.jsonl"
        if name == "events.jsonl":
            events = bad
        else:
            verdicts = bad
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "report", str(events), str(verdicts)])
        assert rc == 2
        assert f"error: {bad}:3: malformed line (JSONDecodeError: " in capsys.readouterr().err
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
    """Every text file events, detect, impact and report write ends lines with LF;
    the binary copy of the event log holds exactly one record per logged event."""
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
    assert {"events.jsonl", "events.jsonl.bin", "verdicts.jsonl", "detect_meta.json",
            "impact.csv", "acked_impact.csv", "series.csv", "origins.csv", "ports.csv",
            "tag_classes.csv", "tags_top.csv", "report_meta.json"} <= names
    for path in written:
        data = path.read_bytes()
        if path.name == "events.jsonl.bin":  # binary: an 80-byte header, 63 bytes an event
            events = (run / "events.jsonl").read_bytes().count(b"\n")
            assert len(data) == 80 + 63 * events
            continue
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
    "heavy": [name for name in ("numpy", "dataclasses", "inspect", "fractions", "socket",
                                "hashlib")
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
    numpy nor dataclasses, inspect, fractions, socket or hashlib (OpenSSL)."""

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
            "events": {"events", "pcap"},
            "detect": {"detect", "enrich"},
            "impact-flows": {"enrich", "impact", "flows"},
            "impact-pcap": {"impact", "pcap"},
            "report": {"enrich", "impact"},
        }[stage]
        assert _fresh_main(argv) == {"rc": 0, "darklens": _darklens(*modules), "heavy": []}

    def test_help_loads_only_the_parser_modules(self):
        assert _fresh_main(["--help"]) == {"rc": 0, "darklens": _darklens(), "heavy": []}

    def test_synth_still_runs_from_the_cli(self, pipeline, tmp_path):
        argv = ["--out-dir", tmp_path, "--seed", "42", "synth", pipeline["scenario"]]
        got = _fresh_main(argv)
        assert got["rc"] == 0 and "numpy" in got["heavy"]
        assert (tmp_path / "synth.pcap").read_bytes() == (pipeline["synth"] / "synth.pcap").read_bytes()


def test_feed_options_have_one_help_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    blocks = {}
    for command in ("detect", "impact", "report"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        blocks[command] = [
            re.search(rf"^  {option} \S+\s+(\S.*)$", text, re.MULTILINE)[1]
            for option in ("--acked-ips", "--acked-keywords", "--rdns")
        ]
    assert blocks["detect"] == blocks["impact"] == blocks["report"]
    assert [help_text.split()[0] for help_text in blocks["detect"]] == ["ACKed", "ACKed", "reverse"]


def test_option_strings_are_pinned():
    """Every option an operator can set, by subcommand; adding one changes this table."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def options(p):
        return {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}

    got = {"": options(parser), **{name: options(p) for name, p in commands.choices.items()}}
    assert got == {
        "": {"--config", "--out-dir", "--seed"},
        "events": {"--reorder-slack"},
        "detect": {"--acked-ips", "--acked-keywords", "--rdns", "--fixed-thresholds"},
        "impact": {"--acked-ips", "--acked-keywords", "--rdns", "--blocklist", "--flows", "--date",
                   "--pcap", "--bin-width", "--num-slash24"},
        "report": {"--acked-ips", "--acked-keywords", "--rdns", "--asn-map", "--tags",
                   "--exclude-acked"},
        "synth": set(),
    }
    assert len(set().union(*got.values())) == 17


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "darklens.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for sub in ("events", "detect", "impact", "report", "synth"):
            assert sub in proc.stdout
