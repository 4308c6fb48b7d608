import json
import re
import sys
import tempfile
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from darklens.cli import main
from darklens.events import EventBuilder
from darklens.fingerprint import ZMAP_IP_ID, fingerprint_packet, masscan_ip_id
from darklens.flows import FlowReader
from darklens.model import (
    ConfigError, PacketMeta, Protocol, TrafficType, ip_to_int, load_config,
)
from darklens.pcap import PcapReader, classify_traffic_type
from darklens.synth import SynthScenario, _other_ip_ids, generate
from helpers import (
    darknet_contains, make_cfg, oracle_other_ip_id, oracle_synth, run_builder, traced_peak,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import WORKLOADS  # noqa: E402


def _small_scenario(**kw):
    base = dict(
        full_coverage_scanners=2,
        partial_scanners=5,
        noise_sources=3,
        backscatter_pkts=10,
        duration_s=300,
    )
    base.update(kw)
    return SynthScenario(**base)


# Two UTC days; the timeout lets every source's probes span both, so the
# sweepers' day_ports differ from their ports.
_TWO_DAYS = dict(duration_s=2 * 86_400, event_timeout_s=86_400.0,
                 port_sweep_scanners=3, sweep_ports=40)


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        sc = _small_scenario(flow_total_pkts=100_000)
        m1 = generate(sc, 7, tmp_path / "a")
        m2 = generate(sc, 7, tmp_path / "b")
        assert (tmp_path / "a/synth.pcap").read_bytes() == (tmp_path / "b/synth.pcap").read_bytes()
        assert (tmp_path / "a/flows.csv").read_bytes() == (tmp_path / "b/flows.csv").read_bytes()
        assert m1 == m2
        assert json.loads((tmp_path / "a/manifest.json").read_text()) == json.loads(
            (tmp_path / "b/manifest.json").read_text()
        )

    def test_different_seed_differs(self, tmp_path):
        sc = _small_scenario()
        generate(sc, 7, tmp_path / "a")
        generate(sc, 8, tmp_path / "b")
        assert (tmp_path / "a/synth.pcap").read_bytes() != (tmp_path / "b/synth.pcap").read_bytes()


class TestGroundTruth:
    def test_manifest_counts_match_pcap(self, tmp_path):
        sc = _small_scenario()
        manifest = generate(sc, 42, tmp_path)
        reader = PcapReader(tmp_path / "synth.pcap")
        pkts = [PacketMeta._make(t) for t in reader]
        assert manifest["pcap_packets"] == len(pkts)
        scanning = sum(1 for p in pkts if classify_traffic_type(p) is not None)
        assert manifest["scanning_pkts"] == scanning
        assert manifest["non_scanning_pkts"] == len(pkts) - scanning
        assert manifest["non_scanning_pkts"] == sc.backscatter_pkts

    def test_per_source_truth_matches_stream(self, tmp_path):
        for name, extra in (("one_day", {}), ("two_days", _TWO_DAYS)):
            manifest = generate(_small_scenario(**extra), 42, tmp_path / name)
            by_src = {}
            for p in map(PacketMeta._make, PcapReader(tmp_path / name / "synth.pcap")):
                ttype = classify_traffic_type(p)
                if ttype is None:
                    continue
                cell = by_src.setdefault(p.src_ip, {"pkts": 0, "dsts": set(), "day_ports": {},
                                                    "tools": Counter()})
                cell["pkts"] += 1
                cell["dsts"].add(p.dst_ip)
                cell["tools"][fingerprint_packet(p).value] += 1
                if ttype is not TrafficType.ICMP_ECHO_REQUEST:
                    day = datetime.fromtimestamp(p.ts_us // 1_000_000, timezone.utc).date()
                    cell["day_ports"].setdefault(day.isoformat(), set()).add(p.dst_port)
            assert len(by_src) == len(manifest["sources"])
            for entry in manifest["sources"]:
                cell = by_src[ip_to_int(entry["ip"])]
                assert cell["pkts"] == entry["pkts"]
                assert len(cell["dsts"]) == entry["unique_dsts"]
                assert sorted(set().union(*cell["day_ports"].values())) == entry["ports"]
                per_day = {day: len(ports) for day, ports in cell["day_ports"].items()}
                assert per_day == entry["day_ports"]
                assert list(entry["day_ports"]) == sorted(entry["day_ports"])
                # zmap and masscan probes carry their tool's mark; no other probe does.
                assert cell["tools"] == {entry["tool"]: entry["pkts"]}
        # manifest is the two-day one now
        sweeps = [e for e in manifest["sources"] if e["kind"] == "sweep"]
        assert {e["tool"] for e in sweeps} == {"zmap", "masscan", "other"}
        assert all(len(e["day_ports"]) == 2 and len(e["ports"]) == 40 for e in sweeps)
        assert any(n < 40 for e in sweeps for n in e["day_ports"].values())

    def test_full_coverage_scanners_cover_whole_darknet(self, tmp_path):
        sc = _small_scenario()
        manifest = generate(sc, 42, tmp_path)
        size = manifest["darknet_size"]
        full = [FULL for FULL in manifest["sources"] if FULL["kind"] == "full"]
        assert len(full) == sc.full_coverage_scanners
        for entry in full:
            assert entry["unique_dsts"] == size

    def test_d1_expected_matches_dispersion_rule(self, tmp_path):
        sc = _small_scenario()
        manifest = generate(sc, 42, tmp_path)
        size = manifest["darknet_size"]
        want = {
            e["ip"]
            for e in manifest["sources"]
            if e["kind"] != "noise"
            and e["unique_dsts"] / size >= sc.dispersion_fraction
        }
        assert set(manifest["d1_expected"]) == want
        # the full-coverage scanners are always in there
        assert len(manifest["d1_expected"]) >= sc.full_coverage_scanners

    def test_each_scanner_forms_single_event(self, tmp_path):
        sc = _small_scenario()
        manifest = generate(sc, 13, tmp_path)
        cfg = make_cfg(tuple(sc.darknet_prefixes), event_timeout_s=sc.event_timeout_s)
        builder = EventBuilder(cfg)
        events = run_builder(builder, PcapReader(tmp_path / "synth.pcap"))
        per_key = {}
        for ev in events:
            per_key[ev[:3]] = per_key.get(ev[:3], 0) + 1
        assert all(v == 1 for v in per_key.values())
        scanner_ips = {
            ip_to_int(e["ip"]) for e in manifest["sources"] if e["kind"] != "noise"
        }
        event_srcs = {ev.src_ip for ev in events}
        assert scanner_ips <= event_srcs

    def test_timestamps_stay_in_window(self, tmp_path):
        sc = _small_scenario()
        generate(sc, 99, tmp_path)
        lo = sc.start_ts_s * 1_000_000
        hi = (sc.start_ts_s + sc.duration_s) * 1_000_000
        ts = [p.ts_us for p in map(PacketMeta._make, PcapReader(tmp_path / "synth.pcap"))]
        assert ts == sorted(ts)
        assert all(lo <= t <= hi for t in ts)


class TestScenarioChecks:
    """generate checks its telescope as DarknetConfig does and never clamps."""

    def test_overlapping_prefixes_rejected(self, tmp_path):
        # A /24 inside the /23: counted twice it would read as 768 addresses.
        sc = _small_scenario(darknet_prefixes=["10.0.0.0/23", "10.0.1.0/24"])
        with pytest.raises(ConfigError, match="prefixes 10.0.0.0/23 and 10.0.1.0/24 overlap"):
            generate(sc, 7, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_disjoint_prefixes_make_one_telescope(self, tmp_path):
        sc = _small_scenario(darknet_prefixes=["10.0.2.0/24", "10.0.0.0/24"])
        manifest = generate(sc, 7, tmp_path)
        assert manifest["darknet_size"] == 512
        full = [e for e in manifest["sources"] if e["kind"] == "full"]
        assert full and all(e["unique_dsts"] == 512 for e in full)
        dsts = {p.dst_ip >> 8 for p in map(PacketMeta._make, PcapReader(tmp_path / "synth.pcap"))}
        assert dsts == {ip_to_int("10.0.0.0") >> 8, ip_to_int("10.0.2.0") >> 8}

    @pytest.mark.parametrize("duration_s", [0, -1, -600])
    def test_duration_must_be_positive(self, tmp_path, duration_s):
        with pytest.raises(ValueError, match=f"duration_s {duration_s} must be at least 1 us"):
            generate(_small_scenario(duration_s=duration_s), 7, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("timeout_s", [0.0000004, 0.0, -1.0])
    def test_timeout_must_round_to_a_microsecond(self, tmp_path, timeout_s):
        with pytest.raises(ConfigError, match="event_timeout_s"):
            generate(_small_scenario(event_timeout_s=timeout_s), 7, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    # (value that sends nothing, the override that leaves its population out)
    @pytest.mark.parametrize("bad, absent, match", [
        ({"noise_pkts_per_source": 0}, {"noise_sources": 0},
         "noise_pkts_per_source 0 is below 1"),
        # 0.0001 of a /22 rounds to 0 addresses.
        ({"partial_coverage_fraction": 0.0001}, {"partial_scanners": 0},
         "partial_coverage_fraction 0.0001 covers no address of the 1024-address darknet"),
        ({"flow_benign_sources": 0}, {"flow_total_pkts": 0},
         "flow_benign_sources 0 is below 1"),
    ], ids=["noise", "partial", "flow_benign"])
    def test_present_population_must_send_something(self, tmp_path, capsys, bad, absent, match):
        sc = _small_scenario(flow_total_pkts=100_000, **bad)
        with pytest.raises(ValueError, match=match):
            generate(sc, 7, tmp_path / "out")
        assert not (tmp_path / "out").exists()

        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(sc.to_dict()))
        assert main(["--out-dir", str(tmp_path / "cli"), "synth", str(scenario)]) == 2
        assert match in capsys.readouterr().err
        assert list((tmp_path / "cli").iterdir()) == []

        generate(_small_scenario(**{"flow_total_pkts": 100_000, **bad, **absent}), 7, tmp_path / "ok")

    # Each scenario on its own sent the wrong traffic, dropped a population, or
    # failed with a traceback; each is now a ValueError naming its key.
    @pytest.mark.parametrize("bad, key", [
        ({"full_scanner_types": ["tcp"]}, "full_scanner_types"),
        ({"partial_scanner_types": []}, "partial_scanner_types"),
        ({"tools_cycle": ["nmap"]}, "tools_cycle"),
        ({"tools_cycle": []}, "tools_cycle"),
        ({"noise_sources": -3}, "noise_sources"),
        ({"partial_scanners": -1}, "partial_scanners"),
        ({"noise_sources": 2.5}, "noise_sources"),
        ({"noise_sources": "5"}, "noise_sources"),
        ({"backscatter_pkts": True}, "backscatter_pkts"),
        ({"full_scanner_repeats": 0}, "full_scanner_repeats"),
        ({"port_sweep_scanners": 1, "sweep_ports": 0}, "sweep_ports"),
        ({"port_sweep_scanners": 1, "sweep_pkts_per_port": 0}, "sweep_pkts_per_port"),
        ({"flow_total_pkts": 1000, "flow_sampling_denominator": 0}, "flow_sampling_denominator"),
        ({"flow_total_pkts": 1000, "full_coverage_scanners": 0, "partial_scanners": 0},
         "flow_total_pkts"),
        ({"partial_coverage_fraction": None}, "partial_coverage_fraction"),
        ({"partial_coverage_fraction": 1.5}, "partial_coverage_fraction"),
        ({"flow_total_pkts": 1000, "flow_ah_share": -0.1}, "flow_ah_share"),
        ({"dispersion_fraction": 0}, "dispersion_fraction"),
        ({"event_timeout_s": None}, "event_timeout_s"),
        ({"start_ts_s": -86400}, "start_ts_s"),
        ({"start_ts_s": 2 ** 32 - 599}, "start_ts_s"),
        ([1, 2], "JSON object"),
        ({"flow_total_pkts": 1000, "flow_routers": []}, "flow_routers"),
        ({"flow_total_pkts": 1000, "flow_routers": "r1"}, "flow_routers"),
        ({"flow_total_pkts": 1000, "flow_routers": [""]}, "flow_routers"),
        ({"flow_total_pkts": 1000, "flow_routers": [1]}, "flow_routers"),
        ({"flow_total_pkts": 1000, "flow_routers": ["r1", "r1"]}, "flow_routers"),
        ({"event_timeout_s": 1e308}, "event_timeout_s"),
        pytest.param("[" * 100_000, "scenario JSON nested too deeply", id="deep-nesting"),
    ])
    def test_bad_scenario_exits_2_naming_its_key(self, tmp_path, capsys, bad, key):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        assert main(["--out-dir", str(tmp_path / "cli"), "synth", str(scenario)]) == 2
        assert key in capsys.readouterr().err
        assert list((tmp_path / "cli").iterdir()) == []

    def test_last_second_of_classic_pcap_fits(self, tmp_path):
        sc = _small_scenario(start_ts_s=2 ** 32 - 600, duration_s=600)
        generate(sc, 7, tmp_path)
        ts = [p.ts_us for p in map(PacketMeta._make, PcapReader(tmp_path / "synth.pcap"))]
        assert max(ts) // 1_000_000 <= 2 ** 32 - 1


class TestFlows:
    def test_flow_ground_truth_share(self, tmp_path):
        sc = _small_scenario(flow_total_pkts=2_000_000, flow_ah_share=0.25)
        manifest = generate(sc, 5, tmp_path)
        truth = manifest["flows"]
        assert truth["total_presampled_pkts"] == 2_000_000
        assert truth["ah_presampled_pkts"] == 500_000
        # thinned rows exist and carry the configured denominator
        text = (tmp_path / "flows.csv").read_text().splitlines()
        assert text[0].startswith("router_id,")
        assert len(text) - 1 == truth["rows"]
        assert all(line.split(",")[9] == "1000" for line in text[1:])

    def test_fractional_start_writes_rows_the_reader_takes(self, tmp_path):
        manifest = generate(_small_scenario(flow_total_pkts=200_000, start_ts_s=1654041600.5),
                            5, tmp_path)
        reader = FlowReader(tmp_path / "flows.csv")
        rows = list(reader)
        assert len(rows) == manifest["flows"]["rows"] > 0
        assert reader.invalid_rows == 0

    def test_no_flows_when_disabled(self, tmp_path):
        manifest = generate(_small_scenario(), 5, tmp_path)
        assert "flows" not in manifest
        assert not (tmp_path / "flows.csv").exists()


class TestScenarioIo:
    def test_from_json_round_trip(self, tmp_path):
        sc = _small_scenario(port_sweep_scanners=2, sweep_ports=7)
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(sc.to_dict()))
        assert SynthScenario.from_json_file(p) == sc

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text('{"full_coverage_scanners": 1, "bogus": 2}')
        with pytest.raises(ValueError):
            SynthScenario.from_json_file(p)

    def test_unknown_keys_exit_2_naming_the_file(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"bogus": 1}')
        assert main(["--out-dir", str(tmp_path / "cli"), "synth", str(scenario)]) == 2
        assert capsys.readouterr().err == f"error: {scenario}: unknown scenario keys: ['bogus']\n"
        assert list((tmp_path / "cli").iterdir()) == []

    @pytest.mark.parametrize("content, reason", [
        (b"{bad", "Expecting property name enclosed in double quotes"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["not-json", "not-utf8"])
    def test_unreadable_scenario_exits_2_naming_the_file(self, tmp_path, capsys, content, reason):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(content)
        with pytest.raises(ValueError, match="^" + re.escape(f"{scenario}: ")):
            SynthScenario.from_json_file(scenario)
        assert main(["--out-dir", str(tmp_path / "cli"), "synth", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scenario}: ") and reason in err
        assert list((tmp_path / "cli").iterdir()) == []


class TestVectorIpIds:
    """_other_ip_ids draws what one scalar draw loop per probe would."""

    # Seed 501's 16th draw is zmap's constant, so its stream rejects one draw
    # whatever the marks.
    @pytest.mark.parametrize("seed", [501, 7])
    def test_forced_rejections_match_scalar_draws(self, seed):
        n = 40
        twin = np.random.default_rng(seed)
        upcoming = twin.integers(0, 65536, 2 * n).tolist()  # the draws ahead, from a copy
        forced = {0, n // 2, n // 2 + 7, n // 2 + 8, n - 1}
        # Walk the stream as the scalar loop will: a forced probe's mark is the
        # first draw it would take, any other probe's mark misses its draw.
        marks, at = [], 0
        for probe in range(n):
            while upcoming[at] == ZMAP_IP_ID:
                at += 1
            if probe in forced:
                marks.append(upcoming[at])
                at += 1
                while upcoming[at] in (ZMAP_IP_ID, marks[-1]):
                    at += 1
            else:
                marks.append((upcoming[at] + 1) % 65536)
            at += 1
        assert at >= n + len(forced)
        assert (ZMAP_IP_ID in upcoming[:at]) == (seed == 501)

        vector, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _other_ip_ids(vector, n, np.array(marks))
        assert got.tolist() == [oracle_other_ip_id(scalar, mark) for mark in marks]
        assert vector.bit_generator.state == scalar.bit_generator.state
        consumed = np.random.default_rng(seed)
        consumed.integers(0, 65536, at)
        assert vector.bit_generator.state == consumed.bit_generator.state

    def test_without_marks_only_zmap_is_rejected(self):
        vector, scalar = np.random.default_rng(501), np.random.default_rng(501)
        got = _other_ip_ids(vector, 40)
        assert got.tolist() == [oracle_other_ip_id(scalar) for _ in range(40)]
        assert vector.bit_generator.state == scalar.bit_generator.state


_TYPE_NAMES = [t.value for t in TrafficType]


@st.composite
def _scenarios(draw):
    types = st.lists(st.sampled_from(_TYPE_NAMES), min_size=1, max_size=3)
    sc = SynthScenario(
        darknet_prefixes=draw(st.sampled_from(
            [["10.0.0.0/24"], ["10.0.0.0/25", "10.0.2.0/25"], ["10.0.0.0/23"]])),
        start_ts_s=draw(st.sampled_from([1654041600, 1654041600.5, 1654127999.25])),
        duration_s=draw(st.sampled_from([1, 600, 2 * 86_400])),
        event_timeout_s=draw(st.sampled_from([600.0, 0.00005, 86_400.0])),
        full_coverage_scanners=draw(st.integers(0, 3)),
        full_scanner_repeats=draw(st.integers(1, 2)),
        full_scanner_types=draw(types),
        partial_scanners=draw(st.integers(0, 5)),
        partial_coverage_fraction=draw(st.sampled_from([0.05, 0.5, 1.0])),
        partial_scanner_types=draw(types),
        port_sweep_scanners=draw(st.integers(0, 3)),
        sweep_ports=draw(st.integers(1, 30)),
        sweep_pkts_per_port=draw(st.integers(1, 2)),
        noise_sources=draw(st.integers(0, 8)),
        noise_pkts_per_source=draw(st.integers(1, 5)),
        backscatter_pkts=draw(st.integers(0, 40)),
        tools_cycle=draw(st.lists(st.sampled_from(["zmap", "masscan", "other"]),
                                  min_size=1, max_size=4)),
        flow_routers=["r1", "r2"],
        flow_benign_sources=draw(st.integers(1, 5)),
    )
    if sc.full_coverage_scanners or sc.partial_scanners or sc.port_sweep_scanners:
        # 5,000 packets leave some talkers no sampled packet and some one.
        sc.flow_total_pkts = draw(st.sampled_from([0, 5_000, 2_000_000]))
    return sc


# Every type under every tool, in one second from a fractional start: stamps
# clipped to the window's ends tie across sources and types.
_EVERY_KIND = SynthScenario(
    start_ts_s=1654041600.5, duration_s=1, full_coverage_scanners=10,
    full_scanner_types=_TYPE_NAMES, tools_cycle=["zmap", "masscan", "other", "other"],
    partial_scanners=6, port_sweep_scanners=3, sweep_ports=20, noise_sources=6,
    backscatter_pkts=40, flow_total_pkts=2_000_000, flow_routers=["r1", "r2"])


class TestPerProbeOracle:
    @settings(max_examples=25, deadline=None)
    @example(sc=_EVERY_KIND, seed=7)
    # Router ids csv.writer quotes: a comma, a quote, a line feed.
    @example(sc=SynthScenario(flow_total_pkts=200_000, flow_sampling_denominator=100,
                              flow_routers=["edge,1", 'say "hi"', "line\nfeed"]), seed=7)
    @given(sc=_scenarios(), seed=st.integers(0, 2 ** 32 - 1))
    def test_outputs_match_the_per_probe_emitter(self, sc, seed):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got"), Path(tmp, "want")
            generate(sc, seed, got)
            oracle_synth(sc, seed, want)
            assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
            for name in ("synth.pcap", "manifest.json", "flows.csv"):
                if (want / name).exists():
                    assert (got / name).read_bytes() == (want / name).read_bytes(), name

    @settings(max_examples=25, deadline=None)
    @example(sc=_EVERY_KIND, seed=7)
    # Seed 68 draws zmap's constant among the backscatter's first IP ID draws.
    @example(sc=SynthScenario(full_coverage_scanners=0, partial_scanners=0, noise_sources=30,
                              backscatter_pkts=2000), seed=68)
    @given(sc=_scenarios(), seed=st.integers(0, 2 ** 32 - 1))
    def test_noise_and_backscatter_keep_their_rules(self, sc, seed):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = generate(sc, seed, tmp)
            pkts = [PacketMeta._make(t) for t in PcapReader(Path(tmp, "synth.pcap"))]
        noise = {ip_to_int(e["ip"]) for e in manifest["sources"] if e["kind"] == "noise"}
        assert len(noise) == sc.noise_sources
        lo = int(sc.start_ts_s * 1_000_000)
        sent = Counter()
        for p in pkts:
            backscatter = p.tcp_flags == 0x12
            if p.src_ip in noise or backscatter:
                assert p.ip_id != ZMAP_IP_ID
            if p.src_ip in noise:
                sent[p.src_ip] += 1
                assert lo <= p.ts_us < lo + sc.duration_s * 1_000_000
                if p.protocol is Protocol.TCP:
                    assert p.ip_id != masscan_ip_id(p.dst_ip, p.dst_port, p.tcp_seq)
        assert sent == {ip: sc.noise_pkts_per_source for ip in noise}
        cfg = make_cfg(tuple(sc.darknet_prefixes), event_timeout_s=sc.event_timeout_s)
        events = Counter(ev.src_ip for ev in run_builder(EventBuilder(cfg), pkts))
        assert all(events[ip] == 1 for ip in noise)

    def test_every_kind_ties_stamps_across_types(self, tmp_path):
        generate(_EVERY_KIND, 7, tmp_path)
        by_stamp = {}
        for p in map(PacketMeta._make, PcapReader(tmp_path / "synth.pcap")):
            by_stamp.setdefault(p.ts_us, set()).add((p.protocol, p.tcp_flags))
        assert max(len(kinds) for kinds in by_stamp.values()) >= 3


class TestPartialSubsets:
    # Coverage on both sides of 2% (where numpy's choice stopped permuting a
    # darknet over 10,000 addresses) and of 50% (where _subset permutes).
    @settings(max_examples=20, deadline=None)
    @example(prefixes=["10.0.0.0/18"], fraction=1.0, seed=7)
    @example(prefixes=["10.0.0.0/18"], fraction=0.5, seed=7)
    @given(prefixes=st.sampled_from([["10.0.0.0/24"], ["10.0.0.0/25", "10.0.2.0/25"],
                                     ["10.0.0.0/22"], ["10.0.0.0/18"]]),
           fraction=st.sampled_from([0.005, 0.019, 0.021, 0.3, 0.49, 0.5, 0.51, 0.9, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_destinations_are_distinct_in_the_darknet_and_exactly_the_subset(
            self, prefixes, fraction, seed):
        sc = SynthScenario(darknet_prefixes=prefixes, full_coverage_scanners=0, partial_scanners=2,
                           partial_coverage_fraction=fraction, noise_sources=0,
                           backscatter_pkts=0)
        cfg = make_cfg(tuple(prefixes))
        subset_size = round(fraction * cfg.darknet_size)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = generate(sc, seed, tmp)
            dsts = {}
            for p in map(PacketMeta._make, PcapReader(Path(tmp, "synth.pcap"))):
                dsts.setdefault(p.src_ip, []).append(p.dst_ip)
        assert len(dsts) == 2
        for sent in dsts.values():
            assert len(sent) == len(set(sent)) == subset_size
            assert all(darknet_contains(cfg, dst) for dst in sent)
        assert [e["unique_dsts"] for e in manifest["sources"]] == [subset_size] * 2


class TestMemory:
    def test_generate_holds_no_object_per_probe(self, tmp_path):
        # Every type under every tool, 204,800 probes; a (stamp, frame) pair
        # per probe peaked at about 200 B per probe.
        sc = SynthScenario(full_coverage_scanners=10, full_scanner_repeats=20, partial_scanners=0,
                           noise_sources=0, backscatter_pkts=0, full_scanner_types=_TYPE_NAMES,
                           tools_cycle=["zmap", "masscan", "other", "other"])
        manifest, peak = traced_peak(generate, sc, 7, tmp_path)
        assert manifest["pcap_packets"] == 204_800
        assert peak / manifest["pcap_packets"] < 160

    def test_wide_darknet_is_never_listed_whole(self, tmp_path):
        # The bench's wide-11 scenario: a /11 telescope, 2^21 addresses. Its
        # destinations are drawn as indexes; listing every address as int64
        # took 16 MiB, built twice over, and peaked at 32.0 MiB.
        sc = SynthScenario(**WORKLOADS["wide-11"].scenario)
        manifest, peak = traced_peak(generate, sc, 7, tmp_path)
        assert manifest["pcap_packets"] == 56_828
        assert peak < 12 * 2 ** 20

    def test_flow_rows_memory_follows_one_router(self, tmp_path):
        # 20,000 benign talkers, each sampled on every router: 20,001 rows a
        # router. Built as one list before the write, 4 routers' rows peaked
        # near 4 times 1 router's.
        def peak(routers):
            sc = SynthScenario(darknet_prefixes=["10.0.0.0/24"], full_coverage_scanners=1,
                               partial_scanners=0, noise_sources=0, backscatter_pkts=0,
                               flow_total_pkts=10 ** 9, flow_sampling_denominator=100,
                               flow_benign_sources=20_000, flow_routers=routers)
            out = tmp_path / str(len(routers))
            out.mkdir()
            manifest, peak = traced_peak(generate, sc, 7, out)
            assert manifest["flows"]["rows"] == 20_001 * len(routers)
            return peak
        one, four = peak(["router-1"]), peak([f"router-{i}" for i in range(1, 5)])
        assert four < one * 1.1 + 2 ** 18, (one, four)

    def test_partial_subset_memory_follows_the_source(self, tmp_path):
        # One partial scanner on a /11 at coverage 0.05: numpy's choice
        # permuted all 2^21 indexes (16 MiB) and peaked at 19.5 MiB.
        sc = SynthScenario(darknet_prefixes=["10.0.0.0/11"], full_coverage_scanners=0,
                           partial_scanners=1, partial_coverage_fraction=0.05, noise_sources=0,
                           backscatter_pkts=0)
        manifest, peak = traced_peak(generate, sc, 7, tmp_path)
        assert manifest["pcap_packets"] == 104_858
        assert peak < 12 * 2 ** 20
