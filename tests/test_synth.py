import json
from collections import Counter
from datetime import datetime, timezone

import pytest

from darklens.cli import main
from darklens.events import EventBuilder
from darklens.fingerprint import fingerprint_packet
from darklens.flows import FlowReader
from darklens.model import ConfigError, PacketMeta, TrafficType, ip_to_int, load_config
from darklens.pcap import PcapReader, classify_traffic_type
from darklens.synth import SynthScenario, generate
from helpers import make_cfg, run_builder


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
            per_key[ev.key] = per_key.get(ev.key, 0) + 1
        assert all(v == 1 for v in per_key.values())
        scanner_ips = {
            ip_to_int(e["ip"]) for e in manifest["sources"] if e["kind"] != "noise"
        }
        event_srcs = {ev.key.src_ip for ev in events}
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
