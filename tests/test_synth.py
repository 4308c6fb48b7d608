import json

import pytest

from darklens.events import EventBuilder
from darklens.model import PacketMeta, TrafficType, ip_to_int, load_config
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
        sc = _small_scenario()
        manifest = generate(sc, 42, tmp_path)
        by_src = {}
        for p in map(PacketMeta._make, PcapReader(tmp_path / "synth.pcap")):
            if classify_traffic_type(p) is None:
                continue
            cell = by_src.setdefault(p.src_ip, {"pkts": 0, "dsts": set()})
            cell["pkts"] += 1
            cell["dsts"].add(p.dst_ip)
        for entry in manifest["sources"]:
            src = ip_to_int(entry["ip"])
            assert by_src[src]["pkts"] == entry["pkts"]
            assert len(by_src[src]["dsts"]) == entry["unique_dsts"]

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
