"""Acceptance suite: one test per release criterion.

`pytest -v tests/test_acceptance.py` prints exactly one pass/fail line per
criterion. Every check is exact (oracle equality, frozen boundary constants)
except criterion 6, whose tolerance is the binomial 3-sigma band stated
inline. Criteria with a runtime budget time the work they claim and assert
on the measured wall clock.
"""
import json
import math
import random
import time
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

from darklens.cli import main
from darklens.detect import (
    classify_dispersion,
    ecdf_threshold,
    jaccard,
    BothEmptyError,
)
from darklens.enrich import (
    NOT_PRESENT,
    IntersectionRow,
    OriginRow,
    acked_sources,
    cumulative_share,
    definition_intersections,
    origin_table,
    tag_join,
    zipf_curve,
)
from darklens.events import EventBuilder
from darklens.feeds import (
    AckedList,
    AsnEntry,
    AsnMap,
    TagClass,
    TagEntry,
)
from darklens.fingerprint import ProbeTool, fingerprint_packet
from darklens.impact import ImpactBin, ImpactSeries, flow_impact, series_rows, tally_flows
from darklens.model import (
    Direction,
    FlowRecord,
    PacketMeta,
    Protocol,
    Thresholds,
    ip_to_int,
)
from darklens.pcap import PcapReader
from darklens.synth import SynthScenario, generate

from helpers import (
    US,
    boundary_detection,
    build_pcap,
    cfg_sized,
    eth_frame,
    make_cfg,
    mk_pkt,
    offline_intervals,
    oracle_ecdf,
    oracle_ipv4,
    oracle_udp,
)

CONF = """\
darknet_prefixes = 10.0.0.0/22
event_timeout_s = 600
dispersion_fraction = 0.10
alpha = 0.0001
"""

DAY0_S = 1654041600  # 2022-06-01 UTC
JUNE1 = date(2022, 6, 1)

# Historical reference thresholds used for the boundary checks.
T_2021 = Thresholds(volume_threshold_pkts=64_810, ports_threshold=6_542)
T_2022 = Thresholds(volume_threshold_pkts=23_491, ports_threshold=57_410)


def _ok(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. Event splitting equals the offline gap-split oracle.


def test_criterion_01_event_split_matches_offline_oracle():
    cfg = make_cfg()
    timeout_us = round(cfg.event_timeout_s * US)
    rng = random.Random(20260815)
    gap_pool = [0, 1, timeout_us - 1, timeout_us, timeout_us + 1]
    sequences = 10_000
    src = ip_to_int("198.51.100.9")
    dst = ip_to_int("10.0.1.7")

    started = time.perf_counter()
    for _ in range(sequences):
        n = rng.randint(1, 12)
        ts = rng.randrange(0, 10**9) * 1000
        times = [ts]
        for _ in range(n - 1):
            if rng.random() < 0.7:
                ts += rng.choice(gap_pool)
            else:
                ts += rng.randrange(0, 2 * timeout_us + 1)
            times.append(ts)

        builder = EventBuilder(cfg)
        events = []
        for t in times:
            events.extend(builder.ingest_packet(mk_pkt(t, src, dst)))
        events.extend(builder.flush())

        assert [(e.start_ts, e.end_ts) for e in events] == offline_intervals(times, timeout_us)
        assert sum(e.pkt_count for e in events) == len(times)
    elapsed = time.perf_counter() - started

    assert elapsed < 30.0
    _ok(1, f"{sequences} randomized sequences, exact interval match in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Packet conservation, synthetic capture and out-of-order capture.


def test_criterion_02_packet_conservation(tmp_path):
    scenario = SynthScenario(
        full_coverage_scanners=3,
        partial_scanners=12,
        noise_sources=6,
        backscatter_pkts=40,
        duration_s=300,
    )
    manifest = generate(scenario, seed=11, out_dir=tmp_path)
    cfg = make_cfg()

    reader = PcapReader(tmp_path / "synth.pcap")
    builder = EventBuilder(cfg)
    closed = 0
    pkts_in_events = 0
    for pkt in reader:
        for ev in builder.ingest_packet(pkt):
            closed += 1
            pkts_in_events += ev.pkt_count
    for ev in builder.flush():
        closed += 1
        pkts_in_events += ev.pkt_count

    assert reader.records_total == manifest["pcap_packets"]
    assert reader.packets_read == manifest["pcap_packets"]
    assert builder.packets_in == reader.packets_read
    assert builder.dropped_non_scanning == manifest["non_scanning_pkts"]
    assert builder.outside_darknet == 0
    assert builder.out_of_order == 0
    assert (
        builder.packets_in
        == builder.dropped_non_scanning + builder.outside_darknet
        + builder.out_of_order + pkts_in_events
    )

    # Same identity on a deliberately shuffled capture with zero reorder slack,
    # with 60 of its probes aimed just past the /22 or far outside it.
    rng = random.Random(202)
    frames = []
    t0 = DAY0_S * US
    for i in range(300):
        ts = t0 + rng.randrange(0, 120 * US)
        dst = f"10.0.{rng.randrange(4)}.{rng.randrange(256)}"
        frame = eth_frame(oracle_ipv4("198.51.100.9", dst, 17, oracle_udp(40000, 53)))
        frames.append((ts, frame))
    for i in range(60):
        ts = t0 + rng.randrange(0, 120 * US)
        dst = f"10.0.4.{i}" if i % 2 else f"192.168.{i}.1"
        frame = eth_frame(oracle_ipv4("198.51.100.9", dst, 17, oracle_udp(40000, 53)))
        frames.insert(rng.randrange(len(frames) + 1), (ts, frame))
    shuffled = tmp_path / "shuffled.pcap"
    shuffled.write_bytes(build_pcap(frames))

    reader2 = PcapReader(shuffled)
    builder2 = EventBuilder(cfg)
    pkts2 = 0
    for pkt in reader2:
        for ev in builder2.ingest_packet(pkt):
            pkts2 += ev.pkt_count
    for ev in builder2.flush():
        pkts2 += ev.pkt_count

    assert builder2.packets_in == reader2.packets_read == 360
    assert builder2.outside_darknet == 60
    assert builder2.out_of_order > 0
    assert (
        builder2.packets_in
        == builder2.dropped_non_scanning + builder2.outside_darknet
        + builder2.out_of_order + pkts2
    )
    _ok(2, f"conservation exact on {manifest['pcap_packets']} synth pkts and "
           f"360 shuffled pkts ({builder2.out_of_order} out of order, "
           f"{builder2.outside_darknet} outside the darknet)")


# ---------------------------------------------------------------------------
# 3. Frozen threshold constants classify their boundary inputs.


def test_criterion_03_threshold_boundary_constants():
    # Dispersion: exactly 10% of a 475,000-address telescope.
    cfg = cfg_sized(475_000)
    assert cfg.darknet_size == 475_000
    assert classify_dispersion(47_500, cfg) is True
    assert classify_dispersion(47_499, cfg) is False

    # Dispersion on the /22 test telescope: first count at or over 10%.
    small = make_cfg()
    assert classify_dispersion(103, small) is True
    assert classify_dispersion(102, small) is False

    # Volume: an event of the 2022 threshold's count is aggressive (D2), one
    # packet fewer is not. Ports per day: a source-day at the 2021 threshold
    # is aggressive (D3), one port fewer is not. Each through run_detection.
    t = T_2022._replace(ports_threshold=T_2021.ports_threshold)
    assert t == (23_491, 6_542)
    (vol_at, vol_below, ports_at, ports_below), res = boundary_detection(small, t)
    assert (res.d1_ips, res.d2_ips, res.d3_ips) == (set(), {vol_at}, {ports_at})
    assert vol_below not in res.sources and ports_below not in res.sources
    _ok(3, "dispersion 47500/475000, volume 23491, ports 6542 all inclusive")


# ---------------------------------------------------------------------------
# 4. ECDF threshold equals the full-sort order statistic.


def _oracle_ecdf_np(arr: np.ndarray, alpha: float) -> int:
    s = np.sort(arr)
    n = len(s)
    q = (1 - Fraction(alpha)) * n
    k = -((-q.numerator) // q.denominator)
    k = min(max(k, 1), n)
    return int(s[k - 1])


def test_criterion_04_ecdf_matches_order_statistic_oracle():
    rng = np.random.default_rng(48151623)
    alphas = (0.0001, 0.01, 0.5)
    sizes = [int(x) for x in np.exp(rng.uniform(np.log(1), np.log(30_000), 88))]
    sizes += [int(x) for x in rng.integers(100_000, 400_000, 10)]
    sizes += [1_000_000, 1_000_000]
    assert len(sizes) == 100 and max(sizes) == 10**6

    started = time.perf_counter()
    for n in sizes:
        arr = rng.integers(1, 10**7, n)
        values = arr.tolist()
        for alpha in alphas:
            got = ecdf_threshold(values, alpha)
            if n <= 30_000:
                assert got == oracle_ecdf(values, alpha)
            else:
                assert got == _oracle_ecdf_np(arr, alpha)
    elapsed = time.perf_counter() - started

    assert elapsed < 60.0
    _ok(4, f"100 multisets (max n=10^6) x 3 alphas exact in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Desk-scale pipeline recovers exactly the full-coverage scanners.


def test_criterion_05_pipeline_recovers_wide_scanners(tmp_path):
    conf = tmp_path / "telescope.conf"
    conf.write_text(CONF)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "darknet_prefixes": ["10.0.0.0/22"],
        "duration_s": 300,
        "full_coverage_scanners": 5,
        "partial_scanners": 45,
        "partial_coverage_fraction": 0.02,
        "noise_sources": 10,
        "backscatter_pkts": 50,
    }))

    started = time.perf_counter()
    assert main(["--out-dir", str(tmp_path), "--seed", "42",
                 "synth", str(scenario_path)]) == 0
    assert main(["--config", str(conf), "--out-dir", str(tmp_path),
                 "events", str(tmp_path / "synth.pcap")]) == 0
    assert main(["--config", str(conf), "--out-dir", str(tmp_path),
                 "detect", str(tmp_path / "events.jsonl")]) == 0
    elapsed = time.perf_counter() - started

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    scanners = [s for s in manifest["sources"] if s["kind"] in ("full", "partial")]
    wide = sorted(s["ip"] for s in scanners if s["coverage"] >= 0.15)
    assert len(scanners) == 50 and len(wide) == 5
    assert all(s["coverage"] < 0.10 for s in scanners if s["kind"] == "partial")
    assert manifest["d1_expected"] == wide

    blocklist = (tmp_path / "blocklist_d1.txt").read_text().splitlines()
    assert blocklist == wide
    assert elapsed < 10.0
    _ok(5, f"D1 blocklist == the 5 full-coverage scanners in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Sampled-flow impact estimate lands inside the binomial error band.


def test_criterion_06_impact_under_sampling():
    # Per trial: 50 aggressive sources x 20k pkts + 250 benign x 36k pkts
    # = 10^7 pre-sampling packets, aggressive share exactly 0.10, thinned
    # 1:1000. The estimator is a ratio of sampled counts whose spread is
    # sigma ~= sqrt(p(1-p)/E[sampled total]) = sqrt(.1*.9/10^4) = 0.003.
    denom = 1_000
    ah_ips = [ip_to_int("198.18.0.1") + i for i in range(50)]
    benign_ips = [ip_to_int("100.64.0.1") + i for i in range(250)]
    ah_set = set(ah_ips)
    dst = ip_to_int("172.16.0.1")
    presampled = 50 * 20_000 + 250 * 36_000
    assert presampled == 10**7
    assert 50 * 20_000 == presampled // 10
    band = 3 * math.sqrt(0.1 * 0.9 / (presampled / denom))

    def flow(src: int, sampled: int, offset: int) -> FlowRecord:
        return FlowRecord(
            router_id="router-1",
            ts_us=DAY0_S * US + offset,
            direction=Direction.INGRESS,
            src_ip=src,
            dst_ip=dst,
            protocol=Protocol.TCP,
            src_port=40_000,
            dst_port=23,
            sampled_pkts=sampled,
            sampling_denominator=denom,
            tcp_flags=0x02,
        )

    started = time.perf_counter()
    hits = 0
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1_000 + trial)
        ah_counts = rng.binomial(20_000, 1 / denom, size=50)
        benign_counts = rng.binomial(36_000, 1 / denom, size=250)
        flows = [
            flow(src, int(c), i)
            for i, (src, c) in enumerate(zip(ah_ips, ah_counts)) if c
        ] + [
            flow(src, int(c), 1_000 + i)
            for i, (src, c) in enumerate(zip(benign_ips, benign_counts)) if c
        ]
        impact = flow_impact(tally_flows(flows, ah_set), JUNE1)["router-1"]
        err = abs(impact.fraction - 0.10)
        worst = max(worst, err)
        if err <= band:
            hits += 1
    elapsed = time.perf_counter() - started

    assert hits >= 99
    assert elapsed < 120.0
    _ok(6, f"{hits}/100 trials within 3-sigma ({band:.4f}); worst err {worst:.4f}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Final cumulative fraction equals the total ratio.


def test_criterion_07_cumulative_equals_total_ratio():
    rng = random.Random(77)
    for _ in range(1_000):
        n = rng.randint(1, 60)
        bins = []
        for i in range(n):
            if rng.random() < 0.15:
                total = ah = 0
            else:
                total = rng.randint(1, 10**6)
                ah = rng.randint(0, total)
            bins.append(ImpactBin(i * US, ah, total))
        if not any(b.total_pkts for b in bins):
            bins[0] = ImpactBin(0, 1, 3)
        series = ImpactSeries(bin_width_s=1.0, bins=bins)

        sum_ah, sum_total = series.totals()
        final = list(series_rows(series, 1))[-1][4]
        exact = sum_ah / sum_total
        assert math.isclose(final, exact, rel_tol=1e-12, abs_tol=0.0)
    _ok(7, "1000 random series, final cumulative == totals ratio at 1e-12")


# ---------------------------------------------------------------------------
# 8. Fingerprinting equals an independent bitwise oracle.


def _fingerprint_oracle(p: PacketMeta) -> str:
    if p.ip_id == 54321:
        return "zmap"
    if p.protocol is Protocol.TCP:
        if (p.dst_ip ^ p.dst_port ^ p.tcp_seq) % 65536 == p.ip_id:
            return "masscan"
    return "other"


def test_criterion_08_fingerprint_matches_bitwise_oracle():
    rng = random.Random(88)
    seen = set()
    for _ in range(100_000):
        roll = rng.random()
        proto = "tcp" if roll < 0.6 else ("udp" if roll < 0.85 else "icmp")
        dst = ip_to_int("10.0.0.0") + rng.randrange(1024)
        port = rng.randrange(1, 65536)
        ip_id = 54321 if rng.random() < 0.25 else rng.randrange(65536)
        seq = rng.randrange(2**32)
        if proto == "tcp" and rng.random() < 0.25:
            # force the XOR signature (any high bits, matching low 16)
            seq = (rng.randrange(65536) << 16) | ((dst ^ port ^ ip_id) & 0xFFFF)
        pkt = mk_pkt(0, "198.51.100.9", dst, proto=proto, dport=port,
                     ip_id=ip_id, seq=seq)
        got = fingerprint_packet(pkt)
        assert got.value == _fingerprint_oracle(pkt)
        seen.add(got)
    assert seen == {ProbeTool.ZMAP, ProbeTool.MASSCAN, ProbeTool.OTHER}

    # Fixed-ID precedence: a colliding XOR never outranks ip_id 54321.
    for _ in range(1_000):
        dst = ip_to_int("10.0.0.0") + rng.randrange(1024)
        port = rng.randrange(1, 65536)
        seq = (rng.randrange(65536) << 16) | ((dst ^ port ^ 54321) & 0xFFFF)
        pkt = mk_pkt(0, "198.51.100.9", dst, proto="tcp", dport=port,
                     ip_id=54321, seq=seq)
        assert fingerprint_packet(pkt) is ProbeTool.ZMAP
    _ok(8, "10^5 random packets exact; 1000 forced collisions stay zmap")


# ---------------------------------------------------------------------------
# 9. Set analytics match naive brute-force reimplementations.


def _random_asn_map(rng: random.Random):
    """Returns (AsnMap, [(network_int, prefixlen, entry)]) for naive lookups."""
    amap = AsnMap()
    nets = {}
    for _ in range(rng.randint(1, 6)):
        plen = rng.choice([8, 16, 24, 24, 32])
        base = rng.randrange(2**32) & (0xFFFFFFFF << (32 - plen))
        entry = AsnEntry(
            asn=rng.randint(1, 40),
            org=f"org-{rng.randint(1, 6)}",
            country=rng.choice(["US", "CN", "DE", "NL", ""]),
        )
        nets[(base, plen)] = entry
    for (base, plen), entry in nets.items():
        amap.add(base, plen, entry)
    return amap, [(base, plen, entry) for (base, plen), entry in nets.items()]


def _naive_origin(ip: int, nets) -> AsnEntry:
    best = None
    best_len = -1
    for base, plen, entry in nets:
        if plen == 0 or (ip >> (32 - plen)) == (base >> (32 - plen)):
            if plen > best_len:
                best, best_len = entry, plen
    return best if best is not None else AsnEntry(0, "unknown", "")


def _ips_near(rng: random.Random, k: int):
    blocks = [ip_to_int("198.51.100.0"), ip_to_int("203.0.113.0"),
              ip_to_int("100.64.9.0"), rng.randrange(2**32) & 0xFFFFFF00]
    return {rng.choice(blocks) + rng.randrange(256) for _ in range(k)}


def test_criterion_09_set_analytics_match_brute_force():
    rng = random.Random(99)

    # jaccard
    for _ in range(1_000):
        a = {x for x in range(40) if rng.random() < 0.4}
        b = {x for x in range(40) if rng.random() < 0.4}
        if not a and not b:
            with pytest.raises(BothEmptyError):
                jaccard(a, b)
            continue
        inter = sum(1 for x in a if x in b)
        union = len(set(list(a) + list(b)))
        assert jaccard(a, b) == inter / union

    # definition_intersections
    for _ in range(1_000):
        amap, nets = _random_asn_map(rng)
        universe = list(_ips_near(rng, 24))
        d1 = {ip for ip in universe if rng.random() < 0.5}
        d2 = {ip for ip in universe if rng.random() < 0.5}
        d3 = {ip for ip in universe if rng.random() < 0.5}
        got = definition_intersections(d1, d2, d3, amap)
        combos = {"D1": d1, "D2": d2, "D3": d3, "D1&D2": d1 & d2,
                  "D2&D3": d2 & d3, "D1&D3": d1 & d3, "D1&D2&D3": d1 & d2 & d3}
        for name, ips in combos.items():
            origins = [_naive_origin(ip, nets) for ip in ips]
            assert got[name] == IntersectionRow(
                ips=len(ips),
                asns=len({o.asn for o in origins}),
                orgs=len({o.org for o in origins}),
                countries=len({o.country for o in origins}),
            )

    # zipf_curve
    for _ in range(1_000):
        n = rng.randint(1, 40)
        pkts = {rng.randrange(2**32): rng.choice([rng.randint(1, 9), rng.randint(1, 10**6)])
                for _ in range(n)}
        curve = zipf_curve(pkts)
        ordered = sorted(pkts.items(), key=lambda kv: (-kv[1], kv[0]))
        total = sum(pkts.values())
        cum = 0
        expected = []
        for i, (_ip, c) in enumerate(ordered, start=1):
            cum += c
            expected.append((i / len(ordered), cum / total))
        assert curve == expected

    # origin_table
    for _ in range(1_000):
        amap, nets = _random_asn_map(rng)
        ah = _ips_near(rng, rng.randint(1, 20))
        pkts_by_ip = {ip: rng.randint(1, 10**6) for ip in ah if rng.random() < 0.8}
        acked = None
        rdns = None
        if rng.random() < 0.5:
            acked = AckedList({ip: None for ip in ah if rng.random() < 0.3}, {"probe": "Probe"})
            rdns = {ip: rng.choice(["probe.example.net", "host.example.net"])
                    for ip in ah if rng.random() < 0.3}
        got = origin_table(ah, pkts_by_ip, amap, acked_sources(ah, acked, rdns))

        def naive_acked(ip: int) -> bool:
            if acked is None:
                return False
            if ip in acked.ips:
                return True
            fqdn = rdns.get(ip) if rdns is not None else None
            return bool(fqdn) and any(kw in fqdn.lower() for kw in acked.keywords)

        groups = {}
        for ip in ah:
            entry = _naive_origin(ip, nets)
            g = groups.setdefault((entry.asn, entry.org, entry.country),
                                  {"ips": set(), "acked": set()})
            g["ips"].add(ip)
            if naive_acked(ip):
                g["acked"].add(ip)
        expected_rows = sorted(
            (
                OriginRow(
                    asn=key[0], org=key[1], country=key[2],
                    unique_32s=len(g["ips"]),
                    unique_24s=len({ip >> 8 for ip in g["ips"]}),
                    pkts=sum(pkts_by_ip.get(ip, 0) for ip in g["ips"]),
                    acked_32s=len(g["acked"]),
                    acked_24s=len({ip >> 8 for ip in g["acked"]}),
                )
                for key, g in groups.items()
            ),
            key=lambda r: (-r.unique_32s, r.asn, r.org),
        )
        assert got == expected_rows

    # tag_join
    tag_pool = [f"tag{i}" for i in range(30)]
    for _ in range(1_000):
        ah = _ips_near(rng, rng.randint(1, 25))
        db = {}
        for ip in ah:
            if rng.random() < 0.6:
                db[ip] = TagEntry(
                    rng.choice(list(TagClass)),
                    rng.sample(tag_pool, rng.randint(0, 4)),
                )
        got = tag_join(ah, db)

        hist = {"benign": 0, "malicious": 0, "unknown": 0, NOT_PRESENT: 0}
        counts = {}
        present = 0
        for ip in ah:
            e = db.get(ip)
            if e is None:
                hist[NOT_PRESENT] += 1
                continue
            present += 1
            hist[e.classification.value] += 1
            for t in e.tags:
                counts[t] = counts.get(t, 0) + 1
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
        assert got.histogram == hist
        assert got.top_tags == top
        assert got.overlap_fraction == present / len(ah)

    _ok(9, "jaccard/intersections/zipf/origin/tags exact on 1000 cases each")


# ---------------------------------------------------------------------------
# 10. One million packets through the events command in under a minute.


def test_criterion_10_events_throughput_floor(tmp_path):
    scenario = SynthScenario(
        full_coverage_scanners=49,
        full_scanner_repeats=20,
        partial_scanners=0,
        noise_sources=0,
        backscatter_pkts=0,
        tools_cycle=["zmap"],
        duration_s=600,
    )
    manifest = generate(scenario, seed=7, out_dir=tmp_path)
    assert manifest["pcap_packets"] == 49 * 20 * 1024 >= 10**6

    conf = tmp_path / "telescope.conf"
    conf.write_text(CONF)
    started = time.perf_counter()
    rc = main(["--config", str(conf), "--out-dir", str(tmp_path),
               "events", str(tmp_path / "synth.pcap")])
    elapsed = time.perf_counter() - started

    assert rc == 0
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert len(events) == 49
    assert sum(e["pkt_count"] for e in events) == manifest["pcap_packets"]
    assert all(e["unique_dst_count"] == 1024 for e in events)
    assert elapsed < 60.0
    _ok(10, f"{manifest['pcap_packets']} pkts -> 49 events in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 11. Heavy-tail share of a Pareto population, against the prefix-sum oracle.


def test_criterion_11_pareto_top_percent_share():
    n = 20_000
    shares = {}
    for shape in (0.8, 1.0, 1.2):
        rng = np.random.default_rng(7)
        pkts = (rng.pareto(shape, n) * 1000).astype(np.int64) + 1
        ips = np.arange(n, dtype=np.int64) + ip_to_int("1.0.0.0")
        curve = zipf_curve({int(ip): int(c) for ip, c in zip(ips, pkts)})

        order = np.lexsort((ips, -pkts))
        cum = np.cumsum(pkts[order])
        total = int(cum[-1])
        for i, (rank_frac, cum_frac) in enumerate(curve):
            assert rank_frac == (i + 1) / n
            assert cum_frac == cum[i] / total

        assert curve[-1] == (1.0, 1.0)
        share = cumulative_share(curve, 0.01)
        shares[shape] = share
        assert share > 0.25
    _ok(11, "top-1% share " + ", ".join(
        f"shape {s}: {v:.3f}" for s, v in shares.items()) + " (all > 0.25)")
