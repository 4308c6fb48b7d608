import json
import random
from datetime import date

import pytest
from hypothesis import example, given, settings, strategies as st

from darklens.detect import (
    BothEmptyError,
    D1,
    D2,
    D3,
    EmptyInputError,
    INTERSECTION_COMBOS,
    UNREACHABLE_PORTS,
    build_daily_port_profiles,
    classify_dispersion,
    classify_ports,
    classify_volume,
    compute_thresholds,
    cumulative_share,
    definition_intersections,
    ecdf_threshold,
    jaccard,
    read_blocklist,
    read_verdicts,
    run_detection,
    tag_events,
    write_blocklist,
    write_blocklist_sidecar,
    write_verdicts,
    zipf_curve,
)
from darklens.feeds import AsnEntry, AsnMap
from darklens.model import (
    AhVerdict,
    DarknetEvent,
    EventKey,
    Thresholds,
    TrafficType,
    ip_to_int,
    utc_day,
)
from helpers import US, cfg_sized, make_cfg, oracle_detection, oracle_ecdf

DAY0_S = 1654041600  # 2022-06-01 UTC
JUNE1 = date(2022, 6, 1)
JUNE2 = date(2022, 6, 2)

# Reference thresholds from two year-long darknet observation windows; used
# as fixed inputs to pin down the inclusive >= boundary behavior.
T_2021 = Thresholds(volume_threshold_pkts=64810, ports_threshold=6542, dataset_label="2021")
T_2022 = Thresholds(volume_threshold_pkts=23491, ports_threshold=57410, dataset_label="2022")


def _ev(
    src="198.51.100.9",
    port=23,
    tt=TrafficType.TCP_SYN,
    start_s=DAY0_S,
    dur_s=60,
    pkts=10,
    uniq=5,
):
    src_i = ip_to_int(src) if isinstance(src, str) else src
    return DarknetEvent(
        key=EventKey(src_i, port, tt),
        start_ts=start_s * US,
        end_ts=(start_s + dur_s) * US,
        pkt_count=pkts,
        unique_dst_count=uniq,
        zmap_pkts=pkts,
        masscan_pkts=0,
        other_pkts=0,
    )


class TestEcdf:
    def test_near_one_percentile_avoids_float_ceil_trap(self):
        # With float math ceil((1 - 0.0001) * 10000) lands on 10000; the true
        # order statistic index is 9999.
        assert ecdf_threshold(range(1, 10001), 0.0001) == 9999

    def test_median(self):
        assert ecdf_threshold(range(1, 11), 0.5) == 5

    def test_single_value(self):
        assert ecdf_threshold([7], 0.5) == 7
        assert ecdf_threshold([7], 0.0001) == 7

    def test_all_equal_multiset(self):
        assert ecdf_threshold([42] * 1000, 0.0001) == 42

    def test_unsorted_input(self):
        assert ecdf_threshold([5, 1, 9, 3, 7], 0.5) == 5

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            ecdf_threshold([], 0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**5),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    @example(10**5, 5e-324)
    @example(10**5, 2.0**-53)
    @example(10**5, 1 - 2.0**-53)
    @example(1, 1 - 2.0**-53)
    @example(10**4, 0.0001)
    @example(10**5, 0.0001)
    # Float arithmetic rounds (1 - alpha) * n or n - alpha * n onto the wrong
    # side of an integer for these.
    @example(10, 0.3)
    @example(5, 0.6)
    @example(10, 0.7)
    @example(20, 0.15)
    def test_integer_index_matches_rational_oracle(self, n, alpha):
        # On 1..n the order statistic is its own index, so this pins the
        # ceiling itself against the Fraction arithmetic of the oracle.
        assert ecdf_threshold(range(1, n + 1), alpha) == oracle_ecdf(range(1, n + 1), alpha)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            ecdf_threshold([1], 0.0)
        with pytest.raises(ValueError):
            ecdf_threshold([1], 1.0)

    def test_matches_oracle_on_random_multisets(self):
        rng = random.Random(314159)
        for _ in range(200):
            n = rng.randrange(1, 5000)
            vals = [rng.randrange(0, 100) for _ in range(n)]
            for alpha in (0.0001, 0.01, 0.5, 0.9999):
                assert ecdf_threshold(vals, alpha) == oracle_ecdf(vals, alpha)


class TestBoundaries:
    def test_dispersion_exact_ten_percent_of_475000(self):
        cfg = cfg_sized(475000)
        assert cfg.darknet_size == 475000
        assert classify_dispersion(_ev(uniq=47500), cfg) is True
        assert classify_dispersion(_ev(uniq=47499), cfg) is False

    def test_dispersion_small_telescope(self, cfg_slash22):
        # 10% of 1024 is 102.4, so 103 is the smallest qualifying count.
        assert classify_dispersion(_ev(uniq=103), cfg_slash22) is True
        assert classify_dispersion(_ev(uniq=102), cfg_slash22) is False

    def test_dispersion_fraction_one_requires_full_coverage(self):
        cfg = cfg_sized(4096, fraction=1.0)
        assert classify_dispersion(_ev(uniq=4096), cfg) is True
        assert classify_dispersion(_ev(uniq=4095), cfg) is False

    def test_volume_threshold_is_inclusive(self):
        assert classify_volume(_ev(pkts=23491), T_2022) is True
        assert classify_volume(_ev(pkts=23490), T_2022) is False
        assert classify_volume(_ev(pkts=64810), T_2021) is True
        assert classify_volume(_ev(pkts=64809), T_2021) is False

    def test_ports_threshold_is_inclusive(self):
        assert classify_ports(6542, T_2021) is True
        assert classify_ports(6541, T_2021) is False
        assert classify_ports(57410, T_2022) is True
        assert classify_ports(57409, T_2022) is False


class TestPortProfiles:
    def test_port_protocol_pairs_counted(self):
        evs = [
            _ev(port=22, tt=TrafficType.TCP_SYN),
            _ev(port=23, tt=TrafficType.TCP_SYN, start_s=DAY0_S + 100),
            _ev(port=22, tt=TrafficType.TCP_SYN, start_s=DAY0_S + 2000),
            _ev(port=22, tt=TrafficType.UDP),
        ]
        profiles = build_daily_port_profiles(evs)
        assert profiles == {(ip_to_int("198.51.100.9"), JUNE1): 3}

    def test_icmp_excluded(self):
        evs = [_ev(port=0, tt=TrafficType.ICMP_ECHO_REQUEST)]
        assert build_daily_port_profiles(evs) == {}

    def test_event_counts_toward_start_day_only(self):
        ev = _ev(port=443, start_s=DAY0_S + 86_400 - 30, dur_s=120)
        profiles = build_daily_port_profiles([ev])
        assert set(profiles) == {(ip_to_int("198.51.100.9"), JUNE1)}

    def test_days_kept_separate(self):
        evs = [_ev(port=23), _ev(port=24, start_s=DAY0_S + 86_400)]
        profiles = build_daily_port_profiles(evs)
        assert profiles == {
            (ip_to_int("198.51.100.9"), JUNE1): 1,
            (ip_to_int("198.51.100.9"), JUNE2): 1,
        }


class TestComputeThresholds:
    def test_uses_alpha_order_statistic(self, cfg_slash22):
        evs = [_ev(port=1000 + i, pkts=i + 1, start_s=DAY0_S + i) for i in range(100)]
        profiles = build_daily_port_profiles(evs)
        t = compute_thresholds(evs, cfg_slash22, profiles)
        assert t.volume_threshold_pkts == oracle_ecdf([e.pkt_count for e in evs], cfg_slash22.alpha)
        assert t.ports_threshold == oracle_ecdf(profiles.values(), cfg_slash22.alpha)

    def test_icmp_only_dataset_gets_unreachable_ports_threshold(self, cfg_slash22):
        evs = [_ev(port=0, tt=TrafficType.ICMP_ECHO_REQUEST, pkts=5)]
        t = compute_thresholds(evs, cfg_slash22, build_daily_port_profiles(evs))
        assert t.ports_threshold == UNREACHABLE_PORTS
        assert not classify_ports(10**9, t)

    def test_empty_raises(self, cfg_slash22):
        with pytest.raises(EmptyInputError):
            compute_thresholds([], cfg_slash22, {})


class TestTagging:
    def test_d3_tags_all_contributing_events_but_never_icmp(self, cfg_slash22):
        evs = [
            _ev(port=22),
            _ev(port=23),
            _ev(port=0, tt=TrafficType.ICMP_ECHO_REQUEST, pkts=1, uniq=1),
        ]
        t = Thresholds(volume_threshold_pkts=10**9, ports_threshold=2)
        tagged = tag_events(evs, cfg_slash22, t, build_daily_port_profiles(evs))
        by_port = {ae.event.key.dst_port: ae.defs for ae in tagged}
        assert by_port == {22: frozenset({D3}), 23: frozenset({D3})}

    def test_non_matching_events_absent(self, cfg_slash22):
        t = Thresholds(volume_threshold_pkts=10**9, ports_threshold=10**9)
        evs = [_ev(uniq=1, pkts=1)]
        assert tag_events(evs, cfg_slash22, t, build_daily_port_profiles(evs)) == []

    def test_multiple_definitions_combine(self, cfg_slash22):
        t = Thresholds(volume_threshold_pkts=10, ports_threshold=1)
        evs = [_ev(uniq=103, pkts=10)]
        (ae,) = tag_events(evs, cfg_slash22, t, build_daily_port_profiles(evs))
        assert ae.defs == frozenset({D1, D2, D3})


class TestDailyActive:
    """is_daily on verdict rows: each source is daily once, on its first day."""

    def test_spanning_event(self, cfg_slash22):
        ev = _ev(start_s=DAY0_S + 86_000, dur_s=90_000)  # crosses into June 2 and 3
        t = Thresholds(volume_threshold_pkts=1, ports_threshold=10**9)
        res = run_detection([ev], cfg_slash22, t)
        ip = ip_to_int("198.51.100.9")
        june3 = date(2022, 6, 3)
        assert [(v.src_ip, v.day, v.is_daily) for v in res.verdicts] == [
            (ip, JUNE1, True), (ip, JUNE2, False), (ip, june3, False),
        ]

    def test_daily_only_on_first_aggressive_day(self, cfg_slash22):
        evs = [_ev(), _ev(start_s=DAY0_S + 86_400 * 4)]
        t = Thresholds(volume_threshold_pkts=1, ports_threshold=10**9)
        res = run_detection(evs, cfg_slash22, t)
        day5 = date(2022, 6, 5)
        assert [(v.day, v.is_daily) for v in res.verdicts] == [(JUNE1, True), (day5, False)]

    def test_one_daily_row_on_earliest_day_randomized(self, cfg_slash22):
        rng = random.Random(77)
        evs = [
            _ev(
                src=ip_to_int("198.51.100.0") + rng.randrange(40),
                port=rng.randrange(1, 50),
                start_s=DAY0_S + rng.randrange(0, 5 * 86_400),
                dur_s=rng.randrange(1, 2 * 86_400),
                pkts=rng.randrange(1, 50),
            )
            for _ in range(300)
        ]
        t = Thresholds(volume_threshold_pkts=1, ports_threshold=10**9)
        res = run_detection(evs, cfg_slash22, t)
        first_day = {}
        for ev in evs:
            ip, day = ev.key.src_ip, utc_day(ev.start_ts)
            first_day[ip] = min(day, first_day.get(ip, day))
        daily = [(v.src_ip, v.day) for v in res.verdicts if v.is_daily]
        assert sorted(daily) == sorted(first_day.items())
        for v in res.verdicts:
            assert v.day >= first_day[v.src_ip]


class TestJaccard:
    def test_half_overlap(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_four_fifths(self):
        assert jaccard({1, 2, 3, 4}, {1, 2, 3, 4, 5}) == 0.8

    def test_disjoint_and_identical(self):
        assert jaccard({1}, {2}) == 0.0
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_one_empty_is_zero(self):
        assert jaccard(set(), {1}) == 0.0

    def test_both_empty_raises(self):
        with pytest.raises(BothEmptyError):
            jaccard(set(), set())


def _random_asn_map(rng):
    amap = AsnMap()
    for i in range(10):
        amap.add(
            ip_to_int(f"198.51.{i}.0"), 24,
            AsnEntry(64500 + i % 4, f"org{i % 3}", ["US", "DE", "JP"][i % 3]),
        )
    return amap


class TestIntersections:
    def test_combo_names_pinned(self):
        assert INTERSECTION_COMBOS == ["D1", "D2", "D3", "D1&D2", "D2&D3", "D1&D3", "D1&D2&D3"]

    def test_matches_brute_force(self):
        from darklens.feeds import origin_of

        rng = random.Random(4242)
        universe = [ip_to_int(f"198.51.{i % 12}.{j}") for i in range(12) for j in range(1, 30)]
        amap = _random_asn_map(rng)
        for _ in range(50):
            d1 = set(rng.sample(universe, rng.randrange(0, 40)))
            d2 = set(rng.sample(universe, rng.randrange(0, 40)))
            d3 = set(rng.sample(universe, rng.randrange(0, 40)))
            rows = definition_intersections(d1, d2, d3, amap)
            named = {
                "D1": d1, "D2": d2, "D3": d3, "D1&D2": d1 & d2,
                "D2&D3": d2 & d3, "D1&D3": d1 & d3, "D1&D2&D3": d1 & d2 & d3,
            }
            for name, ips in named.items():
                origins = {ip: origin_of(ip, amap) for ip in ips}
                assert rows[name].ips == len(ips)
                assert rows[name].asns == len({o.asn for o in origins.values()})
                assert rows[name].orgs == len({o.org for o in origins.values()})
                assert rows[name].countries == len({o.country for o in origins.values()})


class TestZipf:
    def test_small_example(self):
        curve = zipf_curve({1: 6, 2: 3, 3: 1})
        assert curve == [(1 / 3, 0.6), (2 / 3, 0.9), (1.0, 1.0)]

    def test_cumulative_share(self):
        curve = zipf_curve({1: 6, 2: 3, 3: 1})
        assert cumulative_share(curve, 1 / 3) == 0.6
        assert cumulative_share(curve, 0.5) == 0.6
        assert cumulative_share(curve, 1.0) == 1.0
        assert cumulative_share(curve, 0.001) == 0.0

    def test_matches_prefix_sum_oracle(self):
        rng = random.Random(2718)
        for _ in range(50):
            pkts = {rng.randrange(2**32): rng.randrange(1, 10**6)
                    for _ in range(rng.randrange(1, 200))}
            curve = zipf_curve(pkts)
            ordered = sorted(pkts.items(), key=lambda kv: (-kv[1], kv[0]))
            total = sum(pkts.values())
            cum = 0
            for i, (_ip, p) in enumerate(ordered):
                cum += p
                assert curve[i] == ((i + 1) / len(ordered), cum / total)
            assert curve[-1][1] == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            zipf_curve({})


class TestRunDetection:
    def _events(self):
        return [
            _ev(src="198.51.100.9", port=23, pkts=500, uniq=200),          # D1+D2
            _ev(src="198.51.100.10", port=23, pkts=2, uniq=1),
            _ev(src="198.51.100.10", port=24, pkts=2, uniq=1),             # D3 via 2 ports
            _ev(src="198.51.100.11", port=53, tt=TrafficType.UDP, pkts=3, uniq=3,
                start_s=DAY0_S + 86_000, dur_s=7_200),                     # spans 2 days
        ]

    def _thresholds(self):
        return Thresholds(volume_threshold_pkts=500, ports_threshold=2)

    def test_sets_and_verdicts(self, cfg_slash22):
        res = run_detection(self._events(), cfg_slash22, self._thresholds())
        ip9 = ip_to_int("198.51.100.9")
        ip10 = ip_to_int("198.51.100.10")
        assert res.d1_ips == {ip9}
        assert res.d2_ips == {ip9}
        assert res.d3_ips == {ip10}
        assert res.union_ips == {ip9, ip10}
        assert [ (v.day, v.src_ip) for v in res.verdicts ] == sorted(
            (v.day, v.src_ip) for v in res.verdicts
        )
        for v in res.verdicts:
            assert v.matched_defs
        # one daily verdict per aggressive source
        daily_counts = {}
        for v in res.verdicts:
            if v.is_daily:
                daily_counts[v.src_ip] = daily_counts.get(v.src_ip, 0) + 1
        assert set(daily_counts) == res.union_ips
        assert all(c == 1 for c in daily_counts.values())

    def test_spanning_source_gets_two_verdict_rows_when_aggressive(self, cfg_slash22):
        t = Thresholds(volume_threshold_pkts=3, ports_threshold=10**9)
        res = run_detection(self._events(), cfg_slash22, t)
        ip11 = ip_to_int("198.51.100.11")
        rows = [v for v in res.verdicts if v.src_ip == ip11]
        assert [v.day for v in rows] == [JUNE1, JUNE2]
        assert rows[0].is_daily and not rows[1].is_daily

    def test_acked_matched_once_per_source(self, cfg_slash22, monkeypatch):
        from darklens import enrich
        from darklens.feeds import AckedList

        calls = []
        real = enrich.match_acked
        monkeypatch.setattr(enrich, "match_acked", lambda ip, *a: calls.append(ip) or real(ip, *a))
        ip11 = ip_to_int("198.51.100.11")
        acked = AckedList()
        acked.ips.add(ip11)
        acked.org_by_ip[ip11] = "GoodScan"
        t = Thresholds(volume_threshold_pkts=3, ports_threshold=10**9)
        res = run_detection(self._events(), cfg_slash22, t, acked=acked)
        assert sorted(calls) == sorted(res.union_ips)
        rows = [(v.day, v.acked, v.acked_org) for v in res.verdicts if v.src_ip == ip11]
        assert rows == [(JUNE1, True, "GoodScan"), (JUNE2, True, "GoodScan")]
        assert not any(v.acked or v.acked_org for v in res.verdicts if v.src_ip != ip11)

    def test_two_pass_derives_thresholds(self, cfg_slash22):
        res = run_detection(self._events(), cfg_slash22)
        assert res.thresholds.volume_threshold_pkts == oracle_ecdf(
            [e.pkt_count for e in self._events()], cfg_slash22.alpha
        )

    def test_empty_raises(self, cfg_slash22):
        with pytest.raises(EmptyInputError):
            run_detection([], cfg_slash22)

    def test_jaccard_pairs_handles_empty(self, cfg_slash22):
        res = run_detection(self._events(), cfg_slash22, self._thresholds())
        pairs = res.jaccard_pairs()
        assert pairs["D1|D2"] == 1.0
        assert pairs["D1|D3"] == 0.0

    def test_verdict_json_round_trip(self, cfg_slash22, tmp_path):
        res = run_detection(self._events(), cfg_slash22, self._thresholds())
        p = tmp_path / "verdicts.jsonl"
        write_verdicts(p, res.verdicts)
        assert read_verdicts(p) == res.verdicts

    def test_verdict_line_with_is_active_still_parses(self):
        # Verdict files written before the field was dropped carry it.
        line = (
            '{"src_ip":"198.51.100.9","day":"2022-06-01","matched_defs":["D2"],'
            '"max_dispersion":0.25,"max_event_pkts":500,"distinct_ports":1,'
            '"is_daily":true,"is_active":true,"acked":false,"acked_org":null}'
        )
        v = AhVerdict.from_json_line(line)
        assert (v.src_ip, v.day, v.matched_defs, v.is_daily) == (
            ip_to_int("198.51.100.9"), JUNE1, frozenset({D2}), True,
        )
        assert "is_active" not in v.to_json_line()


class TestBlocklistIo:
    def test_round_trip_sorted(self, tmp_path):
        ips = {ip_to_int("9.9.9.9"), ip_to_int("1.2.3.4"), ip_to_int("10.0.0.1")}
        p = tmp_path / "blocklist.txt"
        write_blocklist(p, ips)
        lines = p.read_text().splitlines()
        assert lines == ["1.2.3.4", "9.9.9.9", "10.0.0.1"]
        assert read_blocklist(p) == ips

    def test_sidecar_mentions_every_ip(self, cfg_slash22, tmp_path):
        import json

        evs = [_ev(uniq=103), _ev(src="198.51.100.10", pkts=999, uniq=1)]
        res = run_detection(evs, cfg_slash22, Thresholds(999, 10**9))
        p = tmp_path / "stats.jsonl"
        write_blocklist_sidecar(p, res)
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        assert {r["ip"] for r in rows} == {"198.51.100.9", "198.51.100.10"}
        for r in rows:
            assert set(r) >= {"ip", "matched_defs", "max_dispersion",
                              "max_event_pkts", "total_pkts", "events"}


# One drawn event: (source index, port, traffic type, start offset s, duration
# s, packets, distinct destinations as a share of the packets). Few sources
# and ports so that sources repeat and daily profiles collect several ports;
# durations up to two days so that events span midnight.
_EVENT = st.tuples(
    st.integers(0, 3),
    st.integers(1, 4),
    st.sampled_from(list(TrafficType)),
    st.integers(0, 3 * 86_400),
    st.integers(0, 2 * 86_400),
    st.integers(1, 300),
    st.floats(0.0, 1.0),
)


def _drawn_events(drawn):
    events = []
    for src, port, tt, start_s, dur_s, pkts, share in drawn:
        icmp = tt is TrafficType.ICMP_ECHO_REQUEST
        events.append(_ev(
            src=ip_to_int("198.51.100.1") + src,
            port=0 if icmp else port,
            tt=tt,
            start_s=DAY0_S + start_s,
            dur_s=dur_s,
            pkts=pkts,
            uniq=max(1, round(share * pkts)),
        ))
    return events


class TestDetectionOracle:
    """run_detection and the sidecar against a brute-force recomputation."""

    @settings(max_examples=200, deadline=None)
    @given(
        drawn=st.lists(_EVENT, min_size=1, max_size=25),
        alpha=st.sampled_from([0.0001, 0.2, 0.5]),
        fixed=st.none() | st.tuples(st.integers(1, 300), st.integers(1, 10)),
    )
    # A 200-packet event over three days with a 2-port first day and a 3-port
    # quiet day: it counts once in the sidecar, and its max_daily_ports is 3
    # although only the first day is aggressive (D2 only, ports threshold 4).
    @example(
        drawn=[
            (0, 1, TrafficType.TCP_SYN, 0, 2 * 86_400, 200, 0.01),
            (0, 2, TrafficType.TCP_SYN, 60, 60, 1, 1.0),
            (0, 1, TrafficType.UDP, 86_400 * 3, 60, 1, 1.0),
            (0, 2, TrafficType.UDP, 86_400 * 3, 60, 1, 1.0),
            (0, 3, TrafficType.UDP, 86_400 * 3, 60, 1, 1.0),
        ],
        alpha=0.5,
        fixed=(200, 4),
    )
    def test_verdicts_and_sidecar_match_oracle(self, drawn, alpha, fixed, tmp_path_factory):
        cfg = make_cfg(alpha=alpha)
        events = _drawn_events(drawn)
        thresholds = None if fixed is None else Thresholds(*fixed)
        want_t, want_verdicts, want_sidecar = oracle_detection(events, cfg, thresholds)
        res = run_detection(events, cfg, thresholds)
        assert res.thresholds == want_t
        assert res.verdicts == want_verdicts
        assert res.union_ips == {ip_to_int(row["ip"]) for row in want_sidecar}
        for name, ips in ((D1, res.d1_ips), (D2, res.d2_ips), (D3, res.d3_ips)):
            assert ips == {ip_to_int(r["ip"]) for r in want_sidecar if name in r["matched_defs"]}
        path = tmp_path_factory.mktemp("sidecar") / "blocklist_union.stats.jsonl"
        write_blocklist_sidecar(path, res)
        got = [json.loads(line) for line in path.read_text().splitlines()]
        assert got == want_sidecar
