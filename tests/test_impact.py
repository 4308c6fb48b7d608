import random
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from darklens import enrich, impact
from darklens.cli import main
from darklens.enrich import acked_sources
from darklens.feeds import AckedList
from darklens.flows import FLOW_CSV_FIELDS, FlowFormat, FlowReader
from darklens.impact import (
    EmptyAhSetError,
    ImpactBin,
    ImpactSeries,
    RouterImpact,
    acked_impact,
    ah_presence,
    flag_high_load_bins,
    flow_impact,
    protocol_breakdown_darknet,
    protocol_breakdown_flows,
    series_rows,
    stream_impact,
    tally_flows,
)
from darklens.model import (
    DarknetEvent,
    Direction,
    EventKey,
    FlowRecord,
    Protocol,
    TrafficType,
    int_to_ip,
    ip_to_int,
    write_csv,
)
from helpers import (
    US, build_pcap, dense_series, eth_frame, mk_pkt, oracle_flow_measures, oracle_ipv4,
    oracle_series_rows, oracle_udp, port_tally, traced_peak, write_flows_csv,
)

JUNE1 = date(2022, 6, 1)
JUNE2 = date(2022, 6, 2)
DAY0_US = 1654041600 * US

AH_IP = ip_to_int("198.18.0.1")
OTHER_IP = ip_to_int("100.64.0.1")


def _flow(src=AH_IP, sampled=1, denom=1000, router="router-1", ts_us=DAY0_US + 5,
          protocol=Protocol.TCP, flags=0x02):
    if protocol is Protocol.TCP:
        sport, dport = 51000, 23
    elif protocol is Protocol.UDP:
        sport, dport, flags = 51000, 53, None
    else:
        sport = dport = flags = None
    return FlowRecord(
        router_id=router, ts_us=ts_us, direction=Direction.INGRESS, src_ip=src,
        dst_ip=ip_to_int("192.0.2.10"), protocol=protocol, src_port=sport,
        dst_port=dport, sampled_pkts=sampled, sampling_denominator=denom,
        tcp_flags=flags,
    )


class TestFlowImpact:
    def test_inversion_and_fraction(self):
        flows = [
            _flow(sampled=3),                 # 3000 est, aggressive
            _flow(sampled=2),                 # 2000 est, aggressive
            _flow(src=OTHER_IP, sampled=5),   # 5000 est, benign
        ]
        res = flow_impact(tally_flows(flows, {AH_IP}), JUNE1)
        imp = res["router-1"]
        assert imp.ah_pkts_est == 5000
        assert imp.total_pkts_est == 10000
        assert imp.fraction == 0.5

    def test_routers_kept_separate(self):
        flows = [_flow(), _flow(router="router-2", src=OTHER_IP)]
        res = flow_impact(tally_flows(flows, {AH_IP}), JUNE1)
        assert res["router-1"].fraction == 1.0
        assert res["router-2"].fraction == 0.0

    def test_mixed_denominators(self):
        flows = [_flow(sampled=1, denom=1000), _flow(src=OTHER_IP, sampled=10, denom=100)]
        imp = flow_impact(tally_flows(flows, {AH_IP}), JUNE1)["router-1"]
        assert (imp.ah_pkts_est, imp.total_pkts_est) == (1000, 2000)

    def test_only_requested_day_counted(self):
        flows = [_flow(), _flow(ts_us=DAY0_US + 86_400 * US, src=OTHER_IP)]
        imp = flow_impact(tally_flows(flows, {AH_IP}), JUNE1)["router-1"]
        assert imp.total_pkts_est == 1000
        assert flow_impact(tally_flows(flows, {AH_IP}), JUNE2)["router-1"].fraction == 0.0

    def test_no_flows_for_day_is_empty(self):
        tally = tally_flows([_flow()], {AH_IP})
        assert flow_impact(tally, JUNE2) == acked_impact(tally, JUNE2) == {}

    def test_empty_ah_set_raises(self):
        with pytest.raises(EmptyAhSetError):
            flow_impact(tally_flows([_flow()], set()), JUNE1)

    def test_yearly_scale_fraction(self):
        # Magnitudes seen at a mid-size transit provider: ~5.85% of all
        # packets attributable to aggressive scanners.
        imp = RouterImpact(ah_pkts_est=20_400_000_000, total_pkts_est=348_700_000_000)
        assert imp.fraction == pytest.approx(0.0585, abs=0.0002)

    def test_zero_total_reports_zero(self):
        assert RouterImpact(0, 0).fraction == 0.0


def _acked_tally(flows, ah, acked, rdns):
    return tally_flows(flows, ah, acked_sources(ah, acked, rdns))


class TestAckedImpact:
    def _acked(self, ips=()):
        return AckedList(dict.fromkeys(ips), {})

    def test_empty_acked_subset_is_zero_not_error(self):
        res = acked_impact(_acked_tally([_flow()], {AH_IP}, self._acked(), None), JUNE1)
        imp = res["router-1"]
        assert imp.ah_pkts_est == 0
        assert imp.total_pkts_est == 1000

    def test_acked_member_counted(self):
        res = acked_impact(_acked_tally([_flow()], {AH_IP}, self._acked([AH_IP]), {}), JUNE1)
        assert res["router-1"].fraction == 1.0

    def test_acked_non_ah_source_not_counted(self):
        # Acked but not aggressive: outside the set under test.
        flows = [_flow(), _flow(src=OTHER_IP)]
        res = acked_impact(_acked_tally(flows, {AH_IP}, self._acked([OTHER_IP]), None), JUNE1)
        assert res["router-1"].ah_pkts_est == 0


class TestStreamImpact:
    def test_binning_and_gap_fill(self):
        pkts = [
            mk_pkt(0, "198.18.0.1", "10.0.0.1"),
            mk_pkt(1, "100.64.0.1", "10.0.0.2"),
            mk_pkt(2 * US + 1, "198.18.0.1", "10.0.0.3"),  # bin 2; bin 1 is silent
        ]
        series = stream_impact(pkts, {AH_IP}, bin_width_s=1.0)
        assert series.bins == [ImpactBin(0, 1, 2), ImpactBin(2 * US, 1, 1)]
        assert series.span() == range(0, 2 * US + 1, US)
        assert [row[:4] for row in series_rows(series, 1)] == [
            (0, 1, 2, 0.5), (US, 0, 0, 0.0), (2 * US, 1, 1, 1.0),
        ]

    def test_hot_bin_is_named_by_its_place_in_the_span(self):
        pkts = [mk_pkt(0, "100.64.0.1", "10.0.0.1")]
        pkts += [mk_pkt(2 * US + i, "198.18.0.1", "10.0.0.1") for i in range(5)]
        series = stream_impact(pkts, {AH_IP}, bin_width_s=1.0)
        assert len(series.bins) == 2
        assert flag_high_load_bins(series) == [2]

    def test_cumulative_final_equals_total_ratio(self):
        rng = random.Random(31337)
        pkts = []
        t = 0
        for _ in range(5000):
            t += rng.randrange(0, 3 * US)
            src = AH_IP if rng.random() < 0.3 else OTHER_IP
            pkts.append(mk_pkt(t, src, "10.0.0.9"))
        series = stream_impact(pkts, {AH_IP}, bin_width_s=7.0)
        ah_total, total = series.totals()
        assert total == 5000
        assert list(series_rows(series, 1))[-1][4] == ah_total / total

    def test_empty_stream_has_no_bins(self):
        series = stream_impact([], {AH_IP})
        assert series.bins == []
        assert list(series_rows(series, 1)) == []

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            stream_impact([], {AH_IP}, bin_width_s=0.0)

    @pytest.mark.parametrize("width", [1e-7, 4e-7, -1.0, float("inf"), float("nan")])
    def test_width_under_one_microsecond_rejected(self, width):
        # 1e-7 s rounds to a zero-microsecond bin; it must fail up front,
        # not divide by zero on the first packet.
        with pytest.raises(ValueError, match="bin width"):
            stream_impact([mk_pkt(0, "198.18.0.1", "10.0.0.1")], {AH_IP}, bin_width_s=width)

    def test_width_of_one_microsecond_accepted(self):
        series = stream_impact([mk_pkt(3, "198.18.0.1", "10.0.0.1")], {AH_IP}, bin_width_s=1e-6)
        assert [b.bin_start_us for b in series.bins] == [3]

    def test_series_carries_the_rounded_width(self):
        # 1.4 us rounds to 1 us bins, so one AH packet in a bin is 10^6 packets/s.
        series = stream_impact([mk_pkt(3, "198.18.0.1", "10.0.0.1")], {AH_IP}, bin_width_s=1.4e-6)
        assert series.bin_width_s == 1e-6
        assert [row[5] for row in series_rows(series, 1)] == [1000000.0]

    @pytest.mark.parametrize("width", [1.0, 7.0, 60.0, 0.25])
    def test_whole_microsecond_width_is_carried_unchanged(self, width):
        assert stream_impact([mk_pkt(0, AH_IP, "10.0.0.1")], {AH_IP}, width).bin_width_s == width

    def test_bins_contiguous_on_random_stream(self):
        rng = random.Random(5150)
        pkts = [mk_pkt(rng.randrange(0, 1000 * US), AH_IP, "10.0.0.1") for _ in range(200)]
        pkts.sort(key=lambda p: p.ts_us)
        series = stream_impact(pkts, {AH_IP}, bin_width_s=3.0)
        width = round(3.0 * US)
        assert all(b.total_pkts for b in series.bins)
        first, last = pkts[0].ts_us // width * width, pkts[-1].ts_us // width * width
        assert series.span() == range(first, last + 1, width)
        rows = list(series_rows(series, 1))
        assert [row[0] for row in rows] == list(range(first, last + 1, width))
        assert sum(row[2] for row in rows) == 200


class TestNormalization:
    def test_rate_per_slash24(self):
        series = ImpactSeries(10.0, [ImpactBin(0, ah_pkts=1000, total_pkts=5000)])
        assert [row[5] for row in series_rows(series, 50)] == [2.0]

    def test_one_slash24(self):
        series = ImpactSeries(1.0, [ImpactBin(0, ah_pkts=7, total_pkts=7)])
        assert [row[5] for row in series_rows(series, 1)] == [7.0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(series_rows(ImpactSeries(1.0), 0))


_BIN_CELLS = st.integers(0, 10**6).flatmap(
    lambda total: st.tuples(st.integers(0, total), st.just(total))
)


class TestSeriesRows:
    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(st.one_of(st.just((0, 0)), _BIN_CELLS), max_size=40),
        width_us=st.integers(1, 10**9),
        num_slash24=st.integers(1, 2**16),
    )
    def test_property_matches_three_list_oracle(self, cells, width_us, num_slash24):
        series = ImpactSeries(
            width_us / US, [ImpactBin(i * width_us, a, t) for i, (a, t) in enumerate(cells)]
        )
        rows = list(series_rows(series, num_slash24))
        assert rows == oracle_series_rows(series, num_slash24)
        ah_total, total = series.totals()
        if total:
            assert rows[-1][4] == ah_total / total

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.one_of(st.just((0, 0)), _BIN_CELLS), st.booleans()),
                       max_size=40),
        first=st.integers(0, 10**6),
        width_us=st.integers(1, 10**9),
        num_slash24=st.integers(1, 2**16),
    )
    def test_property_sparse_series_reads_like_its_dense_form(
        self, cells, first, width_us, num_slash24
    ):
        # Each empty bin is listed or left out as drawn.
        sparse = ImpactSeries(width_us / US, [
            ImpactBin((first + i) * width_us, a, t)
            for i, ((a, t), listed) in enumerate(cells) if t or listed
        ])
        dense = dense_series(sparse, width_us)
        assert len(sparse.span()) == len(dense.bins)
        assert list(series_rows(sparse, num_slash24)) == oracle_series_rows(dense, num_slash24)
        hot = flag_high_load_bins(sparse)
        assert hot == (TestHighLoadBins._oracle(dense) if dense.bins else [])

    def test_writing_the_csv_holds_one_row_at_a_time(self, tmp_path):
        header = ["bin_start_ts", "ah_pkts", "total_pkts", "inst_fraction", "cum_fraction",
                  "per_slash24_rate"]

        def peak(n):
            series = ImpactSeries(1.0, [ImpactBin(i * US, i % 3, i % 5) for i in range(n)])
            return traced_peak(write_csv, tmp_path / f"{n}.csv", header, series_rows(series, 1))[1]

        # One bin's peak is the CSV writer's own fixed record buffer (128 KiB
        # on CPython); 10^5 bins may add no more than 64 KiB to it.
        assert peak(10**5) - peak(1) < 64 * 1024
        assert len((tmp_path / f"{10**5}.csv").read_text().splitlines()) == 10**5 + 1


class TestHighLoadBins:
    def _series(self, cells):
        return ImpactSeries(1.0, [ImpactBin(i * US, a, t) for i, (a, t) in enumerate(cells)])

    def test_requires_both_top_deciles(self):
        cells = [(0, 100)] * 8 + [(90, 100)] + [(5, 1000)]
        # bin 8 has top aggressive share but middling load; bin 9 top load but
        # low share; with n=10 the cut index is 9 so both metrics' cuts bind.
        series = self._series(cells)
        flagged = flag_high_load_bins(series)
        oracle = self._oracle(series)
        assert flagged == oracle

    @staticmethod
    def _oracle(series):
        n = len(series.bins)
        totals = [b.total_pkts for b in series.bins]
        fr = [
            (b.ah_pkts / b.total_pkts if b.total_pkts else 0.0) for b in series.bins
        ]
        k = (9 * n + 9) // 10
        tcut = sorted(totals)[k - 1]
        fcut = sorted(fr)[k - 1]
        return [i for i in range(n) if totals[i] > 0 and totals[i] >= tcut and fr[i] >= fcut]

    def test_ties_at_cut_included(self):
        cells = [(1, 10)] * 10
        assert flag_high_load_bins(self._series(cells)) == list(range(10))

    def test_empty(self):
        assert flag_high_load_bins(ImpactSeries(1.0)) == []

    def test_mostly_empty_series_flags_only_bins_with_packets(self):
        # 18 of 20 bins are empty, so k = 18 falls among them and both cuts
        # are 0; only the two bins that carry packets are hot.
        cells = [(1, 1)] + [(0, 0)] * 18 + [(0, 5)]
        assert flag_high_load_bins(self._series(cells)) == [0, 19]

    def test_all_empty_series_has_no_hot_bin(self):
        assert flag_high_load_bins(self._series([(0, 0)] * 5)) == []

    def test_matches_oracle_randomized(self):
        rng = random.Random(90210)
        for _ in range(300):
            n = rng.randrange(1, 60)
            cells = []
            for _ in range(n):
                total = rng.randrange(0, 50)
                ah = rng.randrange(0, total + 1)
                cells.append((ah, total))
            series = self._series(cells)
            assert flag_high_load_bins(series) == self._oracle(series)


def _ev(src, tt, pkts):
    port = 0 if tt is TrafficType.ICMP_ECHO_REQUEST else 23
    return DarknetEvent(
        key=EventKey(src, port, tt), start_ts=0, end_ts=1, pkt_count=pkts,
        unique_dst_count=1, zmap_pkts=pkts, masscan_pkts=0, other_pkts=0,
    )


class TestProtocolMix:
    def test_darknet_split(self):
        evs = [
            _ev(AH_IP, TrafficType.TCP_SYN, 904),
            _ev(AH_IP, TrafficType.UDP, 94),
            _ev(AH_IP, TrafficType.ICMP_ECHO_REQUEST, 2),
            _ev(OTHER_IP, TrafficType.UDP, 10_000),  # not in AH set
        ]
        mix = protocol_breakdown_darknet(port_tally(evs, {AH_IP}))
        assert mix.pct_tcp_syn == pytest.approx(90.4)
        assert mix.pct_udp == pytest.approx(9.4)
        assert mix.pct_icmp_echo == pytest.approx(0.2)
        assert mix.classified_pkts == 1000
        assert mix.unclassifiable_pkts == 0

    def test_flow_split_inverts_sampling(self):
        flows = [
            _flow(sampled=9, protocol=Protocol.TCP, flags=0x02),
            _flow(sampled=1, protocol=Protocol.UDP),
        ]
        mix = protocol_breakdown_flows(tally_flows(flows, {AH_IP}))
        assert mix.pkts_tcp_syn == 9000
        assert mix.pkts_udp == 1000
        assert mix.pct_tcp_syn == 90.0

    def test_flow_split_unclassifiable_tcp(self):
        flows = [
            _flow(sampled=1, flags=0x12),   # SYN+ACK union: established
            _flow(sampled=1, flags=None),   # exporter gave no flags
            _flow(sampled=2, flags=0x02),
        ]
        mix = protocol_breakdown_flows(tally_flows(flows, {AH_IP}))
        assert mix.unclassifiable_pkts == 2000
        assert mix.classified_pkts == 2000
        assert mix.pct_tcp_syn == 100.0

    def test_all_unclassifiable(self):
        mix = protocol_breakdown_flows(tally_flows([_flow(flags=None)], {AH_IP}))
        assert mix.classified_pkts == 0
        assert mix.pct_tcp_syn == 0.0


class TestPresence:
    def test_share_of_ah_set_seen(self):
        ah = {AH_IP, AH_IP + 1, AH_IP + 2, AH_IP + 3}
        flows = [
            _flow(src=AH_IP), _flow(src=AH_IP + 1),
            _flow(src=AH_IP, router="router-2"),
            _flow(src=OTHER_IP, router="router-2"),
        ]
        pres = ah_presence(tally_flows(flows, ah))
        assert pres == {"router-1": 0.5, "router-2": 0.25}

    def test_empty_ah_raises(self):
        with pytest.raises(EmptyAhSetError):
            ah_presence(tally_flows([], set()))


_POOL = [AH_IP + i for i in range(6)] + [OTHER_IP, OTHER_IP + 1]


@st.composite
def _flow_rows(draw):
    return _flow(
        src=draw(st.sampled_from(_POOL)),
        sampled=draw(st.integers(1, 9)),
        denom=draw(st.integers(1, 2000)),
        router=draw(st.sampled_from(["router-1", "router-2", "edge,1"])),
        ts_us=DAY0_US + draw(st.integers(0, 3 * 86_400 * US)),
        protocol=draw(st.sampled_from(list(Protocol))),
        flags=draw(st.none() | st.integers(0, 0x3F)),
    )


class TestTallyAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        flows=st.lists(_flow_rows(), max_size=40),
        ah=st.sets(st.sampled_from(_POOL), min_size=1),
        acked_ips=st.sets(st.sampled_from(_POOL)),
        day_offset=st.none() | st.integers(0, 3),
    )
    def test_property_readers_match_five_passes(self, flows, ah, acked_ips, day_offset):
        day = None if day_offset is None else date.fromordinal(JUNE1.toordinal() + day_offset)
        want = oracle_flow_measures(flows, ah, acked_ips, day)
        tally = tally_flows(iter(flows), ah, acked_ips)
        if day is None and flows:
            assert min(cell_day for cell_day, _router in tally.cells) == want["day"]
        if want["day"] is not None:
            got = flow_impact(tally, want["day"])
            assert {r: (i.ah_pkts_est, i.total_pkts_est) for r, i in got.items()} == want["impact"]
            got = acked_impact(tally, want["day"])
            assert {r: (i.ah_pkts_est, i.total_pkts_est) for r, i in got.items()} == want["acked"]
        assert ah_presence(tally) == want["presence"]
        mix = protocol_breakdown_flows(tally)
        assert (mix.pkts_tcp_syn, mix.pkts_udp, mix.pkts_icmp_echo, mix.unclassifiable_pkts) == want["mix"]


def _tally_peak_bytes(rows: int) -> int:
    """Peak traced memory while tallying a generator of `rows` flows."""
    ah = {AH_IP + i for i in range(20)}
    flows = (
        _flow(src=AH_IP + i % 40, router=f"router-{i % 2}", ts_us=DAY0_US + i)
        for i in range(rows)
    )
    return traced_peak(tally_flows, flows, ah)[1]


def test_tally_memory_does_not_grow_with_rows():
    small = _tally_peak_bytes(10_000)
    large = _tally_peak_bytes(100_000)
    # One row is live at a time; ten times the rows may cost a few
    # allocator blocks more, not a share of every row.
    assert large <= small + 4096


def _reader_tally_peak_bytes(tmp_path, rows: int) -> int:
    """Peak traced memory while tallying a flow CSV of `rows` distinct sources."""
    path = tmp_path / f"flows_{rows}.csv"
    base = ip_to_int("100.0.0.0")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(FLOW_CSV_FIELDS) + "\n")
        for i in range(rows):
            fh.write(
                f"router-{i % 2},{DAY0_US + i},I,{int_to_ip(base + i)},192.0.2.10,"
                f"tcp,51000,23,1,1000,S\n"
            )
    ah = {base + i for i in range(20)}
    return traced_peak(tally_flows, FlowReader(path, FlowFormat.CSV_V1), ah)[1]


def test_reader_tally_memory_does_not_grow_with_distinct_sources(tmp_path):
    # Every source is new, so a per-reader memo of parsed addresses would
    # grow with the row count; the read and the tally keep one row live.
    small = _reader_tally_peak_bytes(tmp_path, 10_000)
    large = _reader_tally_peak_bytes(tmp_path, 100_000)
    assert large <= small + 4096


def test_one_empty_ah_set_error():
    assert impact.EmptyAhSetError is enrich.EmptyAhSetError


class TestCsvWriters:
    """The impact tables as the CLI writes them."""

    def _blocklist(self, tmp_path):
        path = tmp_path / "blocklist.txt"
        path.write_text("198.18.0.1\n")
        return path

    def test_impact_csv(self, tmp_path):
        flows = tmp_path / "flows.csv"
        write_flows_csv(flows, [_flow(sampled=5), _flow(src=OTHER_IP, sampled=5)])
        out = tmp_path / "out"
        rc = main([
            "--out-dir", str(out), "impact", "--blocklist", str(self._blocklist(tmp_path)),
            "--flows", str(flows),
        ])
        assert rc == 0
        lines = (out / "impact.csv").read_text().splitlines()
        assert lines[0] == "vantage_id,date,ah_pkts_est,total_pkts_est,fraction"
        assert lines[1] == "router-1,2022-06-01,5000,10000,0.5"

    @staticmethod
    def _pcap(tmp_path, packets):
        """A capture of one UDP probe per (ts_us, src) pair."""
        pcap = tmp_path / "stream.pcap"
        pcap.write_bytes(build_pcap([
            (ts, eth_frame(oracle_ipv4(src, "10.0.0.1", 17, oracle_udp(40000, 53))))
            for ts, src in packets
        ]))
        return pcap

    def _series(self, tmp_path, packets, *options):
        out = tmp_path / "out"
        rc = main([
            "--out-dir", str(out), "impact", "--blocklist", str(self._blocklist(tmp_path)),
            "--pcap", str(self._pcap(tmp_path, packets)), *options,
        ])
        return rc, out

    def test_series_csv(self, tmp_path):
        rc, out = self._series(
            tmp_path, [(0, "198.18.0.1"), (1, "100.64.0.1"), (2 * US, "100.64.0.1")],
            "--num-slash24", "4",
        )
        assert rc == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == (
            "bin_start_ts,ah_pkts,total_pkts,inst_fraction,cum_fraction,per_slash24_rate"
        )
        assert lines[1] == "0,1,2,0.5,0.5,0.25"
        assert lines[2].startswith(f"{US},0,0,0.0,0.5,")
        assert lines[3] == f"{2 * US},0,1,0.0,{1 / 3!r},0.0"

    def test_rate_divides_by_the_width_the_bins_have(self, tmp_path):
        # 1.4 us rounds to 1 us bins: one AH packet in a bin is 10^6 packets/s.
        rc, out = self._series(
            tmp_path, [(0, "198.18.0.1"), (3, "198.18.0.1")], "--bin-width", "0.0000014",
        )
        assert rc == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[1:] == [
            "0,1,1,1.0,1.0,1000000.0", "1,0,0,0.0,1.0,0.0", "2,0,0,0.0,1.0,0.0",
            "3,1,1,1.0,1.0,1000000.0",
        ]

    @pytest.mark.parametrize("option,value,message", [
        ("--bin-width", "0", "bin width 0.0 s"),
        ("--bin-width", "1e-7", "bin width 1e-07 s"),
        ("--bin-width", "nan", "bin width nan s"),
        ("--num-slash24", "0", "num_slash24 must be positive"),
        ("--num-slash24", "-3", "num_slash24 must be positive"),
    ])
    def test_bad_series_option_is_fatal_before_any_input_is_read(
        self, tmp_path, capsys, option, value, message
    ):
        flows = tmp_path / "flows.csv"
        write_flows_csv(flows, [_flow()])
        out = tmp_path / "out"
        with mock.patch("darklens.flows.FlowReader") as flow_reader, \
                mock.patch("darklens.pcap.PcapReader") as pcap_reader:
            rc = main([
                "--out-dir", str(out), "impact", "--blocklist", str(self._blocklist(tmp_path)),
                "--flows", str(flows), "--pcap", str(self._pcap(tmp_path, [(0, "198.18.0.1")])),
                option, value,
            ])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        flow_reader.assert_not_called()
        pcap_reader.assert_not_called()
        assert list(out.iterdir()) == []

    def test_far_apart_clusters_cost_no_more_than_one(self, tmp_path):
        # Two dense one-minute clusters 5x10^5 s apart at 1 s bins: the series
        # spans 500,060 bins, but only the 120 busy ones are held.
        cluster = [(DAY0_US + i * (US // 20), src) for i in range(60 * 20)
                   for src in ("198.18.0.1", "100.64.0.1")]
        far = [(ts + 500_000 * US, src) for ts, src in cluster]

        def peak(packets, name):
            out = tmp_path / name
            pcap = self._pcap(tmp_path, packets)
            argv = ["--out-dir", str(out), "impact", "--blocklist",
                    str(self._blocklist(tmp_path)), "--pcap", str(pcap)]
            rc, traced = traced_peak(main, argv)
            assert rc == 0
            return out, traced

        _, one = peak(cluster, "one")
        out, two = peak(cluster + far, "two")
        with open(out / "series.csv") as fh:
            assert sum(1 for _ in fh) == 500_060 + 1
        assert two - one < 1 << 20

    def test_empty_bins_are_never_hot(self, tmp_path, capsys):
        # 19 of 21 bins are empty, so both 90th-percentile cuts are 0.
        rc, _ = self._series(tmp_path, [(0, "198.18.0.1"), (20 * US, "100.64.0.1")])
        assert rc == 0
        assert capsys.readouterr().out == (
            "series: 21 bins, cumulative fraction 0.500000, 2 bins hot on both load and share\n"
        )
