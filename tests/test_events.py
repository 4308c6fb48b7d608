import ipaddress
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from darklens.detect import classify_dispersion
from darklens.events import EXACT_DST_THRESHOLD, EventBuilder, write_event_log
from darklens.hll import Hll
from darklens.model import EventKey, TrafficType, ip_to_int, read_event_log
from helpers import US, OracleEventBuilder, make_cfg, mk_pkt, offline_intervals, run_builder

SRC = "198.51.100.9"
DARK = [f"10.0.{i >> 8}.{i & 255}" for i in range(1024)]


def run_stream(cfg, packets, slack_s=0.0):
    b = EventBuilder(cfg, reorder_slack_s=slack_s)
    return b, run_builder(b, packets)


class TestSplitting:
    def test_gap_of_exactly_timeout_does_not_split(self, cfg_slash22):
        pkts = [mk_pkt(t * US, SRC, DARK[i], dport=53) for i, t in enumerate((0, 300, 900))]
        _, evs = run_stream(cfg_slash22, pkts)
        assert len(evs) == 1
        assert (evs[0].start_ts, evs[0].end_ts) == (0, 900 * US)
        assert evs[0].pkt_count == 3

    def test_gap_one_us_over_timeout_splits(self, cfg_slash22):
        pkts = [mk_pkt(0, SRC, DARK[0]), mk_pkt(600 * US + 1, SRC, DARK[1])]
        _, evs = run_stream(cfg_slash22, pkts)
        assert [(e.start_ts, e.end_ts) for e in evs] == [(0, 0), (600 * US + 1, 600 * US + 1)]

    def test_distinct_keys_do_not_interact(self, cfg_slash22):
        pkts = [
            mk_pkt(0, SRC, DARK[0], dport=53),
            mk_pkt(1 * US, SRC, DARK[0], dport=123),
            mk_pkt(2 * US, SRC, DARK[0], proto="tcp", dport=53),
            mk_pkt(3 * US, "198.51.100.10", DARK[0], dport=53),
        ]
        _, evs = run_stream(cfg_slash22, pkts)
        assert len(evs) == 4
        assert len({e.key for e in evs}) == 4

    def test_flush_orders_by_key(self, cfg_slash22):
        pkts = [
            mk_pkt(0, "198.51.100.20", DARK[0], dport=90),
            mk_pkt(1 * US, "198.51.100.3", DARK[0], dport=22),
            mk_pkt(2 * US, "198.51.100.3", DARK[0], dport=21),
        ]
        _, evs = run_stream(cfg_slash22, pkts)
        keys = [e.key for e in evs]
        assert keys == sorted(keys)

    def test_sweep_closes_idle_keys_midstream(self, cfg_slash22):
        # Key A goes idle; another key's packets far in the future must force
        # A's event out during the stream, not only at flush time.
        b = EventBuilder(cfg_slash22)
        emitted = []
        emitted += b.ingest_packet(mk_pkt(0, SRC, DARK[0], dport=7))
        for k in range(1, 8):
            emitted += b.ingest_packet(
                mk_pkt(k * 400 * US, "198.51.100.77", DARK[k], dport=9)
            )
        assert any(e.key.dst_port == 7 for e in emitted)

    def test_matches_offline_oracle_on_random_gaps(self, cfg_slash22):
        rng = random.Random(0xDA12)
        timeout_us = 600 * US
        for _ in range(300):
            ts = [rng.randrange(0, 10 * US)]
            for _ in range(rng.randrange(1, 30)):
                # cluster gaps tight around the timeout, including exactly it
                gap = rng.choice(
                    [0, 1, timeout_us - 1, timeout_us, timeout_us + 1,
                     rng.randrange(0, 2 * timeout_us)]
                )
                ts.append(ts[-1] + gap)
            pkts = [mk_pkt(t, SRC, DARK[i % 1024], dport=53) for i, t in enumerate(ts)]
            _, evs = run_stream(cfg_slash22, pkts)
            assert [(e.start_ts, e.end_ts) for e in evs] == offline_intervals(ts, timeout_us)
            assert sum(e.pkt_count for e in evs) == len(ts)


class TestCounters:
    def test_conservation_with_drops(self, cfg_slash22):
        pkts = [
            mk_pkt(0, SRC, DARK[0], proto="tcp", flags=0x12),      # backscatter
            mk_pkt(1 * US, SRC, DARK[1], proto="tcp", flags=0x02),
            mk_pkt(2 * US, SRC, DARK[2], proto="icmp", icmp_type=0),
            mk_pkt(3 * US, SRC, DARK[3], proto="icmp", icmp_type=8),
            mk_pkt(4 * US, SRC, DARK[4]),
            mk_pkt(5 * US, SRC, "10.0.4.0"),                       # outside the /22
            mk_pkt(6 * US, SRC, "10.0.4.0", proto="tcp", flags=0x12),  # outside, backscatter
        ]
        b, evs = run_stream(cfg_slash22, pkts)
        assert b.packets_in == 7
        assert b.dropped_non_scanning == 3
        assert b.outside_darknet == 1
        assert b.out_of_order == 0
        assert (
            b.dropped_non_scanning + b.outside_darknet + b.out_of_order
            + sum(e.pkt_count for e in evs) == 7
        )

    def test_out_of_order_dropped_with_zero_slack(self, cfg_slash22):
        pkts = [
            mk_pkt(100 * US, SRC, DARK[0]),
            mk_pkt(40 * US, SRC, DARK[1]),
            mk_pkt(100 * US, SRC, DARK[2]),   # equal to watermark: fine
        ]
        b, evs = run_stream(cfg_slash22, pkts)
        assert b.out_of_order == 1
        assert sum(e.pkt_count for e in evs) == 2
        assert evs[0].unique_dst_count == 2

    def test_slack_admits_small_reordering(self, cfg_slash22):
        pkts = [mk_pkt(100 * US, SRC, DARK[0]), mk_pkt(99 * US, SRC, DARK[1])]
        b, evs = run_stream(cfg_slash22, pkts, slack_s=2.0)
        assert b.out_of_order == 0
        (ev,) = evs
        # the straggler may pull start_ts back but never end_ts
        assert ev.start_ts == 99 * US
        assert ev.end_ts == 100 * US
        assert ev.pkt_count == 2

    @pytest.mark.parametrize("slack", [-5.0, -1e-9, float("inf"), float("nan")])
    def test_bad_slack_rejected(self, cfg_slash22, slack):
        with pytest.raises(ValueError, match="reorder slack"):
            EventBuilder(cfg_slash22, reorder_slack_s=slack)


class TestDstCounting:
    def test_exact_unique_count(self, cfg_slash22):
        pkts = [
            mk_pkt(0, SRC, DARK[0]),
            mk_pkt(1 * US, SRC, DARK[1]),
            mk_pkt(2 * US, SRC, DARK[0]),
        ]
        _, evs = run_stream(cfg_slash22, pkts)
        assert evs[0].unique_dst_count == 2
        assert evs[0].pkt_count == 3

    def test_sketch_mode_accuracy(self, cfg_sketch):
        assert cfg_sketch.darknet_size > EXACT_DST_THRESHOLD
        rng = random.Random(5)
        base = ip_to_int("10.0.0.0")
        n = 50_000
        dsts = rng.sample(range(base, base + cfg_sketch.darknet_size), n)
        pkts = [mk_pkt(i * 10, SRC, d) for i, d in enumerate(dsts)]
        _, evs = run_stream(cfg_sketch, pkts)
        (ev,) = evs
        assert ev.pkt_count == n
        assert abs(ev.unique_dst_count - n) / n < 0.03

    def test_sketch_clamped_to_pkt_count(self, cfg_sketch):
        pkts = [mk_pkt(0, SRC, "10.0.0.1")]
        _, evs = run_stream(cfg_sketch, pkts)
        assert evs[0].unique_dst_count == 1

    def test_events_validate_against_size(self, cfg_slash22):
        rng = random.Random(11)
        pkts = sorted(
            (mk_pkt(rng.randrange(0, 500 * US), SRC, DARK[rng.randrange(1024)], dport=53)
             for _ in range(2000)),
            key=lambda p: p.ts_us,
        )
        _, evs = run_stream(cfg_slash22, pkts)
        for e in evs:
            e.validate()
            assert e.unique_dst_count <= cfg_slash22.darknet_size


class TestOutsideDarknet:
    def test_probes_outside_darknet_form_no_event(self, cfg_slash22):
        # 2,000 probes to 192.168.0.0/16 under a /22 config once came out as
        # one event with unique_dst_count 1024, flagged D1 at dispersion 1.0.
        rng = random.Random(2000)
        pkts = [
            mk_pkt(i * 1000, SRC, ip_to_int("192.168.0.0") + rng.randrange(1 << 16))
            for i in range(2000)
        ]
        b, evs = run_stream(cfg_slash22, pkts)
        assert b.outside_darknet == 2000
        assert evs == []
        assert b.packets_in == b.outside_darknet

    def test_outside_probes_do_not_count_toward_dispersion(self, cfg_slash22):
        # The same 2,000 probes plus ten into the darknet: one event of ten
        # destinations, well under the 10% dispersion fraction.
        pkts = [mk_pkt(i * 1000, SRC, ip_to_int("192.168.0.0") + i) for i in range(2000)]
        pkts += [mk_pkt(2 * US + i, SRC, DARK[i]) for i in range(10)]
        b, evs = run_stream(cfg_slash22, pkts)
        (ev,) = evs
        assert (ev.pkt_count, ev.unique_dst_count) == (10, 10)
        assert not classify_dispersion(ev, cfg_slash22)
        assert b.outside_darknet == 2000

    def test_outside_packet_moves_no_state(self, cfg_slash22):
        # A far-future packet outside the darknet must not advance the
        # watermark (which would drop the next packets as out of order) nor
        # sweep the open event.
        b = EventBuilder(cfg_slash22)
        assert b.ingest_packet(mk_pkt(0, SRC, DARK[0])) == []
        assert b.ingest_packet(mk_pkt(10_000 * US, SRC, "10.0.4.1")) == []
        assert b.ingest_packet(mk_pkt(1 * US, SRC, DARK[1])) == []
        assert b.watermark == 1 * US
        assert (b.outside_darknet, b.out_of_order) == (1, 0)
        (ev,) = b.flush()
        assert (ev.pkt_count, ev.unique_dst_count) == (2, 2)


def _in_darknet_oracle(ip: int, nets) -> bool:
    return any(ipaddress.IPv4Address(ip) in n for n in nets)


# A 512-address telescope in two /24s with a dark-space gap between them, and
# destinations drawn from both prefixes, the gap, the edges and far away.
_MIXED_NETS = [ipaddress.IPv4Network("10.0.0.0/24"), ipaddress.IPv4Network("10.0.2.0/24")]
_IN_POOL = [ip_to_int("10.0.0.0") + i for i in range(24)] + [ip_to_int("10.0.2.0") + i for i in range(24)]
_OUT_POOL = [ip_to_int(a) for a in (
    "9.255.255.255", "10.0.1.0", "10.0.1.255", "10.0.3.0", "192.168.0.1", "192.168.7.7",
)]


@settings(max_examples=200, deadline=None)
@given(
    dsts=st.lists(st.sampled_from(_IN_POOL + _OUT_POOL), max_size=120),
    fraction=st.sampled_from([0.02, 0.05, 0.0625, 0.08]),
)
def test_property_d1_iff_true_in_darknet_count_reaches_fraction(dsts, fraction):
    cfg = make_cfg(tuple(str(n) for n in _MIXED_NETS), dispersion_fraction=fraction)
    pkts = [mk_pkt(i * US, SRC, d) for i, d in enumerate(dsts)]
    b, evs = run_stream(cfg, pkts)
    inside = {d for d in dsts if _in_darknet_oracle(d, _MIXED_NETS)}
    n_out = sum(1 for d in dsts if not _in_darknet_oracle(d, _MIXED_NETS))
    assert b.outside_darknet == n_out
    assert b.packets_in == b.outside_darknet + sum(e.pkt_count for e in evs)
    assert sum(e.unique_dst_count for e in evs) == len(inside)
    # compared in integers: 0.0625 x 512 = 32 puts the boundary itself in play
    fires = any(classify_dispersion(e, cfg) for e in evs)
    assert fires == (len(inside) * 10_000 >= round(fraction * 10_000) * 512)


class TestSparseToSketch:
    def test_small_events_exact_on_sketch_telescope(self, cfg_sketch):
        assert cfg_sketch.darknet_size > EXACT_DST_THRESHOLD
        rng = random.Random(3)
        base = ip_to_int("10.0.0.0")
        for n in (1, 2, 17, 200, 255, 256):
            dsts = rng.sample(range(base, base + cfg_sketch.darknet_size), n)
            # every destination twice, so pkt_count cannot bound the count
            pkts = [mk_pkt(i * 10, SRC, d) for i, d in enumerate(dsts + dsts)]
            b, evs = run_stream(cfg_sketch, pkts)
            (ev,) = evs
            assert (ev.pkt_count, ev.unique_dst_count) == (2 * n, n)
            assert b.sketch_clamped == 0

    def test_promoted_sketch_equals_sketch_fed_every_packet(self, cfg_sketch):
        rng = random.Random(9)
        base = ip_to_int("10.0.0.0")
        dsts = [base + rng.randrange(cfg_sketch.darknet_size) for _ in range(3000)]
        dsts += dsts[:500]
        b = EventBuilder(cfg_sketch)
        reference = Hll()
        for i, d in enumerate(dsts):
            b.ingest_packet(mk_pkt(i * 10, SRC, d))
            reference.add_int(d)
        (state,) = b.open_events.values()
        assert isinstance(state.dsts, Hll)
        assert state.dsts.registers == reference.registers

    def test_promotion_happens_past_256_destinations(self, cfg_sketch):
        b = EventBuilder(cfg_sketch)
        base = ip_to_int("10.0.0.0")
        for i in range(256):
            b.ingest_packet(mk_pkt(i, SRC, base + i))
        (state,) = b.open_events.values()
        assert len(state.dsts) == 256
        b.ingest_packet(mk_pkt(256, SRC, base + 256))
        assert isinstance(state.dsts, Hll)

    def test_exact_telescope_never_promotes(self, cfg_slash22):
        b = EventBuilder(cfg_slash22)
        for i in range(1024):
            b.ingest_packet(mk_pkt(i * 10, SRC, DARK[i]))
        (state,) = b.open_events.values()
        assert type(state.dsts) is set
        (ev,) = b.flush()
        assert ev.unique_dst_count == 1024
        assert b.sketch_clamped == 0

    def test_sketch_clamped_counts_clamped_estimates(self, cfg_sketch):
        # Events of 257-400 distinct destinations, one packet each: a sketch
        # estimate above pkt_count is clamped, and the count must match an
        # independent recount with fresh sketches.
        rng = random.Random(21)
        base = ip_to_int("10.0.0.0")
        pkts = []
        want_clamped = 0
        for k in range(40):
            n = rng.randrange(257, 401)
            dsts = rng.sample(range(base, base + cfg_sketch.darknet_size), n)
            sketch = Hll()
            for d in dsts:
                sketch.add_int(d)
            want_clamped += sketch.estimate() > n
            pkts += [mk_pkt(i, SRC, d, dport=k) for i, d in enumerate(dsts)]
        pkts.sort(key=lambda p: p.ts_us)
        b, evs = run_stream(cfg_sketch, pkts)
        assert len(evs) == 40
        assert all(e.unique_dst_count <= e.pkt_count for e in evs)
        assert want_clamped > 0
        assert b.sketch_clamped == want_clamped


def _one_packet_event_bytes(cfg) -> int:
    pkt = mk_pkt(0, SRC, "10.0.0.1")
    EventBuilder(cfg).ingest_packet(pkt)  # warm any one-time allocations
    b = EventBuilder(cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        b.ingest_packet(pkt)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(b.open_events) == 1
    return after - before


def test_one_packet_event_costs_the_same_on_a_slash8_as_on_a_slash22():
    small = _one_packet_event_bytes(make_cfg(("10.0.0.0/22",)))
    large = _one_packet_event_bytes(make_cfg(("10.0.0.0/8",)))
    # An Hll alone holds 16 KiB of registers; an open event here is well
    # under 1 KB on either telescope.
    assert small < 1024
    assert large == small


class TestFingerprintCounters:
    def test_partition(self, cfg_slash22):
        pkts = [
            mk_pkt(0, SRC, DARK[0], proto="tcp", dport=23, ip_id=54321, seq=1),
            mk_pkt(1 * US, SRC, DARK[1], proto="tcp", dport=23, ip_id=54321, seq=1),
            mk_pkt(2 * US, SRC, DARK[2], proto="tcp", dport=23, ip_id=9, seq=1),
        ]
        _, evs = run_stream(cfg_slash22, pkts)
        (ev,) = evs
        assert ev.zmap_pkts == 2
        assert ev.zmap_pkts + ev.masscan_pkts + ev.other_pkts == ev.pkt_count


class TestEventLogIo:
    def test_round_trip(self, cfg_slash22, tmp_path):
        pkts = [mk_pkt(i * US, SRC, DARK[i], dport=53) for i in range(5)]
        pkts += [mk_pkt(i * US, SRC, DARK[i], proto="icmp") for i in range(5, 9)]
        _, evs = run_stream(cfg_slash22, pkts)
        path = tmp_path / "events.jsonl"
        write_event_log(path, evs)
        assert list(read_event_log(path)) == evs

    def test_port_zero_tcp_and_udp_events_read_back(self, cfg_slash22, tmp_path):
        # Port 0 marks ICMP keys, but TCP and UDP probes to port 0 are real
        # traffic; their events must pass the validation on read.
        pkts = [mk_pkt(0, SRC, DARK[0], proto="tcp", dport=0), mk_pkt(1, SRC, DARK[1], dport=0)]
        _, evs = run_stream(cfg_slash22, pkts)
        assert sorted(ev.key.traffic_type.value for ev in evs) == ["tcp_syn", "udp"]
        assert {ev.key.dst_port for ev in evs} == {0}
        path = tmp_path / "events.jsonl"
        write_event_log(path, evs)
        assert list(read_event_log(path)) == evs

    def test_log_is_jsonl_with_pinned_fields(self, cfg_slash22, tmp_path):
        import json

        _, evs = run_stream(cfg_slash22, [mk_pkt(0, SRC, DARK[0], dport=53)])
        path = tmp_path / "events.jsonl"
        write_event_log(path, evs)
        obj = json.loads(path.read_text().splitlines()[0])
        assert set(obj) == {
            "key", "start_ts", "end_ts", "pkt_count", "unique_dst_count",
            "zmap_pkts", "masscan_pkts", "other_pkts",
        }
        assert set(obj["key"]) == {"src_ip", "dst_port", "traffic_type"}
        assert obj["key"]["src_ip"] == SRC
        assert isinstance(obj["start_ts"], int)


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=1200 * US),
            st.sampled_from([600 * US - 1, 600 * US, 600 * US + 1]),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_property_split_matches_oracle(gaps):
    cfg = make_cfg(("10.0.0.0/22",))
    ts = [0]
    for g in gaps:
        ts.append(ts[-1] + g)
    pkts = [mk_pkt(t, SRC, DARK[i % 1024], dport=53) for i, t in enumerate(ts)]
    b = EventBuilder(cfg)
    evs = run_builder(b, pkts)
    assert [(e.start_ts, e.end_ts) for e in evs] == offline_intervals(ts, 600 * US)
    assert b.packets_in == len(ts)
    assert sum(e.pkt_count for e in evs) == len(ts)


# ---------------------------------------------------------------------------
# EventBuilder.fold against the per-packet oracle in helpers.py.

_FOLD_SRCS = [ip_to_int(f"198.51.100.{i}") for i in (1, 2, 3)]
_FOLD_COUNTERS = (
    "packets_in", "dropped_non_scanning", "outside_darknet", "out_of_order",
    "sketch_clamped", "events_emitted", "pkts_emitted",
)


def _fold_packet(draw, ts, dst_pool):
    """One packet of a kind a telescope sees, probe or not, at time ts."""
    kind = draw(st.sampled_from(["syn", "syn", "synack", "rst", "udp", "udp", "echo", "icmp"]))
    src = draw(st.sampled_from(_FOLD_SRCS))
    dst = draw(dst_pool)
    dport = draw(st.sampled_from([0, 22, 53, 80]))
    seq = draw(st.integers(0, 2**32 - 1))
    ip_id = draw(st.one_of(st.just(54321), st.just((dst ^ dport ^ seq) & 0xFFFF),
                           st.integers(0, 0xFFFF)))
    if kind in ("syn", "synack", "rst"):
        flags = {"syn": draw(st.sampled_from([0x02, 0x22])), "synack": 0x12, "rst": 0x04}[kind]
        return mk_pkt(ts, src, dst, proto="tcp", dport=dport, flags=flags, seq=seq, ip_id=ip_id)
    if kind == "udp":
        return mk_pkt(ts, src, dst, dport=dport, ip_id=ip_id)
    icmp_type = 8 if kind == "echo" else draw(st.sampled_from([0, 3, 11]))
    return mk_pkt(ts, src, dst, proto="icmp", icmp_type=icmp_type, ip_id=ip_id)


@st.composite
def _fold_case(draw):
    """A config, a reorder slack and a packet stream for it.

    Mixes every packet kind, destinations inside, between and outside the
    telescope's prefixes, gaps around the 5 s timeout and stragglers. On the
    /11 a full sweep of more than 256 addresses is promoted to a sketch.
    """
    wide = draw(st.booleans())
    prefixes = ("10.0.0.0/11",) if wide else ("10.0.0.0/24", "10.0.2.0/24")
    cfg = make_cfg(prefixes, event_timeout_s=5.0)
    base = ip_to_int("10.0.0.0")
    dst_pool = st.one_of(
        st.integers(base, base + 767),
        st.sampled_from([base - 1, base + 2**21, ip_to_int("192.168.0.1")]),
    )
    arrivals = []
    t = 0
    for _ in range(draw(st.integers(0, 60))):
        t += draw(st.sampled_from([0, 1, US, 2 * US + 500_000, 5 * US, 5 * US + 1, 12 * US]))
        straggle = draw(st.sampled_from([0, 0, 0, -1, -US, -3 * US]))
        arrivals.append((t, _fold_packet(draw, max(0, t + straggle), dst_pool)))
    if wide and draw(st.booleans()):
        src = draw(st.sampled_from(_FOLD_SRCS))
        n = draw(st.integers(250, 320))
        start = draw(st.integers(0, max(0, t)))
        for i in range(n):
            dst = base + (i * 7919) % cfg.darknet_size
            arrivals.append((start + i * 10_000, mk_pkt(start + i * 10_000, src, dst, dport=53)))
    arrivals.sort(key=lambda a: a[0])
    slack_s = draw(st.sampled_from([0.0, 2.0, 10.0]))
    return cfg, slack_s, [p for _, p in arrivals]


@settings(max_examples=150, deadline=None)
@given(case=_fold_case(), data=st.data())
def test_property_fold_matches_per_packet_oracle(case, data):
    cfg, slack_s, pkts = case
    oracle = OracleEventBuilder(cfg, reorder_slack_s=slack_s)
    want = run_builder(oracle, pkts)

    one = EventBuilder(cfg, reorder_slack_s=slack_s)
    got = list(one.fold(pkts)) + one.flush()
    assert got == want
    # Plain tuples, as PcapReader yields them, cut into several fold calls as
    # when one run reads several capture files.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pkts)), max_size=3)))
    split = EventBuilder(cfg, reorder_slack_s=slack_s)
    got_split = []
    for lo, hi in zip([0, *cuts], [*cuts, len(pkts)]):
        got_split += split.fold(tuple(p) for p in pkts[lo:hi])
    got_split += split.flush()
    assert got_split == want
    for name in _FOLD_COUNTERS:
        assert getattr(one, name) == getattr(split, name) == getattr(oracle, name), name
