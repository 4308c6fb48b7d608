import ipaddress
import random
import sys
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from darklens.detect import classify_dispersion
from darklens.events import EventBuilder
from darklens.model import (
    TRAFFIC_TYPES, Protocol, TrafficType, ip_to_int, read_event_log, write_event_log,
)
from helpers import (
    US, OracleEventBuilder, decode_event, make_cfg, mk_pkt, offline_intervals, run_builder,
    traced_peak,
)

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
        assert len({e[:3] for e in evs}) == 4

    def test_flush_orders_by_key(self, cfg_slash22):
        pkts = [
            mk_pkt(0, "198.51.100.20", DARK[0], dport=90),
            mk_pkt(1 * US, "198.51.100.3", DARK[0], dport=22),
            mk_pkt(2 * US, "198.51.100.3", DARK[0], dport=21),
        ]
        _, evs = run_stream(cfg_slash22, pkts)
        keys = [(e.src_ip, e.dst_port, TRAFFIC_TYPES[e.traffic_type].value) for e in evs]
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
        assert any(e.dst_port == 7 for e in emitted)

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

    def test_wide_telescope_counts_exactly(self, cfg_wide):
        # 50,000 destinations on a /11, far past the set-to-bitmap switch at
        # 2,048, 10,000 of them twice.
        rng = random.Random(5)
        base = ip_to_int("10.0.0.0")
        n = 50_000
        dsts = rng.sample(range(base, base + cfg_wide.darknet_size), n)
        pkts = [mk_pkt(i * 10, SRC, d) for i, d in enumerate(dsts + dsts[:10_000])]
        _, evs = run_stream(cfg_wide, pkts)
        (ev,) = evs
        assert (ev.pkt_count, ev.unique_dst_count) == (n + 10_000, n)

    def test_one_packet_on_a_wide_telescope_counts_one(self, cfg_wide):
        _, evs = run_stream(cfg_wide, [mk_pkt(0, SRC, "10.0.0.1")])
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
            assert decode_event(e.to_json_line()) == e
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
        assert not classify_dispersion(ev.unique_dst_count, cfg_slash22)
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
    fires = any(classify_dispersion(e.unique_dst_count, cfg) for e in evs)
    assert fires == (len(inside) * 10_000 >= round(fraction * 10_000) * 512)


def _darknet_offset(nets, ip: int) -> int:
    """ip's index in the sorted darknet nets, found by walking them."""
    before = 0
    for net in nets:
        if ipaddress.IPv4Address(ip) in net:
            return before + ip - int(net.network_address)
        before += net.num_addresses
    raise ValueError(f"{ip} outside the darknet")


def _darknet_address(nets, index: int) -> int:
    """The index-th address of the sorted darknet nets, found by walking them."""
    for net in nets:
        if index < net.num_addresses:
            return int(net.network_address) + index
        index -= net.num_addresses
    raise IndexError(index)


class TestSetToBitmap:
    def test_small_events_stay_sets_on_a_wide_telescope(self, cfg_wide):
        rng = random.Random(3)
        base = ip_to_int("10.0.0.0")
        for n in (1, 2, 17, 2047, 2048):
            dsts = rng.sample(range(base, base + cfg_wide.darknet_size), n)
            b = EventBuilder(cfg_wide)
            # every destination twice, so pkt_count cannot bound the count
            assert list(b.fold(mk_pkt(i * 10, SRC, d) for i, d in enumerate(dsts + dsts))) == []
            (state,) = b.open_events.values()
            assert type(state.dsts) is set
            (ev,) = b.flush()
            assert (ev.pkt_count, ev.unique_dst_count) == (2 * n, n)

    def test_switch_happens_past_darknet_size_over_1024(self, cfg_wide):
        b = EventBuilder(cfg_wide)
        base = ip_to_int("10.0.0.0")
        list(b.fold(mk_pkt(i, SRC, base + i) for i in range(2048)))
        (state,) = b.open_events.values()
        assert state.dsts == set(range(2048))
        list(b.fold([mk_pkt(2048, SRC, base + 2048)]))
        assert type(state.dsts) is bytearray
        assert len(state.dsts) == cfg_wide.darknet_size // 8 == 256 << 10
        (ev,) = b.flush()
        assert ev.unique_dst_count == 2049

    def test_bitmap_indexes_a_gapped_darknet_densely(self):
        # A /16 and a /22 with 10.0.4.0-10.1.255.255 between them: 66,560
        # addresses, 8,320 bitmap bytes, the switch past 65 destinations.
        cfg = make_cfg(("10.2.0.0/16", "10.0.0.0/22"))
        nets = sorted(ipaddress.IPv4Network(p) for p in cfg.darknet_prefixes)
        rng = random.Random(9)
        dsts = [ip_to_int("10.0.0.0") + rng.randrange(1024) for _ in range(40)]
        dsts += [ip_to_int("10.2.0.0") + rng.randrange(1 << 16) for _ in range(300)]
        dsts += [ip_to_int(a) for a in ("10.0.0.0", "10.0.3.255", "10.2.0.0", "10.2.255.255")]
        rng.shuffle(dsts)
        b = EventBuilder(cfg)
        list(b.fold(mk_pkt(i * 10, SRC, d) for i, d in enumerate(dsts + dsts[:50])))
        want = bytearray(66_560 // 8)
        for d in dsts:
            k = _darknet_offset(nets, d)
            want[k // 8] |= 1 << (k % 8)
        (state,) = b.open_events.values()
        assert state.dsts == want
        (ev,) = b.flush()
        assert (ev.pkt_count, ev.unique_dst_count) == (len(dsts) + 50, len(set(dsts)))

    def test_slash22_counts_exactly_across_the_switch(self, cfg_slash22):
        # On a /22 the set holds one offset; a second one makes a 128-byte bitmap.
        b = EventBuilder(cfg_slash22)
        list(b.fold([mk_pkt(0, SRC, DARK[5]), mk_pkt(1, SRC, DARK[5])]))
        (state,) = b.open_events.values()
        assert state.dsts == {5}
        list(b.fold(mk_pkt(10 + i, SRC, DARK[1023 - i]) for i in range(1024)))
        assert state.dsts == bytearray(b"\xff" * 128)
        (ev,) = b.flush()
        assert (ev.pkt_count, ev.unique_dst_count) == (1026, 1024)


# Telescopes of the exact-count tests: a /8, a /11, a /22, and a /22 plus a
# /16 with a gap between them.
_COUNT_PREFIXES = [
    ("10.0.0.0/8",), ("10.0.0.0/11",), ("10.0.0.0/22",), ("10.0.0.0/22", "10.2.0.0/16"),
]


def _burst_packets(cfg, burst, t0):
    """One key's packets: `distinct` darknet addresses by index from `first`
    in steps of 7919 (coprime to every telescope size here), cycled over
    `n` packets 1 us apart from t0."""
    src, dport, distinct, first, n = burst
    nets = sorted(ipaddress.IPv4Network(p) for p in cfg.darknet_prefixes)
    size = cfg.darknet_size
    udp = Protocol.UDP
    return [(t0 + j, src, _darknet_address(nets, (first + (j % distinct) * 7919) % size),
             udp, 40000, dport, None, 7, None, None, 60) for j in range(n)]


def _assert_counts_exact(pkts, evs):
    """Each event's counts against the packets of its key inside [start_ts, end_ts].

    pkts is an in-order stream of scanning UDP probes into the darknet, so a
    key's events partition its packets by time.
    """
    by_key = {}
    for p in pkts:
        by_key.setdefault((p[1], p[5]), []).append(p)
    for ev in evs:
        mine = [p for p in by_key[(ev.src_ip, ev.dst_port)]
                if ev.start_ts <= p[0] <= ev.end_ts]
        assert (ev.pkt_count, ev.unique_dst_count) == (len(mine), len({p[2] for p in mine}))
    assert sum(ev.pkt_count for ev in evs) == len(pkts)


@settings(max_examples=80, deadline=None)
@given(
    prefixes=st.sampled_from(_COUNT_PREFIXES),
    bursts=st.lists(st.tuples(
        st.sampled_from([ip_to_int("198.51.100.1"), ip_to_int("198.51.100.2")]),
        st.sampled_from([22, 53]),
        st.one_of(st.integers(1, 64), st.sampled_from([-1, 0, 1, 2])),
        st.floats(0, 1, exclude_max=True),
        st.integers(0, 20),
        st.sampled_from([0, US, 5 * US, 5 * US + 1, 40 * US]),
    ), min_size=1, max_size=4),
)
def test_property_unique_dst_count_equals_distinct_destinations(prefixes, bursts):
    # Bursts of one key each to a drawn number of distinct addresses, either
    # well under the set-to-bitmap switch or 1 below to 2 above it, with
    # repeats. A gap either side of the 5 s timeout before each burst closes
    # events by a later packet of their key, in a sweep, or at flush; bursts
    # with no gap interleave.
    cfg = make_cfg(prefixes, event_timeout_s=5.0)
    switch = cfg.darknet_size >> 10
    pkts = []
    t = 0
    for src, dport, distinct, first, repeats, gap in bursts:
        if distinct <= 2:
            distinct = switch + distinct if switch + distinct > 0 else 1
        t += gap
        first = int(first * cfg.darknet_size)
        pkts += _burst_packets(cfg, (src, dport, distinct, first, distinct + repeats), t)
    pkts.sort(key=lambda p: p[0])
    b = EventBuilder(cfg)
    evs = [*b.fold(pkts), *b.flush()]
    _assert_counts_exact(pkts, evs)


@pytest.mark.parametrize("prefixes", _COUNT_PREFIXES, ids=["slash8", "slash11", "slash22", "gapped"])
def test_count_is_exact_whichever_way_an_event_closes(prefixes):
    # Timeout 5 s, so a sweep at most every 2.5 s of stream time. Event A1
    # crosses the switch by one. B's packet at 4.9 s runs a sweep that finds
    # A1 still live, so A's packet at 6 s closes A1 itself. A's packet at
    # 11 s runs the sweep that closes B1; C crosses by two from 6 s and is
    # closed by the sweep B's packet runs at 14 s. A2 and B2 last to the
    # flush.
    cfg = make_cfg(prefixes, event_timeout_s=5.0)
    switch = cfg.darknet_size >> 10
    a, b_src, c = (ip_to_int(f"198.51.100.{i}") for i in (1, 2, 3))
    size = cfg.darknet_size
    pkts = _burst_packets(cfg, (a, 53, switch + 1, 0, switch + 9), 0)
    pkts += _burst_packets(cfg, (b_src, 53, 1, 5, 1), 4_900_000)
    pkts += _burst_packets(cfg, (a, 53, 3, size // 2, 3), 6 * US)
    pkts += _burst_packets(cfg, (c, 53, switch + 2, size // 3, switch + 2), 6 * US + 5)
    pkts += _burst_packets(cfg, (a, 53, 1, size - 1, 1), 11 * US)
    pkts += _burst_packets(cfg, (b_src, 53, 2, 1, 2), 14 * US)
    pkts.sort(key=lambda p: p[0])
    builder = EventBuilder(cfg)
    how = {}
    evs = []
    for p in pkts:
        for ev in builder.ingest_packet(p):
            how[ev.src_ip, ev.start_ts] = "timeout" if ev.src_ip == p[1] else "sweep"
            evs.append(ev)
    for ev in builder.flush():
        how[ev.src_ip, ev.start_ts] = "flush"
        evs.append(ev)
    assert how == {(a, 0): "timeout", (b_src, 4_900_000): "sweep", (c, 6 * US + 5): "sweep",
                   (a, 6 * US): "flush", (b_src, 14 * US): "flush"}
    _assert_counts_exact(pkts, evs)
    assert [ev.unique_dst_count for ev in evs] == [switch + 1, 1, switch + 2, 4, 2]


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
    # A one-packet event holds a one-offset set, well under 1 KB on either
    # telescope.
    assert small < 1024
    assert large == small


def _fold_calls(cfg, n):
    """Python-level calls, by function name, to fold n packets of 4 keys and flush.

    Each key sees a new darknet address per packet (cycling on a /22), and the
    packets span 4n us, well inside one sweep interval, so no event closes
    before the flush.
    """
    base = ip_to_int("10.0.0.0")
    pkts = [tuple(mk_pkt(i * 4 + k, SRC, base + i % cfg.darknet_size, dport=k + 1))
            for i in range(n // 4) for k in range(4)]
    b = EventBuilder(cfg)
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        evs = [*b.fold(pkts), *b.flush()]
    finally:
        sys.setprofile(None)
    assert [ev.pkt_count for ev in evs] == [n // 4] * 4
    return calls


@pytest.mark.parametrize("cfg_name", ["cfg_slash22", "cfg_wide"], ids=["exact", "wide"])
def test_fold_makes_no_call_per_packet(request, cfg_name):
    # Every key switches to a bitmap within the first 10^4 packets on both
    # telescopes (past 1 destination on the /22, 2,048 on the /11), so the
    # further packets cost no call on either.
    cfg = request.getfixturevalue(cfg_name)
    more = _fold_calls(cfg, 20_000)
    more.subtract(_fold_calls(cfg, 10_000))
    assert +more == Counter()


def _sweep_fold(cfg, keys: int, n: int) -> EventBuilder:
    """Fold `keys` sources' sweeps of the first n darknet addresses, one source
    after the other, and leave their events open."""
    base = cfg.range_starts[0]
    udp = Protocol.UDP
    b = EventBuilder(cfg)
    deque(b.fold((k * n + i, 1000 + k, base + i, udp, 40000, 53, None, 7, None, None, 60)
                 for k in range(keys) for i in range(n)), 0)
    assert (len(b.open_events), b.packets_in) == (keys, keys * n)
    return b


def test_full_slash16_sweep_is_held_in_an_8_kib_bitmap():
    # Held as 65,536 addresses in a set, the same sweep peaked at 4.2 MB
    # under tracemalloc. The bitmap is 8 KiB; the set it replaced held 65
    # offsets.
    cfg = make_cfg(("10.0.0.0/16",))
    b, peak = traced_peak(_sweep_fold, cfg, 1, 1 << 16)
    assert peak < 32 << 10
    (ev,) = b.flush()
    assert ev.unique_dst_count == 1 << 16


def test_twenty_events_past_the_switch_hold_twenty_bitmaps():
    # On a /11 each event past 2,048 destinations holds a 256 KiB bitmap,
    # and only the one switching also holds its set of 2,049 offsets.
    cfg = make_cfg(("10.0.0.0/11",))
    b, peak = traced_peak(_sweep_fold, cfg, 20, 2049)
    assert 20 * (256 << 10) < peak < 20 * (256 << 10) + (512 << 10)
    assert [ev.unique_dst_count for ev in b.flush()] == [2049] * 20


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
        assert sorted(TRAFFIC_TYPES[ev.traffic_type] for ev in evs) == [
            TrafficType.TCP_SYN, TrafficType.UDP]
        assert {ev.dst_port for ev in evs} == {0}
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
    "events_emitted", "pkts_emitted",
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
    /11 a sweep of 2,040-2,060 addresses may cross the set-to-bitmap switch
    past 2,048; on the two /24s every event holds a bitmap from its first
    packet.
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
        n = draw(st.integers(2040, 2060))
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
