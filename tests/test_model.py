import contextlib
import io
import ipaddress
import json
import re
import struct
import sys
from _blake2 import blake2b
from collections import Counter, deque
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from darklens.model import (
    ConfigError,
    DarknetConfig,
    DarknetEvent,
    PacketMeta,
    Protocol,
    TrafficType,
    int_to_ip,
    ip_to_int,
    letters_to_flags,
    order_statistic,
    parse_config_text,
    read_event_log,
    slash24_of,
    utc_day,
    write_event_log,
    write_json,
)
from helpers import (
    NONCANONICAL_PREFIXES, check_packet_meta, darknet_contains, decode_event,
    flags_to_letters, oracle_event_from_json_line, oracle_event_json_line, traced_peak,
)

US = 1_000_000
US_PER_DAY = 86_400 * US
EPOCH = date(1970, 1, 1)
# First and last microsecond whose UTC day a datetime.date can hold.
MIN_TS = (date.min - EPOCH).days * US_PER_DAY
MAX_TS = ((date.max - EPOCH).days + 1) * US_PER_DAY - 1


def _cfg(prefixes, **kw):
    return DarknetConfig(darknet_prefixes=list(prefixes), **kw)


class TestValidateConfig:
    def test_size_is_sum_of_prefix_sizes(self):
        cfg = _cfg(["10.0.0.0/24", "10.0.1.0/24"])
        assert cfg.darknet_size == 512

    def test_single_slash22(self):
        assert _cfg(["192.0.2.0/24"]).darknet_size == 256

    def test_empty_prefix_list_rejected(self):
        with pytest.raises(ConfigError, match="darknet_prefixes must not be empty"):
            DarknetConfig(darknet_prefixes=[])

    def test_overlapping_prefixes_rejected(self):
        with pytest.raises(ConfigError, match="prefixes 10.0.0.0/23 and 10.0.1.0/24 overlap"):
            _cfg(["10.0.0.0/23", "10.0.1.0/24"])

    def test_duplicate_prefix_rejected(self):
        with pytest.raises(ConfigError, match="prefixes 10.0.0.0/24 and 10.0.0.0/24 overlap"):
            _cfg(["10.0.0.0/24", "10.0.0.0/24"])

    def test_fraction_zero_rejected(self):
        with pytest.raises(ConfigError, match=r"dispersion_fraction 0.0 not in \(0, 1\]"):
            _cfg(["10.0.0.0/22"], dispersion_fraction=0.0)

    def test_fraction_above_one_rejected(self):
        with pytest.raises(ConfigError, match=r"dispersion_fraction 1.5 not in \(0, 1\]"):
            _cfg(["10.0.0.0/22"], dispersion_fraction=1.5)

    def test_fraction_of_exactly_one_allowed(self):
        cfg = _cfg(["10.0.0.0/22"], dispersion_fraction=1.0)
        assert cfg.dispersion_fraction == 1.0

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError, match=r"alpha 0.0 not in \(0, 1\)"):
            _cfg(["10.0.0.0/22"], alpha=0.0)
        with pytest.raises(ConfigError, match=r"alpha 1.0 not in \(0, 1\)"):
            _cfg(["10.0.0.0/22"], alpha=1.0)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(["10.0.0.0/22"], event_timeout_s=0.0)

    @pytest.mark.parametrize("timeout_s,ok", [(1e-7, False), (4.99e-7, False), (5e-7, False),
                                              (5.01e-7, True), (1e-6, True)])
    def test_timeout_must_round_to_a_microsecond(self, timeout_s, ok):
        if ok:
            assert _cfg(["10.0.0.0/22"], event_timeout_s=timeout_s).event_timeout_s == timeout_s
        else:
            with pytest.raises(ConfigError, match="must round to at least 1 us"):
                _cfg(["10.0.0.0/22"], event_timeout_s=timeout_s)

    @pytest.mark.parametrize("text", ["inf", "nan", "-inf", "1e308"])
    def test_non_finite_timeout_rejected(self, text):
        # An infinite timeout, or one whose microseconds are, passed a plain
        # > 0 check, then the event builder died rounding it to microseconds.
        with pytest.raises(ConfigError, match="event_timeout_s must be positive and finite"):
            parse_config_text(f"darknet_prefixes = 10.0.0.0/22\nevent_timeout_s = {text}\n")

    def test_undersized_darknet_rejected(self):
        with pytest.raises(ConfigError, match=r"darknet too small \(128 addresses, need >= 256\)"):
            _cfg(["10.0.0.0/25"])

    @pytest.mark.parametrize("prefix", NONCANONICAL_PREFIXES + ["10.0.0.1/22"])
    def test_noncanonical_prefix_rejected_when_built(self, prefix):
        with pytest.raises(ConfigError, match=f"{prefix!r}"):
            _cfg(["192.0.2.0/24", prefix])

    def test_checked_when_built_and_frozen(self):
        cfg = _cfg(["10.0.0.0/24", "10.0.2.0/24"])
        assert (cfg.range_starts, cfg.range_ends) == (
            (ip_to_int("10.0.0.0"), ip_to_int("10.0.2.0")),
            (ip_to_int("10.0.0.255"), ip_to_int("10.0.2.255")),
        )
        with pytest.raises(AttributeError):
            cfg.darknet_size = 1 << 20
        with pytest.raises(TypeError):
            DarknetConfig(darknet_prefixes=["10.0.0.0/22"], darknet_size=1024)

    def test_contains(self):
        cfg = _cfg(["10.0.0.0/24", "10.0.2.0/24"])
        assert darknet_contains(cfg, ip_to_int("10.0.0.255"))
        assert darknet_contains(cfg, ip_to_int("10.0.2.1"))
        assert not darknet_contains(cfg, ip_to_int("10.0.1.0"))

    @settings(max_examples=200, deadline=None)
    @given(
        blocks=st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=12),
        lens=st.lists(st.integers(min_value=0, max_value=2), min_size=12, max_size=12),
        probes=st.lists(st.integers(min_value=-4, max_value=(64 << 10) + 4), max_size=60),
    )
    def test_contains_matches_ipaddress_oracle(self, blocks, lens, probes):
        # Disjoint prefixes of /22, /23 or /24 placed in distinct /22 blocks
        # of 10.0.0.0/16, so some are adjacent and some are not.
        base = ip_to_int("10.0.0.0")
        nets = [
            ipaddress.IPv4Network((base + (b << 10), 22 + lens[i]))
            for i, b in enumerate(sorted(blocks))
        ]
        cfg = _cfg([str(n) for n in nets])
        assert cfg.darknet_size == sum(n.num_addresses for n in nets)
        edges = [int(n.network_address) + d for n in nets for d in (-1, 0)]
        edges += [int(n.broadcast_address) + d for n in nets for d in (0, 1)]
        for ip in edges + [base + off for off in probes]:
            want = any(ipaddress.IPv4Address(ip) in n for n in nets)
            assert darknet_contains(cfg, ip) is want


class TestParseConfigText:
    def test_round_trip_keys(self):
        text = """
        # telescope definition
        darknet_prefixes = 10.0.0.0/24, 10.0.1.0/24
        event_timeout_s = 300
        dispersion_fraction = 0.2
        alpha = 0.001
        """
        cfg = parse_config_text(text)
        assert cfg.darknet_size == 512
        assert cfg.event_timeout_s == 300.0
        assert cfg.dispersion_fraction == 0.2
        assert cfg.alpha == 0.001

    def test_defaults_when_omitted(self):
        cfg = parse_config_text("darknet_prefixes = 10.0.0.0/22\n")
        assert cfg.event_timeout_s == 600.0
        assert cfg.dispersion_fraction == 0.10
        assert cfg.alpha == 0.0001

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("darknet_prefixes = 10.0.0.0/22\nbogus_key = 1\n")

    def test_bad_cidr_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("darknet_prefixes = 10.0.0.0/33\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("darknet_prefixes = 10.0.0.0/22\nalpha = lots\n")

    def test_scan_rate_key_rejected(self):
        # Nothing read this key, so a config that sets it now fails loudly.
        with pytest.raises(ConfigError, match="line 2: unknown key 'assumed_scan_rate_pps'"):
            parse_config_text("darknet_prefixes = 10.0.0.0/22\nassumed_scan_rate_pps = 100\n")

    @pytest.mark.parametrize("prefix", NONCANONICAL_PREFIXES)
    def test_noncanonical_prefix_names_its_line(self, prefix):
        text = f"# telescope\ndarknet_prefixes = 192.0.2.0/24, {prefix}\n"
        with pytest.raises(ConfigError, match=f"^line 2: invalid IPv4 prefix {prefix!r}$"):
            parse_config_text(text)

    def test_darknet_size_key_rejected(self):
        # The size is derived from the prefixes; a stated one was once
        # ignored in silence.
        with pytest.raises(ConfigError, match="line 2: unknown key 'darknet_size'"):
            parse_config_text("darknet_prefixes = 10.0.0.0/22\ndarknet_size = 1024\n")

    def test_missing_prefixes_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("event_timeout_s = 600\n")


class TestTimeHelpers:
    def test_epoch_day_zero(self):
        assert utc_day(0) == date(1970, 1, 1)

    def test_known_day(self):
        # 2022-06-01 00:00:00 UTC
        assert utc_day(1654041600 * US) == date(2022, 6, 1)
        assert utc_day(1654041600 * US + 86_399_999_999) == date(2022, 6, 1)
        assert utc_day(1654041600 * US + 86_400 * US) == date(2022, 6, 2)

    def test_day_bounds_are_inclusive_exclusive(self):
        start = 1654041600 * US  # 2022-06-01 00:00:00 UTC
        assert utc_day(start - 1) == date(2022, 5, 31)
        assert utc_day(start) == date(2022, 6, 1)
        assert utc_day(start + 86_400 * US) == date(2022, 6, 2)

    @given(st.integers(min_value=0, max_value=2**53))
    def test_us_within_its_own_day(self, ts):
        d = utc_day(ts)
        start = (d - date(1970, 1, 1)).days * 86_400 * US
        assert start <= ts < start + 86_400 * US

    @given(
        ts=st.one_of(
            st.integers(min_value=MIN_TS, max_value=MAX_TS),
            st.builds(
                lambda day, off: day * US_PER_DAY + off,
                st.integers(min_value=(date.min - EPOCH).days + 1, max_value=(date.max - EPOCH).days),
                st.sampled_from([-1, 0, 1]),
            ),
        ),
    )
    @example(ts=MIN_TS)
    @example(ts=MAX_TS)
    @example(ts=-1)
    def test_memoised_day_matches_direct_arithmetic(self, ts):
        expected = EPOCH + timedelta(days=ts // US_PER_DAY)
        assert utc_day(ts) == expected
        # A second call is served from the memo and must not drift.
        assert utc_day(ts) == expected
        assert utc_day(ts - ts % US_PER_DAY) == expected

    def test_range_ends(self):
        assert utc_day(MIN_TS) == date.min
        assert utc_day(MAX_TS) == date.max
        assert utc_day(-1) == date(1969, 12, 31)


class TestOrderStatistic:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=60).flatmap(
        lambda values: st.tuples(st.just(values), st.integers(1, len(values)))))
    @example(([7], 1))
    @example(([3, 1, 3, 3, 2], 1))
    @example(([3, 1, 3, 3, 2], 5))
    def test_equals_full_sort(self, case):
        values, k = case
        assert order_statistic(values, k) == sorted(values)[k - 1]

    def test_key_orders_the_elements(self):
        rows = [("a", 3), ("b", 1), ("c", 2), ("d", 1)]
        assert order_statistic(rows, 2, key=lambda row: row[1])[1] == 1
        assert order_statistic(rows, 3, key=lambda row: row[1])[1] == 2


class TestFlags:
    def test_letters(self):
        assert flags_to_letters(0x02) == "S"
        assert flags_to_letters(0x12) == "SA"
        assert flags_to_letters(0x00) == ""
        assert letters_to_flags("SA") == 0x12
        assert letters_to_flags("FPU") == 0x01 | 0x08 | 0x20

    @given(st.integers(min_value=0, max_value=0x3F))
    def test_round_trip(self, bits):
        assert letters_to_flags(flags_to_letters(bits)) == bits


class TestIpHelpers:
    def test_basic(self):
        assert ip_to_int("10.0.0.5") == (10 << 24) + 5
        assert int_to_ip((10 << 24) + 5) == "10.0.0.5"
        assert int_to_ip(0) == "0.0.0.0"
        assert int_to_ip(2**32 - 1) == "255.255.255.255"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(0)
    @example(2**32 - 1)
    def test_round_trip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @pytest.mark.parametrize("value", [-1, 2**32])
    def test_outside_32_bits_raises_not_wraps(self, value):
        with pytest.raises(struct.error):
            int_to_ip(value)

    @pytest.mark.parametrize(
        "text", ["10.1", "010.0.0.1", "0x0a.0.0.1", "1.2.3.4 junk", "1.2.3.4\n", " 1.2.3.4", "4294967295"]
    )
    def test_non_canonical_forms_rejected(self, text):
        with pytest.raises(ValueError):
            ip_to_int(text)

    @given(
        st.one_of(
            st.lists(
                st.one_of(
                    st.integers(min_value=0, max_value=300).map(str),
                    st.sampled_from(["0", "00", "010", "0x0a", "0XFF", "08", "+1", " 1", "1 ", ""]),
                ),
                min_size=1, max_size=5,
            ).map(".".join),
            st.text(alphabet="0123456789.xX abc\n", max_size=20),
            st.text(max_size=16),
        )
    )
    def test_matches_ipaddress_oracle(self, text):
        try:
            expected = int(ipaddress.IPv4Address(text))
        except ValueError:
            expected = None
        try:
            got = ip_to_int(text)
        except ValueError:
            got = None
        assert got == expected

    def test_slash24(self):
        assert slash24_of(ip_to_int("10.1.2.3")) == ip_to_int("10.1.2.0")
        assert slash24_of(ip_to_int("10.1.2.99")) == ip_to_int("10.1.2.0")
        assert slash24_of(ip_to_int("10.1.3.1")) == ip_to_int("10.1.3.0")


# Any value json round-trips: a float that is not NaN, str keys.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


class TestWriteJson:
    def test_layout_bytes(self, tmp_path):
        write_json(tmp_path / "d.json", {
            "seed": 7,
            "nested": {"a": [1, {"b": None}], "c": "d"},
            "empty_list": [],
            "empty_dict": {},
            "name": "caf\u00e9 \u2603",
            "items": [1, "x", {"y": [2.5, True]}, []],
            "last": [],
        })
        assert (tmp_path / "d.json").read_bytes() == (
            b'{\n'
            b'  "seed": 7,\n'
            b'  "nested": {"a": [1, {"b": null}], "c": "d"},\n'
            b'  "empty_list": [],\n'
            b'  "empty_dict": {},\n'
            b'  "name": "caf\\u00e9 \\u2603",\n'
            b'  "items": [\n'
            b'    1,\n'
            b'    "x",\n'
            b'    {"y": [2.5, true]},\n'
            b'    []\n'
            b'  ],\n'
            b'  "last": []\n'
            b'}\n')

    def test_empty_document(self, tmp_path):
        write_json(tmp_path / "d.json", {})
        assert (tmp_path / "d.json").read_bytes() == b"{}\n"

    def test_key_not_a_string_raises(self, tmp_path):
        with pytest.raises(TypeError, match="keys must be strings"):
            write_json(tmp_path / "d.json", {1: "one"})

    @settings(max_examples=200, deadline=None)
    @given(doc=st.dictionaries(st.text(), _JSON_VALUES, max_size=6))
    def test_round_trips_through_json_load(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("json") / "d.json"
        write_json(path, doc)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == doc
        assert path.read_bytes().endswith(b"\n")

    def test_memory_follows_the_largest_item(self, tmp_path):
        items = [{"ip": int_to_ip(i), "kind": "noise", "ports": [i % 65536], "pkts": i}
                 for i in range(20_000)]
        path = tmp_path / "d.json"
        _, peak = traced_peak(write_json, path, {"seed": 7, "sources": items})
        size = path.stat().st_size
        assert size > 1 << 20
        assert peak < size // 16


# Traffic-type indexes, as an event holds them.
TCP, UDP, ICMP = 0, 1, 2


def _event(**kw):
    base = dict(
        src_ip=ip_to_int("198.51.100.9"),
        dst_port=23,
        traffic_type=TCP,
        start_ts=1000 * US,
        end_ts=1600 * US,
        pkt_count=10,
        unique_dst_count=8,
        zmap_pkts=10,
        masscan_pkts=0,
        other_pkts=0,
    )
    base.update(kw)
    return DarknetEvent(**base)


class TestDarknetEvent:
    def test_json_round_trip(self):
        ev = _event()
        line = ev.to_json_line()
        assert decode_event(line) == ev

    def test_validate_rejects_reversed_times(self):
        with pytest.raises(ValueError, match="<= start_ts <= end_ts <="):
            decode_event(_event(start_ts=2000 * US, end_ts=1000 * US).to_json_line())

    def test_validate_rejects_dst_count_above_size(self):
        with pytest.raises(ValueError, match="unique_dst_count out of range"):
            decode_event(_event(unique_dst_count=2000).to_json_line())

    def test_validate_rejects_bad_fingerprint_partition(self):
        with pytest.raises(ValueError, match="fingerprint counters must partition pkt_count"):
            decode_event(_event(zmap_pkts=3, masscan_pkts=3, other_pkts=3).to_json_line())

    @pytest.mark.parametrize("fields, reason", [
        ({"pkt_count": 2, "unique_dst_count": 1, "zmap_pkts": -5, "masscan_pkts": 7},
         "fingerprint counters must be >= 0"),
        ({"zmap_pkts": 10 ** 6, "other_pkts": 5 - 10 ** 6}, "fingerprint counters must be >= 0"),
        ({"pkt_count": 2 ** 70, "zmap_pkts": 2 ** 70}, "pkt_count must be in"),
        ({"pkt_count": 2 ** 63, "zmap_pkts": 2 ** 63}, "pkt_count must be in"),
    ], ids=["negative_zmap", "negative_other", "2^70_pkts", "2^63_pkts"])
    def test_counts_must_be_non_negative_and_fit_64_bits(self, fields, reason):
        line = _event(**fields).to_json_line()
        with pytest.raises(ValueError, match=reason):
            decode_event(line)
        with pytest.raises(ValueError):
            oracle_event_from_json_line(line)

    def test_largest_count_is_2_63_minus_1(self):
        ev = _event(pkt_count=2 ** 63 - 1, unique_dst_count=2 ** 63 - 1, zmap_pkts=0,
                    other_pkts=2 ** 63 - 1)
        line = ev.to_json_line()
        assert decode_event(line) == oracle_event_from_json_line(line) == ev

    def test_icmp_key_uses_port_zero(self):
        ev = _event(dst_port=0, traffic_type=ICMP)
        assert decode_event(ev.to_json_line()) == ev
        with pytest.raises(ValueError, match="ICMP echo events carry dst_port 0"):
            decode_event(_event(dst_port=23, traffic_type=ICMP).to_json_line())

    @given(
        start=st.integers(min_value=0, max_value=10**12),
        dur=st.integers(min_value=0, max_value=10**9),
        pkts=st.integers(min_value=1, max_value=10**6),
        port=st.integers(min_value=0, max_value=65535),
    )
    def test_round_trip_random(self, start, dur, pkts, port):
        ev = _event(
            src_ip=1,
            dst_port=port,
            traffic_type=ICMP if port == 0 else UDP,
            start_ts=start,
            end_ts=start + dur,
            pkt_count=pkts,
            unique_dst_count=min(pkts, 7),
            zmap_pkts=pkts,
        )
        assert decode_event(ev.to_json_line()) == ev

    @pytest.mark.parametrize("start, end, ok", [
        (MIN_TS, MIN_TS, True),
        (MAX_TS, MAX_TS, True),
        (MIN_TS - 1, 0, False),
        (0, MAX_TS + 1, False),
        (10 ** 22, 10 ** 22, False),
    ])
    def test_timestamps_must_have_a_utc_day(self, start, end, ok):
        ev = _event(start_ts=start, end_ts=end)
        if ok:
            assert decode_event(ev.to_json_line()) == ev
        else:
            with pytest.raises(ValueError, match="<= start_ts <= end_ts <="):
                decode_event(ev.to_json_line())

    @pytest.mark.parametrize("field, value", [
        ("pkt_count", 10.0), ("pkt_count", True), ("pkt_count", "10"),
        ("start_ts", 1000.5), ("other_pkts", False), ("unique_dst_count", None),
    ])
    def test_integer_fields_must_be_json_integers(self, field, value):
        obj = json.loads(_event().to_json_line())
        obj[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a JSON integer"):
            decode_event(json.dumps(obj))

    @pytest.mark.parametrize("value", [23.0, True, "23"])
    def test_port_must_be_a_json_integer(self, value):
        obj = json.loads(_event().to_json_line())
        obj["key"]["dst_port"] = value
        with pytest.raises(ValueError, match="dst_port must be a JSON integer"):
            decode_event(json.dumps(obj))

    def test_unknown_traffic_type_rejected(self):
        obj = json.loads(_event().to_json_line())
        obj["key"]["traffic_type"] = "tcp_fin"
        with pytest.raises(ValueError, match="'tcp_fin' is not a valid TrafficType"):
            decode_event(json.dumps(obj))

    def test_is_an_immutable_hashable_tuple(self):
        ev = _event()
        with pytest.raises(AttributeError):
            ev.pkt_count = 3
        assert hash(ev) == hash(_event())
        assert DarknetEvent._fields == (
            "src_ip", "dst_port", "traffic_type", "start_ts", "end_ts", "pkt_count",
            "unique_dst_count", "zmap_pkts", "masscan_pkts", "other_pkts",
        )
        assert ev == tuple(ev) and not hasattr(DarknetEvent, "validate")


_U63 = st.integers(min_value=0, max_value=2 ** 63)
_ADDRS = st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(min_value=0, max_value=2 ** 32 - 1))

# Any field values at all: the encoder formats, it does not validate.
_raw_events = st.builds(
    lambda ip, port, ttype, rest: DarknetEvent(ip, port, ttype, *rest),
    _ADDRS,
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from([TCP, UDP, ICMP]),
    st.tuples(st.integers(min_value=MIN_TS, max_value=MAX_TS),
              st.integers(min_value=MIN_TS, max_value=MAX_TS), *[_U63] * 5),
)


@st.composite
def _valid_events(draw, addrs=_ADDRS):
    ttype = draw(st.sampled_from([TCP, UDP, ICMP]))
    port = 0 if ttype == ICMP else draw(st.integers(0, 0xFFFF))
    start = draw(st.integers(min_value=MIN_TS, max_value=MAX_TS))
    end = draw(st.integers(min_value=start, max_value=MAX_TS))
    pkts = draw(st.integers(min_value=1, max_value=2 ** 63 - 1))
    zmap = draw(st.integers(min_value=0, max_value=pkts))
    masscan = draw(st.integers(min_value=0, max_value=pkts - zmap))
    dsts = draw(st.integers(min_value=1, max_value=pkts))
    return DarknetEvent(draw(addrs), port, ttype, start, end, pkts, dsts,
                        zmap, masscan, pkts - zmap - masscan)


@st.composite
def _respelled(draw, ev):
    """The event's line re-spelled: other key order, spacing and escapes."""
    obj = json.loads(oracle_event_json_line(ev))
    inner = {k: obj["key"][k] for k in draw(st.permutations(list(obj["key"])))}
    outer = {k: inner if k == "key" else obj[k] for k in draw(st.permutations(list(obj)))}
    sep = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", " :  ")]))
    text = json.dumps(outer, separators=sep)
    addr = obj["key"]["src_ip"]
    escaped = "".join(
        f"\\u{ord(ch):04x}" if esc else ch
        for ch, esc in zip(addr, draw(st.lists(st.booleans(), min_size=len(addr), max_size=len(addr))))
    )
    text = text.replace(f'"{addr}"', f'"{escaped}"')
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " ", "\t"]))


class TestEventCodec:
    """The template encoder and lean decoder against the json.dumps/dict oracles."""

    @given(_raw_events)
    @example(DarknetEvent(0, 0, TCP, MIN_TS, MIN_TS, 0, 0, 0, 0, 0))
    @example(DarknetEvent(2 ** 32 - 1, 0xFFFF, UDP, MAX_TS, MAX_TS,
                          2 ** 63, 2 ** 63, 2 ** 63, 2 ** 63, 2 ** 63))
    def test_encode_matches_oracle_bytes(self, ev):
        assert ev.to_json_line().encode() == oracle_event_json_line(ev).encode()

    @given(_valid_events())
    def test_round_trip(self, ev):
        assert decode_event(ev.to_json_line()) == ev

    @given(st.data())
    def test_decoder_agrees_with_oracle_on_any_spelling(self, data):
        ev = data.draw(_valid_events())
        line = data.draw(_respelled(ev))
        assert decode_event(line, {}) == oracle_event_from_json_line(line) == ev

    @given(st.lists(_valid_events(addrs=st.sampled_from([0, 1, 0x0A000001, 0xC6336409, 2 ** 32 - 1])),
                    min_size=2, max_size=40))
    def test_shared_memo_never_mixes_up_sources(self, events):
        ips = {}
        for ev in events:
            line = ev.to_json_line()
            assert decode_event(line, ips) == oracle_event_from_json_line(line) == ev
        assert ips == {int_to_ip(ev.src_ip): ev.src_ip for ev in events}

    def test_memo_is_keyed_by_the_decoded_address(self):
        ips = {}
        plain = _event().to_json_line()
        escaped = plain.replace('"198.51.100.9"', '"198.51.100.\\u0039"')
        assert decode_event(plain, ips) == decode_event(escaped, ips)
        assert ips == {"198.51.100.9": ip_to_int("198.51.100.9")}
        with pytest.raises(ValueError, match="invalid IPv4 address"):
            decode_event(plain.replace("198.51.100.9", "198.51.100.09"), ips)
        assert len(ips) == 1


# The spoilt fields of tests/test_cli.py::TestRottenInputs::test_detect_invalid_event_exits_2
# that make any event invalid, whatever its other fields hold.
_SPOILS = [
    {"pkt_count": 0, "zmap_pkts": 0, "masscan_pkts": 0, "other_pkts": 0},
    {"unique_dst_count": 0},
    {"start_ts": 10 ** 18},
    {"start_ts": 10 ** 22, "end_ts": 10 ** 22},
    {"start_ts": -(10 ** 22)},
    {"pkt_count": 1.9},
    {"pkt_count": True},
    {"zmap_pkts": "5"},
    {"pkt_count": 2, "unique_dst_count": 1, "zmap_pkts": -5, "masscan_pkts": 7, "other_pkts": 0},
    {"pkt_count": 2 ** 70, "zmap_pkts": 2 ** 70, "masscan_pkts": 0, "other_pkts": 0},
]


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("event_log") / "events.jsonl"


class TestEventLogReader:
    """read_event_log over whole files, against the oracle applied line by line."""

    @given(st.data())
    @settings(max_examples=150)
    def test_file_decodes_like_the_oracle_and_names_the_first_bad_line(self, log_path, data):
        events = _valid_events(addrs=st.sampled_from([0, 0x0A000001, 0xC6336409]))
        lines = []
        for kind in data.draw(st.lists(st.sampled_from(["canonical", "respelled", "blank"]),
                                       max_size=25)):
            if kind == "blank":
                lines.append(data.draw(st.sampled_from(["", " ", "\t", " \t "])))
            elif kind == "canonical":
                lines.append(data.draw(events).to_json_line())
            else:
                lines.append(data.draw(events.flatmap(_respelled)))
        expected = [oracle_event_from_json_line(line) for line in lines if line.strip()]
        # None, or where a spoiled line goes, and optionally a second one after it.
        first = data.draw(st.none() | st.integers(0, len(lines)))
        if first is not None:
            spoils = data.draw(st.lists(st.sampled_from(_SPOILS), min_size=1, max_size=2))
            at = [first] + data.draw(st.lists(st.integers(first + 1, len(lines) + 1), max_size=1))
            for pos, spoil in zip(at, spoils):
                obj = json.loads(data.draw(events).to_json_line())
                lines.insert(pos, json.dumps(dict(obj, **spoil)))
        log_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        if first is None:
            assert list(read_event_log(log_path)) == expected
        else:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(log_path))}:{first + 1}: "
                                                 r"malformed line \(ValueError: "):
                list(read_event_log(log_path))

    def test_decoder_streams(self, tmp_path):
        path = tmp_path / "big.jsonl"
        path.write_text((_event().to_json_line() + "\n") * 50_000, encoding="utf-8")
        _, peak = traced_peak(deque, read_event_log(path), 0)  # maxlen 0: drain, keep nothing
        assert path.stat().st_size > 9 * 10 ** 6
        assert peak < 10 ** 6

    @pytest.mark.parametrize("wrapped", [
        "\x1c {line}\u3000", "\u00a0{line}", "{line}\u2028", "\ufeff{line}",
    ])
    def test_only_json_whitespace_is_stripped(self, tmp_path, wrapped):
        line = wrapped.format(line=_event().to_json_line())
        path = tmp_path / "events.jsonl"
        path.write_text(f"\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            list(read_event_log(path))
        with pytest.raises(json.JSONDecodeError) as loads_err:
            json.loads(line.strip(" \t\r\n"))
        assert str(err.value) == f"{path}:2: malformed line (JSONDecodeError: {loads_err.value})"

    def test_a_blank_line_is_not_an_event(self):
        with pytest.raises(ValueError):
            decode_event(" \t")


# Any event the binary record can hold, valid or not.
_I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_packable_events = st.builds(
    lambda ip, port, ttype, rest: DarknetEvent(ip, port, ttype, *rest),
    _ADDRS,
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from([TCP, UDP, ICMP]),
    st.tuples(*[st.one_of(st.integers(-2, 3), _I64)] * 7),
)
_MULTI_DAY = DarknetEvent(0x0A000001, 443, TCP,
                          US_PER_DAY - 1, 3 * US_PER_DAY + 5, 9, 4, 2, 3, 4)
_BOUNDS = [
    DarknetEvent(0, 0, ICMP, MIN_TS, MAX_TS, 2 ** 63 - 1, 2 ** 63 - 1, 2 ** 63 - 1, 0, 0),
    DarknetEvent(2 ** 32 - 1, 0xFFFF, UDP, MAX_TS, MAX_TS, 1, 1, 0, 0, 1),
    DarknetEvent(7, 0, TCP, MIN_TS, MIN_TS, 1, 1, 1, 0, 0),
    _MULTI_DAY,
]
# The rows of _BOUNDS, spelled out: traffic types 0 tcp_syn, 1 udp, 2 icmp_echo_request.
_BOUND_ROWS = [
    (0, 0, 2, MIN_TS, MAX_TS, 2 ** 63 - 1, 2 ** 63 - 1, 2 ** 63 - 1, 0, 0),
    (2 ** 32 - 1, 0xFFFF, 1, MAX_TS, MAX_TS, 1, 1, 0, 0, 1),
    (7, 0, 0, MIN_TS, MIN_TS, 1, 1, 1, 0, 0),
    (0x0A000001, 443, 0, US_PER_DAY - 1, 3 * US_PER_DAY + 5, 9, 4, 2, 3, 4),
]


def _outcome(path):
    """read_event_log(path) as ("rows", list) or ("error", text), with what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            got = ("rows", list(read_event_log(path)))
        except ValueError as exc:
            got = ("error", str(exc))
    return got, out.getvalue()


def _json_outcome(path):
    """The outcome of the JSON path alone: the binary copy moved aside while it reads."""
    copy = Path(f"{path}.bin")
    aside = copy.with_name(copy.name + ".aside")
    copy.rename(aside)
    try:
        return _outcome(path)
    finally:
        aside.rename(copy)


def _drain_calls(path):
    """Calls made while read_event_log(path) is drained, by name.

    A Python function counts once per frame it runs in, so resuming a
    generator is not a new call; a C function called from Python code counts
    each call, as "c:" and its qualified name.
    """
    frames, calls = set(), Counter()

    def profile(frame, event, arg):
        if event == "call" and frame not in frames:
            frames.add(frame)
            calls[frame.f_code.co_name] += 1
        elif event == "c_call":
            calls["c:" + arg.__qualname__] += 1

    sys.setprofile(profile)
    try:
        deque(read_event_log(path), 0)
    finally:
        sys.setprofile(None)
    return calls


class TestBinaryCopy:
    """write_event_log's binary copy: read in place of the JSON only when it provably matches."""

    @given(st.lists(st.one_of(_valid_events(), _packable_events, st.sampled_from(_BOUNDS)),
                    max_size=30))
    @example(_BOUNDS)
    @example([])
    @settings(max_examples=200)
    def test_copy_reads_like_the_json(self, log_path, events):
        assert write_event_log(log_path, events) == len(events)
        got, printed = _outcome(log_path)
        assert printed == ""  # the copy was used
        assert _json_outcome(log_path) == (got, "")
        if got[0] == "rows":
            assert got[1] == events
            assert all(type(row) is tuple for row in got[1])
            assert all(type(field) is int for row in got[1] for field in row)
        else:
            assert re.match(rf"^{re.escape(str(log_path))}:\d+: malformed line \(", got[1])

    @given(st.lists(_valid_events(), max_size=30))
    @example(_BOUNDS)
    @settings(max_examples=150)
    def test_what_events_writes_is_what_detect_reads(self, log_path, events):
        # Rows equal the events written, field by field, through the copy and
        # through the JSON alone, and each line is the oracle's event.
        assert write_event_log(log_path, events) == len(events)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert [oracle_event_from_json_line(line) for line in lines] == events
        assert _outcome(log_path) == (("rows", events), "")
        Path(f"{log_path}.bin").unlink()
        got = _outcome(log_path)
        assert got == (("rows", events), "")
        assert all(type(row) is tuple for row in got[0][1])

    def test_bounds_read_as_flat_rows(self, tmp_path):
        # ICMP, both timestamp bounds, MAX_COUNT in every count and a
        # multi-day event, as literal rows through the copy and the JSON.
        path = tmp_path / "events.jsonl"
        write_event_log(path, _BOUNDS)
        assert _outcome(path) == _json_outcome(path) == (("rows", _BOUND_ROWS), "")

    def test_first_bad_record_names_its_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_event_log(path, [_event(), _event(unique_dst_count=11), _event(pkt_count=0)])
        got, printed = _outcome(path)
        assert got == ("error",
                       f"{path}:2: malformed line (ValueError: unique_dst_count out of range)")
        assert printed == ""

    # Each range rule of the event row, in the order the rules are checked:
    # where the break can be held, an event that breaks it and no rule before
    # it, and the message. The writer refuses an event that breaks the first or
    # the seventh (no TrafficType has index 3, and a record holds no port over
    # 65535), so those two are written valid and spoiled in the one encoding
    # that can hold the break.
    @pytest.mark.parametrize("held_by, fields, message", [
        ("copy", {"traffic_type": 3}, "3 is not a valid TrafficType"),
        ("both", {"start_ts": MAX_TS, "end_ts": MAX_TS + 1},
         f"need {MIN_TS} <= start_ts <= end_ts <= {MAX_TS}"),
        ("both", {"pkt_count": 0, "unique_dst_count": 0},
         "pkt_count must be in [1, 9223372036854775807]"),
        ("both", {"unique_dst_count": 11}, "unique_dst_count out of range"),
        ("both", {"zmap_pkts": -1, "masscan_pkts": 11}, "fingerprint counters must be >= 0"),
        ("both", {"masscan_pkts": 1}, "fingerprint counters must partition pkt_count"),
        ("json", {"dst_port": 0x10000}, "dst_port out of range"),
        ("both", {"traffic_type": ICMP}, "ICMP echo events carry dst_port 0"),
    ], ids=["traffic_type", "timestamps", "pkt_count", "unique_dst_count", "tools_negative",
            "tools_partition", "dst_port", "icmp_port"])
    def test_each_rule_reads_alike_through_the_copy_and_the_json(
        self, tmp_path, held_by, fields, message
    ):
        path = tmp_path / "events.jsonl"
        error = (("error", f"{path}:2: malformed line (ValueError: {message})"), "")
        if held_by == "both":
            write_event_log(path, [_event(), _event(**fields)])
            assert _outcome(path) == _json_outcome(path) == error
            return
        write_event_log(path, [_event(), _event()])
        copy = Path(f"{path}.bin")
        if held_by == "copy":
            data = bytearray(copy.read_bytes())
            data[80 + 63 + 6] = fields["traffic_type"]
            data[48:80] = blake2b(data[80:], digest_size=32).digest()
            copy.write_bytes(data)
        else:
            copy.unlink()
            first, second = path.read_text().splitlines()
            second = second.replace('"dst_port":23,', '"dst_port":%d,' % fields["dst_port"])
            path.write_text(f"{first}\n{second}\n")
        assert _outcome(path) == error

    @pytest.mark.parametrize("spoil, named", [
        ({"start_ts": MAX_TS, "end_ts": MAX_TS + 1, "other_pkts": 0.0}, "other_pkts"),
        ({"pkt_count": "10", "unique_dst_count": 11}, "pkt_count"),
        ({"key": {"dst_port": 70000.5}, "zmap_pkts": -1, "masscan_pkts": 11}, "dst_port"),
    ])
    def test_json_integer_rule_comes_before_every_range_rule(self, tmp_path, spoil, named):
        obj = json.loads(_event().to_json_line())
        for name, value in spoil.items():
            if name == "key":
                obj["key"].update(value)
            else:
                obj[name] = value
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        (kind, text), printed = _outcome(path)
        assert (kind, printed) == ("error", "")
        assert text.startswith(f"{path}:1: malformed line (ValueError: {named} must be a JSON "
                               f"integer, not ")

    @pytest.mark.parametrize("index", [3, 255])
    def test_record_with_no_traffic_type_names_its_line(self, tmp_path, index):
        # Byte 6 of a record is its traffic-type index; write_event_log never
        # writes one past the enum, so the second record and the record
        # digest are rewritten by hand.
        path = tmp_path / "events.jsonl"
        write_event_log(path, [_event(), _event(), _event()])
        copy = Path(f"{path}.bin")
        data = bytearray(copy.read_bytes())
        data[80 + 63 + 6] = index
        data[48:80] = blake2b(data[80:], digest_size=32).digest()
        copy.write_bytes(data)
        got, printed = _outcome(path)
        assert printed == ""  # the copy matches its header, so it is read
        assert got == ("error",
                       f"{path}:2: malformed line (ValueError: {index} is not a valid TrafficType)")

    def test_header_and_records_are_fixed_width(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_event_log(path, [_BOUNDS[0], _MULTI_DAY])
        data = Path(f"{path}.bin").read_bytes()
        assert len(data) == 80 + 2 * 63
        assert data[:16] == b"DLEVBIN\x01" + (2).to_bytes(8, "little")
        assert data[16:48] == blake2b(path.read_bytes(), digest_size=32).digest()
        assert data[48:80] == blake2b(data[80:], digest_size=32).digest()
        assert data[80:] == (struct.pack("<IHB7q", 0, 0, 2, *_BOUNDS[0][3:])
                             + struct.pack("<IHB7q", 0x0A000001, 443, 0, *_MULTI_DAY[3:]))

    @pytest.mark.parametrize("field, value", [
        ("dst_port", 0x10000), ("src_ip", -1), ("src_ip", 2 ** 32), ("pkt_count", 2 ** 63),
        ("start_ts", -(2 ** 63) - 1), ("traffic_type", "tcp_fin"),
        ("traffic_type", 3), ("traffic_type", -1),
        ("traffic_type", TrafficType.TCP_SYN),
    ])
    def test_event_no_record_holds_is_a_value_error(self, tmp_path, field, value):
        ev = _event(**{field: value})
        with pytest.raises(ValueError, match="^an event in lines 1-2 cannot be written"):
            write_event_log(tmp_path / "events.jsonl", [_event(), ev])

    @pytest.mark.parametrize("tamper, check", [
        ("log byte", "log digest mismatch"),
        ("truncated copy", "size 205 bytes, not 80 + 63 x 2"),
        ("record byte", "record digest mismatch"),
        ("another run's copy", "log digest mismatch"),
        ("magic", "wrong magic"),
        ("empty copy", "wrong magic"),
        ("header only", "size 80 bytes, not 80 + 63 x 2"),
        ("directory", "cannot open it: Is a directory"),
    ])
    def test_tampered_copy_falls_back_to_the_json(self, tmp_path, capsys, tamper, check):
        path = tmp_path / "events.jsonl"
        events = [_event(), _MULTI_DAY]
        write_event_log(path, events)
        copy = Path(f"{path}.bin")
        data = bytearray(copy.read_bytes())
        if tamper == "log byte":  # still a valid log, with another source
            path.write_text(path.read_text().replace("198.51.100.9", "198.51.100.8", 1))
            events[0] = _event(src_ip=ip_to_int("198.51.100.8"))
        elif tamper == "truncated copy":
            copy.write_bytes(data[:-1])
        elif tamper == "record byte":
            data[80 + 63 + 20] ^= 0x01
            copy.write_bytes(data)
        elif tamper == "another run's copy":
            other = tmp_path / "other.jsonl"
            write_event_log(other, [_event(pkt_count=11, zmap_pkts=11), _MULTI_DAY])
            Path(f"{other}.bin").replace(copy)
        elif tamper == "magic":
            data[0] ^= 0xFF
            copy.write_bytes(data)
        elif tamper == "empty copy":
            copy.write_bytes(b"")
        elif tamper == "directory":
            copy.unlink()
            copy.mkdir()
        else:
            copy.write_bytes(data[:80])
        assert list(read_event_log(path)) == events
        assert capsys.readouterr().out == (
            f"note: {path}: binary copy not used ({check}); decoding the JSON\n")
        if tamper != "directory":
            assert _json_outcome(path) == (("rows", events), "")

    def test_copy_decoder_streams(self, tmp_path, capsys):
        def peak(n):
            path = tmp_path / f"{n}.jsonl"
            write_event_log(path, [_event()] * n)
            _, peak = traced_peak(deque, read_event_log(path), 0)  # maxlen 0: drain, keep nothing
            assert capsys.readouterr().out == ""  # the copy was read
            return peak
        small, large = peak(10_000), peak(50_000)
        assert Path(f"{tmp_path / '50000.jsonl'}.bin").stat().st_size == 80 + 63 * 50_000
        assert large < small * 1.1
        assert large < 3 * 10 ** 6  # under the 3.15 MB copy, let alone its rows

    def test_copy_drain_makes_no_call_per_record(self, tmp_path):
        # Late materialisation: a record's row is the tuple iter_unpack makes,
        # checked in the one generator frame of the gate, with no Python or C
        # function call of its own. Only the digests' 1 MiB blocks differ.
        def calls(n):
            path = tmp_path / f"{n}.jsonl"
            write_event_log(path, (DarknetEvent(i, 80, TCP, i, i, 1, 1, 0, 0, 1)
                                   for i in range(n)))
            return _drain_calls(path)
        small, more = calls(10 ** 4), calls(2 * 10 ** 4)
        more.subtract(small)
        assert small["_check_events"] == 1
        assert {name for name, k in more.items() if k and not name.startswith("c:")} == set()
        assert sum(more.values()) < 10

    def test_writer_memory_does_not_grow_with_the_event_count(self, tmp_path):
        def peak(n):
            events = (DarknetEvent(i, 80, TCP, i, i, 1, 1, 0, 0, 1) for i in range(n))
            return traced_peak(write_event_log, tmp_path / "events.jsonl", events)
        (count, small), (count_2, large) = peak(10 ** 5), peak(2 * 10 ** 5)
        assert (count, count_2) == (10 ** 5, 2 * 10 ** 5)
        assert Path(f"{tmp_path / 'events.jsonl'}.bin").stat().st_size == 80 + 63 * 2 * 10 ** 5
        assert large < small * 1.1
        assert small < 10 ** 6


class TestPacketMeta:
    def test_valid_tcp(self):
        p = PacketMeta(0, 1, 2, Protocol.TCP, 1024, 80, 0x02, 0, 0, None, 60)
        check_packet_meta(p)

    def test_udp_must_not_carry_flags(self):
        p = PacketMeta(0, 1, 2, Protocol.UDP, 1024, 53, 0x02, 0, None, None, 60)
        with pytest.raises(ValueError):
            check_packet_meta(p)

    def test_icmp_must_not_carry_ports(self):
        p = PacketMeta(0, 1, 2, Protocol.ICMP, 1024, None, None, 0, None, 8, 60)
        with pytest.raises(ValueError):
            check_packet_meta(p)
