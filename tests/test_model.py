import ipaddress
import json
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from darklens.model import (
    ConfigError,
    DarknetConfig,
    DarknetEvent,
    EventKey,
    PacketMeta,
    Protocol,
    TrafficType,
    int_to_ip,
    ip_to_int,
    letters_to_flags,
    parse_config_text,
    slash24_of,
    utc_day,
)
from helpers import (
    NONCANONICAL_PREFIXES, darknet_contains, flags_to_letters, oracle_event_from_json_line,
    oracle_event_json_line,
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

    @pytest.mark.parametrize("text", ["inf", "nan", "-inf"])
    def test_non_finite_timeout_rejected(self, text):
        # An infinite timeout passed a plain > 0 check, then the event
        # builder died rounding it to microseconds.
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

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

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


def _event(**kw):
    base = dict(
        key=EventKey(ip_to_int("198.51.100.9"), 23, TrafficType.TCP_SYN),
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
        assert DarknetEvent.from_json_line(line) == ev

    def test_validate_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            _event(start_ts=2000 * US, end_ts=1000 * US).validate()

    def test_validate_rejects_dst_count_above_size(self):
        with pytest.raises(ValueError):
            _event(unique_dst_count=2000).validate()

    def test_validate_rejects_bad_fingerprint_partition(self):
        with pytest.raises(ValueError):
            _event(zmap_pkts=3, masscan_pkts=3, other_pkts=3).validate()

    def test_icmp_key_uses_port_zero(self):
        ev = _event(
            key=EventKey(ip_to_int("198.51.100.9"), 0, TrafficType.ICMP_ECHO_REQUEST)
        )
        ev.validate()
        with pytest.raises(ValueError):
            _event(
                key=EventKey(ip_to_int("198.51.100.9"), 23, TrafficType.ICMP_ECHO_REQUEST)
            ).validate()

    @given(
        start=st.integers(min_value=0, max_value=10**12),
        dur=st.integers(min_value=0, max_value=10**9),
        pkts=st.integers(min_value=1, max_value=10**6),
        port=st.integers(min_value=0, max_value=65535),
    )
    def test_round_trip_random(self, start, dur, pkts, port):
        tt = TrafficType.ICMP_ECHO_REQUEST if port == 0 else TrafficType.UDP
        ev = _event(
            key=EventKey(1, port, tt),
            start_ts=start,
            end_ts=start + dur,
            pkt_count=pkts,
            unique_dst_count=min(pkts, 7),
            zmap_pkts=pkts,
        )
        assert DarknetEvent.from_json_line(ev.to_json_line()) == ev

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
            ev.validate()
            assert DarknetEvent.from_json_line(ev.to_json_line()) == ev
        else:
            with pytest.raises(ValueError, match="<= start_ts <= end_ts <="):
                DarknetEvent.from_json_line(ev.to_json_line())

    @pytest.mark.parametrize("field, value", [
        ("pkt_count", 10.0), ("pkt_count", True), ("pkt_count", "10"),
        ("start_ts", 1000.5), ("other_pkts", False), ("unique_dst_count", None),
    ])
    def test_integer_fields_must_be_json_integers(self, field, value):
        obj = json.loads(_event().to_json_line())
        obj[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a JSON integer"):
            DarknetEvent.from_json_line(json.dumps(obj))

    @pytest.mark.parametrize("value", [23.0, True, "23"])
    def test_port_must_be_a_json_integer(self, value):
        obj = json.loads(_event().to_json_line())
        obj["key"]["dst_port"] = value
        with pytest.raises(ValueError, match="dst_port must be a JSON integer"):
            DarknetEvent.from_json_line(json.dumps(obj))

    def test_unknown_traffic_type_rejected(self):
        obj = json.loads(_event().to_json_line())
        obj["key"]["traffic_type"] = "tcp_fin"
        with pytest.raises(ValueError, match="'tcp_fin' is not a valid TrafficType"):
            DarknetEvent.from_json_line(json.dumps(obj))

    def test_is_an_immutable_hashable_tuple(self):
        ev = _event()
        with pytest.raises(AttributeError):
            ev.pkt_count = 3
        assert hash(ev) == hash(_event())
        assert DarknetEvent._fields == (
            "key", "start_ts", "end_ts", "pkt_count", "unique_dst_count",
            "zmap_pkts", "masscan_pkts", "other_pkts",
        )


_U63 = st.integers(min_value=0, max_value=2 ** 63)
_ADDRS = st.one_of(st.sampled_from([0, 2 ** 32 - 1]), st.integers(min_value=0, max_value=2 ** 32 - 1))

# Any field values at all: the encoder formats, it does not validate.
_raw_events = st.builds(
    lambda ip, port, ttype, rest: DarknetEvent(EventKey(ip, port, ttype), *rest),
    _ADDRS,
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from(TrafficType),
    st.tuples(st.integers(min_value=MIN_TS, max_value=MAX_TS),
              st.integers(min_value=MIN_TS, max_value=MAX_TS), *[_U63] * 5),
)


@st.composite
def _valid_events(draw, addrs=_ADDRS):
    ttype = draw(st.sampled_from(TrafficType))
    port = 0 if ttype is TrafficType.ICMP_ECHO_REQUEST else draw(st.integers(0, 0xFFFF))
    start = draw(st.integers(min_value=MIN_TS, max_value=MAX_TS))
    end = draw(st.integers(min_value=start, max_value=MAX_TS))
    pkts = draw(st.integers(min_value=1, max_value=2 ** 63))
    zmap = draw(st.integers(min_value=0, max_value=pkts))
    masscan = draw(st.integers(min_value=0, max_value=pkts - zmap))
    dsts = draw(st.integers(min_value=1, max_value=pkts))
    return DarknetEvent(EventKey(draw(addrs), port, ttype), start, end, pkts, dsts,
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
    @example(DarknetEvent(EventKey(0, 0, TrafficType.TCP_SYN), MIN_TS, MIN_TS, 0, 0, 0, 0, 0))
    @example(DarknetEvent(EventKey(2 ** 32 - 1, 0xFFFF, TrafficType.UDP), MAX_TS, MAX_TS,
                          2 ** 63, 2 ** 63, 2 ** 63, 2 ** 63, 2 ** 63))
    def test_encode_matches_oracle_bytes(self, ev):
        assert ev.to_json_line().encode() == oracle_event_json_line(ev).encode()

    @given(_valid_events())
    def test_round_trip(self, ev):
        assert DarknetEvent.from_json_line(ev.to_json_line()) == ev

    @given(st.data())
    def test_decoder_agrees_with_oracle_on_any_spelling(self, data):
        ev = data.draw(_valid_events())
        line = data.draw(_respelled(ev))
        assert DarknetEvent.from_json_line(line, {}) == oracle_event_from_json_line(line) == ev

    @given(st.lists(_valid_events(addrs=st.sampled_from([0, 1, 0x0A000001, 0xC6336409, 2 ** 32 - 1])),
                    min_size=2, max_size=40))
    def test_shared_memo_never_mixes_up_sources(self, events):
        ips = {}
        for ev in events:
            line = ev.to_json_line()
            assert DarknetEvent.from_json_line(line, ips) == oracle_event_from_json_line(line) == ev
        assert ips == {int_to_ip(ev.key.src_ip): ev.key.src_ip for ev in events}

    def test_memo_is_keyed_by_the_decoded_address(self):
        ips = {}
        plain = _event().to_json_line()
        escaped = plain.replace('"198.51.100.9"', '"198.51.100.\\u0039"')
        assert DarknetEvent.from_json_line(plain, ips) == DarknetEvent.from_json_line(escaped, ips)
        assert ips == {"198.51.100.9": ip_to_int("198.51.100.9")}
        with pytest.raises(ValueError, match="invalid IPv4 address"):
            DarknetEvent.from_json_line(plain.replace("198.51.100.9", "198.51.100.09"), ips)
        assert len(ips) == 1


class TestPacketMeta:
    def test_valid_tcp(self):
        p = PacketMeta(0, 1, 2, Protocol.TCP, 1024, 80, 0x02, 0, 0, None, 60)
        p.validate()

    def test_udp_must_not_carry_flags(self):
        p = PacketMeta(0, 1, 2, Protocol.UDP, 1024, 53, 0x02, 0, None, None, 60)
        with pytest.raises(ValueError):
            p.validate()

    def test_icmp_must_not_carry_ports(self):
        p = PacketMeta(0, 1, 2, Protocol.ICMP, 1024, None, None, 0, None, 8, 60)
        with pytest.raises(ValueError):
            p.validate()
