import ipaddress
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from darklens.model import (
    ConfigError,
    DarknetConfig,
    DarknetEvent,
    EmptyPrefixListError,
    EventKey,
    InvalidFractionError,
    OverlappingPrefixesError,
    PacketMeta,
    Protocol,
    TrafficType,
    int_to_ip,
    ip_to_int,
    letters_to_flags,
    parse_config_text,
    slash24_of,
    utc_day,
    validate_config,
)
from helpers import flags_to_letters

US = 1_000_000


def _cfg(prefixes, **kw):
    return DarknetConfig(
        darknet_prefixes=[ipaddress.IPv4Network(p) for p in prefixes], **kw
    )


class TestValidateConfig:
    def test_size_is_sum_of_prefix_sizes(self):
        cfg = validate_config(_cfg(["10.0.0.0/24", "10.0.1.0/24"]))
        assert cfg.darknet_size == 512

    def test_single_slash22(self):
        assert validate_config(_cfg(["192.0.2.0/24"])).darknet_size == 256

    def test_empty_prefix_list_rejected(self):
        with pytest.raises(EmptyPrefixListError):
            validate_config(DarknetConfig(darknet_prefixes=[]))

    def test_overlapping_prefixes_rejected(self):
        with pytest.raises(OverlappingPrefixesError):
            validate_config(_cfg(["10.0.0.0/23", "10.0.1.0/24"]))

    def test_duplicate_prefix_rejected(self):
        with pytest.raises(OverlappingPrefixesError):
            validate_config(_cfg(["10.0.0.0/24", "10.0.0.0/24"]))

    def test_fraction_zero_rejected(self):
        with pytest.raises(InvalidFractionError):
            validate_config(_cfg(["10.0.0.0/22"], dispersion_fraction=0.0))

    def test_fraction_above_one_rejected(self):
        with pytest.raises(InvalidFractionError):
            validate_config(_cfg(["10.0.0.0/22"], dispersion_fraction=1.5))

    def test_fraction_of_exactly_one_allowed(self):
        cfg = validate_config(_cfg(["10.0.0.0/22"], dispersion_fraction=1.0))
        assert cfg.dispersion_fraction == 1.0

    def test_alpha_bounds(self):
        with pytest.raises(InvalidFractionError):
            validate_config(_cfg(["10.0.0.0/22"], alpha=0.0))
        with pytest.raises(InvalidFractionError):
            validate_config(_cfg(["10.0.0.0/22"], alpha=1.0))

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(_cfg(["10.0.0.0/22"], event_timeout_s=0.0))

    @pytest.mark.parametrize("text", ["inf", "nan", "-inf"])
    def test_non_finite_timeout_rejected(self, text):
        # An infinite timeout passed a plain > 0 check, then the event
        # builder died rounding it to microseconds.
        with pytest.raises(ConfigError, match="event_timeout_s must be positive and finite"):
            parse_config_text(f"darknet_prefixes = 10.0.0.0/22\nevent_timeout_s = {text}\n")

    def test_undersized_darknet_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(_cfg(["10.0.0.0/25"]))

    def test_contains(self):
        cfg = validate_config(_cfg(["10.0.0.0/24", "10.0.2.0/24"]))
        assert cfg.contains(ip_to_int("10.0.0.255"))
        assert cfg.contains(ip_to_int("10.0.2.1"))
        assert not cfg.contains(ip_to_int("10.0.1.0"))

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
        cfg = validate_config(_cfg([str(n) for n in nets]))
        edges = [int(n.network_address) + d for n in nets for d in (-1, 0)]
        edges += [int(n.broadcast_address) + d for n in nets for d in (0, 1)]
        for ip in edges + [base + off for off in probes]:
            want = any(ipaddress.IPv4Address(ip) in n for n in nets)
            assert cfg.contains(ip) is want


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
            _event(start_ts=2000 * US, end_ts=1000 * US).validate(1024)

    def test_validate_rejects_dst_count_above_size(self):
        with pytest.raises(ValueError):
            _event(unique_dst_count=2000).validate(1024)

    def test_validate_rejects_bad_fingerprint_partition(self):
        with pytest.raises(ValueError):
            _event(zmap_pkts=3, masscan_pkts=3, other_pkts=3).validate(1024)

    def test_icmp_key_uses_port_zero(self):
        ev = _event(
            key=EventKey(ip_to_int("198.51.100.9"), 0, TrafficType.ICMP_ECHO_REQUEST)
        )
        ev.validate(1024)
        with pytest.raises(ValueError):
            _event(
                key=EventKey(ip_to_int("198.51.100.9"), 23, TrafficType.ICMP_ECHO_REQUEST)
            ).validate(1024)

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
