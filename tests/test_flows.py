import csv
import io
import json
import re
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from darklens.flows import (
    _CSV_ROW,
    FLOW_CSV_FIELDS,
    FlowReader,
    SchemaMismatchError,
)
from darklens.impact import tally_flows
from darklens.model import Direction, FlowRecord, Protocol, ip_to_int
from helpers import flow_csv_row, flow_json_line, oracle_flow_rows

HEADER = ",".join(FLOW_CSV_FIELDS)

LAST_TS_US = 253402300799999999  # the last microsecond of 9999-12-31

GOOD_ROW = "router-1,1654041600000000,I,198.51.100.9,192.0.2.10,tcp,51000,23,3,1000,S"


def _edge(router="router-1", ts="1654041600000000", src="198.51.100.9", proto="tcp",
          sport="51000", dport="23", sampled="3", flags="S", end="\n"):
    """One flow CSV line, GOOD_ROW with the given fields spelled as given."""
    return f"{router},{ts},I,{src},192.0.2.10,{proto},{sport},{dport},{sampled},1000,{flags}{end}"


def _csv(rows, header=HEADER):
    return header + "\n" + "\n".join(rows) + "\n"


def _read_csv(tmp_path, text, name="f.csv"):
    p = tmp_path / name
    p.write_text(text)
    reader = FlowReader(p)
    return reader, [FlowRecord._make(row) for row in reader]


class TestCsv:
    def test_field_order_is_pinned(self):
        assert FLOW_CSV_FIELDS == [
            "router_id", "ts_us", "direction", "src_ip", "dst_ip", "protocol",
            "src_port", "dst_port", "sampled_pkts", "sampling_denominator",
            "tcp_flags",
        ]

    def test_good_row(self, tmp_path):
        _, rows = _read_csv(tmp_path, _csv([GOOD_ROW]))
        (r,) = rows
        assert r.router_id == "router-1"
        assert r.ts_us == 1654041600000000
        assert r.direction is Direction.INGRESS
        assert r.src_ip == ip_to_int("198.51.100.9")
        assert r.dst_ip == ip_to_int("192.0.2.10")
        assert r.protocol is Protocol.TCP
        assert (r.src_port, r.dst_port) == (51000, 23)
        assert r.sampled_pkts == 3
        assert r.sampling_denominator == 1000
        assert r.tcp_flags == 0x02
        assert r.sampled_pkts * r.sampling_denominator == 3000

    def test_icmp_row_has_no_ports(self, tmp_path):
        row = "router-1,5,E,198.51.100.9,192.0.2.10,icmp,,,1,512,"
        _, rows = _read_csv(tmp_path, _csv([row]))
        (r,) = rows
        assert r.protocol is Protocol.ICMP
        assert r.src_port is None and r.dst_port is None
        assert r.tcp_flags is None
        assert r.sampled_pkts * r.sampling_denominator == 512

    def test_rows_are_plain_tuples_in_field_order(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text(_csv([GOOD_ROW]))
        (row,) = FlowReader(p)
        assert type(row) is tuple
        assert row == FlowRecord(
            "router-1", 1654041600000000, Direction.INGRESS, ip_to_int("198.51.100.9"),
            ip_to_int("192.0.2.10"), Protocol.TCP, 51000, 23, 3, 1000, 0x02,
        )

    def test_header_mismatch_is_fatal(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("router,when,oops\n1,2,3\n")
        with pytest.raises(SchemaMismatchError):
            list(FlowReader(p))

    def test_empty_file_is_fatal(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(SchemaMismatchError):
            list(FlowReader(p))

    @pytest.mark.parametrize("router", ["r" * (csv.field_size_limit() + 1), "router\r1"],
                             ids=["oversized-field", "bare-cr"])
    def test_a_row_the_csv_tokeniser_refuses_is_invalid(self, tmp_path, router):
        reader, rows = _read_csv(tmp_path, _csv([GOOD_ROW, GOOD_ROW.replace("router-1", router),
                                                 GOOD_ROW]))
        assert (len(rows), reader.invalid_rows) == (2, 1)

    def test_a_header_the_csv_tokeniser_refuses_is_fatal(self, tmp_path):
        p = tmp_path / "cr.csv"
        p.write_text(_csv([GOOD_ROW], header=HEADER.replace("_", "\r", 1)))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:1: new-line character"):
            list(FlowReader(p))

    def test_header_only_yields_nothing(self, tmp_path):
        reader, rows = _read_csv(tmp_path, HEADER + "\n")
        assert rows == []
        assert reader.invalid_rows == 0

    @pytest.mark.parametrize(
        "row",
        [
            "router-1,notanum,I,198.51.100.9,192.0.2.10,tcp,51000,23,3,1000,S",
            "router-1,5,I,299.51.100.9,192.0.2.10,tcp,51000,23,3,1000,S",
            "router-1,5,I,010.0.0.1,192.0.2.10,tcp,51000,23,3,1000,S",
            "router-1,5,I,198.51.100.9,192.0.2.10 junk,tcp,51000,23,3,1000,S",
            "router-1,5,sideways,198.51.100.9,192.0.2.10,tcp,51000,23,3,1000,S",
            "router-1,5,I,198.51.100.9,192.0.2.10,gre,51000,23,3,1000,",
            "router-1,5,I,198.51.100.9,192.0.2.10,tcp,51000,23,0,1000,S",
            "router-1,5,I,198.51.100.9,192.0.2.10,tcp,51000,23,3,0,S",
            "router-1,5,I,198.51.100.9,192.0.2.10,tcp,51000,99999,3,1000,S",
            "router-1,5,I,198.51.100.9,192.0.2.10,udp,51000,53,3,1000,S",
            "router-1,5,I,198.51.100.9,192.0.2.10,tcp,,23,3,1000,S",
            "router-1,5,I,198.51.100.9,192.0.2.10,tcp,51000,23,3,1000",
            # int() reads ts 1654041600000000, dst_port 53, sampled_pkts 10
            # and sampling_denominator 5 from this row.
            "r1,1_654_041_600_000_000,I,198.18.0.1,10.0.0.1,udp, 53,+1,1_0,\u0665,",
        ],
    )
    def test_invalid_rows_counted_and_skipped(self, tmp_path, row):
        reader, rows = _read_csv(tmp_path, _csv([GOOD_ROW, row]))
        assert len(rows) == 1
        assert reader.invalid_rows == 1

    @pytest.mark.parametrize("field", ["ts_us", "src_port", "dst_port", "sampled_pkts",
                                       "sampling_denominator"])
    @pytest.mark.parametrize("text", ["+1", " 1", "1 ", "01", "1_0", "\u0665", "\uff11"])
    def test_each_integer_field_rejects_non_canonical_text(self, tmp_path, field, text):
        row = GOOD_ROW.split(",")
        row[FLOW_CSV_FIELDS.index(field)] = text
        reader, rows = _read_csv(tmp_path, _csv([GOOD_ROW, ",".join(row)]))
        assert len(rows) == 1
        assert reader.invalid_rows == 1

    def test_zero_is_canonical(self, tmp_path):
        row = "router-1,0,I,198.51.100.9,192.0.2.10,udp,0,0,1,1,"
        _, rows = _read_csv(tmp_path, _csv([row]))
        assert [(r.ts_us, r.src_port, r.dst_port) for r in rows] == [(0, 0, 0)]

    def test_timestamps_run_to_the_last_utc_day(self, tmp_path):
        # A later timestamp has no UTC date, so the tally could not name
        # its day; it is an invalid row, not a crash.
        last = f"router-1,{LAST_TS_US},I,198.51.100.9,192.0.2.10,udp,1,2,1,1,"
        past = f"router-1,{LAST_TS_US + 1},I,198.51.100.9,192.0.2.10,udp,1,2,1,1,"
        reader, rows = _read_csv(tmp_path, _csv([last, past]))
        assert [r.ts_us for r in rows] == [LAST_TS_US]
        assert reader.invalid_rows == 1
        assert list(tally_flows(rows, {1}).cells) == [(date(9999, 12, 31), "router-1")]

    @pytest.mark.parametrize(
        "line, valid",
        [
            (_edge(ts="12345678901234567"), True),
            (_edge(ts="123456789012345678"), True),
            (_edge(ts="1234567890123456789"), False),
            (_edge(ts=str(LAST_TS_US)), True),
            (_edge(ts=str(LAST_TS_US + 1)), False),
            (_edge(ts="0"), True),
            (_edge(src="255.255.255.255"), True),
            (_edge(src="255.255.255.256"), False),
            (_edge(src="0.0.0.0"), True),
            (_edge(src="198.051.100.9"), False),
            (_edge(src="00.1.2.3"), False),
            (_edge(src="10.20.30"), False),
            (_edge(src="1..2.3.4"), False),
            (_edge(src="1.2.3.4."), False),
            (_edge(src="1.2.3.4.5"), False),
            (_edge(sport="65535", dport="65535"), True),
            (_edge(sport="65536"), False),
            (_edge(dport="65536"), False),
            (_edge(dport="023"), False),
            (_edge(end="\r\n"), True),
            (_edge(proto="udp", flags="", end="\r\n"), True),
            (_edge(ts='"1654041600000000"', dport='"23"', sampled='"3"'), True),
            (_edge(router='"edge,1"'), True),
            (_edge(router='say "hi"'), True),
            (_edge(router='"edge\n1"'), True),
            (_edge(flags=""), True),
            (_edge(flags="UPRFAS"), True),
            (_edge(flags="SS"), True),
            (_edge(flags="SX"), False),
            (_edge(proto="udp", flags=""), True),
            (_edge(proto="udp", flags="S"), False),
            (_edge(proto="icmp", sport="", dport="", flags=""), True),
            (_edge(proto="icmp", sport="0", dport="", flags=""), False),
            (_edge(proto="icmp", sport="", dport="", flags="S"), False),
            (_edge(sampled="9" * 18), True),
            (_edge(sampled="9" * 19), True),
            (_edge(sampled="1" * 4300), True),
            (_edge(sampled="1" * 4301), False),
            (_edge(router="r" * 128), True),
            (_edge(router="r" * 129), True),
            (_edge(router="r" * csv.field_size_limit()), True),
            (_edge(router="a\x00b"), True),
        ],
    )
    def test_grammar_edges_read_as_the_record_oracle(self, tmp_path, line, valid):
        # Lines just inside and just outside the reader's row grammar: each
        # reads as the record oracle reads it, whichever way the reader took.
        p = tmp_path / "f.csv"
        p.write_text(f"{HEADER}\n{GOOD_ROW}\n{line}{GOOD_ROW}\n", newline="")
        reader = FlowReader(p)
        rows = list(reader)
        assert (rows, reader.invalid_rows) == oracle_flow_rows(p)
        assert (len(rows), reader.invalid_rows) == ((3, 0) if valid else (2, 1))

    def test_grammar_takes_lf_crlf_and_last_lines_only_unquoted(self):
        # csv.reader reads the same fields for LF, CRLF and a last line with
        # no ending, so all three take the grammar; a quoted field does not.
        for end in ("\n", "\r\n", ""):
            assert _CSV_ROW(GOOD_ROW + end) is not None
        assert _CSV_ROW('"router-1"' + GOOD_ROW[len("router-1"):] + "\n") is None
        # Python 3.10's re has no possessive quantifiers (x*+, x?+, x{m,n}+).
        assert re.search(r"[*+?}]\+", _CSV_ROW.__self__.pattern) is None

    def test_row_writer_round_trips(self, tmp_path):
        _, rows = _read_csv(tmp_path, _csv([GOOD_ROW]))
        again = _csv([",".join(flow_csv_row(rows[0]))])
        _, rows2 = _read_csv(tmp_path, again, name="again.csv")
        assert rows2 == rows


class TestJsonl:
    def _jsonl_line(self, **kw):
        obj = dict(
            router_id="router-1", ts_us=1654041600000000, direction="I",
            src_ip="198.51.100.9", dst_ip="192.0.2.10", protocol="tcp",
            src_port=51000, dst_port=23, sampled_pkts=3,
            sampling_denominator=1000, tcp_flags="S",
        )
        obj.update(kw)
        return json.dumps(obj)

    def test_matches_csv(self, tmp_path):
        pc = tmp_path / "f.csv"
        pc.write_text(_csv([GOOD_ROW]))
        pj = tmp_path / "f.jsonl"
        pj.write_text(self._jsonl_line() + "\n")
        assert list(FlowReader(pc)) == list(FlowReader(pj))

    def test_invalid_json_counted(self, tmp_path):
        pj = tmp_path / "f.jsonl"
        pj.write_text(self._jsonl_line() + "\n{not json}\n" + self._jsonl_line(sampled_pkts=0)
                      + "\n" + "[" * 100_000 + "\n")
        reader = FlowReader(pj)
        rows = list(reader)
        assert len(rows) == 1
        assert reader.invalid_rows == 3  # the last line is too deeply nested to decode

    def test_non_json_whitespace_makes_a_row_invalid(self, tmp_path):
        # str.strip() would drop U+001C and U+3000; json.loads rejects them.
        pj = tmp_path / "f.jsonl"
        pj.write_text(f"{self._jsonl_line()}\n \t\n\x1c {self._jsonl_line()}\u3000\n", encoding="utf-8")
        reader = FlowReader(pj)
        assert len(list(reader)) == 1
        assert reader.invalid_rows == 1

    def test_router_id_that_is_a_lone_surrogate_is_invalid(self, tmp_path):
        # json.loads reads the escape "\ud800" as a lone surrogate, which no
        # output CSV could encode; such a row is invalid, not a fatal write.
        pj = tmp_path / "f.jsonl"
        pj.write_text(self._jsonl_line() + "\n" + self._jsonl_line(router_id="\ud800") + "\n")
        assert '"\\ud800"' in pj.read_text()
        reader = FlowReader(pj)
        assert len(list(reader)) == 1
        assert reader.invalid_rows == 1

    def test_a_line_that_is_not_utf8_is_one_invalid_row(self, tmp_path):
        # The first line too: the format sniff reads past it. A bad byte in a
        # key no row rule reads makes its line invalid all the same.
        good = self._jsonl_line().encode()
        pj = tmp_path / "f.jsonl"
        pj.write_bytes(b"\xff" + good + b"\n" + good[:-1] + b', "exporter": "\xc3"}\n' + good + b"\n")
        reader = FlowReader(pj)
        assert len(list(reader)) == 1
        assert reader.invalid_rows == 2

    def test_null_ports_for_icmp(self, tmp_path):
        pj = tmp_path / "f.jsonl"
        pj.write_text(
            self._jsonl_line(protocol="icmp", src_port=None, dst_port=None, tcp_flags=None) + "\n"
        )
        (r,) = map(FlowRecord._make, FlowReader(pj))
        assert r.protocol is Protocol.ICMP
        assert r.src_port is None and r.dst_port is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sampled_pkts", 2.7),
            ("sampling_denominator", 99.9),
            ("src_port", True),
            ("dst_port", 22.5),
            ("tcp_flags", ["S"]),
            ("ts_us", "5"),
            ("ts_us", True),
            ("router_id", 7),
            ("router_id", None),
        ],
    )
    def test_fields_need_exact_json_types(self, tmp_path, field, value):
        # A float count would bias the 1:k inversion once truncated, and
        # str(None) would make a router called "None".
        pj = tmp_path / "f.jsonl"
        pj.write_text(self._jsonl_line() + "\n" + self._jsonl_line(**{field: value}) + "\n")
        reader = FlowReader(pj)
        rows = list(reader)
        assert len(rows) == 1
        assert reader.invalid_rows == 1
        assert (rows, reader.invalid_rows) == oracle_flow_rows(pj)


@given(
    sampled=st.integers(min_value=1, max_value=10**6),
    denom=st.integers(min_value=1, max_value=10**6),
)
def test_estimated_pkts_is_product(sampled, denom):
    r = FlowRecord(
        router_id="r", ts_us=0, direction=Direction.INGRESS, src_ip=1, dst_ip=2,
        protocol=Protocol.UDP, src_port=1, dst_port=2, sampled_pkts=sampled,
        sampling_denominator=denom, tcp_flags=None,
    )
    (cell,) = tally_flows([r], {1}).cells.values()
    assert cell == [sampled * denom, 0, sampled * denom]


# ---------------------------------------------------------------------------
# FlowReader against the keyword-built, record-per-row reader it replaced.


@st.composite
def _records(draw):
    protocol = draw(st.sampled_from(list(Protocol)))
    ports = (None, None) if protocol is Protocol.ICMP else (
        draw(st.integers(0, 65535)), draw(st.integers(0, 65535)))
    flags = draw(st.none() | st.integers(1, 0x3F)) if protocol is Protocol.TCP else None
    return FlowRecord(
        router_id=draw(st.sampled_from(["router-1", "r2", "edge,1", 'say "hi"'])),
        ts_us=draw(st.integers(0, LAST_TS_US)),
        direction=draw(st.sampled_from(list(Direction))),
        src_ip=draw(st.integers(0, 2**32 - 1)),
        dst_ip=draw(st.integers(0, 2**32 - 1)),
        protocol=protocol,
        src_port=ports[0],
        dst_port=ports[1],
        sampled_pkts=draw(st.integers(1, 10**6)),
        sampling_denominator=draw(st.integers(1, 10**6)),
        tcp_flags=flags,
    )


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _replace(row, **fields):
    out = list(row)
    for name, value in fields.items():
        out[FLOW_CSV_FIELDS.index(name)] = value
    return out


# Each spoiler turns a valid row into a CSV line that no reader may accept.
_NOT_NUMBERS = ("x1", "1.5", "0x10", "1e3")
# Text int() reads as a number that is not canonical decimal.
_NOT_CANONICAL = ("+1", " 53", "1_0", "\u0665", "007")
_SPOILERS = [
    lambda row, i: _csv_line(_replace(row, **{
        FLOW_CSV_FIELDS[(0, 1, 2, 3, 4, 5, 8, 9)[i % 8]]: ""})),
    lambda row, i: _csv_line(_replace(row, **{
        ("ts_us", "sampled_pkts", "sampling_denominator")[i % 3]: _NOT_NUMBERS[i % 4]})),
    lambda row, i: _csv_line(_replace(row, ts_us=str((-1, LAST_TS_US + 1, 2**63)[i % 3]))),
    lambda row, i: _csv_line(_replace(row, **{
        ("ts_us", "sampled_pkts", "sampling_denominator")[i % 3]: _NOT_CANONICAL[i % 5]})),
    lambda row, i: _csv_line(_replace(
        row, protocol="udp", src_port="53", dst_port=("65536", "-1")[i % 2], tcp_flags="")),
    lambda row, i: _csv_line(
        _replace(row, protocol="icmp", src_port="1", dst_port="", tcp_flags="")),
    lambda row, i: _csv_line(
        _replace(row, protocol="udp", src_port="1", dst_port="2", tcp_flags="S")),
    lambda row, i: _csv_line(
        _replace(row, protocol="tcp", src_port="1", dst_port="2", tcp_flags="SX")),
    lambda row, i: _csv_line(_replace(row, **{("src_ip", "dst_ip")[i % 2]: "010.0.0.1"})),
    lambda row, i: _csv_line(row[:-1] if i % 2 else row + ["x"]),
    # Unquoted, the router's comma splits it into two fields.
    lambda row, i: ",".join(_replace(row, router_id="edge,1")) + "\n",
]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_records(), st.none() | st.integers(0, len(_SPOILERS) * 8 - 1)), max_size=30,
    ),
)
def test_property_reader_matches_record_oracle(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("flows") / "f.csv"
    text = _csv_line(FLOW_CSV_FIELDS)
    valid = []
    for rec, spoil in rows:
        fields = flow_csv_row(rec)
        if spoil is None:
            valid.append(rec)
            text += _csv_line(fields)
        else:
            text += _SPOILERS[spoil % len(_SPOILERS)](fields, spoil // len(_SPOILERS))
    path.write_text(text, newline="")
    reader = FlowReader(path)
    got = list(reader)
    assert (got, reader.invalid_rows) == oracle_flow_rows(path)
    assert got == valid
    assert reader.invalid_rows == len(rows) - len(valid)

    jsonl = path.with_suffix(".jsonl")
    jsonl.write_text("".join(map(flow_json_line, valid)))
    reader = FlowReader(jsonl)
    if not valid:
        # An empty file names no format, and read as CSV it has no header.
        with pytest.raises(SchemaMismatchError):
            list(reader)
        return
    assert list(reader) == got
    assert reader.invalid_rows == 0
