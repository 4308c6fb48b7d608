import json

import pytest
from hypothesis import given, strategies as st

from darklens.flows import (
    FLOW_CSV_FIELDS,
    FlowFormat,
    FlowReader,
    SchemaMismatchError,
)
from darklens.model import Direction, Protocol, ip_to_int
from helpers import flow_csv_row

HEADER = ",".join(FLOW_CSV_FIELDS)

GOOD_ROW = "router-1,1654041600000000,I,198.51.100.9,192.0.2.10,tcp,51000,23,3,1000,S"


def _csv(rows, header=HEADER):
    return header + "\n" + "\n".join(rows) + "\n"


def _read_csv(tmp_path, text, name="f.csv"):
    p = tmp_path / name
    p.write_text(text)
    reader = FlowReader(p, FlowFormat.CSV_V1)
    return reader, list(reader)


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
        assert r.estimated_pkts == 3000

    def test_icmp_row_has_no_ports(self, tmp_path):
        row = "router-1,5,E,198.51.100.9,192.0.2.10,icmp,,,1,512,"
        _, rows = _read_csv(tmp_path, _csv([row]))
        (r,) = rows
        assert r.protocol is Protocol.ICMP
        assert r.src_port is None and r.dst_port is None
        assert r.tcp_flags is None
        assert r.estimated_pkts == 512

    def test_header_mismatch_is_fatal(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("router,when,oops\n1,2,3\n")
        with pytest.raises(SchemaMismatchError):
            list(FlowReader(p, FlowFormat.CSV_V1))

    def test_empty_file_is_fatal(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(SchemaMismatchError):
            list(FlowReader(p, FlowFormat.CSV_V1))

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
        ],
    )
    def test_invalid_rows_counted_and_skipped(self, tmp_path, row):
        reader, rows = _read_csv(tmp_path, _csv([GOOD_ROW, row]))
        assert len(rows) == 1
        assert reader.invalid_rows == 1

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
        assert list(FlowReader(pc, FlowFormat.CSV_V1)) == list(FlowReader(pj, FlowFormat.JSONL_V1))

    def test_invalid_json_counted(self, tmp_path):
        pj = tmp_path / "f.jsonl"
        pj.write_text(self._jsonl_line() + "\n{not json}\n" + self._jsonl_line(sampled_pkts=0) + "\n")
        reader = FlowReader(pj, FlowFormat.JSONL_V1)
        rows = list(reader)
        assert len(rows) == 1
        assert reader.invalid_rows == 2

    def test_null_ports_for_icmp(self, tmp_path):
        pj = tmp_path / "f.jsonl"
        pj.write_text(
            self._jsonl_line(protocol="icmp", src_port=None, dst_port=None, tcp_flags=None) + "\n"
        )
        (r,) = list(FlowReader(pj, FlowFormat.JSONL_V1))
        assert r.protocol is Protocol.ICMP


@given(
    sampled=st.integers(min_value=1, max_value=10**6),
    denom=st.integers(min_value=1, max_value=10**6),
)
def test_estimated_pkts_is_product(sampled, denom):
    from darklens.model import FlowRecord

    r = FlowRecord(
        router_id="r", ts_us=0, direction=Direction.INGRESS, src_ip=1, dst_ip=2,
        protocol=Protocol.UDP, src_port=1, dst_port=2, sampled_pkts=sampled,
        sampling_denominator=denom, tcp_flags=None,
    )
    assert r.estimated_pkts == sampled * denom
