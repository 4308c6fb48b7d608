"""Tests of the benchmark's own machinery on a tiny workload.

Run with `python -m pytest bench`. They check that inputs are reproducible
from the seed, that the oracle notices damaged outputs, and that the traced
run reports every per-layer metric BENCHMARK.json names.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from oracle import check_outputs  # noqa: E402
from workloads import FeedSpec, Workload  # noqa: E402

# Every kind of source and every feed, on the smallest telescope a config
# accepts. The port sweepers reach over 10% of it in total, so the D1 check's
# treatment of sweepers is exercised too.
TINY = Workload(
    name="tiny",
    scenario={
        "darknet_prefixes": ["10.0.0.0/24"],
        "duration_s": 2 * 86_400,
        "full_coverage_scanners": 2,
        "partial_scanners": 6,
        "partial_coverage_fraction": 0.05,
        "port_sweep_scanners": 2,
        "sweep_ports": 60,
        "noise_sources": 30,
        "backscatter_pkts": 20,
        "flow_routers": ["r1", "r2"],
        "flow_total_pkts": 10_000_000,
        "flow_sampling_denominator": 100,
        "flow_benign_sources": 40,
    },
    bin_width_s=60.0,
    feeds=FeedSpec(asn_prefixes=200, tag_rows=40, rdns_rows=40, acked_ips=2),
)


def failed(checks):
    return {name for name, ok, _ in checks if not ok}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    inp, out = root / "inputs", root / "out"
    manifest = inputs.generate_inputs(TINY, 5, inp)
    _elapsed, codes = layers.run_pass(run.stage_argvs(TINY, inp, out), out)
    assert codes == [0, 0, 0, 0]
    return manifest, inp, out


def damaged_copy(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy


def test_same_seed_gives_same_input_digests(tmp_path):
    inputs.generate_inputs(TINY, 5, tmp_path / "a")
    inputs.generate_inputs(TINY, 5, tmp_path / "b")
    inputs.generate_inputs(TINY, 6, tmp_path / "c")
    a, b, c = (run.digest_dir(tmp_path / d) for d in "abc")
    assert set(a) == {"telescope.conf", "synth.pcap", "manifest.json", "flows.csv", "asn.csv",
                      "tags.csv", "rdns.csv", "acked_ips.csv", "acked_keywords.csv"}
    assert a == b
    assert a["synth.pcap"] != c["synth.pcap"]


def test_clean_run_passes_every_check(pipeline):
    manifest, inp, out = pipeline
    checks = check_outputs(manifest, inp, out, sketch_mode=False)
    assert len(checks) == 8
    assert failed(checks) == set()


def test_removing_an_event_line_fails_a_check(pipeline, tmp_path):
    manifest, inp, out = pipeline
    out = damaged_copy(out, tmp_path)
    log = out / "events.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[1:]))
    assert "conservation" in failed(check_outputs(manifest, inp, out, sketch_mode=False))


def test_editing_a_blocklist_entry_fails_a_check(pipeline, tmp_path):
    manifest, inp, out = pipeline
    out = damaged_copy(out, tmp_path)
    blocklist = out / "blocklist_d1.txt"
    lines = blocklist.read_text().splitlines()
    assert lines, "the tiny workload must have D1 sources"
    head, _, last = lines[0].rpartition(".")
    lines[0] = f"{head}.{(int(last) + 1) % 256}"
    blocklist.write_text("\n".join(lines) + "\n")
    assert "d1_blocklist" in failed(check_outputs(manifest, inp, out, sketch_mode=False))


def test_traced_run_emits_every_per_layer_metric(pipeline, tmp_path):
    _manifest, inp, _out = pipeline
    out = tmp_path / "traced"
    metrics, checks = layers.traced_run(run.stage_argvs(TINY, inp, out), out, 0.0,
                                        sys.executable, run.child_env())
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert failed(checks) == set()
    assert metrics["events.conservation_gap"] == 0
    assert metrics["feeds.malformed_lines"] == 13


def test_untraced_run_normalises_each_stage_by_the_reference_runs_around_it(pipeline, tmp_path):
    _manifest, inp, _out = pipeline
    checks = []
    samples = run.measure(TINY, inp, tmp_path / "out", 0.0, run.child_env(), checks)
    assert failed(checks) == set()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    (rep,) = samples
    assert {m["name"] for m in spec["end_to_end"]} - {"setup_s"} <= set(rep)
    refs = rep["ref_s"]
    assert len(refs) == 5 and all(r > 0 for r in refs)
    for i, stage in enumerate(("events", "detect", "impact", "report")):
        expected = rep[f"{stage}_wall_s"] * run.REF_S / ((refs[i] + refs[i + 1]) / 2)
        assert rep[f"{stage}_s"] == pytest.approx(expected)
    assert rep["pipeline_s"] == pytest.approx(
        sum(rep[f"{stage}_s"] for stage in ("events", "detect", "impact", "report")))
