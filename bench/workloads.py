"""The benchmark's workloads.

Each workload is a synth scenario (capture, manifest, flow file), a telescope
config, optionally a set of intelligence feeds, and the impact bin width the
pipeline runs with. inputs.py builds them from a seed. Why each workload
exists, and which layers it stresses, is recorded in NOTES.md next to this
file. Standard library only, like every module the parent process imports.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

DAY_S = 86_400


@dataclass(frozen=True)
class FeedSpec:
    """Sizes of the generated intelligence feeds."""

    asn_prefixes: int
    tag_rows: int
    rdns_rows: int
    acked_ips: int


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    bin_width_s: float = 1.0
    feeds: Optional[FeedSpec] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense-22",
            scenario={
                "darknet_prefixes": ["10.0.0.0/22"],
                "duration_s": 3600,
                "full_coverage_scanners": 8,
                "full_scanner_repeats": 6,
                "full_scanner_types": ["tcp_syn", "udp", "icmp_echo_request"],
                "partial_scanners": 300,
                "port_sweep_scanners": 10,
                "sweep_ports": 100,
                "noise_sources": 3000,
                "backscatter_pkts": 7500,
                "flow_total_pkts": 1_000_000_000,
                "flow_sampling_denominator": 1000,
                "flow_benign_sources": 1000,
            },
        ),
        Workload(
            name="wide-11",
            scenario={
                "darknet_prefixes": ["10.0.0.0/11"],
                "duration_s": 1200,
                "full_coverage_scanners": 0,
                "partial_scanners": 12,
                "partial_coverage_fraction": 0.002,
                "noise_sources": 1000,
                "backscatter_pkts": 1500,
                "flow_total_pkts": 100_000_000,
                "flow_sampling_denominator": 1000,
                "flow_benign_sources": 200,
            },
        ),
        Workload(
            name="multiday-events",
            scenario={
                "darknet_prefixes": ["10.0.0.0/22"],
                "duration_s": 2 * DAY_S,
                "full_coverage_scanners": 2,
                "partial_scanners": 25,
                "port_sweep_scanners": 20,
                "sweep_ports": 1000,
                "noise_sources": 2500,
                "backscatter_pkts": 1500,
                "flow_routers": ["router-1", "router-2", "router-3", "router-4"],
                "flow_total_pkts": 10_000_000_000,
                "flow_sampling_denominator": 100,
                "flow_benign_sources": 6250,
            },
            bin_width_s=60.0,
            feeds=FeedSpec(asn_prefixes=12_500, tag_rows=6000, rdns_rows=6000, acked_ips=20),
        ),
    )
}
