"""Seeded input generator: writes every input file of one workload.

Run as its own process so the benchmark's parent stays small:

    python bench/inputs.py --workload dense-22 --seed 1 --out DIR

The synth scenario goes through darklens.synth; the feed files come from a
generator seeded from the same seed, so one seed always gives the same bytes.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from darklens.model import int_to_ip  # noqa: E402
from darklens.synth import SynthScenario, generate  # noqa: E402
from workloads import WORKLOADS, FeedSpec, Workload  # noqa: E402

# Keywords the generated rDNS names may contain; the acked keyword file lists
# the first two, so some rDNS rows match and some do not.
_KEYWORDS = ["research-a", "survey-b", "cloudhost", "dynamic"]
_COUNTRIES = ["US", "NL", "DE", "CN", "BR", "RU", "SG", "FR", "GB", "IN"]
_TAGS = ["mirai", "ssh-bruteforce", "web-crawler", "research", "rdp-scanner", "smb-worm", "vpn"]


def write_config(workload: Workload, path: Path) -> None:
    sc = SynthScenario(**workload.scenario)
    path.write_text(
        f"darknet_prefixes = {', '.join(sc.darknet_prefixes)}\n"
        f"event_timeout_s = {sc.event_timeout_s}\n"
        f"dispersion_fraction = {sc.dispersion_fraction}\n"
        "alpha = 0.0001\n",
        encoding="utf-8",
    )


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_feeds(spec: FeedSpec, manifest: dict, seed: int, out_dir: Path) -> None:
    """ASN map, tag database, rDNS map and acked lists, each with a few bad lines.

    Rows are drawn so that the joins hit: part of every feed covers the
    scanner and noise sources named in the manifest, the rest is unrelated
    address space.
    """
    rng = np.random.default_rng([seed, 0xFEED])
    sources = [s["ip"] for s in manifest["sources"]]
    scanners = [s["ip"] for s in manifest["sources"] if s["kind"] != "noise"]

    def random_ips(n: int):
        return [int_to_ip(int(v)) for v in rng.integers(1 << 24, 224 << 24, n)]

    def prefix_rows(n: int, lo: int, hi: int, plen_lo: int, plen_hi: int, asn_lo: int, asn_hi: int):
        bases = rng.integers(lo, hi, n)
        plens = rng.integers(plen_lo, plen_hi, n)
        asns = rng.integers(asn_lo, asn_hi, n)
        for base, plen, asn in zip(bases.tolist(), plens.tolist(), asns.tolist()):
            net = base & (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
            yield f"{int_to_ip(net)}/{plen},{asn},org-{asn % 997},{_COUNTRIES[asn % len(_COUNTRIES)]}"

    # Routing map: covering prefixes for the synth source ranges, more
    # specific prefixes inside the scanner range, unrelated prefixes elsewhere.
    scanner_net = (198 << 24) | (18 << 16)
    inner = spec.asn_prefixes // 10
    asn_rows = ["198.18.0.0/15,64500,scan-net,US", "203.0.112.0/20,64501,noise-net,NL"]
    asn_rows += prefix_rows(inner, scanner_net, scanner_net + (1 << 17), 20, 29, 65000, 65500)
    asn_rows += prefix_rows(spec.asn_prefixes - len(asn_rows), 1 << 24, 224 << 24, 12, 25, 1, 64000)
    asn_rows += ["10.0.0.0/33,1,bad-prefix,US", "10.1.0.0/16,not-a-number,bad-asn,US",
                 "10.2.0.0/16,3,three-fields"]
    _write_lines(out_dir / "asn.csv", asn_rows)

    classes = ["malicious", "benign", "unknown"]
    known = sources[: spec.tag_rows // 2]
    tag_rows = []
    for ip in known + random_ips(spec.tag_rows - len(known)):
        k = int(rng.integers(0, 3))
        tags = "|".join(_TAGS[int(t)] for t in rng.choice(len(_TAGS), size=k, replace=False))
        tag_rows.append(f"{ip},{classes[int(rng.integers(0, 3))]},{tags}")
    tag_rows += ["999.1.1.1,malicious,mirai", "10.0.0.1,hostile,mirai", "10.0.0.2,benign"]
    _write_lines(out_dir / "tags.csv", tag_rows)

    known = sources[: spec.rdns_rows // 2]
    rdns_rows = [
        f"{ip},host-{i}.{_KEYWORDS[int(rng.integers(0, len(_KEYWORDS)))]}.example.net"
        for i, ip in enumerate(known + random_ips(spec.rdns_rows - len(known)))
    ]
    rdns_rows += ["not-an-ip,host.example.net", "10.0.0.3,", "10.0.0.4,a,b"]
    _write_lines(out_dir / "rdns.csv", rdns_rows)

    picks = rng.choice(len(scanners), size=min(spec.acked_ips, len(scanners)), replace=False)
    acked_rows = [f"{scanners[int(i)]},Acked Org {j}" for j, i in enumerate(sorted(picks))]
    acked_rows += ["300.0.0.1,Bad Org", "10.0.0.5,Org,extra"]
    _write_lines(out_dir / "acked_ips.csv", acked_rows)
    _write_lines(out_dir / "acked_keywords.csv",
                 ["research-a,Research A", "survey-b,Survey B", "has space,Bad", "orphan"])


def generate_inputs(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write every input of one workload into out_dir; returns the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(workload, out_dir / "telescope.conf")
    manifest = generate(SynthScenario(**workload.scenario), seed, out_dir)
    if workload.feeds is not None:
        write_feeds(workload.feeds, manifest, seed, out_dir)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
