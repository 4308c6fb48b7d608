"""Time synth.generate at the north star's scales, one child process a step.

    python tests/scale_synth.py [--rounds 1] [--src DIR ...]

Each step builds one scenario's capture, manifest and flow file into a
temporary directory (seed 7) and prints one line with `generate`'s wall time,
the child's VmHWM, the capture's packets and the flow file's rows:

    criterion-10  acceptance criterion 10's capture: 49 full sweeps of a /22,
                  20 passes each, 1,003,520 packets
    noise-1e5     10^5 noise sources of 5 probes on a /22
    flows-1e5     10^5 benign flow talkers on 4 routers, 1:100 sampled, beside
                  one full sweep of a /22
    partial-8     one partial scanner on a /8 at coverage 0.03, 503,316 probes

Each step runs in a fresh interpreter, so its VmHWM is its own peak, numpy
included. Every `--src` names a darklens source tree (default: this
checkout's src/) whose code the steps import; with two, the runs alternate
between them step by step, so two commits can be compared on the same
machine. `--rounds` repeats the whole set. It is not a test; pytest does not
collect it.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
_NONE = dict(full_coverage_scanners=0, partial_scanners=0, noise_sources=0, backscatter_pkts=0)
SCENARIOS = {
    "criterion-10": dict(_NONE, full_coverage_scanners=49, full_scanner_repeats=20,
                         tools_cycle=["zmap"], duration_s=600),
    "noise-1e5": dict(_NONE, noise_sources=100_000),
    "flows-1e5": dict(_NONE, full_coverage_scanners=1, flow_total_pkts=10 ** 10,
                      flow_sampling_denominator=100, flow_benign_sources=100_000,
                      flow_routers=["router-1", "router-2", "router-3", "router-4"]),
    "partial-8": dict(_NONE, darknet_prefixes=["10.0.0.0/8"], partial_scanners=1,
                      partial_coverage_fraction=0.03),
}


def _vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_step(step: str) -> None:
    """The child: generate one scenario, then 'step wall_s vmhwm_mb packets flow_rows'."""
    import tempfile
    from time import perf_counter

    from darklens.synth import SynthScenario, generate

    with tempfile.TemporaryDirectory(prefix="scale_synth.") as tmp:
        t0 = perf_counter()
        manifest = generate(SynthScenario(**SCENARIOS[step]), 7, tmp)
        wall = perf_counter() - t0
    rows = manifest["flows"]["rows"] if "flows" in manifest else 0
    print(f"{step} {wall:.3f} {_vmhwm_mb():.1f} {manifest['pcap_packets']} {rows}")


def _child(src: Path, step: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, __file__, "--step", step], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--src", type=Path, action="append",
                        help="darklens source tree to time (repeatable; default this checkout's)")
    parser.add_argument("--step", choices=list(SCENARIOS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.step:
        run_step(args.step)
        return 0

    sources = [src.resolve() for src in args.src or [SRC]]
    print("step wall_s vmhwm_mb packets flow_rows src")
    for round_ in range(args.rounds):
        for i, step in enumerate(SCENARIOS):
            # Alternate which tree goes first, so drift on a shared host
            # falls on both.
            order = sources if (round_ + i) % 2 == 0 else sources[::-1]
            for src in order:
                print(_child(src, step), src, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
