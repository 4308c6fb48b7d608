"""Time the event fold on whole-telescope sweeps, one child process a step.

    python tests/scale_sweep.py [--sweeps 1] [--rounds 1] [--src DIR ...]

Each step folds a stream of UDP probes through `EventBuilder.fold`, flushes
the builder, and prints one line with the fold's wall time, the time to draw
the same stream alone, the child's VmHWM, and how many of the events do not
hold the true destination count (an estimating tree may miss it):

    sweep-12   --sweeps k sources, each sweeping all 2^20 addresses of a /12,
               interleaved packet by packet: k open events, each a full bitmap
    switch-8   100 sources on a /8, interleaved, each sending 16,385 packets
               to distinct addresses: 100 open events just past the
               set-to-bitmap switch (darknet_size >> 10 = 16,384)

The packets are plain tuples drawn by a generator, so `fold_s` includes
drawing them; `gen_s` is that share, timed on its own after the fold. Each
step runs in a fresh interpreter, so its VmHWM is its own peak. Every `--src`
names a darklens source tree (default: this checkout's src/); with two, the
runs alternate between them step by step, so two commits can be compared on
the same machine. `--rounds` repeats the whole set. It is not a test; pytest
does not collect it.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
STEPS = ["sweep-12", "switch-8"]


def _vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_step(step: str, sweeps: int) -> None:
    """The child: fold one step's stream, then 'step fold_s gen_s vmhwm_mb inexact'."""
    from collections import deque
    from time import perf_counter

    from darklens.events import EventBuilder
    from darklens.model import DarknetConfig, Protocol

    if step == "sweep-12":
        cfg = DarknetConfig(["10.0.0.0/12"])
        keys, per_key = sweeps, cfg.darknet_size
    else:
        cfg = DarknetConfig(["10.0.0.0/8"])
        keys, per_key = 100, (cfg.darknet_size >> 10) + 1
    base = cfg.range_starts[0]
    udp = Protocol.UDP

    def packets():
        # Packet j is source j % keys's probe to its (j // keys)-th address,
        # at j microseconds: well inside one sweep interval.
        for j in range(keys * per_key):
            yield (j, 1000 + j % keys, base + j // keys, udp, 40000, 53, None, 7, None, None, 60)

    builder = EventBuilder(cfg)
    t0 = perf_counter()
    closed = deque(builder.fold(packets()), 0)
    events = builder.flush()
    fold_s = perf_counter() - t0
    vmhwm = _vmhwm_mb()
    t0 = perf_counter()
    deque(packets(), 0)
    gen_s = perf_counter() - t0
    if len(closed) or [ev.pkt_count for ev in events] != [per_key] * keys:
        raise SystemExit(f"{step}: expected {keys} events of {per_key} packets at flush")
    inexact = sum(ev.unique_dst_count != per_key for ev in events)
    print(f"{step} {fold_s:.3f} {gen_s:.3f} {vmhwm:.1f} {inexact}")


def _child(src: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, __file__, *args], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sweeps", type=int, default=1, help="concurrent /12 sweeps")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--src", type=Path, action="append",
                        help="darklens source tree to time (repeatable; default this checkout's)")
    parser.add_argument("--step", choices=STEPS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.sweeps < 1:
        parser.error("--sweeps must be >= 1")
    if args.step:
        run_step(args.step, args.sweeps)
        return 0

    sources = [src.resolve() for src in args.src or [SRC]]
    print(f"sweeps {args.sweeps}")
    print("step fold_s gen_s vmhwm_mb inexact src")
    for round_ in range(args.rounds):
        for step in STEPS:
            # Alternate which tree goes first, so drift on a shared host
            # falls on both.
            order = sources if (round_ + STEPS.index(step)) % 2 == 0 else sources[::-1]
            for src in order:
                line = _child(src, "--step", step, "--sweeps", str(args.sweeps))
                print(line, src, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
