"""Time the event-log consumers at the north star's scale, one child process a step.

    python tests/scale_event_log.py [--events 1000000] [--rounds 1] [--src DIR ...]

Writes an N-event log (and its binary copy) with helpers.synthetic_events
(5,000 sources, 50 ports, 2 days, seed 7) and write_event_log, runs `detect`
once over it to get the verdicts `report` reads, then prints one line per
step with its wall time and the child's VmHWM:

    drain-copy        read_event_log drained through the binary copy
    drain-json        read_event_log drained through the JSONL (no copy beside it)
    detect-two-pass   run_detection with derived thresholds, on a /8 telescope
    detect-fixed-1-1  run_detection with thresholds (1, 1): every event tagged
    report            the `report` subcommand: its one fold over the log

Each step runs in a fresh interpreter, so its VmHWM is its own peak. Every
`--src` names a darklens source tree (default: this checkout's src/) whose
code the steps import; with two, the runs alternate between them step by
step, so two commits can be compared on the same machine. `--rounds`
repeats the whole set. The log is written by this checkout's code. It is
not a test; pytest does not collect it.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
STEPS = ["drain-copy", "drain-json", "detect-two-pass", "detect-fixed-1-1", "report"]
# The telescope of the detect steps and the verdicts run: a /8 holds every
# synthetic event's destinations.
CONFIG = "darknet_prefixes = 10.0.0.0/8\n"


def _vmhwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_step(step: str, work: Path) -> None:
    """The child: one step over the log in work, then 'step wall_s vmhwm_mb'."""
    import contextlib
    import io
    from collections import deque
    from time import perf_counter

    from darklens import cli, detect
    from darklens.model import Thresholds, load_config, read_event_log

    log = work / "events.jsonl"
    cfg = load_config(work / "telescope.conf")
    actions = {
        "drain-copy": lambda: deque(read_event_log(log), 0),
        "drain-json": lambda: deque(read_event_log(work / "json" / "events.jsonl"), 0),
        "detect-two-pass": lambda: detect.run_detection(read_event_log(log), cfg),
        "detect-fixed-1-1": lambda: detect.run_detection(read_event_log(log), cfg,
                                                         Thresholds(1, 1)),
        "report": lambda: cli.main(["--out-dir", str(work / "report"), "report", str(log),
                                    str(work / "detect" / "verdicts.jsonl")]),
    }
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        result = actions[step]()
        wall = perf_counter() - t0
    if step == "report" and result != 0:
        raise SystemExit(f"report exited {result}")
    print(f"{step} {wall:.3f} {_vmhwm_mb():.1f}")


def _child(src: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, __file__, *args], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.strip()


def write_log(work: Path, events: int) -> None:
    """The child that writes the log, its JSON-only twin and the config."""
    from darklens.model import write_event_log
    from helpers import synthetic_events

    write_event_log(work / "events.jsonl",
                    synthetic_events(events, sources=5_000, ports=50, days=2, seed=7))
    (work / "json").mkdir()
    (work / "json" / "events.jsonl").symlink_to(work / "events.jsonl")
    (work / "telescope.conf").write_text(CONFIG, encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--events", type=int, default=10 ** 6)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--src", type=Path, action="append",
                        help="darklens source tree to time (repeatable; default this checkout's)")
    parser.add_argument("--step", choices=["write"] + STEPS, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.step == "write":
        write_log(args.work, args.events)
        return 0
    if args.step:
        run_step(args.step, args.work)
        return 0

    sources = [src.resolve() for src in args.src or [SRC]]
    with tempfile.TemporaryDirectory(prefix="scale_event_log.") as tmp:
        work = Path(tmp)
        _child(SRC, "--step", "write", "--work", str(work), "--events", str(args.events))
        subprocess.run(
            [sys.executable, "-m", "darklens.cli", "--config", str(work / "telescope.conf"),
             "--out-dir", str(work / "detect"), "detect", str(work / "events.jsonl")],
            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, capture_output=True)
        print(f"{args.events} events; log {(work / 'events.jsonl').stat().st_size / 1e6:.1f} MB")
        print("step wall_s vmhwm_mb src")
        for round_ in range(args.rounds):
            for step in STEPS:
                # Alternate which tree goes first, so drift on a shared host
                # falls on both.
                order = sources if (round_ + STEPS.index(step)) % 2 == 0 else sources[::-1]
                for src in order:
                    print(_child(src, "--step", step, "--work", str(work)), src, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
