"""Nightly-pipeline benchmark for darklens.

    python3 bench/run.py --workload dense-22 --seed 1 --seconds 35 --trace 0

Builds the workload's inputs from the seed, then runs the cron chain
`events -> detect -> impact -> report`, each subcommand as its own
`python -m darklens.cli` child, one after another, repeatedly for about
`--seconds`. It reports the median wall time and peak RSS of each stage, the
whole chain's wall time and the set-up time, and checks every run's outputs
against the synth manifest. Every reported time is host-normalised: a
child's wall time is divided by the mean time of the reference child
(hostref.py) run just before and just after it, and multiplied by REF_S, that
child's nominal time. The raw wall times are kept in the details. With
`--trace 1` it instead runs the chain in process with the layers' public
functions wrapped, and reports per-layer self times and counts (layers.py).

The last line of stdout is the result object; the line before it holds the
details: machine context, input digests, every sample and every failed
check. The same details are written to .bench_work/<workload>/result.json.

This process imports only the standard library while it measures: Linux
carries a parent's peak RSS into the ru_maxrss of every child it starts, so
a heavy parent would mask the stages' own peaks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from oracle import check_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
# Nominal seconds of one hostref.py run: a time reported as 1 s took as long
# as 1 s / REF_S reference runs around it. A run takes 0.15 to 0.4 s on a
# 2-vCPU Xeon VM with Python 3.11 and numpy 2.4, as the shared host drifts.
REF_S = 0.3


def machine_context() -> dict:
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "loadavg_at_start": [float(x) for x in loadavg],
    }


def digest_dir(path: Path) -> dict:
    """sha256 of every regular file directly under path, by file name."""
    out = {}
    for f in sorted(path.iterdir()):
        if f.is_file():
            with open(f, "rb") as fh:
                out[f.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def normalised(wall: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds rescaled to the host speed at which hostref.py takes REF_S."""
    return wall * REF_S / ((ref_before + ref_after) / 2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, log: Path, env: dict):
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    The RSS is the child's own, from wait4, not RUSAGE_CHILDREN (a running
    maximum over every child this process has waited for).
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def reference_run(log: Path, env: dict, checks: list) -> float:
    """Wall seconds of one hostref.py child."""
    rc, wall, _rss = run_child([sys.executable, str(BENCH / "hostref.py")], log, env)
    checks.append(("hostref_exit_code", rc == 0, f"exit code {rc}"))
    return wall


def stage_argvs(workload, inputs: Path, out: Path):
    """The cron chain as (stage, argv) pairs for `darklens.cli`."""
    conf = ["--config", str(inputs / "telescope.conf"), "--out-dir", str(out)]
    acked = []
    report_feeds = []
    if workload.feeds is not None:
        acked = ["--acked-ips", str(inputs / "acked_ips.csv"),
                 "--acked-keywords", str(inputs / "acked_keywords.csv"),
                 "--rdns", str(inputs / "rdns.csv")]
        report_feeds = ["--asn-map", str(inputs / "asn.csv"), "--tags", str(inputs / "tags.csv"),
                        "--exclude-acked", *acked]
    return [
        ("events", conf + ["events", str(inputs / "synth.pcap")]),
        ("detect", conf + ["detect", str(out / "events.jsonl")]),
        ("impact", ["--out-dir", str(out), "impact", "--blocklist", str(out / "blocklist_union.txt"),
                    "--flows", str(inputs / "flows.csv"), "--pcap", str(inputs / "synth.pcap"),
                    "--bin-width", repr(workload.bin_width_s), *acked]),
        ("report", ["--out-dir", str(out), "report", str(out / "events.jsonl"),
                    str(out / "verdicts.jsonl"), *report_feeds]),
    ]


def setup(workload_name: str, seed: int, inputs: Path, reps: int, env: dict, checks: list):
    """Generate the inputs `reps` times.

    Returns (median normalised seconds, digests, samples); each sample holds a
    generation's wall time, its normalised time and the reference runs
    around it.
    """
    times, digests, samples = [], [], []
    ref_log = inputs.parent / "hostref.log"
    reference_run(ref_log, env, checks)  # warm-up: the first run reads numpy from disk
    ref_before = reference_run(ref_log, env, checks)
    for _ in range(reps):
        shutil.rmtree(inputs, ignore_errors=True)
        rc, wall, _rss = run_child(
            [sys.executable, str(BENCH / "inputs.py"), "--workload", workload_name,
             "--seed", str(seed), "--out", str(inputs)],
            inputs.parent / "setup.log", env,
        )
        checks.append(("setup_exit_code", rc == 0, f"exit code {rc}"))
        if rc != 0:
            raise SystemExit(f"input generation failed, see {inputs.parent / 'setup.log'}")
        ref_after = reference_run(ref_log, env, checks)
        times.append(normalised(wall, ref_before, ref_after))
        samples.append({"wall_s": wall, "setup_s": times[-1], "ref_s": [ref_before, ref_after]})
        ref_before = ref_after
        digests.append(digest_dir(inputs))
    checks.append(("input_digests_repeat", all(d == digests[0] for d in digests),
                   f"{reps} generations"))
    return statistics.median(times), digests[0], samples


def measure(workload, inputs: Path, out: Path, seconds: float, env: dict, checks: list):
    """Run the chain repeatedly for about `seconds`; returns per-rep samples.

    A reference run goes before the first stage and after every stage, and
    each stage's wall time is normalised by the two around it. A sample holds
    each stage's normalised time (`<stage>_s`), raw wall time
    (`<stage>_wall_s`) and peak RSS, the chain's `pipeline_s` and
    `pipeline_wall_s` (sums over its stages, which run back to back), and the
    reference runs' times.
    """
    stages = stage_argvs(workload, inputs, out)
    samples = []
    first_outputs = None
    ref_log = out.parent / "hostref.log"
    start = time.perf_counter()
    ref_before = reference_run(ref_log, env, checks)
    while True:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rep = {"pipeline_s": 0.0, "pipeline_wall_s": 0.0, "ref_s": [ref_before]}
        for name, argv in stages:
            rc, wall, rss = run_child([sys.executable, "-m", "darklens.cli", *argv],
                                      out.parent / f"{name}.log", env)
            checks.append((f"{name}_exit_code", rc == 0, f"exit code {rc}"))
            ref_after = reference_run(ref_log, env, checks)
            rep[f"{name}_s"] = normalised(wall, ref_before, ref_after)
            rep[f"{name}_wall_s"] = wall
            rep[f"{name}_rss_mb"] = rss
            rep["pipeline_s"] += rep[f"{name}_s"]
            rep["pipeline_wall_s"] += wall
            rep["ref_s"].append(ref_after)
            ref_before = ref_after
        samples.append(rep)
        outputs = digest_dir(out)
        if first_outputs is None:
            first_outputs = outputs
        else:
            checks.append(("outputs_repeat", outputs == first_outputs,
                           f"rep {len(samples)} vs rep 1"))
        spent = time.perf_counter() - start
        if spent * (len(samples) + 1) / len(samples) > seconds:
            return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "darklens" / "cli.py").is_file():
        print(f"error: no darklens sources under {SRC}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    workload = WORKLOADS[args.workload]
    context = machine_context()
    work = WORK / args.workload
    inputs, out = work / "inputs", work / "out"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()
    checks: list = []

    setup_s, input_digests, setup_samples = setup(
        args.workload, args.seed, inputs, 1 if args.trace else SETUP_REPS, env, checks)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "inputs_sha256": input_digests,
              "setup_samples_s": setup_samples}

    sys.path.insert(0, str(SRC))
    if args.trace:
        import layers

        metrics, trace_checks = layers.traced_run(
            stage_argvs(workload, inputs, out), out, args.seconds, sys.executable, env)
        checks += trace_checks
    else:
        samples = measure(workload, inputs, out, args.seconds, env, checks)
        detail["samples"] = samples
        metrics = {key: statistics.median(s[key] for s in samples)
                   for key in samples[0] if key in units}
        metrics["setup_s"] = setup_s
        detail["wall_medians_s"] = {key: statistics.median(s[key] for s in samples)
                                    for key in samples[0] if key.endswith("_wall_s")}
        detail["ref_median_s"] = statistics.median(r for s in samples for r in s["ref_s"][1:])

    from darklens.events import EXACT_DST_THRESHOLD

    with open(inputs / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    sketch_mode = manifest["darknet_size"] > EXACT_DST_THRESHOLD
    try:
        checks += check_outputs(manifest, inputs, out, sketch_mode)
    except (OSError, ValueError, KeyError) as exc:  # an output is missing or malformed
        checks.append(("oracle", False, repr(exc)))

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    failed = [c for c in checks if not c[1]]
    detail["checks_run"] = len(checks)
    detail["checks_failed"] = [{"check": name, "detail": why} for name, _ok, why in failed]
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
