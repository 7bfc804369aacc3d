"""Benchmark of ietkhinchin: one workload, one seed, one run.

    python3 perfbench/run.py --workload dichotomy --seed 1 --seconds 25 --trace 0

Run from the root of a source tree.  The command builds the package's
extensions in place (``python setup.py build_ext --inplace``), imports the
package from ``src/``, sets up, runs whole rounds of ops until ``--seconds``
of op time have passed, checks the outputs against ``checks.py``, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are at reference speed: each phase's raw times are scaled by the
host's speed over that phase, as ``hostspeed.py`` measures it between ops.

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, peak_rss_mb); with ``--trace 1`` the per-layer ones, from a
traced replay of the rounds first run untraced.  The run record (commit,
backend, machine, seeds, parameters, op times and, when traced, the spans)
goes to ``.perfbench-out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
from hostspeed import HostSpeed

ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("dichotomy", "exact", "targets")
SETUPS = 3
# Op seconds between two samples of the host's speed.
SEGMENT_SECONDS = 0.5


def build() -> float:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=850,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"building the extensions failed (exit {done.returncode})")
    return time.perf_counter() - start


def set_up(name: str, seed: int, speed: HostSpeed):
    """Import the package, make the workload and run its warm-up round.

    Returns the workload and the seconds this took, at reference speed."""
    samples = [speed.sample() for _ in range(3)]
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ietkhinchin

    if not Path(ietkhinchin.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"ietkhinchin was imported from {ietkhinchin.__file__}, not from {src}")
    import workloads

    workload = workloads.make(name, seed)
    for inp in workload.warmup_round():
        workload.op(inp)
    seconds = time.perf_counter() - start
    samples += [speed.sample() for _ in range(3)]
    return workload, seconds * speed.factor(samples)


def set_up_apart(name: str, seed: int) -> float:
    """Seconds, at reference speed, of a set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("a set-up in a fresh interpreter failed")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_rounds(workload, seed: int, speed: HostSpeed, seconds=None, rounds=None, tracer=None):
    """Whole rounds until ``seconds`` of op time have passed, or exactly
    ``rounds`` rounds.  Each op's output is checked right after the op,
    outside its time, and then dropped, so memory does not grow with the
    number of ops.  The host's speed is sampled after each SEGMENT_SECONDS of
    op time.  Returns (raw op seconds, speed samples, errors, check
    failures, rounds)."""
    picks = random.Random(f"checks:{seed}")
    op_times, errors, failures, index = [], [], [], 0
    samples, segment = [speed.sample()], 0.0
    while (sum(op_times) < seconds) if rounds is None else (index < rounds):
        for inp in workload.round(index):
            op = len(op_times)
            start = time.perf_counter()
            error = None
            try:
                if tracer is None:
                    out = workload.op(inp)
                else:
                    tracer.op = op
                    with tracer.span(tracing.OP):
                        out = workload.op(inp)
            except Exception:  # one failed op is counted, the run goes on
                error = traceback.format_exc()
            op_times.append(time.perf_counter() - start)
            if error is not None:
                errors.append(f"op {op}: {error}")
            else:
                try:
                    workload.check(inp, out, full=picks.random() < workload.full_share)
                except checks.CheckFailed as failure:
                    failures.append(f"op {op}: {failure}")
            segment += op_times[-1]
            if segment >= SEGMENT_SECONDS:
                samples.append(speed.sample())
                segment = 0.0
        index += 1
    samples.append(speed.sample())
    return op_times, samples, errors, failures, index


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    speed = HostSpeed()
    if args.setup_only:
        _, setup = set_up(args.workload, args.seed, speed)
        print(json.dumps({"setup_s": setup}))
        return 0

    build_s = build()
    setups = [] if args.trace else [set_up_apart(args.workload, args.seed) for _ in range(SETUPS - 1)]
    workload, own_setup = set_up(args.workload, args.seed, speed)
    setups.append(own_setup)

    from ietkhinchin import kernel

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": workload.params, "commit": commit(), "source_sha256": source_digest(),
        "backend": kernel.BACKEND, "python": sys.version, "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "build_s": build_s,
        "setup_samples_s": setups,
    }

    if args.trace:
        untraced_raw, untraced_samples, errors, failures, rounds = run_rounds(
            workload, args.seed, speed, seconds=args.seconds / 2
        )
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        workload.phase = tracer.span
        try:
            raw, samples, more_errors, more_failures, _ = run_rounds(
                workload, args.seed, speed, rounds=rounds, tracer=tracer
            )
        finally:
            tracer.uninstall()
        errors += more_errors
        failures += more_failures + tracing.nesting_errors(tracer)
        factor = speed.factor(samples)
        untraced_s = sum(untraced_raw) * speed.factor(untraced_samples)
        ops = len(raw)
        metrics = tracing.layer_metrics(tracer, ops, factor)
        metrics.update({
            "trace.op_s": statistics.fmean(raw) * factor,
            "trace.ops_per_s": ops / (sum(raw) * factor),
            "trace.untraced_ops_per_s": ops / untraced_s,
            "trace.overhead_ratio": sum(raw) * factor / untraced_s,
        })
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        record["spans"] = tracer.spans
        raw = untraced_raw + raw
    else:
        raw, samples, errors, failures, rounds = run_rounds(
            workload, args.seed, speed, seconds=args.seconds
        )
        factor = speed.factor(samples)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(raw) / (sum(raw) * factor),
            "op_p50_ms": statistics.median(raw) * factor * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MiB"}

    for message in errors + failures:
        print(message, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(raw),
        "failed": len(errors) + len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(
        rounds=rounds, op_raw_s=raw, speed_samples_s=speed.samples, reference_factor=factor,
        errors=errors, check_failures=failures, result=result,
    )
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=str))
    print(f"run record: {out_file.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
