#!/usr/bin/env python3
"""End-to-end benchmark of the RAIR reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig14_cold|torus32_single|serve_jobs \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (its own Cargo workspace, path-dependent on
the repository's crates) and runs the workload repeatedly, each iteration in
a fresh process with a fresh state directory, until S seconds have passed.
Every iteration's output digest is checked: all iterations of a run must
agree, and where `perfbench/expected_digests.json` holds a digest for the
seed, they must equal it. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
iterations, tracing off). With --trace 1 the run alternates untraced and
traced iterations and reports the per-layer metrics from the traced ones,
plus the tracing overhead (traced minus untraced wall time).

Exits 1 on a digest mismatch or a failed check (after printing the result),
and 2 without a result when the program cannot be built or run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("fig14_cold", "torus32_single", "serve_jobs")
FORBIDDEN_ENV = ("RAIR_ORACLE", "RAIR_SHARDS", "RAIR_COLD_SAT", "RAIR_VERIFY", "RAIR_THREADS")
# Extra set-up-only processes per run, so set-up time is a median over
# several samples even for workloads with few full iterations per run.
# fig14_cold's set-up is about a millisecond, mostly process start, so it
# needs many samples for a steady median.
SETUP_SAMPLES = {"fig14_cold": 40, "torus32_single": 15, "serve_jobs": 0}
WORKER_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(name):
    with open(HERE / name) as f:
        return json.load(f)


def build():
    """Build the harness; return the path of its binary."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


class Worker:
    """Runs single iterations of one workload in fresh processes."""

    def __init__(self, exe, workload, seed):
        self.exe, self.workload, self.seed = exe, workload, seed
        self.count = 0

    def run(self, traced=False, setup_only=False):
        self.count += 1
        work = WORK / f"run-{os.getpid()}-{self.count}"
        log = WORK / f"run-{os.getpid()}-{self.count}.log"
        shutil.rmtree(work, ignore_errors=True)
        cmd = [str(self.exe), "--workload", self.workload, "--seed", str(self.seed),
               "--trace", "1" if traced else "0", "--dir", str(work)]
        if traced:
            cmd += ["--spans", str(WORK / f"spans-{self.workload}-seed{self.seed}.json")]
        if setup_only:
            cmd.append("--setup-only")
        row, err = None, None
        try:
            with open(log, "w") as stderr:
                cmd += ["--spawned-ns", str(time.time_ns())]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr,
                                      text=True, timeout=WORKER_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                err = f"worker exited with {done.returncode}"
            else:
                row = json.loads(lines[-1])
        except subprocess.TimeoutExpired:
            err = f"worker timed out after {WORKER_TIMEOUT_S} s"
        except json.JSONDecodeError as e:
            err = f"unreadable worker output: {e}"
        if err is not None:
            tail = log.read_text(errors="replace").splitlines()[-20:]
            print(f"perfbench: {self.workload} seed {self.seed}: {err}", file=sys.stderr)
            print("\n".join(tail), file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        log.unlink(missing_ok=True)
        return row, err


def judge(rows, errors, reference, attempted_per_iteration):
    """Count attempts and failures; a row fails as a whole when its digest
    differs from `reference` or an internal check failed."""
    attempted = sum(r["attempted"] for r in rows) + errors * attempted_per_iteration
    failed = errors * attempted_per_iteration
    notes = []
    for r in rows:
        bad = list(r["problems"])
        if r["digest"] != reference:
            bad.append(f"digest {r['digest']} != expected {reference}")
        failed += r["attempted"] if bad else r["failed"]
        notes += bad
    return attempted, failed, notes


def seed_arg(text):
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2^64)")
    return seed


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=seed_arg, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    set_vars = [v for v in FORBIDDEN_ENV if v in os.environ]
    if set_vars:
        fail(f"refusing to run with {', '.join(set_vars)} set")

    bench = load_json("../BENCHMARK.json")
    exe = build()
    WORK.mkdir(exist_ok=True)
    worker = Worker(exe, args.workload, args.seed)

    plain, traced, setups, errors = [], [], [], 0
    start = time.monotonic()
    while True:
        want_traced = args.trace == 1 and len(traced) < len(plain)
        row, err = worker.run(traced=want_traced)
        if err is not None:
            errors += 1
        else:
            (traced if want_traced else plain).append(row)
        enough = plain and (args.trace == 0 or traced)
        if time.monotonic() - start >= args.seconds and enough:
            break
        if errors >= 3:
            break
    for _ in range(SETUP_SAMPLES[args.workload]):
        row, err = worker.run(setup_only=True)
        if err is None and not row["problems"]:
            setups.append(row["setup_s"])
        else:
            errors += 1
            for problem in row["problems"] if row else []:
                print(f"perfbench: {args.workload} set-up: {problem}", file=sys.stderr)

    rows = plain + traced
    per_iteration = max([r["attempted"] for r in rows] or [1])
    expected = load_json("expected_digests.json").get(args.workload, {}).get(str(args.seed))
    # Without a committed digest for this seed, every iteration of the run
    # must still agree.
    digests = sorted({r["digest"] for r in rows})
    reference = expected or (digests[0] if len(digests) == 1 else None)
    attempted, failed, notes = judge(rows, errors, reference, per_iteration)
    for note in sorted(set(notes)):
        print(f"perfbench: {args.workload} seed {args.seed}: {note}", file=sys.stderr)
    correct = failed == 0 and not notes and errors == 0

    host = plain[0]["host_parallelism"] if plain else os.cpu_count()
    metrics = {}
    if args.trace == 0:
        values = {
            "wall_s": median(r["wall_s"] for r in plain),
            "setup_s": median([r["setup_s"] for r in plain] + setups),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload} seed {args.seed}: " + "  ".join(
            f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
            + f"  failed_frac={failed / max(attempted, 1):.4g} ({failed}/{attempted})"
            f"  iterations={len(plain)} host_parallelism={host}"
            f"  digest={','.join(digests)} expected={expected or 'none committed'}")
    else:
        untraced_wall = median(r["wall_s"] for r in plain)
        traced_wall = median(r["wall_s"] for r in traced)
        values = {
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            # Share of each traced iteration's wall time inside top-level
            # spans (the untraced comparison is trace.overhead_s).
            "trace.top_cover": median(r["top_level_s"] / r["wall_s"] for r in traced),
            "trace.spans": median(r["spans"] for r in traced),
        }
        for m in bench["per_layer"]:
            name = m["name"]
            if name.startswith("self."):
                layer = name[len("self."):-len("_s")]
                values[name] = median(r["self_s"].get(layer, 0.0) for r in traced)
            elif name not in values:
                values[name] = median(r["layers"].get(name, 0.0) for r in traced)
            metrics[name] = {"value": values[name], "unit": m["unit"]}
        print(f"{args.workload} seed {args.seed} (traced): trace.overhead_s="
              f"{values['trace.overhead_s']:.4g} s  trace.top_cover="
              f"{values['trace.top_cover']:.4g}  iterations={len(plain)}+{len(traced)}"
              f"  host_parallelism={host}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
