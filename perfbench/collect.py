#!/usr/bin/env python3
"""Repeat benchmark runs over many seeds and summarise them.

    python3 perfbench/collect.py spread [--workloads a,b] [--seeds 1-10]
                                        [--trace 0|1] [--baseline]
    python3 perfbench/collect.py digests [--workloads a,b] [--seeds 0-31]

`spread` runs `run.py` once per (workload, seed), exactly as the
benchmark command is run, and prints each metric's median, quartiles and
spread (the distance between the quartiles as a share of the median) next
to the bound in BENCHMARK.json. With --baseline it merges the rows into
`perfbench/baseline.json`.

`digests` runs one iteration per (workload, seed) and merges the output
digests into `perfbench/expected_digests.json`. Record digests only from
unmodified library code: later runs are checked against them.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys

import run

HERE = run.HERE


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def spread(args, bench):
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    rows = []
    for workload in args.workloads:
        values, correct = {}, True
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            out = json.loads(done.stdout.strip().splitlines()[-1])
            correct &= out["correct"] and done.returncode == 0
            for name, m in out["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            print(done.stdout.strip().splitlines()[0], flush=True)
        metrics = {}
        for name, (vals, unit) in values.items():
            q1, med, q3 = quartiles(vals)
            spread_ = (q3 - q1) / med if med else 0.0
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread_,
                             "unit": unit}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread_ < bound / 3 else ("WITHIN BOUND" if spread_ <= bound
                                                         else "OVER BOUND")
            print(f"  {workload:15s} {name:28s} median {med:.6g} {unit}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {spread_:.4f}  {flag}", flush=True)
        rows.append({"workload": workload, "trace": args.trace, "runs": len(args.seeds),
                     "seeds": args.seeds, "run_seconds": seconds, "correct": correct,
                     "metrics": metrics})
    return rows


def host():
    model = "unknown CPU"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return f"{platform.machine()} Linux, {run.os.cpu_count()} x {model}"


def commit():
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("spread", "digests"))
    ap.add_argument("--workloads", type=lambda t: t.split(","), default=list(run.WORKLOADS))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    bench = run.load_json("../BENCHMARK.json")

    if args.mode == "digests":
        exe = run.build()
        run.WORK.mkdir(exist_ok=True)
        path = HERE / "expected_digests.json"
        digests = json.loads(path.read_text())
        for workload in args.workloads:
            for seed in args.seeds:
                row, err = run.Worker(exe, workload, seed).run()
                if err is not None or row["problems"]:
                    sys.exit(f"{workload} seed {seed}: {err or row['problems']}")
                digests.setdefault(workload, {})[str(seed)] = row["digest"]
                print(workload, seed, row["digest"], flush=True)
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return

    rows = spread(args, bench)
    if args.baseline:
        path = HERE / "baseline.json"
        base = json.loads(path.read_text()) if path.exists() else {"rows": []}
        base.update({
            "commit": commit(),
            "host": host(),
            "host_parallelism": len(run.os.sched_getaffinity(0)),
        })
        keep = [r for r in base["rows"]
                if not any(r["workload"] == n["workload"] and r["trace"] == n["trace"]
                           for n in rows)]
        base["rows"] = keep + rows
        path.write_text(json.dumps(base, indent=1) + "\n")


if __name__ == "__main__":
    main()
