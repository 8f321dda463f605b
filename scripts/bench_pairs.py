#!/usr/bin/env python3
"""Paired end-to-end benchmark runs of two source checkouts.

    python3 scripts/bench_pairs.py --before ../parent --after . \\
        --workload metro_sweep --pairs 10 --out BENCH_sweep.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with the
same seed and run length; the side that runs first alternates from pair to
pair.  Each side runs the benchmark files of its own checkout.  For every
workload and side the output records each run's end-to-end metrics, their
median and quartiles, and the environment perfbench reported (nproc, BLAS
threads, library versions, commit); ``after_wins`` counts the pairs in which
the "after" side was better, ties counting for neither.  An existing output
file keeps its other workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LOWER_IS_BETTER = {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "env": env,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": med, "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", type=Path, required=True, help="parent checkout")
    p.add_argument("--after", type=Path, required=True, help="changed checkout")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--note", help="free text kept in the output, such as the commits compared")
    args = p.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["harness"] = "scripts/bench_pairs.py over perfbench/run.py --trace 0"
    if args.note:
        doc["note"] = args.note
    workloads = doc.setdefault("workloads", {})
    for workload in args.workload:
        runs = {"before": [], "after": []}
        for i in range(args.pairs):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                res = run_once(getattr(args, side), workload, args.seed, args.seconds)
                runs[side].append(res)
                print(f"{workload} pair {i} {side}: {res['metrics']}", flush=True)
        wins = {}
        for name in runs["after"][0]["metrics"]:
            sign = -1 if name in LOWER_IS_BETTER else 1
            wins[name] = sum(sign * (a["metrics"][name] - b["metrics"][name]) > 0
                             for a, b in zip(runs["after"], runs["before"]))
        workloads[workload] = {
            "pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
            **{side: {"env": rs[0]["env"], "all_correct": all(r["correct"] for r in rs),
                      "summary": summarize(rs), "runs": [r["metrics"] for r in rs]}
               for side, rs in runs.items()},
            "after_wins": wins,
        }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
